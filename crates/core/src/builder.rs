//! Fluent construction of engines — the entry point of the runtime API v2.
//!
//! ```
//! use defcon_core::{Engine, SecurityMode};
//!
//! let engine = Engine::builder()
//!     .mode(SecurityMode::LabelsFreezeIsolation)
//!     .workers(4)
//!     .build();
//! assert_eq!(engine.configured_workers(), 4);
//! ```

use crate::admission::{ElasticConfig, IngressConfig};
use crate::engine::{Engine, EngineConfig, SecurityMode};
use crate::fault::FaultPolicy;
use crate::handle::EngineHandle;

/// The worker count [`EngineBuilder::workers_auto`] resolves to on this host:
/// [`std::thread::available_parallelism`], or 1 when the platform cannot report
/// it. A 1-core container therefore gets a single dispatcher (extra workers
/// there would only add cross-thread handoff), while a 16-way host gets 16
/// without any per-deployment tuning.
pub fn auto_worker_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Builder for [`Engine`] instances.
///
/// Defaults match [`EngineConfig::default`]: `labels+freeze`, no worker threads
/// (manual pumping) and a 1,024-instance managed cap.
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    config: EngineConfig,
}

impl EngineBuilder {
    /// Creates a builder with the default configuration.
    pub fn new() -> Self {
        EngineBuilder::default()
    }

    /// Selects the security configuration (one of the paper's four series).
    pub fn mode(mut self, mode: SecurityMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Sets a *fixed* dispatcher worker pool: [`Engine::start`] spawns exactly
    /// `workers` threads and all of them stay active (`workers_min ==
    /// workers_max == workers`).
    ///
    /// Zero (the default) means no background dispatch: the started handle is
    /// pumped manually, which keeps single-threaded tests deterministic.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers_min = workers;
        self.config.workers_max = workers;
        self
    }

    /// Sets the lower edge of the worker band: how many workers stay active
    /// when the engine idles. Clamped into `1..=workers_max` at build for live
    /// pools. Combine with [`EngineBuilder::workers_max`] for an elastic pool;
    /// on its own (without a larger max) it behaves like
    /// [`EngineBuilder::workers`].
    pub fn workers_min(mut self, workers_min: usize) -> Self {
        self.config.workers_min = workers_min;
        if self.config.workers_max < workers_min {
            self.config.workers_max = workers_min;
        }
        self
    }

    /// Sets the upper edge of the worker band: the number of worker threads
    /// [`Engine::start`] spawns. When it exceeds `workers_min` the pool is
    /// **elastic**: workers above the minimum park until sampled queue depth
    /// recruits them, and park back down after an idle grace — see
    /// [`EngineConfig::workers_max`](crate::EngineConfig) and the grouped
    /// tuning in [`EngineBuilder::elastic`].
    pub fn workers_max(mut self, workers_max: usize) -> Self {
        self.config.workers_max = workers_max;
        self
    }

    /// Sizes a fixed dispatcher worker pool from the host's available
    /// parallelism ([`auto_worker_count`]): as many workers as the hardware
    /// can actually run, no more. The run queue's shard count is clamped to
    /// the same number (one shard per worker), so the resolved count also
    /// bounds producer-side lock spreading. The resolved number is readable
    /// afterwards via [`Engine::configured_workers`] — benchmark reports
    /// record it so results stay comparable across hosts. For a pool that
    /// adapts to *load* rather than only to hardware, pair
    /// [`EngineBuilder::workers_min`] with a larger
    /// [`EngineBuilder::workers_max`].
    pub fn workers_auto(self) -> Self {
        let workers = auto_worker_count();
        self.workers(workers)
    }

    /// Sets the elastic worker-band tuning in one grouped config (scale-up
    /// depth threshold, park-down idle grace) — replaces the loose v2
    /// `elastic_scale_up_depth` / `elastic_idle_grace` knobs:
    ///
    /// ```
    /// use defcon_core::{ElasticConfig, Engine};
    /// use std::time::Duration;
    ///
    /// let engine = Engine::builder()
    ///     .workers_min(1)
    ///     .workers_max(4)
    ///     .elastic(
    ///         ElasticConfig::new()
    ///             .scale_up_depth(8)
    ///             .idle_grace(Duration::from_millis(2)),
    ///     )
    ///     .build();
    /// assert_eq!(engine.configured_workers(), 4);
    /// ```
    pub fn elastic(mut self, config: ElasticConfig) -> Self {
        self.config.elastic = config;
        self
    }

    /// Enables bounded admission, grouped like [`EngineBuilder::wal`]: the
    /// engine enforces the configured
    /// [`queue_bound`](crate::IngressConfig::queue_bound) on
    /// [`try_publish_batch`](crate::Publisher::try_publish_batch) calls, and
    /// an ingress tier built over the engine paces its sessions with
    /// [`credit_window`](crate::IngressConfig::credit_window) credits under
    /// the configured [`FullQueuePolicy`](crate::FullQueuePolicy).
    pub fn ingress(mut self, config: IngressConfig) -> Self {
        self.config.ingress = Some(config);
        self
    }

    /// Enables fault handling, grouped like [`EngineBuilder::ingress`] and
    /// [`EngineBuilder::wal`]: the engine counts panicking deliveries per unit
    /// and, when a unit exceeds the policy's panic budget within its delivery
    /// window, auto-swaps it to its registered standby
    /// ([`Engine::set_standby`](crate::Engine::set_standby)) or quarantines
    /// it — see [`FaultPolicy`].
    pub fn fault(mut self, policy: FaultPolicy) -> Self {
        self.config.fault = Some(policy);
        self
    }

    /// Selects the subscription matcher (the inverted index, the default, when
    /// `true`): planning consults a part-name/value index for a candidate
    /// superset per event and runs the exact filter only on candidates, so
    /// matching cost scales with matching subscriptions instead of registered
    /// ones. `false` keeps the linear scan over every subscription — the
    /// reference the index property tests compare against (see
    /// [`EngineConfig::subscription_index`](crate::EngineConfig)). Delivery
    /// sets are identical under either matcher.
    pub fn subscription_index(mut self, subscription_index: bool) -> Self {
        self.config.subscription_index = subscription_index;
        self
    }

    /// Sets the dispatch batch size: how many events a dispatcher pops (and
    /// accounts for) per run-queue lock round-trip, and the chunk size batched
    /// publishers enqueue with. The default of 1 preserves classic
    /// one-event-at-a-time queueing; values are clamped to at least 1 at use.
    /// Delivery order is the same at every batch size; dispatch observes
    /// subscriber security state as snapshotted at batch start (see
    /// [`EngineConfig::batch_size`]).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.config.batch_size = batch_size.max(1);
        self
    }

    /// Sets the cap on live managed handler instances.
    pub fn managed_instance_cap(mut self, cap: usize) -> Self {
        self.config.managed_instance_cap = cap;
        self
    }

    /// Enables the write-ahead event log: every externally published batch is
    /// appended (one CRC-framed record per batch, fsynced per the config's
    /// [`FsyncPolicy`](defcon_durability::FsyncPolicy)) *before* it is
    /// enqueued, and [`Engine::recover_from`] replays the directory after a
    /// crash. Cascade publications are not logged — dispatch regenerates them
    /// on replay. [`Engine::new`] panics if the log directory cannot be
    /// opened.
    pub fn wal(mut self, config: defcon_durability::WalConfig) -> Self {
        self.config.wal = Some(config);
        self
    }

    /// Replaces the whole configuration (for deployments described
    /// declaratively as an [`EngineConfig`] value).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds the engine without starting its runtime.
    pub fn build(self) -> Engine {
        Engine::new(self.config)
    }

    /// Builds the engine and starts its runtime in one step — shorthand for
    /// `builder.build().start()`.
    pub fn start(self) -> EngineHandle {
        self.build().start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_applies_every_knob() {
        use crate::admission::FullQueuePolicy;
        use crate::fault::FaultAction;
        let engine = Engine::builder()
            .mode(SecurityMode::LabelsClone)
            .workers(3)
            .batch_size(16)
            .subscription_index(false)
            .managed_instance_cap(9)
            .elastic(
                ElasticConfig::new()
                    .scale_up_depth(12)
                    .idle_grace(std::time::Duration::from_millis(3)),
            )
            .ingress(
                IngressConfig::new(256)
                    .credit_window(32)
                    .policy(FullQueuePolicy::ShedNewest),
            )
            .fault(
                FaultPolicy::new(2)
                    .window(50)
                    .action(FaultAction::Quarantine),
            )
            .build();
        assert_eq!(engine.mode(), SecurityMode::LabelsClone);
        assert_eq!(engine.configured_workers(), 3);
        assert_eq!(
            engine.configured_workers_min(),
            3,
            "workers(n) is a fixed pool"
        );
        assert_eq!(engine.configured_batch_size(), 16);
        assert!(!engine.subscription_index());
        let ingress = engine.ingress_config().expect("ingress config set");
        assert_eq!(ingress.queue_bound, 256);
        assert_eq!(ingress.credit_window, 32);
        assert_eq!(ingress.policy, FullQueuePolicy::ShedNewest);
        let fault = engine.fault_policy().expect("fault policy set");
        assert_eq!(fault.max_panics, 2);
        assert_eq!(fault.window, 50);
        assert_eq!(fault.action, FaultAction::Quarantine);
    }

    #[test]
    fn worker_band_clamps_and_reports_through_queue_stats() {
        let engine = Engine::builder().workers_min(1).workers_max(4).build();
        assert_eq!(engine.configured_workers_min(), 1);
        assert_eq!(engine.configured_workers(), 4);
        let stats = engine.queue_stats();
        assert_eq!(stats.workers_min, 1);
        assert_eq!(stats.workers_max, 4);
        assert_eq!(
            stats.workers_active, 1,
            "elastic pools start at the minimum"
        );
        assert_eq!(stats.workers_high_water, 1);
        assert_eq!(stats.depth, 0);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.shard_depths.len(), engine.run_queue_shards());

        // workers_min alone raises the max with it (fixed pool semantics)...
        let fixed = Engine::builder().workers_min(3).build();
        assert_eq!(fixed.configured_workers(), 3);
        assert_eq!(fixed.configured_workers_min(), 3);
        // ...and a zero min on a live band is clamped to one active worker.
        let clamped = Engine::builder().workers_min(0).workers_max(2).build();
        assert_eq!(clamped.configured_workers_min(), 1);
    }

    #[test]
    fn manual_engines_report_an_empty_worker_band() {
        let engine = Engine::builder().build();
        let stats = engine.queue_stats();
        assert_eq!(stats.workers_min, 0);
        assert_eq!(stats.workers_max, 0);
        assert_eq!(stats.workers_active, 0);
        assert_eq!(stats.workers_high_water, 0);
    }

    #[test]
    fn batch_size_zero_clamps_to_one() {
        let engine = Engine::builder().batch_size(0).build();
        assert_eq!(engine.configured_batch_size(), 1);
    }

    #[test]
    fn builder_defaults_match_engine_config_defaults() {
        let engine = EngineBuilder::new().build();
        assert_eq!(engine.mode(), SecurityMode::LabelsFreeze);
        assert_eq!(engine.configured_workers(), 0);
        assert_eq!(engine.configured_batch_size(), 1);
        assert!(
            engine.subscription_index(),
            "the inverted index is the default matcher"
        );
    }

    #[test]
    fn workers_auto_matches_available_parallelism_and_shard_count() {
        let engine = Engine::builder().workers_auto().build();
        let resolved = auto_worker_count();
        assert!(resolved >= 1);
        assert_eq!(engine.configured_workers(), resolved);
        // One run-queue shard per worker: the clamp keeps producers spreading
        // over exactly as many locks as there are consumers to drain them.
        assert_eq!(engine.run_queue_shards(), resolved);
    }

    #[test]
    fn config_override_replaces_prior_settings() {
        let config = EngineConfig {
            mode: SecurityMode::NoSecurity,
            workers_min: 2,
            workers_max: 2,
            ..EngineConfig::default()
        };
        let engine = Engine::builder()
            .mode(SecurityMode::LabelsClone)
            .config(config)
            .build();
        assert_eq!(engine.mode(), SecurityMode::NoSecurity);
        assert_eq!(engine.configured_workers(), 2);
    }
}
