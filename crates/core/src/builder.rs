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

use crate::admission::IngressConfig;
use crate::engine::{Engine, EngineConfig, SecurityMode};
use crate::fault::FaultPolicy;
use crate::handle::EngineHandle;

/// A worker count sized to this host, for
/// `Engine::builder().workers(auto_worker_count())`:
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
/// (manual pumping), batch size 1 and the subscription index on.
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

    /// Sets the dispatcher worker pool: [`Engine::start`] spawns exactly
    /// `workers` threads and all of them stay active until shutdown. The run
    /// queue gets one shard per worker. [`auto_worker_count`] sizes the pool
    /// to the host.
    ///
    /// Zero (the default) means no background dispatch: the started handle is
    /// pumped manually, which keeps single-threaded tests deterministic.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
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
    fn manual_engines_report_an_empty_worker_band() {
        let engine = Engine::builder().build();
        let stats = engine.queue_stats();
        assert_eq!(stats.workers_high_water, 0);
        assert_eq!(stats.sched_wakes, 0);
        assert_eq!(
            engine.run_queue_shards(),
            1,
            "a manual engine keeps one shard"
        );
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
    fn workers_n_gives_one_run_queue_shard_per_worker() {
        assert!(auto_worker_count() >= 1);
        for workers in [1, 3] {
            let engine = Engine::builder().workers(workers).build();
            assert_eq!(engine.configured_workers(), workers);
            // One run-queue shard per worker: producers spread over exactly
            // as many locks as there are consumers to drain them.
            assert_eq!(engine.run_queue_shards(), workers);
            let stats = engine.queue_stats();
            assert_eq!(stats.shard_depths.len(), workers);
            assert_eq!(stats.workers_high_water, workers);
            assert_eq!(stats.sched_wakes, 0);
        }
    }

    #[test]
    fn config_override_replaces_prior_settings() {
        let config = EngineConfig {
            mode: SecurityMode::NoSecurity,
            workers: 2,
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
