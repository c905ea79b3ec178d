//! Fluent construction of engines: the builder is the one place an engine is
//! configured.
//!
//! ```
//! use defcon_core::{Engine, SecurityMode};
//!
//! let handle = Engine::builder()
//!     .mode(SecurityMode::LabelsFreezeIsolation)
//!     .workers(4)
//!     .start();
//! assert_eq!(handle.worker_count(), 4);
//! handle.shutdown().unwrap();
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

/// Builder for [`Engine`] instances, and the only way to configure one.
///
/// Defaults: `labels+freeze`, no worker threads (manual pumping), batch size
/// 1, and no write-ahead log, admission bound or fault policy.
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
    /// `workers` threads and all of them stay active until shutdown, popping
    /// from one run queue. [`auto_worker_count`] sizes the pool to the host.
    ///
    /// Zero (the default) means no background dispatch: the started handle is
    /// driven on the calling thread with
    /// [`EngineHandle::pump_until_idle`] or [`EngineHandle::wait_idle`],
    /// which keeps single-threaded tests deterministic.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Enables bounded admission, grouped like [`EngineBuilder::wal`]: every
    /// [`Publisher`](crate::Publisher) the engine hands out publishes through
    /// a window of [`credit_window`](crate::IngressConfig::credit_window)
    /// credits under the configured [`FullQueuePolicy`](crate::FullQueuePolicy),
    /// and publishers keep run-queue depth within
    /// [`queue_bound`](crate::IngressConfig::queue_bound).
    pub fn ingress(mut self, config: IngressConfig) -> Self {
        self.config.ingress = Some(config);
        self
    }

    /// Enables fault handling, grouped like [`EngineBuilder::ingress`] and
    /// [`EngineBuilder::wal`]: the engine counts panicking deliveries per unit
    /// and, when a unit exceeds the policy's panic budget within its delivery
    /// window, auto-swaps it to its registered standby
    /// ([`Engine::set_standby`](crate::Engine::set_standby)) or quarantines
    /// it — see [`FaultPolicy`]. Without a policy (the default) panics are
    /// counted in `unit_errors` and otherwise tolerated.
    pub fn fault(mut self, policy: FaultPolicy) -> Self {
        self.config.fault = Some(policy);
        self
    }

    /// Sets the dispatch batch size: how many events a dispatcher pops (and
    /// accounts for) per run-queue lock round-trip, and the chunk size batched
    /// publishers enqueue with. The default of 1 preserves classic
    /// one-event-at-a-time queueing; 0 is clamped to 1. Larger sizes amortise
    /// the run-queue lock, the in-flight accounting and the owner-state snapshot
    /// over the batch.
    ///
    /// Delivery order is the same at every batch size: each event of a batch
    /// is dispatched in turn, to its subscribers in subscription order. What
    /// batch size changes is the snapshot window: the popped events of a
    /// batch observe each subscriber's security state as snapshotted when the
    /// batch began, so a unit changing its own labels during a delivery
    /// affects their visibility checks from the next batch on.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.config.batch_size = batch_size.max(1);
        self
    }

    /// Enables the write-ahead event log: every externally published batch
    /// (publisher batches, [`Engine::with_unit`] closure outputs, bootstrap
    /// publishes of units registered by a driver) is appended (one CRC-framed
    /// record per batch, fsynced per the config's
    /// [`FsyncPolicy`](defcon_durability::FsyncPolicy)) *before* it is
    /// enqueued, and [`Engine::recover_from`] replays the directory after a
    /// crash. Cascade publications are not logged — dispatch regenerates them
    /// on replay.
    pub fn wal(mut self, config: defcon_durability::WalConfig) -> Self {
        self.config.wal = Some(config);
        self
    }

    /// Builds the engine without starting its runtime.
    ///
    /// # Panics
    ///
    /// Panics when a configured write-ahead log directory cannot be opened for
    /// appending: a deployment that asked for durability and cannot have it
    /// should not come up at all.
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
        assert_eq!(engine.queue_stats().workers_high_water, 3);
        assert_eq!(engine.configured_batch_size(), 16);
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
        assert_eq!(engine.queue_stats().workers_high_water, 0);
        assert_eq!(engine.configured_batch_size(), 1);
        assert!(engine.ingress_config().is_none());
        assert!(engine.fault_policy().is_none());
    }

    #[test]
    fn workers_n_starts_n_workers() {
        assert!(auto_worker_count() >= 1);
        for workers in [1, 3] {
            let engine = Engine::builder().workers(workers).build();
            let stats = engine.queue_stats();
            assert_eq!(stats.workers_high_water, workers);
            assert_eq!(stats.sched_wakes, 0);
            let handle = engine.start();
            assert_eq!(handle.worker_count(), workers);
            handle.shutdown().unwrap();
        }
    }
}
