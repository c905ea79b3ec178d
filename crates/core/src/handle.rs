//! The running engine: worker threads, typed publishers and graceful shutdown.
//!
//! [`Engine::start`] returns an [`EngineHandle`] owning the dispatcher worker
//! threads (the multi-core deployment of §6: distinct units process distinct
//! events in parallel inside one address space, while per-unit locks keep each
//! unit single-threaded from its own point of view). The handle is how drivers
//! interact with a live engine:
//!
//! * [`EngineHandle::publisher`] hands out typed [`Publisher`]s for external
//!   event sources, replacing most `with_unit` closures;
//! * [`EngineHandle::pump_until_idle`] / [`EngineHandle::run_for`] drive
//!   dispatch inline when the engine was built with `workers(0)` — the
//!   single-threaded mode tests and benchmarks use;
//! * [`EngineHandle::wait_idle`] blocks until the queue has drained *and* no
//!   dispatch is in flight;
//! * [`EngineHandle::shutdown`] drains the queue, joins every worker and
//!   returns the engine — termination is part of the API, not "stop calling
//!   pump".

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use defcon_defc::Label;
use defcon_events::{Event, Value};

use crate::admission::{Admission, TryPublish};
use crate::context::UnitContext;
use crate::dispatcher::Dispatcher;
use crate::engine::{Engine, EngineCore};
use crate::error::{EngineError, EngineResult};
use crate::unit::UnitId;

/// A handle to a started engine runtime.
///
/// Dropping the handle without calling [`EngineHandle::shutdown`] also drains
/// and joins the workers (so tests cannot leak threads), but swallows the
/// drain statistics; prefer an explicit shutdown.
pub struct EngineHandle {
    engine: Engine,
    workers: Vec<JoinHandle<u64>>,
}

impl EngineHandle {
    pub(crate) fn launch(engine: Engine) -> Self {
        let core = engine.core();
        let workers = (0..core.config.workers)
            .map(|index| {
                let dispatcher = Dispatcher::for_worker(Arc::clone(&core), index);
                std::thread::Builder::new()
                    .name(format!("defcon-dispatch-{index}"))
                    .spawn(move || dispatcher.run_worker())
                    .expect("spawning dispatcher worker")
            })
            .collect();
        EngineHandle { engine, workers }
    }

    /// The engine this handle drives.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Number of spawned dispatcher worker threads: the configured
    /// [`workers`](crate::EngineBuilder::workers) count, all of them active
    /// until shutdown (0 for a manually pumped engine).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Samples the run queue's and the engine's telemetry counters: total and
    /// per-shard queue depth, in-flight dispatches, the scheduler counters
    /// (`sched_steals`, `sched_snapshot_hits`), plus the subscription index's
    /// planning counters (`index_candidates`, `index_exact_rejects`,
    /// `index_rebuilds`). This is what a deployment's dashboards read.
    pub fn queue_stats(&self) -> crate::engine::QueueStats {
        self.engine.queue_stats()
    }

    /// Returns a typed publisher for `unit` (see [`Publisher`]).
    pub fn publisher(&self, unit: UnitId) -> EngineResult<Publisher> {
        self.engine.publisher(unit)
    }

    /// Hot-replaces a live unit without stopping the engine — the runtime-side
    /// entry point of [`Engine::swap_unit`]: drains in-flight deliveries to
    /// the unit, migrates its state/labels/privileges onto `replacement` under
    /// a bumped version, and resumes with exactly-once and per-unit order
    /// preserved. Returns the new version.
    pub fn swap_unit(
        &self,
        unit: UnitId,
        replacement: Box<dyn crate::unit::Unit>,
    ) -> EngineResult<u64> {
        self.engine.swap_unit(unit, replacement)
    }

    /// Registers a standby factory for fault-triggered auto-swap — see
    /// [`Engine::set_standby`].
    pub fn set_standby(&self, unit: UnitId, factory: crate::unit::UnitFactory) -> EngineResult<()> {
        self.engine.set_standby(unit, factory)
    }

    /// Publishes a batch of drafts *as* `unit` in one run-queue transaction —
    /// shorthand for [`Publisher::publish_batch`] when a driver does not keep a
    /// long-lived publisher around. Returns the typed [`Admission`] result.
    pub fn publish_batch(&self, unit: UnitId, drafts: Vec<EventDraft>) -> EngineResult<Admission> {
        self.engine.publisher(unit)?.publish_batch(drafts)
    }

    /// Non-blocking bounded publish *as* `unit` — shorthand for
    /// [`Publisher::try_publish_batch`].
    pub fn try_publish_batch(
        &self,
        unit: UnitId,
        drafts: Vec<EventDraft>,
    ) -> EngineResult<TryPublish> {
        self.engine.publisher(unit)?.try_publish_batch(drafts)
    }

    /// Dispatches queued events on the calling thread until the queue drains;
    /// returns the number of events dispatched here.
    ///
    /// This is the drive mode for `workers(0)` handles. It is safe (if rarely
    /// useful) with workers running: the calling thread simply competes for
    /// events.
    pub fn pump_until_idle(&self) -> EngineResult<usize> {
        self.engine.dispatcher().pump_until_idle()
    }

    /// Dispatches on the calling thread for at least `duration`, yielding while
    /// the queue is empty; returns the number of events dispatched here.
    pub fn run_for(&self, duration: Duration) -> EngineResult<usize> {
        self.engine.dispatcher().pump_for(duration)
    }

    /// Blocks until the engine is idle — queue empty and no dispatch in flight —
    /// or `timeout` elapses; returns whether idleness was reached.
    ///
    /// With `workers(0)` nothing drains the queue in the background, so callers
    /// should pump instead of waiting.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        self.engine.core().run_queue.wait_idle(timeout)
    }

    /// Gracefully shuts the runtime down: lets the workers drain the queue
    /// (including events published during the drain), joins them, and returns
    /// the total number of events the workers dispatched over their lifetime.
    ///
    /// With `workers(0)` the remaining queue is drained on the calling thread.
    pub fn shutdown(mut self) -> EngineResult<u64> {
        self.shutdown_in_place()
    }

    fn shutdown_in_place(&mut self) -> EngineResult<u64> {
        let core = self.engine.core();
        core.run_queue.stop();
        let mut dispatched = 0;
        // Join *every* worker before reporting an error: bailing on the first
        // panicked thread would leak the remaining ones.
        let mut panicked = 0;
        for worker in self.workers.drain(..) {
            match worker.join() {
                Ok(count) => dispatched += count,
                Err(_) => panicked += 1,
            }
        }
        // Final drain on the calling thread: the whole queue in `workers(0)`
        // mode, and any external publish that raced `stop` and slipped in after
        // the workers' last idle check otherwise — accepted events are never
        // lost.
        dispatched += self.pump_until_idle()? as u64;
        if panicked > 0 {
            return Err(EngineError::InvalidOperation(format!(
                "{panicked} dispatcher worker(s) panicked during the run"
            )));
        }
        Ok(dispatched)
    }
}

impl Drop for EngineHandle {
    fn drop(&mut self) {
        if !self.workers.is_empty() || !self.engine.core().run_queue.is_stopping() {
            let _ = self.shutdown_in_place();
        }
    }
}

impl std::fmt::Debug for EngineHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineHandle")
            .field("workers", &self.workers.len())
            .field("engine", &self.engine)
            .finish()
    }
}

/// An event under construction by an external driver, published through a
/// [`Publisher`].
///
/// Unlike [`UnitContext::create_event`] drafts, an `EventDraft` is a plain
/// value: it can be built off-thread, ahead of time, and batched. Labels are
/// requests — at publish time each part's label is raised to the publishing
/// unit's output label (contamination independence, §5), exactly as
/// `UnitContext::add_part` would. The argument order of [`EventDraft::part`]
/// matches [`defcon_events::EventBuilder::part`].
///
/// Part names are resolved to interned [`PartName`](defcon_events::PartName)
/// handles at draft-build time, so a feed publishing millions of events with
/// the same few part names allocates no name strings at all. The parts
/// themselves are built at draft time too: publishing raises each label in
/// place and moves the buffer straight into the event, so the publish path
/// never rebuilds a parts vector.
#[derive(Debug, Default)]
pub struct EventDraft {
    parts: Vec<defcon_events::Part>,
}

impl EventDraft {
    /// Creates an empty draft.
    pub fn new() -> Self {
        EventDraft::default()
    }

    /// Adds a part with the requested label.
    pub fn part(mut self, name: impl AsRef<str>, label: Label, data: Value) -> Self {
        self.parts.push(defcon_events::Part::from_name_handle(
            defcon_events::part_name(name),
            label,
            data,
        ));
        self
    }

    /// Adds a public part.
    pub fn public_part(self, name: impl AsRef<str>, data: Value) -> Self {
        self.part(name, Label::public(), data)
    }

    /// A draft over already-built parts — the replay path: a recorded arrival
    /// trace stores each draft's parts verbatim (pre-label-raise), and feeding
    /// them back through here reproduces the original publish byte-for-byte.
    pub fn from_parts(parts: Vec<defcon_events::Part>) -> Self {
        EventDraft { parts }
    }

    /// The parts added so far, in order — what a trace recorder captures
    /// before the draft is consumed by publishing.
    pub fn parts(&self) -> &[defcon_events::Part] {
        &self.parts
    }

    /// Number of parts added so far.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Returns `true` if no parts have been added.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

/// A typed handle for publishing events *as* a registered unit from outside the
/// engine — the market-data-feed pattern.
///
/// A `Publisher` replaces the `engine.with_unit(id, |_, ctx| { ... publish
/// ... })` closures external drivers used to need: it is `Send`, cheap to
/// clone, and keeps the unit lock only for the label computation, not for the
/// whole closure body. For operations beyond publishing (creating tags,
/// changing labels), [`Publisher::with_context`] still exposes the full
/// Table 1 API.
pub struct Publisher {
    core: Arc<EngineCore>,
    unit: UnitId,
    /// The publishing unit's slot, resolved once at construction so the hot
    /// publish path reads the output label without a registry lookup. A
    /// *swapped* unit retires its old slot after installing the replacement
    /// under the same id — the label read detects the retirement and rebinds
    /// here transparently, so long-lived publishers (and the ingress sessions
    /// holding them) keep admitting to the replacement instead of silently
    /// going stale. A *removed* unit has no live slot, and a *quarantined*
    /// one refuses publishes — both fail loudly.
    slot: parking_lot::RwLock<Arc<crate::engine::UnitSlot>>,
}

impl Clone for Publisher {
    fn clone(&self) -> Self {
        Publisher {
            core: Arc::clone(&self.core),
            unit: self.unit,
            slot: parking_lot::RwLock::new(Arc::clone(&self.slot.read())),
        }
    }
}

impl Publisher {
    pub(crate) fn new(
        core: Arc<EngineCore>,
        unit: UnitId,
        slot: Arc<crate::engine::UnitSlot>,
    ) -> Self {
        Publisher {
            core,
            unit,
            slot: parking_lot::RwLock::new(slot),
        }
    }

    /// The unit this publisher publishes as.
    pub fn unit_id(&self) -> UnitId {
        self.unit
    }

    /// Publishes a draft, raising each part's label to the unit's output label
    /// (when label checks are enabled). Returns `Ok(false)` for empty drafts,
    /// which are dropped per Table 1.
    pub fn publish(&self, draft: EventDraft) -> EngineResult<bool> {
        if draft.parts.is_empty() {
            return Ok(false);
        }
        let output_label = self.output_label()?;
        let event = self.build_event(draft, &output_label, defcon_events::now_ns())?;
        self.core
            .enqueue_external(self.unit, &output_label, event)?;
        Ok(true)
    }

    /// Publishes a batch of drafts in one run-queue transaction: the unit's
    /// output label is read once, every built event lands on a single shard in
    /// draft order under one lock acquisition, and consumers are woken once —
    /// the driver-side half of the engine's batched dispatch hot path. Empty
    /// drafts are dropped per Table 1.
    ///
    /// Returns the typed [`Admission`] result: `accepted()` is exactly the
    /// number of events that will be dispatched. An entirely rejected batch
    /// (the runtime has shut down) fails loudly like [`Publisher::publish`]; a
    /// batch racing shutdown may be partially accepted, and the withdrawn
    /// remainder is reported as `shed()`.
    ///
    /// This direct path bypasses bounded admission; use
    /// [`Publisher::try_publish_batch`] to respect a configured
    /// [`IngressConfig`](crate::IngressConfig) queue bound.
    pub fn publish_batch(&self, drafts: Vec<EventDraft>) -> EngineResult<Admission> {
        // The built events live in a reused per-thread buffer: the queue
        // drains it on enqueue, so a steady feed allocates no batch vectors.
        thread_local! {
            static EVENT_SCRATCH: std::cell::RefCell<Vec<Event>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        EVENT_SCRATCH.with(|scratch| {
            let mut events = scratch.borrow_mut();
            events.clear();
            let mut output_label = None;
            // The whole batch shares one origin timestamp: it enters the
            // engine through one publish call, so one clock read is the
            // honest publish instant for every event in it.
            let origin_ns = defcon_events::now_ns();
            for draft in drafts {
                if draft.parts.is_empty() {
                    continue;
                }
                // The label snapshot is shared by the whole batch; it is only
                // read when at least one draft actually publishes.
                let label = match &output_label {
                    Some(label) => label,
                    None => output_label.insert(self.output_label()?),
                };
                let event = self.build_event(draft, label, origin_ns)?;
                events.push(event);
            }
            if events.is_empty() {
                return Ok(Admission::default());
            }
            let built = events.len();
            let label = output_label
                .as_ref()
                .expect("non-empty batch snapshots the label");
            let accepted =
                self.core
                    .enqueue_external_batch(self.unit, label, origin_ns, &mut events)?;
            Ok(Admission::new(accepted, built - accepted, 0))
        })
    }

    /// Non-blocking bounded variant of [`Publisher::publish_batch`]: admission
    /// first checks the engine's configured
    /// [`IngressConfig::queue_bound`](crate::IngressConfig::queue_bound)
    /// against current run-queue depth (plus concurrent admitters'
    /// reservations, so the bound holds exactly under contention). If the
    /// batch fits it is published and counted toward the engine's
    /// `ingress_admitted` telemetry; otherwise nothing is enqueued and the
    /// drafts come back in [`TryPublish::WouldBlock`] for the caller to retry,
    /// buffer or shed. Without an ingress configuration the admission check
    /// always passes.
    pub fn try_publish_batch(&self, drafts: Vec<EventDraft>) -> EngineResult<TryPublish> {
        // Reserve for every non-empty draft: the reservation is a conservative
        // upper bound on what the publish will enqueue.
        let want = drafts.iter().filter(|draft| !draft.is_empty()).count();
        if want == 0 {
            return Ok(TryPublish::Admitted(Admission::default()));
        }
        if !self.core.try_admit(want) {
            return Ok(TryPublish::WouldBlock { drafts });
        }
        let result = self.publish_batch(drafts);
        // The enqueue has made the events visible in queue depth (or failed);
        // either way the reservation is no longer needed.
        self.core.release_admission(want);
        let admission = result?;
        self.core
            .admission
            .record_admitted(admission.accepted() as u64);
        Ok(TryPublish::Admitted(admission))
    }

    /// Snapshot of the publishing unit's output label from the cached slot.
    /// A retired slot means the unit was swapped (rebind to the replacement
    /// and retry) or removed (fail loudly, exactly like the registry lookup
    /// used to); a quarantined unit refuses publishes with a typed error.
    fn output_label(&self) -> EngineResult<Label> {
        loop {
            let slot = Arc::clone(&self.slot.read());
            let guard = slot.cell.lock();
            if guard.retired {
                drop(guard);
                let fresh = self.core.slot(self.unit)?;
                if Arc::ptr_eq(&fresh, &slot) {
                    // Registry still maps to the retired slot: mid-removal.
                    return Err(EngineError::UnknownUnit(format!("{}", self.unit)));
                }
                *self.slot.write() = fresh;
                continue;
            }
            if guard.quarantined {
                return Err(EngineError::UnitQuarantined(format!("{}", self.unit)));
            }
            return Ok(guard.state.output_label.clone());
        }
    }

    /// Builds one event from a draft, raising part labels to the unit's output
    /// label **in place** (the draft's parts buffer becomes the event's, no
    /// rebuild) and charging isolation interceptions, exactly as a single
    /// `publish` would.
    fn build_event(
        &self,
        draft: EventDraft,
        output_label: &Label,
        origin_ns: u64,
    ) -> EngineResult<Event> {
        let checks = self.core.config.mode.checks_labels();
        let isolates = self.core.config.mode.isolates();
        let mut parts = draft.parts;
        for part in &mut parts {
            // Mirror `UnitContext::add_part`: the isolation runtime charges
            // one interception per part entering the engine, so externally
            // published parts keep counting toward Figure 5's
            // isolation-overhead series.
            if isolates {
                self.core.isolation.intercept();
            }
            if checks {
                part.raise_label_to_output(output_label);
            }
        }
        Ok(Event::with_origin(parts, origin_ns)?)
    }

    /// Runs a closure with the full [`UnitContext`] API as this unit — the
    /// escape hatch for drivers that need more than publishing (tag creation,
    /// label changes, subscriptions).
    pub fn with_context<R>(
        &self,
        f: impl FnOnce(&mut UnitContext<'_>) -> EngineResult<R>,
    ) -> EngineResult<R> {
        self.core.with_unit_context(self.unit, |_, ctx| f(ctx))
    }
}

impl std::fmt::Debug for Publisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Publisher")
            .field("unit", &self.unit)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SecurityMode;
    use crate::unit::{NullUnit, Unit, UnitSpec};
    use defcon_events::Filter;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Counter {
        seen: Arc<AtomicU64>,
    }

    impl Unit for Counter {
        fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
            ctx.subscribe(Filter::for_type("tick"))?;
            Ok(())
        }
        fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
            self.seen.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn publisher_routes_events_through_dispatch() {
        let engine = Engine::builder().mode(SecurityMode::LabelsFreeze).build();
        let seen = Arc::new(AtomicU64::new(0));
        engine
            .register_unit(
                UnitSpec::new("counter"),
                Box::new(Counter {
                    seen: Arc::clone(&seen),
                }),
            )
            .unwrap();
        let source = engine
            .register_unit(UnitSpec::new("source"), Box::new(NullUnit))
            .unwrap();

        let handle = engine.start();
        let publisher = handle.publisher(source).unwrap();
        assert!(publisher
            .publish(EventDraft::new().public_part("type", Value::str("tick")))
            .unwrap());
        assert!(
            !publisher.publish(EventDraft::new()).unwrap(),
            "empty drafts drop"
        );
        handle.pump_until_idle().unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 1);
        handle.shutdown().unwrap();
    }

    #[test]
    fn publish_batch_routes_and_drops_empty_drafts() {
        let engine = Engine::builder().mode(SecurityMode::LabelsFreeze).build();
        let seen = Arc::new(AtomicU64::new(0));
        engine
            .register_unit(
                UnitSpec::new("counter"),
                Box::new(Counter {
                    seen: Arc::clone(&seen),
                }),
            )
            .unwrap();
        let source = engine
            .register_unit(UnitSpec::new("source"), Box::new(NullUnit))
            .unwrap();

        let handle = engine.start();
        let publisher = handle.publisher(source).unwrap();
        let drafts = vec![
            EventDraft::new().public_part("type", Value::str("tick")),
            EventDraft::new(), // dropped per Table 1
            EventDraft::new().public_part("type", Value::str("tick")),
        ];
        let admission = publisher.publish_batch(drafts).unwrap();
        assert_eq!(admission.accepted(), 2);
        assert_eq!(admission.shed(), 0, "nothing sheds on the unbounded path");
        assert_eq!(
            publisher.publish_batch(Vec::new()).unwrap().accepted(),
            0,
            "an all-empty batch publishes nothing"
        );
        handle.pump_until_idle().unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 2);
        assert_eq!(engine.stats().published(), 2);
        handle.shutdown().unwrap();
    }

    #[test]
    fn handle_publish_batch_shorthand_matches_publisher() {
        let engine = Engine::builder().batch_size(4).build();
        let seen = Arc::new(AtomicU64::new(0));
        engine
            .register_unit(
                UnitSpec::new("counter"),
                Box::new(Counter {
                    seen: Arc::clone(&seen),
                }),
            )
            .unwrap();
        let source = engine
            .register_unit(UnitSpec::new("source"), Box::new(NullUnit))
            .unwrap();
        let handle = engine.start();
        let drafts = (0..8)
            .map(|_| EventDraft::new().public_part("type", Value::str("tick")))
            .collect();
        assert_eq!(handle.publish_batch(source, drafts).unwrap().accepted(), 8);
        handle.pump_until_idle().unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 8);
        handle.shutdown().unwrap();
    }

    #[test]
    fn publish_batch_after_shutdown_is_rejected_not_lost() {
        let engine = Engine::builder().workers(2).batch_size(8).build();
        let source = engine
            .register_unit(UnitSpec::new("source"), Box::new(NullUnit))
            .unwrap();
        let publisher = engine.publisher(source).unwrap();
        engine.start().shutdown().unwrap();

        let drafts = (0..4)
            .map(|_| EventDraft::new().public_part("type", Value::str("tick")))
            .collect();
        let result = publisher.publish_batch(drafts);
        assert!(
            matches!(result, Err(crate::EngineError::InvalidOperation(_))),
            "late batch publishes must fail loudly, got {result:?}"
        );
        assert_eq!(engine.queue_depth(), 0, "nothing may linger on the queue");
        assert_eq!(engine.stats().published(), 0);
    }

    #[test]
    fn try_publish_batch_enforces_the_configured_queue_bound() {
        use crate::admission::{IngressConfig, TryPublish};
        // workers(0): nothing drains, so queued depth is fully deterministic.
        let engine = Engine::builder().ingress(IngressConfig::new(6)).build();
        let source = engine
            .register_unit(UnitSpec::new("source"), Box::new(NullUnit))
            .unwrap();
        let handle = engine.start();
        let publisher = handle.publisher(source).unwrap();

        let drafts = |n: usize| -> Vec<EventDraft> {
            (0..n)
                .map(|_| EventDraft::new().public_part("type", Value::str("tick")))
                .collect()
        };
        match publisher.try_publish_batch(drafts(4)).unwrap() {
            TryPublish::Admitted(admission) => {
                assert_eq!(admission.accepted(), 4);
                assert_eq!(admission.shed(), 0);
            }
            other => panic!("a batch within the bound admits, got {other:?}"),
        }
        // 4 queued + 4 more would overshoot the bound of 6: handed back.
        match publisher.try_publish_batch(drafts(4)).unwrap() {
            TryPublish::WouldBlock { drafts } => {
                assert_eq!(drafts.len(), 4, "drafts come back untouched");
                assert_eq!(engine.queue_depth(), 4, "nothing was enqueued");
            }
            other => panic!("an overflowing batch must not admit, got {other:?}"),
        }
        // A smaller batch still fits exactly up to the bound.
        match publisher.try_publish_batch(drafts(2)).unwrap() {
            TryPublish::Admitted(admission) => assert_eq!(admission.accepted(), 2),
            other => panic!("a batch filling the bound exactly admits, got {other:?}"),
        }
        assert_eq!(engine.queue_depth(), 6);
        let stats = engine.queue_stats();
        assert_eq!(stats.ingress_admitted, 6);
        assert_eq!(stats.ingress_shed, 0);

        handle.pump_until_idle().unwrap();
        // Drained: the next admission passes again.
        match publisher.try_publish_batch(drafts(4)).unwrap() {
            TryPublish::Admitted(admission) => assert_eq!(admission.accepted(), 4),
            other => panic!("a drained queue re-admits, got {other:?}"),
        }
        handle.shutdown().unwrap();
    }

    #[test]
    fn try_publish_batch_without_ingress_config_always_admits() {
        let engine = Engine::builder().build();
        let source = engine
            .register_unit(UnitSpec::new("source"), Box::new(NullUnit))
            .unwrap();
        let handle = engine.start();
        for _ in 0..5 {
            let drafts = (0..100)
                .map(|_| EventDraft::new().public_part("type", Value::str("tick")))
                .collect();
            match handle.try_publish_batch(source, drafts).unwrap() {
                crate::admission::TryPublish::Admitted(admission) => {
                    assert_eq!(admission.accepted(), 100)
                }
                other => panic!("unbounded engines never block, got {other:?}"),
            }
        }
        handle.pump_until_idle().unwrap();
        handle.shutdown().unwrap();
    }

    #[test]
    fn publisher_for_unknown_unit_fails_fast() {
        let engine = Engine::builder().build();
        assert!(engine.publisher(UnitId::from_raw(999)).is_err());
    }

    #[test]
    fn shutdown_drains_queued_events_with_workers() {
        let engine = Engine::builder().workers(2).build();
        let seen = Arc::new(AtomicU64::new(0));
        engine
            .register_unit(
                UnitSpec::new("counter"),
                Box::new(Counter {
                    seen: Arc::clone(&seen),
                }),
            )
            .unwrap();
        let source = engine
            .register_unit(UnitSpec::new("source"), Box::new(NullUnit))
            .unwrap();

        let handle = engine.start();
        assert_eq!(handle.worker_count(), 2);
        let publisher = handle.publisher(source).unwrap();
        for _ in 0..100 {
            publisher
                .publish(EventDraft::new().public_part("type", Value::str("tick")))
                .unwrap();
        }
        let dispatched = handle.shutdown().unwrap();
        assert_eq!(dispatched, 100, "shutdown must drain everything");
        assert_eq!(seen.load(Ordering::Relaxed), 100);
        assert_eq!(engine.queue_depth(), 0);
    }

    #[test]
    fn publish_after_shutdown_is_rejected_not_lost() {
        let engine = Engine::builder().workers(2).build();
        let source = engine
            .register_unit(UnitSpec::new("source"), Box::new(NullUnit))
            .unwrap();
        let publisher = engine.publisher(source).unwrap();
        engine.start().shutdown().unwrap();

        let result = publisher.publish(EventDraft::new().public_part("type", Value::str("tick")));
        assert!(
            matches!(result, Err(crate::EngineError::InvalidOperation(_))),
            "late publishes must fail loudly, got {result:?}"
        );
        assert_eq!(engine.queue_depth(), 0, "nothing may linger on the queue");
        assert_eq!(engine.stats().published(), 0);
    }

    #[test]
    fn bootstrap_publishes_during_late_registration_are_rejected() {
        struct Bootstrapper;
        impl Unit for Bootstrapper {
            fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
                let draft = ctx.create_event();
                ctx.add_part(&draft, Label::public(), "type", Value::str("boot"))?;
                ctx.publish(draft)?;
                Ok(())
            }
            fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
                Ok(())
            }
        }

        let engine = Engine::builder().workers(1).build();
        engine.start().shutdown().unwrap();
        // Registering after shutdown is allowed, but the unit's init-published
        // bootstrap events cannot be dispatched any more: loud error, no event
        // rotting on the stopped queue.
        let result = engine.register_unit(UnitSpec::new("late"), Box::new(Bootstrapper));
        assert!(
            matches!(result, Err(crate::EngineError::InvalidOperation(_))),
            "got {result:?}"
        );
        assert_eq!(engine.queue_depth(), 0);
    }

    #[test]
    fn panicking_unit_does_not_deadlock_shutdown() {
        struct Bomb;
        impl Unit for Bomb {
            fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
                ctx.subscribe(defcon_events::Filter::for_type("tick"))?;
                Ok(())
            }
            fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
                panic!("unit code misbehaved");
            }
        }

        let engine = Engine::builder().workers(2).build();
        let seen = Arc::new(AtomicU64::new(0));
        engine
            .register_unit(UnitSpec::new("bomb"), Box::new(Bomb))
            .unwrap();
        engine
            .register_unit(
                UnitSpec::new("counter"),
                Box::new(Counter {
                    seen: Arc::clone(&seen),
                }),
            )
            .unwrap();
        let source = engine
            .register_unit(UnitSpec::new("source"), Box::new(NullUnit))
            .unwrap();

        let handle = engine.start();
        let publisher = handle.publisher(source).unwrap();
        for _ in 0..20 {
            publisher
                .publish(EventDraft::new().public_part("type", Value::str("tick")))
                .unwrap();
        }
        // The workers survive the panics, keep dispatching to healthy units and
        // shutdown still drains and joins instead of hanging.
        let dispatched = handle.shutdown().unwrap();
        assert_eq!(dispatched, 20);
        assert_eq!(seen.load(Ordering::Relaxed), 20);
        assert_eq!(engine.stats().unit_errors(), 20);
    }

    #[test]
    #[should_panic(expected = "once per engine")]
    fn double_start_panics() {
        let engine = Engine::builder().build();
        let _handle = engine.start();
        let _second = engine.start();
    }

    #[test]
    #[should_panic(expected = "after the runtime was shut down")]
    fn start_after_shutdown_panics() {
        let engine = Engine::builder().build();
        engine.start().shutdown().unwrap();
        let _revenant = engine.start();
    }

    #[test]
    fn dropping_a_handle_joins_workers() {
        let engine = Engine::builder().workers(2).build();
        {
            let _handle = engine.start();
        }
        // After the drop the queue is stopped; a new start() would need a new
        // engine, which is the documented one-shot lifecycle.
        assert!(engine.queue_depth() == 0);
    }

    #[test]
    fn with_context_exposes_the_full_table1_api() {
        let engine = Engine::builder().build();
        let source = engine
            .register_unit(UnitSpec::new("source"), Box::new(NullUnit))
            .unwrap();
        let handle = engine.start();
        let publisher = handle.publisher(source).unwrap();
        let tag = publisher
            .with_context(|ctx| Ok(ctx.create_owned_tag("t")))
            .unwrap();
        assert_eq!(tag.name(), Some("t"));
        handle.shutdown().unwrap();
    }
}
