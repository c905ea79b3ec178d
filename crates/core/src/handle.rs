//! The running engine: worker threads, typed publishers and graceful shutdown.
//!
//! [`Engine::start`] returns an [`EngineHandle`] owning the dispatcher worker
//! threads (the multi-core deployment of §6: distinct units process distinct
//! events in parallel inside one address space, while per-unit locks keep each
//! unit single-threaded from its own point of view). The handle owns the
//! runtime and nothing else; every operation on engine state — publishers,
//! swaps, standbys, telemetry — belongs to the [`Engine`]
//! ([`EngineHandle::engine`]). External event sources publish through typed
//! [`Publisher`]s from [`Engine::publisher`]. The handle:
//!
//! * [`EngineHandle::pump_until_idle`] drives dispatch inline when the engine
//!   was built with `workers(0)` — the single-threaded mode tests and
//!   benchmarks use;
//! * [`EngineHandle::wait_idle`] returns once the queue has drained *and* no
//!   dispatch is in flight. The waiting thread does the work: while a
//!   dispatch slot is free (a worker is parked, or at `workers(0)` always) it
//!   pops and dispatches queued batches itself, through one dispatcher the
//!   handle keeps warm, and parks only while nothing is queued and a dispatch
//!   is in flight, or every slot is held. At most `max(workers, 1)` threads
//!   dispatch at once, so at `workers(1)` a publisher's events still reach
//!   units in FIFO order;
//! * [`EngineHandle::shutdown`] drains the queue, joins every worker and
//!   returns how many events were dispatched — by the workers, by threads
//!   waiting in `wait_idle` and by the final drain. Termination is part of
//!   the API, not "stop calling pump".

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use defcon_defc::Label;
use defcon_events::{Event, Value};
use parking_lot::Mutex;

use crate::admission::{Admission, CreditWindow};
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
    /// What threads waiting in [`EngineHandle::wait_idle`] dispatch through,
    /// one at a time.
    waiter: Mutex<Waiter>,
}

/// The handle's own dispatcher, kept across `wait_idle` calls so that its
/// context cache, worklist and cascade stack stay warm, and the events it
/// dispatched, which [`EngineHandle::shutdown`] counts.
struct Waiter {
    dispatcher: Dispatcher,
    dispatched: u64,
}

impl EngineHandle {
    pub(crate) fn launch(engine: Engine) -> Self {
        let core = engine.core();
        let workers = (0..core.config.workers)
            .map(|index| {
                let dispatcher = Dispatcher::new(Arc::clone(&core));
                std::thread::Builder::new()
                    .name(format!("defcon-dispatch-{index}"))
                    .spawn(move || dispatcher.run_worker())
                    .expect("spawning dispatcher worker")
            })
            .collect();
        let waiter = Mutex::new(Waiter {
            dispatcher: Dispatcher::new(core),
            dispatched: 0,
        });
        EngineHandle {
            engine,
            workers,
            waiter,
        }
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

    /// Dispatches queued events on the calling thread until the queue drains;
    /// returns the number of events dispatched here.
    ///
    /// This is the drive mode for `workers(0)` handles. Like every path that
    /// pops the queue it needs a free dispatch slot, so with workers running
    /// it dispatches only while a worker is parked, and it drains the
    /// *queue*, not the engine: [`EngineHandle::wait_idle`] is the call that
    /// also waits for in-flight dispatches.
    pub fn pump_until_idle(&self) -> EngineResult<usize> {
        Ok(Dispatcher::new(self.engine.core()).drain(None) as usize)
    }

    /// Returns once the engine is idle — queue empty and no dispatch in
    /// flight — or `timeout` elapses; returns whether idleness was reached.
    ///
    /// The calling thread does the work it waits for: while events are
    /// queued and a dispatch slot is free — a worker is parked, or the engine
    /// has none — it pops and dispatches them itself, in that worker's place,
    /// instead of waking the worker and sleeping. It parks only while nothing
    /// is queued and a dispatch is still in flight, or while every slot is
    /// held. So at `workers(0)` this drains the queue like
    /// [`EngineHandle::pump_until_idle`]. One waiting thread dispatches at a
    /// time; the others park meanwhile. What they dispatch counts toward
    /// [`EngineHandle::shutdown`]'s total. A dispatching caller checks
    /// `timeout` between batches.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let queue = &self.engine.core().run_queue;
        loop {
            // Whoever holds the waiter is draining; the others park.
            if let Some(mut waiter) = self.waiter.try_lock() {
                waiter.dispatched += waiter.dispatcher.drain(Some(deadline));
            }
            if queue.wait_idle(deadline) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
        }
    }

    /// Gracefully shuts the runtime down: lets the workers drain the queue
    /// (including events published during the drain), joins them, and returns
    /// the total number of events dispatched over the runtime's lifetime by
    /// the workers and by threads waiting in [`EngineHandle::wait_idle`],
    /// plus the final drain. Events pumped with
    /// [`EngineHandle::pump_until_idle`] were reported to their caller and are
    /// not counted again.
    ///
    /// With `workers(0)` the remaining queue is drained on the calling thread.
    pub fn shutdown(mut self) -> EngineResult<u64> {
        self.shutdown_in_place()
    }

    fn shutdown_in_place(&mut self) -> EngineResult<u64> {
        self.engine.core().stop();
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
        // mode, and whatever a worker that died left queued otherwise —
        // accepted events are never lost. The exited workers gave their
        // slots back.
        let waiter = self.waiter.get_mut();
        dispatched += std::mem::take(&mut waiter.dispatched) + waiter.dispatcher.drain(None);
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

    /// The parts added so far, in order, with their requested labels (the
    /// raise to the output label happens at publish time).
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
/// engine — the market-data-feed pattern, and the engine's one way in for
/// external events (Table 1's `publish`).
///
/// A `Publisher` replaces the `engine.with_unit(id, |_, ctx| { ... publish
/// ... })` closures external drivers used to need: it is `Send`, cheap to
/// clone, and keeps the unit lock only for the label computation, not for the
/// whole closure body. For operations beyond publishing (creating tags,
/// changing labels), [`Publisher::with_context`] still exposes the full
/// Table 1 API.
///
/// On an engine built with an [`IngressConfig`](crate::IngressConfig), each
/// [`Engine::publisher`] call opens a fresh **credit window** (see
/// [`crate::admission`]) that the publisher's clones share: every
/// [`publish_batch`](Publisher::publish_batch) is admitted against the
/// window and the queue bound under the configured
/// [`FullQueuePolicy`](crate::FullQueuePolicy). When the last clone drops,
/// whatever its window still buffers is shed, counted in
/// `queue_stats().ingress_shed`. Without an ingress configuration publishing
/// is unbounded and takes no lock beyond the run queue's.
pub struct Publisher {
    pub(crate) core: Arc<EngineCore>,
    unit: UnitId,
    /// The publishing unit's slot, resolved once at construction so the hot
    /// publish path reads the output label without a registry lookup. A
    /// *swapped* unit retires its old slot after installing the replacement
    /// under the same id — the label read detects the retirement and rebinds
    /// here transparently, so long-lived publishers keep admitting to the
    /// replacement instead of silently going stale. A *removed* unit has no
    /// live slot, and a *quarantined* one refuses publishes — both fail
    /// loudly.
    slot: parking_lot::RwLock<Arc<crate::engine::UnitSlot>>,
    /// The credit window, on engines with an ingress configuration; shared
    /// by clones.
    window: Option<Arc<CreditWindow>>,
}

impl Clone for Publisher {
    fn clone(&self) -> Self {
        Publisher {
            core: Arc::clone(&self.core),
            unit: self.unit,
            slot: parking_lot::RwLock::new(Arc::clone(&self.slot.read())),
            window: self.window.clone(),
        }
    }
}

impl Drop for Publisher {
    fn drop(&mut self) {
        if let Some(window) = self.window.take().and_then(Arc::into_inner) {
            window.close(&self.core);
        }
    }
}

impl Publisher {
    pub(crate) fn new(
        core: Arc<EngineCore>,
        unit: UnitId,
        slot: Arc<crate::engine::UnitSlot>,
    ) -> Self {
        let window = core
            .config
            .ingress
            .as_ref()
            .map(|config| Arc::new(CreditWindow::new(config, core.config.batch_size)));
        Publisher {
            core,
            unit,
            slot: parking_lot::RwLock::new(slot),
            window,
        }
    }

    /// The unit this publisher publishes as.
    pub fn unit_id(&self) -> UnitId {
        self.unit
    }

    /// Publishes one draft: a one-draft [`Publisher::publish_batch`]. Returns
    /// whether the draft was accepted — `Ok(false)` for an empty draft, which
    /// is dropped per Table 1, or one a shedding credit window dropped.
    pub fn publish(&self, draft: EventDraft) -> EngineResult<bool> {
        Ok(self.publish_batch(vec![draft])?.accepted() > 0)
    }

    /// Publishes a batch of drafts, raising each part's label to the unit's
    /// output label (when label checks are enabled). Empty drafts are dropped
    /// per Table 1. Each run-queue transaction reads the output label once,
    /// queues its events in draft order under one lock acquisition and wakes
    /// consumers once — the driver-side half of the engine's batched
    /// dispatch hot path.
    ///
    /// **Without an ingress configuration** the whole batch is one such
    /// transaction: it is queued whole, and `accepted()` is exactly the
    /// number of events that will be dispatched, or refused whole with an
    /// error once the runtime has shut down.
    ///
    /// **With one**, the batch is admitted against this publisher's credit
    /// window under the configured policy, then what the window holds is
    /// published in chunks of `min(batch_size, queue_bound)` events, each
    /// only while the run queue has room under its bound:
    ///
    /// * [`Block`](crate::FullQueuePolicy::Block) — the call returns once the
    ///   whole batch is published (in window-sized instalments for batches
    ///   larger than the window), waiting on dispatch progress for credits
    ///   and for queue room; each wait counts in `credit_waits()`. Nothing
    ///   is dropped while the engine runs. The wait ends only when events
    ///   leave the queue: at `workers(0)` another thread must pump, or the
    ///   call never returns.
    /// * [`ShedNewest`](crate::FullQueuePolicy::ShedNewest) — the part of the
    ///   batch that does not fit in the window is dropped.
    /// * [`ShedOldest`](crate::FullQueuePolicy::ShedOldest) — the oldest
    ///   buffered drafts are evicted to make room for the newest
    ///   (conflation); a batch larger than the whole window also sheds its
    ///   own oldest drafts.
    ///
    /// A shedding publish never waits. What the queue bound refuses stays
    /// buffered in the window, still counted against it (and evictable
    /// under `ShedOldest`), until this publisher's next `publish_batch` or
    /// [`wait_drained`](Publisher::wait_drained) publishes it; no thread
    /// does so in between. `accepted()` counts the drafts that entered the
    /// window, and every shed draft is also on the engine's ledger
    /// (`queue_stats().ingress_shed`). When the engine refuses a chunk (a
    /// quarantined or removed unit, a stopped runtime), the call fails, and
    /// the chunk, the rest of the window's buffer and the rest of the batch
    /// are counted as shed on the ledger.
    pub fn publish_batch(&self, drafts: Vec<EventDraft>) -> EngineResult<Admission> {
        match &self.window {
            Some(window) => window.publish(self, drafts),
            None => self.publish_unbounded(drafts),
        }
    }

    /// Publishes what this publisher's credit window holds buffered and
    /// blocks until every event it accepted has left the run queue, or
    /// `timeout` elapses; returns whether the window drained. Waits on
    /// dispatch progress, so at `workers(0)` another thread must pump.
    /// Without an ingress configuration nothing is buffered or tracked and
    /// this returns `true` at once.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        self.window
            .as_ref()
            .is_none_or(|window| window.wait_drained(self, timeout))
    }

    /// The batch as one run-queue transaction, with no admission check.
    pub(crate) fn publish_unbounded(&self, drafts: Vec<EventDraft>) -> EngineResult<Admission> {
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
            self.core
                .enqueue_external_batch(self.unit, label, origin_ns, &mut events)?;
            Ok(Admission::new(built, 0, 0))
        })
    }

    /// Snapshot of the publishing unit's output label from the cached slot.
    /// A retired slot forwards to the live one
    /// ([`EngineCore::forwarded_slot`]): a swapped unit rebinds to its
    /// replacement, a removed one fails loudly; a quarantined unit refuses
    /// publishes with a typed error.
    fn output_label(&self) -> EngineResult<Label> {
        loop {
            let slot = Arc::clone(&self.slot.read());
            let guard = slot.cell.lock();
            if guard.retired {
                drop(guard);
                *self.slot.write() = self.core.forwarded_slot(&slot, self.unit)?;
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
    /// rebuild), exactly as a single `publish` would.
    fn build_event(
        &self,
        draft: EventDraft,
        output_label: &Label,
        origin_ns: u64,
    ) -> EngineResult<Event> {
        let mut parts = draft.parts;
        if self.core.config.mode.checks_labels() {
            for part in &mut parts {
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

        let publisher = engine.publisher(source).unwrap();
        let handle = engine.start();
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

        let publisher = engine.publisher(source).unwrap();
        let handle = engine.start();
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
    fn publish_batch_holds_the_configured_queue_bound() {
        use crate::admission::{FullQueuePolicy, IngressConfig};
        // workers(0): nothing drains, so queued depth is fully deterministic;
        // a shedding policy never waits, and a window of 100 sheds nothing.
        let engine = Engine::builder()
            .ingress(
                IngressConfig::new(6)
                    .credit_window(100)
                    .policy(FullQueuePolicy::ShedNewest),
            )
            .build();
        let source = engine
            .register_unit(UnitSpec::new("source"), Box::new(NullUnit))
            .unwrap();
        let publisher = engine.publisher(source).unwrap();
        let handle = engine.start();

        let drafts = |n: usize| -> Vec<EventDraft> {
            (0..n)
                .map(|_| EventDraft::new().public_part("type", Value::str("tick")))
                .collect()
        };
        let admission = publisher.publish_batch(drafts(4)).unwrap();
        assert_eq!((admission.accepted(), admission.shed()), (4, 0));
        assert_eq!(engine.queue_depth(), 4);
        // 4 queued + 4 more would overshoot the bound of 6: the queue fills
        // exactly up to it and the window buffers the rest.
        let admission = publisher.publish_batch(drafts(4)).unwrap();
        assert_eq!((admission.accepted(), admission.shed()), (4, 0));
        assert_eq!(engine.queue_depth(), 6);
        let stats = engine.queue_stats();
        assert_eq!(stats.ingress_admitted, 6);
        assert_eq!(stats.ingress_shed, 0);
        assert_eq!(stats.ingress_credit_stalls, 1);

        assert_eq!(handle.pump_until_idle().unwrap(), 6);
        // Drained: the next publish sends the buffered 2 first, then its own.
        assert_eq!(publisher.publish_batch(drafts(4)).unwrap().accepted(), 4);
        assert_eq!(engine.queue_depth(), 6);
        assert_eq!(engine.queue_stats().ingress_admitted, 12);
        handle.shutdown().unwrap();
    }

    #[test]
    fn publish_batch_without_ingress_config_is_unbounded() {
        let engine = Engine::builder().build();
        let source = engine
            .register_unit(UnitSpec::new("source"), Box::new(NullUnit))
            .unwrap();
        let publisher = engine.publisher(source).unwrap();
        let handle = engine.start();
        for _ in 0..5 {
            let drafts = (0..100)
                .map(|_| EventDraft::new().public_part("type", Value::str("tick")))
                .collect();
            assert_eq!(publisher.publish_batch(drafts).unwrap().accepted(), 100);
        }
        assert_eq!(engine.queue_depth(), 500);
        assert!(publisher.wait_drained(Duration::ZERO), "nothing is tracked");
        assert_eq!(engine.queue_stats().ingress_admitted, 0, "no ledger");
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
        let publisher = engine.publisher(source).unwrap();
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

        let publisher = engine.publisher(source).unwrap();
        let handle = engine.start();
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

    /// A worker that unwinds while it holds its dispatch slot gives the slot
    /// back as it dies, so shutdown's final drain can still take it and
    /// dispatch what was accepted after the death.
    #[test]
    fn shutdown_drains_the_queue_after_a_worker_dies_holding_its_slot() {
        // One slot: the dead worker's.
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
        let publisher = engine.publisher(source).unwrap();
        let mut handle = engine.start();
        let tick = || EventDraft::new().public_part("type", Value::str("tick"));
        assert!(publisher.publish(tick()).unwrap());
        // Stands in for the worker: pops the first event through the worker's
        // pop, which takes the slot, settles it and dies holding the slot.
        let core = engine.core();
        let dying = std::thread::spawn(move || -> u64 {
            let queue = &core.run_queue;
            let (mut batch, mut slot) = (Vec::new(), None);
            assert_eq!(queue.next_batch_into(4, &mut batch, &mut slot), 1);
            let _settled = queue.batch_guard(batch.len());
            panic!("a worker dies holding its dispatch slot");
        });
        while !dying.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.workers.push(dying);
        for _ in 0..5 {
            assert!(publisher.publish(tick()).unwrap());
        }
        let outcome = handle.shutdown();
        assert!(
            matches!(&outcome, Err(EngineError::InvalidOperation(msg)) if msg.starts_with("1 dispatcher worker")),
            "{outcome:?}"
        );
        assert_eq!(
            seen.load(Ordering::Relaxed),
            5,
            "every event accepted after the death is dispatched"
        );
    }

    #[test]
    fn with_context_exposes_the_full_table1_api() {
        let engine = Engine::builder().build();
        let source = engine
            .register_unit(UnitSpec::new("source"), Box::new(NullUnit))
            .unwrap();
        let publisher = engine.publisher(source).unwrap();
        let handle = engine.start();
        let tag = publisher
            .with_context(|ctx| Ok(ctx.create_owned_tag("t")))
            .unwrap();
        assert_eq!(tag.name(), Some("t"));
        handle.shutdown().unwrap();
    }
}
