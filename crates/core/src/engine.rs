//! The DEFCon engine: configuration, unit registry, event queue and statistics.
//!
//! The [`Engine`] owns all trusted state: per-unit security state,
//! subscriptions, the queue of published-but-not-yet-dispatched events and the
//! isolation runtime. Units only ever see a [`UnitContext`]
//! borrowing this state.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use defcon_defc::Label;
use defcon_durability::{WalConfig, WalRecord, WalWriter};
use defcon_events::Event;
use defcon_isolation::IsolationRuntime;
use defcon_metrics::{memory::MemoryCategory, MemoryAccountant};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::admission::{AdmissionCounters, IngressConfig};
use crate::builder::EngineBuilder;
use crate::context::UnitContext;
use crate::dispatcher::Dispatcher;
use crate::error::{EngineError, EngineResult};
use crate::fault::{FaultAction, FaultCounters, FaultPolicy};
use crate::handle::{EngineHandle, Publisher};
use crate::run_queue::RunQueue;
use crate::sub_index::SubscriptionTable;
use crate::subscription::SubscriptionId;
use crate::unit::{Unit, UnitFactory, UnitId, UnitSpec, UnitState};

/// The four security configurations evaluated in Figures 5–7 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SecurityMode {
    /// No label checks, events shared by reference ("no security").
    NoSecurity,
    /// Label checks with freeze-and-share event dispatch ("labels+freeze").
    #[default]
    LabelsFreeze,
    /// Label checks with a deep copy of every event per delivery ("labels+clone").
    LabelsClone,
    /// Label checks, freeze-and-share dispatch and runtime isolation interception
    /// ("labels+freeze+isolation") — the full DEFCon configuration.
    LabelsFreezeIsolation,
}

impl SecurityMode {
    /// Returns `true` if label (DEFC) checks are performed.
    pub fn checks_labels(&self) -> bool {
        !matches!(self, SecurityMode::NoSecurity)
    }

    /// Returns `true` if events are deep-copied per delivery.
    pub fn clones_events(&self) -> bool {
        matches!(self, SecurityMode::LabelsClone)
    }

    /// Returns `true` if the isolation runtime intercepts unit data accesses.
    pub fn isolates(&self) -> bool {
        matches!(self, SecurityMode::LabelsFreezeIsolation)
    }

    /// The label the paper uses for this configuration in its figures.
    pub fn figure_label(&self) -> &'static str {
        match self {
            SecurityMode::NoSecurity => "no security",
            SecurityMode::LabelsFreeze => "labels+freeze",
            SecurityMode::LabelsClone => "labels+clone",
            SecurityMode::LabelsFreezeIsolation => "labels+freeze+isolation",
        }
    }

    /// All four modes, in the order the paper lists them.
    pub fn all() -> [SecurityMode; 4] {
        [
            SecurityMode::NoSecurity,
            SecurityMode::LabelsFreeze,
            SecurityMode::LabelsClone,
            SecurityMode::LabelsFreezeIsolation,
        ]
    }
}

impl fmt::Display for SecurityMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.figure_label())
    }
}

/// Engine construction parameters.
///
/// Applications normally build this through [`Engine::builder`]; the struct
/// itself stays public so that deployments can be described declaratively (e.g.
/// in a platform config) and handed to [`EngineBuilder::config`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The security configuration.
    pub mode: SecurityMode,
    /// The number of dispatcher worker threads [`Engine::start`] spawns; all
    /// of them stay active until shutdown, and the run queue has one shard
    /// per worker. Zero means no background dispatch: the returned handle is
    /// driven manually via [`EngineHandle::pump_until_idle`] /
    /// [`EngineHandle::run_for`], which is what single-threaded tests and
    /// benchmarks want. Deployments that should adapt to their hardware pass
    /// [`auto_worker_count`](crate::auto_worker_count).
    pub workers: usize,
    /// Maximum number of events a dispatcher pops (and accounts for) per run
    /// queue lock round-trip, and the natural chunk size for
    /// [`Publisher::publish_batch`](crate::Publisher::publish_batch). The
    /// default of 1 preserves classic one-event-at-a-time queueing; larger
    /// sizes amortise the shard lock, the in-flight accounting update, the
    /// wakeup check and the subscription/owner-state snapshot over the whole
    /// batch. Delivery order is unaffected: each event of a batch is
    /// dispatched in turn, to its subscribers in strict subscription order.
    /// The one thing batch size changes is the snapshot window: dispatch
    /// observes each subscriber's security state as snapshotted when the
    /// batch began, so a unit changing its own labels during a delivery
    /// affects visibility checks from the next batch on (see
    /// `Dispatcher::batch_context`).
    pub batch_size: usize,
    /// Selects the inverted subscription index (the default): dispatch planning
    /// consults an index from part name (and string or integer part value) to
    /// candidate subscriptions — a provable superset of the true matches — and
    /// runs the exact filter and flow check only on candidates, so planning
    /// cost scales with *matching* subscriptions instead of registered ones.
    /// The index lives in the subscription table and is maintained under the
    /// table's write lock: a subscribe appends and keys one entry, an
    /// unsubscribe or unit removal tombstones its entries and unlists them
    /// from the one bucket each was keyed under, and a full build — which
    /// also compacts the tombstones — runs only once the changes since the
    /// last one exceed half the live count. A dispatcher refresh after the
    /// `security_epoch` bump shares the table's index and snapshots each owner
    /// unit once, so a change costs what changed. `false` keeps no index and
    /// runs the linear scan over every live subscription — the reference the
    /// index property tests compare against. Delivery sets are identical
    /// either way.
    pub subscription_index: bool,
    /// Maximum number of managed handler instances kept alive. Managed
    /// subscriptions over per-order tags create one instance per distinct
    /// contamination; the cap bounds their memory like a JVM would bound event
    /// processes via garbage collection.
    pub managed_instance_cap: usize,
    /// Write-ahead log configuration. When set, every externally published
    /// event (publisher batches, `with_unit` closure outputs, driver-side
    /// bootstrap publishes) is appended to the log *before* it is enqueued —
    /// one frame per publish batch, flushed per the configured
    /// [`FsyncPolicy`](defcon_durability::FsyncPolicy). Cascade publications
    /// (events units emit while processing) are not logged: replaying the log
    /// through [`Engine::recover_from`] regenerates them via normal dispatch.
    /// `None` (the default) keeps the engine purely in-memory.
    pub wal: Option<WalConfig>,
    /// Bounded-admission configuration. When set,
    /// [`Publisher::try_publish_batch`](crate::Publisher::try_publish_batch)
    /// enforces the configured queue bound, and an
    /// ingress tier built over the engine paces its sessions by credit window
    /// under the configured full-queue policy. `None` (the default) keeps the
    /// classic unbounded publish path.
    pub ingress: Option<IngressConfig>,
    /// Fault policy. When set, the dispatcher counts panicking deliveries per
    /// unit and trips the configured [`FaultAction`] (auto-swap to a standby,
    /// or quarantine-and-shed) once a unit exceeds the panic budget within its
    /// delivery window. `None` (the default) keeps the classic behaviour:
    /// panics are counted in `unit_errors` and otherwise tolerated forever.
    pub fault: Option<FaultPolicy>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: SecurityMode::LabelsFreeze,
            workers: 0,
            batch_size: 1,
            subscription_index: true,
            managed_instance_cap: 1024,
            wal: None,
            ingress: None,
            fault: None,
        }
    }
}

/// A snapshot of the run queue's and the engine's telemetry counters
/// ([`Engine::queue_stats`] / [`EngineHandle::queue_stats`]): what a
/// deployment's operator sees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueStats {
    /// Events currently queued across all shards.
    pub depth: usize,
    /// Per-shard queued depths (sampled under each shard's lock).
    pub shard_depths: Vec<usize>,
    /// Events popped but whose dispatch has not finished.
    pub in_flight: usize,
    /// The configured worker count, which is the number of workers
    /// [`Engine::start`] spawns and keeps active (0 for manual engines). Kept
    /// under this name for the benchmark's `core.workers_high_water` cell.
    pub workers_high_water: usize,
    /// Events admitted through the admission layer (`try_publish_batch` and
    /// ingress sessions); zero for engines publishing only via the direct
    /// unbounded path.
    pub ingress_admitted: u64,
    /// Events shed by a full-queue policy — loud accounting, one count per
    /// dropped event.
    pub ingress_shed: u64,
    /// Times a submitter stalled on an exhausted credit window or a full
    /// queue before making progress.
    pub ingress_credit_stalls: u64,
    /// Successful unit swaps ([`Engine::swap_unit`]), manual and
    /// fault-triggered.
    pub unit_swaps: u64,
    /// The subset of `unit_swaps` tripped by the configured
    /// [`FaultPolicy`].
    pub fault_swaps: u64,
    /// Panicking deliveries (a subset of `EngineStats::unit_errors`).
    pub unit_panics: u64,
    /// Units put into quarantine by the fault policy.
    pub units_quarantined: u64,
    /// Deliveries shed because their target unit was quarantined.
    pub quarantine_shed: u64,
    /// Whole runs a dispatcher popped from a run-queue shard other than its
    /// preferred one because its own shard was dry (always zero with a single
    /// shard, i.e. one worker or a manual engine).
    pub sched_steals: u64,
    /// Always zero: every worker is active from start to shutdown, so none is
    /// ever woken to join the pool. Kept for the benchmark's
    /// `core.sched_wakes` cell.
    pub sched_wakes: u64,
    /// Batch-context rebuilds a dispatcher skipped because the engine-shared
    /// security snapshot was still valid for the current epoch — a sibling
    /// dispatcher had already built it.
    pub sched_snapshot_hits: u64,
    /// Candidate subscriptions produced by the inverted subscription index
    /// across all indexed plans (accumulated candidate-set sizes). Compare
    /// against `registered subscriptions × events` — the linear scan's cost —
    /// to read the index's sublinearity; zero with the index disabled.
    pub index_candidates: u64,
    /// Index candidates whose exact filter or flow check rejected the
    /// delivery: the index's false positives, each paid at exact-match cost
    /// only (the candidate-superset invariant makes false *negatives*
    /// impossible).
    pub index_exact_rejects: u64,
    /// Times a dispatcher refreshed its snapshot of the subscription index —
    /// once per security epoch that dispatched, not once per batch. A refresh
    /// shares the index the subscription table maintains (it copies no
    /// bucket); the table's own occasional full builds are not counted.
    pub index_rebuilds: u64,
}

/// Counters describing engine activity.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Events accepted by `publish`.
    pub published: AtomicU64,
    /// Events taken off the queue and dispatched.
    pub dispatched: AtomicU64,
    /// Individual deliveries to units (one event may be delivered to many units).
    pub deliveries: AtomicU64,
    /// Subscriptions whose filter matched structurally but whose label check
    /// rejected the delivery.
    pub label_rejections: AtomicU64,
    /// Errors returned by unit callbacks (isolated and counted, never propagated to
    /// other units).
    pub unit_errors: AtomicU64,
    /// Engine-level dispatch failures on worker threads (distinct from unit
    /// misbehaviour; any nonzero value indicates an engine bug worth reporting).
    pub engine_errors: AtomicU64,
    /// Managed handler instances created on demand.
    pub managed_instances: AtomicU64,
}

impl EngineStats {
    /// Events accepted by `publish`.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Events dispatched from the queue.
    pub fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Total unit deliveries.
    pub fn deliveries(&self) -> u64 {
        self.deliveries.load(Ordering::Relaxed)
    }

    /// Deliveries suppressed by label checks.
    pub fn label_rejections(&self) -> u64 {
        self.label_rejections.load(Ordering::Relaxed)
    }

    /// Unit callback errors.
    pub fn unit_errors(&self) -> u64 {
        self.unit_errors.load(Ordering::Relaxed)
    }

    /// Engine-level dispatch failures on worker threads.
    pub fn engine_errors(&self) -> u64 {
        self.engine_errors.load(Ordering::Relaxed)
    }

    /// Managed instances created.
    pub fn managed_instances(&self) -> u64 {
        self.managed_instances.load(Ordering::Relaxed)
    }
}

/// A registered unit: its security state, its behaviour object and its mailbox.
pub(crate) struct UnitCell {
    pub(crate) state: UnitState,
    pub(crate) instance: Box<dyn Unit>,
    /// Pull-mode mailbox used by `get_event` (Table 1).
    pub(crate) mailbox: VecDeque<(Event, SubscriptionId)>,
    /// When `true`, deliveries are queued in the mailbox instead of invoking
    /// `on_event`.
    pub(crate) pull_mode: bool,
    /// Set under the cell lock when the unit is evicted/removed/swapped and
    /// its isolate destroyed; a dispatch that resolved this slot concurrently
    /// must not deliver into the dead isolate. For a *swap* the registry holds
    /// the replacement slot (installed before this flag is set), so delivery
    /// paths forward to it instead of skipping.
    pub(crate) retired: bool,
    /// Set by the fault policy: deliveries are shed loudly instead of invoking
    /// a unit that repeatedly panicked, until a swap replaces it.
    pub(crate) quarantined: bool,
    /// Deliveries counted in the current fault window (see
    /// [`FaultPolicy::window`](crate::FaultPolicy)). Mutated under the cell
    /// lock on the delivery path, only when a fault policy is configured.
    pub(crate) window_deliveries: u32,
    /// Panicking deliveries in the current fault window.
    pub(crate) window_panics: u32,
}

impl UnitCell {
    /// A fresh, live cell for a (newly registered or just swapped-in) unit.
    pub(crate) fn new(state: UnitState, instance: Box<dyn Unit>) -> Self {
        UnitCell {
            state,
            instance,
            mailbox: VecDeque::new(),
            pull_mode: false,
            retired: false,
            quarantined: false,
            window_deliveries: 0,
            window_panics: 0,
        }
    }
}

pub(crate) struct UnitSlot {
    pub(crate) cell: Mutex<UnitCell>,
    pub(crate) mailbox_signal: Condvar,
}

/// Shared internals of the engine.
pub(crate) struct EngineCore {
    pub(crate) config: EngineConfig,
    pub(crate) isolation: IsolationRuntime,
    pub(crate) units: RwLock<HashMap<UnitId, Arc<UnitSlot>>>,
    /// Every live subscription, its owner ordinals and (with the index on)
    /// the inverted index over them, edited under this one lock.
    pub(crate) subscriptions: RwLock<SubscriptionTable>,
    pub(crate) run_queue: RunQueue,
    pub(crate) managed_instances: Mutex<HashMap<(SubscriptionId, Label), UnitId>>,
    pub(crate) memory: MemoryAccountant,
    pub(crate) stats: EngineStats,
    /// Admission reservation state and shed/admit/credit-stall counters (see
    /// [`AdmissionCounters`]); always present so `queue_stats()` reads one
    /// shape whether or not bounded admission is configured.
    pub(crate) admission: AdmissionCounters,
    /// Engine-shared, epoch-validated batch-context slot: the first
    /// dispatcher to need a snapshot for an epoch builds and publishes it;
    /// every other dispatcher validates the epoch and clones the `Arc`.
    pub(crate) shared_context: crate::dispatcher::SharedContextSlot,
    /// Bumped by every mutation of state the batch context snapshots: the
    /// subscription list (subscribe, unsubscribe, register, remove, swap),
    /// input labels (`change_in_out_label`), and the output label and
    /// privileges of managed-subscription owners. Tag creation and privilege
    /// or output-label changes of any other unit touch nothing snapshotted
    /// and leave it alone. Dispatchers key their cached batch context on it,
    /// so an unchanged epoch lets consecutive batches reuse one
    /// subscription/owner snapshot instead of refreshing it.
    pub(crate) security_epoch: AtomicU64,
    /// The write-ahead log appender, present when [`EngineConfig::wal`] is
    /// set. The mutex serialises appends from concurrent publishers, which
    /// also makes log order a linearisation of the publish calls.
    pub(crate) wal: Option<Mutex<WalWriter>>,
    /// Swap and fault telemetry (see [`FaultCounters`]); always present so
    /// `queue_stats()` reads one shape whether or not a fault policy is
    /// configured.
    pub(crate) faults: FaultCounters,
    /// Subscription-index telemetry (candidate counts, exact rejects,
    /// snapshot refreshes); always present — all zero when the index is disabled — so
    /// `queue_stats()` reads one shape either way.
    pub(crate) index_stats: crate::sub_index::IndexCounters,
    /// Standby factories for fault-triggered auto-swap, keyed by the unit id
    /// they stand in for ([`Engine::set_standby`]). Keyed by id — not slot —
    /// so a standby keeps covering its unit across repeated swaps.
    pub(crate) standbys: Mutex<HashMap<UnitId, UnitFactory>>,
    /// Per-engine unit identifier sequence: two engines in one process (or in
    /// parallel tests) each number their units 1, 2, 3, ... independently.
    unit_sequence: AtomicU64,
    /// Set by the first [`Engine::start`]; the runtime lifecycle is one-shot.
    pub(crate) started: std::sync::atomic::AtomicBool,
}

impl EngineCore {
    /// Allocates the next unit identifier for this engine.
    pub(crate) fn next_unit_id(&self) -> UnitId {
        UnitId::from_raw(self.unit_sequence.fetch_add(1, Ordering::Relaxed))
    }

    /// Records a mutation of snapshotted state (see `security_epoch`):
    /// invalidates every dispatcher's cached batch context.
    pub(crate) fn bump_security_epoch(&self) {
        self.security_epoch.fetch_add(1, Ordering::Release);
    }

    /// Attempts to reserve depth for `events` new external events against the
    /// configured ingress bound. Admission holds `depth + reserved + events <=
    /// queue_bound` under a CAS loop, so concurrent admitters can never
    /// jointly overshoot; the reservation must be released with
    /// [`EngineCore::release_admission`] once the enqueue has made the events
    /// visible in `len` (the momentary double-count in between is
    /// conservative). Always succeeds when no ingress bound is configured.
    pub(crate) fn try_admit(&self, events: usize) -> bool {
        let Some(ingress) = &self.config.ingress else {
            return true;
        };
        let bound = ingress.queue_bound;
        let mut reserved = self.admission.reserved.load(Ordering::Acquire);
        loop {
            let depth = self.run_queue.len();
            if depth + reserved + events > bound {
                return false;
            }
            match self.admission.reserved.compare_exchange_weak(
                reserved,
                reserved + events,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(actual) => reserved = actual,
            }
        }
    }

    /// Releases a reservation taken by [`EngineCore::try_admit`].
    pub(crate) fn release_admission(&self, events: usize) {
        if self.config.ingress.is_some() && events > 0 {
            self.admission.reserved.fetch_sub(events, Ordering::AcqRel);
        }
    }

    /// Enqueues an event published from inside dispatch (always accepted; the
    /// publishing dispatch keeps the queue non-idle until it drains).
    pub(crate) fn enqueue(&self, event: Event) {
        self.stats.published.fetch_add(1, Ordering::Relaxed);
        self.run_queue.push(event);
    }

    /// Enqueues a batch of events published from inside dispatch (one unit
    /// delivery's cascade outputs) as a single run-queue transaction.
    pub(crate) fn enqueue_batch(&self, events: Vec<Event>) {
        if events.is_empty() {
            return;
        }
        self.stats
            .published
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        self.run_queue.push_batch(events);
    }

    /// Appends one publish batch to the write-ahead log (no-op when the log is
    /// disabled). Called *before* the queue push — the write-ahead contract:
    /// an append failure rejects the publish, so no event is ever dispatched
    /// without being durable first. The converse race is documented rather
    /// than prevented: a batch logged here and then rejected by a concurrent
    /// shutdown stays in the log and is re-fed on recovery.
    fn log_external_batch(
        &self,
        source: UnitId,
        output_label: &Label,
        arrival_ns: u64,
        events: &[Event],
    ) -> EngineResult<()> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let record = WalRecord {
            publisher_unit: source.as_u64(),
            output_label: output_label.clone(),
            arrival_ns,
            // Events clone by `Arc`, so logging shares the parts buffers the
            // queue is about to take.
            events: events.to_vec(),
        };
        wal.lock()
            .append(&record)
            .map_err(|err| EngineError::Durability(format!("wal append failed: {err}")))
    }

    /// Enqueues an event from an external driver, logging it first when the
    /// write-ahead log is enabled; fails once the runtime has shut down
    /// instead of silently losing the event.
    pub(crate) fn enqueue_external(
        &self,
        source: UnitId,
        output_label: &Label,
        event: Event,
    ) -> EngineResult<()> {
        self.log_external_batch(
            source,
            output_label,
            event.origin_ns(),
            std::slice::from_ref(&event),
        )?;
        if self.run_queue.push_external(event) {
            self.stats.published.fetch_add(1, Ordering::Relaxed);
            Ok(())
        } else {
            Err(EngineError::InvalidOperation(
                "engine runtime has shut down; event rejected".into(),
            ))
        }
    }

    /// Enqueues a batch of external events onto one run-queue shard under a
    /// single lock acquisition, returning how many were accepted. The batch is
    /// drained out of `events` (so publishers reuse one buffer per thread).
    /// When the write-ahead log is enabled the whole batch is appended as one
    /// frame — and flushed per the fsync policy — before anything is enqueued.
    /// An entirely rejected batch (runtime shut down) fails loudly like
    /// [`EngineCore::enqueue_external`]; a batch that races shutdown may be
    /// partially accepted — the returned count is exactly the number of events
    /// that will be dispatched.
    pub(crate) fn enqueue_external_batch(
        &self,
        source: UnitId,
        output_label: &Label,
        arrival_ns: u64,
        events: &mut Vec<Event>,
    ) -> EngineResult<usize> {
        if events.is_empty() {
            return Ok(0);
        }
        self.log_external_batch(source, output_label, arrival_ns, events)?;
        let accepted = self.run_queue.push_external_batch(events);
        if accepted == 0 {
            return Err(EngineError::InvalidOperation(
                "engine runtime has shut down; event batch rejected".into(),
            ));
        }
        self.stats
            .published
            .fetch_add(accepted as u64, Ordering::Relaxed);
        Ok(accepted)
    }

    /// Re-feeds recovered events into the run queue through the normal
    /// dispatch path *without* re-logging them (their log records already
    /// exist). Each recovered batch keeps its internal order on one shard,
    /// exactly like the original `publish_batch` transaction did.
    pub(crate) fn enqueue_recovered_batch(&self, events: &mut Vec<Event>) -> EngineResult<usize> {
        if events.is_empty() {
            return Ok(0);
        }
        let expected = events.len();
        let accepted = self.run_queue.push_external_batch(events);
        if accepted < expected {
            return Err(EngineError::InvalidOperation(
                "engine runtime has shut down; recovery batch rejected".into(),
            ));
        }
        self.stats
            .published
            .fetch_add(accepted as u64, Ordering::Relaxed);
        Ok(accepted)
    }

    /// Runs a closure with exclusive access to a unit and a [`UnitContext`] for
    /// it, enqueueing whatever the closure published once the unit is unlocked.
    ///
    /// Driver closures count as external publishers: events they publish after
    /// the runtime has shut down are rejected (the closure's other effects —
    /// tag creation, label changes — stand).
    pub(crate) fn with_unit_context<R>(
        self: &Arc<Self>,
        unit: UnitId,
        f: impl FnOnce(&mut dyn Unit, &mut UnitContext<'_>) -> EngineResult<R>,
    ) -> EngineResult<R> {
        let slot = self.slot(unit)?;
        let mut cell = slot.cell.lock();
        let UnitCell {
            ref mut state,
            ref mut instance,
            ..
        } = *cell;
        let mut outputs = Vec::new();
        let result = {
            let mut ctx = UnitContext::new(self, state, None, &mut outputs, false);
            let r = f(instance.as_mut(), &mut ctx);
            ctx.finish();
            r
        };
        // Snapshot for the write-ahead log before releasing the cell: the
        // closure may have changed the unit's output label, and that final
        // label is the one its publishes were raised to.
        let output_label = cell.state.output_label.clone();
        drop(cell);
        for event in outputs {
            self.enqueue_external(unit, &output_label, event)?;
        }
        result
    }

    /// Looks up a unit slot.
    pub(crate) fn slot(&self, unit: UnitId) -> EngineResult<Arc<UnitSlot>> {
        self.units
            .read()
            .get(&unit)
            .cloned()
            .ok_or_else(|| EngineError::UnknownUnit(format!("{unit}")))
    }

    /// Registers a unit and runs its `init` callback. `in_dispatch` records
    /// whether the registration was triggered from inside an in-flight dispatch
    /// (`ctx.instantiate_unit` in an `on_event`); it decides how init-published
    /// bootstrap events are enqueued.
    pub(crate) fn register_unit(
        self: &Arc<Self>,
        spec: UnitSpec,
        mut instance: Box<dyn Unit>,
        in_dispatch: bool,
    ) -> EngineResult<UnitId> {
        let id = self.next_unit_id();
        let isolate = self.isolation.create_isolate();
        let mut state = UnitState::new(id, spec, isolate);
        self.memory
            .charge(MemoryCategory::UnitState, state.estimated_size());

        // Run init with a context before the unit becomes reachable by dispatch, so
        // that its subscriptions are in place atomically with registration.
        let mut outputs = Vec::new();
        {
            let mut ctx = UnitContext::new(self, &mut state, None, &mut outputs, in_dispatch);
            instance.init(&mut ctx)?;
            ctx.finish();
        }

        let output_label = state.output_label.clone();
        let slot = Arc::new(UnitSlot {
            cell: Mutex::new(UnitCell::new(state, instance)),
            mailbox_signal: Condvar::new(),
        });
        self.units.write().insert(id, slot);
        self.bump_security_epoch();
        for event in outputs {
            if in_dispatch {
                // Part of a main-path cascade: guaranteed to drain, like any
                // other event published from inside a dispatch.
                self.enqueue(event);
            } else {
                // Registration from a driver thread: after shutdown the
                // bootstrap events are rejected loudly (the unit itself stays
                // registered) instead of rotting on the stopped queue.
                self.enqueue_external(id, &output_label, event)?;
            }
        }
        Ok(id)
    }

    /// Drain-and-swap: replaces the unit instance serving `unit` with
    /// `replacement`, preserving the id, name, labels, privilege set,
    /// delivered count, mailbox and pull mode, under a bumped version and a
    /// fresh isolate. Returns the new version.
    ///
    /// The quiesce point is the unit's cell lock: deliveries hold it for the
    /// whole `on_event` call, so acquiring it here means any in-flight
    /// delivery has *drained* to a clean boundary — never aborted. The
    /// replacement slot is installed in the registry *before* the old cell is
    /// retired and its isolate destroyed (legal lock direction: cell →
    /// `units.write()`, the same order unit callbacks use), so a concurrent
    /// dispatch holding the old slot observes either a live old cell (and
    /// delivers under the lock we are waiting for) or a retired one with the
    /// replacement already resolvable — its delivery forwards, exactly once,
    /// in order.
    ///
    /// The replacement's `init` is **not** run: it inherits the predecessor's
    /// subscriptions (owned by the stable unit id), which is what preserves
    /// exactly-once across the boundary — an init-time re-subscribe would
    /// double-deliver or drop events raced across the swap.
    pub(crate) fn swap_unit(
        self: &Arc<Self>,
        unit: UnitId,
        replacement: Box<dyn Unit>,
    ) -> EngineResult<u64> {
        let mut slot = self.slot(unit)?;
        let mut replacement = Some(replacement);
        loop {
            let mut old = slot.cell.lock();
            if old.retired {
                // Raced another swap (or a removal): chase the live slot. The
                // registry holds the replacement before a slot retires, so a
                // re-resolve that returns the same retired slot (or nothing)
                // means the unit is truly gone.
                drop(old);
                let fresh = self.slot(unit)?;
                if Arc::ptr_eq(&fresh, &slot) {
                    return Err(EngineError::UnknownUnit(format!("{unit}")));
                }
                slot = fresh;
                continue;
            }

            // Quiesced: we hold the cell lock, nothing is mid-delivery.
            let version = old.state.version + 1;
            let state = UnitState {
                id: unit,
                name: old.state.name.clone(),
                input_label: old.state.input_label.clone(),
                output_label: old.state.output_label.clone(),
                privileges: old.state.privileges.clone(),
                isolate: self.isolation.create_isolate(),
                delivered: old.state.delivered,
                version,
                owns_managed: old.state.owns_managed,
            };
            let state_size = state.estimated_size();
            let mut cell = UnitCell::new(state, replacement.take().expect("one swap per loop"));
            // Pending pull-mode deliveries migrate: they were accepted for
            // this unit id and must not be lost to the swap.
            cell.mailbox = std::mem::take(&mut old.mailbox);
            cell.pull_mode = old.pull_mode;
            let new_slot = Arc::new(UnitSlot {
                cell: Mutex::new(cell),
                mailbox_signal: Condvar::new(),
            });
            self.memory.charge(MemoryCategory::UnitState, state_size);

            // Install the replacement while still holding the old cell lock,
            // then retire the old cell — the order every forwarding delivery
            // path relies on.
            self.units.write().insert(unit, new_slot);
            old.retired = true;
            self.isolation.destroy_isolate(old.state.isolate);
            self.memory
                .release(MemoryCategory::UnitState, old.state.estimated_size());
            drop(old);
            // Pull-mode waiters parked on the old slot re-resolve on wake.
            slot.mailbox_signal.notify_all();
            self.faults.unit_swaps.fetch_add(1, Ordering::Relaxed);
            self.bump_security_epoch();
            return Ok(version);
        }
    }

    /// Quarantines `unit`: subsequent deliveries to it are shed loudly and
    /// publishing as it fails with
    /// [`EngineError::UnitQuarantined`](crate::EngineError). Idempotent; a
    /// later [`EngineCore::swap_unit`] lifts the quarantine by replacing the
    /// instance.
    pub(crate) fn quarantine_unit(&self, unit: UnitId) -> EngineResult<()> {
        let slot = self.slot(unit)?;
        let mut cell = slot.cell.lock();
        if !cell.retired && !cell.quarantined {
            cell.quarantined = true;
            self.faults
                .units_quarantined
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Trips the configured fault action for a unit whose panic window just
    /// overflowed. Called by the dispatcher *after* releasing the unit's cell
    /// lock (the swap path re-acquires it, and `AutoSwap` takes
    /// `units.write()` — both forbidden while a delivery holds the cell).
    pub(crate) fn handle_unit_fault(self: &Arc<Self>, unit: UnitId) {
        let Some(policy) = self.config.fault else {
            return;
        };
        match policy.action {
            FaultAction::AutoSwap => {
                // The factory runs under the standby lock; standby factories
                // are plain constructors, and nothing on this path re-enters
                // the map.
                let replacement = self.standbys.lock().get(&unit).map(|factory| factory());
                let swapped = match replacement {
                    Some(instance) => self.swap_unit(unit, instance).is_ok(),
                    // Tripped with no standby registered.
                    None => false,
                };
                if swapped {
                    self.faults.fault_swaps.fetch_add(1, Ordering::Relaxed);
                } else {
                    // No standby (or the swap itself failed): quarantine
                    // rather than keep feeding a unit that panics on
                    // everything.
                    let _ = self.quarantine_unit(unit);
                }
            }
            FaultAction::Quarantine => {
                let _ = self.quarantine_unit(unit);
            }
        }
    }
}

/// What [`Engine::recover_from`] found in a write-ahead log and re-fed through
/// dispatch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Publish batches (log frames) replayed.
    pub batches: u64,
    /// Events re-enqueued across those batches.
    pub events: u64,
    /// Whether the final segment ended in a torn frame that was truncated away.
    pub torn_tail_truncated: bool,
    /// Bytes removed by that truncation.
    pub truncated_bytes: u64,
}

/// The public handle to a DEFCon engine instance.
#[derive(Clone)]
pub struct Engine {
    core: Arc<EngineCore>,
}

impl Engine {
    /// Shares the engine internals with in-crate runtime components.
    pub(crate) fn core(&self) -> Arc<EngineCore> {
        Arc::clone(&self.core)
    }

    /// Returns a builder for configuring and creating an engine — the v2 entry
    /// point of the runtime API.
    ///
    /// ```
    /// use defcon_core::{Engine, SecurityMode};
    ///
    /// let handle = Engine::builder()
    ///     .mode(SecurityMode::LabelsFreeze)
    ///     .workers(4)
    ///     .start();
    /// handle.shutdown().unwrap();
    /// ```
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Creates an engine directly from a configuration (the low-level
    /// constructor behind [`EngineBuilder::build`]).
    ///
    /// # Panics
    ///
    /// Panics when a configured write-ahead log directory cannot be opened for
    /// appending — a deployment that asked for durability and cannot have it
    /// should not come up at all.
    pub fn new(config: EngineConfig) -> Self {
        let isolation = if config.mode.isolates() {
            IsolationRuntime::standard()
        } else {
            IsolationRuntime::disabled()
        };
        let wal = config.wal.clone().map(|wal_config| {
            let dir = wal_config.dir.clone();
            Mutex::new(WalWriter::open(wal_config).unwrap_or_else(|err| {
                panic!("opening write-ahead log in {}: {err}", dir.display())
            }))
        });
        let run_queue = RunQueue::new(config.workers.max(1));
        let subscriptions = SubscriptionTable::new(config.subscription_index);
        Engine {
            core: Arc::new(EngineCore {
                config,
                isolation,
                units: RwLock::new(HashMap::new()),
                subscriptions: RwLock::new(subscriptions),
                run_queue,
                managed_instances: Mutex::new(HashMap::new()),
                memory: MemoryAccountant::new(),
                stats: EngineStats::default(),
                admission: AdmissionCounters::default(),
                shared_context: crate::dispatcher::SharedContextSlot::new(),
                wal,
                faults: FaultCounters::default(),
                index_stats: crate::sub_index::IndexCounters::default(),
                standbys: Mutex::new(HashMap::new()),
                security_epoch: AtomicU64::new(0),
                unit_sequence: AtomicU64::new(1),
                started: std::sync::atomic::AtomicBool::new(false),
            }),
        }
    }

    /// Starts the engine's runtime, spawning the configured number of dispatcher
    /// worker threads over the sharded run queue, and returns the
    /// [`EngineHandle`] through which the running engine is driven and
    /// eventually shut down.
    ///
    /// With `workers == 0` no threads are spawned; the handle's
    /// [`pump_until_idle`](EngineHandle::pump_until_idle) and
    /// [`run_for`](EngineHandle::run_for) drive dispatch on the calling thread.
    ///
    /// The runtime lifecycle is **one-shot**: shutting the handle down (or
    /// dropping it) stops this engine for good.
    ///
    /// # Panics
    ///
    /// Panics when called a second time, or after the runtime was shut down —
    /// both are programming errors that would otherwise produce an engine that
    /// silently never dispatches (workers of a re-`start` would observe the
    /// stopped queue and exit immediately).
    pub fn start(&self) -> EngineHandle {
        assert!(
            !self.core.run_queue.is_stopping(),
            "Engine::start called after the runtime was shut down; create a new engine"
        );
        assert!(
            !self
                .core
                .started
                .swap(true, std::sync::atomic::Ordering::SeqCst),
            "Engine::start may only be called once per engine (the runtime lifecycle is one-shot)"
        );
        EngineHandle::launch(self.clone())
    }

    /// Replays a write-ahead log directory into this engine: scans the
    /// segments in order, truncates a torn tail at the last valid frame, and
    /// re-feeds every surviving batch through the normal dispatch path —
    /// same per-batch ordering as the original `publish_batch` transactions,
    /// event identities preserved (the id sequence is advanced past every
    /// recovered id).
    ///
    /// Call it after registering the deployment's units (recovered events
    /// dispatch to whatever is subscribed when they drain) and at any point
    /// before shutdown; with background workers the replay starts dispatching
    /// immediately, with `workers(0)` it sits on the queue until pumped.
    ///
    /// Recovered events are **not** re-appended to this engine's own log —
    /// their records already exist when recovering in place, and recovery into
    /// a different log directory is a migration, not a publish. Cascade
    /// publications are regenerated by dispatch, exactly as in the original
    /// run.
    pub fn recover_from(&self, dir: impl AsRef<Path>) -> EngineResult<RecoveryReport> {
        let scan = defcon_durability::recover(dir.as_ref())
            .map_err(|err| EngineError::Durability(format!("wal recovery failed: {err}")))?;
        let mut report = RecoveryReport {
            batches: scan.records.len() as u64,
            torn_tail_truncated: scan.torn_tail_truncated,
            truncated_bytes: scan.truncated_bytes,
            ..RecoveryReport::default()
        };
        for mut record in scan.records {
            report.events += self.core.enqueue_recovered_batch(&mut record.events)? as u64;
        }
        Ok(report)
    }

    /// Returns a typed publisher handle that lets an external driver (a
    /// market-data feed, a test harness) publish events *as* `unit` without
    /// going through a [`Engine::with_unit`] closure.
    pub fn publisher(&self, unit: UnitId) -> EngineResult<Publisher> {
        // Fail fast if the unit does not exist; the resolved slot is cached in
        // the publisher so the hot publish path skips the registry lookup.
        let slot = self.core.slot(unit)?;
        Ok(Publisher::new(Arc::clone(&self.core), unit, slot))
    }

    /// Returns the configured security mode.
    pub fn mode(&self) -> SecurityMode {
        self.core.config.mode
    }

    /// Returns the number of dispatcher worker threads [`Engine::start`] will
    /// spawn.
    pub fn configured_workers(&self) -> usize {
        self.core.config.workers
    }

    /// Returns `true` when dispatch planning consults the inverted
    /// subscription index instead of scanning every subscription (see
    /// [`EngineConfig::subscription_index`]).
    pub fn subscription_index(&self) -> bool {
        self.core.config.subscription_index
    }

    /// Samples the run queue's and the engine's telemetry counters: total and
    /// per-shard queue depth, in-flight dispatches, the worker count, and the
    /// admission, fault, scheduler and subscription-index counters.
    pub fn queue_stats(&self) -> QueueStats {
        let depth = self.core.run_queue.len();
        let pending = self.core.run_queue.pending();
        QueueStats {
            depth,
            shard_depths: self.core.run_queue.shard_depths(),
            in_flight: pending.saturating_sub(depth),
            workers_high_water: self.core.config.workers,
            ingress_admitted: self.core.admission.admitted(),
            ingress_shed: self.core.admission.shed(),
            ingress_credit_stalls: self.core.admission.credit_stalls(),
            unit_swaps: self.core.faults.unit_swaps(),
            fault_swaps: self.core.faults.fault_swaps(),
            unit_panics: self.core.faults.unit_panics(),
            units_quarantined: self.core.faults.units_quarantined(),
            quarantine_shed: self.core.faults.quarantine_shed(),
            sched_steals: self.core.run_queue.steals(),
            sched_wakes: 0,
            sched_snapshot_hits: self.core.shared_context.hits(),
            index_candidates: self.core.index_stats.candidates(),
            index_exact_rejects: self.core.index_stats.exact_rejects(),
            index_rebuilds: self.core.index_stats.rebuilds(),
        }
    }

    /// The engine's admission ledger: shed/admit/credit-stall counters the
    /// ingress tier records into and `queue_stats()` exports. Public so the
    /// tier (a separate crate) and the admission layer share one set of
    /// numbers.
    pub fn admission(&self) -> &AdmissionCounters {
        &self.core.admission
    }

    /// The configured ingress admission parameters, when bounded admission is
    /// enabled (see [`EngineBuilder::ingress`](crate::EngineBuilder::ingress)).
    pub fn ingress_config(&self) -> Option<&IngressConfig> {
        self.core.config.ingress.as_ref()
    }

    /// Blocks until queued depth drops below `target`, the runtime stops, or
    /// `timeout` elapses; returns `true` when depth is below `target` (or the
    /// queue is stopping — a stopping queue drains, so blocked admitters must
    /// not wait out their full timeout). This is the drain-side depth signal
    /// `Block`-policy ingress sessions park on instead of spinning.
    pub fn wait_queue_depth_below(&self, target: usize, timeout: Duration) -> bool {
        self.core.run_queue.wait_depth_below(target, timeout)
    }

    /// Returns the configured dispatch batch size (at least 1).
    pub fn configured_batch_size(&self) -> usize {
        self.core.config.batch_size.max(1)
    }

    /// Returns the run queue's shard count: the worker count at construction
    /// (one shard per dispatcher, at least one), so producers never spread
    /// over more locks than there are consumers to drain them.
    pub fn run_queue_shards(&self) -> usize {
        self.core.run_queue.shard_count()
    }

    /// Registers a processing unit, running its `init` callback, and returns its
    /// identifier.
    pub fn register_unit(&self, spec: UnitSpec, instance: Box<dyn Unit>) -> EngineResult<UnitId> {
        self.core.register_unit(spec, instance, false)
    }

    /// Hot-replaces the unit instance serving `unit` with `replacement`,
    /// without stopping the engine: a **drain-and-swap**. The swap waits for
    /// any in-flight delivery to the unit to complete (deliveries hold the
    /// unit's cell lock; the swap acquires it), then migrates the unit's
    /// identity — id, name, input/output labels, privilege set, delivered
    /// count, pull-mode mailbox — onto the replacement under a bumped version
    /// and a fresh isolate, retires the old instance and destroys its isolate.
    /// Returns the new version (`unit_state(unit).version`).
    ///
    /// Exactly-once and per-unit delivery order are preserved across the
    /// boundary: every admitted event is delivered to the old instance or the
    /// new one, never both, never neither. Subscriptions are owned by the
    /// stable unit id and carry over; the replacement's `init` is **not** run
    /// (an init-time re-subscribe would break exactly-once). Publishers and
    /// ingress sessions holding the unit keep publishing — they rebind to the
    /// replacement transparently. A quarantined unit is revived by swapping in
    /// a healthy replacement.
    pub fn swap_unit(&self, unit: UnitId, replacement: Box<dyn Unit>) -> EngineResult<u64> {
        self.core.swap_unit(unit, replacement)
    }

    /// Registers a standby factory for `unit`: when the configured
    /// [`FaultPolicy`] trips the unit with
    /// [`FaultAction::AutoSwap`](crate::FaultAction), the engine builds a
    /// replacement from this factory and swaps it in ([`Engine::swap_unit`]
    /// semantics). Keyed by unit id, so one standby covers its unit across
    /// repeated swaps. Replaces any previous standby for the same unit.
    pub fn set_standby(&self, unit: UnitId, factory: UnitFactory) -> EngineResult<()> {
        // Fail fast on unknown units, like `publisher` does.
        self.core.slot(unit)?;
        self.core.standbys.lock().insert(unit, factory);
        Ok(())
    }

    /// Quarantines a unit by hand: its deliveries are shed loudly (counted in
    /// [`QueueStats::quarantine_shed`]) and publishing as it fails with
    /// [`EngineError::UnitQuarantined`](crate::EngineError), until
    /// [`Engine::swap_unit`] installs a replacement.
    pub fn quarantine_unit(&self, unit: UnitId) -> EngineResult<()> {
        self.core.quarantine_unit(unit)
    }

    /// The configured fault policy, when fault handling is enabled (see
    /// [`EngineBuilder::fault`](crate::EngineBuilder::fault)).
    pub fn fault_policy(&self) -> Option<&FaultPolicy> {
        self.core.config.fault.as_ref()
    }

    /// Removes a unit, destroying its isolate and its subscriptions.
    pub fn remove_unit(&self, unit: UnitId) -> EngineResult<()> {
        self.core.standbys.lock().remove(&unit);
        let slot = self
            .core
            .units
            .write()
            .remove(&unit)
            .ok_or_else(|| EngineError::UnknownUnit(format!("{unit}")))?;
        let mut cell = slot.cell.lock();
        // A concurrent dispatch may already hold this slot's Arc; retiring the
        // cell makes it skip the delivery instead of using the dead isolate.
        cell.retired = true;
        self.core.isolation.destroy_isolate(cell.state.isolate);
        self.core
            .memory
            .release(MemoryCategory::UnitState, cell.state.estimated_size());
        drop(cell);
        self.core.subscriptions.write().remove_owner(unit);
        self.core.bump_security_epoch();
        Ok(())
    }

    /// Runs a closure with exclusive access to a unit and a [`UnitContext`] for it.
    ///
    /// This is how external drivers (a market-data feed thread, a test harness)
    /// perform work *as* a unit: events published through the context are queued
    /// for dispatch when the closure returns.
    pub fn with_unit<R>(
        &self,
        unit: UnitId,
        f: impl FnOnce(&mut dyn Unit, &mut UnitContext<'_>) -> EngineResult<R>,
    ) -> EngineResult<R> {
        self.core.with_unit_context(unit, f)
    }

    /// Returns a snapshot of a unit's security state (labels, privileges).
    pub fn unit_state(&self, unit: UnitId) -> EngineResult<UnitState> {
        Ok(self.core.slot(unit)?.cell.lock().state.clone())
    }

    /// Puts a unit into pull mode: deliveries are queued to its mailbox and
    /// retrieved with [`Engine::get_event`] instead of invoking `on_event`.
    pub fn set_pull_mode(&self, unit: UnitId, pull: bool) -> EngineResult<()> {
        let slot = self.core.slot(unit)?;
        slot.cell.lock().pull_mode = pull;
        Ok(())
    }

    /// Blocks the caller until an event is delivered to the unit's mailbox or the
    /// timeout expires (Table 1, `getEvent`). Requires pull mode.
    pub fn get_event(
        &self,
        unit: UnitId,
        timeout: Duration,
    ) -> EngineResult<Option<(Event, SubscriptionId)>> {
        let slot = self.core.slot(unit)?;
        let mut cell = slot.cell.lock();
        if !cell.pull_mode {
            return Err(EngineError::InvalidOperation(
                "get_event requires pull mode (set_pull_mode)".into(),
            ));
        }
        if cell.mailbox.is_empty() {
            slot.mailbox_signal.wait_for(&mut cell, timeout);
        }
        Ok(cell.mailbox.pop_front())
    }

    /// Non-blocking variant of [`Engine::get_event`].
    pub fn poll_event(&self, unit: UnitId) -> EngineResult<Option<(Event, SubscriptionId)>> {
        let slot = self.core.slot(unit)?;
        let event = slot.cell.lock().mailbox.pop_front();
        Ok(event)
    }

    /// Returns a single-threaded dispatcher for this engine.
    pub fn dispatcher(&self) -> Dispatcher {
        Dispatcher::new(Arc::clone(&self.core))
    }

    /// Number of events waiting in the dispatch queue.
    pub fn queue_depth(&self) -> usize {
        self.core.run_queue.len()
    }

    /// Returns the engine statistics counters.
    pub fn stats(&self) -> &EngineStats {
        &self.core.stats
    }

    /// Number of registered units (including managed instances).
    pub fn unit_count(&self) -> usize {
        self.core.units.read().len()
    }

    /// Number of live subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.core.subscriptions.read().len()
    }

    /// Total accounted memory in MiB: unit state, engine bookkeeping and
    /// isolation overhead (Figure 7's metric).
    pub fn memory_mib(&self) -> f64 {
        let isolation = self.core.isolation.memory_overhead_bytes();
        let engine = self.core.subscriptions.read().len() * 128
            + self.core.units.read().len() * 64
            // The process-wide interned-label table is shared between engines;
            // attributing it wholly to each reporting engine matches how the
            // paper's deployment (one engine per process) would account it.
            + defcon_defc::intern_stats().estimated_bytes();
        let accounted = self.core.memory.total_bytes();
        (accounted + isolation + engine) as f64 / (1024.0 * 1024.0)
    }

    /// Returns the engine's memory accountant (shared with benches).
    pub fn memory(&self) -> &MemoryAccountant {
        &self.core.memory
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("mode", &self.core.config.mode)
            .field("units", &self.unit_count())
            .field("subscriptions", &self.subscription_count())
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}
