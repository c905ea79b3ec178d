//! The event dispatcher.
//!
//! §3.2: "An event dispatcher sends events to units that have expressed interest
//! previously. This decoupled communication means that the fact that a publish call
//! has succeeded does not convey any information that might violate DEFC."
//!
//! The dispatcher takes events off the engine's queue and, for every subscription
//! whose filter matches over the parts *visible to the subscriber*, delivers the
//! event:
//!
//! * **direct** subscriptions invoke the owning unit's `on_event` (or queue into its
//!   mailbox in pull mode);
//! * **managed** subscriptions (§5, `subscribeManaged`) are served by engine-created
//!   handler instances whose contamination is raised to what the event requires,
//!   leaving the owner unit untainted.
//!
//! Parts added by a unit during a delivery are folded into the event for subsequent
//! deliveries in the same pass — the main-dataflow-path augmentation of §3.1.6.
//! The [`SecurityMode`](crate::SecurityMode) determines whether label checks run,
//! whether events are shared frozen or deep-copied, and whether the isolation
//! runtime's interceptor cost is charged per part examined.
//!
//! # The batched hot path
//!
//! Workers pop whole batches (one run-queue lock round-trip, one in-flight
//! accounting update) — from their own shard, or a whole run from a sibling
//! when their own is dry — share one owner-state snapshot per batch, and — with
//! [`EngineConfig::grouped_delivery`](crate::EngineConfig) on, the default —
//! regroup a batch's deliveries by target unit so each unit's cell lock is
//! acquired once per batch instead of once per delivery. Only per-unit delivery
//! order is promised, which is exactly what grouping preserves: each unit sees
//! its events in batch order, while deliveries to *different* units interleave
//! in group order. The snapshot itself is cached across batches and keyed on
//! the engine's security epoch, so consecutive batches over an unchanged
//! subscription/label population skip the refresh entirely. The epoch moves
//! only when something the snapshot holds changes — the subscription list, an
//! input label, or a managed owner's output label or privileges — so tag
//! creation and privilege traffic of ordinary units never force a refresh.
//! A refresh costs what it copies: the subscription table's list and index
//! are shared `Arc`s, and owner state is snapshotted once per owner *unit*,
//! not once per subscription.
//!
//! # The subscription index
//!
//! With [`EngineConfig::subscription_index`](crate::EngineConfig) on (the
//! default), the subscription table keeps an inverted
//! [`SubscriptionIndex`](crate::sub_index) from part names — and, for
//! string/integer equality and `OneOf` clauses, part values — to the
//! subscriptions whose filters could possibly match, and the batch snapshot
//! shares it. Planning looks up each event's parts and runs the exact filter
//! (and flow check) only over the returned candidate set, which is a provable
//! superset of the matches (and, with each subscription keyed by its most
//! selective literal, usually the match set itself): fan-out cost scales with
//! candidates per event instead of total registered subscriptions. The table
//! updates the index under its own write lock on every subscribe, unsubscribe
//! and removal, so a refresh never rebuilds it.
//! Parts released by main-path augmentation are looked up incrementally —
//! per delivery on the per-event path, per overflow wave on the grouped path
//! — so filters naming augmentation-released parts match under either
//! matcher, grouped or not.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use defcon_defc::Label;
use defcon_events::{Event, Part};
use defcon_metrics::memory::MemoryCategory;
use parking_lot::Mutex;

use crate::context::UnitContext;
use crate::engine::{EngineCore, UnitCell, UnitSlot};
use crate::error::EngineResult;
use crate::sub_index::{Entries, SubscriptionIndex, TableSnapshot};
use crate::subscription::{Subscription, SubscriptionKind};
use crate::unit::{UnitId, UnitSpec, UnitState};

/// A pump over an engine's sharded run queue.
///
/// Multiple dispatchers over the same engine may run on different threads — that
/// is exactly what [`Engine::start`](crate::Engine::start) does with
/// `workers(n)`: per-unit mutexes serialise deliveries to the same unit while
/// distinct units dispatch distinct events in parallel.
pub struct Dispatcher {
    core: Arc<EngineCore>,
    /// Run-queue shard this dispatcher prefers when popping (reduces contention
    /// between workers; any dispatcher may steal from any shard). Doubles as
    /// the worker's index in the elastic pool's activation order.
    preferred_shard: usize,
    /// Batch context reused across consecutive batches while the subscription
    /// snapshot and security epoch are unchanged (see
    /// [`Dispatcher::batch_context`]).
    context_cache: RefCell<Option<CachedContext>>,
    /// Plan buffers reused across batches by the grouped hot path, so a
    /// steady-state batch plans with zero allocations.
    scratch: RefCell<GroupScratch>,
}

/// A subscription owner's security state as snapshotted for one batch.
///
/// Labels are interned (`Arc`-backed), so the snapshot clones are
/// reference-count bumps. The output label, privileges and name are only
/// needed to resolve managed handler instances, so only owners of a managed
/// subscription snapshot them.
struct OwnerSnapshot {
    input: Label,
    managed: Option<ManagedOwnerState>,
}

/// An owner unit's slot and snapshot; `None` when the owner was removed (or
/// is not registered yet).
type ResolvedOwner = Option<(Arc<UnitSlot>, OwnerSnapshot)>;

/// The extra owner state a managed subscription needs to instantiate handlers.
struct ManagedOwnerState {
    output: Label,
    privileges: defcon_defc::PrivilegeSet,
    name: String,
}

/// Identity key of one memoised flow decision: a `(part label, owner input
/// label)` pair, plus whether the managed (integrity-only) rule applied.
///
/// Hash and equality are by interned-label *identity*, not structure — the key
/// owns clones of both labels, so the backing allocations (and therefore the
/// identity tokens) stay valid for as long as the memo lives.
struct FlowKey {
    part: Label,
    owner: Label,
    managed: bool,
}

impl PartialEq for FlowKey {
    fn eq(&self, other: &Self) -> bool {
        self.managed == other.managed
            && self.part.ptr_eq(&other.part)
            && self.owner.ptr_eq(&other.owner)
    }
}

impl Eq for FlowKey {}

impl std::hash::Hash for FlowKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_usize(self.part.identity());
        state.write_usize(self.owner.identity() ^ self.managed as usize);
    }
}

/// Bound on the flow memo: the context is reused across batches now, so a
/// pathological label churn must not grow it without limit. Clearing (rather
/// than evicting) keeps the hot path branch-free; the memo refills in one
/// batch.
const FLOW_MEMO_CAP: usize = 4096;

/// Dispatch state prepared once per security epoch and shared by batches.
struct BatchContext {
    /// The subscription table's list, shared: registration order by
    /// position, `None` for a removed subscription's tombstone.
    subscriptions: Entries,
    /// Each owner unit's resolved slot and security-state snapshot, by the
    /// owner ordinal of its entries — one per unit, however many
    /// subscriptions it holds.
    owners: Vec<ResolvedOwner>,
    /// The table's inverted index over `subscriptions`, shared (`None` with
    /// the `subscription_index` knob off): part name/value → candidate
    /// positions, a provable superset of the true matches. Taken under the
    /// same read lock as the list, so the two always agree.
    index: Option<Arc<SubscriptionIndex>>,
    /// Memo of flow decisions that needed the exact sorted-vector scan (the
    /// pointer/fingerprint fast paths answer without consulting it): repeated
    /// deliveries over the same handful of interned labels pay each lattice
    /// scan once. Sound for as long as the context lives because labels are
    /// immutable values and the owner snapshot is fixed per context; an owner
    /// label change bumps the security epoch, which retires the whole context
    /// (memo included). Behind a mutex (uncontended: contexts are per-worker)
    /// so the context can be cached and shared with spawned helpers.
    flow_memo: Mutex<HashMap<FlowKey, bool>>,
}

/// The cache slot of [`Dispatcher::batch_context`]: the snapshot plus the
/// security epoch it is valid for. Subscribe/unsubscribe bump the epoch too,
/// so one `u64` compare covers the whole key.
struct CachedContext {
    /// The engine's security epoch at build time.
    epoch: u64,
    context: Arc<BatchContext>,
}

/// The engine-shared batch-context slot: an RCU-flavoured publication point
/// for the per-epoch security snapshot. The first dispatcher to miss its
/// private cache for an epoch rebuilds the snapshot *while holding the slot
/// lock* — serialising concurrent rebuilders so one epoch bump costs one
/// rebuild engine-wide — and publishes it; every other dispatcher validates
/// the epoch under the (briefly held) lock, bumps the hit counter and walks
/// away with a cloned `Arc`. Readers then run lock-free off their private
/// copy until the next epoch bump retires it.
pub(crate) struct SharedContextSlot {
    slot: Mutex<Option<CachedContext>>,
    hits: AtomicU64,
}

impl SharedContextSlot {
    pub(crate) fn new() -> Self {
        SharedContextSlot {
            slot: Mutex::new(None),
            hits: AtomicU64::new(0),
        }
    }

    /// Times a worker skipped a snapshot rebuild because the published
    /// snapshot was still valid for its epoch (`queue_stats()`'s
    /// `sched_snapshot_hits`).
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Returns the published snapshot for `epoch`, building and publishing it
    /// via `build` on a miss. The snapshot is tagged with the epoch observed
    /// *before* the build, so a security mutation racing the build leaves a
    /// stale tag (forcing the next caller to rebuild), never a snapshot
    /// staler than its tag.
    fn get_or_build(
        &self,
        epoch: u64,
        build: impl FnOnce() -> Arc<BatchContext>,
    ) -> Arc<BatchContext> {
        let mut slot = self.slot.lock();
        if let Some(cached) = slot.as_ref() {
            if cached.epoch == epoch {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&cached.context);
            }
        }
        let context = build();
        *slot = Some(CachedContext {
            epoch,
            context: Arc::clone(&context),
        });
        context
    }
}

impl std::fmt::Debug for SharedContextSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedContextSlot")
            .field("hits", &self.hits())
            .finish()
    }
}

impl BatchContext {
    /// The live subscription at `position` with its owner's slot and
    /// snapshot; `None` for a tombstone or a removed owner.
    fn entry(&self, position: usize) -> Option<(&Subscription, &Arc<UnitSlot>, &OwnerSnapshot)> {
        let entry = self.subscriptions[position].as_ref()?;
        let (slot, owner) = self.owners[entry.owner as usize].as_ref()?;
        Some((&entry.subscription, slot, owner))
    }

    /// The subscription at a planned position (planning only ever yields
    /// live ones).
    fn subscription(&self, position: u32) -> &Subscription {
        &self.subscriptions[position as usize]
            .as_ref()
            .expect("planned positions are live")
            .subscription
    }

    /// Answers `part_label ≺ owner_input` (or the managed integrity-only
    /// variant), memoising decisions the constant-time fast path cannot make.
    fn flow_allowed(&self, part_label: &Label, owner_input: &Label, managed: bool) -> bool {
        let decide = || {
            if managed {
                // Managed handlers accept any additional confidentiality
                // taint; only the integrity requirement of the owner's input
                // label constrains matching.
                part_label.integrity().is_superset(owner_input.integrity())
            } else {
                part_label.can_flow_to_exact(owner_input)
            }
        };
        if managed {
            if owner_input.integrity().is_empty() {
                return true;
            }
        } else if let Some(answer) = part_label.can_flow_to_fast(owner_input) {
            return answer;
        }
        let mut memo = self.flow_memo.lock();
        if memo.len() >= FLOW_MEMO_CAP {
            memo.clear();
        }
        *memo
            .entry(FlowKey {
                part: part_label.clone(),
                owner: owner_input.clone(),
                managed,
            })
            .or_insert_with(decide)
    }
}

/// Identity of a planned delivery's target, compared by linear scan (batches
/// touch a handful of units; a hash lookup per delivery would cost more than
/// the scan).
#[derive(Clone, Copy, PartialEq, Eq)]
enum TargetKey {
    /// A direct subscription delivers into its owner: keyed by unit id, so
    /// the plan never resolves or clones a slot per delivery.
    Direct(UnitId),
    /// A managed delivery's handler instance: keyed by slot identity (each
    /// event's contamination can resolve to a different instance).
    Managed(usize),
}

/// Reusable buffers of the grouped planner. The plan is two flat passes: bucket
/// every matched delivery by target (first-touch order), then counting-sort the
/// deliveries group-major — stable, so each group keeps batch order, which is
/// the per-unit order the engine promises.
#[derive(Default)]
struct GroupScratch {
    /// Resolved target slots in first-touch order, with their scan key.
    targets: Vec<(TargetKey, Arc<UnitSlot>)>,
    /// Planned deliveries in batch order: `(group, event index, sub index)`.
    planned: Vec<(u32, u32, u32)>,
    /// Counting-sort cursors; after the scatter, `offsets[g]` is group `g`'s
    /// end and `offsets[g - 1]` its start.
    offsets: Vec<usize>,
    /// Deliveries regrouped per target (group-major, batch order within).
    ordered: Vec<(u32, u32)>,
    /// Matched `(event index, sub index)` pairs of the wave being executed.
    pairs: Vec<(u32, u32)>,
    /// Pairs matched by the augmentation overflow re-match (the next wave).
    overflow: Vec<(u32, u32)>,
    /// Per-event candidate set produced by the subscription index.
    candidates: Vec<u32>,
    /// Per-event flags: did a delivery this wave augment the event?
    augmented: Vec<bool>,
    /// Per-event-path candidate worklist (ascending sub indices; grows as
    /// augmentation releases parts that index to further candidates).
    worklist: Vec<u32>,
    /// Candidates indexed by one augmentation-released part, before merging.
    extra: Vec<u32>,
}

impl Dispatcher {
    pub(crate) fn new(core: Arc<EngineCore>) -> Self {
        Dispatcher {
            core,
            preferred_shard: 0,
            context_cache: RefCell::new(None),
            scratch: RefCell::new(GroupScratch::default()),
        }
    }

    pub(crate) fn for_worker(core: Arc<EngineCore>, worker_index: usize) -> Self {
        Dispatcher {
            core,
            preferred_shard: worker_index,
            context_cache: RefCell::new(None),
            scratch: RefCell::new(GroupScratch::default()),
        }
    }

    /// The batch size this dispatcher pops with (configured via
    /// [`EngineBuilder::batch_size`](crate::EngineBuilder::batch_size)).
    fn batch_size(&self) -> usize {
        self.core.config.batch_size.max(1)
    }

    /// Dispatches at most one queued event; returns `true` if one was processed.
    pub fn pump_one(&self) -> EngineResult<bool> {
        match self.core.run_queue.pop(self.preferred_shard) {
            Some(event) => {
                // The guard re-balances the in-flight count even if a unit
                // callback panics through `dispatch`.
                let _guard = self.core.run_queue.complete_guard();
                self.dispatch(event).map(|()| true)
            }
            None => Ok(false),
        }
    }

    /// Pops one batch off the queue and dispatches every event in it, settling
    /// the in-flight accounting with a single update for the whole batch.
    /// Returns the number of events dispatched (zero when the queue was empty).
    ///
    /// A dispatch error does not abandon the rest of the batch — the remaining
    /// events (already popped, already counted in flight) are dispatched too,
    /// and the first error is returned afterwards, so no event is ever lost to
    /// an earlier event's failure.
    fn pump_batch(&self) -> EngineResult<usize> {
        let mut batch = self
            .core
            .run_queue
            .pop_batch(self.preferred_shard, self.batch_size());
        if batch.is_empty() {
            return Ok(0);
        }
        let dispatched = batch.len();
        let _guard = self.core.run_queue.batch_guard(dispatched);
        let context = self.batch_context();
        if self.core.config.grouped_delivery && dispatched > 1 {
            self.dispatch_batch_grouped(&context, &mut batch)?;
            return Ok(dispatched);
        }
        let mut first_error = None;
        for event in batch {
            if let Err(error) = self.dispatch_in(&context, event) {
                first_error.get_or_insert(error);
            }
        }
        match first_error {
            None => Ok(dispatched),
            Some(error) => Err(error),
        }
    }

    /// Dispatches events until the queue drains (including events published during
    /// dispatch). Returns the number of events dispatched.
    ///
    /// With worker threads running concurrently this drains the *queue*, not the
    /// engine: use [`EngineHandle::wait_idle`](crate::EngineHandle::wait_idle) to
    /// wait for in-flight dispatches as well.
    pub fn pump_until_idle(&self) -> EngineResult<usize> {
        let mut dispatched = 0;
        loop {
            match self.pump_batch()? {
                0 => return Ok(dispatched),
                n => dispatched += n,
            }
        }
    }

    /// Keeps pumping for at least `duration` (useful when other threads publish
    /// concurrently); returns the number of events dispatched. While the queue
    /// is empty the thread parks on the run queue's wakeup signal instead of
    /// spinning.
    pub fn pump_for(&self, duration: Duration) -> EngineResult<usize> {
        let deadline = Instant::now() + duration;
        let mut dispatched = 0;
        loop {
            match self.pump_batch()? {
                0 => {}
                n => {
                    dispatched += n;
                    continue;
                }
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            // On a stopped and fully drained engine nothing can ever arrive;
            // waiting out the deadline (or worse, spinning) would be pointless.
            if self.core.run_queue.is_stopping() && self.core.run_queue.is_idle() {
                break;
            }
            self.core.run_queue.park_for_work(deadline - now);
        }
        Ok(dispatched)
    }

    /// Runs the blocking worker loop: dispatch events as they arrive until the
    /// run queue is stopped *and* fully drained. Returns the number of events
    /// this worker dispatched.
    ///
    /// This is the hot path of the multi-core deployment. Every iteration pops
    /// one run straight off the shared sharded queue — from the worker's own
    /// shard, or whole from a sibling when its own is dry — so each dispatched
    /// batch costs a single lock round-trip on the pop side, settles its
    /// in-flight accounting with one update and one wakeup check, and — with
    /// grouped delivery — pays one cell-lock acquisition per target unit
    /// instead of per delivery.
    ///
    /// In an elastic pool this worker also carries its share of the pool
    /// protocol: it parks while it is outside the activation set, and (when
    /// above `workers_min`) trades the untimed idle wait for a bounded grace
    /// after which it volunteers to park back down (LIFO: highest active
    /// index first).
    pub(crate) fn run_worker(self) -> u64 {
        let batch_size = self.batch_size();
        let index = self.preferred_shard;
        let pool = self.core.pool.as_ref().filter(|pool| pool.is_elastic());
        let queue = &self.core.run_queue;
        let mut dispatched = 0;
        // The popped-batch buffer is reused across iterations: a steady-state
        // batch costs no allocation on the pop side.
        let mut batch: Vec<Event> = Vec::new();
        loop {
            batch.clear();
            if let Some(pool) = pool {
                pool.wait_active(index, queue);
            }
            match pool {
                // Elastic workers above the minimum never park untimed while
                // active: they wait with a bounded grace so an idle engine
                // deterministically drains the band back to `workers_min`.
                Some(pool) if index >= pool.min() => {
                    if queue.pop_batch_into(index, batch_size, &mut batch) == 0 {
                        if queue.is_stopping() && queue.is_idle() {
                            return dispatched;
                        }
                        queue.park_for_work(pool.idle_grace());
                        if queue.len() == 0
                            && !queue.is_stopping()
                            && index + 1 == pool.active_target()
                        {
                            // Highest active worker and still nothing to do
                            // after a full grace: park down (LIFO). A racing
                            // scale-up fails the CAS and we simply stay.
                            pool.try_park_down(index);
                        }
                        continue;
                    }
                }
                _ => {
                    if queue.next_batch_into(index, batch_size, &mut batch) == 0 {
                        return dispatched;
                    }
                }
            }
            dispatched += self.dispatch_popped(&mut batch);
        }
    }

    /// Dispatches one already-popped batch inside a worker loop: settles the
    /// batch's in-flight accounting with a RAII guard, shares one epoch-cached
    /// context across the batch, and isolates engine faults so a misbehaving
    /// delivery can never take the worker thread down. Returns the number of
    /// events the batch held.
    fn dispatch_popped(&self, batch: &mut Vec<Event>) -> u64 {
        let popped = batch.len();
        if popped == 0 {
            return 0;
        }
        // The guard keeps the in-flight count balanced for the whole batch
        // even if the per-event catch itself were to unwind: a dead worker
        // would leak its in-flight count and deadlock shutdown for the
        // whole runtime.
        let guard = self.core.run_queue.batch_guard(popped);
        let context = self.batch_context();
        if self.core.config.grouped_delivery && popped > 1 {
            // Unit misbehaviour is caught and counted per delivery inside
            // the group execution; anything that unwinds past it is an
            // engine fault and must not take the worker down.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.dispatch_batch_grouped(&context, batch)
            }));
            if !matches!(outcome, Ok(Ok(()))) {
                self.core
                    .stats
                    .engine_errors
                    .fetch_add(1, Ordering::Relaxed);
            }
        } else {
            for event in batch.drain(..) {
                // Neither an `Err` (engine-level inconsistency) nor a panic
                // in a unit callback may take the worker down — or abandon
                // the rest of the already-popped batch.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.dispatch_in(&context, event)
                }));
                match outcome {
                    Ok(Ok(())) => {}
                    // Unit misbehaviour is already caught and counted per
                    // delivery inside `deliver`; anything that reaches here
                    // is an engine fault and gets its own counter so it
                    // cannot hide among expected unit errors. (In
                    // `workers(0)` mode the same error propagates to the
                    // pump caller instead.)
                    Ok(Err(_)) | Err(_) => {
                        self.core
                            .stats
                            .engine_errors
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        drop(guard);
        popped as u64
    }

    /// Returns the dispatch context for the current batch: the subscription
    /// list and index and, for every owner unit, a snapshot of its security
    /// state (labels, privileges, name) and slot.
    ///
    /// The context is *cached across batches* and keyed on the subscription
    /// snapshot's identity plus the engine's security epoch: while nothing
    /// snapshotted changes — the overwhelmingly common steady state — a
    /// worker pays the snapshot cost once, not once per batch. An input-label
    /// change, a managed owner's output-label or privilege change, unit
    /// registration/removal/swap or (un)subscribe bumps the epoch and the
    /// next batch refreshes. Within one batch dispatch therefore
    /// still observes a consistent owner-state snapshot, and a unit changing
    /// its own labels during a delivery affects visibility filtering from the
    /// *next batch* on, exactly as before — the epoch makes the window end at
    /// the next batch boundary instead of stretching further.
    fn batch_context(&self) -> Arc<BatchContext> {
        // Epoch first: a mutation racing the snapshot build below makes the
        // stored tag stale (so the next batch rebuilds), never the snapshot
        // itself staler than its tag.
        let epoch = self.core.security_epoch.load(Ordering::Acquire);
        if let Some(cached) = self.context_cache.borrow().as_ref() {
            if cached.epoch == epoch {
                return Arc::clone(&cached.context);
            }
        }
        // Private miss: consult the engine-shared slot — a sibling
        // dispatcher may already have refreshed for this epoch — before
        // paying for a refresh.
        let context = self
            .core
            .shared_context
            .get_or_build(epoch, || self.build_context());
        *self.context_cache.borrow_mut() = Some(CachedContext {
            epoch,
            context: Arc::clone(&context),
        });
        context
    }

    /// Builds a fresh batch context (the slow path behind both context
    /// caches): shares the subscription table's list and index, and locks
    /// each owner unit's cell once to snapshot its security state.
    fn build_context(&self) -> Arc<BatchContext> {
        let TableSnapshot {
            entries: subscriptions,
            index,
            owners,
        } = self.core.subscriptions.read().snapshot();
        let owners = owners
            .into_iter()
            .map(|unit| {
                // An owner removed since the table snapshot (or whose
                // registration has not finished) resolves to `None` and its
                // subscriptions are skipped; per-delivery re-checks handle
                // mid-batch removal.
                let slot = self.core.slot(unit?).ok()?;
                let cell = slot.cell.lock();
                let snapshot = OwnerSnapshot {
                    input: cell.state.input_label.clone(),
                    managed: cell.state.owns_managed.then(|| ManagedOwnerState {
                        output: cell.state.output_label.clone(),
                        privileges: cell.state.privileges.clone(),
                        name: cell.state.name.clone(),
                    }),
                };
                drop(cell);
                Some((slot, snapshot))
            })
            .collect();
        if index.is_some() {
            self.core
                .index_stats
                .rebuilds
                .fetch_add(1, Ordering::Relaxed);
        }
        Arc::new(BatchContext {
            subscriptions,
            owners,
            index,
            flow_memo: Mutex::new(HashMap::new()),
        })
    }

    /// Dispatches a single event to every matching subscription (sharing the
    /// epoch-cached context; the batched paths use the same one per batch).
    fn dispatch(&self, event: Event) -> EngineResult<()> {
        self.dispatch_in(&self.batch_context(), event)
    }

    /// Evaluates one subscription's filter against `event` as visible to its
    /// owner (label checks per part, isolation interception charged per part
    /// examined).
    fn subscription_matches(
        &self,
        batch: &BatchContext,
        subscription: &Subscription,
        owner_input: &Label,
        managed: bool,
        event: &Event,
    ) -> bool {
        let mode = self.core.config.mode;
        if mode.checks_labels() {
            let isolation = &self.core.isolation;
            let isolates = mode.isolates();
            let stats = &self.core.stats;
            subscription.filter.matches(event, |part: &Part| {
                // The isolation interception is charged per part *examined*
                // (it models crossing the isolate boundary to read part
                // metadata), so it is never skipped on memo hits.
                if isolates {
                    isolation.intercept();
                }
                let visible = batch.flow_allowed(part.label(), owner_input, managed);
                if !visible {
                    stats.label_rejections.fetch_add(1, Ordering::Relaxed);
                }
                visible
            })
        } else {
            subscription.filter.matches_any_visibility(event)
        }
    }

    /// Resolves the slot a matched subscription delivers into: the owner
    /// itself, or a managed handler instance at the contamination `event`
    /// requires (with label checks disabled the single instance at the owner's
    /// own label is reused). `None` when resolution fails (owner raced
    /// removal, factory error) — the delivery is skipped, as before.
    fn resolve_target(
        &self,
        subscription: &Subscription,
        owner_slot: &Arc<UnitSlot>,
        owner: &OwnerSnapshot,
        event: &Event,
        managed: bool,
    ) -> Option<Arc<UnitSlot>> {
        if !managed {
            return Some(Arc::clone(owner_slot));
        }
        let managed_owner = owner.managed.as_ref()?;
        let required = if self.core.config.mode.checks_labels() {
            owner.input.join(&event.overall_label())
        } else {
            owner.input.clone()
        };
        // The returned `Arc` pins the instance: eviction never retires a
        // handler a pending delivery still holds.
        self.managed_instance(
            subscription,
            &managed_owner.output,
            &managed_owner.privileges,
            &managed_owner.name,
            required,
        )
        .ok()
    }

    /// Dispatches a single event using a prepared batch context — the classic
    /// per-event path: deliveries happen in strict subscription order and each
    /// pays its own cell-lock round-trip.
    ///
    /// With the subscription index on, the walk covers only the index's
    /// candidate set instead of every subscription; turn order among
    /// candidates is still ascending subscription order, and a delivery's
    /// main-path part additions extend the remaining worklist with whatever
    /// later-positioned subscriptions the new parts index to — so the
    /// delivery set is exactly the linear scan's.
    fn dispatch_in(&self, batch: &BatchContext, event: Event) -> EngineResult<()> {
        self.core.stats.dispatched.fetch_add(1, Ordering::Relaxed);
        self.core.cache_event(&event);

        // The event as augmented so far along the main dataflow path.
        let mut current = event;

        let Some(index) = batch.index.as_ref() else {
            for position in 0..batch.subscriptions.len() {
                let Some((subscription, owner_slot, owner)) = batch.entry(position) else {
                    continue;
                };
                let managed = subscription.is_managed();
                if !self.subscription_matches(batch, subscription, &owner.input, managed, &current)
                {
                    continue;
                }
                let Some(target_slot) =
                    self.resolve_target(subscription, owner_slot, owner, &current, managed)
                else {
                    continue;
                };
                let additions = self.deliver(&target_slot, &current, subscription);
                for part in additions {
                    current = current.with_part(part);
                }
            }
            return Ok(());
        };

        // The worklist buffers are taken out of the scratch (not borrowed
        // across delivery calls) so unit callbacks can never observe a held
        // RefCell borrow.
        let (mut worklist, mut extra) = {
            let mut scratch = self.scratch.borrow_mut();
            (
                std::mem::take(&mut scratch.worklist),
                std::mem::take(&mut scratch.extra),
            )
        };
        index.candidates_into(&current, &mut worklist);
        let mut candidate_total = worklist.len() as u64;
        let mut exact_rejects = 0u64;
        let mut position = 0;
        while position < worklist.len() {
            let sub_index = worklist[position] as usize;
            position += 1;
            let Some((subscription, owner_slot, owner)) = batch.entry(sub_index) else {
                continue;
            };
            let managed = subscription.is_managed();
            if !self.subscription_matches(batch, subscription, &owner.input, managed, &current) {
                exact_rejects += 1;
                continue;
            }
            let Some(target_slot) =
                self.resolve_target(subscription, owner_slot, owner, &current, managed)
            else {
                continue;
            };
            let additions = self.deliver(&target_slot, &current, subscription);
            for part in additions {
                // An augmentation-released part can satisfy clauses of
                // subscriptions the original event never indexed to. Their
                // turn, like the linear scan's, is still ahead only for
                // subscriptions positioned after the releasing delivery —
                // earlier ones already had theirs.
                extra.clear();
                index.candidates_for_part(part.name(), part.data(), &mut extra);
                current = current.with_part(part);
                for &candidate in extra.iter() {
                    if candidate as usize <= sub_index {
                        continue;
                    }
                    if let Err(insert_at) = worklist[position..].binary_search(&candidate) {
                        worklist.insert(position + insert_at, candidate);
                        candidate_total += 1;
                    }
                }
            }
        }
        if candidate_total > 0 {
            self.core
                .index_stats
                .candidates
                .fetch_add(candidate_total, Ordering::Relaxed);
        }
        if exact_rejects > 0 {
            self.core
                .index_stats
                .exact_rejects
                .fetch_add(exact_rejects, Ordering::Relaxed);
        }
        let mut scratch = self.scratch.borrow_mut();
        scratch.worklist = worklist;
        scratch.extra = extra;
        Ok(())
    }

    /// Matches one wave of `(event, subscription)` pairs for the grouped
    /// planner: every event index in `events`, in batch order, against the
    /// index's candidate set (or every subscription with the index off),
    /// skipping pairs already planned by an earlier wave. Appends matched
    /// pairs — event-major, ascending subscription order — to `pairs` and
    /// accumulates index telemetry into `(candidate_total, exact_rejects)`.
    #[allow(clippy::too_many_arguments)]
    fn match_wave(
        &self,
        batch: &BatchContext,
        current: &[Event],
        events: impl Iterator<Item = usize>,
        considered: Option<&HashSet<(u32, u32)>>,
        pairs: &mut Vec<(u32, u32)>,
        candidates: &mut Vec<u32>,
        candidate_total: &mut u64,
        exact_rejects: &mut u64,
    ) {
        let already = |event_index: u32, sub_index: u32| {
            considered.is_some_and(|seen| seen.contains(&(event_index, sub_index)))
        };
        for event_index in events {
            let event = &current[event_index];
            match batch.index.as_ref() {
                Some(index) => {
                    index.candidates_into(event, candidates);
                    *candidate_total += candidates.len() as u64;
                    for &sub_index in candidates.iter() {
                        if already(event_index as u32, sub_index) {
                            continue;
                        }
                        let Some((subscription, _, owner)) = batch.entry(sub_index as usize) else {
                            continue;
                        };
                        let managed = subscription.is_managed();
                        if self.subscription_matches(
                            batch,
                            subscription,
                            &owner.input,
                            managed,
                            event,
                        ) {
                            pairs.push((event_index as u32, sub_index));
                        } else {
                            *exact_rejects += 1;
                        }
                    }
                }
                None => {
                    for sub_index in 0..batch.subscriptions.len() {
                        if already(event_index as u32, sub_index as u32) {
                            continue;
                        }
                        let Some((subscription, _, owner)) = batch.entry(sub_index) else {
                            continue;
                        };
                        let managed = subscription.is_managed();
                        if self.subscription_matches(
                            batch,
                            subscription,
                            &owner.input,
                            managed,
                            event,
                        ) {
                            pairs.push((event_index as u32, sub_index as u32));
                        }
                    }
                }
            }
        }
    }

    /// Dispatches a popped batch with its deliveries regrouped by target unit:
    /// the grouped-delivery hot path.
    ///
    /// Three phases, the last two looping per wave. The *match* produces the
    /// batch's `(event, subscription)` pairs in batch order — via the
    /// subscription index's candidate sets, or the linear scan with the index
    /// off; either matcher yields the same pairs. The *plan* buckets the
    /// wave's pairs by resolved target slot, preserving order inside each
    /// bucket — which is exactly batch order from any single unit's point of
    /// view. The *execution* takes each unit's cell lock once and runs that
    /// unit's whole slice under it, folding main-path part additions back into
    /// the batch's events so later groups still receive augmented payloads.
    /// Cascade publications from one group enter the queue as a single
    /// transaction.
    ///
    /// Events a wave augmented are *re-matched*: subscriptions whose filters
    /// name augmentation-released parts are planned into an overflow wave (the
    /// pairs already planned are never replayed), repeating until no delivery
    /// augments anything. The delivery set therefore equals the ungrouped
    /// path's even for augmentation-named filters — such workloads no longer
    /// need `grouped_delivery(false)`. One bounded caveat remains: an
    /// overflow wave runs after the planned groups, so a unit that catches an
    /// *earlier* batch event only via augmentation may see it after a later
    /// planned one — reordering confined to one batch, like every other
    /// grouped-delivery interleaving note.
    fn dispatch_batch_grouped(
        &self,
        batch: &BatchContext,
        current: &mut [Event],
    ) -> EngineResult<()> {
        self.core
            .stats
            .dispatched
            .fetch_add(current.len() as u64, Ordering::Relaxed);
        if self.core.config.event_cache_capacity > 0 {
            for event in current.iter() {
                self.core.cache_event(event);
            }
        }
        let mut scratch = self.scratch.borrow_mut();
        let GroupScratch {
            targets,
            planned,
            offsets,
            ordered,
            pairs,
            overflow,
            candidates,
            augmented,
            ..
        } = &mut *scratch;

        // Match the first wave: every event against the whole subscription
        // population (indexed or linear).
        let mut candidate_total = 0u64;
        let mut exact_rejects = 0u64;
        pairs.clear();
        self.match_wave(
            batch,
            current,
            0..current.len(),
            None,
            pairs,
            candidates,
            &mut candidate_total,
            &mut exact_rejects,
        );

        // Pairs matched by any wave so far; only materialised when a delivery
        // actually augments an event (the overwhelmingly common batch never
        // allocates it).
        let mut considered: Option<HashSet<(u32, u32)>> = None;
        let mut delivered_count = 0u64;
        let mut unit_errors = 0u64;
        while !pairs.is_empty() {
            augmented.clear();
            augmented.resize(current.len(), false);
            targets.clear();
            planned.clear();

            // Plan: bucket the wave's pairs by target, first-touch order.
            // Direct subscriptions key by owner unit (no per-delivery slot
            // resolution or Arc traffic); managed ones resolve per delivery,
            // since each event's contamination can demand a different handler
            // instance.
            for &(event_index, sub_index) in pairs.iter() {
                let Some((subscription, owner_slot, owner)) = batch.entry(sub_index as usize)
                else {
                    continue;
                };
                let managed = subscription.is_managed();
                let group = if managed {
                    let Some(slot) = self.resolve_target(
                        subscription,
                        owner_slot,
                        owner,
                        &current[event_index as usize],
                        managed,
                    ) else {
                        continue;
                    };
                    let key = TargetKey::Managed(Arc::as_ptr(&slot) as usize);
                    match targets.iter().position(|(existing, _)| *existing == key) {
                        Some(group) => group,
                        None => {
                            targets.push((key, slot));
                            targets.len() - 1
                        }
                    }
                } else {
                    let key = TargetKey::Direct(subscription.owner);
                    match targets.iter().position(|(existing, _)| *existing == key) {
                        Some(group) => group,
                        None => {
                            targets.push((key, Arc::clone(owner_slot)));
                            targets.len() - 1
                        }
                    }
                };
                planned.push((group as u32, event_index, sub_index));
            }

            // Stable counting sort of the plan into group-major order: each
            // group's slice keeps batch order, the per-unit order the engine
            // promises.
            offsets.clear();
            offsets.resize(targets.len() + 1, 0);
            for &(group, _, _) in planned.iter() {
                offsets[group as usize + 1] += 1;
            }
            for group in 1..offsets.len() {
                offsets[group] += offsets[group - 1];
            }
            ordered.clear();
            ordered.resize(planned.len(), (0, 0));
            for &(group, event_index, sub_index) in planned.iter() {
                let cursor = &mut offsets[group as usize];
                ordered[*cursor] = (event_index, sub_index);
                *cursor += 1;
            }

            // Execute: one cell-lock acquisition and one delivery-stats update
            // per group; one cascade enqueue transaction per group.
            for (group, (key, slot)) in targets.iter().enumerate() {
                let start = if group == 0 { 0 } else { offsets[group - 1] };
                let end = offsets[group];
                let mut outputs = Vec::new();
                let mut faulted_unit = None;
                // Chase the live slot for this group: a swap racing the plan
                // retires the planned slot only after installing its
                // replacement, so the whole slice forwards — in order, exactly
                // once.
                let mut live = Arc::clone(slot);
                loop {
                    let mut cell = live.cell.lock();
                    if cell.retired {
                        drop(cell);
                        let owner = match key {
                            // Direct groups are keyed by the stable owner id.
                            TargetKey::Direct(unit) => *unit,
                            // Evicted managed handler: its isolate is gone —
                            // skip the slice, exactly like the per-delivery
                            // path does.
                            TargetKey::Managed(_) => break,
                        };
                        match self.forwarded_slot(&live, owner, false) {
                            Some(fresh) => {
                                live = fresh;
                                continue;
                            }
                            None => break,
                        }
                    }
                    if cell.quarantined {
                        // Shed the whole slice loudly, one count per delivery.
                        self.core
                            .faults
                            .quarantine_shed
                            .fetch_add((end - start) as u64, Ordering::Relaxed);
                        break;
                    }
                    let mut faulted = false;
                    for &(event_index, sub_index) in &ordered[start..end] {
                        let event_index = event_index as usize;
                        let subscription = batch.subscription(sub_index);
                        delivered_count += 1;
                        let additions = self.deliver_into_cell(
                            &live,
                            &mut cell,
                            &current[event_index],
                            subscription,
                            &mut outputs,
                            &mut unit_errors,
                            &mut faulted,
                        );
                        // Main-path augmentation: parts released by this
                        // delivery reach every delivery executed after it —
                        // later events in this group immediately, other units'
                        // groups when theirs run, and subscriptions whose
                        // filters only now match via the overflow re-match.
                        if !additions.is_empty() {
                            augmented[event_index] = true;
                            for part in additions {
                                current[event_index] = current[event_index].with_part(part);
                            }
                        }
                    }
                    if faulted {
                        faulted_unit = Some(cell.state.id);
                    }
                    break;
                }
                // One group's cascade publications enter the queue as a single
                // batch: one shard lock, one accounting update, one wakeup
                // check.
                self.core.enqueue_batch(outputs);
                if let Some(unit) = faulted_unit {
                    // Group lock released: the fault action may swap or
                    // re-lock.
                    self.core.handle_unit_fault(unit);
                }
            }

            if !augmented.iter().any(|&flag| flag) {
                break;
            }
            // Overflow: re-match the augmented events only, excluding every
            // pair a wave already planned (delivered, shed or skipped — none
            // replays, mirroring the per-event path's single turn per
            // subscription).
            let seen = considered.get_or_insert_with(HashSet::new);
            seen.extend(pairs.iter().copied());
            overflow.clear();
            let wave_events: Vec<usize> = augmented
                .iter()
                .enumerate()
                .filter_map(|(event_index, &flag)| flag.then_some(event_index))
                .collect();
            self.match_wave(
                batch,
                current,
                wave_events.into_iter(),
                Some(seen),
                overflow,
                candidates,
                &mut candidate_total,
                &mut exact_rejects,
            );
            std::mem::swap(pairs, overflow);
        }
        if delivered_count > 0 {
            self.core
                .stats
                .deliveries
                .fetch_add(delivered_count, Ordering::Relaxed);
        }
        if unit_errors > 0 {
            self.core
                .stats
                .unit_errors
                .fetch_add(unit_errors, Ordering::Relaxed);
        }
        if candidate_total > 0 {
            self.core
                .index_stats
                .candidates
                .fetch_add(candidate_total, Ordering::Relaxed);
        }
        if exact_rejects > 0 {
            self.core
                .index_stats
                .exact_rejects
                .fetch_add(exact_rejects, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Runs one delivery into an **already locked** unit cell — the single
    /// implementation of the engine's delivery semantics, shared by the
    /// per-event path ([`Dispatcher::deliver`], which locks per delivery) and
    /// the grouped path (which holds one lock across a unit's whole slice):
    /// bumps the unit's delivered count, queues into the mailbox in pull mode
    /// (cloning per the security mode), or invokes `on_event` with per-delivery
    /// error/panic isolation. Returns the parts the unit added to the event;
    /// callback failures are tallied into `unit_errors` (callers fold them
    /// into the engine stats at their own granularity).
    #[allow(clippy::too_many_arguments)]
    fn deliver_into_cell(
        &self,
        slot: &Arc<UnitSlot>,
        cell: &mut UnitCell,
        event: &Event,
        subscription: &Subscription,
        outputs: &mut Vec<Event>,
        unit_errors: &mut u64,
        faulted: &mut bool,
    ) -> Vec<Part> {
        let mode = self.core.config.mode;
        cell.state.delivered += 1;
        // Fault-window bookkeeping happens under the cell lock the delivery
        // already holds, so it is exact even under concurrent workers. The
        // window is counted in deliveries (not time), which is what makes
        // fault handling deterministic under test and replay.
        let fault_policy = self.core.config.fault;
        if let Some(policy) = &fault_policy {
            if policy.window > 0 && cell.window_deliveries >= policy.window {
                cell.window_deliveries = 0;
                cell.window_panics = 0;
            }
            cell.window_deliveries += 1;
        }

        if cell.pull_mode {
            let delivered = if mode.clones_events() {
                event.deep_clone()
            } else {
                event.clone()
            };
            cell.mailbox.push_back((delivered, subscription.id));
            slot.mailbox_signal.notify_one();
            return Vec::new();
        }

        let UnitCell {
            ref mut state,
            ref mut instance,
            ..
        } = *cell;
        let deep_copy;
        // `labels+clone` pays a deep copy per delivery; the other modes share
        // the frozen event by reference.
        let delivered: &Event = if mode.clones_events() {
            deep_copy = event.deep_clone();
            &deep_copy
        } else {
            event
        };
        let mut ctx = UnitContext::new(&self.core, state, Some(delivered), outputs, true);
        // Errors *and* panics in unit code are isolated per delivery, so a
        // misbehaving unit cannot rob later subscribers of the same event
        // (nor, with workers, take a dispatcher thread down).
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            instance.on_event(&mut ctx, delivered)
        }));
        if !matches!(outcome, Ok(Ok(()))) {
            *unit_errors += 1;
        }
        if outcome.is_err() {
            // A panic (not a mere `Err` return) counts against the fault
            // budget. The caller trips the policy *after* releasing the cell
            // lock: the auto-swap path re-acquires it.
            self.core.faults.unit_panics.fetch_add(1, Ordering::Relaxed);
            if let Some(policy) = &fault_policy {
                cell.window_panics += 1;
                if cell.window_panics >= policy.max_panics {
                    cell.window_panics = 0;
                    cell.window_deliveries = 0;
                    *faulted = true;
                }
            }
        }
        ctx.finish()
    }

    /// Resolves where a delivery that found its planned slot retired should
    /// go instead. A *swap* installs the replacement slot in the registry
    /// before retiring the old cell, so a direct subscription forwards to the
    /// live slot under the owner's stable unit id — that forwarding is what
    /// keeps exactly-once across a swap racing a dispatch that cached the old
    /// slot Arc (epoch-keyed batch contexts hold slots across batches).
    /// Returns `None` when the delivery should be skipped: managed handlers
    /// (eviction legitimately destroys them; the next event re-resolves a
    /// fresh instance) and truly removed units.
    fn forwarded_slot(
        &self,
        stale: &Arc<UnitSlot>,
        owner: UnitId,
        managed: bool,
    ) -> Option<Arc<UnitSlot>> {
        if managed {
            return None;
        }
        let fresh = self.core.slot(owner).ok()?;
        // Defensive: a registry still mapping to the retired slot means the
        // unit is being removed, not swapped — skip rather than spin.
        (!Arc::ptr_eq(&fresh, stale)).then_some(fresh)
    }

    /// Delivers an event to one unit slot, returning the parts the unit added to the
    /// event (released for subsequent deliveries).
    fn deliver(
        &self,
        slot: &Arc<UnitSlot>,
        event: &Event,
        subscription: &Subscription,
    ) -> Vec<Part> {
        let mut slot = Arc::clone(slot);
        loop {
            let mut cell = slot.cell.lock();
            if cell.retired {
                drop(cell);
                match self.forwarded_slot(&slot, subscription.owner, subscription.is_managed()) {
                    Some(fresh) => {
                        slot = fresh;
                        continue;
                    }
                    None => return Vec::new(),
                }
            }
            if cell.quarantined {
                // Shed loudly: the unit exists but the fault policy took it
                // out of service.
                self.core
                    .faults
                    .quarantine_shed
                    .fetch_add(1, Ordering::Relaxed);
                return Vec::new();
            }
            self.core.stats.deliveries.fetch_add(1, Ordering::Relaxed);
            let mut outputs = Vec::new();
            let mut unit_errors = 0u64;
            let mut faulted = false;
            let unit = cell.state.id;
            let additions = self.deliver_into_cell(
                &slot,
                &mut cell,
                event,
                subscription,
                &mut outputs,
                &mut unit_errors,
                &mut faulted,
            );
            drop(cell);
            if unit_errors > 0 {
                self.core
                    .stats
                    .unit_errors
                    .fetch_add(unit_errors, Ordering::Relaxed);
            }
            // One delivery's cascade publications enter the queue as a single
            // batch: one shard lock, one accounting update, one wakeup check.
            self.core.enqueue_batch(outputs);
            if faulted {
                // Cell lock released above: the fault action may swap (cell →
                // units.write) or quarantine (re-lock the cell).
                self.core.handle_unit_fault(unit);
            }
            return additions;
        }
    }

    /// Returns (creating on demand) the managed handler instance for a subscription
    /// at the given contamination level.
    fn managed_instance(
        &self,
        subscription: &Subscription,
        owner_output: &Label,
        owner_privileges: &defcon_defc::PrivilegeSet,
        owner_name: &str,
        required: Label,
    ) -> EngineResult<Arc<UnitSlot>> {
        let key = (subscription.id, required.clone());
        // Hold the registry lock across lookup *and* creation so that two workers
        // racing on the same contamination cannot each instantiate (and leak) a
        // handler for the same key.
        //
        // Lock order: managed_instances -> units -> (units released) -> cell.
        // Unit callbacks run with their cell locked and may take units.write()
        // (instantiate_unit), so a cell mutex must never be acquired while a
        // units guard is held — see the eviction path below.
        let mut instances = self.core.managed_instances.lock();
        if let Some(existing) = instances.get(&key) {
            if let Ok(slot) = self.core.slot(*existing) {
                return Ok(slot);
            }
        }

        let SubscriptionKind::Managed(factory) = &subscription.kind else {
            unreachable!("managed_instance called for a direct subscription");
        };
        let instance = factory();
        let id = self.core.next_unit_id();
        let isolate = self.core.isolation.create_isolate();
        let spec = UnitSpec::new(format!("{owner_name}::managed"))
            .with_input_label(required)
            .with_output_label(owner_output.clone())
            .with_privileges(owner_privileges);
        let state = UnitState::new(id, spec, isolate);
        self.core
            .memory
            .charge(MemoryCategory::UnitState, state.estimated_size());
        let slot = Arc::new(UnitSlot {
            cell: Mutex::new(UnitCell::new(state, instance)),
            mailbox_signal: parking_lot::Condvar::new(),
        });
        self.core.units.write().insert(id, Arc::clone(&slot));
        // Bound the number of live managed instances: orders protected by
        // per-order tags create one instance per contamination, so without a cap
        // a long run would accumulate unboundedly many handler objects.
        if instances.len() >= self.core.config.managed_instance_cap {
            // Unregister all victims under one short units.write(), collecting
            // their slots; their cell mutexes are only taken after the write
            // guard is gone. Locking a cell while holding units.write() would
            // invert the cell -> units order of in-progress deliveries (whose
            // unit code may call instantiate_unit) and deadlock the workers.
            let mut evicted_slots = Vec::new();
            {
                let mut units = self.core.units.write();
                // Only instances the registry alone references are victims: a
                // dispatcher that resolved one holds a clone until its
                // delivery ends, and with units.write() held nobody can take a
                // new clone, so a count of one cannot rise under us. Pinned
                // instances may hold the registry briefly above the cap.
                let evicted_keys: Vec<_> = instances
                    .iter()
                    .filter(|(_, id)| {
                        units
                            .get(id)
                            .is_none_or(|slot| Arc::strong_count(slot) == 1)
                    })
                    .map(|(key, _)| key.clone())
                    .take(instances.len() / 2 + 1)
                    .collect();
                for evicted_key in evicted_keys {
                    if let Some(evicted_id) = instances.remove(&evicted_key) {
                        if let Some(evicted_slot) = units.remove(&evicted_id) {
                            evicted_slots.push(evicted_slot);
                        }
                    }
                }
            }
            for evicted_slot in evicted_slots {
                let mut cell = evicted_slot.cell.lock();
                // Retired under the cell lock: anything that still reaches this
                // slot skips it instead of running unit code against a
                // destroyed isolate.
                cell.retired = true;
                self.core.isolation.destroy_isolate(cell.state.isolate);
                self.core
                    .memory
                    .release(MemoryCategory::UnitState, cell.state.estimated_size());
            }
        }
        instances.insert(key, id);
        self.core
            .stats
            .managed_instances
            .fetch_add(1, Ordering::Relaxed);
        Ok(slot)
    }
}
