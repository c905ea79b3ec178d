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
//! when their own is dry — and share one owner-state snapshot per batch. Each
//! event of the batch is then dispatched on its own, in batch order, by the
//! one delivery loop: deliveries follow strict subscription order at every
//! batch size, and consecutive deliveries to the same unit's direct
//! subscriptions run under a single acquisition of its cell lock. The
//! snapshot itself is cached across batches and keyed on the engine's
//! security epoch, so consecutive batches over an unchanged
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
//! default), the subscription table keeps an inverted index from part names
//! — and, for string/integer equality and `OneOf` clauses, part values — to
//! the subscriptions whose filters could possibly match, and the batch
//! snapshot shares it. Dispatch looks up each event's parts and runs the exact
//! filter (and flow check) only over the returned candidate set, which is a
//! provable superset of the matches (and, with each subscription keyed by its
//! most selective literal, usually the match set itself): fan-out cost scales
//! with candidates per event instead of total registered subscriptions. The
//! table updates the index under its own write lock on every subscribe,
//! unsubscribe and removal, so a refresh never rebuilds it. Parts released by
//! main-path augmentation are looked up per delivery, so filters naming
//! augmentation-released parts match under either matcher.

use std::cell::RefCell;
use std::collections::HashMap;
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
    /// between workers; any dispatcher may steal from any shard): the worker's
    /// index, 0 for a manual pump.
    preferred_shard: usize,
    /// Batch context reused across consecutive batches while the subscription
    /// snapshot and security epoch are unchanged (see
    /// [`Dispatcher::batch_context`]).
    context_cache: RefCell<Option<CachedContext>>,
    /// Worklist buffers reused across events, so a steady-state dispatch
    /// allocates none.
    scratch: RefCell<Worklist>,
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
    /// (memo included). Behind a mutex because the context is *shared*:
    /// [`SharedContextSlot::get_or_build`] hands one `Arc<BatchContext>` to
    /// every worker of an epoch, so all workers take this one lock on each
    /// memo lookup. It is a suspect for cross-worker contention that no
    /// benchmark cell measures yet.
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

/// Reusable buffers of [`Dispatcher::dispatch_in`].
#[derive(Default)]
struct Worklist {
    /// The event's candidate positions, ascending (grows as augmentation
    /// releases parts that index to further candidates).
    positions: Vec<u32>,
    /// Candidates indexed by one augmentation-released part, before merging.
    extra: Vec<u32>,
}

impl Dispatcher {
    pub(crate) fn new(core: Arc<EngineCore>) -> Self {
        Dispatcher {
            core,
            preferred_shard: 0,
            context_cache: RefCell::new(None),
            scratch: RefCell::new(Worklist::default()),
        }
    }

    pub(crate) fn for_worker(core: Arc<EngineCore>, worker_index: usize) -> Self {
        Dispatcher {
            core,
            preferred_shard: worker_index,
            context_cache: RefCell::new(None),
            scratch: RefCell::new(Worklist::default()),
        }
    }

    /// The batch size this dispatcher pops with (configured via
    /// [`EngineBuilder::batch_size`](crate::EngineBuilder::batch_size)).
    fn batch_size(&self) -> usize {
        self.core.config.batch_size.max(1)
    }

    /// Pops one batch off the queue and dispatches every event in it, settling
    /// the in-flight accounting with a single update for the whole batch.
    /// Returns the number of events dispatched (zero when the queue was empty).
    fn pump_batch(&self) -> usize {
        let batch = self
            .core
            .run_queue
            .pop_batch(self.preferred_shard, self.batch_size());
        if batch.is_empty() {
            return 0;
        }
        let dispatched = batch.len();
        let _guard = self.core.run_queue.batch_guard(dispatched);
        let context = self.batch_context();
        for event in batch {
            self.dispatch_in(&context, event);
        }
        dispatched
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
            match self.pump_batch() {
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
            match self.pump_batch() {
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
    /// in-flight accounting with one update and one wakeup check, and shares
    /// one epoch-cached dispatch context across the batch.
    pub(crate) fn run_worker(self) -> u64 {
        let batch_size = self.batch_size();
        let queue = &self.core.run_queue;
        let mut dispatched = 0;
        // The popped-batch buffer is reused across iterations: a steady-state
        // batch costs no allocation on the pop side.
        let mut batch: Vec<Event> = Vec::new();
        while queue.next_batch_into(self.preferred_shard, batch_size, &mut batch) > 0 {
            dispatched += self.dispatch_popped(&mut batch);
        }
        dispatched
    }

    /// Dispatches one already-popped batch inside a worker loop: settles the
    /// batch's in-flight accounting with a RAII guard, shares one epoch-cached
    /// context across the batch, and isolates engine faults so a misbehaving
    /// delivery can never take the worker thread down. Returns the number of
    /// events the batch held.
    fn dispatch_popped(&self, batch: &mut Vec<Event>) -> u64 {
        let popped = batch.len();
        // The guard keeps the in-flight count balanced for the whole batch
        // even if the per-event catch itself were to unwind: a dead worker
        // would leak its in-flight count and deadlock shutdown for the
        // whole runtime.
        let guard = self.core.run_queue.batch_guard(popped);
        let context = self.batch_context();
        for event in batch.drain(..) {
            // Unit misbehaviour is already caught and counted per delivery
            // inside `deliver_into_cell`; a panic that unwinds past it is an
            // engine fault. It gets its own counter so it cannot hide among
            // expected unit errors, and it may neither take the worker down
            // nor abandon the rest of the already-popped batch.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.dispatch_in(&context, event)
            }));
            if outcome.is_err() {
                self.core
                    .stats
                    .engine_errors
                    .fetch_add(1, Ordering::Relaxed);
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
    /// removal, factory error) — the delivery is skipped.
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

    /// Dispatches one event to every matching subscription: the engine's one
    /// delivery path, at every batch size.
    ///
    /// The walk is a worklist of subscription positions in ascending order —
    /// the index's candidate set for the event, or every live position with
    /// the index off — so deliveries happen in strict subscription order. A
    /// delivery's main-path part additions reach only the subscriptions
    /// positioned after it (§3.1.6): with the index on, the positions the
    /// released parts index to join the rest of the worklist; with it off,
    /// every later position is there already. Either way the delivery set is
    /// the linear scan's.
    ///
    /// A matched direct subscription opens a *run*: its owner's cell stays
    /// locked while the next candidates are the same owner's direct
    /// subscriptions, each matched against the event as augmented so far. A
    /// run ends at a different owner, a managed subscription, the end of the
    /// worklist or a delivery that trips the fault policy, and then settles its
    /// delivery counts, cascade outputs and fault handling once. A managed
    /// delivery is a run of one: resolving its handler instance takes the
    /// `managed_instances → units` locks, and eviction locks victim cells, so
    /// it must never happen under a cell lock.
    fn dispatch_in(&self, batch: &BatchContext, event: Event) {
        self.core.stats.dispatched.fetch_add(1, Ordering::Relaxed);

        // The event as augmented so far along the main dataflow path.
        let mut current = event;

        // The worklist buffers are taken out of the scratch (not borrowed
        // across delivery calls) so unit callbacks can never observe a held
        // RefCell borrow.
        let Worklist {
            positions: mut worklist,
            mut extra,
        } = std::mem::take(&mut *self.scratch.borrow_mut());
        let index = batch.index.as_deref();
        match index {
            Some(index) => index.candidates_into(&current, &mut worklist),
            None => {
                worklist.clear();
                worklist.extend(
                    (0..batch.subscriptions.len() as u32)
                        .filter(|&position| batch.subscriptions[position as usize].is_some()),
                );
            }
        }
        let mut candidate_total = worklist.len() as u64;
        let mut exact_rejects = 0u64;
        let mut next = 0;
        while next < worklist.len() {
            let position = worklist[next] as usize;
            next += 1;
            let Some((subscription, owner_slot, owner)) = batch.entry(position) else {
                continue;
            };
            let managed = subscription.is_managed();
            if !self.subscription_matches(batch, subscription, &owner.input, managed, &current) {
                exact_rejects += 1;
                continue;
            }
            let Some(mut slot) =
                self.resolve_target(subscription, owner_slot, owner, &current, managed)
            else {
                continue;
            };
            // The head of the run: chase a swap's replacement, which a swap
            // installs before it retires the old cell, so the run forwards
            // exactly once.
            let cell = loop {
                let cell = slot.cell.lock();
                if !cell.retired {
                    break Some(cell);
                }
                drop(cell);
                match self.forwarded_slot(&slot, subscription.owner, managed) {
                    Some(fresh) => slot = fresh,
                    None => break None,
                }
            };
            let Some(mut cell) = cell else {
                continue;
            };
            if cell.quarantined {
                // Shed loudly: the unit exists but the fault policy took it
                // out of service.
                self.core
                    .faults
                    .quarantine_shed
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let unit = cell.state.id;
            let mut outputs = Vec::new();
            let mut delivered = 0u64;
            let mut unit_errors = 0u64;
            let mut faulted = false;
            let mut run = Some((position, subscription));
            while let Some((position, subscription)) = run.take() {
                delivered += 1;
                let additions = self.deliver_into_cell(
                    &slot,
                    &mut cell,
                    &current,
                    subscription,
                    &mut outputs,
                    &mut unit_errors,
                    &mut faulted,
                );
                for part in additions {
                    // An augmentation-released part can satisfy clauses of
                    // subscriptions the original event never indexed to.
                    // Their turn, like the linear scan's, is still ahead only
                    // for subscriptions positioned after this delivery.
                    if let Some(index) = index {
                        extra.clear();
                        index.candidates_for_part(part.name(), part.data(), &mut extra);
                        for &candidate in extra.iter() {
                            if candidate as usize <= position {
                                continue;
                            }
                            if let Err(at) = worklist[next..].binary_search(&candidate) {
                                worklist.insert(next + at, candidate);
                                candidate_total += 1;
                            }
                        }
                    }
                    current = current.with_part(part);
                }
                if managed || faulted {
                    break;
                }
                // Extend the run over the owner's next direct candidates.
                while let Some(&candidate) = worklist.get(next) {
                    let Some((following, _, following_owner)) = batch.entry(candidate as usize)
                    else {
                        break;
                    };
                    if following.owner != subscription.owner || following.is_managed() {
                        break;
                    }
                    next += 1;
                    let input = &following_owner.input;
                    if self.subscription_matches(batch, following, input, false, &current) {
                        run = Some((candidate as usize, following));
                        break;
                    }
                    exact_rejects += 1;
                }
            }
            drop(cell);
            self.core
                .stats
                .deliveries
                .fetch_add(delivered, Ordering::Relaxed);
            if unit_errors > 0 {
                self.core
                    .stats
                    .unit_errors
                    .fetch_add(unit_errors, Ordering::Relaxed);
            }
            // One run's cascade publications enter the queue as a single
            // batch: one shard lock, one accounting update, one wakeup check.
            self.core.enqueue_batch(outputs);
            if faulted {
                // Cell lock released above: the fault action may swap (cell →
                // units.write) or quarantine (re-lock the cell). The owner's
                // next candidate opens a new run and sees either.
                self.core.handle_unit_fault(unit);
            }
        }
        // Index telemetry: a linear walk consults no index, so reports none.
        if index.is_some() && candidate_total > 0 {
            self.core
                .index_stats
                .candidates
                .fetch_add(candidate_total, Ordering::Relaxed);
        }
        if index.is_some() && exact_rejects > 0 {
            self.core
                .index_stats
                .exact_rejects
                .fetch_add(exact_rejects, Ordering::Relaxed);
        }
        *self.scratch.borrow_mut() = Worklist {
            positions: worklist,
            extra,
        };
    }

    /// Runs one delivery into an **already locked** unit cell — the single
    /// implementation of the engine's delivery semantics, called by
    /// [`Dispatcher::dispatch_in`] once per delivery of a run, under the one
    /// lock the run holds: bumps the unit's delivered count, queues into the
    /// mailbox in pull mode (cloning per the security mode), or invokes
    /// `on_event` with per-delivery error/panic isolation. Returns the parts
    /// the unit added to the event; callback failures are tallied into
    /// `unit_errors` and a fault-policy trip sets `faulted` (the run folds
    /// both into the engine once it releases the lock).
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

    /// Resolves where a delivery that found its target slot retired should
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
