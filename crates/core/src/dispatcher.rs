//! The event dispatcher.
//!
//! §3.2: "An event dispatcher sends events to units that have expressed interest
//! previously. This decoupled communication means that the fact that a publish call
//! has succeeded does not convey any information that might violate DEFC."
//!
//! The dispatcher takes events off the engine's queue (and off its own cascade
//! stack, below) and, for every subscription whose filter matches over the
//! parts *visible to the subscriber*, delivers the event:
//!
//! * **direct** subscriptions invoke the owning unit's `on_event` (or queue into its
//!   mailbox in pull mode);
//! * **managed** subscriptions (§5, `subscribeManaged`) call their factory for
//!   a handler that serves one delivery at the contamination the event
//!   requires: its security state is built on the dispatcher's stack from the
//!   owner's snapshot and dropped when the callback returns, so the owner unit
//!   stays untainted and nothing is registered.
//!
//! Parts added by a unit during a delivery are folded into the event for subsequent
//! deliveries in the same pass — the main-dataflow-path augmentation of §3.1.6.
//! The [`SecurityMode`](crate::SecurityMode) determines whether label checks run
//! and whether events are shared by reference or deep-copied.
//!
//! # The batched hot path
//!
//! Workers pop whole batches (one run-queue lock round-trip, one in-flight
//! accounting update) off the one run queue, and share one owner-state
//! snapshot per batch. Each event of the batch is then dispatched on its own,
//! in batch order, in two halves. [`plan`] walks the event's candidates
//! against the snapshot and writes the matched deliveries, in subscription
//! order, into a reused per-worker worklist; it takes no lock and touches no
//! counter. [`Dispatcher::execute`] walks the plan at every batch size:
//! consecutive entries that are the same unit's direct subscriptions run
//! under a single acquisition of its cell lock, and the plan's tallies are
//! charged once per event. The snapshot itself is cached across batches and
//! keyed on the engine's security epoch, so consecutive batches over an
//! unchanged subscription/label population skip the refresh entirely. The
//! epoch moves only when something the snapshot holds changes — the
//! subscription list, an input label, or a managed owner's output label or
//! privileges — so tag creation and privilege traffic of ordinary units never
//! force a refresh. A refresh costs what it copies: the subscription table's
//! list and index are shared `Arc`s, and owner state is snapshotted once per
//! owner *unit*, not once per subscription.
//!
//! # Cascades and dispatch order
//!
//! The events units publish during a dispatch (*cascades*, including what a
//! unit instantiated by the dispatch publishes from its `init`) do not join
//! the back of the shared queue. When one event's dispatch ends, the events it
//! published go on top of the dispatcher's own cascade stack, and the stack
//! drains before the next event of the popped batch: a tick's match → order
//! → trade chain no longer waits behind the rest of its batch. Stacked events
//! count as in flight, so idleness, shutdown and the dispatched counts
//! include them; and each is dispatched against a context re-validated
//! against the security epoch (one atomic load), so a label or subscription
//! change an ancestor made is seen by its descendants. Only while a worker is
//! parked *and* a dispatch slot is free (the run queue's module docs say who
//! holds one) does a dispatch's block go to the shared queue instead, for the
//! idle worker to take. A dispatching thread always holds a slot, so below
//! two workers nothing spills: a thread dispatching in `wait_idle` in a
//! parked worker's place keeps its cascades on its own stack, in preorder.
//!
//! What one dispatcher promises:
//!
//! * **External events in FIFO order** at pop: the run queue is one FIFO
//!   queue, so runs pop in the order they were queued, whoever pops them.
//! * **Cascades in preorder:** an event is dispatched right after the
//!   dispatch that published it, its own cascades before its next sibling's.
//! * **Per-publisher FIFO for cascades:** a unit's cascades reach every
//!   subscriber in publication order. Where preorder would break this — a
//!   unit re-entered in an earlier sibling's subtree while its older
//!   cascade is still stacked — the newer event goes just below the older
//!   one instead.
//!
//! Not promised: any order between one unit's external publishes and its
//! cascades, and any delivery order across concurrent workers, including
//! cascades spilled to the queue. A cascade that never ends keeps its
//! dispatcher from the queue, so it delays the queued external events instead
//! of interleaving with them.
//!
//! # The subscription index
//!
//! The subscription table keeps an inverted index from part names — and, for
//! string/integer equality and `OneOf` clauses, part values — to the
//! subscriptions whose filters could possibly match, and the batch snapshot
//! shares it. Dispatch looks up each event's parts and runs the exact
//! filter (and flow check) only over the returned candidate set, which is a
//! provable superset of the matches (and, with each subscription keyed by its
//! most selective literal, usually the match set itself): fan-out cost scales
//! with candidates per event instead of total registered subscriptions. The
//! table updates the index under its own write lock on every subscribe,
//! unsubscribe and removal, so a refresh never rebuilds it. The parts a
//! delivery adds (main-path augmentation) are looked up too, and the plan
//! past that delivery is made again against the augmented event, so filters
//! naming augmentation-released parts match when positioned after the
//! delivery that released them.
//!
//! # Shared filters
//!
//! The subscription table hands equal filters one shared allocation, so the
//! walk evaluates each distinct filter once per event, owner input label and
//! rule (direct or managed): later candidates with the same filter pointer,
//! input label identity and rule reuse the verdict from a small per-worker
//! memo. A hit charges the label rejections the evaluation charged, so the
//! accounting is that of evaluating every candidate. The memo is cleared per
//! event and whenever augmentation adds a part. It pays only when candidates
//! of one event share both a filter and an owner input label; otherwise it
//! costs one probe per candidate.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use defcon_defc::Label;
use defcon_events::{Event, Part};
use parking_lot::Mutex;

use crate::context::UnitContext;
use crate::engine::{EngineCore, UnitCell, UnitSlot};
use crate::run_queue::BatchGuard;
use crate::sub_index::{Entries, Entry, SubscriptionIndex, TableSnapshot};
use crate::subscription::{Subscription, SubscriptionKind};
use crate::unit::{UnitId, UnitState};

/// A pump over an engine's run queue.
///
/// Multiple dispatchers over the same engine may run on different threads — that
/// is exactly what [`Engine::start`](crate::Engine::start) does with
/// `workers(n)`: per-unit mutexes serialise deliveries to the same unit while
/// distinct units dispatch distinct events in parallel.
pub(crate) struct Dispatcher {
    core: Arc<EngineCore>,
    /// Batch context reused across consecutive batches while the subscription
    /// snapshot and security epoch are unchanged (see
    /// [`Dispatcher::batch_context`]).
    context_cache: RefCell<Option<CachedContext>>,
    /// Worklist buffers reused across events, so a steady-state dispatch
    /// allocates none.
    scratch: RefCell<Worklist>,
    /// The cascade stack, reused across batches: empty between batches,
    /// taken out of the cell while one dispatches.
    cascades: RefCell<CascadeStack>,
}

/// An event published during dispatch, with the unit that published it
/// (what per-publisher FIFO is kept over).
pub(crate) struct Cascade {
    pub(crate) publisher: UnitId,
    pub(crate) event: Event,
}

/// A dispatcher's cascade stack: the events awaiting dispatch, top last,
/// and how many of them each publisher has, so that placing a block checks
/// per-publisher FIFO in time linear in the block, not in the stack.
#[derive(Default)]
struct CascadeStack {
    events: Vec<Cascade>,
    /// Stacked events per publisher; publishers with none have no entry.
    stacked: HashMap<UnitId, usize>,
}

impl CascadeStack {
    /// Takes the top event off the stack.
    fn pop(&mut self) -> Option<Event> {
        let Cascade { publisher, event } = self.events.pop()?;
        let count = self
            .stacked
            .get_mut(&publisher)
            .expect("a stacked event's publisher is counted");
        *count -= 1;
        if *count == 0 {
            self.stacked.remove(&publisher);
        }
        Some(event)
    }
}

/// A subscription owner's security state as snapshotted for one batch.
///
/// Labels are interned (`Arc`-backed), so the snapshot clones are
/// reference-count bumps. The output label, privileges and name
/// are only needed to run managed handlers, so only owners of a managed
/// subscription snapshot them.
struct OwnerSnapshot {
    input: Label,
    managed: Option<ManagedOwnerState>,
}

/// An owner unit's slot and snapshot; `None` when the owner was removed (or
/// is not registered yet).
type ResolvedOwner = Option<(Arc<UnitSlot>, OwnerSnapshot)>;

/// The owner state a managed delivery runs its handler with: everything but
/// the input label, which the event's contamination raises per delivery.
struct ManagedOwnerState {
    output: Label,
    privileges: defcon_defc::PrivilegeSet,
    /// `"<owner>::managed"`, formatted once per snapshot.
    name: String,
}

/// Dispatch state prepared once per security epoch and shared by batches.
struct BatchContext {
    /// The subscription table's list, shared: registration order by
    /// position, `None` for a removed subscription's tombstone.
    subscriptions: Entries,
    /// Each owner unit's resolved slot and security-state snapshot, by the
    /// owner ordinal of its entries — one per unit, however many
    /// subscriptions it holds.
    owners: Vec<ResolvedOwner>,
    /// The table's inverted index over `subscriptions`, shared: part
    /// name/value → candidate positions, a provable superset of the true
    /// matches. Taken under the same read lock as the list, so the two always
    /// agree.
    index: Arc<SubscriptionIndex>,
}

/// The cache slot of [`Dispatcher::batch_context`]: the snapshot plus the
/// security epoch it is valid for. Subscribe/unsubscribe bump the epoch too,
/// so one `u64` compare covers the whole key.
#[derive(Clone)]
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
    /// The live entry at `position` with its owner's slot and snapshot;
    /// `None` for a tombstone or a removed owner.
    fn entry(&self, position: u32) -> Option<(&Entry, &Arc<UnitSlot>, &OwnerSnapshot)> {
        let entry = self.subscriptions[position as usize].as_ref()?;
        let (slot, owner) = self.owners[entry.owner as usize].as_ref()?;
        Some((entry, slot, owner))
    }
}

/// A filter evaluation remembered for the event as augmented so far, keyed
/// by the shared filter's pointer, the owner input label's identity and the
/// managed rule: together they fix every part check the evaluation makes.
/// `rejected` counts the parts it found invisible, which every evaluation
/// (and every hit) charges to the label rejections.
struct Memo {
    filter: usize,
    owner: usize,
    managed: bool,
    matched: bool,
    rejected: u32,
}

/// Verdicts remembered at once. Equal filters are usually adjacent in the
/// worklist, so a few entries searched linearly catch the repeats.
const MEMO_CAP: usize = 8;

/// What an event's walk charges to the engine's counters besides its
/// candidates (which are the worklist's final length).
#[derive(Clone, Copy, Default)]
struct Tally {
    label_rejections: u64,
    exact_rejects: u64,
}

/// One planned delivery: a matched subscription's position, its owner's
/// ordinal and rule, and the walk's tally up to and including it.
#[derive(Clone, Copy)]
struct Planned {
    position: u32,
    owner: u32,
    managed: bool,
    tally: Tally,
}

/// One event's plan and the buffers it is built in, reused across events
/// so that a steady-state dispatch allocates none.
#[derive(Default)]
struct Worklist {
    /// The event's candidate positions, ascending (grows as augmentation
    /// releases parts that index to further candidates).
    positions: Vec<u32>,
    /// Candidates indexed by one augmentation-released part, before merging.
    extra: Vec<u32>,
    /// The event's filter verdicts; cleared per event and whenever
    /// augmentation adds a part.
    memo: Vec<Memo>,
    /// The matched deliveries, in subscription order.
    plan: Vec<Planned>,
    /// The tally of the whole plan.
    tally: Tally,
}

impl Worklist {
    /// Folds the parts the plan's entry `executed - 1` added into `current`,
    /// in the order they were added, and re-plans what follows it. An
    /// augmentation-released part can satisfy clauses of subscriptions the
    /// original event never indexed to; their turn is still ahead only for
    /// subscriptions positioned after this delivery, so only those join the
    /// worklist. The entries planned past it are dropped with their tallies
    /// and planned again against the augmented event. Called only when a
    /// delivery added something: most add nothing.
    fn augment(
        &mut self,
        batch: &BatchContext,
        checks_labels: bool,
        additions: Vec<Part>,
        executed: usize,
        current: &mut Event,
    ) {
        self.plan.truncate(executed);
        let position = self.plan[executed - 1].position;
        let index = &batch.index;
        for part in additions {
            self.extra.clear();
            index.candidates_for_part(part.name(), part.data(), &mut self.extra);
            for &candidate in &self.extra {
                if candidate <= position {
                    continue;
                }
                if let Err(at) = self.positions.binary_search(&candidate) {
                    self.positions.insert(at, candidate);
                }
            }
            *current = current.with_part(part);
            self.memo.clear();
        }
        plan(batch, checks_labels, current, self);
    }
}

/// Plans `event`'s deliveries into `work.plan`: every index candidate, in
/// ascending position, whose filter matches the parts its owner may see. It
/// reads only the batch context and the event, so it takes no lock and
/// touches no counter; the walk's tallies go into the plan for
/// [`Dispatcher::execute`] to charge. An empty plan starts the event from
/// the index; a non-empty one ends at a delivery that augmented `event`
/// ([`Worklist::augment`]) and is extended past it, from its tally.
///
/// This is the one place a filter is evaluated (the module docs' "Shared
/// filters" describe the memo). A part is visible to a direct
/// subscription's owner when its label can flow to the owner's input label;
/// a managed handler accepts any added confidentiality taint, so only the
/// integrity of the owner's input label constrains a managed match. The
/// evaluation stays inside this loop: as a call of its own it cost
/// `fanout_churn` (500 candidates per event) about 8% of its throughput.
fn plan(batch: &BatchContext, checks_labels: bool, event: &Event, work: &mut Worklist) {
    let (next, mut tally) = match work.plan.last() {
        None => {
            batch.index.candidates_into(event, &mut work.positions);
            work.memo.clear();
            (0, Tally::default())
        }
        Some(last) => {
            let next = work.positions.partition_point(|&at| at <= last.position);
            (next, last.tally)
        }
    };
    for &position in &work.positions[next..] {
        let Some((entry, _, owner)) = batch.entry(position) else {
            continue;
        };
        let subscription = &entry.subscription;
        let managed = subscription.is_managed();
        let input = &owner.input;
        let filter = Arc::as_ptr(&subscription.filter) as usize;
        let identity = input.identity();
        let remembered = work.memo.iter().rev().find(|seen| {
            seen.filter == filter && seen.owner == identity && seen.managed == managed
        });
        let (matched, rejected) = match remembered {
            Some(seen) => (seen.matched, seen.rejected),
            None => {
                let mut rejected = 0;
                let matched = subscription.filter.matches(event, |part: &Part| {
                    let label = part.label();
                    let visible = !checks_labels
                        || if managed {
                            label.integrity().is_superset(input.integrity())
                        } else {
                            label.can_flow_to(input)
                        };
                    rejected += u32::from(!visible);
                    visible
                });
                if work.memo.len() == MEMO_CAP {
                    work.memo.remove(0);
                }
                work.memo.push(Memo {
                    filter,
                    owner: identity,
                    managed,
                    matched,
                    rejected,
                });
                (matched, rejected)
            }
        };
        tally.label_rejections += u64::from(rejected);
        if !matched {
            tally.exact_rejects += 1;
            continue;
        }
        work.plan.push(Planned {
            position,
            owner: entry.owner,
            managed,
            tally,
        });
    }
    work.tally = tally;
}

impl Dispatcher {
    pub(crate) fn new(core: Arc<EngineCore>) -> Self {
        Dispatcher {
            core,
            context_cache: RefCell::new(None),
            scratch: RefCell::new(Worklist::default()),
            cascades: RefCell::default(),
        }
    }

    /// Takes a free dispatch slot and, holding it, pops and dispatches batches
    /// through the workers' batch routine, [`Dispatcher::dispatch_popped`],
    /// until the queue is empty or `deadline` passes. Returns the number of
    /// events dispatched, cascades included: zero when nothing was queued or
    /// every slot was held.
    pub(crate) fn drain(&self, deadline: Option<Instant>) -> u64 {
        let queue = &self.core.run_queue;
        if queue.len() == 0 {
            return 0;
        }
        let Some(_slot) = queue.take_slot() else {
            return 0;
        };
        let batch_size = self.core.config.batch_size;
        let mut batch = Vec::new();
        let mut dispatched = 0;
        while queue.pop_batch_into(batch_size, &mut batch) > 0 {
            dispatched += self.dispatch_popped(&mut batch);
            if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                break;
            }
        }
        dispatched
    }

    /// Runs the blocking worker loop: dispatch events as they arrive until the
    /// run queue is stopped *and* fully drained. Returns the number of events
    /// this worker dispatched, cascades included.
    ///
    /// This is the hot path of the multi-core deployment. Every iteration pops
    /// the oldest run straight off the one run queue, so each dispatched
    /// batch costs a single lock round-trip on the pop side, settles its
    /// in-flight accounting with one update and one wakeup check, and shares
    /// one epoch-cached dispatch context across the batch. The worker keeps
    /// its dispatch slot while it finds work and gives it up when it parks.
    pub(crate) fn run_worker(self) -> u64 {
        let batch_size = self.core.config.batch_size;
        let queue = &self.core.run_queue;
        let mut dispatched = 0;
        // Given back when the worker parks, exits or unwinds.
        let mut slot = None;
        // The popped-batch buffer is reused across iterations: a steady-state
        // batch costs no allocation on the pop side.
        let mut batch: Vec<Event> = Vec::new();
        while queue.next_batch_into(batch_size, &mut batch, &mut slot) > 0 {
            dispatched += self.dispatch_popped(&mut batch);
        }
        dispatched
    }

    /// Dispatches one already-popped batch, for a worker or a manual pump,
    /// with every cascade it publishes: settles the in-flight accounting with
    /// a RAII guard, shares one epoch-cached context across the popped
    /// events, and drains each event's cascades off the stack before the
    /// next popped event. Returns the number of events dispatched, cascades
    /// included.
    fn dispatch_popped(&self, batch: &mut Vec<Event>) -> u64 {
        // The guard keeps the in-flight count balanced for the whole batch
        // even if the per-event catch itself were to unwind: a dead worker
        // would leak its in-flight count and deadlock shutdown for the
        // whole runtime.
        let mut guard = self.core.run_queue.batch_guard(batch.len());
        let snapshot = self.batch_context();
        // Stacked events re-validate the context per event instead, so a
        // change an ancestor made reaches its descendants.
        let mut latest = snapshot.clone();
        let mut stack = std::mem::take(&mut *self.cascades.borrow_mut());
        let mut dispatched = 0;
        for event in batch.drain(..) {
            self.dispatch_caught(&snapshot.context, event, &mut stack, &mut guard);
            dispatched += 1;
            while let Some(event) = stack.pop() {
                if self.core.security_epoch.load(Ordering::Acquire) != latest.epoch {
                    latest = self.batch_context();
                }
                self.dispatch_caught(&latest.context, event, &mut stack, &mut guard);
                dispatched += 1;
            }
        }
        drop(guard);
        *self.cascades.borrow_mut() = stack;
        dispatched
    }

    /// Dispatches one event and places the cascades it published (see
    /// [`Dispatcher::place_cascades`]). Unit misbehaviour is already caught
    /// and counted per delivery inside `deliver_into_cell`; a panic that
    /// unwinds past it is an engine fault. It gets its own counter so it
    /// cannot hide among expected unit errors, and it may neither take the
    /// worker down nor abandon the rest of the batch.
    fn dispatch_caught(
        &self,
        context: &BatchContext,
        event: Event,
        stack: &mut CascadeStack,
        guard: &mut BatchGuard<'_>,
    ) {
        let held = stack.events.len();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.dispatch_in(context, event, &mut stack.events)
        }));
        if outcome.is_err() {
            self.core
                .stats
                .engine_errors
                .fetch_add(1, Ordering::Relaxed);
        }
        self.place_cascades(stack, held, guard);
    }

    /// Places the block one dispatch appended to the stack above `held`, in
    /// publication order. While a worker is parked and a dispatch slot is
    /// free, the block goes to the shared queue, where that worker can take
    /// it. Otherwise it stays on the stack, counted in flight,
    /// first-published on top (preorder) — except the events of a publisher
    /// that still has an older event stacked, which go just below that one
    /// (per-publisher FIFO).
    fn place_cascades(&self, stack: &mut CascadeStack, held: usize, guard: &mut BatchGuard<'_>) {
        let published = stack.events.len() - held;
        if published == 0 {
            return;
        }
        // The dispatching thread holds a slot, so at `workers(0)` or `(1)`
        // none is free and nothing spills: a caller helping in `wait_idle`
        // keeps its cascades on its own stack.
        if !guard.hold_unless_spill(published) {
            let block = stack.events.drain(held..).map(|cascade| cascade.event);
            self.core.enqueue_batch(block.collect());
            return;
        }
        self.core
            .stats
            .published
            .fetch_add(published as u64, Ordering::Relaxed);
        let CascadeStack { events, stacked } = stack;
        // Read before this block is counted: does the publisher have an
        // older event stacked?
        let waits = |cascade: &Cascade| stacked.contains_key(&cascade.publisher);
        if !events[held..].iter().any(waits) {
            for cascade in &events[held..] {
                *stacked.entry(cascade.publisher).or_default() += 1;
            }
            events[held..].reverse();
            return;
        }
        let fresh = events.split_off(held);
        let (behind, ahead): (Vec<_>, Vec<_>) = fresh.into_iter().partition(waits);
        for cascade in behind.iter().chain(&ahead) {
            *stacked.entry(cascade.publisher).or_default() += 1;
        }
        for cascade in behind {
            // In publication order, each below every stacked event of its
            // publisher, older ones and those placed just before it.
            let at = events
                .iter()
                .position(|o| o.publisher == cascade.publisher)
                .expect("partitioned as having a stacked event of its publisher");
            events.insert(at, cascade);
        }
        events.extend(ahead.into_iter().rev());
    }

    /// Returns the dispatch context for the current batch: the subscription
    /// list and index and, for every owner unit, a snapshot of its security
    /// state (input label; for managed owners also output label, privileges
    /// and handler name) and slot.
    ///
    /// The context is *cached across batches* and keyed on the subscription
    /// snapshot's identity plus the engine's security epoch: while nothing
    /// snapshotted changes — the overwhelmingly common steady state — a
    /// worker pays the snapshot cost once, not once per batch. An input-label
    /// change, a managed owner's output-label or privilege change, unit
    /// registration/removal/swap or (un)subscribe bumps the epoch and the
    /// next batch refreshes. The popped events of one batch therefore
    /// observe a consistent owner-state snapshot, and a unit changing its own
    /// labels during a delivery affects their visibility filtering from the
    /// *next batch* on. Stacked cascades call this again whenever the epoch
    /// moved, so they see such a change at once.
    fn batch_context(&self) -> CachedContext {
        // Epoch first: a mutation racing the snapshot build below makes the
        // stored tag stale (so the next batch rebuilds), never the snapshot
        // itself staler than its tag.
        let epoch = self.core.security_epoch.load(Ordering::Acquire);
        if let Some(cached) = self.context_cache.borrow().as_ref() {
            if cached.epoch == epoch {
                return cached.clone();
            }
        }
        // Private miss: consult the engine-shared slot — a sibling
        // dispatcher may already have refreshed for this epoch — before
        // paying for a refresh.
        let context = self
            .core
            .shared_context
            .get_or_build(epoch, || self.build_context());
        let cached = CachedContext { epoch, context };
        *self.context_cache.borrow_mut() = Some(cached.clone());
        cached
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
                        name: format!("{}::managed", cell.state.name),
                    }),
                };
                drop(cell);
                Some((slot, snapshot))
            })
            .collect();
        self.core
            .index_stats
            .rebuilds
            .fetch_add(1, Ordering::Relaxed);
        Arc::new(BatchContext {
            subscriptions,
            owners,
            index,
        })
    }

    /// Dispatches one event to every matching subscription: the engine's one
    /// delivery path, at every batch size. It [`plan`]s the event's
    /// deliveries, then [`Dispatcher::execute`]s the plan.
    fn dispatch_in(&self, batch: &BatchContext, event: Event, published: &mut Vec<Cascade>) {
        self.core.stats.dispatched.fetch_add(1, Ordering::Relaxed);
        // The worklist is taken out of the scratch (not borrowed across
        // delivery calls) so unit callbacks can never observe a held RefCell
        // borrow.
        let mut work = std::mem::take(&mut *self.scratch.borrow_mut());
        work.plan.clear();
        let checks_labels = self.core.config.mode.checks_labels();
        plan(batch, checks_labels, &event, &mut work);
        self.execute(batch, checks_labels, event, &mut work, published);
        *self.scratch.borrow_mut() = work;
    }

    /// Delivers `event` along `work`'s plan, in strict subscription order,
    /// then charges the walk's tallies once. A delivery's main-path part
    /// additions reach only the subscriptions positioned after it (§3.1.6):
    /// the plan past it is re-planned against the augmented event. The
    /// delivery set is that of a linear walk over every subscription.
    ///
    /// Consecutive entries that are the same owner's direct subscriptions
    /// form a *run*: the owner's cell stays locked for all of them. A run
    /// ends at a different owner, a managed entry, the end of the plan or a
    /// delivery that trips the fault policy, and then settles its delivery
    /// counts and fault handling once. Its deliveries append what they
    /// publish to `published`, each tagged with the publishing unit (a unit
    /// they instantiate tags its `init`'s events with its own id). A managed
    /// delivery is no run: it locks no cell, and goes through
    /// [`Dispatcher::deliver_managed`], kept out of line so that the direct
    /// path stays as small as it was.
    fn execute(
        &self,
        batch: &BatchContext,
        checks_labels: bool,
        event: Event,
        work: &mut Worklist,
        published: &mut Vec<Cascade>,
    ) {
        let planned = |entry: &Planned| batch.entry(entry.position).expect("planned as live");
        // The event as augmented so far along the main dataflow path.
        let mut current = event;
        let mut at = 0;
        'plan: while let Some(&head) = work.plan.get(at) {
            at += 1;
            let (entry, owner_slot, owner) = planned(&head);
            let mut subscription = &*entry.subscription;
            if head.managed {
                let additions = self.deliver_managed(subscription, owner, &current, published);
                if !additions.is_empty() {
                    work.augment(batch, checks_labels, additions, at, &mut current);
                }
                continue;
            }
            // The head of the run: chase a swap's replacement, which a swap
            // installs before it retires the old cell, so the run forwards
            // exactly once. A removed owner's deliveries are skipped.
            let mut slot = Arc::clone(owner_slot);
            let mut cell = slot.cell.lock();
            while cell.retired {
                drop(cell);
                let Ok(fresh) = self.core.forwarded_slot(&slot, subscription.owner) else {
                    continue 'plan;
                };
                slot = fresh;
                cell = slot.cell.lock();
            }
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
            let mut delivered = 0u64;
            let mut unit_errors = 0u64;
            let mut faulted = false;
            loop {
                delivered += 1;
                let additions = self.deliver_into_cell(
                    &slot,
                    &mut cell,
                    &current,
                    subscription,
                    published,
                    &mut unit_errors,
                    &mut faulted,
                );
                // Most deliveries add nothing: skip the fold, and the empty
                // list was never allocated.
                if !additions.is_empty() {
                    work.augment(batch, checks_labels, additions, at, &mut current);
                }
                match work.plan.get(at) {
                    Some(next) if !faulted && !next.managed && next.owner == head.owner => {
                        subscription = &planned(next).0.subscription;
                        at += 1;
                    }
                    _ => break,
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
            if faulted {
                // Cell lock released above: the fault action may swap (cell →
                // units.write) or quarantine (re-lock the cell). The owner's
                // next planned delivery opens a new run and sees either.
                self.core.handle_unit_fault(unit);
            }
        }
        let (stats, index) = (&self.core.stats, &self.core.index_stats);
        let candidates = work.positions.len() as u64;
        for (counter, tally) in [
            (&stats.label_rejections, work.tally.label_rejections),
            (&index.candidates, candidates),
            (&index.exact_rejects, work.tally.exact_rejects),
        ] {
            if tally > 0 {
                counter.fetch_add(tally, Ordering::Relaxed);
            }
        }
    }

    /// Runs one managed delivery (§5, `subscribeManaged`): the subscription's
    /// factory builds a handler, which serves this one event and is dropped.
    ///
    /// The handler's security state lives on the stack: the owner's input label
    /// joined with the event's contamination (the owner's input label when
    /// label checks are off), and the owner's output label, privileges and unit
    /// id from the batch snapshot. So what it publishes counts as the owner's
    /// for per-publisher FIFO, and nothing it does to its labels or privileges
    /// outlives the delivery or reaches the owner. The delivery registers no
    /// unit and charges no memory, and it holds no lock while the handler runs:
    /// a handler's `instantiate_unit` takes `units.write()` with no cell
    /// locked. Errors and panics in the handler are counted like any unit's;
    /// there is no instance for the fault policy to swap or quarantine. A
    /// panicking factory is an engine fault. Returns the parts the handler
    /// added to the event.
    #[inline(never)]
    fn deliver_managed(
        &self,
        subscription: &Subscription,
        owner: &OwnerSnapshot,
        event: &Event,
        outputs: &mut Vec<Cascade>,
    ) -> Vec<Part> {
        let (Some(template), SubscriptionKind::Managed(factory)) =
            (&owner.managed, &subscription.kind)
        else {
            return Vec::new();
        };
        let mode = self.core.config.mode;
        let mut handler = factory();
        let mut state = UnitState {
            id: subscription.owner,
            name: template.name.clone(),
            input_label: if mode.checks_labels() {
                owner.input.join(&event.overall_label())
            } else {
                owner.input.clone()
            },
            output_label: template.output.clone(),
            privileges: template.privileges.clone(),
            delivered: 1,
            version: 1,
            owns_managed: false,
        };
        let deep_copy;
        let delivered: &Event = if mode.clones_events() {
            deep_copy = event.deep_clone();
            &deep_copy
        } else {
            event
        };
        let mut ctx = UnitContext::new(&self.core, &mut state, Some(delivered), outputs, true)
            .serving_managed();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handler.on_event(&mut ctx, delivered)
        }));
        let stats = &self.core.stats;
        stats.deliveries.fetch_add(1, Ordering::Relaxed);
        stats.managed_deliveries.fetch_add(1, Ordering::Relaxed);
        if !matches!(outcome, Ok(Ok(()))) {
            stats.unit_errors.fetch_add(1, Ordering::Relaxed);
        }
        if outcome.is_err() {
            self.core.faults.unit_panics.fetch_add(1, Ordering::Relaxed);
        }
        ctx.finish()
    }

    /// Runs one delivery into an **already locked** unit cell — the single
    /// implementation of the engine's delivery semantics, called by
    /// [`Dispatcher::execute`] once per delivery of a run, under the one
    /// lock the run holds: bumps the unit's delivered count, queues into the
    /// mailbox in pull mode (cloning per the security mode), or invokes
    /// `on_event` with per-delivery error/panic isolation. Returns the parts
    /// the unit added to the event, in the order added; callback failures are
    /// tallied into `unit_errors` and a fault-policy trip sets `faulted` (the
    /// run folds both into the engine once it releases the lock).
    ///
    /// A delivery builds nothing it does not use: the [`UnitContext`] is
    /// borrowed pointers and empty lists, which allocate only when the
    /// callback creates a draft or adds a part, so a callback that does
    /// neither costs its own code and the label bookkeeping above.
    #[allow(clippy::too_many_arguments)]
    fn deliver_into_cell(
        &self,
        slot: &Arc<UnitSlot>,
        cell: &mut UnitCell,
        event: &Event,
        subscription: &Subscription,
        outputs: &mut Vec<Cascade>,
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
        // the immutable event by reference.
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
}
