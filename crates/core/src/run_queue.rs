//! The engine's sharded run queue.
//!
//! Published-but-not-yet-dispatched events live here. The queue is split into
//! shards so that concurrent dispatcher workers (§6's multi-core configuration)
//! do not all contend on one mutex: producers enqueue round-robin, and each
//! worker prefers "its" shard, stealing from the others when it runs dry.
//! Ordering is therefore FIFO per shard, not globally — the engine has never
//! promised a global dispatch order across independent events, only that each
//! event's deliveries happen in subscription order and that deliveries to one
//! unit are serialised (by the per-unit mutex, not by the queue).
//!
//! Consumers pop in *batches*: [`RunQueue::pop_batch`] drains a whole run of up
//! to `max` events from one shard under a single lock acquisition (stealing a
//! run, not one item, when the preferred shard is dry — the engine's only
//! work-stealing mechanism, counted as `queue_stats().sched_steals`), and the
//! paired [`BatchGuard`] settles the in-flight accounting for the entire batch
//! with one atomic update and one wakeup check. A batch size of 1 degenerates to
//! the classic one-event-per-lock behaviour.
//!
//! The queue also tracks how many events are *in flight* (popped but whose
//! dispatch has not finished), which is what makes [`RunQueue::wait_idle`] and
//! graceful shutdown deterministic: a drained queue with an in-flight dispatch
//! may still grow again, so "idle" means empty *and* nothing in flight.
//!
//! Blocked consumers park on a condvar and rely purely on paired signalling —
//! every insert either observes a registered waiter (and notifies) or the
//! waiter's pre-sleep recheck observes the insert; there is no periodic-wakeup
//! safety net, so an idle engine's workers sleep silently instead of polling.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use defcon_events::Event;
use parking_lot::{Condvar, Mutex};

/// A multi-producer multi-consumer queue of events awaiting dispatch.
pub(crate) struct RunQueue {
    shards: Vec<Mutex<VecDeque<Event>>>,
    /// Events queued across all shards.
    len: AtomicUsize,
    /// Events accepted but not yet *completed* (queued + in flight). Idleness
    /// is this single counter reaching zero — reading `len` and an in-flight
    /// count as a pair would admit a race where a cascade publication between
    /// the two loads makes a busy queue look idle.
    pending: AtomicUsize,
    /// Set by [`RunQueue::stop`]; workers exit once the queue is fully idle.
    stopping: AtomicBool,
    /// Round-robin cursor for enqueue shard selection.
    next_shard: AtomicUsize,
    /// Runs [`RunQueue::pop_batch_into`] took from a shard other than the
    /// caller's preferred one.
    steals: AtomicU64,
    /// Consumers currently parked (or about to park) on `work_signal`; lets the
    /// hot internal push skip the signal lock when nobody is listening.
    waiters: AtomicUsize,
    /// Guards the wakeup condvars (the counters themselves are atomics).
    signal_lock: Mutex<()>,
    /// Signalled when work arrives or the queue starts stopping.
    work_signal: Condvar,
    /// Signalled when the queue becomes fully idle.
    idle_signal: Condvar,
    /// Blocked admitters (ingress publishers waiting for queued depth to
    /// drop) currently parked on `depth_signal`; lets the hot pop path skip
    /// the signal lock when nobody is watching depth.
    depth_waiters: AtomicUsize,
    /// Signalled when queued depth drops (events popped for dispatch) — the
    /// drain-side sampling hook bounded admission parks on.
    depth_signal: Condvar,
}

impl RunQueue {
    /// Creates a queue with `shards` internal shards (at least one).
    pub(crate) fn new(shards: usize) -> Self {
        RunQueue {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            len: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            stopping: AtomicBool::new(false),
            next_shard: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            waiters: AtomicUsize::new(0),
            signal_lock: Mutex::new(()),
            work_signal: Condvar::new(),
            idle_signal: Condvar::new(),
            depth_waiters: AtomicUsize::new(0),
            depth_signal: Condvar::new(),
        }
    }

    /// Number of events currently queued (not counting in-flight dispatches).
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Number of internal shards (clamped to the worker count at construction:
    /// one shard per dispatcher, at least one).
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Events accepted but not yet completed (queued plus in flight) — the
    /// counter idleness is defined over.
    pub(crate) fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// Whole runs popped from a sibling of the caller's preferred shard
    /// (`queue_stats().sched_steals`).
    pub(crate) fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Samples every shard's current depth. Each read takes that shard's lock
    /// briefly; intended for telemetry ([`EngineHandle::queue_stats`]
    /// (crate::EngineHandle::queue_stats)) and diagnostics, not for hot paths —
    /// the hot-path depth signal is the lock-free [`RunQueue::len`].
    pub(crate) fn shard_depths(&self) -> Vec<usize> {
        self.shards.iter().map(|shard| shard.lock().len()).collect()
    }

    /// Returns `true` if nothing is queued and nothing is being dispatched.
    pub(crate) fn is_idle(&self) -> bool {
        self.pending.load(Ordering::SeqCst) == 0
    }

    /// Enqueues an event from *inside* dispatch (main-path cascades). Always
    /// accepted: the publishing dispatch is in flight, so stopping workers
    /// cannot have exited yet and the event is guaranteed to drain. This is the
    /// hot path — it touches only its shard, never the global signal lock,
    /// unless a consumer is actually parked.
    pub(crate) fn push(&self, event: Event) {
        self.insert(event);
        self.wake_consumers(1);
    }

    /// Batched variant of [`RunQueue::push`]: all events land on one shard in
    /// order under a single lock acquisition, with a single wakeup check.
    pub(crate) fn push_batch(&self, events: Vec<Event>) {
        let n = events.len();
        if n == 0 {
            return;
        }
        self.insert_batch(events);
        self.wake_consumers(n);
    }

    /// Enqueues an event from an external driver (publisher handles, `with_unit`
    /// closures). Returns `false` — without enqueueing — once the queue is
    /// stopping: after the drain finishes nothing would ever dispatch the
    /// event, so accepting it would lose it silently.
    ///
    /// Allocation-free single-event twin of [`RunQueue::push_external_batch`],
    /// with the same stop-race reconciliation (see there).
    pub(crate) fn push_external(&self, event: Event) -> bool {
        if self.stopping.load(Ordering::SeqCst) {
            return false;
        }
        let id = event.id();
        let shard = self.insert(event);
        if self.stopping.load(Ordering::SeqCst) {
            let mut queue = self.shards[shard].lock();
            if let Some(position) = queue.iter().position(|queued| queued.id() == id) {
                queue.remove(position);
                self.len.fetch_sub(1, Ordering::SeqCst);
                drop(queue);
                self.complete_many(1);
                return false;
            }
        }
        self.wake_consumers(1);
        true
    }

    /// Enqueues a batch of external events onto one shard under one lock,
    /// returning how many were accepted (and will therefore be dispatched).
    /// The batch is *drained* out of `events` (accepted or not — a rejected
    /// batch is cleared), so callers can reuse one buffer across batches.
    ///
    /// Lock-free on the accept path, with a re-check after the insert closing
    /// the race against a concurrent full shutdown: if `stop` was observed
    /// false before the insert, the insert is SeqCst-ordered before the flag
    /// flip and the stopping drain is guaranteed to see the events; if stopping
    /// is observed afterwards, the still-queued tail of the batch is withdrawn
    /// by identity — events a drain already popped are in flight and their
    /// publish stands. The returned count is exactly the number of events that
    /// will reach dispatch.
    pub(crate) fn push_external_batch(&self, events: &mut Vec<Event>) -> usize {
        let n = events.len();
        if n == 0 || self.stopping.load(Ordering::SeqCst) {
            events.clear();
            return 0;
        }
        // The ids are only consulted on the (rare) stop race below, but they
        // must be captured before the insert hands the events away. A reused
        // thread-local keeps this capture allocation-free per batch.
        thread_local! {
            static WITHDRAW_IDS: std::cell::RefCell<Vec<defcon_events::EventId>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        WITHDRAW_IDS.with(|ids| {
            let mut ids = ids.borrow_mut();
            ids.clear();
            ids.extend(events.iter().map(|event| event.id()));
            let shard = self.insert_batch_drain(events);
            if self.stopping.load(Ordering::SeqCst) {
                // Raced with shutdown; the drain may already be past this
                // shard. Withdraw whatever is still queued — anything gone is
                // being dispatched by a consumer, so those publishes stand.
                let mut withdrawn = 0;
                {
                    let mut queue = self.shards[shard].lock();
                    for id in ids.iter() {
                        if let Some(position) = queue.iter().position(|queued| queued.id() == *id) {
                            queue.remove(position);
                            withdrawn += 1;
                        }
                    }
                    if withdrawn > 0 {
                        self.len.fetch_sub(withdrawn, Ordering::SeqCst);
                    }
                }
                self.complete_many(withdrawn);
                let accepted = n - withdrawn;
                if accepted > 0 {
                    self.wake_consumers(accepted);
                }
                return accepted;
            }
            self.wake_consumers(n);
            n
        })
    }

    fn insert(&self, event: Event) -> usize {
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let mut queue = self.shards[shard].lock();
        // `pending` rises with the insert and only falls at `complete_many`, so a
        // cascade event published during a dispatch is counted before that
        // dispatch completes — idleness can never be observed in between.
        self.pending.fetch_add(1, Ordering::SeqCst);
        queue.push_back(event);
        // Incremented while the shard lock is held so `len` can never lag a
        // concurrent pop and wrap below zero.
        self.len.fetch_add(1, Ordering::SeqCst);
        shard
    }

    fn insert_batch(&self, events: Vec<Event>) -> usize {
        let n = events.len();
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let mut queue = self.shards[shard].lock();
        self.pending.fetch_add(n, Ordering::SeqCst);
        queue.extend(events);
        self.len.fetch_add(n, Ordering::SeqCst);
        shard
    }

    /// [`RunQueue::insert_batch`], draining a caller-owned buffer instead of
    /// consuming it — the external publish path reuses one buffer per thread.
    fn insert_batch_drain(&self, events: &mut Vec<Event>) -> usize {
        let n = events.len();
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let mut queue = self.shards[shard].lock();
        self.pending.fetch_add(n, Ordering::SeqCst);
        queue.extend(events.drain(..));
        self.len.fetch_add(n, Ordering::SeqCst);
        shard
    }

    /// Wakes parked consumers after `inserted` events were enqueued. SeqCst
    /// pairs with the waiter registration in [`RunQueue::next_batch`]: either
    /// this load sees the registered waiter (and we wake it), or the waiter's
    /// pre-sleep `len` recheck — sequenced after its registration — sees our
    /// insert and never parks.
    fn wake_consumers(&self, inserted: usize) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _signal = self.signal_lock.lock();
            if inserted > 1 {
                // A batch can feed several workers (they steal runs from the
                // shard it landed on); a single token would leave them parked.
                self.work_signal.notify_all();
            } else {
                self.work_signal.notify_one();
            }
        }
    }

    /// Pops up to `max` events in FIFO order from one shard under a single lock
    /// acquisition, preferring shard `preferred` and stealing a whole run from a
    /// sibling shard when the preferred one is dry. Every popped event counts as
    /// in flight until completed (see [`RunQueue::batch_guard`]).
    pub(crate) fn pop_batch(&self, preferred: usize, max: usize) -> Vec<Event> {
        let mut batch = Vec::new();
        self.pop_batch_into(preferred, max, &mut batch);
        batch
    }

    /// Allocation-free twin of [`RunQueue::pop_batch`]: appends the popped run
    /// to `out` (which the hot worker loop reuses across batches) and returns
    /// how many events were popped.
    pub(crate) fn pop_batch_into(
        &self,
        preferred: usize,
        max: usize,
        out: &mut Vec<Event>,
    ) -> usize {
        let max = max.max(1);
        let shard_count = self.shards.len();
        for offset in 0..shard_count {
            let shard = &self.shards[(preferred + offset) % shard_count];
            let mut queue = shard.lock();
            if queue.is_empty() {
                continue;
            }
            let take = queue.len().min(max);
            out.extend(queue.drain(..take));
            // Decremented while the shard lock is held so `len` can never lag
            // a concurrent pop and wrap below zero.
            self.len.fetch_sub(take, Ordering::AcqRel);
            drop(queue);
            if offset > 0 {
                self.steals.fetch_add(1, Ordering::Relaxed);
            }
            self.note_depth_drop();
            return take;
        }
        0
    }

    /// Wakes admitters parked on the depth signal after queued depth dropped.
    /// One relaxed-ish atomic load on the hot pop path when nobody is
    /// watching; waiters re-check their own depth condition after waking.
    fn note_depth_drop(&self) {
        if self.depth_waiters.load(Ordering::SeqCst) > 0 {
            let _signal = self.signal_lock.lock();
            self.depth_signal.notify_all();
        }
    }

    /// Blocks until queued depth is below `target`, the queue starts
    /// stopping, or `timeout` elapses; returns `true` when depth is below
    /// `target` or the queue is stopping (a stopping queue drains, so blocked
    /// admitters should bail out rather than wait out the timeout).
    ///
    /// Each park is additionally bounded (1 ms slices) so the rare missed
    /// wakeup — a pop's waiter check racing this thread's registration —
    /// costs a bounded delay, never a hang.
    pub(crate) fn wait_depth_below(&self, target: usize, timeout: Duration) -> bool {
        const WAIT_SLICE: Duration = Duration::from_millis(1);
        let deadline = Instant::now() + timeout;
        loop {
            if self.len() < target || self.is_stopping() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let mut signal = self.signal_lock.lock();
            self.depth_waiters.fetch_add(1, Ordering::SeqCst);
            if self.len.load(Ordering::SeqCst) >= target && !self.is_stopping() {
                self.depth_signal
                    .wait_for(&mut signal, (deadline - now).min(WAIT_SLICE));
            }
            self.depth_waiters.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Marks one popped event's dispatch as finished.
    #[cfg(test)]
    pub(crate) fn complete(&self) {
        self.complete_many(1);
    }

    /// Marks `n` popped events' dispatches as finished in one accounting
    /// update: a single atomic subtraction and a single idle check for the
    /// whole batch.
    pub(crate) fn complete_many(&self, n: usize) {
        if n == 0 {
            return;
        }
        self.pending.fetch_sub(n, Ordering::SeqCst);
        if self.is_idle() {
            let _signal = self.signal_lock.lock();
            self.idle_signal.notify_all();
            // Stopping workers park on the work signal; wake them so they can
            // observe the idle queue and exit.
            self.work_signal.notify_all();
        }
    }

    /// Returns a guard that settles the in-flight accounting for a batch of `n`
    /// popped events when dropped — one atomic update and one wakeup check for
    /// the whole batch, balanced even if a dispatch panics mid-batch.
    pub(crate) fn batch_guard(&self, n: usize) -> BatchGuard<'_> {
        BatchGuard {
            queue: self,
            remaining: n,
        }
    }

    /// Blocks until at least one event is available, returning a batch of up to
    /// `max` events from one shard, or an empty batch once the queue is
    /// stopping *and* fully idle (telling a worker to exit).
    #[cfg(test)]
    pub(crate) fn next_batch(&self, preferred: usize, max: usize) -> Vec<Event> {
        let mut batch = Vec::new();
        self.next_batch_into(preferred, max, &mut batch);
        batch
    }

    /// Allocation-free twin of [`RunQueue::next_batch`]: blocks until at least
    /// one event is available and appends the popped run to `out` (reused
    /// across batches by the worker loop), or returns 0 once the queue is
    /// stopping *and* fully idle (telling the worker to exit).
    pub(crate) fn next_batch_into(
        &self,
        preferred: usize,
        max: usize,
        out: &mut Vec<Event>,
    ) -> usize {
        loop {
            let popped = self.pop_batch_into(preferred, max, out);
            if popped > 0 {
                return popped;
            }
            if self.stopping.load(Ordering::Acquire) && self.is_idle() {
                return 0;
            }
            let mut signal = self.signal_lock.lock();
            // Register as a waiter *before* the recheck (SeqCst, pairing with
            // `wake_consumers`), then re-check: a push or the final `complete_many`
            // may have raced with the checks above. The wait itself is
            // untimed — the pairing guarantees no insert is ever missed, so an
            // idle engine's workers park silently instead of waking on a
            // polling interval.
            self.waiters.fetch_add(1, Ordering::SeqCst);
            if self.len.load(Ordering::SeqCst) > 0
                || (self.stopping.load(Ordering::Acquire) && self.is_idle())
            {
                self.waiters.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            self.work_signal.wait(&mut signal);
            self.waiters.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Parks the caller until work may be available or `max_wait` elapses — the
    /// blocking primitive behind
    /// [`Dispatcher::pump_for`](crate::Dispatcher::pump_for), so polling drivers
    /// do not spin a core while the queue is empty. Parks regardless of the
    /// stopping flag (callers exit on `stopping && idle` themselves): in-flight
    /// dispatches of a stopping queue may still publish, and `complete_many` wakes
    /// all waiters when the queue goes idle.
    pub(crate) fn park_for_work(&self, max_wait: Duration) {
        let mut signal = self.signal_lock.lock();
        self.waiters.fetch_add(1, Ordering::SeqCst);
        if self.len.load(Ordering::SeqCst) == 0 {
            self.work_signal.wait_for(&mut signal, max_wait);
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Asks consumers to exit once the queue has fully drained. External pushes
    /// are rejected from this point on (see `push_external_batch` for how the
    /// flag flip and racing inserts reconcile).
    pub(crate) fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        let _signal = self.signal_lock.lock();
        self.work_signal.notify_all();
        self.idle_signal.notify_all();
        // Blocked admitters must observe the stop instead of waiting for a
        // depth drop that may never come.
        self.depth_signal.notify_all();
    }

    /// Returns `true` once [`RunQueue::stop`] has been called.
    pub(crate) fn is_stopping(&self) -> bool {
        self.stopping.load(Ordering::Acquire)
    }

    /// Blocks until the queue is fully idle or `timeout` elapses; returns whether
    /// idleness was reached.
    pub(crate) fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.is_idle() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let mut signal = self.signal_lock.lock();
            if self.is_idle() {
                return true;
            }
            self.idle_signal.wait_for(&mut signal, deadline - now);
        }
    }
}

/// RAII guard balancing a whole batch of in-flight dispatches with a single
/// accounting update (see [`RunQueue::batch_guard`]).
pub(crate) struct BatchGuard<'a> {
    queue: &'a RunQueue,
    remaining: usize,
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        self.queue.complete_many(self.remaining);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_defc::Label;
    use defcon_events::{EventBuilder, Value};
    use std::sync::Arc;

    fn event(n: i64) -> Event {
        EventBuilder::new()
            .part("n", Label::public(), Value::Int(n))
            .build()
            .unwrap()
    }

    /// Blocking single-event pop: the batch-size-1 degenerate case of
    /// [`RunQueue::next_batch`].
    fn next_event(queue: &RunQueue, preferred: usize) -> Option<Event> {
        queue.next_batch(preferred, 1).pop()
    }

    fn event_value(event: &Event) -> i64 {
        match event.first_part("n").map(|part| part.data().clone()) {
            Some(Value::Int(n)) => n,
            other => panic!("unexpected part payload: {other:?}"),
        }
    }

    #[test]
    fn push_pop_complete_round_trip() {
        let queue = RunQueue::new(4);
        assert!(queue.is_idle());
        queue.push(event(1));
        queue.push(event(2));
        assert_eq!(queue.len(), 2);

        assert_eq!(queue.pop_batch(0, 1).len(), 1, "event queued");
        assert!(!queue.is_idle(), "popped event is in flight");
        queue.complete();
        assert_eq!(queue.pop_batch(0, 1).len(), 1);
        queue.complete();
        assert!(queue.is_idle());
        assert!(queue.pop_batch(0, 1).is_empty());
    }

    #[test]
    fn pop_batch_drains_a_run_in_fifo_order() {
        let queue = RunQueue::new(1);
        queue.push_batch((0..10).map(event).collect());
        assert_eq!(queue.len(), 10);

        let batch = queue.pop_batch(0, 4);
        assert_eq!(
            batch.iter().map(event_value).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "a batch preserves shard FIFO order"
        );
        assert_eq!(queue.len(), 6);
        queue.complete_many(batch.len());

        let rest = queue.pop_batch(0, 100);
        assert_eq!(rest.len(), 6, "bounded by what is queued");
        queue.complete_many(rest.len());
        assert!(queue.is_idle());
    }

    #[test]
    fn pop_batch_steals_a_whole_run_from_a_sibling_shard() {
        let queue = RunQueue::new(4);
        // One push_batch lands on a single shard (shard 0, round-robin from 0).
        queue.push_batch((0..8).map(event).collect());

        // Worker preferring shard 2 finds its own shard dry and steals the
        // entire run from shard 0 under one lock, not one event at a time.
        let stolen = queue.pop_batch(2, 8);
        assert_eq!(stolen.len(), 8, "steal takes the whole run");
        assert_eq!(
            stolen.iter().map(event_value).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
        assert_eq!(queue.len(), 0);
        queue.complete_many(stolen.len());
        assert!(queue.is_idle());
    }

    #[test]
    fn only_runs_from_a_sibling_shard_count_as_steals() {
        let queue = RunQueue::new(2);
        // Round-robin: the first run lands on shard 0, the second on shard 1.
        queue.push_batch((0..4).map(event).collect());
        queue.push_batch((4..8).map(event).collect());

        let own = queue.pop_batch(0, 8);
        assert_eq!(own.len(), 4);
        assert_eq!(
            queue.steals(),
            0,
            "a pop from the preferred shard is no steal"
        );

        // Shard 0 is dry now: the next pop takes shard 1's run in two halves,
        // and each run taken from the sibling counts once, however long.
        let first = queue.pop_batch(0, 2);
        assert_eq!(
            first.iter().map(event_value).collect::<Vec<_>>(),
            vec![4, 5]
        );
        assert_eq!(queue.steals(), 1);
        let second = queue.pop_batch(0, 8);
        assert_eq!(second.len(), 2);
        assert_eq!(queue.steals(), 2);
        assert!(queue.pop_batch(0, 8).is_empty());
        assert_eq!(queue.steals(), 2, "an empty pop steals nothing");
        queue.complete_many(8);
        assert!(queue.is_idle());
    }

    #[test]
    fn batch_guard_settles_accounting_even_on_panic() {
        let queue = Arc::new(RunQueue::new(1));
        queue.push_batch((0..3).map(event).collect());
        let inner = Arc::clone(&queue);
        let result = std::panic::catch_unwind(move || {
            let batch = inner.pop_batch(0, 3);
            let _guard = inner.batch_guard(batch.len());
            panic!("dispatch blew up mid-batch");
        });
        assert!(result.is_err());
        assert!(
            queue.is_idle(),
            "guard must complete the whole batch on unwind"
        );
    }

    #[test]
    fn next_event_returns_none_only_when_stopped_and_idle() {
        let queue = Arc::new(RunQueue::new(2));
        queue.push(event(1));
        queue.stop();
        // Still one event queued: consumers must drain it before exiting.
        let got = next_event(&queue, 0).expect("queued event survives stop");
        let _ = got;
        queue.complete();
        assert!(next_event(&queue, 0).is_none());
    }

    #[test]
    fn external_pushes_are_rejected_after_stop_but_internal_ones_drain() {
        let queue = RunQueue::new(2);
        assert!(queue.push_external(event(1)), "accepted while running");
        queue.stop();
        assert!(!queue.push_external(event(2)), "rejected once stopping");
        // Internal (cascade) pushes are still accepted and drainable.
        queue.push(event(3));
        assert_eq!(queue.len(), 2);
        while next_event(&queue, 0).is_some() {
            queue.complete();
        }
        assert!(queue.is_idle());
    }

    #[test]
    fn external_batch_is_rejected_whole_once_stopping() {
        let queue = RunQueue::new(2);
        assert_eq!(
            queue.push_external_batch(&mut (0..5).map(event).collect()),
            5,
            "accepted while running"
        );
        queue.stop();
        assert_eq!(
            queue.push_external_batch(&mut (5..10).map(event).collect()),
            0,
            "rejected once stopping"
        );
        assert_eq!(queue.len(), 5);
        while next_event(&queue, 0).is_some() {
            queue.complete();
        }
        assert!(queue.is_idle());
    }

    /// The batch-straddles-stop race: a stop() that lands between a batch's
    /// insert and its post-insert recheck must leave the accounting exact —
    /// every accepted event is dispatched exactly once, withdrawn events never
    /// are, and the queue always reaches idle.
    #[test]
    fn external_batch_straddling_stop_keeps_accounting_exact() {
        for round in 0..50 {
            let queue = Arc::new(RunQueue::new(2));
            let consumed = Arc::new(AtomicUsize::new(0));
            let consumer = {
                let queue = Arc::clone(&queue);
                let consumed = Arc::clone(&consumed);
                std::thread::spawn(move || loop {
                    let batch = queue.next_batch(0, 4);
                    if batch.is_empty() {
                        return;
                    }
                    let _guard = queue.batch_guard(batch.len());
                    consumed.fetch_add(batch.len(), Ordering::SeqCst);
                })
            };
            let stopper = {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    // Vary the interleaving: sometimes stop lands before the
                    // publisher's insert, sometimes between insert and recheck,
                    // sometimes after.
                    if round % 3 == 0 {
                        std::thread::yield_now();
                    }
                    queue.stop();
                })
            };
            let mut accepted = 0;
            for chunk in 0..4 {
                accepted += queue
                    .push_external_batch(&mut (chunk * 8..(chunk + 1) * 8).map(event).collect());
            }
            stopper.join().unwrap();
            consumer.join().unwrap();
            assert!(queue.is_idle(), "round {round}: queue must settle idle");
            assert_eq!(
                consumed.load(Ordering::SeqCst),
                accepted,
                "round {round}: every accepted event is dispatched exactly once"
            );
        }
    }

    #[test]
    fn wait_idle_times_out_while_in_flight() {
        let queue = RunQueue::new(1);
        queue.push(event(1));
        assert_eq!(queue.pop_batch(0, 1).len(), 1);
        assert!(!queue.wait_idle(Duration::from_millis(20)));
        queue.complete();
        assert!(queue.wait_idle(Duration::from_millis(100)));
    }

    /// The condvar pairing assertion that replaced the old 50 ms `WAIT_SLICE`
    /// polling safety net: a consumer parked in `next_batch` must be woken by
    /// the push signal itself. The generous bound is far below anything a
    /// polling interval could explain while staying robust on a loaded CI
    /// machine; the wait inside the queue is untimed, so only the paired
    /// notification can wake the consumer at all.
    #[test]
    fn parked_consumer_is_woken_by_push_not_by_polling() {
        let queue = Arc::new(RunQueue::new(2));
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let event = next_event(&queue, 0);
                let woken_at = Instant::now();
                queue.complete();
                (event.is_some(), woken_at)
            })
        };
        // Let the consumer reach the untimed wait before signalling.
        std::thread::sleep(Duration::from_millis(100));
        let pushed_at = Instant::now();
        queue.push(event(1));
        let (got_event, woken_at) = consumer.join().unwrap();
        assert!(got_event, "the push must hand the consumer its event");
        let wake_latency = woken_at.duration_since(pushed_at);
        assert!(
            wake_latency < Duration::from_secs(5),
            "paired wakeup took {wake_latency:?}; an untimed wait only ends on notify"
        );
    }

    /// Same pairing assertion for the exit path: `stop` on an idle queue must
    /// release parked consumers without any timeout coming to the rescue.
    #[test]
    fn parked_consumer_is_released_by_stop() {
        let queue = Arc::new(RunQueue::new(2));
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || next_event(&queue, 0))
        };
        std::thread::sleep(Duration::from_millis(100));
        queue.stop();
        assert!(
            consumer.join().unwrap().is_none(),
            "stop on an idle queue releases parked consumers"
        );
    }

    #[test]
    fn wait_depth_below_wakes_on_pop_and_observes_stop() {
        let queue = Arc::new(RunQueue::new(1));
        queue.push_batch((0..8).map(event).collect());

        // Deep queue: the wait must time out while nothing drains.
        assert!(!queue.wait_depth_below(5, Duration::from_millis(20)));

        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.wait_depth_below(5, Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(50));
        let batch = queue.pop_batch(0, 4); // depth 8 -> 4, below the target
        assert!(
            waiter.join().unwrap(),
            "a pop dropping depth below the target must release the waiter"
        );
        queue.complete_many(batch.len());

        // A stopping queue releases blocked admitters even at depth.
        queue.stop();
        assert!(queue.wait_depth_below(1, Duration::from_secs(5)));
    }

    #[test]
    fn concurrent_producers_and_consumers_drain_exactly() {
        let queue = Arc::new(RunQueue::new(4));
        let produced = 4 * 500;
        let consumed = Arc::new(AtomicUsize::new(0));

        let producers: Vec<_> = (0..4)
            .map(|p| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        queue.push(event((p * 500 + i) as i64));
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|w| {
                let queue = Arc::clone(&queue);
                let consumed = Arc::clone(&consumed);
                std::thread::spawn(move || {
                    while let Some(_event) = next_event(&queue, w) {
                        consumed.fetch_add(1, Ordering::Relaxed);
                        queue.complete();
                    }
                })
            })
            .collect();

        for producer in producers {
            producer.join().unwrap();
        }
        assert!(queue.wait_idle(Duration::from_secs(10)));
        queue.stop();
        for consumer in consumers {
            consumer.join().unwrap();
        }
        assert_eq!(consumed.load(Ordering::Relaxed), produced);
        assert!(queue.is_idle());
    }

    #[test]
    fn concurrent_batched_producers_and_consumers_drain_exactly() {
        let queue = Arc::new(RunQueue::new(4));
        let produced = 4 * 64 * 8;
        let consumed = Arc::new(AtomicUsize::new(0));

        let producers: Vec<_> = (0..4)
            .map(|p| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    for chunk in 0..64 {
                        let base = (p * 64 + chunk) * 8;
                        queue.push_batch((base..base + 8).map(|i| event(i as i64)).collect());
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|w| {
                let queue = Arc::clone(&queue);
                let consumed = Arc::clone(&consumed);
                std::thread::spawn(move || loop {
                    let batch = queue.next_batch(w, 8);
                    if batch.is_empty() {
                        return;
                    }
                    let _guard = queue.batch_guard(batch.len());
                    consumed.fetch_add(batch.len(), Ordering::Relaxed);
                })
            })
            .collect();

        for producer in producers {
            producer.join().unwrap();
        }
        assert!(queue.wait_idle(Duration::from_secs(10)));
        queue.stop();
        for consumer in consumers {
            consumer.join().unwrap();
        }
        assert_eq!(consumed.load(Ordering::Relaxed), produced);
        assert!(queue.is_idle());
    }
}
