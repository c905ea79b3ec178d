//! The engine's run queue.
//!
//! Published-but-not-yet-dispatched events live here, in one FIFO queue:
//! runs pop in the order they were queued, whoever pops them. The engine
//! promises no dispatch order across concurrent workers, only that each
//! event's deliveries happen in subscription order and that deliveries to one
//! unit are serialised (by the per-unit mutex, not by the queue).
//!
//! Consumers pop in *batches*: [`RunQueue::pop_batch`] drains a run of up to
//! `max` events under a single lock acquisition, and the paired
//! [`BatchGuard`] settles the in-flight accounting for the entire batch with
//! one atomic update and one wakeup check. A batch size of 1 degenerates to
//! the classic one-event-per-lock behaviour.
//!
//! The queue also tracks how many events are *in flight* (popped but whose
//! dispatch has not finished), which is what makes [`RunQueue::wait_idle`] and
//! graceful shutdown deterministic: a drained queue with an in-flight dispatch
//! may still grow again, so "idle" means empty *and* nothing in flight.
//!
//! # Who may pop
//!
//! Only a thread holding a *dispatch slot* pops, and it keeps the slot until
//! the popped batch is dispatched. There are `max(workers, 1)` slots, so at
//! most that many threads dispatch at once.
//! A worker holds its slot while it runs and gives it up when it parks in
//! [`RunQueue::next_batch_into`]. Every other consumer — a thread waiting in
//! [`EngineHandle::wait_idle`](crate::EngineHandle::wait_idle), a manual
//! pump — takes a free slot ([`RunQueue::take_slot`]) for one drain and
//! returns it when the queue is empty. So a caller waiting for idleness
//! dispatches in a parked worker's place instead of waking it and sleeping.
//!
//! Queue depth counts external events and *spilled* cascades only. An event a
//! unit publishes during dispatch normally stays on its dispatcher's own
//! cascade stack (see [`Dispatcher`](crate::dispatcher::Dispatcher)) and never enters the
//! queue: it counts as in flight from publication until its batch settles
//! ([`BatchGuard::hold`]). Only while a worker is parked
//! ([`RunQueue::has_waiters`]) *and* a slot is free
//! ([`RunQueue::has_free_slot`]) does a cascade block go to the queue, so the
//! idle worker can take it.
//!
//! Blocked consumers park on a condvar and rely purely on paired signalling —
//! every insert either observes a registered waiter (and notifies) or the
//! waiter's pre-sleep recheck observes the insert; there is no periodic-wakeup
//! safety net, so an idle engine's workers sleep silently instead of polling.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use defcon_events::Event;
use parking_lot::{Condvar, Mutex, MutexGuard};

/// A multi-producer multi-consumer queue of events awaiting dispatch.
pub(crate) struct RunQueue {
    queue: Mutex<VecDeque<Event>>,
    /// Events queued, readable without the queue lock.
    len: AtomicUsize,
    /// Events ever popped off the queue.
    popped: AtomicU64,
    /// Events accepted but not yet *completed* (queued + in flight). Idleness
    /// is this single counter reaching zero — reading `len` and an in-flight
    /// count as a pair would admit a race where a cascade publication between
    /// the two loads makes a busy queue look idle.
    pending: AtomicUsize,
    /// Set by [`RunQueue::stop`]; workers exit once the queue is fully idle.
    stopping: AtomicBool,
    /// Dispatch slots not held by any thread (see the module docs): starts at
    /// `max(workers, 1)`.
    free_slots: AtomicUsize,
    /// Consumers currently parked (or about to park) on `work_signal`; lets the
    /// hot internal push skip the signal lock when nobody is listening.
    waiters: AtomicUsize,
    /// Callers of [`RunQueue::wait_idle`] currently parked (or about to park)
    /// on `idle_signal`; lets a settling batch skip the signal lock when
    /// nobody waits for idleness.
    idle_waiters: AtomicUsize,
    /// Guards the wakeup condvars (the counters themselves are atomics).
    signal_lock: Mutex<()>,
    /// Signalled when work arrives, a slot is given back over queued work, or
    /// the queue starts stopping.
    work_signal: Condvar,
    /// Signalled when the queue becomes fully idle, or a slot is given back
    /// over queued work.
    idle_signal: Condvar,
    /// Threads waiting for queued depth to drop or for pops to reach a
    /// watermark (credit windows awaiting room or credit), currently parked
    /// on `depth_signal`; lets the hot pop path skip the signal lock when
    /// nobody is watching.
    depth_waiters: AtomicUsize,
    /// Signalled when queued depth drops (events popped for dispatch) and
    /// when the queue starts stopping.
    depth_signal: Condvar,
}

impl RunQueue {
    /// Creates a queue with `slots` dispatch slots (at least one).
    pub(crate) fn new(slots: usize) -> Self {
        RunQueue {
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            popped: AtomicU64::new(0),
            pending: AtomicUsize::new(0),
            stopping: AtomicBool::new(false),
            free_slots: AtomicUsize::new(slots.max(1)),
            waiters: AtomicUsize::new(0),
            idle_waiters: AtomicUsize::new(0),
            signal_lock: Mutex::new(()),
            work_signal: Condvar::new(),
            idle_signal: Condvar::new(),
            depth_waiters: AtomicUsize::new(0),
            depth_signal: Condvar::new(),
        }
    }

    /// Number of events currently queued (not counting in-flight dispatches).
    /// SeqCst, like `popped`, for the depth waiters' re-check.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// Events popped off the queue so far. Read *after* [`RunQueue::len`],
    /// `popped + len` never undercounts: a pop raises `popped` before it
    /// releases the lower `len`.
    pub(crate) fn popped(&self) -> u64 {
        self.popped.load(Ordering::SeqCst)
    }

    /// Whether a consumer is parked (or about to park) waiting for work.
    pub(crate) fn has_waiters(&self) -> bool {
        self.waiters.load(Ordering::Relaxed) > 0
    }

    /// Whether a dispatch slot is free, so a parked consumer could take
    /// queued work.
    pub(crate) fn has_free_slot(&self) -> bool {
        self.free_slots.load(Ordering::Relaxed) > 0
    }

    /// Takes a free dispatch slot, or returns `None` when every slot is held.
    /// The slot is given back when the guard drops, waking a parked consumer
    /// if work is queued.
    pub(crate) fn take_slot(&self) -> Option<SlotGuard<'_>> {
        self.free_slots
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |free| {
                free.checked_sub(1)
            })
            .is_ok()
            .then(|| SlotGuard { queue: self })
    }

    /// Whether a consumer without a slot could dispatch now: work is queued
    /// and a slot is free. SeqCst, pairing with [`SlotGuard`]'s drop: either a
    /// parking consumer's check sees the given-back slot, or the giver sees
    /// the consumer registered and wakes it.
    fn has_takeable_work(&self) -> bool {
        self.len.load(Ordering::SeqCst) > 0 && self.free_slots.load(Ordering::SeqCst) > 0
    }

    /// Events accepted but not yet completed (queued plus in flight) — the
    /// counter idleness is defined over.
    pub(crate) fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// Returns `true` if nothing is queued and nothing is being dispatched.
    pub(crate) fn is_idle(&self) -> bool {
        self.pending.load(Ordering::SeqCst) == 0
    }

    /// Enqueues a block of events from *inside* dispatch (cascades spilled to
    /// a parked worker). Always accepted: the publishing dispatch is in
    /// flight, so stopping workers cannot have exited yet and the events are
    /// guaranteed to drain. All events are queued in order under a single
    /// lock acquisition, with a single wakeup check; the global signal
    /// lock is only touched when a consumer is actually parked.
    pub(crate) fn push_batch(&self, mut events: Vec<Event>) {
        self.insert_batch(self.queue.lock(), &mut events);
    }

    /// Single-event [`RunQueue::push_batch`], for the queue's own tests.
    #[cfg(test)]
    fn push(&self, event: Event) {
        self.push_batch(vec![event]);
    }

    /// Enqueues a batch of external events in order under one lock: all of
    /// it, or none once the queue is stopping. Returns whether it was
    /// queued; a queued batch is *drained* out of `events` (so publishers
    /// reuse one buffer per thread), a refused one is left there.
    ///
    /// [`RunQueue::stop`] sets the flag under the same lock, so the flag
    /// read and the insert are one step against it: a batch queued before
    /// the stop raised `pending` first, so the stopping workers (or the
    /// final drain) dispatch it; a batch after it never reaches the queue.
    pub(crate) fn push_external_batch(&self, events: &mut Vec<Event>) -> bool {
        let queue = self.queue.lock();
        // Relaxed: the queue lock orders this read against `stop`'s store.
        if self.stopping.load(Ordering::Relaxed) {
            return false;
        }
        self.insert_batch(queue, events);
        true
    }

    /// Queues every event of `events` in order under the held queue lock,
    /// draining the buffer, then releases the lock and wakes consumers.
    fn insert_batch(&self, mut queue: MutexGuard<'_, VecDeque<Event>>, events: &mut Vec<Event>) {
        let n = events.len();
        if n == 0 {
            return;
        }
        // `pending` rises with the insert and only falls at `complete_many`,
        // so a cascade event published during a dispatch is counted before
        // that dispatch completes — idleness can never be observed between.
        self.pending.fetch_add(n, Ordering::SeqCst);
        queue.extend(events.drain(..));
        // Raised while the queue lock is held so `len` can never lag a
        // concurrent pop and wrap below zero.
        self.len.fetch_add(n, Ordering::SeqCst);
        drop(queue);
        self.wake_consumers(n);
    }

    /// Wakes parked consumers after `inserted` events were enqueued. SeqCst
    /// pairs with the waiter registrations in [`RunQueue::next_batch`] and
    /// [`RunQueue::wait_idle`]: either these loads see the registered waiter
    /// (and we wake it), or the waiter's pre-sleep `len` recheck — sequenced
    /// after its registration — sees our insert and never parks.
    fn wake_consumers(&self, inserted: usize) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _signal = self.signal_lock.lock();
            if inserted > 1 {
                // A batch can feed several workers (each pops a run of it); a
                // single token would leave the others parked.
                self.work_signal.notify_all();
            } else {
                self.work_signal.notify_one();
            }
        } else if self.idle_waiters.load(Ordering::SeqCst) > 0 {
            // No worker is parked, so a thread waiting for idleness is the one
            // to dispatch this (at `workers(0)` the only one). It may have
            // seen the insert's `pending` rise but not yet its `len` and
            // parked on "in flight"; without this wake it would sleep out its
            // whole timeout.
            let _signal = self.signal_lock.lock();
            self.idle_signal.notify_all();
        }
    }

    /// Pops up to `max` events in FIFO order under a single lock acquisition.
    /// Every popped event counts as in flight until completed (see
    /// [`RunQueue::batch_guard`]).
    #[cfg(test)]
    fn pop_batch(&self, max: usize) -> Vec<Event> {
        let mut batch = Vec::new();
        self.pop_batch_into(max, &mut batch);
        batch
    }

    /// Allocation-free twin of [`RunQueue::pop_batch`]: appends the popped run
    /// to `out` (which the hot worker loop reuses across batches) and returns
    /// how many events were popped. The caller holds a dispatch slot.
    pub(crate) fn pop_batch_into(&self, max: usize, out: &mut Vec<Event>) -> usize {
        let mut queue = self.queue.lock();
        let take = queue.len().min(max.max(1));
        if take == 0 {
            return 0;
        }
        out.extend(queue.drain(..take));
        // Raised before `len` falls (see `popped`). Both are SeqCst so that
        // they pair with a depth waiter's registration (see
        // `wait_on_depth_signal`), as `wake_consumers` pairs a push.
        self.popped.fetch_add(take as u64, Ordering::SeqCst);
        // Decremented while the queue lock is held so `len` can never lag a
        // concurrent pop and wrap below zero.
        self.len.fetch_sub(take, Ordering::SeqCst);
        drop(queue);
        self.note_depth_drop();
        take
    }

    /// Wakes threads parked on the depth signal after queued depth dropped.
    /// One atomic load on the hot pop path when nobody is watching; waiters
    /// re-check their own condition after waking.
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
    pub(crate) fn wait_depth_below(&self, target: usize, timeout: Duration) -> bool {
        self.wait_on_depth_signal(|| self.len() < target || self.is_stopping(), timeout)
    }

    /// Parks on the depth signal until `ready` holds or `timeout` elapses
    /// (a timeout too large for an `Instant` never elapses); returns `ready`.
    ///
    /// No wake is lost: a waiter registers (SeqCst) before it re-checks
    /// `ready`, and a pop raises `popped` and lowers `len` (SeqCst) before it
    /// loads the waiter count, so either the pop sees the waiter and
    /// notifies, or the re-check sees the pop. `stop` notifies too; the
    /// 1 ms slice per park is a backstop only.
    pub(crate) fn wait_on_depth_signal(&self, ready: impl Fn() -> bool, timeout: Duration) -> bool {
        const BACKSTOP_SLICE: Duration = Duration::from_millis(1);
        let deadline = Instant::now().checked_add(timeout);
        while !ready() {
            let slice = match deadline {
                Some(deadline) => deadline.saturating_duration_since(Instant::now()),
                None => BACKSTOP_SLICE,
            };
            if slice.is_zero() {
                return false;
            }
            let mut signal = self.signal_lock.lock();
            self.depth_waiters.fetch_add(1, Ordering::SeqCst);
            if !ready() {
                self.depth_signal
                    .wait_for(&mut signal, slice.min(BACKSTOP_SLICE));
            }
            self.depth_waiters.fetch_sub(1, Ordering::SeqCst);
        }
        true
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
        // SeqCst loads after the decrement pair with the registration of a
        // waiter before its idle check: either side sees the other.
        if self.is_idle() && (self.idle_waiters.load(Ordering::SeqCst) > 0 || self.is_stopping()) {
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
    /// `max` events, or an empty batch once the queue is
    /// stopping *and* fully idle (telling a worker to exit). The slot the pop
    /// takes is given back on return, so test consumers need not track it.
    #[cfg(test)]
    pub(crate) fn next_batch(&self, max: usize) -> Vec<Event> {
        let mut batch = Vec::new();
        self.next_batch_into(max, &mut batch, &mut None);
        batch
    }

    /// The worker's pop: blocks until it holds a dispatch slot and at least
    /// one event is available, and appends the popped run to `out` (reused
    /// across batches by the worker loop); or returns 0 once the queue is
    /// stopping *and* fully idle (telling the worker to exit).
    ///
    /// `slot` is the worker's dispatch slot, if it holds one. It keeps the
    /// slot from batch to batch and gives it up only to park, so that a
    /// caller waiting for idleness can take it and dispatch in its place; it
    /// holds one whenever this returns a batch, and none once this returns 0.
    /// A worker that unwinds drops the guard, so a dead worker's slot is
    /// given back too.
    pub(crate) fn next_batch_into<'q>(
        &'q self,
        max: usize,
        out: &mut Vec<Event>,
        slot: &mut Option<SlotGuard<'q>>,
    ) -> usize {
        loop {
            if slot.is_none() && self.len() > 0 {
                *slot = self.take_slot();
            }
            if slot.is_some() {
                let popped = self.pop_batch_into(max, out);
                if popped > 0 {
                    return popped;
                }
            }
            let mut signal = self.signal_lock.lock();
            // Register as a waiter *before* the checks (SeqCst, pairing with
            // `wake_consumers`, `SlotGuard`'s drop and `complete_many`): a
            // push, a given-back slot or the final completion racing the pop
            // above is seen here or wakes the wait. The wait itself is
            // untimed — the pairing guarantees no insert is ever missed, so an
            // idle engine's workers park silently instead of waking on a
            // polling interval.
            self.waiters.fetch_add(1, Ordering::SeqCst);
            // The slot is given back without a wakeup: the check below sees
            // it free if work raced in, and the loop takes it again.
            if let Some(slot) = slot.take() {
                slot.give_back_to_park();
            }
            let exit = self.stopping.load(Ordering::Acquire) && self.is_idle();
            if !exit && !self.has_takeable_work() {
                self.work_signal.wait(&mut signal);
            }
            self.waiters.fetch_sub(1, Ordering::SeqCst);
            if exit {
                return 0;
            }
        }
    }

    /// Asks consumers to exit once the queue has fully drained. External
    /// batches are refused whole from this point on: the flag is set under
    /// the queue lock, the lock `push_external_batch` reads it under.
    pub(crate) fn stop(&self) {
        let queue = self.queue.lock();
        self.stopping.store(true, Ordering::SeqCst);
        drop(queue);
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

    /// The parking half of
    /// [`EngineHandle::wait_idle`](crate::EngineHandle::wait_idle): parks the
    /// caller until the queue is fully idle, holds work the caller could
    /// dispatch (queued events and a free slot), or `deadline` passes; returns
    /// whether the queue is idle. So it parks only while nothing is queued and
    /// a dispatch is in flight, or while every slot is held.
    pub(crate) fn wait_idle(&self, deadline: Instant) -> bool {
        if self.is_idle() {
            return true;
        }
        let mut signal = self.signal_lock.lock();
        // Registered before the checks (SeqCst), pairing with `complete_many`
        // and `SlotGuard`'s drop.
        self.idle_waiters.fetch_add(1, Ordering::SeqCst);
        let now = Instant::now();
        if now < deadline && !self.is_idle() && !self.has_takeable_work() {
            self.idle_signal.wait_for(&mut signal, deadline - now);
        }
        self.idle_waiters.fetch_sub(1, Ordering::SeqCst);
        self.is_idle()
    }
}

/// A dispatch slot taken by [`RunQueue::take_slot`], given back on drop
/// (also when its holder unwinds).
pub(crate) struct SlotGuard<'a> {
    queue: &'a RunQueue,
}

impl SlotGuard<'_> {
    /// Gives the slot back without waking anyone, for a worker about to
    /// park: it holds the signal lock and is registered as a waiter, and it
    /// re-checks for takeable work itself before it waits.
    fn give_back_to_park(self) {
        self.queue.free_slots.fetch_add(1, Ordering::SeqCst);
        std::mem::forget(self);
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let queue = self.queue;
        queue.free_slots.fetch_add(1, Ordering::SeqCst);
        // A consumer that found work but no slot parked; the slot is free now.
        if queue.len.load(Ordering::SeqCst) > 0
            && (queue.waiters.load(Ordering::SeqCst) > 0
                || queue.idle_waiters.load(Ordering::SeqCst) > 0)
        {
            let _signal = queue.signal_lock.lock();
            queue.work_signal.notify_all();
            queue.idle_signal.notify_all();
        }
    }
}

/// RAII guard balancing a whole batch of in-flight dispatches with a single
/// accounting update (see [`RunQueue::batch_guard`]).
pub(crate) struct BatchGuard<'a> {
    queue: &'a RunQueue,
    remaining: usize,
}

impl BatchGuard<'_> {
    /// Counts `n` more events as in flight until this guard settles: the
    /// cascades a dispatcher keeps on its own stack instead of queueing them.
    pub(crate) fn hold(&mut self, n: usize) {
        self.queue.pending.fetch_add(n, Ordering::SeqCst);
        self.remaining += n;
    }
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
    fn next_event(queue: &RunQueue) -> Option<Event> {
        queue.next_batch(1).pop()
    }

    /// Waits until the consumers have drained the queue to idle on their
    /// own, before any `stop` wakes them. `wait_idle` returns early while a
    /// slot is free over queued work (these consumers give theirs back after
    /// every pop), so it is polled; a lost wakeup leaves the consumers parked
    /// over queued work and runs the deadline out.
    fn wait_drained(queue: &RunQueue) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !queue.wait_idle(deadline) {
            assert!(
                Instant::now() < deadline,
                "consumers did not drain the queue before stop"
            );
            std::thread::yield_now();
        }
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

        assert_eq!(queue.pop_batch(1).len(), 1, "event queued");
        assert!(!queue.is_idle(), "popped event is in flight");
        queue.complete();
        assert_eq!(queue.pop_batch(1).len(), 1);
        queue.complete();
        assert!(queue.is_idle());
        assert!(queue.pop_batch(1).is_empty());
    }

    #[test]
    fn pop_batch_drains_a_run_in_fifo_order() {
        let queue = RunQueue::new(1);
        queue.push_batch((0..10).map(event).collect());
        assert_eq!(queue.len(), 10);

        let batch = queue.pop_batch(4);
        assert_eq!(
            batch.iter().map(event_value).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "a batch preserves FIFO order"
        );
        assert_eq!(queue.len(), 6);
        queue.complete_many(batch.len());

        let rest = queue.pop_batch(100);
        assert_eq!(rest.len(), 6, "bounded by what is queued");
        queue.complete_many(rest.len());
        assert!(queue.is_idle());
    }

    /// Runs pop in push order whoever pops them: one thread, then another,
    /// each taking the oldest run left. There are more runs than slots, so
    /// no split of the queue by slot or by caller keeps them in order.
    #[test]
    fn runs_pop_in_push_order_whichever_caller_pops_first() {
        const SLOTS: usize = 4;
        const RUN: i64 = 3;
        let runs: Vec<Vec<i64>> = (0..=SLOTS as i64)
            .map(|run| (run * RUN..(run + 1) * RUN).collect())
            .collect();
        let queue = RunQueue::new(SLOTS);
        for run in &runs {
            queue.push_batch(run.iter().copied().map(event).collect());
        }
        let popped: Vec<Vec<i64>> = (0..runs.len())
            .map(|nth| {
                let pop = || queue.next_batch(RUN as usize);
                let batch = if nth % 2 == 0 {
                    pop()
                } else {
                    std::thread::scope(|scope| scope.spawn(pop).join().unwrap())
                };
                queue.complete_many(batch.len());
                batch.iter().map(event_value).collect()
            })
            .collect();
        assert_eq!(popped, runs, "runs pop whole, in push order");
        assert!(queue.is_idle());
    }

    #[test]
    fn batch_guard_settles_accounting_even_on_panic() {
        let queue = Arc::new(RunQueue::new(1));
        queue.push_batch((0..3).map(event).collect());
        let inner = Arc::clone(&queue);
        let result = std::panic::catch_unwind(move || {
            let batch = inner.pop_batch(3);
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
        let got = next_event(&queue).expect("queued event survives stop");
        let _ = got;
        queue.complete();
        assert!(next_event(&queue).is_none());
    }

    #[test]
    fn external_pushes_are_rejected_after_stop_but_internal_ones_drain() {
        let queue = RunQueue::new(2);
        assert!(
            queue.push_external_batch(&mut vec![event(1)]),
            "accepted while running"
        );
        queue.stop();
        assert!(
            !queue.push_external_batch(&mut vec![event(2)]),
            "rejected once stopping"
        );
        // Internal (cascade) pushes are still accepted and drainable.
        queue.push(event(3));
        assert_eq!(queue.len(), 2);
        while next_event(&queue).is_some() {
            queue.complete();
        }
        assert!(queue.is_idle());
    }

    #[test]
    fn external_batch_is_rejected_whole_once_stopping() {
        let queue = RunQueue::new(2);
        let mut accepted = (0..5).map(event).collect();
        assert!(
            queue.push_external_batch(&mut accepted),
            "accepted while running"
        );
        assert!(accepted.is_empty(), "a queued batch is drained");
        queue.stop();
        let mut refused = (5..10).map(event).collect();
        assert!(
            !queue.push_external_batch(&mut refused),
            "rejected once stopping"
        );
        assert_eq!(refused.len(), 5, "a refused batch is left to its caller");
        assert_eq!(queue.len(), 5);
        while next_event(&queue).is_some() {
            queue.complete();
        }
        assert!(queue.is_idle());
    }

    /// External batches racing stop() are queued or refused whole: every
    /// round, each batch's eight events are dispatched exactly once or not
    /// at all, no batch is queued after a refused one, and the queue always
    /// reaches idle.
    #[test]
    fn external_batch_straddling_stop_keeps_accounting_exact() {
        for round in 0..50 {
            let queue = Arc::new(RunQueue::new(2));
            let consumed = Arc::new(AtomicUsize::new(0));
            let consumer = {
                let queue = Arc::clone(&queue);
                let consumed = Arc::clone(&consumed);
                std::thread::spawn(move || loop {
                    let batch = queue.next_batch(4);
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
                    // publisher's first batch, sometimes between batches,
                    // sometimes after the last.
                    if round % 3 == 0 {
                        std::thread::yield_now();
                    }
                    queue.stop();
                })
            };
            let outcomes: Vec<bool> = (0..4)
                .map(|chunk| {
                    let mut batch = (chunk * 8..(chunk + 1) * 8).map(event).collect();
                    let queued = queue.push_external_batch(&mut batch);
                    assert_eq!(batch.len(), if queued { 0 } else { 8 }, "round {round}");
                    queued
                })
                .collect();
            stopper.join().unwrap();
            consumer.join().unwrap();
            assert!(queue.is_idle(), "round {round}: queue must settle idle");
            assert!(
                outcomes.windows(2).all(|pair| pair[0] || !pair[1]),
                "round {round}: nothing is queued after a refusal: {outcomes:?}"
            );
            let queued = outcomes.iter().filter(|&&queued| queued).count();
            assert_eq!(
                consumed.load(Ordering::SeqCst),
                8 * queued,
                "round {round}: every queued batch is dispatched whole, exactly once"
            );
        }
    }

    #[test]
    fn wait_idle_times_out_while_in_flight() {
        let queue = RunQueue::new(1);
        queue.push(event(1));
        assert_eq!(queue.pop_batch(1).len(), 1);
        let deadline = |ms| Instant::now() + Duration::from_millis(ms);
        assert!(!queue.wait_idle(deadline(20)));
        queue.complete();
        assert!(queue.wait_idle(deadline(100)));
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
                let event = next_event(&queue);
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
            std::thread::spawn(move || next_event(&queue))
        };
        std::thread::sleep(Duration::from_millis(100));
        queue.stop();
        assert!(
            consumer.join().unwrap().is_none(),
            "stop on an idle queue releases parked consumers"
        );
    }

    /// A consumer finding work queued but the only slot held parks (its wait
    /// is untimed), and giving the slot back is what wakes it.
    #[test]
    fn a_held_slot_parks_consumers_until_it_is_given_back() {
        let queue = Arc::new(RunQueue::new(1));
        let slot = queue.take_slot().expect("a fresh queue has a free slot");
        assert!(queue.take_slot().is_none(), "one slot at one worker");
        queue.push(event(1));
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || next_event(&queue).map(|event| event_value(&event)))
        };
        std::thread::sleep(Duration::from_millis(100));
        assert!(!consumer.is_finished(), "no consumer pops without a slot");
        assert_eq!(queue.len(), 1);
        drop(slot);
        assert_eq!(consumer.join().unwrap(), Some(1));
        assert!(queue.has_free_slot(), "the consumer gave its slot back");
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
        let batch = queue.pop_batch(4); // depth 8 -> 4, below the target
        assert!(
            waiter.join().unwrap(),
            "a pop dropping depth below the target must release the waiter"
        );
        queue.complete_many(batch.len());

        // A stopping queue releases blocked admitters even at depth.
        queue.stop();
        assert!(queue.wait_depth_below(1, Duration::from_secs(5)));
    }

    /// A pop itself wakes a thread parked on the depth signal: each of the
    /// rounds parks a waiter for `popped ≥ round`, pops one event, and times
    /// the waiter's release. On a 2-vCPU host the median release reads about
    /// 11 µs; with the pop's wake removed, the 1 ms backstop releases it after
    /// about 1.05 ms.
    #[test]
    fn a_pop_wakes_a_depth_waiter_without_the_backstop() {
        const ROUNDS: u64 = 200;
        let queue = Arc::new(RunQueue::new(1));
        let (released_tx, released_rx) = std::sync::mpsc::channel();
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                for round in 1..=ROUNDS {
                    let ready = || queue.popped() >= round;
                    assert!(queue.wait_on_depth_signal(ready, Duration::from_secs(10)));
                    released_tx.send(Instant::now()).unwrap();
                }
            })
        };
        let mut latencies = Vec::new();
        for _ in 0..ROUNDS {
            queue.push(event(0));
            while queue.depth_waiters.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            // The waiter registers under the signal lock and releases it only
            // inside its wait, so once the lock is free again it is parked.
            drop(queue.signal_lock.lock());
            let popped_at = Instant::now();
            assert_eq!(queue.pop_batch(1).len(), 1);
            queue.complete();
            let released_at = released_rx.recv().unwrap();
            latencies.push(released_at.saturating_duration_since(popped_at));
        }
        waiter.join().unwrap();
        latencies.sort();
        let median = latencies[latencies.len() / 2];
        assert!(
            median < Duration::from_micros(300),
            "median release {median:?} after a pop; the backstop alone gives about 1 ms"
        );
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
            .map(|_| {
                let queue = Arc::clone(&queue);
                let consumed = Arc::clone(&consumed);
                std::thread::spawn(move || {
                    while let Some(_event) = next_event(&queue) {
                        consumed.fetch_add(1, Ordering::Relaxed);
                        queue.complete();
                    }
                })
            })
            .collect();

        for producer in producers {
            producer.join().unwrap();
        }
        wait_drained(&queue);
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
            .map(|_| {
                let queue = Arc::clone(&queue);
                let consumed = Arc::clone(&consumed);
                std::thread::spawn(move || loop {
                    let batch = queue.next_batch(8);
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
        wait_drained(&queue);
        queue.stop();
        for consumer in consumers {
            consumer.join().unwrap();
        }
        assert_eq!(consumed.load(Ordering::Relaxed), produced);
        assert!(queue.is_idle());
    }
}
