//! The engine's run queue.
//!
//! Published-but-not-yet-dispatched events live here, in one FIFO queue:
//! runs pop in the order they were queued, whoever pops them. The engine
//! promises no dispatch order across concurrent workers, only that each
//! event's deliveries happen in subscription order and that deliveries to one
//! unit are serialised (by the per-unit mutex, not by the queue).
//!
//! Consumers pop in *batches*: [`RunQueue::pop_batch_into`] drains a run of
//! up to `max` events under a single lock acquisition, and the paired
//! [`BatchGuard`] settles the in-flight accounting for the entire batch with
//! one update and one wakeup check. A batch size of 1 degenerates to the
//! classic one-event-per-lock behaviour.
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
//! ([`BatchGuard::hold_unless_spill`]). Only while a worker is parked *and* a
//! slot is free does a cascade block go to the queue, so the idle worker can
//! take it.
//!
//! # One lock
//!
//! The queue is a monitor: one mutex guards the deque and every counter (pops,
//! pending events, the stopping flag, free slots, the parked, idle and depth
//! waiters, and the depth credit windows have reserved), and every wait is a
//! condvar wait on it. A waiter checks its condition, counts itself and parks
//! in one critical section, and whoever changes that condition does so under
//! the same lock, so it either sees the waiter counted and notifies it, or the
//! waiter's check sees the change. No wake is lost and nothing polls: an idle
//! engine's workers sleep silently. A notify is a wake syscall even when no
//! thread waits, so every hot-path notify is gated by its waiter count.
//!
//! The lock is a leaf: no code outside this module runs while it is held. The
//! write-ahead log's lock and a credit window's lock are taken before it, never
//! under it.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use defcon_events::Event;
use parking_lot::{Condvar, Mutex, MutexGuard};

/// A multi-producer multi-consumer queue of events awaiting dispatch.
pub(crate) struct RunQueue {
    state: Mutex<State>,
    /// Signalled when work arrives, a slot is given back over queued work,
    /// the queue stops, or a stopping queue becomes idle.
    work: Condvar,
    /// Signalled when the queue becomes idle, work arrives while no worker is
    /// parked, a slot is given back over queued work, or the queue stops.
    idle: Condvar,
    /// Signalled when events are popped, or the queue stops.
    depth: Condvar,
}

/// Everything the queue knows, under its one lock.
#[derive(Default)]
struct State {
    queue: VecDeque<Event>,
    /// Events ever popped off the queue.
    popped: u64,
    /// Events accepted but not yet *completed* (queued + in flight): the
    /// queue is idle when this is zero.
    pending: usize,
    /// Set by [`RunQueue::stop`]; workers exit once the queue is fully idle.
    stopping: bool,
    /// Dispatch slots not held by any thread (see the module docs).
    free_slots: usize,
    /// Workers parked on `work`.
    parked: usize,
    /// Callers of [`RunQueue::wait_idle`] parked on `idle`.
    idle_waiters: usize,
    /// Threads parked on `depth`.
    depth_waiters: usize,
    /// Depth credit windows reserved and have not queued yet (see
    /// [`RunQueue::reserve`]).
    reserved: usize,
}

impl State {
    /// Whether a consumer without a slot could dispatch now: work is queued
    /// and a slot is free.
    fn has_takeable_work(&self) -> bool {
        !self.queue.is_empty() && self.free_slots > 0
    }
}

impl RunQueue {
    /// Creates a queue with `slots` dispatch slots (at least one).
    pub(crate) fn new(slots: usize) -> Self {
        RunQueue {
            state: Mutex::new(State {
                free_slots: slots.max(1),
                ..State::default()
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            depth: Condvar::new(),
        }
    }

    /// Number of events currently queued (not counting in-flight dispatches).
    pub(crate) fn len(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Queued depth and in-flight events (popped or held, not yet completed),
    /// read together.
    pub(crate) fn depth_and_in_flight(&self) -> (usize, usize) {
        let state = self.state.lock();
        (state.queue.len(), state.pending - state.queue.len())
    }

    /// Queued depth and the events popped so far, read together: their sum
    /// is the pop count by which everything queued now has left the queue.
    pub(crate) fn depth_and_popped(&self) -> (usize, u64) {
        let state = self.state.lock();
        (state.queue.len(), state.popped)
    }

    /// Takes a free dispatch slot, or returns `None` when every slot is held.
    /// The slot is given back when the guard drops, waking a parked consumer
    /// if work is queued.
    pub(crate) fn take_slot(&self) -> Option<SlotGuard<'_>> {
        let mut state = self.state.lock();
        if state.free_slots == 0 {
            return None;
        }
        state.free_slots -= 1;
        Some(SlotGuard { queue: self })
    }

    /// Returns `true` if nothing is queued and nothing is being dispatched.
    #[cfg(test)]
    fn is_idle(&self) -> bool {
        self.state.lock().pending == 0
    }

    /// Enqueues a block of events from *inside* dispatch (cascades spilled to
    /// a parked worker). Always accepted: the publishing dispatch is in
    /// flight, so stopping workers cannot have exited yet and the events are
    /// guaranteed to drain.
    pub(crate) fn push_batch(&self, mut events: Vec<Event>) {
        self.insert(self.state.lock(), &mut events);
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
    /// [`RunQueue::stop`] sets the flag under the same lock, so a batch
    /// queued before the stop is dispatched by the stopping workers (or the
    /// final drain), and a batch after it never reaches the queue.
    pub(crate) fn push_external_batch(&self, events: &mut Vec<Event>) -> bool {
        let state = self.state.lock();
        if state.stopping {
            return false;
        }
        self.insert(state, events);
        true
    }

    /// Queues every event of `events` in order under the held lock, draining
    /// the buffer, then releases the lock and wakes consumers.
    fn insert(&self, mut state: MutexGuard<'_, State>, events: &mut Vec<Event>) {
        let n = events.len();
        if n == 0 {
            return;
        }
        // `pending` only falls when a batch settles, so an event counts from
        // its insert until its dispatch completes.
        state.pending += n;
        state.queue.extend(events.drain(..));
        let (parked, idle_waiters) = (state.parked, state.idle_waiters);
        drop(state);
        if parked > 0 && n > 1 {
            // A batch can feed several workers (each pops a run of it).
            self.work.notify_all();
        } else if parked > 0 {
            self.work.notify_one();
        } else if idle_waiters > 0 {
            // No worker is parked, so a thread waiting for idleness is the
            // one to dispatch this (at `workers(0)` the only one).
            self.idle.notify_all();
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
        self.pop_locked(self.state.lock(), max, out)
    }

    /// [`RunQueue::pop_batch_into`] under the held lock, which it releases
    /// before waking the threads waiting for depth to drop.
    fn pop_locked(
        &self,
        mut state: MutexGuard<'_, State>,
        max: usize,
        out: &mut Vec<Event>,
    ) -> usize {
        let take = state.queue.len().min(max.max(1));
        out.extend(state.queue.drain(..take));
        state.popped += take as u64;
        let watched = take > 0 && state.depth_waiters > 0;
        drop(state);
        if watched {
            self.depth.notify_all();
        }
        take
    }

    /// Blocks until queued depth is below `target`, the queue starts
    /// stopping, or `timeout` elapses; returns `true` when depth is below
    /// `target` or the queue is stopping (a stopping queue drains, so blocked
    /// admitters should bail out rather than wait out the timeout).
    pub(crate) fn wait_depth_below(&self, target: usize, timeout: Duration) -> bool {
        self.wait_on_depth(
            |state| state.queue.len() < target || state.stopping,
            timeout,
        )
    }

    /// Blocks until the pop count reaches `target` or the queue is empty, or
    /// `timeout` elapses. An empty queue ends the wait because a credit
    /// window's room target may never be reached: it asks for at least one
    /// pop even when reservations, not depth, refused the chunk, and the
    /// reserving publisher's push may be refused.
    pub(crate) fn wait_popped(&self, target: u64, timeout: Duration) {
        self.wait_on_depth(
            |state| state.popped >= target || state.queue.is_empty(),
            timeout,
        );
    }

    /// Parks on `depth` until `ready` holds or `timeout` elapses (a timeout
    /// too large for an `Instant` never elapses); returns `ready`. The wait
    /// is untimed but for that timeout: every pop and `stop` wake it.
    fn wait_on_depth(&self, ready: impl Fn(&State) -> bool, timeout: Duration) -> bool {
        let deadline = Instant::now().checked_add(timeout);
        let mut state = self.state.lock();
        while !ready(&state) {
            let left = deadline.map(|deadline| deadline.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                return false;
            }
            state.depth_waiters += 1;
            match left {
                Some(left) => {
                    self.depth.wait_for(&mut state, left);
                }
                None => self.depth.wait(&mut state),
            }
            state.depth_waiters -= 1;
        }
        true
    }

    /// Reserves `events` of queue depth under `bound` for `enqueue`, runs it,
    /// and releases the reservation; returns its result, or `None` without
    /// running it when queued depth plus reservations plus `events` would
    /// pass `bound`. The check and the reservation are one step under the
    /// queue lock, the lock every push changes depth under, so concurrent
    /// credit windows never jointly overshoot the bound. `enqueue` runs
    /// without the lock; its events are counted twice between its push and
    /// the release, which is conservative.
    pub(crate) fn reserve<R>(
        &self,
        events: usize,
        bound: usize,
        enqueue: impl FnOnce() -> R,
    ) -> Option<R> {
        {
            let mut state = self.state.lock();
            if state.queue.len() + state.reserved + events > bound {
                return None;
            }
            state.reserved += events;
        }
        let enqueued = enqueue();
        self.state.lock().reserved -= events;
        Some(enqueued)
    }

    /// Marks one popped event's dispatch as finished.
    #[cfg(test)]
    fn complete(&self) {
        self.complete_many(1);
    }

    /// Marks `n` popped events' dispatches as finished in one accounting
    /// update, with a single idle check for the whole batch.
    fn complete_many(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut state = self.state.lock();
        state.pending -= n;
        let idle = state.pending == 0;
        let wake_idle = idle && state.idle_waiters > 0;
        // Stopping workers park on `work` until the queue is idle, then exit.
        let wake_workers = idle && state.stopping && state.parked > 0;
        drop(state);
        if wake_idle {
            self.idle.notify_all();
        }
        if wake_workers {
            self.work.notify_all();
        }
    }

    /// Returns a guard that settles the in-flight accounting for a batch of `n`
    /// popped events when dropped — one update and one wakeup check for the
    /// whole batch, balanced even if a dispatch panics mid-batch.
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
    fn next_batch(&self, max: usize) -> Vec<Event> {
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
        let mut state = self.state.lock();
        loop {
            if slot.is_none() && state.has_takeable_work() {
                state.free_slots -= 1;
                *slot = Some(SlotGuard { queue: self });
            }
            if slot.is_some() && !state.queue.is_empty() {
                return self.pop_locked(state, max, out);
            }
            // Nothing to pop: the queue is empty, or every slot is held. A
            // held slot is given back without a wakeup, since the queue is
            // empty (and without its guard's drop, which takes the lock).
            if let Some(held) = slot.take() {
                state.free_slots += 1;
                std::mem::forget(held);
            }
            if state.stopping && state.pending == 0 {
                return 0;
            }
            state.parked += 1;
            self.work.wait(&mut state);
            state.parked -= 1;
        }
    }

    /// Asks consumers to exit once the queue has fully drained. External
    /// batches are refused whole from this point on: the flag is set under
    /// the lock `push_external_batch` reads it under. It runs once, so it
    /// wakes every waiter ungated: workers to drain and exit, idle waiters,
    /// and blocked admitters, which observe the stop instead of waiting for
    /// a depth drop that may never come.
    pub(crate) fn stop(&self) {
        self.state.lock().stopping = true;
        self.work.notify_all();
        self.idle.notify_all();
        self.depth.notify_all();
    }

    /// Returns `true` once [`RunQueue::stop`] has been called.
    pub(crate) fn is_stopping(&self) -> bool {
        self.state.lock().stopping
    }

    /// The parking half of
    /// [`EngineHandle::wait_idle`](crate::EngineHandle::wait_idle): parks the
    /// caller until the queue is fully idle, holds work the caller could
    /// dispatch (queued events and a free slot), or `deadline` passes; returns
    /// whether the queue is idle. So it parks only while nothing is queued and
    /// a dispatch is in flight, or while every slot is held.
    pub(crate) fn wait_idle(&self, deadline: Instant) -> bool {
        let mut state = self.state.lock();
        let left = deadline.saturating_duration_since(Instant::now());
        if state.pending > 0 && !left.is_zero() && !state.has_takeable_work() {
            state.idle_waiters += 1;
            self.idle.wait_for(&mut state, left);
            state.idle_waiters -= 1;
        }
        state.pending == 0
    }
}

/// A dispatch slot taken by [`RunQueue::take_slot`], given back on drop
/// (also when its holder unwinds).
pub(crate) struct SlotGuard<'a> {
    queue: &'a RunQueue,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let queue = self.queue;
        let mut state = queue.state.lock();
        state.free_slots += 1;
        // A consumer that found work but no slot parked; the slot is free now.
        let queued = !state.queue.is_empty();
        let (parked, idle_waiters) = (queued && state.parked > 0, queued && state.idle_waiters > 0);
        drop(state);
        if parked {
            queue.work.notify_all();
        }
        if idle_waiters {
            queue.idle.notify_all();
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
    /// Counts `n` more events as in flight until this guard settles — the
    /// cascades a dispatcher keeps on its own stack instead of queueing them
    /// — unless a worker is parked and a slot is free: then it counts
    /// nothing and returns `false`, and the caller spills them to the queue,
    /// where the idle worker can take them.
    pub(crate) fn hold_unless_spill(&mut self, n: usize) -> bool {
        let mut state = self.queue.state.lock();
        if state.parked > 0 && state.free_slots > 0 {
            return false;
        }
        state.pending += n;
        self.remaining += n;
        true
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
    use std::sync::atomic::{AtomicUsize, Ordering};
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
        assert_eq!(
            queue.state.lock().free_slots,
            1,
            "the consumer gave its slot back"
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

    /// A pop itself wakes a thread parked on the depth condvar: each of the
    /// rounds parks a waiter for `popped ≥ round`, pops one event, and times
    /// the waiter's release. On a 2-vCPU host the median release reads about
    /// 11 µs. The wait is untimed, as a `Block` publisher's is, so with the
    /// pop's notify removed nothing releases the waiter, and the test fails
    /// after 10 s.
    #[test]
    fn a_pop_wakes_a_depth_waiter_without_the_backstop() {
        const ROUNDS: u64 = 200;
        let queue = Arc::new(RunQueue::new(1));
        let (released_tx, released_rx) = std::sync::mpsc::channel();
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                for round in 1..=ROUNDS {
                    let ready = |state: &State| state.popped >= round;
                    assert!(queue.wait_on_depth(ready, Duration::MAX));
                    released_tx.send(Instant::now()).unwrap();
                }
            })
        };
        let mut latencies = Vec::new();
        for _ in 0..ROUNDS {
            queue.push(event(0));
            // The waiter counts itself and parks in one critical section, so
            // once it is counted it is parked.
            while queue.state.lock().depth_waiters == 0 {
                std::thread::yield_now();
            }
            let popped_at = Instant::now();
            assert_eq!(queue.pop_batch(1).len(), 1);
            queue.complete();
            let released_at = released_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("only the pop's notify can release the waiter");
            latencies.push(released_at.saturating_duration_since(popped_at));
        }
        waiter.join().unwrap();
        latencies.sort();
        let median = latencies[latencies.len() / 2];
        assert!(
            median < Duration::from_micros(300),
            "median release {median:?} after a pop"
        );
    }

    /// The queue bound, scripted: two credit windows reserve, are refused,
    /// push, release and reserve again against one queue of bound 8. Each
    /// reservation is refused exactly when queued depth plus reservations
    /// plus its own events pass the bound, and after every step queued depth
    /// plus the reservations not queued yet stay within it.
    #[test]
    fn reservations_hold_the_queue_bound_step_by_step() {
        const BOUND: usize = 8;
        let queue = RunQueue::new(1);
        let push = |n: i64| queue.push_batch((0..n).map(event).collect());
        // `queued` of the reserved events are already in depth: a push counts
        // them twice until its reservation is released.
        let within_bound = |queued: usize| {
            let state = queue.state.lock();
            let promised = state.queue.len() + state.reserved - queued;
            assert!(
                promised <= BOUND,
                "{promised} events promised, bound {BOUND}"
            );
        };
        // A reserves 3 of the 8 and pushes them.
        let a = queue.reserve(3, BOUND, || {
            within_bound(0);
            // B: 0 queued + 3 reserved + 6 > 8 is refused; + 5 fits exactly.
            assert!(queue.reserve(6, BOUND, || ()).is_none(), "B's 6 refused");
            assert!(queue.reserve(5, BOUND, || within_bound(0)).is_some());
            within_bound(0);
            push(3);
            within_bound(3);
            // 3 queued + A's 3 still reserved + 3 > 8.
            assert!(queue.reserve(3, BOUND, || ()).is_none(), "B's 3 refused");
        });
        assert!(a.is_some(), "A's 3 fit an empty queue");
        within_bound(0);
        assert_eq!(queue.state.lock().reserved, 0, "A released");
        // B again: 3 queued + 0 reserved + 6 > 8 is refused; 5 fits exactly.
        assert!(queue.reserve(6, BOUND, || ()).is_none(), "B's 6 refused");
        let b = queue.reserve(5, BOUND, || {
            within_bound(0);
            // Full: A's one more event is refused.
            assert!(queue.reserve(1, BOUND, || ()).is_none(), "A's 1 refused");
            push(5);
            within_bound(5);
        });
        assert!(b.is_some(), "B's 5 fit");
        within_bound(0);
        assert_eq!(queue.len(), BOUND);
        // A pop makes room for exactly what it took.
        assert_eq!(queue.pop_batch(2).len(), 2);
        assert!(queue.reserve(3, BOUND, || ()).is_none(), "6 queued + 3 > 8");
        assert!(queue.reserve(2, BOUND, || push(2)).is_some());
        within_bound(0);
        assert_eq!(queue.len(), BOUND);
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
