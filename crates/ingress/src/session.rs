//! Ingress sessions: per-publisher credit windows over the bounded publish
//! path, run on the submitting thread.
//!
//! [`SessionHandle::submit`] applies the configured [`FullQueuePolicy`]
//! against the session's credit window and then publishes what the window
//! admits, in engine-batch-sized chunks, through the bounded
//! [`try_publish_batch`](defcon_core::Publisher::try_publish_batch) path. It
//! does so on the caller's thread, under the session's one mutex, so one
//! session's events reach the queue in the order they were submitted. No
//! thread runs on a session's behalf.
//!
//! **Credit semantics.** A session may have at most `credit_window` events
//! *unfinished* (buffered or published-but-not-yet-drained) at a time. Drain
//! is observed conservatively: each published chunk is stamped with a
//! watermark of `queue_depth() + dequeued()` at publish time — once the
//! engine's count of events taken off its queue passes the stamp, everything
//! that was queued ahead of (and including) the chunk has left the queue, so
//! the chunk's credits return. The stamp counts queue pops, not dispatches:
//! cascades that dispatchers run off their own stacks never pass through the
//! queue, so they cannot return a still-queued chunk's credits early. A slow
//! consumer therefore paces every session publishing into it, which is the
//! point.
//!
//! **Lazy retirement.** Nothing watches a session between calls: chunks
//! whose watermark has passed retire at the start of its next `submit` or
//! `wait_drained`. A caller that has to wait — a `Block` submit without
//! credit or queue room, a `wait_drained` — releases the session's mutex and
//! parks on [`Engine::wait_dequeued`], which every pop wakes, so credits
//! return with dispatch progress rather than on a timer.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use defcon_core::{Admission, Engine, EventDraft, FullQueuePolicy, Publisher, TryPublish};
use parking_lot::Mutex;

#[derive(Default)]
pub(crate) struct SessionState {
    /// Accepted-but-not-yet-published drafts, oldest first: what the queue
    /// bound refused when they were submitted.
    inbox: VecDeque<EventDraft>,
    /// Published chunks awaiting their drain watermark, oldest first, as
    /// `(watermark, events)`.
    pending: VecDeque<(u64, usize)>,
    /// Events in `pending`, kept as a count: a shedding session may hold
    /// hundreds of one-event chunks.
    outstanding: usize,
    /// Set by [`SessionHandle::close`] (and the tier's shutdown): further
    /// submits shed, while what the session holds still drains.
    closed: bool,
    /// Set once the session can publish no more: the tier shut down or was
    /// dropped, or a publish was refused for good.
    done: bool,
}

impl SessionState {
    /// Events currently counted against the credit window: buffered, or
    /// published with their drain not observed yet.
    fn unfinished(&self) -> usize {
        self.inbox.len() + self.outstanding
    }
}

pub(crate) struct SessionShared {
    pub(crate) state: Mutex<SessionState>,
    pub(crate) engine: Engine,
    pub(crate) publisher: Publisher,
    /// Events per publish chunk: the engine's batch size, clamped so one
    /// chunk can always fit under the engine's queue bound.
    pub(crate) chunk_size: usize,
}

impl SessionShared {
    /// Returns the credits of every chunk that has left the queue.
    fn retire(&self, state: &mut SessionState) {
        let dequeued = self.engine.dequeued();
        // An empty queue also proves every queued chunk left it (dispatched
        // or withdrawn at stop), which keeps credits flowing across an
        // engine shutdown that withdrew events before they dispatched.
        let queue_empty = self.engine.queue_depth() == 0;
        while let Some(&(watermark, events)) = state.pending.front() {
            if dequeued < watermark && !queue_empty {
                break;
            }
            state.outstanding -= events;
            state.pending.pop_front();
        }
    }

    /// Publishes the inbox, oldest first, in chunks. Returns `false` when the
    /// queue bound refused a chunk, which then stays at the inbox front;
    /// `true` once the inbox is empty or the session is done.
    fn publish_buffered(&self, state: &mut SessionState) -> bool {
        while !state.done && !state.inbox.is_empty() {
            let take = state.inbox.len().min(self.chunk_size);
            let chunk: Vec<EventDraft> = state.inbox.drain(..take).collect();
            match self.publisher.try_publish_batch(chunk) {
                Ok(TryPublish::Admitted(admission)) => {
                    // Watermark: once the queue's pops reach what is queued
                    // right now, this chunk has left the queue. Depth first
                    // (see `Engine::dequeued`).
                    let depth = self.engine.queue_depth() as u64;
                    let watermark = depth + self.engine.dequeued();
                    if admission.accepted() > 0 {
                        state.pending.push_back((watermark, admission.accepted()));
                        state.outstanding += admission.accepted();
                    }
                    // The rest never reached the queue and holds no credit:
                    // empty drafts are dropped per Table 1, and the withdrawn
                    // remainder of a shutdown race is shed.
                    if admission.shed() > 0 {
                        self.engine.admission().record_shed(admission.shed() as u64);
                    }
                }
                Ok(TryPublish::WouldBlock { drafts }) => {
                    for draft in drafts.into_iter().rev() {
                        state.inbox.push_front(draft);
                    }
                    self.engine.admission().record_credit_stalls(1);
                    return false;
                }
                Err(_) => {
                    // The unit is quarantined or gone, or the runtime shut
                    // down: nothing further can be published. The consumed
                    // chunk is lost; count it with the buffer and complete.
                    self.finish(state, take);
                }
            }
        }
        true
    }

    /// The pop count by which the queue, at its depth now, has room for the
    /// chunk at the inbox front again.
    fn room_watermark(&self, state: &SessionState) -> u64 {
        let want = state.inbox.len().min(self.chunk_size);
        let bound = self
            .engine
            .ingress_config()
            .map_or(usize::MAX, |config| config.queue_bound);
        let depth = self.engine.queue_depth();
        // At least one pop: concurrent admitters' reservations can refuse a
        // chunk that the depth alone would admit.
        let excess = (depth + want).saturating_sub(bound).max(1);
        self.engine.dequeued() + excess as u64
    }

    /// Publishes what is buffered and blocks until the session is drained
    /// (or done), or `deadline` passes; `None` waits without one.
    pub(crate) fn wait_drained(&self, deadline: Option<Instant>) -> bool {
        let mut state = self.state.lock();
        loop {
            self.retire(&mut state);
            if state.done || state.unfinished() == 0 {
                return true;
            }
            let published = self.publish_buffered(&mut state);
            let target = match state.pending.back() {
                _ if !published => self.room_watermark(&state),
                Some(&(watermark, _)) => watermark,
                None => continue,
            };
            let timeout = deadline.map_or(Duration::MAX, |deadline| {
                deadline.saturating_duration_since(Instant::now())
            });
            if timeout.is_zero() {
                return false;
            }
            // The mutex is released while waiting, so other callers proceed.
            drop(state);
            self.engine.wait_dequeued(target, timeout);
            state = self.state.lock();
        }
    }

    /// Marks the session closed: further submits shed.
    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
    }

    /// Marks the session done, shedding its buffer loudly. Idempotent.
    pub(crate) fn complete(&self) {
        self.finish(&mut self.state.lock(), 0);
    }

    /// Marks the session done, shedding what can no longer be published
    /// loudly: `lost` drafts already taken from the inbox, and the inbox.
    fn finish(&self, state: &mut SessionState, lost: usize) {
        if state.done {
            return;
        }
        let abandoned = lost + state.inbox.len();
        state.inbox.clear();
        // Published events were accepted by the engine and will (or did)
        // dispatch; they are not lost, but the session stops observing them.
        state.pending.clear();
        state.outstanding = 0;
        state.done = true;
        if abandoned > 0 {
            self.engine.admission().record_shed(abandoned as u64);
        }
    }
}

/// A logical publisher session on an [`IngressTier`](crate::IngressTier).
///
/// `submit` applies the session's credit window and full-queue policy and
/// publishes what it accepts on the calling thread, through the bounded
/// admission path in engine-batch-sized chunks (see the module docs).
pub struct SessionHandle {
    pub(crate) shared: Arc<SessionShared>,
    pub(crate) credit_window: usize,
    pub(crate) policy: FullQueuePolicy,
}

impl SessionHandle {
    /// Submits a chunk of drafts to the session under its credit window and
    /// publishes what the window admits before returning. The typed
    /// per-chunk [`Admission`] says how many drafts entered the window
    /// (`accepted`), how many the policy dropped (`shed`), and how many times
    /// a `Block` submit waited (`credit_waits`).
    ///
    /// * [`FullQueuePolicy::Block`] — backpressure: the call returns once the
    ///   whole chunk is published (in window-sized instalments for chunks
    ///   larger than the window), waiting on dispatch progress for credits
    ///   and for room under the queue bound. Nothing is ever dropped while
    ///   the engine is running. A waiting submit sees the session closed, or
    ///   the tier dropped, at the next pop.
    /// * [`FullQueuePolicy::ShedNewest`] — the part of the *incoming* chunk
    ///   that does not fit is dropped and counted.
    /// * [`FullQueuePolicy::ShedOldest`] — the *oldest buffered* drafts are
    ///   evicted to make room for the newest (conflation); a chunk larger
    ///   than the whole window additionally sheds its own oldest drafts.
    ///
    /// **The shed-policy remainder.** A shedding submit never waits. When the
    /// queue bound refuses a chunk, that chunk and everything after it stay
    /// buffered in the session: they keep counting against the window, and
    /// `ShedOldest` may still evict them. The session's next `submit`, its
    /// [`wait_drained`](SessionHandle::wait_drained), or the tier's
    /// [`drain`](crate::IngressTier::drain) or
    /// [`shutdown`](crate::IngressTier::shutdown) publishes them; no
    /// background thread does.
    ///
    /// Every shed event and every stall is also recorded on the engine's
    /// [`admission()`](defcon_core::Engine::admission) ledger, so
    /// `queue_stats()` tells the same story as the per-chunk results. Drafts
    /// that entered the window but whose publish the engine refused (a
    /// quarantined unit, a stopped runtime) count as shed on the ledger only.
    pub fn submit(&self, mut drafts: Vec<EventDraft>) -> Admission {
        let shared = &*self.shared;
        let (mut accepted, mut shed, mut credit_waits) = (0, 0, 0);
        let mut state = shared.state.lock();
        loop {
            shared.retire(&mut state);
            if state.closed || state.done {
                shed += drafts.len();
                break;
            }
            let free = self.credit_window.saturating_sub(state.unfinished());
            let admit = if drafts.len() <= free {
                drafts.len()
            } else {
                match self.policy {
                    FullQueuePolicy::Block => free,
                    FullQueuePolicy::ShedNewest => {
                        shed += drafts.len() - free;
                        drafts.truncate(free);
                        free
                    }
                    FullQueuePolicy::ShedOldest => {
                        let need = drafts.len() - free;
                        // Evict buffered oldest first; published events are
                        // already on the engine and cannot be recalled.
                        let evict = need.min(state.inbox.len());
                        state.inbox.drain(..evict);
                        // The chunk alone exceeds the window: its own oldest
                        // drafts are the stalest data and shed too.
                        drafts.drain(..need - evict);
                        shed += need;
                        drafts.len()
                    }
                }
            };
            accepted += admit;
            state.inbox.extend(drafts.drain(..admit));
            let published = shared.publish_buffered(&mut state);
            if self.policy != FullQueuePolicy::Block || (published && drafts.is_empty()) {
                break;
            }
            // Block: wait for room under the queue bound, or for the oldest
            // chunk's credits.
            let target = match state.pending.front() {
                _ if !published => shared.room_watermark(&state),
                Some(&(watermark, _)) => {
                    shared.engine.admission().record_credit_stalls(1);
                    watermark
                }
                None => continue,
            };
            credit_waits += 1;
            drop(state);
            shared.engine.wait_dequeued(target, Duration::MAX);
            state = shared.state.lock();
        }
        drop(state);
        if shed > 0 {
            shared.engine.admission().record_shed(shed as u64);
        }
        Admission::new(accepted, shed, credit_waits)
    }

    /// Publishes what this session holds buffered and blocks until
    /// everything it accepted has been observed draining through dispatch
    /// (or the session is done), or `timeout` elapses; returns whether the
    /// session is drained.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        self.shared
            .wait_drained(Instant::now().checked_add(timeout))
    }

    /// Closes the session: further submits shed loudly, while what it holds
    /// still drains.
    pub fn close(&self) {
        self.shared.close();
    }
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.state.lock();
        f.debug_struct("SessionHandle")
            .field("buffered", &state.inbox.len())
            .field("outstanding", &state.outstanding)
            .field("closed", &state.closed)
            .field("credit_window", &self.credit_window)
            .field("policy", &self.policy)
            .finish()
    }
}
