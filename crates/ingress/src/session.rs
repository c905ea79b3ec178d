//! Ingress sessions: per-publisher credit windows over the batched publish
//! path.
//!
//! A session is two halves sharing one state block:
//!
//! * the [`SessionHandle`] a client driver holds — [`SessionHandle::submit`]
//!   applies the configured [`FullQueuePolicy`] against the session's credit
//!   window and buffers what it accepts;
//! * the `SessionFuture` an executor thread polls — it drains the buffer onto
//!   the engine through the bounded
//!   [`try_publish_batch`](defcon_core::Publisher::try_publish_batch) path and
//!   replenishes credits as it observes its events drain through dispatch.
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

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use defcon_core::{Admission, Engine, EventDraft, FullQueuePolicy, Publisher, TryPublish};
use parking_lot::{Condvar, Mutex};

/// How long a `Block`-policy submitter sleeps per wait slice before
/// re-checking its window (paired notifies normally wake it much sooner).
const SUBMIT_WAIT_SLICE: Duration = Duration::from_millis(5);

pub(crate) struct SessionState {
    /// Accepted-but-not-yet-published drafts, oldest first.
    pub(crate) inbox: VecDeque<EventDraft>,
    /// Events published to the engine whose drain has not been observed yet.
    pub(crate) outstanding: usize,
    /// Set by [`SessionHandle::close`] (and the tier's shutdown): no further
    /// submits are accepted and the future completes once drained.
    pub(crate) closed: bool,
    /// Set by the future when it completes (drained after close, or the
    /// engine shut down underneath it).
    pub(crate) done: bool,
}

impl SessionState {
    /// Events currently counted against the credit window.
    fn unfinished(&self) -> usize {
        self.inbox.len() + self.outstanding
    }
}

pub(crate) struct SessionShared {
    pub(crate) state: Mutex<SessionState>,
    /// Signalled when window space frees up (credits replenish, the session
    /// completes) — what `Block`-policy submitters park on.
    pub(crate) space_signal: Condvar,
    /// Signalled when the session becomes fully drained (empty inbox, no
    /// outstanding events) or completes.
    pub(crate) drain_signal: Condvar,
    /// The executor-side waker, registered by the future's poll; submits wake
    /// it so fresh work is published without waiting for a reactor tick.
    pub(crate) waker: Mutex<Option<Waker>>,
}

impl SessionShared {
    pub(crate) fn new() -> Self {
        SessionShared {
            state: Mutex::new(SessionState {
                inbox: VecDeque::new(),
                outstanding: 0,
                closed: false,
                done: false,
            }),
            space_signal: Condvar::new(),
            drain_signal: Condvar::new(),
            waker: Mutex::new(None),
        }
    }

    pub(crate) fn wake_session(&self) {
        if let Some(waker) = self.waker.lock().take() {
            waker.wake();
        }
    }

    /// Blocks until the session is drained (or done), or `timeout` elapses.
    pub(crate) fn wait_drained(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.state.lock();
        loop {
            if state.done || state.unfinished() == 0 {
                return true;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            self.drain_signal
                .wait_for(&mut state, (deadline - now).min(SUBMIT_WAIT_SLICE));
        }
    }

    /// Marks the session closed so the future drains and completes.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        self.space_signal.notify_all();
        drop(state);
        self.wake_session();
    }
}

/// A logical publisher session on an [`IngressTier`](crate::IngressTier).
///
/// `submit` never talks to the engine directly: it applies the session's
/// credit window and full-queue policy, buffers what it accepts, and the
/// executor-driven session future publishes the buffer through the bounded
/// admission path in engine-batch-sized chunks.
pub struct SessionHandle {
    pub(crate) shared: Arc<SessionShared>,
    pub(crate) engine: Engine,
    pub(crate) credit_window: usize,
    pub(crate) policy: FullQueuePolicy,
}

impl SessionHandle {
    /// Submits a chunk of drafts to the session under its credit window,
    /// returning the typed per-chunk [`Admission`]: how many drafts entered
    /// the window (`accepted`), how many the policy dropped (`shed`), and how
    /// many wait slices a `Block` submit spent stalled (`credit_waits`).
    ///
    /// * [`FullQueuePolicy::Block`] — backpressure: the call blocks until the
    ///   whole chunk fits (in window-sized instalments for chunks larger than
    ///   the window). Nothing is ever dropped while the engine is running.
    /// * [`FullQueuePolicy::ShedNewest`] — the part of the *incoming* chunk
    ///   that does not fit is dropped and counted.
    /// * [`FullQueuePolicy::ShedOldest`] — the *oldest buffered* drafts are
    ///   evicted to make room for the newest (conflation); a chunk larger
    ///   than the whole window additionally sheds its own oldest drafts.
    ///
    /// Every shed event and every stall is also recorded on the engine's
    /// [`admission()`](defcon_core::Engine::admission) ledger, so
    /// `queue_stats()` tells the same story as the per-chunk results.
    pub fn submit(&self, mut drafts: Vec<EventDraft>) -> Admission {
        let mut shed = 0usize;
        let mut credit_waits = 0usize;
        let mut accepted = 0usize;
        let window = self.credit_window;
        let mut state = self.shared.state.lock();
        loop {
            if state.closed || state.done {
                shed += drafts.len();
                drafts.clear();
                break;
            }
            let free = window.saturating_sub(state.unfinished());
            if drafts.len() <= free {
                accepted += drafts.len();
                state.inbox.extend(drafts.drain(..));
                break;
            }
            match self.policy {
                FullQueuePolicy::Block => {
                    // Feed what fits now, then wait for credits to replenish.
                    if free > 0 {
                        accepted += free;
                        state.inbox.extend(drafts.drain(..free));
                        drop(state);
                        self.shared.wake_session();
                        state = self.shared.state.lock();
                        continue;
                    }
                    credit_waits += 1;
                    self.engine.admission().record_credit_stalls(1);
                    self.shared
                        .space_signal
                        .wait_for(&mut state, SUBMIT_WAIT_SLICE);
                }
                FullQueuePolicy::ShedNewest => {
                    shed += drafts.len() - free;
                    drafts.truncate(free);
                    accepted += drafts.len();
                    state.inbox.extend(drafts.drain(..));
                    break;
                }
                FullQueuePolicy::ShedOldest => {
                    let need = drafts.len() - free;
                    // Evict buffered oldest first; `outstanding` events are
                    // already on the engine and cannot be recalled.
                    let evict = need.min(state.inbox.len());
                    state.inbox.drain(..evict);
                    shed += evict;
                    let still_over = need - evict;
                    if still_over > 0 {
                        // The chunk alone exceeds the window: its own oldest
                        // drafts are the stalest data and shed too.
                        drafts.drain(..still_over);
                        shed += still_over;
                    }
                    accepted += drafts.len();
                    state.inbox.extend(drafts.drain(..));
                    break;
                }
            }
        }
        drop(state);
        if shed > 0 {
            self.engine.admission().record_shed(shed as u64);
        }
        if accepted > 0 {
            self.shared.wake_session();
        }
        Admission::new(accepted, shed, credit_waits)
    }

    /// Blocks until everything this session accepted has been published *and*
    /// observed draining through dispatch (or the session completed), or
    /// `timeout` elapses; returns whether the session is drained.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        self.shared.wait_drained(timeout)
    }

    /// Closes the session: further submits shed loudly, and the session
    /// future completes once the buffer has drained.
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

/// The executor-driven half of a session (see the module docs).
pub(crate) struct SessionFuture {
    pub(crate) shared: Arc<SessionShared>,
    pub(crate) engine: Engine,
    pub(crate) publisher: Publisher,
    /// Events per publish chunk: the engine's batch size, clamped so one
    /// chunk can always fit under the engine's queue bound.
    pub(crate) chunk_size: usize,
    /// Published chunks awaiting their drain watermark, oldest first.
    pub(crate) pending_chunks: VecDeque<(u64, usize)>,
}

impl SessionFuture {
    /// Observes dispatch progress and returns credits for drained chunks.
    fn retire_drained(&mut self) {
        if self.pending_chunks.is_empty() {
            return;
        }
        let dequeued = self.engine.dequeued();
        // An empty queue also proves every queued chunk left it (dispatched
        // or withdrawn at stop), which keeps credits flowing across an
        // engine shutdown that withdrew events before they dispatched.
        let queue_empty = self.engine.queue_depth() == 0;
        let mut retired = 0usize;
        while let Some(&(watermark, count)) = self.pending_chunks.front() {
            if dequeued >= watermark || queue_empty {
                retired += count;
                self.pending_chunks.pop_front();
            } else {
                break;
            }
        }
        if retired > 0 {
            let mut state = self.shared.state.lock();
            state.outstanding -= retired;
            self.shared.space_signal.notify_all();
            if state.unfinished() == 0 {
                self.shared.drain_signal.notify_all();
            }
        }
    }

    /// Marks the session complete, shedding whatever could no longer be
    /// published (engine shutdown, executor abort) loudly. Idempotent.
    fn finish(&mut self, lost: usize) {
        let mut state = self.shared.state.lock();
        if state.done {
            return;
        }
        let abandoned = lost + state.inbox.len();
        state.inbox.clear();
        // Outstanding events were accepted by the engine and will (or did)
        // dispatch; they are not lost, but this future stops observing them.
        state.outstanding = 0;
        state.done = true;
        self.shared.space_signal.notify_all();
        self.shared.drain_signal.notify_all();
        drop(state);
        if abandoned > 0 {
            self.engine.admission().record_shed(abandoned as u64);
        }
    }
}

impl Drop for SessionFuture {
    fn drop(&mut self) {
        // An aborted executor drops unfinished futures: complete the session
        // loudly (buffered drafts count as shed, waiters are released) so
        // nothing blocks on a session that will never run again.
        self.finish(0);
    }
}

impl Future for SessionFuture {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        loop {
            this.retire_drained();

            // Take one publish chunk from the inbox, counting it as
            // outstanding immediately so the credit window never dips while
            // the chunk is in flight between buffer and queue.
            let (chunk, closed) = {
                let mut state = this.shared.state.lock();
                let take = state.inbox.len().min(this.chunk_size);
                let chunk: Vec<EventDraft> = state.inbox.drain(..take).collect();
                state.outstanding += chunk.len();
                (chunk, state.closed)
            };
            let chunk_len = chunk.len();

            if chunk.is_empty() {
                if closed && this.pending_chunks.is_empty() {
                    this.finish(0);
                    return Poll::Ready(());
                }
                // Idle (awaiting submits) or awaiting drain watermarks: the
                // submit path wakes us for new work, the executor's reactor
                // tick re-polls for drain progress.
                *this.shared.waker.lock() = Some(cx.waker().clone());
                return Poll::Pending;
            }

            match this.publisher.try_publish_batch(chunk) {
                Ok(TryPublish::Admitted(admission)) => {
                    // Watermark: once the queue's pops reach what is queued
                    // right now, this chunk has left the queue. Depth first
                    // (see `Engine::dequeued`).
                    let depth = this.engine.queue_depth() as u64;
                    let watermark = depth + this.engine.dequeued();
                    if admission.accepted() > 0 {
                        this.pending_chunks
                            .push_back((watermark, admission.accepted()));
                    }
                    // Anything that did not reach the queue (empty drafts,
                    // the withdrawn remainder of a shutdown race) releases
                    // its credit immediately.
                    let unqueued = chunk_len - admission.accepted();
                    if unqueued > 0 {
                        let mut state = this.shared.state.lock();
                        state.outstanding -= unqueued;
                        this.shared.space_signal.notify_all();
                        if state.unfinished() == 0 {
                            this.shared.drain_signal.notify_all();
                        }
                    }
                    if admission.shed() > 0 {
                        this.engine.admission().record_shed(admission.shed() as u64);
                    }
                }
                Ok(TryPublish::WouldBlock { drafts }) => {
                    // Queue at its bound: hand the chunk back to the buffer
                    // front (order preserved) and retry after the engine
                    // drains — the reactor tick plus the engine's depth
                    // signal bound the retry latency.
                    let stalled = drafts.len();
                    {
                        let mut state = this.shared.state.lock();
                        state.outstanding -= stalled;
                        for draft in drafts.into_iter().rev() {
                            state.inbox.push_front(draft);
                        }
                    }
                    this.engine.admission().record_credit_stalls(1);
                    *this.shared.waker.lock() = Some(cx.waker().clone());
                    return Poll::Pending;
                }
                Err(_) => {
                    // The runtime shut down underneath the session: nothing
                    // further can be published. The consumed chunk is lost —
                    // count it, drain the buffer and complete.
                    {
                        let mut state = this.shared.state.lock();
                        state.outstanding -= chunk_len;
                    }
                    this.finish(chunk_len);
                    return Poll::Ready(());
                }
            }
        }
    }
}
