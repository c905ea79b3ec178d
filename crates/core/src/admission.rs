//! Bounded admission: the [`IngressConfig`] handed to
//! [`EngineBuilder::ingress`](crate::EngineBuilder::ingress), the
//! [`FullQueuePolicy`] it names, the typed [`Admission`] every batched publish
//! reports, and the credit window a [`Publisher`] publishes through when the
//! engine has an ingress configuration.
//!
//! **The window.** Each [`Engine::publisher`](crate::Engine::publisher) call
//! opens one window, shared by that publisher's clones. At most
//! `credit_window` of its events may be *unfinished* at a time: buffered in
//! the window, or queued and not yet popped. Drain is observed
//! conservatively: each published chunk is stamped with a watermark of queue
//! depth plus the queue's pop count, read together just after the push, and
//! once the pop count passes the stamp, everything queued ahead of (and
//! including) the chunk has left the queue, so the chunk's credits return.
//! The stamp counts pops, not dispatches: cascades that dispatchers run off
//! their own stacks never pass through the queue, so they cannot return a
//! still-queued chunk's credits early. The stamp is read after the push, so
//! it may also count what other publishers queued meanwhile, which errs on
//! the safe side; the queue is FIFO, so once it has been empty every stamp
//! has passed.
//!
//! **Lazy retirement.** No thread watches a window: chunks whose watermark has
//! passed retire at the start of the publisher's next
//! [`publish_batch`](Publisher::publish_batch) or
//! [`wait_drained`](Publisher::wait_drained). A caller that has to wait
//! releases the window's mutex and waits on the run queue
//! (`RunQueue::wait_popped`), which every pop wakes, so credits return with
//! dispatch progress rather than on a timer.
//!
//! **The queue bound.** A chunk is published under a reservation of queue
//! depth (`RunQueue::reserve`), checked and taken under the run queue's
//! lock, so concurrent publishers never jointly push depth past the bound.
//! Admission decides on the same depth `queue_stats().depth` reports, so what
//! an operator sees and what admission decides on never disagree about how
//! backlogged the engine is.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::engine::EngineCore;
use crate::error::EngineResult;
use crate::handle::{EventDraft, Publisher};
use crate::run_queue::RunQueue;

/// The outcome of a batched publish: how many events were accepted, how many
/// were shed, and how many times the publish waited for credit.
///
/// Accessors instead of public fields (and no `Deref` to a count): call sites
/// must say *which* number they mean.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use = "an Admission reports shed events; ignoring it hides load shedding"]
pub struct Admission {
    accepted: usize,
    shed: usize,
    credit_waits: usize,
}

impl Admission {
    pub(crate) fn new(accepted: usize, shed: usize, credit_waits: usize) -> Self {
        Admission {
            accepted,
            shed,
            credit_waits,
        }
    }

    /// Events accepted for dispatch. Without a credit window this is exactly
    /// the number that will be dispatched: the batch's non-empty drafts. Under
    /// a window it counts the events that entered it: queued now, or buffered
    /// until the publisher's next call publishes them.
    pub fn accepted(&self) -> usize {
        self.accepted
    }

    /// Events a credit window's shed policy dropped instead of enqueueing,
    /// each also counted in `queue_stats().ingress_shed`; zero without a
    /// window.
    pub fn shed(&self) -> usize {
        self.shed
    }

    /// Times the publish waited for credit or queue room before completing.
    /// Only a [`Block`](FullQueuePolicy::Block) publisher under a credit
    /// window waits; zero otherwise.
    pub fn credit_waits(&self) -> usize {
        self.credit_waits
    }
}

/// What a publisher's credit window does with a publish that does not fit in
/// it, or that the queue bound refuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FullQueuePolicy {
    /// Apply backpressure: `publish_batch` waits until credit and queue room
    /// free up. No event is ever dropped; slow consumers slow their producers
    /// down.
    #[default]
    Block,
    /// Shed the *incoming* events: the newest arrivals are dropped (and
    /// loudly counted) while everything already buffered keeps its place.
    ShedNewest,
    /// Shed the *oldest* buffered events to make room for the newest —
    /// conflation, the policy a market-data feed wants (a stale tick is
    /// worthless once a fresher one exists).
    ShedOldest,
}

impl FullQueuePolicy {
    /// Stable lowercase name, used in bench records and metric keys.
    pub fn as_str(&self) -> &'static str {
        match self {
            FullQueuePolicy::Block => "block",
            FullQueuePolicy::ShedNewest => "shed-newest",
            FullQueuePolicy::ShedOldest => "shed-oldest",
        }
    }

    /// All three policies, in documentation order.
    pub fn all() -> [FullQueuePolicy; 3] {
        [
            FullQueuePolicy::Block,
            FullQueuePolicy::ShedNewest,
            FullQueuePolicy::ShedOldest,
        ]
    }
}

impl std::fmt::Display for FullQueuePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Bounded-admission configuration, grouped like
/// [`WalConfig`](defcon_durability::WalConfig) and handed to
/// [`EngineBuilder::ingress`](crate::EngineBuilder::ingress).
///
/// When set, every [`Publisher`] the engine hands out publishes through a
/// credit window of `credit_window` events under `policy`, and publishers
/// keep run-queue depth within `queue_bound`. Cascade publications and
/// publishes inside [`Engine::with_unit`](crate::Engine::with_unit) and
/// [`Publisher::with_context`] closures are never bounded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngressConfig {
    /// Maximum run-queue depth publishers may build up: a chunk that would
    /// push queued depth past it stays buffered in its publisher's window.
    /// Cascade publications are never refused (a dispatch in flight must
    /// always be able to publish).
    pub queue_bound: usize,
    /// Per-publisher credit window: the number of events one publisher (with
    /// its clones) may have accepted but not yet seen leave the run queue.
    pub credit_window: usize,
    /// What happens when a window is full (see [`FullQueuePolicy`]).
    pub policy: FullQueuePolicy,
}

impl IngressConfig {
    /// An ingress configuration bounding run-queue depth at `queue_bound`,
    /// with the default credit window (64) and the `Block` policy.
    pub fn new(queue_bound: usize) -> Self {
        IngressConfig {
            queue_bound: queue_bound.max(1),
            credit_window: 64,
            policy: FullQueuePolicy::Block,
        }
    }

    /// Sets the per-publisher credit window (clamped to at least 1).
    pub fn credit_window(mut self, credits: usize) -> Self {
        self.credit_window = credits.max(1);
        self
    }

    /// Sets the full-queue policy.
    pub fn policy(mut self, policy: FullQueuePolicy) -> Self {
        self.policy = policy;
        self
    }
}

impl Default for IngressConfig {
    fn default() -> Self {
        IngressConfig::new(1024)
    }
}

/// The engine's admission ledger: the counters `queue_stats()` exports as
/// `ingress_*`. Credit windows record into it.
#[derive(Debug, Default)]
pub(crate) struct AdmissionCounters {
    admitted: AtomicU64,
    shed: AtomicU64,
    credit_stalls: AtomicU64,
}

impl AdmissionCounters {
    /// Events credit windows published onto the run queue.
    pub(crate) fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Events credit windows shed (loud accounting: every dropped event lands
    /// here).
    pub(crate) fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Times a window found its credit exhausted or the queue at its bound.
    pub(crate) fn credit_stalls(&self) -> u64 {
        self.credit_stalls.load(Ordering::Relaxed)
    }

    fn record_admitted(&self, events: usize) {
        self.admitted.fetch_add(events as u64, Ordering::Relaxed);
    }

    fn record_shed(&self, events: usize) {
        if events > 0 {
            self.shed.fetch_add(events as u64, Ordering::Relaxed);
        }
    }

    fn record_credit_stall(&self) {
        self.credit_stalls.fetch_add(1, Ordering::Relaxed);
    }
}

/// A publisher's credit window (see the module docs): present on every
/// [`Publisher`] of an engine built with an [`IngressConfig`], and shared by
/// the publisher's clones, so one mutex keeps their events in FIFO order.
pub(crate) struct CreditWindow {
    state: Mutex<WindowState>,
    credit_window: usize,
    policy: FullQueuePolicy,
    queue_bound: usize,
    /// Events per publish chunk: the engine's batch size, clamped so one
    /// chunk always fits under the queue bound.
    chunk_size: usize,
}

#[derive(Default)]
struct WindowState {
    /// Accepted-but-not-yet-published drafts, oldest first: what the queue
    /// bound refused when they were accepted.
    inbox: VecDeque<EventDraft>,
    /// Published chunks awaiting their drain watermark, oldest first, as
    /// `(watermark, events)`.
    pending: VecDeque<(u64, usize)>,
    /// Events in `pending`, kept as a count: a shedding publisher may hold
    /// hundreds of one-event chunks.
    outstanding: usize,
}

impl WindowState {
    /// Events currently counted against the window: buffered, or published
    /// with their drain not observed yet.
    fn unfinished(&self) -> usize {
        self.inbox.len() + self.outstanding
    }
}

impl CreditWindow {
    pub(crate) fn new(config: &IngressConfig, batch_size: usize) -> Self {
        CreditWindow {
            state: Mutex::default(),
            credit_window: config.credit_window.max(1),
            policy: config.policy,
            queue_bound: config.queue_bound,
            chunk_size: batch_size.min(config.queue_bound).max(1),
        }
    }

    /// [`Publisher::publish_batch`] under the window: admits `drafts` under
    /// the window's policy and publishes what the window holds, in chunks, on
    /// the calling thread.
    pub(crate) fn publish(
        &self,
        publisher: &Publisher,
        mut drafts: Vec<EventDraft>,
    ) -> EngineResult<Admission> {
        // Empty drafts are dropped per Table 1 before they take a credit.
        drafts.retain(|draft| !draft.is_empty());
        let core = &*publisher.core;
        let (mut accepted, mut shed, mut credit_waits) = (0, 0, 0);
        let mut state = self.state.lock();
        let refused = loop {
            retire(&core.run_queue, &mut state);
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
                        // The publish alone exceeds the window: its own
                        // oldest drafts are the stalest data and shed too.
                        drafts.drain(..need - evict);
                        shed += need;
                        drafts.len()
                    }
                }
            };
            accepted += admit;
            state.inbox.extend(drafts.drain(..admit));
            let published = match self.publish_buffered(publisher, &mut state) {
                Ok(published) => published,
                Err(error) => break Some(error),
            };
            if self.policy != FullQueuePolicy::Block || (published && drafts.is_empty()) {
                break None;
            }
            // Block: wait for room under the queue bound, or for the oldest
            // chunk's credits.
            let target = match state.pending.front() {
                _ if !published => self.room_watermark(&core.run_queue, &state),
                Some(&(watermark, _)) => {
                    core.admission.record_credit_stall();
                    watermark
                }
                None => continue,
            };
            credit_waits += 1;
            drop(state);
            core.run_queue.wait_popped(target, Duration::MAX);
            state = self.state.lock();
        };
        drop(state);
        match refused {
            None => {
                core.admission.record_shed(shed);
                Ok(Admission::new(accepted, shed, credit_waits))
            }
            Some(error) => {
                // What this call had not yet admitted is lost with the
                // buffer `publish_buffered` shed.
                core.admission.record_shed(shed + drafts.len());
                Err(error)
            }
        }
    }

    /// [`Publisher::wait_drained`] under the window.
    pub(crate) fn wait_drained(&self, publisher: &Publisher, timeout: Duration) -> bool {
        let deadline = Instant::now().checked_add(timeout);
        let queue = &publisher.core.run_queue;
        let mut state = self.state.lock();
        loop {
            retire(queue, &mut state);
            if state.unfinished() == 0 {
                return true;
            }
            // A refused publish sheds the buffer; what was published still
            // drains.
            let published = self.publish_buffered(publisher, &mut state).unwrap_or(true);
            let target = match state.pending.back() {
                _ if !published => self.room_watermark(queue, &state),
                Some(&(watermark, _)) => watermark,
                None => continue,
            };
            let timeout = deadline.map_or(Duration::MAX, |deadline| {
                deadline.saturating_duration_since(Instant::now())
            });
            if timeout.is_zero() {
                return false;
            }
            // The mutex is released while waiting, so clones proceed.
            drop(state);
            queue.wait_popped(target, timeout);
            state = self.state.lock();
        }
    }

    /// Sheds what the window still buffers, loudly: the last clone of its
    /// publisher dropped, so nothing will publish it.
    pub(crate) fn close(self, core: &EngineCore) {
        core.admission
            .record_shed(self.state.into_inner().inbox.len());
    }

    /// Publishes the inbox, oldest first, in chunks. Returns `Ok(false)` when
    /// the queue bound refused a chunk, which then stays at the inbox front,
    /// and `Ok(true)` once the inbox is empty. When the engine refuses a
    /// chunk (a quarantined or removed unit, a stopped runtime), the chunk
    /// and the rest of the inbox can no longer be published: they are shed
    /// and the error returned.
    fn publish_buffered(
        &self,
        publisher: &Publisher,
        state: &mut WindowState,
    ) -> EngineResult<bool> {
        let core = &*publisher.core;
        let queue = &core.run_queue;
        while !state.inbox.is_empty() {
            let take = state.inbox.len().min(self.chunk_size);
            let chunk = || publisher.publish_unbounded(state.inbox.drain(..take).collect());
            let Some(published) = queue.reserve(take, self.queue_bound, chunk) else {
                core.admission.record_credit_stall();
                return Ok(false);
            };
            if let Err(error) = published {
                core.admission.record_shed(take + state.inbox.len());
                state.inbox.clear();
                return Err(error);
            }
            core.admission.record_admitted(take);
            // Watermark: once the queue's pops reach what is queued right
            // now, this chunk has left the queue.
            let (depth, popped) = queue.depth_and_popped();
            state.pending.push_back((depth as u64 + popped, take));
            state.outstanding += take;
        }
        Ok(true)
    }

    /// The pop count by which the queue, at its depth now, has room for the
    /// chunk at the inbox front again.
    fn room_watermark(&self, queue: &RunQueue, state: &WindowState) -> u64 {
        let want = state.inbox.len().min(self.chunk_size);
        let (depth, popped) = queue.depth_and_popped();
        // At least one pop: concurrent publishers' reservations can refuse a
        // chunk that the depth alone would admit.
        let excess = (depth + want).saturating_sub(self.queue_bound).max(1);
        popped + excess as u64
    }
}

/// Returns the credits of every chunk that has left the queue.
fn retire(queue: &RunQueue, state: &mut WindowState) {
    let (_, popped) = queue.depth_and_popped();
    while let Some(&(watermark, events)) = state.pending.front() {
        if popped < watermark {
            break;
        }
        state.outstanding -= events;
        state.pending.pop_front();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_accessors() {
        let admission = Admission::new(8, 2, 1);
        assert_eq!(admission.accepted(), 8);
        assert_eq!(admission.shed(), 2);
        assert_eq!(admission.credit_waits(), 1);
    }

    #[test]
    fn policy_names_are_stable_bench_keys() {
        let names: Vec<&str> = FullQueuePolicy::all()
            .iter()
            .map(FullQueuePolicy::as_str)
            .collect();
        assert_eq!(names, vec!["block", "shed-newest", "shed-oldest"]);
    }

    #[test]
    fn ingress_config_clamps_and_chains() {
        let config = IngressConfig::new(0)
            .credit_window(0)
            .policy(FullQueuePolicy::ShedOldest);
        assert_eq!(config.queue_bound, 1);
        assert_eq!(config.credit_window, 1);
        assert_eq!(config.policy, FullQueuePolicy::ShedOldest);
    }

    #[test]
    fn counters_accumulate() {
        let counters = AdmissionCounters::default();
        counters.record_admitted(10);
        counters.record_shed(3);
        counters.record_credit_stall();
        counters.record_credit_stall();
        counters.record_admitted(5);
        assert_eq!(counters.admitted(), 15);
        assert_eq!(counters.shed(), 3);
        assert_eq!(counters.credit_stalls(), 2);
    }
}
