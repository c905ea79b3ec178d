//! Typed admission results and the grouped ingress configuration.
//!
//! The v2 publish API returned a bare `usize` from
//! [`Publisher::publish_batch`](crate::Publisher::publish_batch), so callers
//! could not distinguish "accepted" from "shed" from "would block". This module
//! is the redesigned surface: every batched publish reports a typed
//! [`Admission`], the non-blocking
//! [`try_publish_batch`](crate::Publisher::try_publish_batch) returns a
//! [`TryPublish`] that hands un-admitted drafts back to the caller, and the
//! knobs governing bounded admission live in one [`IngressConfig`] handed to
//! [`EngineBuilder::ingress`](crate::EngineBuilder::ingress) — mirroring how
//! [`WalConfig`](defcon_durability::WalConfig) groups the durability knobs.
//!
//! Admission reads the run queue's lock-free `len` as its depth signal — the
//! same number `queue_stats().depth` reports — so what an operator sees and
//! what admission decides on never disagree about how backlogged the engine
//! is.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::handle::EventDraft;

/// The outcome of a batched publish: how many events were accepted for
/// dispatch, how many were shed by an admission policy, and how many times the
/// publish stalled waiting for credit. Replaces the bare `usize` the v2 API
/// returned.
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
    /// Builds an admission result from its three counters.
    pub fn new(accepted: usize, shed: usize, credit_waits: usize) -> Self {
        Admission {
            accepted,
            shed,
            credit_waits,
        }
    }

    /// Events accepted for dispatch — exactly the number that will be
    /// dispatched (a batch racing shutdown may be partially accepted).
    pub fn accepted(&self) -> usize {
        self.accepted
    }

    /// Events dropped by an admission policy (or a shutdown race) instead of
    /// being enqueued. Zero on the unbounded direct publish path unless the
    /// runtime is shutting down.
    pub fn shed(&self) -> usize {
        self.shed
    }

    /// Times the publish stalled waiting for credit or queue space before
    /// completing. Zero on the direct publish path; ingress sessions under the
    /// `Block` policy report their stalls here.
    pub fn credit_waits(&self) -> usize {
        self.credit_waits
    }

    /// Folds another admission result into this one (a session aggregates one
    /// `Admission` per submitted chunk).
    pub fn merge(&mut self, other: Admission) {
        self.accepted += other.accepted;
        self.shed += other.shed;
        self.credit_waits += other.credit_waits;
    }
}

/// Result of a non-blocking [`try_publish_batch`](crate::Publisher::try_publish_batch):
/// either the batch was admitted (with its typed [`Admission`]), or admitting
/// it would overflow the configured queue bound and the drafts are handed back
/// untouched so the caller can retry, shed, or buffer them.
#[derive(Debug)]
#[must_use = "a TryPublish may hand the drafts back; dropping it loses them"]
pub enum TryPublish {
    /// The batch was admitted; the admission reports exact accounting.
    Admitted(Admission),
    /// Admitting the batch would push queued depth past
    /// [`IngressConfig::queue_bound`]; nothing was enqueued.
    WouldBlock {
        /// The unmodified drafts, returned so the caller decides their fate.
        drafts: Vec<EventDraft>,
    },
}

/// What an ingress session (or a direct `try_publish_batch` caller) does when
/// admitting more events would overflow the configured bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FullQueuePolicy {
    /// Apply backpressure: the submitter blocks until credit frees up. No
    /// event is ever dropped; slow consumers slow their producers down.
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
/// When set, [`try_publish_batch`](crate::Publisher::try_publish_batch)
/// enforces `queue_bound` on run-queue depth, and an ingress tier built over
/// the engine paces its sessions with `credit_window` credits under the
/// configured [`FullQueuePolicy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngressConfig {
    /// Maximum run-queue depth admitted publishes may build up. A
    /// `try_publish_batch` that would push queued depth past this bound
    /// returns [`TryPublish::WouldBlock`] instead of enqueueing. Unrelated to
    /// cascade publications, which are never blocked (a dispatch in flight
    /// must always be able to publish).
    pub queue_bound: usize,
    /// Per-session credit window: the number of events one ingress session may
    /// have submitted-but-not-yet-drained at a time. Credits replenish as the
    /// session observes its events drain through dispatch.
    pub credit_window: usize,
    /// What happens when a session's window is full (see [`FullQueuePolicy`]).
    pub policy: FullQueuePolicy,
    /// OS threads the ingress executor drives sessions on (at least 1); many
    /// logical sessions multiplex onto each thread.
    pub executor_threads: usize,
}

impl IngressConfig {
    /// An ingress configuration bounding run-queue depth at `queue_bound`,
    /// with the default credit window (64), the `Block` policy and one
    /// executor thread.
    pub fn new(queue_bound: usize) -> Self {
        IngressConfig {
            queue_bound: queue_bound.max(1),
            credit_window: 64,
            policy: FullQueuePolicy::Block,
            executor_threads: 1,
        }
    }

    /// Sets the per-session credit window (clamped to at least 1).
    pub fn credit_window(mut self, credits: usize) -> Self {
        self.credit_window = credits.max(1);
        self
    }

    /// Sets the full-queue policy.
    pub fn policy(mut self, policy: FullQueuePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the executor thread count (clamped to at least 1).
    pub fn executor_threads(mut self, threads: usize) -> Self {
        self.executor_threads = threads.max(1);
        self
    }
}

impl Default for IngressConfig {
    fn default() -> Self {
        IngressConfig::new(1024)
    }
}

/// The engine-side admission ledger: reservation state for the depth bound
/// plus the shed/admit/credit-stall counters `queue_stats()` exports — the
/// ingress tier records into these so operators read one set of numbers.
#[derive(Debug, Default)]
pub struct AdmissionCounters {
    /// Depth reserved by in-progress `try_publish_batch` calls: admission
    /// checks `depth + reserved + k <= bound` so concurrent admitters can
    /// never jointly overshoot the bound.
    pub(crate) reserved: AtomicUsize,
    pub(crate) admitted: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) credit_stalls: AtomicU64,
}

impl AdmissionCounters {
    /// Events admitted through the admission layer (`try_publish_batch` and
    /// ingress sessions); direct `publish_batch` calls bypass it.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Events shed by a full-queue policy (loud accounting: every dropped
    /// event lands here).
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Times a submitter stalled on an exhausted credit window or a full
    /// queue.
    pub fn credit_stalls(&self) -> u64 {
        self.credit_stalls.load(Ordering::Relaxed)
    }

    /// Records events admitted through the admission layer.
    pub fn record_admitted(&self, events: u64) {
        self.admitted.fetch_add(events, Ordering::Relaxed);
    }

    /// Records events shed by a full-queue policy.
    pub fn record_shed(&self, events: u64) {
        self.shed.fetch_add(events, Ordering::Relaxed);
    }

    /// Records submitter stalls on credit or queue space.
    pub fn record_credit_stalls(&self, stalls: u64) {
        self.credit_stalls.fetch_add(stalls, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_accessors_and_merge() {
        let mut total = Admission::default();
        assert_eq!(
            (total.accepted(), total.shed(), total.credit_waits()),
            (0, 0, 0)
        );
        total.merge(Admission::new(8, 2, 1));
        total.merge(Admission::new(4, 0, 3));
        assert_eq!(total.accepted(), 12);
        assert_eq!(total.shed(), 2);
        assert_eq!(total.credit_waits(), 4);
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
            .policy(FullQueuePolicy::ShedOldest)
            .executor_threads(0);
        assert_eq!(config.queue_bound, 1);
        assert_eq!(config.credit_window, 1);
        assert_eq!(config.policy, FullQueuePolicy::ShedOldest);
        assert_eq!(config.executor_threads, 1);
    }

    #[test]
    fn counters_accumulate() {
        let counters = AdmissionCounters::default();
        counters.record_admitted(10);
        counters.record_shed(3);
        counters.record_credit_stalls(2);
        counters.record_admitted(5);
        assert_eq!(counters.admitted(), 15);
        assert_eq!(counters.shed(), 3);
        assert_eq!(counters.credit_stalls(), 2);
    }
}
