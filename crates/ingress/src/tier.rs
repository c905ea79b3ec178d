//! The ingress tier: N sessions multiplexed over a small band of executor
//! threads, all funneling into one engine's batched publish path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use defcon_core::{Engine, EngineResult, IngressConfig, UnitId};

use crate::executor::Executor;
use crate::session::{SessionFuture, SessionHandle, SessionShared};

/// Final accounting snapshot returned by [`IngressTier::shutdown`], read from
/// the engine's admission ledger (the same numbers
/// [`queue_stats()`](defcon_core::Engine::queue_stats) exports live).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngressReport {
    /// Sessions the tier opened over its lifetime.
    pub sessions: usize,
    /// Events admitted onto the run queue through bounded publishes.
    pub admitted: u64,
    /// Events shed by full-queue policies (and lost to shutdown races).
    pub shed: u64,
    /// Credit-window and queue-bound stalls observed.
    pub credit_stalls: u64,
}

/// A credit-gated async ingress tier over one [`Engine`].
///
/// The tier owns a small band of executor threads (a poll-based reactor shim;
/// see the crate docs) and multiplexes every [`SessionHandle`] opened through
/// [`IngressTier::session`] across them round-robin. Each session buffers its
/// publisher's events under a per-session credit window and drains onto the
/// engine through the bounded
/// [`try_publish_batch`](defcon_core::Publisher::try_publish_batch) path, so
/// the run queue never exceeds the configured
/// [`queue_bound`](defcon_core::IngressConfig::queue_bound) on account of
/// ingress traffic.
///
/// The sizing knobs come from the engine's own
/// [`IngressConfig`](defcon_core::EngineBuilder::ingress); building a tier
/// over an engine without one uses [`IngressConfig::default`] for the session
/// credit windows, but the engine-side queue bound is then not enforced.
///
/// Shut the tier down **before** the engine handle: sessions complete by
/// observing their published events drain through dispatch.
pub struct IngressTier {
    engine: Engine,
    config: IngressConfig,
    executors: Vec<Executor>,
    next_executor: AtomicUsize,
    sessions: parking_lot::Mutex<Vec<Arc<SessionShared>>>,
    opened: AtomicUsize,
}

impl IngressTier {
    /// Builds a tier over `engine`, spawning the configured number of
    /// executor threads.
    pub fn new(engine: &Engine) -> Self {
        let config = engine.ingress_config().cloned().unwrap_or_default();
        let executors = (0..config.executor_threads.max(1))
            .map(|index| Executor::start(format!("defcon-ingress-{index}")))
            .collect();
        IngressTier {
            engine: engine.clone(),
            config,
            executors,
            next_executor: AtomicUsize::new(0),
            sessions: parking_lot::Mutex::new(Vec::new()),
            opened: AtomicUsize::new(0),
        }
    }

    /// The ingress configuration this tier runs under.
    pub fn config(&self) -> &IngressConfig {
        &self.config
    }

    /// Sessions opened over the tier's lifetime.
    pub fn session_count(&self) -> usize {
        self.opened.load(Ordering::Acquire)
    }

    /// Opens a logical publisher session publishing *as* `unit`, assigned to
    /// an executor thread round-robin. Fails like
    /// [`Engine::publisher`](defcon_core::Engine::publisher) when the
    /// unit is unknown or not startable.
    pub fn session(&self, unit: UnitId) -> EngineResult<SessionHandle> {
        let publisher = self.engine.publisher(unit)?;
        let shared = Arc::new(SessionShared::new());
        // One publish chunk must be admissible under the queue bound, or a
        // session could spin on WouldBlock forever.
        let chunk_size = self
            .engine
            .configured_batch_size()
            .max(1)
            .min(self.config.queue_bound);
        let future = SessionFuture {
            shared: Arc::clone(&shared),
            engine: self.engine.clone(),
            publisher,
            chunk_size,
            pending_chunks: std::collections::VecDeque::new(),
        };
        let slot = self.next_executor.fetch_add(1, Ordering::AcqRel) % self.executors.len();
        self.executors[slot].spawn(Box::pin(future));
        self.opened.fetch_add(1, Ordering::AcqRel);
        self.sessions.lock().push(Arc::clone(&shared));
        Ok(SessionHandle {
            shared,
            engine: self.engine.clone(),
            credit_window: self.config.credit_window.max(1),
            policy: self.config.policy,
        })
    }

    /// Blocks until every session the tier opened has drained (empty buffer,
    /// all published events observed through dispatch) or `timeout` elapses;
    /// returns whether all sessions drained.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let sessions = self.sessions.lock().clone();
        for shared in sessions {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            if !shared.wait_drained(deadline - now) {
                return false;
            }
        }
        true
    }

    /// Closes every session, drains the executors (each joins once its
    /// futures complete) and returns the final admission accounting.
    ///
    /// Call before [`EngineHandle::shutdown`](defcon_core::EngineHandle):
    /// sessions need the dispatch path alive to finish draining.
    pub fn shutdown(mut self) -> IngressReport {
        self.close_all();
        for executor in self.executors.drain(..) {
            executor.shutdown();
        }
        let counters = self.engine.admission();
        IngressReport {
            sessions: self.session_count(),
            admitted: counters.admitted(),
            shed: counters.shed(),
            credit_stalls: counters.credit_stalls(),
        }
    }

    fn close_all(&self) {
        for shared in self.sessions.lock().iter() {
            shared.close();
        }
    }
}

impl Drop for IngressTier {
    fn drop(&mut self) {
        // A dropped (not shut down) tier still closes its sessions so the
        // executor threads, joined by their own Drop, can exit.
        self.close_all();
    }
}

impl std::fmt::Debug for IngressTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngressTier")
            .field("sessions", &self.session_count())
            .field("executors", &self.executors.len())
            .field("config", &self.config)
            .finish()
    }
}
