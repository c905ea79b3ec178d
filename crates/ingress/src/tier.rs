//! The ingress tier: N sessions over one engine, each publishing on the
//! thread that submits to it, all into the engine's bounded publish path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use defcon_core::{Engine, EngineResult, IngressConfig, UnitId};
use parking_lot::Mutex;

use crate::session::{SessionHandle, SessionShared};

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

/// A credit-gated ingress tier over one [`Engine`].
///
/// Every [`SessionHandle`] opened through [`IngressTier::session`] holds its
/// publisher's events under a per-session credit window and publishes them
/// on the submitting thread through the bounded
/// [`try_publish_batch`](defcon_core::Publisher::try_publish_batch) path, so
/// the run queue never exceeds the configured
/// [`queue_bound`](defcon_core::IngressConfig::queue_bound) on account of
/// ingress traffic. The tier runs no threads: it keeps its sessions so that
/// [`drain`](IngressTier::drain) and [`shutdown`](IngressTier::shutdown) can
/// publish what shedding sessions left buffered and wait for everything to
/// drain.
///
/// The sizing knobs come from the engine's own
/// [`IngressConfig`](defcon_core::EngineBuilder::ingress); building a tier
/// over an engine without one uses [`IngressConfig::default`] for the session
/// credit windows, but the engine-side queue bound is then not enforced.
///
/// Shut the tier down **before** the engine handle: sessions finish by
/// observing their published events drain through dispatch.
pub struct IngressTier {
    engine: Engine,
    config: IngressConfig,
    sessions: Mutex<Vec<Arc<SessionShared>>>,
}

impl IngressTier {
    /// Builds a tier over `engine`.
    pub fn new(engine: &Engine) -> Self {
        IngressTier {
            engine: engine.clone(),
            config: engine.ingress_config().cloned().unwrap_or_default(),
            sessions: Mutex::new(Vec::new()),
        }
    }

    /// The ingress configuration this tier runs under.
    pub fn config(&self) -> &IngressConfig {
        &self.config
    }

    /// Sessions opened over the tier's lifetime.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Opens a logical publisher session publishing *as* `unit`. Fails like
    /// [`Engine::publisher`](defcon_core::Engine::publisher) when the unit is
    /// unknown or not startable.
    pub fn session(&self, unit: UnitId) -> EngineResult<SessionHandle> {
        // One publish chunk must be admissible under the queue bound, or a
        // session could wait for room forever.
        let chunk_size = self.engine.configured_batch_size().max(1);
        let shared = Arc::new(SessionShared {
            state: Default::default(),
            engine: self.engine.clone(),
            publisher: self.engine.publisher(unit)?,
            chunk_size: chunk_size.min(self.config.queue_bound),
        });
        self.sessions.lock().push(Arc::clone(&shared));
        Ok(SessionHandle {
            shared,
            credit_window: self.config.credit_window.max(1),
            policy: self.config.policy,
        })
    }

    /// Publishes what every session the tier opened holds buffered and
    /// blocks until each has drained (all published events observed through
    /// dispatch) or `timeout` elapses; returns whether all sessions drained.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now().checked_add(timeout);
        let sessions = self.sessions.lock().clone();
        sessions.iter().all(|shared| shared.wait_drained(deadline))
    }

    /// Closes every session, waits until each has drained, and returns the
    /// final admission accounting.
    ///
    /// Call before [`EngineHandle::shutdown`](defcon_core::EngineHandle):
    /// sessions need the dispatch path alive to finish draining.
    pub fn shutdown(self) -> IngressReport {
        let sessions = self.sessions.lock().clone();
        for shared in &sessions {
            shared.close();
        }
        // Drained sessions shed nothing when `drop(self)` marks them done.
        for shared in &sessions {
            shared.wait_drained(None);
        }
        let counters = self.engine.admission();
        IngressReport {
            sessions: sessions.len(),
            admitted: counters.admitted(),
            shed: counters.shed(),
            credit_stalls: counters.credit_stalls(),
        }
    }
}

impl Drop for IngressTier {
    fn drop(&mut self) {
        // A dropped (not shut down) tier publishes nothing more: its sessions
        // are done, and what they still buffer is shed loudly.
        for shared in self.sessions.lock().iter() {
            shared.complete();
        }
    }
}

impl std::fmt::Debug for IngressTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngressTier")
            .field("sessions", &self.session_count())
            .field("config", &self.config)
            .finish()
    }
}
