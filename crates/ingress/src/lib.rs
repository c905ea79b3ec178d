//! `defcon-ingress`: a forwarding adapter over [`Publisher`], kept only
//! because the benchmark package's `trading_open` and `wal_ingest` call it.
//!
//! The credit window, full-queue policy and buffer that sessions added now
//! belong to every [`Publisher`] of an engine built with an
//! [`IngressConfig`]: a [`SessionHandle`] is a publisher, and an
//! [`IngressTier`] the list of them that [`drain`](IngressTier::drain) walks.
//! New code calls [`Engine::publisher`]. The benchmark change that moves
//! those two call sites onto `Publisher` deletes this crate.
//!
//! ```
//! use defcon_core::{unit::NullUnit, Engine, EventDraft, IngressConfig, UnitSpec};
//! use defcon_events::Value;
//! use defcon_ingress::IngressTier;
//! use std::time::Duration;
//!
//! let engine = Engine::builder().workers(1).ingress(IngressConfig::new(64).credit_window(16)).build();
//! let source = engine.register_unit(UnitSpec::new("feed"), Box::new(NullUnit)).unwrap();
//! let handle = engine.start();
//! let tier = IngressTier::new(&engine);
//! assert_eq!(tier.config().credit_window, 16);
//! let session = tier.session(source).unwrap();
//! let drafts = (0..100).map(|i| EventDraft::new().public_part("seq", Value::Int(i)));
//! assert_eq!(session.submit(drafts.collect()).accepted(), 100); // Block never sheds
//! assert!(session.wait_drained(Duration::from_secs(10)) && tier.drain(Duration::from_secs(10)));
//! assert_eq!(engine.queue_stats().ingress_admitted, 100);
//! handle.shutdown().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use defcon_core::{Admission, Engine, EngineResult, EventDraft, IngressConfig, Publisher, UnitId};
use parking_lot::Mutex;

/// The publishers opened over one engine, so that [`IngressTier::drain`] can
/// wait for all of them.
pub struct IngressTier {
    engine: Engine,
    config: IngressConfig,
    publishers: Mutex<Vec<Publisher>>,
}

impl IngressTier {
    /// A tier over `engine`.
    pub fn new(engine: &Engine) -> Self {
        IngressTier {
            engine: engine.clone(),
            config: engine.ingress_config().cloned().unwrap_or_default(),
            publishers: Mutex::new(Vec::new()),
        }
    }

    /// The engine's ingress configuration, or the default one when the engine
    /// has none (its publishers are then unbounded).
    pub fn config(&self) -> &IngressConfig {
        &self.config
    }

    /// Opens a session publishing as `unit`: [`Engine::publisher`].
    pub fn session(&self, unit: UnitId) -> EngineResult<SessionHandle> {
        let publisher = self.engine.publisher(unit)?;
        self.publishers.lock().push(publisher.clone());
        Ok(SessionHandle { publisher })
    }

    /// [`Publisher::wait_drained`] on every session opened, within one
    /// `timeout`; returns whether all drained.
    pub fn drain(&self, timeout: Duration) -> bool {
        let start = Instant::now();
        let publishers = self.publishers.lock().clone();
        publishers
            .iter()
            .all(|publisher| publisher.wait_drained(timeout.saturating_sub(start.elapsed())))
    }
}

/// A session: a [`Publisher`] with its credit window.
pub struct SessionHandle {
    publisher: Publisher,
}

impl SessionHandle {
    /// [`Publisher::publish_batch`]. A refused publish (a quarantined unit, a
    /// stopped runtime) reports an empty [`Admission`]; its drafts are counted
    /// as shed in `queue_stats().ingress_shed`.
    pub fn submit(&self, drafts: Vec<EventDraft>) -> Admission {
        self.publisher.publish_batch(drafts).unwrap_or_default()
    }

    /// [`Publisher::wait_drained`].
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        self.publisher.wait_drained(timeout)
    }
}
