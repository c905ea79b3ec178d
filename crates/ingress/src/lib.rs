//! `defcon-ingress`: a credit-gated ingress tier for the DEFCon engine.
//!
//! The batched publish path ([`Publisher::publish_batch`]) is synchronous and
//! unbounded: a flood of publishers facing a slow consumer grows the run
//! queue to arbitrary depth (the `ingress_admission` example shows it). This
//! crate adds the SEDA-style admission stage in front of it:
//!
//! * an [`IngressTier`] opens N logical publisher [`SessionHandle`]s over one
//!   engine; a session runs on the thread that submits to it, so an event
//!   crosses no thread on its way to the run queue;
//! * each session holds a **credit window**
//!   ([`IngressConfig::credit_window`]): at most that many of its events may
//!   be buffered or queued-but-undrained at once, and credits return as the
//!   session observes its events leave the queue through dispatch;
//! * sessions publish through the *bounded*
//!   [`Publisher::try_publish_batch`] path, so the run queue holds the
//!   configured [`IngressConfig::queue_bound`] no matter how many sessions
//!   feed it;
//! * when a window or the queue is full, the configured [`FullQueuePolicy`]
//!   decides between backpressure ([`Block`](FullQueuePolicy::Block): the
//!   submitter waits on dispatch progress through
//!   [`Engine::wait_dequeued`](defcon_core::Engine::wait_dequeued)) and
//!   load-shedding ([`ShedNewest`](FullQueuePolicy::ShedNewest) /
//!   [`ShedOldest`](FullQueuePolicy::ShedOldest)), with every shed event and
//!   credit stall counted on the engine's admission ledger
//!   ([`Engine::queue_stats`](defcon_core::Engine::queue_stats)).
//!
//! ```
//! use defcon_core::{Engine, FullQueuePolicy, IngressConfig, UnitSpec};
//! use defcon_core::unit::NullUnit;
//! use defcon_core::EventDraft;
//! use defcon_events::Value;
//! use defcon_ingress::IngressTier;
//! use std::time::Duration;
//!
//! let engine = Engine::builder()
//!     .workers(1)
//!     .ingress(
//!         IngressConfig::new(64) // run-queue bound
//!             .credit_window(16)
//!             .policy(FullQueuePolicy::Block),
//!     )
//!     .build();
//! let source = engine.register_unit(UnitSpec::new("feed"), Box::new(NullUnit)).unwrap();
//! let handle = engine.start();
//!
//! let tier = IngressTier::new(&engine);
//! let session = tier.session(source).unwrap();
//! let admission = session.submit(
//!     (0..100)
//!         .map(|i| EventDraft::new().public_part("seq", Value::Int(i)))
//!         .collect(),
//! );
//! assert_eq!(admission.accepted(), 100); // Block never sheds
//! assert!(tier.drain(Duration::from_secs(10)));
//!
//! let report = tier.shutdown(); // before the engine handle
//! assert_eq!(report.admitted, 100);
//! assert_eq!(report.shed, 0);
//! handle.shutdown().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod session;
mod tier;

pub use session::SessionHandle;
pub use tier::{IngressReport, IngressTier};

// The admission vocabulary lives in `defcon-core` (the engine enforces the
// bound); re-exported here so ingress deployments need a single import.
pub use defcon_core::{Admission, FullQueuePolicy, IngressConfig, Publisher, TryPublish};
