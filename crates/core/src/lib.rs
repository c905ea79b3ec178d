//! `defcon-core`: the DEFCon event processing engine.
//!
//! This crate is the paper's primary contribution (§3.2, §5): a runtime environment
//! for event processing units that enforces decentralised event flow control (DEFC)
//! on every event exchanged between units.
//!
//! The engine provides:
//!
//! * **Label/tag management** — units create opaque tags through their
//!   [`UnitContext`]; the engine tracks per-unit input/output labels and
//!   privileges.
//! * **Inter-unit communication** — a publish/subscribe [`Dispatcher`] that matches
//!   events against subscriptions, checking the can-flow-to relation per part at
//!   matching time, and delivers events to units without revealing who else was
//!   notified.
//! * **Unit life-cycle management** — units are instantiated inside isolates (via
//!   `defcon-isolation`), may instantiate further units at a chosen contamination
//!   level, and interact with the engine exclusively through the Table 1 API
//!   exposed by [`UnitContext`].
//!
//! The [`SecurityMode`] enum selects one of the four configurations evaluated in
//! Figures 5–7 of the paper: `NoSecurity`, `LabelsFreeze`, `LabelsClone` and
//! `LabelsFreezeIsolation`.
//!
//! # Quick start
//!
//! The runtime API follows an [`EngineBuilder`] → [`Engine`] → [`EngineHandle`]
//! lifecycle: configure, register units, start (optionally with dispatcher
//! worker threads), publish through typed [`Publisher`] handles, and shut down
//! gracefully.
//!
//! ```
//! use defcon_core::{Engine, EngineResult, EventDraft, SecurityMode, Unit, UnitContext, UnitSpec};
//! use defcon_core::unit::NullUnit;
//! use defcon_events::{Event, Filter, Value};
//!
//! struct Printer;
//! impl Unit for Printer {
//!     fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
//!         ctx.subscribe(Filter::for_type("greeting"))?;
//!         Ok(())
//!     }
//!     fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
//!         let parts = ctx.read_part(event, "text")?;
//!         assert_eq!(parts[0].1.as_str(), Some("hello"));
//!         Ok(())
//!     }
//! }
//!
//! let engine = Engine::builder()
//!     .mode(SecurityMode::LabelsFreeze)
//!     .workers(2) // distinct units dispatch in parallel; use 0 for manual pumping
//!     .build();
//! engine.register_unit(UnitSpec::new("printer"), Box::new(Printer)).unwrap();
//! let source = engine.register_unit(UnitSpec::new("source"), Box::new(NullUnit)).unwrap();
//!
//! // Start the runtime and publish from outside (e.g. a market-data feed
//! // thread) through a typed publisher handle.
//! let handle = engine.start();
//! let feed = handle.publisher(source).unwrap();
//! feed.publish(
//!     EventDraft::new()
//!         .public_part("type", Value::str("greeting"))
//!         .public_part("text", Value::str("hello")),
//! ).unwrap();
//!
//! // Graceful termination: drain the queue, join the workers.
//! handle.shutdown().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod builder;
pub mod context;
pub mod dispatcher;
pub mod engine;
pub mod error;
pub mod fault;
pub mod handle;
mod run_queue;
mod sub_index;
pub mod subscription;
pub mod unit;

pub use admission::{Admission, AdmissionCounters, FullQueuePolicy, IngressConfig, TryPublish};
pub use builder::{auto_worker_count, EngineBuilder};
pub use context::{DraftEvent, UnitContext};
pub use dispatcher::Dispatcher;
pub use engine::{Engine, EngineConfig, EngineStats, QueueStats, RecoveryReport, SecurityMode};
pub use error::{EngineError, EngineResult};
pub use fault::{FaultAction, FaultCounters, FaultPolicy};
pub use handle::{EngineHandle, EventDraft, Publisher};
pub use subscription::{Subscription, SubscriptionId, SubscriptionKind};
pub use unit::{Unit, UnitFactory, UnitId, UnitSpec, UnitState};

// Durability configuration types, re-exported so deployments can enable the
// write-ahead log (`EngineBuilder::wal`) without a direct crate dependency.
pub use defcon_durability::{FsyncPolicy, WalConfig};
