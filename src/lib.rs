//! DEFCon in Rust: high-performance event processing with decentralised event flow
//! control.
//!
//! This crate is the umbrella of the reproduction of *DEFCON: High-Performance
//! Event Processing with Information Security* (Migliavacca et al., USENIX ATC
//! 2010). It re-exports the public API of every workspace crate so that
//! applications can depend on a single crate:
//!
//! * [`defc`] — tags, labels, the can-flow-to lattice and privileges (§3.1);
//! * [`events`] — multi-part events, freezable values, filters and a codec (§3.1.2,
//!   §5);
//! * [`durability`] — segmented CRC32-framed write-ahead log and recorded
//!   arrival traces for crash recovery and deterministic replay;
//! * [`isolation`] — per-unit isolates, duplicated static state and the
//!   interceptor table of §4, with the interception cost modelled;
//! * [`core`] — the DEFCon engine: dispatcher, subscriptions, the Table 1 API;
//! * [`ingress`] — the credit-gated async ingress tier funnelling many logical
//!   publisher sessions onto the bounded batched publish path;
//! * [`metrics`] — throughput, latency and memory instrumentation (§6.2);
//! * [`workload`] — the synthetic LSE-style workload (§6.2);
//! * [`trading`] — the Figure 4 trading platform;
//! * [`baseline`] — the Marketcetera-style process-isolated baseline (§6.1).
//!
//! See `README.md` for a quick start and `defcon_benchmark/README.md` for the
//! benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use defcon_baseline as baseline;
pub use defcon_core as core;
pub use defcon_defc as defc;
pub use defcon_durability as durability;
pub use defcon_events as events;
pub use defcon_ingress as ingress;
pub use defcon_isolation as isolation;
pub use defcon_metrics as metrics;
pub use defcon_trading as trading;
pub use defcon_workload as workload;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use defcon_core::{
        auto_worker_count, Admission, Engine, EngineBuilder, EngineConfig, EngineError,
        EngineHandle, EngineResult, EventDraft, FullQueuePolicy, IngressConfig, Publisher,
        QueueStats, SecurityMode, TryPublish, Unit, UnitContext, UnitId, UnitSpec,
    };
    pub use defcon_defc::{Component, Label, Privilege, PrivilegeKind, Tag, TagSet};
    pub use defcon_events::{Event, EventBuilder, Filter, Predicate, Value, ValueList, ValueMap};
    pub use defcon_ingress::{IngressTier, SessionHandle};
}
