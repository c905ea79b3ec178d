//! DEFCon in Rust: high-performance event processing with decentralised event flow
//! control.
//!
//! This crate is the umbrella of the reproduction of *DEFCON: High-Performance
//! Event Processing with Information Security* (Migliavacca et al., USENIX ATC
//! 2010). It re-exports the public API of every workspace crate so that
//! applications can depend on a single crate:
//!
//! * [`defc`] — tags, labels, the can-flow-to lattice and privileges (§3.1);
//! * [`events`] — multi-part events, immutable values, filters and a codec (§3.1.2,
//!   §5);
//! * [`durability`] — segmented CRC32-framed write-ahead log for crash
//!   recovery;
//! * [`core`] — the DEFCon engine: dispatcher, subscriptions, the Table 1 API,
//!   and bounded admission for its publishers. The paper's §4 isolation of units inside one JVM needs no crate here:
//!   Rust's ownership, module privacy and `#![forbid(unsafe_code)]` enforce
//!   it when the code compiles;
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
pub use defcon_metrics as metrics;
pub use defcon_trading as trading;
pub use defcon_workload as workload;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use defcon_core::{
        auto_worker_count, Admission, Engine, EngineBuilder, EngineError, EngineHandle,
        EngineResult, EventDraft, FullQueuePolicy, IngressConfig, Publisher, QueueStats,
        SecurityMode, Unit, UnitContext, UnitId, UnitSpec,
    };
    pub use defcon_defc::{Component, Label, Privilege, PrivilegeKind, Tag, TagSet};
    pub use defcon_events::{Event, EventBuilder, Filter, Predicate, Value, ValueList, ValueMap};
}
