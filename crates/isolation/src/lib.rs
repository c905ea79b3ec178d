//! Isolation substrate: a Rust model of DEFCon's light-weight Java isolation (§4).
//!
//! The paper isolates event processing units *within one address space*. A static
//! analysis finds the JDK targets (static fields, native methods, synchronisation
//! primitives) that unit code can reach, white-lists the safe ones, and weaves
//! runtime interceptors into the rest: an intercepted access either gets a
//! per-isolate copy of the state or raises a security exception.
//!
//! A Rust reproduction has no JVM to analyse or weave. Ownership and the module
//! system already keep units (plain structs behind a trait) from reaching each
//! other's state except through the engine. What this crate keeps is the runtime
//! half of the model:
//!
//! * [`isolate`]: one [`IsolateId`] per processing unit, and per-isolate copies of
//!   duplicated ("static") state — the effect of the paper's field-cloning
//!   interceptors.
//! * [`interceptor`]: the [`IsolationRuntime`] facade the engine calls. Its
//!   [`InterceptorTable`] maps a target name to an [`AccessDecision`];
//!   [`IsolationRuntime::standard`] holds the paper's three examples.
//! * [`error`]: the [`SecurityException`] a denied access raises.
//!
//! The isolation cost the engine reports (the benchmark's `isolation.share`) is
//! modelled, not measured on woven code: [`IsolationRuntime::intercept`] charges
//! one atomic increment per guarded operation, because there is no JVM to weave.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod interceptor;
pub mod isolate;

pub use error::SecurityException;
pub use interceptor::{AccessDecision, InterceptorTable, IsolationRuntime, IsolationStats};
pub use isolate::{IsolateId, IsolateRegistry};
