//! DEFCon event model: multi-part events, immutable values, filters and a codec.
//!
//! This crate implements §3.1.2 ("Anatomy of events"), §3.1.5 (privilege-carrying
//! parts), §3.1.6 (partial event processing) and the guarantee behind §5's
//! "Freezing shared objects": published data is shared between isolates by
//! reference, and nobody can change it.
//!
//! An [`Event`] is a collection of named [`Part`]s. Each part carries:
//!
//! * a name (`"type"`, `"body"`, `"trader_id"`, ...),
//! * a security [`Label`](defcon_defc::Label),
//! * a data [`Value`], which is immutable, and
//! * optionally a set of [`Privilege`](defcon_defc::Privilege)s, making the part a
//!   *privilege-carrying* part.
//!
//! The paper freezes Java objects at publish and checks a frozen flag on every
//! mutation, because the JVM cannot stop a unit from mutating a shared
//! reference. Here values are immutable by type: collections are built once and
//! have no mutating method, so "freeze" means sharing immutable values by
//! reference, and the per-mutation check is a JVM cost this crate does not
//! model. Only the `labels+clone` configuration copies data, through
//! [`Value::deep_clone`].
//!
//! The [`codec`] module provides a compact binary encoding of events. The
//! engine never serialises an event to hand it to a unit (that is the point of
//! the shared-address-space design); the write-ahead log encodes every logged
//! batch with it, and recovery decodes the log with it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod event;
pub mod filter;
pub mod part;
pub mod value;

pub use event::{now_ns, Event, EventBuilder, EventId};
pub use filter::{Filter, Predicate};
pub use part::{part_name, Part, PartName};
pub use value::{Value, ValueList, ValueMap};

/// Errors arising from event construction and manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventError {
    /// The requested part does not exist (or is not visible).
    NoSuchPart(String),
    /// An event without parts was published (§5: such events are dropped).
    EmptyEvent,
    /// The codec encountered malformed input.
    Codec(String),
}

impl std::fmt::Display for EventError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventError::NoSuchPart(name) => write!(f, "no such part: {name}"),
            EventError::EmptyEvent => write!(f, "event has no parts"),
            EventError::Codec(msg) => write!(f, "codec error: {msg}"),
        }
    }
}

impl std::error::Error for EventError {}
