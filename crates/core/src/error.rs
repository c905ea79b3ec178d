//! Engine error type.

use std::fmt;

use defcon_defc::DefcError;
use defcon_events::EventError;

/// Result alias used across the engine.
pub type EngineResult<T> = Result<T, EngineError>;

/// Errors surfaced to units and drivers by the DEFCon engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A DEFC model violation (missing privilege, forbidden flow).
    Defc(DefcError),
    /// An event-model error (empty event, missing part, malformed encoding).
    Event(EventError),
    /// The referenced unit does not exist.
    UnknownUnit(String),
    /// The referenced unit was quarantined by the engine's
    /// [`FaultPolicy`](crate::FaultPolicy): it repeatedly panicked and no
    /// standby was available (or the policy demands quarantine). Publishing as
    /// it fails loudly instead of feeding events that would be shed.
    UnitQuarantined(String),
    /// The referenced subscription does not exist or belongs to another unit.
    UnknownSubscription(u64),
    /// The referenced draft event does not exist (already published or dropped).
    UnknownDraft(u64),
    /// A subscription was registered with an empty filter (§5 forbids this).
    EmptyFilter,
    /// The unit attempted an operation the engine forbids in its current state.
    InvalidOperation(String),
    /// The write-ahead log failed (I/O error on append or recovery scan). The
    /// publish that triggered it was *not* enqueued: the write-ahead contract
    /// refuses work it cannot make durable.
    Durability(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Defc(e) => write!(f, "event flow control violation: {e}"),
            EngineError::Event(e) => write!(f, "event error: {e}"),
            EngineError::UnknownUnit(name) => write!(f, "unknown unit: {name}"),
            EngineError::UnitQuarantined(name) => write!(f, "unit quarantined: {name}"),
            EngineError::UnknownSubscription(id) => write!(f, "unknown subscription: {id}"),
            EngineError::UnknownDraft(id) => write!(f, "unknown draft event: {id}"),
            EngineError::EmptyFilter => {
                write!(f, "subscriptions require a non-empty filter (Table 1)")
            }
            EngineError::InvalidOperation(msg) => write!(f, "invalid operation: {msg}"),
            EngineError::Durability(msg) => write!(f, "durability failure: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DefcError> for EngineError {
    fn from(e: DefcError) -> Self {
        EngineError::Defc(e)
    }
}

impl From<EventError> for EngineError {
    fn from(e: EventError) -> Self {
        EngineError::Event(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_defc::TagId;

    #[test]
    fn conversions_and_display() {
        let defc: EngineError = DefcError::UnknownTag(TagId::from_raw(1)).into();
        assert!(defc.to_string().contains("flow control"));

        let event: EngineError = EventError::EmptyEvent.into();
        assert!(event.to_string().contains("event"));

        assert!(EngineError::EmptyFilter.to_string().contains("filter"));
        assert!(EngineError::UnknownUnit("x".into())
            .to_string()
            .contains('x'));
        assert!(EngineError::UnitQuarantined("unit#7".into())
            .to_string()
            .contains("quarantined"));
        assert!(EngineError::UnknownSubscription(3)
            .to_string()
            .contains('3'));
        assert!(EngineError::UnknownDraft(9).to_string().contains('9'));
        assert!(EngineError::InvalidOperation("nope".into())
            .to_string()
            .contains("nope"));
    }
}
