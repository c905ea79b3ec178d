//! Subscriptions: how units declare interest in events.
//!
//! Table 1 defines two subscription calls:
//!
//! * `subscribe(filter)` — a plain subscription; matching events are delivered to
//!   the subscribing unit itself, contaminating it if it reads protected parts.
//! * `subscribeManaged(handler, filter)` — a *managed* subscription; each
//!   matching event is served by a fresh handler whose contamination matches that
//!   event and which is dropped after it, so that the subscribing unit's own state
//!   never becomes contaminated. These mirror Asbestos' event processes.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use defcon_events::Filter;

use crate::unit::{UnitFactory, UnitId};

/// Identifier of a subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(u64);

static SUBSCRIPTION_SEQUENCE: AtomicU64 = AtomicU64::new(1);

impl SubscriptionId {
    /// Allocates the next subscription identifier.
    pub fn next() -> Self {
        SubscriptionId(SUBSCRIPTION_SEQUENCE.fetch_add(1, Ordering::Relaxed))
    }

    /// Returns the raw value.
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub#{}", self.0)
    }
}

/// Whether a subscription delivers to the subscribing unit or to managed handlers.
pub enum SubscriptionKind {
    /// Deliver to the subscribing unit itself.
    Direct,
    /// Deliver to a handler the factory builds per event, run at the
    /// contamination required to read that event.
    Managed(Arc<UnitFactory>),
}

impl fmt::Debug for SubscriptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubscriptionKind::Direct => write!(f, "Direct"),
            SubscriptionKind::Managed(_) => write!(f, "Managed(..)"),
        }
    }
}

impl Clone for SubscriptionKind {
    fn clone(&self) -> Self {
        match self {
            SubscriptionKind::Direct => SubscriptionKind::Direct,
            SubscriptionKind::Managed(factory) => SubscriptionKind::Managed(Arc::clone(factory)),
        }
    }
}

/// A registered subscription.
#[derive(Debug, Clone)]
pub struct Subscription {
    /// Subscription identifier.
    pub id: SubscriptionId,
    /// The unit that issued the subscription.
    pub owner: UnitId,
    /// The filter expression over part names and data. Once registered, every
    /// subscription whose filter is equal (`==`) to this one holds the same
    /// allocation, so dispatch evaluates it once per event and owner input
    /// label rather than once per subscription.
    pub filter: Arc<Filter>,
    /// Direct or managed delivery.
    pub kind: SubscriptionKind,
}

impl Subscription {
    /// Creates a direct subscription.
    pub fn direct(owner: UnitId, filter: Filter) -> Self {
        Subscription {
            id: SubscriptionId::next(),
            owner,
            filter: Arc::new(filter),
            kind: SubscriptionKind::Direct,
        }
    }

    /// Creates a managed subscription with the given handler factory.
    pub fn managed(owner: UnitId, filter: Filter, factory: UnitFactory) -> Self {
        Subscription {
            id: SubscriptionId::next(),
            owner,
            filter: Arc::new(filter),
            kind: SubscriptionKind::Managed(Arc::new(factory)),
        }
    }

    /// Returns `true` if this is a managed subscription.
    pub fn is_managed(&self) -> bool {
        matches!(self.kind, SubscriptionKind::Managed(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::NullUnit;

    #[test]
    fn ids_are_unique_and_displayable() {
        let a = SubscriptionId::next();
        let b = SubscriptionId::next();
        assert_ne!(a, b);
        assert!(a.to_string().starts_with("sub#"));
    }

    #[test]
    fn direct_and_managed_kinds() {
        let owner = UnitId::from_raw(1);
        let direct = Subscription::direct(owner, Filter::for_type("tick"));
        assert!(!direct.is_managed());
        assert_eq!(direct.owner, owner);

        let managed = Subscription::managed(
            owner,
            Filter::for_type("trade"),
            Box::new(|| Box::new(NullUnit) as Box<dyn crate::unit::Unit>),
        );
        assert!(managed.is_managed());
        assert_ne!(managed.id, direct.id);
        // Cloning preserves the kind.
        assert!(managed.clone().is_managed());
        assert!(format!("{:?}", managed.kind).contains("Managed"));
    }
}
