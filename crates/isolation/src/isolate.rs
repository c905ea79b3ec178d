//! Isolates and per-isolate duplication of shared mutable state.
//!
//! §4.2 ("Automatic runtime injection"): "When a static field can be cloned without
//! creating references that are shared with the original, we do an on-demand deep
//! copy and create a per-unit reference." The [`IsolateRegistry`] reproduces that
//! mechanism: each isolate (processing unit) sees its own copy of every duplicated
//! field, created lazily from the field's initial value on first access.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::error::SecurityException;

/// Identifier of an isolation domain (one per processing unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IsolateId(u64);

static ISOLATE_SEQUENCE: AtomicU64 = AtomicU64::new(1);

impl IsolateId {
    /// Allocates a fresh isolate identifier.
    pub fn next() -> Self {
        IsolateId(ISOLATE_SEQUENCE.fetch_add(1, Ordering::Relaxed))
    }

    /// The identifier reserved for the trusted DEFCon engine itself.
    pub fn engine() -> Self {
        IsolateId(0)
    }

    /// Returns `true` if this is the trusted engine isolate.
    pub fn is_engine(&self) -> bool {
        self.0 == 0
    }

    /// Returns the raw value.
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for IsolateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_engine() {
            write!(f, "isolate:engine")
        } else {
            write!(f, "isolate:{}", self.0)
        }
    }
}

/// Per-isolate copies of duplicated "static fields".
///
/// Field values are opaque byte vectors: the registry does not interpret them, it
/// only guarantees that writes from one isolate are never observable from another —
/// which is exactly the storage-channel closure the paper's field-cloning aspect
/// provides.
#[derive(Debug, Default)]
pub struct IsolateRegistry {
    /// Initial values of registered fields (the "original" static field).
    initial: RwLock<HashMap<String, Vec<u8>>>,
    /// Per-isolate copies, created on demand.
    copies: RwLock<HashMap<(IsolateId, String), Vec<u8>>>,
}

impl IsolateRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        IsolateRegistry::default()
    }

    /// Returns a fresh isolate identifier; its copies are created on first access.
    pub fn create_isolate(&self) -> IsolateId {
        IsolateId::next()
    }

    /// Frees all of an isolate's duplicated state.
    pub fn destroy_isolate(&self, isolate: IsolateId) {
        self.copies
            .write()
            .retain(|(owner, _), _| *owner != isolate);
    }

    /// Registers a duplicated field with its initial value.
    pub fn register_field(&self, field: impl Into<String>, initial_value: Vec<u8>) {
        self.initial.write().insert(field.into(), initial_value);
    }

    /// Reads an isolate's copy of a duplicated field, creating it from the initial
    /// value on first access.
    pub fn read_field(
        &self,
        isolate: IsolateId,
        field: &str,
    ) -> Result<Vec<u8>, SecurityException> {
        if let Some(copy) = self.copies.read().get(&(isolate, field.to_string())) {
            return Ok(copy.clone());
        }
        let initial = self.initial.read().get(field).cloned().ok_or_else(|| {
            SecurityException::new(field, "field is not registered for duplication")
        })?;
        self.copies
            .write()
            .insert((isolate, field.to_string()), initial.clone());
        Ok(initial)
    }

    /// Writes an isolate's copy of a duplicated field.
    pub fn write_field(
        &self,
        isolate: IsolateId,
        field: &str,
        value: Vec<u8>,
    ) -> Result<(), SecurityException> {
        if !self.initial.read().contains_key(field) {
            return Err(SecurityException::new(
                field,
                "field is not registered for duplication",
            ));
        }
        self.copies
            .write()
            .insert((isolate, field.to_string()), value);
        Ok(())
    }

    /// Total bytes held in per-isolate copies: the "weaving framework" memory
    /// overhead that Figure 7 attributes to isolation.
    pub fn duplicated_bytes(&self) -> usize {
        self.copies
            .read()
            .iter()
            .map(|((_, name), value)| name.len() + value.len() + 24)
            .sum()
    }

    /// Number of per-isolate field copies currently materialised.
    pub fn copy_count(&self) -> usize {
        self.copies.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_isolate_is_distinguished() {
        assert!(IsolateId::engine().is_engine());
        assert!(!IsolateId::next().is_engine());
        assert_eq!(IsolateId::engine().to_string(), "isolate:engine");
    }

    #[test]
    fn isolates_get_independent_copies() {
        let registry = IsolateRegistry::new();
        registry.register_field("Thread.threadSeqNum", vec![0]);
        let a = registry.create_isolate();
        let b = registry.create_isolate();

        // Both start from the initial value.
        assert_eq!(
            registry.read_field(a, "Thread.threadSeqNum").unwrap(),
            vec![0]
        );
        assert_eq!(
            registry.read_field(b, "Thread.threadSeqNum").unwrap(),
            vec![0]
        );

        // A write by isolate a is invisible to isolate b: the storage channel that
        // the paper describes (§4, exploitation route 1) is closed.
        registry
            .write_field(a, "Thread.threadSeqNum", vec![42])
            .unwrap();
        assert_eq!(
            registry.read_field(a, "Thread.threadSeqNum").unwrap(),
            vec![42]
        );
        assert_eq!(
            registry.read_field(b, "Thread.threadSeqNum").unwrap(),
            vec![0]
        );
    }

    #[test]
    fn unregistered_fields_raise_security_exception() {
        let registry = IsolateRegistry::new();
        let a = registry.create_isolate();
        assert!(registry.read_field(a, "unknown").is_err());
        assert!(registry.write_field(a, "unknown", vec![1]).is_err());
    }

    #[test]
    fn destroy_isolate_frees_copies() {
        let registry = IsolateRegistry::new();
        registry.register_field("f", vec![1, 2, 3]);
        let a = registry.create_isolate();
        let b = registry.create_isolate();
        registry.read_field(a, "f").unwrap();
        registry.read_field(b, "f").unwrap();
        assert_eq!(registry.copy_count(), 2);

        registry.destroy_isolate(a);
        assert_eq!(registry.copy_count(), 1);
    }

    #[test]
    fn duplicated_bytes_grow_with_isolates() {
        let registry = IsolateRegistry::new();
        registry.register_field("big", vec![0u8; 1000]);
        let before = registry.duplicated_bytes();
        for _ in 0..10 {
            let isolate = registry.create_isolate();
            registry.read_field(isolate, "big").unwrap();
        }
        let after = registry.duplicated_bytes();
        assert!(after >= before + 10 * 1000);
    }
}
