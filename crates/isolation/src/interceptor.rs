//! Runtime interceptors and the isolation runtime facade.
//!
//! In the paper, the dangerous JDK targets that unit code can reach are guarded at
//! runtime: access from unit code either gets a per-isolate duplicate of the state
//! or raises a [`SecurityException`]. The interceptors also impose the per-access
//! cost that Figures 5 and 6 show as the "labels+freeze+isolation" overhead; the
//! engine charges that cost on its hot paths through [`IsolationRuntime::intercept`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::SecurityException;
use crate::isolate::{IsolateId, IsolateRegistry};

/// The decision taken for one intercepted access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessDecision {
    /// The target is white-listed; access proceeds directly.
    Allowed,
    /// The target is a duplicated static field; the isolate sees its own copy.
    Duplicated,
    /// Access from unit code is denied.
    Denied,
}

/// Lookup table from target name to the decision for an access from unit code.
#[derive(Debug, Clone, Default)]
pub struct InterceptorTable {
    decisions: HashMap<String, AccessDecision>,
}

impl InterceptorTable {
    /// The paper's three examples (§4.2): `Object.hashCode()` is white-listed,
    /// `Thread.threadSeqNum` is duplicated per isolate and `Runtime.exec()` is
    /// denied.
    pub fn standard() -> Self {
        let decisions = [
            ("java.lang.Object.hashCode()", AccessDecision::Allowed),
            ("java.lang.Thread.threadSeqNum", AccessDecision::Duplicated),
            ("java.lang.Runtime.exec()", AccessDecision::Denied),
        ]
        .into_iter()
        .map(|(target, decision)| (target.to_string(), decision))
        .collect();
        InterceptorTable { decisions }
    }

    /// Returns the number of known targets.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Decides what to do with an access to `target` coming from unit code
    /// (`from_unit = true`) or from the trusted engine (`from_unit = false`).
    pub fn decide(&self, target: &str, from_unit: bool) -> AccessDecision {
        if !from_unit {
            // Call path 'D' in Figure 3: the DEFCON implementation is trusted.
            return AccessDecision::Allowed;
        }
        // Unknown targets are blocked: fail safe.
        self.decisions
            .get(target)
            .copied()
            .unwrap_or(AccessDecision::Denied)
    }
}

/// Counters describing the work done by the isolation runtime.
#[derive(Debug, Default)]
pub struct IsolationStats {
    intercepted: AtomicU64,
    allowed: AtomicU64,
    duplicated: AtomicU64,
    denied: AtomicU64,
}

impl IsolationStats {
    /// Total number of interception checks performed.
    pub fn intercepted(&self) -> u64 {
        self.intercepted.load(Ordering::Relaxed)
    }

    /// Checks that resulted in direct access.
    pub fn allowed(&self) -> u64 {
        self.allowed.load(Ordering::Relaxed)
    }

    /// Checks that were served from a per-isolate duplicate.
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }

    /// Checks that raised a security exception.
    pub fn denied(&self) -> u64 {
        self.denied.load(Ordering::Relaxed)
    }
}

/// The facade the DEFCon engine uses to apply isolation.
///
/// When disabled (the `no security` and `labels+freeze` configurations of the
/// evaluation), every operation is a no-op with near-zero cost. When enabled, each
/// guarded operation performs the same kind of bookkeeping the paper's woven aspects
/// perform: a table lookup, counters, and either pass-through, per-isolate state
/// duplication or a security exception.
#[derive(Debug, Clone)]
pub struct IsolationRuntime {
    enabled: bool,
    table: Arc<InterceptorTable>,
    registry: Arc<IsolateRegistry>,
    stats: Arc<IsolationStats>,
}

impl IsolationRuntime {
    /// An isolation runtime that never intercepts anything.
    pub fn disabled() -> Self {
        IsolationRuntime::new(false, InterceptorTable::default())
    }

    /// The isolating runtime the engine uses: interception enabled over
    /// [`InterceptorTable::standard`].
    pub fn standard() -> Self {
        IsolationRuntime::new(true, InterceptorTable::standard())
    }

    fn new(enabled: bool, table: InterceptorTable) -> Self {
        IsolationRuntime {
            enabled,
            table: Arc::new(table),
            registry: Arc::new(IsolateRegistry::new()),
            stats: Arc::new(IsolationStats::default()),
        }
    }

    /// Returns `true` if interception is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Returns the runtime counters.
    pub fn stats(&self) -> &IsolationStats {
        &self.stats
    }

    /// Creates an isolate for a new processing unit. Returns the engine isolate when
    /// isolation is disabled, so callers need no special-casing.
    pub fn create_isolate(&self) -> IsolateId {
        if self.enabled {
            self.registry.create_isolate()
        } else {
            IsolateId::engine()
        }
    }

    /// Destroys an isolate, releasing its duplicated state.
    pub fn destroy_isolate(&self, isolate: IsolateId) {
        if self.enabled && !isolate.is_engine() {
            self.registry.destroy_isolate(isolate);
        }
    }

    /// The hot-path interception hook.
    ///
    /// The engine calls this once per guarded operation executed on behalf of unit
    /// code (reading an event part, adding a part, evaluating a subscription filter
    /// clause). The cost — an atomic increment plus a branch — models the woven
    /// advice executed around every intercepted JDK access in the paper's prototype.
    #[inline]
    pub fn intercept(&self) {
        if self.enabled {
            self.stats.intercepted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Intercepts an access to a named dangerous target from unit code.
    pub fn access_target(
        &self,
        isolate: IsolateId,
        target: &str,
    ) -> Result<AccessDecision, SecurityException> {
        if !self.enabled {
            return Ok(AccessDecision::Allowed);
        }
        self.stats.intercepted.fetch_add(1, Ordering::Relaxed);
        let decision = self.table.decide(target, !isolate.is_engine());
        match decision {
            AccessDecision::Allowed => {
                self.stats.allowed.fetch_add(1, Ordering::Relaxed);
                Ok(AccessDecision::Allowed)
            }
            AccessDecision::Duplicated => {
                self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
                Ok(AccessDecision::Duplicated)
            }
            AccessDecision::Denied => {
                self.stats.denied.fetch_add(1, Ordering::Relaxed);
                Err(SecurityException::new(
                    target,
                    "target is not white-listed for unit code",
                ))
            }
        }
    }

    /// Reads a duplicated static field on behalf of an isolate, registering the
    /// field with a default value on first use.
    pub fn read_duplicated_field(
        &self,
        isolate: IsolateId,
        field: &str,
    ) -> Result<Vec<u8>, SecurityException> {
        if !self.enabled {
            return Ok(Vec::new());
        }
        if self.registry.read_field(isolate, field).is_err() {
            self.registry.register_field(field, Vec::new());
        }
        self.registry.read_field(isolate, field)
    }

    /// Writes a duplicated static field on behalf of an isolate.
    pub fn write_duplicated_field(
        &self,
        isolate: IsolateId,
        field: &str,
        value: Vec<u8>,
    ) -> Result<(), SecurityException> {
        if !self.enabled {
            return Ok(());
        }
        if self
            .registry
            .write_field(isolate, field, value.clone())
            .is_err()
        {
            self.registry.register_field(field, Vec::new());
            return self.registry.write_field(isolate, field, value);
        }
        Ok(())
    }

    /// Memory attributable to isolation bookkeeping (Figure 7's weaving overhead):
    /// duplicated field copies plus a fixed per-table share.
    pub fn memory_overhead_bytes(&self) -> usize {
        if !self.enabled {
            return 0;
        }
        // Each table entry costs roughly a string plus a discriminant.
        let table_bytes = self.table.len() * 48;
        self.registry.duplicated_bytes() + table_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_access_is_always_allowed() {
        let table = InterceptorTable::standard();
        assert_eq!(
            table.decide("java.lang.Runtime.exec()", false),
            AccessDecision::Allowed
        );
        assert_eq!(
            table.decide("completely.unknown.Target", false),
            AccessDecision::Allowed
        );
    }

    #[test]
    fn unit_access_follows_dispositions_and_fails_safe() {
        let table = InterceptorTable::standard();
        assert_eq!(
            table.decide("java.lang.Object.hashCode()", true),
            AccessDecision::Allowed
        );
        assert_eq!(
            table.decide("java.lang.Thread.threadSeqNum", true),
            AccessDecision::Duplicated
        );
        assert_eq!(
            table.decide("java.lang.Runtime.exec()", true),
            AccessDecision::Denied
        );
        // Unknown targets are denied, not allowed.
        assert_eq!(table.decide("not.in.table", true), AccessDecision::Denied);
    }

    #[test]
    fn disabled_runtime_is_a_no_op() {
        let runtime = IsolationRuntime::disabled();
        assert!(!runtime.is_enabled());
        let isolate = runtime.create_isolate();
        assert!(isolate.is_engine());
        assert_eq!(
            runtime.access_target(isolate, "anything").unwrap(),
            AccessDecision::Allowed
        );
        runtime.intercept();
        assert_eq!(runtime.stats().intercepted(), 0);
        assert_eq!(runtime.memory_overhead_bytes(), 0);
    }

    #[test]
    fn enabled_runtime_enforces_and_counts() {
        let runtime = IsolationRuntime::standard();
        let isolate = runtime.create_isolate();
        assert!(!isolate.is_engine());

        assert!(runtime
            .access_target(isolate, "java.lang.Object.hashCode()")
            .is_ok());
        assert!(runtime
            .access_target(isolate, "java.lang.Thread.threadSeqNum")
            .is_ok());
        assert!(runtime
            .access_target(isolate, "java.lang.Runtime.exec()")
            .is_err());
        runtime.intercept();

        assert_eq!(runtime.stats().intercepted(), 4);
        assert_eq!(runtime.stats().allowed(), 1);
        assert_eq!(runtime.stats().duplicated(), 1);
        assert_eq!(runtime.stats().denied(), 1);
    }

    #[test]
    fn duplicated_fields_are_per_isolate_through_the_runtime() {
        let runtime = IsolationRuntime::standard();
        let a = runtime.create_isolate();
        let b = runtime.create_isolate();
        runtime
            .write_duplicated_field(a, "Thread.threadSeqNum", vec![7])
            .unwrap();
        assert_eq!(
            runtime
                .read_duplicated_field(a, "Thread.threadSeqNum")
                .unwrap(),
            vec![7]
        );
        assert_eq!(
            runtime
                .read_duplicated_field(b, "Thread.threadSeqNum")
                .unwrap(),
            Vec::<u8>::new()
        );
        assert!(runtime.memory_overhead_bytes() > 0);
    }

    #[test]
    fn standard_runtime_holds_the_papers_three_decisions() {
        let runtime = IsolationRuntime::standard();
        assert!(runtime.is_enabled());
        let unit = runtime.create_isolate();
        assert_eq!(
            runtime.access_target(unit, "java.lang.Object.hashCode()"),
            Ok(AccessDecision::Allowed)
        );
        assert_eq!(
            runtime.access_target(unit, "java.lang.Thread.threadSeqNum"),
            Ok(AccessDecision::Duplicated)
        );
        let denied = runtime
            .access_target(unit, "java.lang.Runtime.exec()")
            .unwrap_err();
        assert_eq!(denied.target, "java.lang.Runtime.exec()");
        // The trusted engine passes even the denied target.
        assert_eq!(
            runtime.access_target(IsolateId::engine(), "java.lang.Runtime.exec()"),
            Ok(AccessDecision::Allowed)
        );
    }

    #[test]
    fn destroy_isolate_is_safe_for_engine_and_unknown_ids() {
        let runtime = IsolationRuntime::standard();
        runtime.destroy_isolate(IsolateId::engine());
        let isolate = runtime.create_isolate();
        runtime.destroy_isolate(isolate);
        runtime.destroy_isolate(isolate);
    }
}
