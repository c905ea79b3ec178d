//! Processing units and their per-unit security state.
//!
//! A unit is the paper's "processing unit": application code implementing business
//! logic, reacting to dispatched events and emitting new ones. The engine maintains
//! for each unit (§3.1.3, §3.1.4):
//!
//! * a contamination / input label `(S_in, I_in)`,
//! * an output label `(S_out, I_out)`,
//! * the four privilege sets `O+`, `O-`, `O+auth`, `O-auth`.
//!
//! Unit code never holds these directly; it manipulates them through the Table 1
//! API (`changeInOutLabel`, `changeOutLabel`, privilege-carrying events, ...).

use std::fmt;

use defcon_defc::{Label, Privilege, PrivilegeSet};
use defcon_events::Event;

use crate::context::UnitContext;
use crate::error::EngineResult;

/// Identifier of a registered processing unit.
///
/// Identifiers are allocated *per engine* (each engine numbers its units
/// 1, 2, 3, ...), so two engines in one process — or tests running in
/// parallel — produce identical, deterministic id sequences instead of
/// interleaving a process-global counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UnitId(u64);

impl UnitId {
    /// Builds a unit identifier from a raw value. Engines allocate ids through
    /// their own sequence; this constructor exists for tests and diagnostics.
    pub fn from_raw(raw: u64) -> Self {
        UnitId(raw)
    }

    /// Returns the raw value.
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for UnitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unit#{}", self.0)
    }
}

/// The behaviour of a processing unit.
///
/// Units are written against this trait and interact with the engine only through
/// the [`UnitContext`] passed to their callbacks, which is what lets the engine
/// treat them as untrusted code confined by their labels.
pub trait Unit: Send {
    /// Called once when the unit is registered; typically issues subscriptions and
    /// creates tags.
    fn init(&mut self, _ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        Ok(())
    }

    /// Called for every event delivered to one of the unit's subscriptions.
    ///
    /// Returning from this method is the implicit `release` of §3.1.6 — any parts
    /// added to `event` through the context become visible to subsequent deliveries.
    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()>;
}

/// A no-op unit, useful as an event source driven from outside via
/// [`Engine::with_unit`](crate::Engine::with_unit) or as a pure sink.
#[derive(Debug, Default)]
pub struct NullUnit;

impl Unit for NullUnit {
    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        Ok(())
    }
}

/// Factory used by managed subscriptions (§5, `subscribeManaged`): it is called
/// once per managed delivery, and the handler it returns serves that one event at
/// the contamination the event requires, under its owner's unit id, and is then
/// dropped. A panicking factory is an engine fault.
pub type UnitFactory = Box<dyn Fn() -> Box<dyn Unit> + Send + Sync>;

/// Static configuration with which a unit is registered.
#[derive(Default)]
pub struct UnitSpec {
    /// Human-readable name used in diagnostics.
    pub name: String,
    /// Initial input (contamination) label.
    pub input_label: Label,
    /// Initial output label.
    pub output_label: Label,
    /// Initial privileges granted by the registering principal.
    pub privileges: PrivilegeSet,
}

impl UnitSpec {
    /// Creates a spec with public labels and no privileges.
    pub fn new(name: impl Into<String>) -> Self {
        UnitSpec {
            name: name.into(),
            ..UnitSpec::default()
        }
    }

    /// Sets the initial input label.
    pub fn with_input_label(mut self, label: Label) -> Self {
        self.input_label = label;
        self
    }

    /// Sets the initial output label.
    pub fn with_output_label(mut self, label: Label) -> Self {
        self.output_label = label;
        self
    }

    /// Grants an initial privilege.
    pub fn with_privilege(mut self, privilege: Privilege) -> Self {
        self.privileges.grant(privilege);
        self
    }

    /// Grants a whole privilege set.
    pub fn with_privileges(mut self, privileges: &PrivilegeSet) -> Self {
        self.privileges.absorb(privileges);
        self
    }
}

/// The engine-maintained security state of a registered unit.
#[derive(Debug, Clone)]
pub struct UnitState {
    /// Unit identifier.
    pub id: UnitId,
    /// Diagnostic name.
    pub name: String,
    /// Input label (contamination level), `(S_in, I_in)`.
    pub input_label: Label,
    /// Output label, `(S_out, I_out)`.
    pub output_label: Label,
    /// Privileges held by the unit.
    pub privileges: PrivilegeSet,
    /// Number of events delivered to this unit (diagnostics / Figure 7 accounting).
    pub delivered: u64,
    /// Incarnation of this unit id: 1 at registration, incremented by every
    /// [`Engine::swap_unit`](crate::Engine::swap_unit). The id is stable across
    /// swaps (subscriptions and publishers keep working); the version tells
    /// observers *which* instance is currently serving it.
    pub version: u64,
    /// Whether the unit has ever declared a managed subscription. Only such
    /// owners have their output label and privileges in the dispatcher's
    /// security snapshot, so only their changes to those bump the epoch.
    pub(crate) owns_managed: bool,
}

impl UnitState {
    /// Creates the state for a newly registered unit.
    pub fn new(id: UnitId, spec: UnitSpec) -> Self {
        UnitState {
            id,
            name: spec.name,
            input_label: spec.input_label,
            output_label: spec.output_label,
            privileges: spec.privileges,
            delivered: 0,
            version: 1,
            owns_managed: false,
        }
    }

    /// Returns `true` if a part labelled `label` may be seen by this unit: the
    /// part's label must be able to flow to the unit's input label.
    pub fn can_see(&self, label: &Label) -> bool {
        label.can_flow_to(&self.input_label)
    }

    /// Estimated engine-side footprint of this unit's bookkeeping in bytes.
    pub fn estimated_size(&self) -> usize {
        self.name.len()
            + (self.input_label.tag_count() + self.output_label.tag_count()) * 16
            + self.privileges.len() * 16
            + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_defc::{Tag, TagSet};

    #[test]
    fn unit_ids_compare_and_display_by_raw_value() {
        let a = UnitId::from_raw(1);
        let b = UnitId::from_raw(2);
        assert_ne!(a, b);
        assert!(b.as_u64() > a.as_u64());
        assert!(a.to_string().starts_with("unit#"));
    }

    #[test]
    fn engines_allocate_unit_ids_independently() {
        use crate::engine::Engine;

        // Two engines registering units "in parallel" must not interleave ids:
        // each numbers its own units from 1.
        let first = Engine::builder().build();
        let second = Engine::builder().build();
        let a1 = first
            .register_unit(UnitSpec::new("a1"), Box::new(NullUnit))
            .unwrap();
        let b1 = second
            .register_unit(UnitSpec::new("b1"), Box::new(NullUnit))
            .unwrap();
        let a2 = first
            .register_unit(UnitSpec::new("a2"), Box::new(NullUnit))
            .unwrap();
        assert_eq!(a1, b1, "both engines start their sequence at 1");
        assert_eq!(a1.as_u64() + 1, a2.as_u64());
    }

    #[test]
    fn spec_builder_sets_labels_and_privileges() {
        let t = Tag::with_name("t");
        let secret = Label::confidential(TagSet::singleton(t.clone()));
        let spec = UnitSpec::new("broker")
            .with_input_label(secret.clone())
            .with_output_label(secret)
            .with_privilege(Privilege::remove(t.clone()));
        assert_eq!(spec.name, "broker");
        assert!(spec.input_label.confidentiality().contains(&t));
        assert!(spec.output_label.confidentiality().contains(&t));
        assert!(spec
            .privileges
            .holds(&t, defcon_defc::PrivilegeKind::Remove));
    }

    #[test]
    fn can_see_follows_can_flow_to() {
        let t = Tag::with_name("t");
        let spec =
            UnitSpec::new("u").with_input_label(Label::confidential(TagSet::singleton(t.clone())));
        let state = UnitState::new(UnitId::from_raw(1), spec);

        assert!(state.can_see(&Label::public()));
        assert!(state.can_see(&Label::confidential(TagSet::singleton(t.clone()))));
        let other = Tag::with_name("other");
        assert!(!state.can_see(&Label::confidential(TagSet::singleton(other))));
    }

    #[test]
    fn integrity_gates_visibility() {
        // A unit instantiated with read integrity {s} must only see parts that carry
        // the s integrity tag (the Pair Monitor rule of §6.1, step 2).
        let s = Tag::with_name("i-exchange");
        let spec = UnitSpec::new("monitor")
            .with_input_label(Label::endorsed(TagSet::singleton(s.clone())));
        let state = UnitState::new(UnitId::from_raw(1), spec);

        assert!(state.can_see(&Label::endorsed(TagSet::singleton(s))));
        assert!(!state.can_see(&Label::public()));
    }

    #[test]
    fn estimated_size_is_positive() {
        let state = UnitState::new(UnitId::from_raw(1), UnitSpec::new("x"));
        assert!(state.estimated_size() > 0);
    }
}
