//! Fault policy: what the engine does about a unit whose handler keeps
//! panicking.
//!
//! Every delivery is already panic-isolated (the dispatcher catches unwinds
//! per `on_event` call, so a misbehaving unit can neither take a worker down
//! nor rob later subscribers of the same event). A [`FaultPolicy`] adds the
//! next step: the engine counts panics per unit over a sliding window of
//! deliveries and, when a unit exceeds `max_panics` within `window`
//! deliveries, *trips* it —
//!
//! * [`FaultAction::AutoSwap`] hot-replaces the unit with the standby
//!   registered via [`Engine::set_standby`](crate::Engine::set_standby)
//!   (through the same drain-and-swap as
//!   [`Engine::swap_unit`](crate::Engine::swap_unit), so exactly-once and
//!   per-unit order hold across the replacement). A tripped unit with no
//!   standby falls back to quarantine.
//! * [`FaultAction::Quarantine`] marks the unit quarantined: subsequent
//!   deliveries to it are shed loudly (counted per delivery in
//!   `queue_stats().quarantine_shed`), and publishing *as* it fails with
//!   [`EngineError::UnitQuarantined`](crate::EngineError::UnitQuarantined).
//!
//! All fault activity is visible in [`QueueStats`](crate::QueueStats):
//! `unit_panics`, `unit_swaps`, `fault_swaps`, `units_quarantined` and
//! `quarantine_shed`.

use std::sync::atomic::{AtomicU64, Ordering};

/// What happens when a unit trips its fault window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultAction {
    /// Swap the tripped unit for its registered standby
    /// ([`Engine::set_standby`](crate::Engine::set_standby)); quarantine it
    /// when no standby is registered.
    #[default]
    AutoSwap,
    /// Quarantine the tripped unit: shed its deliveries loudly until an
    /// explicit [`Engine::swap_unit`](crate::Engine::swap_unit) replaces it.
    Quarantine,
}

impl FaultAction {
    /// Stable lowercase key for bench/CI reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultAction::AutoSwap => "auto-swap",
            FaultAction::Quarantine => "quarantine",
        }
    }
}

/// Per-unit panic budget: more than `max_panics` panicking deliveries within a
/// window of `window` deliveries trips the configured [`FaultAction`].
///
/// The window is counted in *deliveries to that unit*, not wall-clock time, so
/// fault handling is deterministic under test and replay. `window == 0` means
/// the panic count never resets (a lifetime budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Panicking deliveries that trip the unit (at least 1; the trip fires on
    /// the `max_panics`-th panic inside one window).
    pub max_panics: u32,
    /// Deliveries per counting window; 0 disables the reset.
    pub window: u32,
    /// What tripping does.
    pub action: FaultAction,
}

impl FaultPolicy {
    /// A policy tripping after `max_panics` panics (clamped to at least 1)
    /// with an unbounded window and the default [`FaultAction::AutoSwap`].
    pub fn new(max_panics: u32) -> Self {
        FaultPolicy {
            max_panics: max_panics.max(1),
            window: 0,
            action: FaultAction::default(),
        }
    }

    /// Sets the delivery-count window after which the panic count resets.
    pub fn window(mut self, window: u32) -> Self {
        self.window = window;
        self
    }

    /// Sets the action taken when a unit trips.
    pub fn action(mut self, action: FaultAction) -> Self {
        self.action = action;
        self
    }
}

/// Swap and fault telemetry counters, exported through
/// [`Engine::queue_stats`](crate::Engine::queue_stats). Kept separate from
/// [`EngineStats`](crate::EngineStats) so the classic counters stay exactly
/// what they were.
#[derive(Debug, Default)]
pub(crate) struct FaultCounters {
    /// Successful unit swaps, manual and fault-triggered.
    pub(crate) unit_swaps: AtomicU64,
    /// The subset of `unit_swaps` tripped by the fault policy.
    pub(crate) fault_swaps: AtomicU64,
    /// Panicking deliveries (a subset of `EngineStats::unit_errors`).
    pub(crate) unit_panics: AtomicU64,
    /// Units put into quarantine by the fault policy.
    pub(crate) units_quarantined: AtomicU64,
    /// Deliveries shed because their target was quarantined (one count per
    /// shed delivery — loud accounting, like ingress shed).
    pub(crate) quarantine_shed: AtomicU64,
}

impl FaultCounters {
    /// Successful unit swaps, manual and fault-triggered.
    pub fn unit_swaps(&self) -> u64 {
        self.unit_swaps.load(Ordering::Relaxed)
    }

    /// Fault-policy-triggered swaps.
    pub fn fault_swaps(&self) -> u64 {
        self.fault_swaps.load(Ordering::Relaxed)
    }

    /// Panicking deliveries.
    pub fn unit_panics(&self) -> u64 {
        self.unit_panics.load(Ordering::Relaxed)
    }

    /// Units quarantined.
    pub fn units_quarantined(&self) -> u64 {
        self.units_quarantined.load(Ordering::Relaxed)
    }

    /// Deliveries shed at quarantined units.
    pub fn quarantine_shed(&self) -> u64 {
        self.quarantine_shed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_builder_clamps_and_applies() {
        let policy = FaultPolicy::new(0);
        assert_eq!(policy.max_panics, 1, "a zero budget clamps to one");
        assert_eq!(policy.window, 0);
        assert_eq!(policy.action, FaultAction::AutoSwap);

        let policy = FaultPolicy::new(3)
            .window(64)
            .action(FaultAction::Quarantine);
        assert_eq!(policy.max_panics, 3);
        assert_eq!(policy.window, 64);
        assert_eq!(policy.action, FaultAction::Quarantine);
        assert_eq!(policy.action.as_str(), "quarantine");
        assert_eq!(FaultAction::AutoSwap.as_str(), "auto-swap");
    }

    #[test]
    fn counters_start_at_zero() {
        let counters = FaultCounters::default();
        assert_eq!(counters.unit_swaps(), 0);
        assert_eq!(counters.fault_swaps(), 0);
        assert_eq!(counters.unit_panics(), 0);
        assert_eq!(counters.units_quarantined(), 0);
        assert_eq!(counters.quarantine_shed(), 0);
    }
}
