//! Fault-triggered swap and quarantine semantics, plus the publisher rebind
//! regression: a long-lived [`Publisher`] caches its unit's slot, and before
//! the rebind fix a `swap_unit` left that cached slot pointing at the retired
//! cell — publishes silently targeted a dead unit. These tests pin the fixed
//! behaviour: transparent rebind to the replacement, loud typed errors for
//! quarantined and removed units, and the deterministic `FaultPolicy` paths
//! (auto-swap to a registered standby, quarantine-and-shed with exact
//! accounting).
//!
//! Everything runs at `workers(0)`: deliveries happen on the pumping thread in
//! publish order, so panic counts, swap points and shed counts are exact, not
//! statistical.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use defcon_core::unit::NullUnit;
use defcon_core::{
    Engine, EngineError, EngineResult, EventDraft, FaultAction, FaultPolicy, SecurityMode, Unit,
    UnitContext, UnitSpec,
};
use defcon_events::{Event, Filter, Value};

/// Counts every successful delivery into a shared counter.
struct Counter {
    seen: Arc<AtomicU64>,
}

impl Unit for Counter {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("tick"))?;
        Ok(())
    }
    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        self.seen.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

/// Panics on every `every`-th delivery (1-based), counting the successful ones.
struct Panicky {
    every: u64,
    deliveries: u64,
    ok: Arc<AtomicU64>,
}

impl Unit for Panicky {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("tick"))?;
        Ok(())
    }
    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        self.deliveries += 1;
        if self.deliveries.is_multiple_of(self.every) {
            panic!("injected fault on delivery {}", self.deliveries);
        }
        self.ok.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

fn tick() -> EventDraft {
    EventDraft::new().public_part("type", Value::str("tick"))
}

/// Subscribes to every tick three times over and panics on every delivery.
struct TriplePanicky;

impl Unit for TriplePanicky {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        for _ in 0..3 {
            ctx.subscribe(Filter::for_type("tick"))?;
        }
        Ok(())
    }
    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        panic!("injected fault");
    }
}

/// Records the `seq` part of every delivery, in delivery order.
struct SeqLog {
    seen: Arc<Mutex<Vec<i64>>>,
}

impl Unit for SeqLog {
    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let seq = ctx.read_first(event, "seq")?.as_int().unwrap();
        self.seen.lock().unwrap().push(seq);
        Ok(())
    }
}

/// The stale-slot regression: a publisher created before a swap of its own
/// publishing unit must transparently rebind to the replacement slot and keep
/// admitting — not silently publish into the retired cell.
#[test]
fn publisher_rebinds_transparently_across_a_swap_of_its_unit() {
    let engine = Engine::builder().mode(SecurityMode::LabelsFreeze).build();
    let seen = Arc::new(AtomicU64::new(0));
    engine
        .register_unit(
            UnitSpec::new("sink"),
            Box::new(Counter {
                seen: Arc::clone(&seen),
            }),
        )
        .unwrap();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();

    let handle = engine.start();
    let publisher = engine.publisher(source).unwrap();
    assert!(publisher.publish(tick()).unwrap());

    // Swap the *publishing* unit out from under its long-lived publisher.
    assert_eq!(engine.swap_unit(source, Box::new(NullUnit)).unwrap(), 2);

    // Same publisher, no re-resolution by the caller: both paths must land.
    assert!(publisher.publish(tick()).unwrap());
    assert_eq!(
        publisher
            .publish_batch(vec![tick(), tick()])
            .unwrap()
            .accepted(),
        2
    );

    handle.pump_until_idle().unwrap();
    assert_eq!(
        seen.load(Ordering::SeqCst),
        4,
        "no publish may be silently dropped"
    );
    assert_eq!(engine.stats().published(), 4);
    assert_eq!(engine.unit_state(source).unwrap().version, 2);
    handle.shutdown().unwrap();
}

/// A removed unit stays a loud error: rebind only chases *swapped* slots, and
/// a publisher whose unit is gone reports `UnknownUnit` exactly as before.
#[test]
fn publisher_to_a_removed_unit_still_fails_loudly() {
    let engine = Engine::builder().build();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();
    let handle = engine.start();
    let publisher = engine.publisher(source).unwrap();
    assert!(publisher.publish(tick()).unwrap());
    engine.remove_unit(source).unwrap();
    let result = publisher.publish(tick());
    assert!(
        matches!(result, Err(EngineError::UnknownUnit(_))),
        "got {result:?}"
    );
    handle.shutdown().unwrap();
}

/// Quarantine refuses publishes with the typed error, and a subsequent swap
/// revives the unit: the replacement starts clean and admits again.
#[test]
fn quarantined_unit_refuses_publishes_until_swapped() {
    let engine = Engine::builder().build();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();
    let handle = engine.start();
    let publisher = engine.publisher(source).unwrap();
    assert!(publisher.publish(tick()).unwrap());

    engine.quarantine_unit(source).unwrap();
    let result = publisher.publish(tick());
    assert!(
        matches!(result, Err(EngineError::UnitQuarantined(_))),
        "got {result:?}"
    );
    let batch_result = publisher.publish_batch(vec![tick()]);
    assert!(
        matches!(batch_result, Err(EngineError::UnitQuarantined(_))),
        "got {batch_result:?}"
    );
    assert_eq!(engine.queue_stats().units_quarantined, 1);

    // swap_unit is the revival path: the replacement is a fresh, healthy cell.
    assert_eq!(engine.swap_unit(source, Box::new(NullUnit)).unwrap(), 2);
    assert!(
        publisher.publish(tick()).unwrap(),
        "the same publisher rebinds and admits"
    );
    handle.pump_until_idle().unwrap();
    assert_eq!(engine.stats().published(), 2);
    handle.shutdown().unwrap();
}

/// The deterministic auto-swap path: a unit panicking on every 2nd delivery
/// under `FaultPolicy::new(3)` trips after its 3rd panic (6th delivery), the
/// registered standby takes over at version 2, and every admitted event is
/// accounted for — delivered by the old incarnation, panicked, or delivered by
/// the standby. Nothing is lost.
#[test]
fn auto_swap_replaces_a_panicking_unit_within_the_fault_window() {
    let engine = Engine::builder()
        .batch_size(1)
        .fault(FaultPolicy::new(3).window(0).action(FaultAction::AutoSwap))
        .build();
    let flaky_ok = Arc::new(AtomicU64::new(0));
    let standby_ok = Arc::new(AtomicU64::new(0));
    let target = engine
        .register_unit(
            UnitSpec::new("flaky"),
            Box::new(Panicky {
                every: 2,
                deliveries: 0,
                ok: Arc::clone(&flaky_ok),
            }),
        )
        .unwrap();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();

    let handle = engine.start();
    {
        let standby_ok = Arc::clone(&standby_ok);
        engine
            .set_standby(
                target,
                Box::new(move || {
                    Box::new(Counter {
                        seen: Arc::clone(&standby_ok),
                    })
                }),
            )
            .unwrap();
    }

    let publisher = engine.publisher(source).unwrap();
    const TOTAL: u64 = 10;
    for _ in 0..TOTAL {
        publisher.publish(tick()).unwrap();
    }
    let pumped = handle.pump_until_idle().unwrap();
    assert_eq!(pumped as u64, TOTAL, "every admitted event is dispatched");

    // Deliveries 1..=6 hit the flaky incarnation (panics at 2, 4, 6; the 3rd
    // panic trips the policy), deliveries 7..=10 hit the standby.
    assert_eq!(flaky_ok.load(Ordering::SeqCst), 3);
    assert_eq!(standby_ok.load(Ordering::SeqCst), 4);

    let stats = engine.queue_stats();
    assert_eq!(stats.unit_panics, 3, "three injected panics counted");
    assert_eq!(
        stats.fault_swaps, 1,
        "the policy performed exactly one swap"
    );
    assert_eq!(stats.unit_swaps, 1);
    assert_eq!(stats.units_quarantined, 0);
    assert_eq!(stats.quarantine_shed, 0);
    assert_eq!(engine.unit_state(target).unwrap().version, 2);
    handle.shutdown().unwrap();
}

/// The quarantine path with exact accounting: a unit panicking on *every*
/// delivery under `Quarantine` with a budget of 2 takes two deliveries, is
/// quarantined, and the remaining queued events shed loudly — each one counted
/// in `quarantine_shed`, none silently vanishing.
#[test]
fn quarantine_policy_sheds_the_remaining_stream_with_exact_accounting() {
    let engine = Engine::builder()
        .batch_size(1)
        .fault(
            FaultPolicy::new(2)
                .window(0)
                .action(FaultAction::Quarantine),
        )
        .build();
    let ok = Arc::new(AtomicU64::new(0));
    let target = engine
        .register_unit(
            UnitSpec::new("doomed"),
            Box::new(Panicky {
                every: 1,
                deliveries: 0,
                ok: Arc::clone(&ok),
            }),
        )
        .unwrap();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();

    let handle = engine.start();
    let publisher = engine.publisher(source).unwrap();
    const TOTAL: u64 = 10;
    for _ in 0..TOTAL {
        publisher.publish(tick()).unwrap();
    }
    let pumped = handle.pump_until_idle().unwrap();
    assert_eq!(
        pumped as u64, TOTAL,
        "shed events are still consumed from the queue"
    );

    assert_eq!(
        ok.load(Ordering::SeqCst),
        0,
        "every attempted delivery panicked"
    );
    let stats = engine.queue_stats();
    assert_eq!(stats.unit_panics, 2, "the budget caps attempted deliveries");
    assert_eq!(stats.units_quarantined, 1);
    assert_eq!(
        stats.quarantine_shed,
        TOTAL - 2,
        "the rest shed, each one counted"
    );
    assert_eq!(stats.unit_swaps, 0);
    assert_eq!(stats.fault_swaps, 0);
    assert_eq!(
        engine.unit_state(target).unwrap().version,
        1,
        "no swap happened"
    );

    // The quarantined unit also refuses direct publishes.
    let poisoned = engine.publisher(target).unwrap();
    let result = poisoned.publish(tick());
    assert!(
        matches!(result, Err(EngineError::UnitQuarantined(_))),
        "got {result:?}"
    );
    handle.shutdown().unwrap();
}

/// `AutoSwap` with no registered standby cannot replace the unit — it must
/// degrade to quarantine rather than let the fault loop forever.
#[test]
fn auto_swap_without_a_standby_falls_back_to_quarantine() {
    let engine = Engine::builder()
        .batch_size(1)
        .fault(FaultPolicy::new(1).window(0).action(FaultAction::AutoSwap))
        .build();
    let ok = Arc::new(AtomicU64::new(0));
    engine
        .register_unit(
            UnitSpec::new("flaky"),
            Box::new(Panicky {
                every: 1,
                deliveries: 0,
                ok: Arc::clone(&ok),
            }),
        )
        .unwrap();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();

    let handle = engine.start();
    let publisher = engine.publisher(source).unwrap();
    for _ in 0..5 {
        publisher.publish(tick()).unwrap();
    }
    handle.pump_until_idle().unwrap();

    let stats = engine.queue_stats();
    assert_eq!(stats.unit_panics, 1);
    assert_eq!(stats.unit_swaps, 0, "no standby, no swap");
    assert_eq!(stats.units_quarantined, 1);
    assert_eq!(stats.quarantine_shed, 4);
    handle.shutdown().unwrap();
}

/// The windowed budget: panics further apart than the window never trip the
/// policy — the delivery-counted window resets the panic budget, so a unit
/// with a tolerable background fault rate keeps running untouched.
#[test]
fn panics_outside_the_window_do_not_trip_the_policy() {
    let engine = Engine::builder()
        .batch_size(1)
        // Budget of 2 panics within any 5-delivery window; the unit panics
        // every 8th delivery, so each window sees at most one panic.
        .fault(
            FaultPolicy::new(2)
                .window(5)
                .action(FaultAction::Quarantine),
        )
        .build();
    let ok = Arc::new(AtomicU64::new(0));
    let target = engine
        .register_unit(
            UnitSpec::new("mostly-fine"),
            Box::new(Panicky {
                every: 8,
                deliveries: 0,
                ok: Arc::clone(&ok),
            }),
        )
        .unwrap();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();

    let handle = engine.start();
    let publisher = engine.publisher(source).unwrap();
    const TOTAL: u64 = 40;
    for _ in 0..TOTAL {
        publisher.publish(tick()).unwrap();
    }
    handle.pump_until_idle().unwrap();

    let stats = engine.queue_stats();
    assert_eq!(stats.unit_panics, 5, "one panic per 8 deliveries over 40");
    assert_eq!(
        stats.units_quarantined, 0,
        "spread-out panics never trip the budget"
    );
    assert_eq!(stats.unit_swaps, 0);
    assert_eq!(stats.quarantine_shed, 0);
    assert_eq!(ok.load(Ordering::SeqCst), TOTAL - 5);
    assert_eq!(engine.unit_state(target).unwrap().version, 1);
    handle.shutdown().unwrap();
}

/// A trip in the middle of a run of same-unit deliveries ends the run: the
/// unit's remaining deliveries of the batch see the fault action, not the
/// faulted instance. Eight events in one batch against three subscriptions
/// make 24 deliveries; the first panics and trips `FaultPolicy::new(1)`, and
/// each of the other 23 is shed (`Quarantine`) or reaches the standby
/// (`AutoSwap`), exactly once and in subscription order.
#[test]
fn a_fault_trip_mid_batch_applies_to_the_rest_of_the_batch() {
    for action in [FaultAction::Quarantine, FaultAction::AutoSwap] {
        let engine = Engine::builder()
            .workers(0)
            .batch_size(8)
            .fault(FaultPolicy::new(1).action(action))
            .build();
        let target = engine
            .register_unit(UnitSpec::new("flaky"), Box::new(TriplePanicky))
            .unwrap();
        let source = engine
            .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
            .unwrap();
        let standby = Arc::new(Mutex::new(Vec::new()));
        {
            let standby = Arc::clone(&standby);
            engine
                .set_standby(
                    target,
                    Box::new(move || {
                        Box::new(SeqLog {
                            seen: Arc::clone(&standby),
                        })
                    }),
                )
                .unwrap();
        }

        let handle = engine.start();
        let publisher = engine.publisher(source).unwrap();
        let drafts = (0..8)
            .map(|seq| tick().public_part("seq", Value::Int(seq)))
            .collect();
        assert_eq!(publisher.publish_batch(drafts).unwrap().accepted(), 8);
        assert_eq!(handle.pump_until_idle().unwrap(), 8);

        let stats = engine.queue_stats();
        let name = action.as_str();
        assert_eq!(
            stats.unit_panics, 1,
            "{name}: only the first delivery panics"
        );
        let standby = standby.lock().unwrap().clone();
        match action {
            FaultAction::Quarantine => {
                assert_eq!(stats.units_quarantined, 1, "{name}");
                assert_eq!(stats.quarantine_shed, 23, "{name}: the rest shed");
                assert!(standby.is_empty(), "{name}: no swap happened");
            }
            FaultAction::AutoSwap => {
                assert_eq!(stats.fault_swaps, 1, "{name}");
                assert_eq!(stats.quarantine_shed, 0, "{name}");
                let expected: Vec<i64> = std::iter::repeat_n(0, 2)
                    .chain((1..8).flat_map(|seq| std::iter::repeat_n(seq, 3)))
                    .collect();
                assert_eq!(standby, expected, "{name}: the rest reach the standby");
            }
        }
        handle.shutdown().unwrap();
    }
}
