//! Semantics of batched dispatch: turning on `batch_size(n)` changes how many
//! events a worker carries per run-queue visit — it must change nothing about
//! *what* is delivered. These tests pin exactly-once delivery, per-unit
//! serialisation and in-batch ordering at `workers(4) × batch_size(8)` across
//! all four security modes, plus the publish-batch-vs-shutdown race at the
//! engine level.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use defcon_core::unit::NullUnit;
use defcon_core::{Engine, EngineResult, EventDraft, SecurityMode, Unit, UnitContext, UnitSpec};
use defcon_events::{Event, Filter, Value};

/// Counts deliveries and asserts it is never re-entered: batched dispatch must
/// keep per-unit delivery serialised.
struct SerialProbe {
    received: Arc<AtomicU64>,
    reentered: Arc<AtomicBool>,
    in_callback: AtomicBool,
}

impl Unit for SerialProbe {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("tick"))?;
        Ok(())
    }

    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        if self.in_callback.swap(true, Ordering::SeqCst) {
            self.reentered.store(true, Ordering::SeqCst);
        }
        self.received.fetch_add(1, Ordering::SeqCst);
        self.in_callback.store(false, Ordering::SeqCst);
        Ok(())
    }
}

fn tick_draft(n: i64) -> EventDraft {
    EventDraft::new()
        .public_part("type", Value::str("tick"))
        .public_part("n", Value::Int(n))
}

// The headline `workers(4) × batch_size(8)` exactly-once sweep was replaced
// by the random-configuration property test in `tests/dispatch_properties.rs`,
// which covers that point (and the rest of the grid) with the same
// assertions; what remains here are the batching-specific semantics.

/// A recording subscriber used for ordering assertions.
struct OrderProbe {
    seen: Arc<parking_lot::Mutex<Vec<i64>>>,
}

impl Unit for OrderProbe {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("tick"))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        if let Ok(versions) = ctx.read_part(event, "n") {
            if let Some((_, Value::Int(n))) = versions.into_iter().next() {
                self.seen.lock().push(n);
            }
        }
        Ok(())
    }
}

/// With a single worker (one shard) the queue is FIFO, and a `publish_batch`
/// lands on one shard in draft order — so a subscriber must observe the exact
/// publication order even though events travel in batches of 8.
#[test]
fn publish_batch_order_is_preserved_with_a_single_worker() {
    for mode in SecurityMode::all() {
        let engine = Engine::builder()
            .mode(mode)
            .workers(1)
            .batch_size(8)
            .build();
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        engine
            .register_unit(
                UnitSpec::new("order-probe"),
                Box::new(OrderProbe {
                    seen: Arc::clone(&seen),
                }),
            )
            .unwrap();
        let source = engine
            .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
            .unwrap();

        let handle = engine.start();
        let publisher = handle.publisher(source).unwrap();
        const TOTAL: i64 = 20 * 8;
        for batch in 0..20 {
            let drafts = (0..8).map(|i| tick_draft(batch * 8 + i)).collect();
            let _ = publisher.publish_batch(drafts).unwrap();
        }
        handle.shutdown().unwrap();

        let seen = seen.lock();
        assert_eq!(
            *seen,
            (0..TOTAL).collect::<Vec<_>>(),
            "mode {mode}: single-worker batched dispatch must preserve publish order"
        );
    }
}

/// One entry of the global delivery log: which unit received which tick, and
/// whether the stamper's part was on it.
type Delivery = (&'static str, i64, bool);

/// Appends every tick it receives to a log shared by all units; with `stamp`
/// set it also adds a `stamp` part for the deliveries after it (§3.1.6).
struct Tracer {
    name: &'static str,
    stamp: bool,
    log: Arc<parking_lot::Mutex<Vec<Delivery>>>,
}

impl Unit for Tracer {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("tick"))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let n = ctx.read_first(event, "n")?.as_int().unwrap();
        let stamped = ctx.read_part(event, "stamp").is_ok();
        self.log.lock().push((self.name, n, stamped));
        if self.stamp {
            ctx.add_part_to_current(defcon_defc::Label::public(), "stamp", Value::Int(n))?;
        }
        Ok(())
    }
}

/// `batch_size(1)` (the default) and `batch_size(8)` must be observationally
/// identical on a deterministic single-threaded engine — batching is a carrier
/// change, not a semantics change. The comparison is the *global* delivery
/// sequence across units: each event reaches its subscribers in strict
/// subscription order, including a unit whose two subscriptions sit on either
/// side of other units', and a stamper's part reaches exactly the
/// subscriptions positioned after it.
#[test]
fn batch_size_does_not_change_single_threaded_results() {
    let run = |batch_size: usize| -> (u64, u64, Vec<Delivery>) {
        let engine = Engine::builder()
            .mode(SecurityMode::LabelsFreeze)
            .workers(0)
            .batch_size(batch_size)
            .build();
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let tracer = |name, stamp| {
            Box::new(Tracer {
                name,
                stamp,
                log: Arc::clone(&log),
            })
        };
        // Subscription positions: split, stamper, plain, split again.
        let split = engine
            .register_unit(UnitSpec::new("split"), tracer("split", false))
            .unwrap();
        engine
            .register_unit(UnitSpec::new("stamper"), tracer("stamper", true))
            .unwrap();
        engine
            .register_unit(UnitSpec::new("plain"), tracer("plain", false))
            .unwrap();
        engine
            .with_unit(split, |_, ctx| ctx.subscribe(Filter::for_type("tick")))
            .unwrap();
        let source = engine
            .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
            .unwrap();
        let handle = engine.start();
        let publisher = handle.publisher(source).unwrap();
        for batch in 0..10 {
            let drafts = (0..7).map(|i| tick_draft(batch * 7 + i)).collect();
            let _ = publisher.publish_batch(drafts).unwrap();
        }
        handle.pump_until_idle().unwrap();
        let stats = (
            engine.stats().dispatched(),
            engine.stats().deliveries(),
            log.lock().clone(),
        );
        handle.shutdown().unwrap();
        stats
    };

    let one = run(1);
    let expected: Vec<Delivery> = (0..70)
        .flat_map(|n| {
            [
                ("split", n, false),
                ("stamper", n, false),
                ("plain", n, true),
                ("split", n, true),
            ]
        })
        .collect();
    assert_eq!(one, (70, 280, expected));
    assert_eq!(run(8), one);
}

/// The batch snapshot semantics and their escape hatch: dispatch observes each
/// subscriber's security state as snapshotted when its batch began, so a unit
/// raising its own label *during* a delivery does not affect the visibility
/// checks of later events in the same batch. `batch_size(1)` is the documented
/// escape hatch — every event is its own batch, so every dispatch re-reads the
/// owner state and mid-batch label changes become observable immediately.
#[test]
fn batch_size_one_makes_mid_batch_label_changes_observable() {
    use defcon_core::context::LabelOp;
    use defcon_defc::{Component, Label, Privilege, Tag, TagSet};

    /// Raises its own input label (it holds `tag+`) when it sees a trigger
    /// event; counts every delivery it receives.
    struct Chameleon {
        tag: Tag,
        delivered: Arc<AtomicU64>,
    }

    impl Unit for Chameleon {
        fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
            ctx.subscribe(Filter::for_type("tick"))?;
            Ok(())
        }

        fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
            self.delivered.fetch_add(1, Ordering::SeqCst);
            if ctx.read_part(event, "trigger").is_ok() {
                ctx.change_in_out_label(Component::Confidentiality, LabelOp::Add, &self.tag)?;
            }
            Ok(())
        }
    }

    let run = |batch_size: usize| -> u64 {
        let engine = Engine::builder()
            .mode(SecurityMode::LabelsFreeze)
            .batch_size(batch_size)
            .build();
        let source = engine
            .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
            .unwrap();
        let publisher = engine.publisher(source).unwrap();
        let tag = publisher
            .with_context(|ctx| Ok(ctx.create_owned_tag("s-secret")))
            .unwrap();
        let delivered = Arc::new(AtomicU64::new(0));
        engine
            .register_unit(
                UnitSpec::new("chameleon").with_privilege(Privilege::add(tag.clone())),
                Box::new(Chameleon {
                    tag: tag.clone(),
                    delivered: Arc::clone(&delivered),
                }),
            )
            .unwrap();

        let handle = engine.start();
        // One batch: a public trigger (on which the chameleon raises its own
        // input label) followed by an event whose filtered part is
        // confidential under the tag the raise would make visible.
        let _ = publisher
            .publish_batch(vec![
                EventDraft::new()
                    .public_part("type", Value::str("tick"))
                    .public_part("trigger", Value::Int(1)),
                EventDraft::new().part(
                    "type",
                    Label::confidential(TagSet::singleton(tag.clone())),
                    Value::str("tick"),
                ),
            ])
            .unwrap();
        handle.pump_until_idle().unwrap();
        let seen = delivered.load(Ordering::SeqCst);
        handle.shutdown().unwrap();
        seen
    };

    assert_eq!(
        run(8),
        1,
        "with both events in one batch, the second is checked against the \
         batch-start snapshot: the mid-batch raise is not observed"
    );
    assert_eq!(
        run(1),
        2,
        "batch_size(1) re-snapshots per event: the raise is observable by the \
         very next dispatch"
    );
}

/// The engine-level batch-straddles-stop race: batches racing `shutdown` are
/// either rejected whole, or partially accepted with the accepted count exactly
/// matching what reaches the subscriber. Nothing is lost, nothing is duplicated
/// and the engine always settles idle.
#[test]
fn publish_batch_racing_shutdown_is_exact() {
    for round in 0..20 {
        let engine = Engine::builder()
            .mode(SecurityMode::LabelsFreeze)
            .workers(2)
            .batch_size(4)
            .build();
        let received = Arc::new(AtomicU64::new(0));
        let reentered = Arc::new(AtomicBool::new(false));
        engine
            .register_unit(
                UnitSpec::new("probe"),
                Box::new(SerialProbe {
                    received: Arc::clone(&received),
                    reentered: Arc::clone(&reentered),
                    in_callback: AtomicBool::new(false),
                }),
            )
            .unwrap();
        let source = engine
            .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
            .unwrap();

        let handle = engine.start();
        let publisher = handle.publisher(source).unwrap();
        let accepted = Arc::new(AtomicUsize::new(0));
        let driver = {
            let accepted = Arc::clone(&accepted);
            std::thread::spawn(move || {
                for batch in 0..50i64 {
                    let drafts = (0..4).map(|i| tick_draft(batch * 4 + i)).collect();
                    match publisher.publish_batch(drafts) {
                        Ok(admission) => {
                            accepted.fetch_add(admission.accepted(), Ordering::SeqCst);
                        }
                        // The runtime shut down underneath us: rejected loudly,
                        // nothing partially enqueued from this call onwards.
                        Err(_) => return,
                    }
                }
            })
        };
        if round % 2 == 0 {
            std::thread::yield_now();
        }
        handle.shutdown().unwrap();
        driver.join().unwrap();

        assert_eq!(
            received.load(Ordering::SeqCst) as usize,
            accepted.load(Ordering::SeqCst),
            "round {round}: accepted events are delivered exactly once, rejected ones never"
        );
        assert_eq!(engine.queue_depth(), 0, "round {round}");
    }
}
