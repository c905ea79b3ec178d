//! Integration tests of the scenario-driver subsystem against a live engine:
//! every load shape delivers exactly once and drains, slow-consumer
//! backpressure builds and resolves, and — the termination sweep — a
//! mid-burst `shutdown()` drains cascades and rejects late external publishes
//! loudly at every batch size in {1, 8, 64}.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use defcon_core::unit::NullUnit;
use defcon_core::{
    Engine, EngineResult, EventDraft, SecurityMode, Unit, UnitContext, UnitId, UnitSpec,
};
use defcon_events::{Event, Filter, Value};
use defcon_workload::scenario::{
    BurstyOpenClose, CountingSink, MixedBatches, Scenario, ScenarioDriver, SlowConsumerFlood,
    ZipfLanes,
};

/// Registers one counting sink per scenario lane plus a feed unit, returning
/// the per-lane counters and the feed's unit id.
fn wire_lanes(engine: &Engine, lanes: usize) -> (Vec<Arc<AtomicU64>>, UnitId) {
    let counters = (0..lanes)
        .map(|lane| {
            let (sink, received) = CountingSink::new(ZipfLanes::lane_name(lane));
            engine
                .register_unit(UnitSpec::new(format!("sink-{lane}")), Box::new(sink))
                .unwrap();
            received
        })
        .collect();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();
    (counters, source)
}

#[test]
fn every_scenario_shape_delivers_exactly_once_and_drains() {
    let shapes: Vec<Box<dyn Fn() -> Box<dyn Scenario>>> = vec![
        Box::new(|| Box::new(ZipfLanes::new(6, 1.0, 32, 3_000, 11))),
        Box::new(|| {
            Box::new(BurstyOpenClose::new(
                6,
                128,
                4,
                Duration::from_millis(1),
                3_000,
            ))
        }),
        Box::new(|| Box::new(MixedBatches::new(6, vec![1, 8, 64], 3_000))),
    ];

    for make in shapes {
        let mut scenario = make();
        let engine = Engine::builder()
            .mode(SecurityMode::LabelsFreeze)
            .workers(2)
            .batch_size(8)
            .build();
        let (counters, source) = wire_lanes(&engine, scenario.lane_count());
        let handle = engine.start();

        let driver = ScenarioDriver::new(&handle, source).unwrap();
        let outcome = driver.run(scenario.as_mut());

        assert!(
            outcome.completed,
            "{}: replay must complete",
            outcome.scenario
        );
        assert!(outcome.drained, "{}: engine must drain", outcome.scenario);
        assert_eq!(
            outcome.published,
            scenario.total_events(),
            "{}: every event is accepted",
            outcome.scenario
        );
        assert_eq!(outcome.rejected, 0, "{}", outcome.scenario);
        let delivered: u64 = counters.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(
            delivered, outcome.published,
            "{}: every accepted event reaches exactly one lane sink exactly once",
            outcome.scenario
        );
        handle.shutdown().unwrap();
        assert_eq!(engine.queue_depth(), 0, "{}", outcome.scenario);
    }
}

#[test]
fn slow_consumer_backpressure_builds_and_still_drains_exactly() {
    let engine = Engine::builder()
        .mode(SecurityMode::LabelsFreeze)
        .workers(1)
        .batch_size(8)
        .build();
    let (sink, received) = CountingSink::new(ZipfLanes::lane_name(0));
    let sink = sink.with_delay(Duration::from_micros(200));
    engine
        .register_unit(UnitSpec::new("slow-sink"), Box::new(sink))
        .unwrap();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();
    let handle = engine.start();

    let mut scenario = SlowConsumerFlood::new(50, 400);
    let driver = ScenarioDriver::new(&handle, source).unwrap();
    let outcome = driver.run(&mut scenario);

    assert!(outcome.completed && outcome.drained);
    assert_eq!(outcome.published, 400);
    assert!(
        outcome.peak_queue_depth > 0,
        "a 200µs/event consumer must fall behind a 50-event burst: peak {}",
        outcome.peak_queue_depth
    );
    assert_eq!(
        received.load(Ordering::Relaxed),
        400,
        "backlog drains exactly"
    );
    handle.shutdown().unwrap();
}

/// A unit that republishes every lane-0 event as a `boom` from inside
/// dispatch: mid-burst shutdown must drain these cascades too.
struct Relay;

impl Unit for Relay {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type(&ZipfLanes::lane_name(0)))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        let draft = ctx.create_event();
        ctx.add_part(
            &draft,
            defcon_defc::Label::public(),
            "type",
            Value::str("boom"),
        )?;
        ctx.publish(draft)?;
        Ok(())
    }
}

/// The termination sweep: at every batch size in {1, 8, 64}, shutting down
/// mid-burst (while a detached driver floods the engine) drains every accepted
/// event *and* the cascades those events published, rejects the driver's
/// in-flight replay loudly, and rejects late external publishes loudly.
#[test]
fn mid_burst_shutdown_drains_cascades_and_rejects_late_publishes_loudly() {
    for batch_size in [1usize, 8, 64] {
        let engine = Engine::builder()
            .mode(SecurityMode::LabelsFreeze)
            .workers(2)
            .batch_size(batch_size)
            .build();
        engine
            .register_unit(UnitSpec::new("relay"), Box::new(Relay))
            .unwrap();
        let (boom_sink, booms) = CountingSink::new("boom");
        engine
            .register_unit(UnitSpec::new("boom-sink"), Box::new(boom_sink))
            .unwrap();
        let source = engine
            .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
            .unwrap();
        let publisher = engine.publisher(source).unwrap();
        let handle = engine.start();

        // Far more events than can drain before the shutdown below: the replay
        // is guaranteed to be cut off mid-burst.
        let driver_thread = std::thread::spawn(move || {
            let mut scenario = SlowConsumerFlood::new(batch_size.max(8), 2_000_000);
            ScenarioDriver::detached(publisher).run(&mut scenario)
        });

        // Let the replay actually start before pulling the plug.
        while engine.stats().published() == 0 {
            std::thread::yield_now();
        }
        let dispatched = handle.shutdown().unwrap();
        let outcome = driver_thread.join().unwrap();

        assert!(
            !outcome.completed && outcome.rejected > 0,
            "batch {batch_size}: shutdown must cut the replay off loudly \
             (rejected {}, completed {})",
            outcome.rejected,
            outcome.completed
        );
        // Every accepted lane-0 event was dispatched, reached the relay, and
        // the boom it published during the drain was dispatched too.
        assert_eq!(
            dispatched,
            2 * outcome.published,
            "batch {batch_size}: accepted events plus their cascades must drain"
        );
        assert_eq!(
            booms.load(Ordering::Relaxed),
            outcome.published,
            "batch {batch_size}: one boom per accepted event, none lost to shutdown"
        );
        assert_eq!(engine.queue_depth(), 0, "batch {batch_size}");

        // Late external publishes — single and batched — fail loudly.
        let late = engine.publisher(source).unwrap();
        let result = late
            .publish(EventDraft::new().public_part("type", Value::str(ZipfLanes::lane_name(0))));
        assert!(
            matches!(result, Err(defcon_core::EngineError::InvalidOperation(_))),
            "batch {batch_size}: late publish must be rejected loudly, got {result:?}"
        );
        let result = late.publish_batch(vec![
            EventDraft::new().public_part("type", Value::str(ZipfLanes::lane_name(0)))
        ]);
        assert!(
            matches!(result, Err(defcon_core::EngineError::InvalidOperation(_))),
            "batch {batch_size}: late batch publish must be rejected loudly, got {result:?}"
        );
        assert_eq!(
            engine.queue_depth(),
            0,
            "batch {batch_size}: nothing lingers"
        );
    }
}
