//! Deterministic tests of the elastic dispatcher worker pool.
//!
//! The pool's contract: a sustained backlog recruits workers up to
//! `workers_max`, an idle engine parks them back down to `workers_min` (after
//! the idle grace, in LIFO order), and `shutdown()` always drains and joins
//! every thread the band ever spawned — whatever the pool's scale at that
//! moment. The tests pin the *transitions* (scale-up under flood, park-down
//! after drain) by polling [`EngineHandle::queue_stats`] against generous
//! deadlines: the outcome is deterministic even though the exact instant of
//! each transition is scheduler-dependent.
//!
//! The scheduler's three counters are pinned here too: a small elastic band
//! under slow deliveries must recruit (`sched_wakes`), take whole runs from a
//! sibling shard (`sched_steals`) and reuse a sibling-built security snapshot
//! (`sched_snapshot_hits`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use defcon_core::unit::NullUnit;
use defcon_core::{
    Engine, EngineHandle, EngineResult, EventDraft, Publisher, SecurityMode, Unit, UnitContext,
    UnitSpec,
};
use defcon_events::{Event, Filter, Value};

/// A subscriber that sleeps per event, so the queue backs up and the pool has
/// a reason to scale.
struct SlowSink {
    received: Arc<AtomicU64>,
    delay: Duration,
}

impl Unit for SlowSink {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("tick"))?;
        Ok(())
    }

    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        std::thread::sleep(self.delay);
        self.received.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

const BAND_MIN: usize = 1;
const BAND_MAX: usize = 3;

fn elastic_engine(received: &Arc<AtomicU64>) -> (Engine, defcon_core::unit::UnitId) {
    let engine = Engine::builder()
        .mode(SecurityMode::LabelsFreeze)
        .workers_min(BAND_MIN)
        .workers_max(BAND_MAX)
        .batch_size(8)
        .elastic(
            defcon_core::ElasticConfig::new()
                .scale_up_depth(8)
                .idle_grace(Duration::from_millis(2)),
        )
        .event_cache(0)
        .build();
    engine
        .register_unit(
            UnitSpec::new("slow-sink"),
            Box::new(SlowSink {
                received: Arc::clone(received),
                delay: Duration::from_micros(200),
            }),
        )
        .unwrap();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();
    (engine, source)
}

fn tick_batch(n: usize) -> Vec<EventDraft> {
    (0..n)
        .map(|_| EventDraft::new().public_part("type", Value::str("tick")))
        .collect()
}

/// Publishes flood bursts until the pool's activation reaches `target` (every
/// enqueue feeds the pool's depth sampling), returning how many events were
/// accepted. Panics if the pool has not reached `target` within the deadline.
fn flood_until_active(
    handle: &EngineHandle,
    publisher: &Publisher,
    target: usize,
    deadline: Duration,
) -> u64 {
    let start = Instant::now();
    let mut published = 0u64;
    while handle.queue_stats().workers_active < target {
        assert!(
            start.elapsed() < deadline,
            "pool stuck at {} active workers (target {target}) after {deadline:?}; stats: {:?}",
            handle.queue_stats().workers_active,
            handle.queue_stats(),
        );
        published += publisher.publish_batch(tick_batch(32)).unwrap().accepted() as u64;
    }
    published
}

fn wait_for_active(handle: &EngineHandle, target: usize, deadline: Duration) {
    let start = Instant::now();
    while handle.queue_stats().workers_active != target {
        assert!(
            start.elapsed() < deadline,
            "pool did not settle at {target} active workers: {:?}",
            handle.queue_stats(),
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn flood_scales_to_max_and_idle_drain_parks_back_to_min() {
    let received = Arc::new(AtomicU64::new(0));
    let (engine, source) = elastic_engine(&received);
    let handle = engine.start();
    assert_eq!(handle.worker_count(), BAND_MAX, "the whole band is spawned");
    let stats = handle.queue_stats();
    assert_eq!(
        stats.workers_active, BAND_MIN,
        "the band starts at its floor"
    );
    assert_eq!(stats.workers_high_water, BAND_MIN);

    // A sustained backlog (slow sink, bursty publishes) must recruit the
    // whole band.
    let publisher = handle.publisher(source).unwrap();
    let mut published = flood_until_active(&handle, &publisher, BAND_MAX, Duration::from_secs(30));
    assert_eq!(handle.queue_stats().workers_high_water, BAND_MAX);

    // Once the backlog drains and the engine idles past the grace, the band
    // parks back down to its floor — and the high-water mark stays.
    assert!(
        handle.wait_idle(Duration::from_secs(60)),
        "flood must drain"
    );
    wait_for_active(&handle, BAND_MIN, Duration::from_secs(10));
    assert_eq!(handle.queue_stats().workers_high_water, BAND_MAX);

    // The shrunk pool still dispatches: the floor workers carry new load.
    published += publisher.publish_batch(tick_batch(8)).unwrap().accepted() as u64;
    assert!(handle.wait_idle(Duration::from_secs(30)));
    assert_eq!(received.load(Ordering::Relaxed), published);

    let dispatched = handle.shutdown().unwrap();
    assert_eq!(dispatched, published, "shutdown accounts for every event");
}

#[test]
fn mid_scale_shutdown_drains_and_joins_every_spawned_worker() {
    let received = Arc::new(AtomicU64::new(0));
    let (engine, source) = elastic_engine(&received);
    let handle = engine.start();
    let publisher = handle.publisher(source).unwrap();

    // Scale at least one worker beyond the floor, then shut down *while the
    // backlog is still live* — mid-scale, nothing parked-down yet.
    let published = flood_until_active(&handle, &publisher, 2, Duration::from_secs(30));
    let dispatched = handle.shutdown().unwrap();
    assert_eq!(
        dispatched, published,
        "a mid-scale shutdown must drain everything it accepted"
    );
    assert_eq!(received.load(Ordering::Relaxed), published);
    assert_eq!(engine.queue_depth(), 0);

    // Late publishes fail loudly — the drained runtime is really gone.
    let result = publisher.publish_batch(tick_batch(4));
    assert!(result.is_err(), "got {result:?}");
}

#[test]
fn fixed_pools_never_change_their_activation() {
    let received = Arc::new(AtomicU64::new(0));
    let engine = Engine::builder()
        .workers(2)
        .batch_size(8)
        .event_cache(0)
        .build();
    engine
        .register_unit(
            UnitSpec::new("sink"),
            Box::new(SlowSink {
                received: Arc::clone(&received),
                delay: Duration::ZERO,
            }),
        )
        .unwrap();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();
    let handle = engine.start();
    let publisher = handle.publisher(source).unwrap();
    for _ in 0..64 {
        let _ = publisher.publish_batch(tick_batch(32)).unwrap();
    }
    assert!(handle.wait_idle(Duration::from_secs(30)));
    let stats = handle.queue_stats();
    assert_eq!(stats.workers_active, 2);
    assert_eq!(stats.workers_high_water, 2);
    assert_eq!(stats.workers_min, 2);
    assert_eq!(stats.workers_max, 2);
    assert_eq!(stats.sched_wakes, 0, "a fixed pool never recruits");
    handle.shutdown().unwrap();
    assert_eq!(received.load(Ordering::Relaxed), 64 * 32);
}

/// The end-to-end pin of the three scheduler counters. A `1..2` band of slow
/// (200 µs) deliveries is fed bursts published as 8-event runs, which the run
/// queue's round-robin spreads over both shards. The backlog recruits the
/// parked worker (a wake); the recruit's first batch reuses the snapshot the
/// floor worker published for the unchanged epoch (a snapshot hit); and a
/// worker whose own shard runs dry takes a whole run from the other (a steal).
/// Every published event is still delivered exactly once.
#[test]
fn an_elastic_band_fires_every_scheduler_counter_and_delivers_exactly_once() {
    const RUN: usize = 8;
    const RUNS_PER_BURST: usize = 12;
    const MAX_BURSTS: usize = 50;
    let received = Arc::new(AtomicU64::new(0));
    let engine = Engine::builder()
        .mode(SecurityMode::LabelsFreeze)
        .workers_min(1)
        .workers_max(2)
        .batch_size(RUN)
        .elastic(
            defcon_core::ElasticConfig::new()
                .scale_up_depth(RUN)
                .idle_grace(Duration::from_millis(1)),
        )
        .event_cache(0)
        .build();
    engine
        .register_unit(
            UnitSpec::new("slow-sink"),
            Box::new(SlowSink {
                received: Arc::clone(&received),
                delay: Duration::from_micros(200),
            }),
        )
        .unwrap();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();
    let handle = engine.start();
    assert_eq!(
        handle.queue_stats().shard_depths.len(),
        2,
        "one shard per worker"
    );
    let publisher = handle.publisher(source).unwrap();

    let mut published = 0u64;
    let mut bursts = 0;
    let fired = |stats: &defcon_core::QueueStats| {
        stats.sched_wakes > 0 && stats.sched_steals > 0 && stats.sched_snapshot_hits > 0
    };
    while bursts < MAX_BURSTS && !fired(&handle.queue_stats()) {
        for _ in 0..RUNS_PER_BURST {
            published += publisher.publish_batch(tick_batch(RUN)).unwrap().accepted() as u64;
        }
        assert!(
            handle.wait_idle(Duration::from_secs(30)),
            "burst must drain"
        );
        bursts += 1;
    }
    let stats = handle.queue_stats();
    assert!(
        fired(&stats),
        "after {bursts} bursts: wakes={} steals={} snapshot_hits={}",
        stats.sched_wakes,
        stats.sched_steals,
        stats.sched_snapshot_hits
    );
    assert_eq!(stats.workers_high_water, 2);

    let dispatched = handle.shutdown().unwrap();
    assert_eq!(dispatched, published, "shutdown accounts for every event");
    assert_eq!(received.load(Ordering::Relaxed), published, "exactly-once");
}
