//! End-to-end pins of the dispatcher worker pool and its scheduler counters.
//!
//! The pool is a fixed band: `workers(n)` spawns `n` workers that stay active
//! until shutdown, over one run-queue shard each, so its activation never
//! moves. Under slow deliveries two workers must take whole runs from a
//! sibling shard (`sched_steals`) and reuse a sibling-built security snapshot
//! (`sched_snapshot_hits`), while no worker is ever woken to join the band
//! (`sched_wakes` stays 0) and every event is delivered exactly once.
//! Fixed-pool drain on shutdown and late-publish rejection are pinned by the
//! `handle` unit tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use defcon_core::unit::NullUnit;
use defcon_core::{
    Engine, EngineResult, EventDraft, QueueStats, SecurityMode, Unit, UnitContext, UnitSpec,
};
use defcon_events::{Event, Filter, Value};

/// A subscriber that sleeps per event, so the queue backs up and both workers
/// have work to contend for.
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

fn tick_batch(n: usize) -> Vec<EventDraft> {
    (0..n)
        .map(|_| EventDraft::new().public_part("type", Value::str("tick")))
        .collect()
}

/// A flood through a `workers(2)` pool leaves its activation where it
/// started: two workers, two shards, no wakes, and every event delivered.
#[test]
fn fixed_pools_never_change_their_activation() {
    let received = Arc::new(AtomicU64::new(0));
    let engine = Engine::builder().workers(2).batch_size(8).build();
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
    assert_eq!(handle.worker_count(), 2);
    assert_eq!(stats.shard_depths.len(), 2);
    assert_eq!(stats.workers_high_water, 2);
    assert_eq!(stats.sched_wakes, 0, "a fixed pool never recruits");
    handle.shutdown().unwrap();
    assert_eq!(received.load(Ordering::Relaxed), 64 * 32);
}

/// The end-to-end pin of the scheduler counters. A band of two workers over
/// slow (200 µs) deliveries is fed bursts published as 8-event runs, which
/// the run queue's round-robin spreads over both shards. The second worker's
/// first batch reuses the snapshot the first one published for the unchanged
/// epoch (a snapshot hit), and a worker whose own shard runs dry takes a
/// whole run from the other (a steal). The band never changes size, so no
/// worker is woken, and every published event is delivered exactly once.
#[test]
fn an_elastic_band_fires_every_scheduler_counter_and_delivers_exactly_once() {
    const WORKERS: usize = 2;
    const RUN: usize = 8;
    const RUNS_PER_BURST: usize = 12;
    const MAX_BURSTS: usize = 50;
    let received = Arc::new(AtomicU64::new(0));
    let engine = Engine::builder()
        .mode(SecurityMode::LabelsFreeze)
        .workers(WORKERS)
        .batch_size(RUN)
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
    assert_eq!(handle.worker_count(), WORKERS);
    assert_eq!(
        handle.queue_stats().shard_depths.len(),
        WORKERS,
        "one shard per worker"
    );
    let publisher = handle.publisher(source).unwrap();

    let mut published = 0u64;
    let mut bursts = 0;
    let fired = |stats: &QueueStats| stats.sched_steals > 0 && stats.sched_snapshot_hits > 0;
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
        "after {bursts} bursts: steals={} snapshot_hits={}",
        stats.sched_steals,
        stats.sched_snapshot_hits
    );
    assert_eq!(stats.sched_wakes, 0, "a fixed band never wakes a worker");
    assert_eq!(stats.workers_high_water, WORKERS);

    let dispatched = handle.shutdown().unwrap();
    assert_eq!(dispatched, published, "shutdown accounts for every event");
    assert_eq!(received.load(Ordering::Relaxed), published, "exactly-once");
}
