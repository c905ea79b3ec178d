//! End-to-end pins of the dispatcher worker pool and its scheduler counters.
//!
//! The pool is a fixed band: `workers(n)` spawns `n` workers that stay active
//! until shutdown, all popping from one run queue, so its activation never
//! moves. Under slow deliveries two workers must reuse a sibling-built
//! security snapshot (`sched_snapshot_hits`), while no worker is ever woken
//! to join the band (`sched_wakes` stays 0), none takes work from another
//! (`sched_steals` stays 0) and every event is delivered exactly once.
//! Fixed-pool drain on shutdown and late-publish rejection are pinned by the
//! `handle` unit tests. A thread waiting in `wait_idle` dispatches in a parked
//! worker's place, and the dispatch-slot law — at most `max(workers, 1)`
//! threads dispatch at once — is pinned here too.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
/// started: two workers, no wakes, and every event delivered.
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
    let publisher = engine.publisher(source).unwrap();
    for _ in 0..64 {
        let _ = publisher.publish_batch(tick_batch(32)).unwrap();
    }
    assert!(handle.wait_idle(Duration::from_secs(30)));
    let stats = engine.queue_stats();
    assert_eq!(handle.worker_count(), 2);
    assert_eq!(stats.workers_high_water, 2);
    assert_eq!(stats.sched_wakes, 0, "a fixed pool never recruits");
    handle.shutdown().unwrap();
    assert_eq!(received.load(Ordering::Relaxed), 64 * 32);
}

/// The end-to-end pin of the scheduler counters. A band of two workers over
/// slow (200 µs) deliveries is fed bursts published as 8-event runs, which
/// both workers pop off the one run queue. The second worker's first batch
/// reuses the snapshot the first one published for the unchanged epoch (a
/// snapshot hit). The band never changes size, so no worker is woken, no
/// worker takes work from another, and every published event is delivered
/// exactly once.
#[test]
fn two_workers_share_one_snapshot_and_deliver_exactly_once() {
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
    assert_eq!(engine.queue_stats().workers_high_water, WORKERS);
    let publisher = engine.publisher(source).unwrap();

    let mut published = 0u64;
    let mut bursts = 0;
    let fired = |stats: &QueueStats| stats.sched_snapshot_hits > 0;
    while bursts < MAX_BURSTS && !fired(&engine.queue_stats()) {
        for _ in 0..RUNS_PER_BURST {
            published += publisher.publish_batch(tick_batch(RUN)).unwrap().accepted() as u64;
        }
        assert!(
            handle.wait_idle(Duration::from_secs(30)),
            "burst must drain"
        );
        bursts += 1;
    }
    let stats = engine.queue_stats();
    assert!(
        fired(&stats),
        "after {bursts} bursts: snapshot_hits={}",
        stats.sched_snapshot_hits
    );
    assert_eq!(stats.sched_wakes, 0, "a fixed band never wakes a worker");
    assert_eq!(stats.sched_steals, 0, "one queue leaves nothing to steal");
    assert_eq!(stats.workers_high_water, WORKERS);

    let dispatched = handle.shutdown().unwrap();
    assert_eq!(dispatched, published, "shutdown accounts for every event");
    assert_eq!(received.load(Ordering::Relaxed), published, "exactly-once");
}

/// Counts the callbacks running at once and remembers the most it saw.
#[derive(Default)]
struct Gauge {
    now: AtomicUsize,
    peak: AtomicUsize,
}

/// A subscriber whose callback holds the gauge for about 20 µs, so that
/// dispatching threads overlap if the slot law lets them; the first one also
/// records the sequence number of every event it receives.
struct Gauged {
    gauge: Arc<Gauge>,
    sequence: Option<Arc<parking_lot::Mutex<Vec<i64>>>>,
}

impl Unit for Gauged {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("seq"))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let running = self.gauge.now.fetch_add(1, Ordering::SeqCst) + 1;
        self.gauge.peak.fetch_max(running, Ordering::SeqCst);
        let until = Instant::now() + Duration::from_micros(20);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
        if let Some(sequence) = &self.sequence {
            let n = ctx
                .read_first(event, "n")?
                .as_int()
                .expect("an integer part");
            sequence.lock().push(n);
        }
        self.gauge.now.fetch_sub(1, Ordering::SeqCst);
        Ok(())
    }
}

/// One thread publishes 2,000 sequence-numbered events in batches of 8
/// while another loops on `wait_idle`, which dispatches whenever a worker is
/// parked. `workers + 1` units share a gauge, so a thread dispatching beyond
/// the `workers` slots would show as one more callback running at once. At
/// `workers(1)` the one slot also keeps the publisher's events in order.
#[test]
fn waiting_threads_dispatch_only_in_a_free_slot() {
    const EVENTS: i64 = 2_000;
    const BATCH: i64 = 8;
    for workers in [1, 2] {
        let engine = Engine::builder()
            .mode(SecurityMode::LabelsFreeze)
            .workers(workers)
            .batch_size(BATCH as usize)
            .build();
        let gauge = Arc::new(Gauge::default());
        let sequence = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for unit in 0..=workers {
            let gauged = Gauged {
                gauge: Arc::clone(&gauge),
                sequence: (unit == 0).then(|| Arc::clone(&sequence)),
            };
            engine
                .register_unit(UnitSpec::new(format!("gauged-{unit}")), Box::new(gauged))
                .unwrap();
        }
        let source = engine
            .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
            .unwrap();
        let handle = engine.start();
        let publisher = engine.publisher(source).unwrap();
        let published = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for first in (0..EVENTS).step_by(BATCH as usize) {
                    let drafts = (first..first + BATCH)
                        .map(|n| {
                            EventDraft::new()
                                .public_part("type", Value::str("seq"))
                                .public_part("n", Value::Int(n))
                        })
                        .collect();
                    assert_eq!(
                        publisher.publish_batch(drafts).unwrap().accepted(),
                        BATCH as usize
                    );
                }
                published.store(true, Ordering::SeqCst);
            });
            scope.spawn(|| loop {
                let done = published.load(Ordering::SeqCst);
                let idle = handle.wait_idle(Duration::from_secs(30));
                if done && idle {
                    break;
                }
            });
        });
        let peak = gauge.peak.load(Ordering::SeqCst);
        assert!(
            peak <= workers,
            "workers({workers}): {peak} callbacks ran at once"
        );
        let sequence = sequence.lock().clone();
        assert_eq!(sequence.len(), EVENTS as usize, "workers({workers})");
        if workers == 1 {
            assert!(
                sequence.windows(2).all(|pair| pair[0] < pair[1]),
                "workers(1): the publisher's events arrive in order"
            );
        }
        assert_eq!(
            handle.shutdown().unwrap(),
            EVENTS as u64,
            "workers({workers}): shutdown counts what the waiting thread dispatched"
        );
    }
}
