//! Property-based tests of the runtime's delivery guarantees.
//!
//! Instead of hand-picked `(workers, batch_size)` points, these generate
//! random runtime configurations — worker count (including the manually pumped
//! `workers(0)` mode), batch size, security mode, publisher count and event
//! count — and assert the two invariants
//! every configuration must uphold:
//!
//! 1. **Exactly-once delivery**: every event the engine accepted reaches every
//!    matching subscriber exactly once, and graceful shutdown drains them all.
//! 2. **Per-unit serialisation**: a unit's `on_event` is never re-entered,
//!    no matter how many workers dispatch or how events are batched.
//!
//! The vendored proptest shim generates cases deterministically from a fixed
//! seed, so a failure reproduces by re-running the test. Because a fixed seed
//! also means a fixed sample of the grid, the historical hottest point —
//! `workers(4) × batch(8)` under four contending publishers, the cell the
//! deleted hand-picked sweeps pinned — keeps a guaranteed dedicated case
//! below alongside the random exploration.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use defcon_core::unit::NullUnit;
use defcon_core::{Engine, EngineResult, EventDraft, SecurityMode, Unit, UnitContext, UnitSpec};
use defcon_events::{Event, Filter, Value};
use proptest::prelude::*;

/// Counts deliveries and asserts it is never re-entered.
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

const SUBSCRIBERS: u64 = 2;

/// Runs one configuration end to end and asserts the delivery invariants.
fn check_delivery_invariants(
    workers: usize,
    batch_size: usize,
    mode: SecurityMode,
    publishers: u64,
    events_each: u64,
) {
    let engine = Engine::builder()
        .mode(mode)
        .workers(workers)
        .batch_size(batch_size)
        .build();

    let reentered = Arc::new(AtomicBool::new(false));
    let counters: Vec<Arc<AtomicU64>> = (0..SUBSCRIBERS)
        .map(|i| {
            let received = Arc::new(AtomicU64::new(0));
            engine
                .register_unit(
                    UnitSpec::new(format!("probe-{i}")),
                    Box::new(SerialProbe {
                        received: Arc::clone(&received),
                        reentered: Arc::clone(&reentered),
                        in_callback: AtomicBool::new(false),
                    }),
                )
                .unwrap();
            received
        })
        .collect();
    let sources: Vec<_> = (0..publishers)
        .map(|i| {
            engine
                .register_unit(UnitSpec::new(format!("feed-{i}")), Box::new(NullUnit))
                .unwrap()
        })
        .collect();

    let handle = engine.start();
    assert_eq!(handle.worker_count(), workers);

    // Each publisher thread feeds its share in batch_size-sized chunks
    // (publishing singles when the chunk degenerates to one draft), so the
    // batch size exercises both enqueue paths while workers — or nobody, at
    // workers(0) — drain concurrently.
    let threads: Vec<_> = sources
        .iter()
        .map(|&source| {
            let publisher = handle.publisher(source).unwrap();
            let batch = batch_size;
            let total = events_each;
            std::thread::spawn(move || {
                let mut remaining = total;
                while remaining > 0 {
                    let take = remaining.min(batch as u64);
                    if take == 1 {
                        publisher
                            .publish(EventDraft::new().public_part("type", Value::str("tick")))
                            .unwrap();
                    } else {
                        let drafts = (0..take)
                            .map(|_| EventDraft::new().public_part("type", Value::str("tick")))
                            .collect();
                        assert_eq!(
                            publisher.publish_batch(drafts).unwrap().accepted(),
                            take as usize
                        );
                    }
                    remaining -= take;
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().unwrap();
    }

    let published = publishers * events_each;
    // Graceful shutdown drains everything the publishers got accepted — on
    // worker threads or, at workers(0), on this thread.
    let dispatched = handle.shutdown().unwrap();
    assert_eq!(
        dispatched, published,
        "workers={workers} batch={batch_size} mode={mode}: \
         shutdown must drain"
    );
    for (i, counter) in counters.iter().enumerate() {
        assert_eq!(
            counter.load(Ordering::SeqCst),
            published,
            "workers={workers} batch={batch_size} mode={mode}: \
             probe {i} must see every event exactly once"
        );
    }
    assert!(
        !reentered.load(Ordering::SeqCst),
        "workers={workers} batch={batch_size} mode={mode}: \
         per-unit delivery must stay serialised"
    );
    assert_eq!(engine.stats().published(), published);
    assert_eq!(engine.stats().dispatched(), published);
    assert_eq!(engine.stats().deliveries(), published * SUBSCRIBERS);
    assert_eq!(engine.queue_depth(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exactly_once_delivery_and_per_unit_serialisation_hold_for_random_configs(
        workers in 0usize..5,
        batch_size in 1usize..65,
        mode_index in 0usize..4,
        publishers in 1u64..5,
        events_each in 0u64..200,
    ) {
        let mode = SecurityMode::all()[mode_index];
        check_delivery_invariants(
            workers,
            batch_size,
            mode,
            publishers,
            events_each,
        );
    }
}

/// The historical hot point, guaranteed every run regardless of what the
/// seeded random cases sample: four workers popping batches of eight while
/// four publisher threads contend, in every security mode — the configuration the deleted
/// `workers(4) × batch(8)` sweeps exercised, at their original contention
/// level. Four shards under four publishers is also where a worker whose own
/// shard runs dry takes whole runs from its siblings, so whole-run stealing is
/// exercised under real contention.
#[test]
fn the_hot_point_stays_covered_at_full_contention() {
    for mode in SecurityMode::all() {
        check_delivery_invariants(4, 8, mode, 4, 320);
    }
}
