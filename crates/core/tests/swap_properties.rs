//! Property-based tests of live unit swap (`swap_unit`) under dispatch load.
//!
//! Random runtime configurations — worker count, batch size, swap count and
//! swap timing — run a publish workload while a racing thread
//! hot-swaps the subscriber mid-dispatch. Every configuration must uphold:
//!
//! 1. **Exactly-once across the boundary**: every accepted event is delivered
//!    exactly once — to the old incarnation or the new one, never both, never
//!    zero — and graceful shutdown drains them all.
//! 2. **Version monotonicity**: once any delivery lands on incarnation `v`,
//!    no later delivery lands on an incarnation `< v`. The swap quiesces the
//!    old cell before the replacement goes live, so versions never interleave.
//! 3. **Per-unit serialisation**: `on_event` is never re-entered, even across
//!    the swap boundary (old and new incarnation share the re-entry flag).
//!
//! The vendored proptest shim generates cases deterministically from a fixed
//! seed; the `workers(4)` hot point from ISSUE acceptance is pinned by a
//! dedicated test below, and a single-worker
//! test pins exact FIFO order across the swap boundary.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use defcon_core::unit::NullUnit;
use defcon_core::{
    Engine, EngineResult, EventDraft, SecurityMode, Unit, UnitContext, UnitId, UnitSpec,
};
use defcon_events::{Event, Filter, Value};
use proptest::prelude::*;

/// Delivery ledger shared by every incarnation of the swapped unit.
struct SwapLedger {
    /// Per-sequence-number delivery count; each must end at exactly 1.
    delivered: Vec<AtomicU32>,
    /// Highest incarnation that has delivered so far (for monotonicity).
    last_version: AtomicU64,
    /// Set if any delivery observed a *lower* incarnation than one already seen.
    version_regressed: AtomicBool,
    /// Set if `on_event` was ever re-entered, across incarnations.
    reentered: AtomicBool,
    in_callback: AtomicBool,
}

impl SwapLedger {
    fn new(total_events: usize) -> Self {
        SwapLedger {
            delivered: (0..total_events).map(|_| AtomicU32::new(0)).collect(),
            last_version: AtomicU64::new(0),
            version_regressed: AtomicBool::new(false),
            reentered: AtomicBool::new(false),
            in_callback: AtomicBool::new(false),
        }
    }
}

/// One incarnation of the swapped unit. The initial registration has
/// `incarnation == 1`; the replacement passed to the k-th `swap_unit` call has
/// `incarnation == k + 1`, matching the engine-assigned version.
struct VersionedProbe {
    incarnation: u64,
    ledger: Arc<SwapLedger>,
}

impl Unit for VersionedProbe {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        // Only the initial registration runs init; replacements inherit the
        // subscription so no event can be double-matched across the swap.
        ctx.subscribe(Filter::for_type("tick"))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        if self.ledger.in_callback.swap(true, Ordering::SeqCst) {
            self.ledger.reentered.store(true, Ordering::SeqCst);
        }
        if let Ok(parts) = ctx.read_part(event, "seq") {
            if let Some((_, Value::Int(seq))) = parts.into_iter().next() {
                self.ledger.delivered[seq as usize].fetch_add(1, Ordering::SeqCst);
            }
        }
        let prev = self
            .ledger
            .last_version
            .fetch_max(self.incarnation, Ordering::SeqCst);
        if prev > self.incarnation {
            self.ledger.version_regressed.store(true, Ordering::SeqCst);
        }
        self.ledger.in_callback.store(false, Ordering::SeqCst);
        Ok(())
    }
}

fn tick_draft(seq: i64) -> EventDraft {
    EventDraft::new()
        .public_part("type", Value::str("tick"))
        .public_part("seq", Value::Int(seq))
}

/// Runs one configuration: `publishers` threads feed a total of
/// `publishers * events_each` uniquely numbered events while a racing thread
/// performs `swaps` hot swaps of the subscriber, `spacing_us` apart. Asserts
/// the swap invariants at the end.
fn check_swap_invariants(
    workers: usize,
    batch_size: usize,
    mode: SecurityMode,
    swaps: u64,
    spacing_us: u64,
) {
    const PUBLISHERS: u64 = 2;
    const EVENTS_EACH: u64 = 150;
    let total = (PUBLISHERS * EVENTS_EACH) as usize;

    let engine = Engine::builder()
        .mode(mode)
        .workers(workers)
        .batch_size(batch_size)
        .build();

    let ledger = Arc::new(SwapLedger::new(total));
    let target = engine
        .register_unit(
            UnitSpec::new("swap-target"),
            Box::new(VersionedProbe {
                incarnation: 1,
                ledger: Arc::clone(&ledger),
            }),
        )
        .unwrap();
    let sources: Vec<UnitId> = (0..PUBLISHERS)
        .map(|i| {
            engine
                .register_unit(UnitSpec::new(format!("feed-{i}")), Box::new(NullUnit))
                .unwrap()
        })
        .collect();

    let handle = engine.start();

    std::thread::scope(|scope| {
        for (p, &source) in sources.iter().enumerate() {
            let publisher = handle.publisher(source).unwrap();
            scope.spawn(move || {
                let base = p as u64 * EVENTS_EACH;
                let mut next = base;
                let end = base + EVENTS_EACH;
                while next < end {
                    let take = (end - next).min(batch_size as u64);
                    let drafts = (next..next + take)
                        .map(|seq| tick_draft(seq as i64))
                        .collect();
                    assert_eq!(
                        publisher.publish_batch(drafts).unwrap().accepted(),
                        take as usize
                    );
                    next += take;
                }
            });
        }
        // The racing swapper: replacement k carries incarnation k + 2 and the
        // engine must assign exactly that version.
        let swap_ledger = Arc::clone(&ledger);
        let handle_ref = &handle;
        scope.spawn(move || {
            for k in 0..swaps {
                std::thread::sleep(std::time::Duration::from_micros(spacing_us));
                let version = handle_ref
                    .swap_unit(
                        target,
                        Box::new(VersionedProbe {
                            incarnation: k + 2,
                            ledger: Arc::clone(&swap_ledger),
                        }),
                    )
                    .unwrap();
                assert_eq!(version, k + 2, "swap versions must be sequential");
            }
        });
    });

    let published = PUBLISHERS * EVENTS_EACH;
    let dispatched = handle.shutdown().unwrap();
    let config = format!(
        "workers={workers} batch={batch_size} mode={mode} \
         swaps={swaps} spacing={spacing_us}us"
    );
    assert_eq!(dispatched, published, "{config}: shutdown must drain");
    for (seq, count) in ledger.delivered.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::SeqCst),
            1,
            "{config}: event {seq} must be delivered exactly once (old or new \
             incarnation, never both, never zero)"
        );
    }
    assert!(
        !ledger.version_regressed.load(Ordering::SeqCst),
        "{config}: incarnation versions must be monotone across the swap"
    );
    assert!(
        !ledger.reentered.load(Ordering::SeqCst),
        "{config}: per-unit delivery must stay serialised across the swap"
    );

    let stats = engine.queue_stats();
    assert_eq!(
        stats.unit_swaps, swaps,
        "{config}: every swap must be counted"
    );
    assert_eq!(stats.fault_swaps, 0, "{config}: no fault policy ran");
    assert_eq!(
        engine.unit_state(target).unwrap().version,
        swaps + 1,
        "{config}: final unit version must reflect every swap"
    );
    assert_eq!(engine.stats().published(), published);
    assert_eq!(engine.stats().dispatched(), published);
    assert_eq!(engine.stats().deliveries(), published);
    assert_eq!(engine.queue_depth(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exactly_once_and_version_monotonicity_hold_across_racing_swaps(
        workers in 1usize..5,
        batch_size in 1usize..65,
        mode_index in 0usize..4,
        swaps in 1u64..4,
        spacing_us in 0u64..300,
    ) {
        let mode = SecurityMode::all()[mode_index];
        check_swap_invariants(workers, batch_size, mode, swaps, spacing_us);
    }
}

/// The acceptance hot point, guaranteed every run regardless of what the
/// seeded random cases sample: four workers at batch 8 under two contending
/// publishers with three mid-dispatch swaps, in every security mode.
#[test]
fn the_swap_hot_point_stays_covered_at_workers_4() {
    for mode in SecurityMode::all() {
        check_swap_invariants(4, 8, mode, 3, 150);
    }
}

/// Swap-then-publish index consistency: with the subscription index on, the
/// epoch bump inside `swap_unit` must atomically retire the cached index
/// alongside the owner snapshot, migrating the swapped unit's entries to the
/// replacement before any post-swap event plans. Events published before the
/// swap land on incarnation 1, events published after land on incarnation 2 —
/// each exactly once — and the index provably rebuilt across the boundary.
#[test]
fn swap_unit_migrates_index_entries_under_the_epoch_bump() {
    const BEFORE: u64 = 12;
    const AFTER: u64 = 9;
    let engine = Engine::builder()
        .mode(SecurityMode::LabelsFreeze)
        .workers(0)
        .batch_size(4)
        .subscription_index(true)
        .build();
    let ledger = Arc::new(SwapLedger::new((BEFORE + AFTER) as usize));
    let target = engine
        .register_unit(
            UnitSpec::new("swap-target"),
            Box::new(VersionedProbe {
                incarnation: 1,
                ledger: Arc::clone(&ledger),
            }),
        )
        .unwrap();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();

    let handle = engine.start();
    let publisher = handle.publisher(source).unwrap();
    for seq in 0..BEFORE {
        publisher.publish(tick_draft(seq as i64)).unwrap();
    }
    handle.pump_until_idle().unwrap();
    let rebuilds_before_swap = engine.queue_stats().index_rebuilds;
    assert!(
        rebuilds_before_swap > 0,
        "pumping with the index on must have built it"
    );
    assert_eq!(
        ledger.last_version.load(Ordering::SeqCst),
        1,
        "pre-swap events belong to incarnation 1"
    );

    let version = handle
        .swap_unit(
            target,
            Box::new(VersionedProbe {
                incarnation: 2,
                ledger: Arc::clone(&ledger),
            }),
        )
        .unwrap();
    assert_eq!(version, 2);
    for seq in BEFORE..BEFORE + AFTER {
        publisher.publish(tick_draft(seq as i64)).unwrap();
    }
    handle.pump_until_idle().unwrap();
    handle.shutdown().unwrap();

    for (seq, count) in ledger.delivered.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::SeqCst),
            1,
            "event {seq} must be delivered exactly once across the swap"
        );
    }
    assert_eq!(
        ledger.last_version.load(Ordering::SeqCst),
        2,
        "post-swap events must reach the replacement (its index entries \
         migrated with the epoch bump)"
    );
    assert!(
        !ledger.version_regressed.load(Ordering::SeqCst),
        "no post-swap delivery may land on the old incarnation"
    );
    assert!(
        engine.queue_stats().index_rebuilds > rebuilds_before_swap,
        "the swap's epoch bump must have retired the cached index"
    );
    assert_eq!(engine.stats().deliveries(), BEFORE + AFTER);
}

/// Per-unit FIFO across the swap boundary, pinned exactly: with one worker the
/// run queue is a single FIFO shard, so the recorded `(seq, incarnation)`
/// stream must be `0..N` in publish order with a non-decreasing incarnation —
/// the swap may move the cut point but never reorder or drop events.
#[test]
fn single_worker_fifo_order_is_preserved_across_the_swap_boundary() {
    struct OrderProbe {
        incarnation: u64,
        seen: Arc<parking_lot::Mutex<Vec<(i64, u64)>>>,
    }
    impl Unit for OrderProbe {
        fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
            ctx.subscribe(Filter::for_type("tick"))?;
            Ok(())
        }
        fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
            if let Ok(parts) = ctx.read_part(event, "seq") {
                if let Some((_, Value::Int(seq))) = parts.into_iter().next() {
                    self.seen.lock().push((seq, self.incarnation));
                }
            }
            Ok(())
        }
    }

    const TOTAL: i64 = 20 * 8;
    let engine = Engine::builder()
        .mode(SecurityMode::LabelsFreeze)
        .workers(1)
        .batch_size(8)
        .build();
    let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let target = engine
        .register_unit(
            UnitSpec::new("order-target"),
            Box::new(OrderProbe {
                incarnation: 1,
                seen: Arc::clone(&seen),
            }),
        )
        .unwrap();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();

    let handle = engine.start();
    let publisher = handle.publisher(source).unwrap();
    for batch in 0..20i64 {
        let drafts = (0..8).map(|i| tick_draft(batch * 8 + i)).collect();
        let _ = publisher.publish_batch(drafts).unwrap();
        if batch == 10 {
            // Don't swap before the worker has delivered anything — the swap
            // migrates the pending mailbox, so an early swap would hand the
            // whole stream to incarnation 2 and the mid-stream cut would
            // vanish. Bounded wait: ~500ms before giving up loudly below.
            for _ in 0..10_000 {
                if !seen.lock().is_empty() {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            // Mid-stream swap while the worker is draining earlier batches.
            let version = handle
                .swap_unit(
                    target,
                    Box::new(OrderProbe {
                        incarnation: 2,
                        seen: Arc::clone(&seen),
                    }),
                )
                .unwrap();
            assert_eq!(version, 2);
        }
    }
    handle.shutdown().unwrap();

    let seen = seen.lock();
    let seqs: Vec<i64> = seen.iter().map(|&(seq, _)| seq).collect();
    assert_eq!(
        seqs,
        (0..TOTAL).collect::<Vec<_>>(),
        "single-worker dispatch must preserve exact publish order across the swap"
    );
    let versions: Vec<u64> = seen.iter().map(|&(_, v)| v).collect();
    assert!(
        versions.windows(2).all(|w| w[0] <= w[1]),
        "incarnation must be non-decreasing along the delivery stream"
    );
    assert!(
        versions.contains(&1) && versions.contains(&2),
        "both incarnations must have delivered (swap landed mid-stream)"
    );
}
