//! Exact work counts of fixed programs, committed as a tier-1 gate.
//!
//! Each program runs at `workers(0)`, so every event is dispatched on the
//! test thread in a fixed order and its work counts (events dispatched,
//! deliveries, label rejections, managed deliveries, orders, trades) are the
//! same on every run and in debug and release builds. A counting global
//! allocator, installed in this test binary only, adds the heap allocations
//! and requested bytes of the measured phase. Those repeat within a few
//! counts; the slack is [`ALLOCATION_SLACK`] and [`BYTE_SLACK`].
//!
//! The binary holds one test, so nothing else allocates beside it.
//!
//! A change in any committed value is a change in what the engine does per
//! event. A change that is meant to cut work updates the values below and
//! says by how much; any other change must leave them as they are.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use defcon_core::unit::NullUnit;
use defcon_core::{
    Engine, EngineHandle, EngineResult, EventDraft, SecurityMode, Unit, UnitContext, UnitSpec,
};
use defcon_defc::Label;
use defcon_durability::{FsyncPolicy, WalConfig, WalWriter};
use defcon_events::{Event, EventBuilder, Filter, Value};
use defcon_trading::messages::{event_type, order};
use defcon_trading::{TradingPlatform, TradingPlatformConfig};

/// Counts every allocation (`realloc` included) and the bytes it asks for,
/// then defers to the system allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no heap memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How far a run's allocation count may lie from its committed value. Two
/// sources vary between runs: hash tables grow at moments that depend on
/// their random seeds (up to 3 allocations apart here), and the trading
/// platform's throughput recorder keeps one sample per elapsed 100 ms, so
/// its sample vector grows (and its report copies it) a wall-clock-dependent
/// number of times.
const ALLOCATION_SLACK: u64 = 10;

/// How far a run's requested bytes may lie from their committed value. The
/// recorder's samples are 8 bytes each: over a measured phase of up to 10 s
/// (100 windows) its doublings to 128 samples ask for 2,016 bytes and the
/// report's copy for 800 more, where the committed release run closes one
/// or two windows.
const BYTE_SLACK: u64 = 4_096;

/// Ticks replayed before the measured phase, so per-unit state (order books,
/// pair statistics, interned labels) has reached its working size.
const WARM_UP_TICKS: usize = 2_000;
/// Ticks in the measured phase.
const TICKS: usize = 10_000;
/// Events published per fan-out program, in batches of [`FANOUT_BATCH`].
const FANOUT_EVENTS: usize = 10_000;
const FANOUT_BATCH: usize = 8;
/// Batches appended by the log program.
const WAL_APPENDS: u64 = 10_000;

/// What one program did in its measured phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    dispatched: u64,
    deliveries: u64,
    label_rejections: u64,
    managed_deliveries: u64,
    orders: u64,
    trades: u64,
    /// Bytes the log program left on disk (its frames after a clean close).
    log_bytes: u64,
    allocations: u64,
    bytes: u64,
}

const NOTHING: Work = Work {
    dispatched: 0,
    deliveries: 0,
    label_rejections: 0,
    managed_deliveries: 0,
    orders: 0,
    trades: 0,
    log_bytes: 0,
    allocations: 0,
    bytes: 0,
};

impl Work {
    /// Whether `self` (a run) matches `expected`: exact on the work counts,
    /// within the slack on allocations and bytes.
    fn matches(&self, expected: &Work) -> bool {
        let heap_free = |work: &Work| Work {
            allocations: 0,
            bytes: 0,
            ..*work
        };
        heap_free(self) == heap_free(expected)
            && self.allocations.abs_diff(expected.allocations) <= ALLOCATION_SLACK
            && self.bytes.abs_diff(expected.bytes) <= BYTE_SLACK
    }
}

/// The allocator's running totals.
fn heap() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// The engine's counters and the allocator's totals at one instant. The
/// allocator is read first and nothing between the two reads allocates.
fn engine_reading(engine: &Engine) -> Work {
    let (allocations, bytes) = heap();
    let stats = engine.stats();
    Work {
        dispatched: stats.dispatched(),
        deliveries: stats.deliveries(),
        label_rejections: stats.label_rejections(),
        managed_deliveries: stats.managed_deliveries(),
        allocations,
        bytes,
        ..NOTHING
    }
}

/// What happened between two readings.
fn since(before: Work, after: Work) -> Work {
    Work {
        dispatched: after.dispatched - before.dispatched,
        deliveries: after.deliveries - before.deliveries,
        label_rejections: after.label_rejections - before.label_rejections,
        managed_deliveries: after.managed_deliveries - before.managed_deliveries,
        orders: after.orders - before.orders,
        trades: after.trades - before.trades,
        log_bytes: after.log_bytes - before.log_bytes,
        allocations: after.allocations - before.allocations,
        bytes: after.bytes - before.bytes,
    }
}

/// A unit with public labels that subscribes to the orders' identity part,
/// which carries the broker tag and a per-order tag. It may see none of it,
/// so every order is a label rejection charged to it, and the run's
/// deliveries equal those of the same run without it.
struct Snooper;

impl Unit for Snooper {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type(event_type::ORDER).where_exists(order::NAME))?;
        Ok(())
    }

    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        Ok(())
    }
}

/// The Figure 4 vertical: 200 traders on 64 symbols, batch 8, driven on the
/// test thread. With `snooper`, a public [`Snooper`] is registered beside it.
fn trading(mode: SecurityMode, snooper: bool) -> Work {
    let mut platform = TradingPlatform::build(TradingPlatformConfig {
        workers: 0,
        batch_size: 8,
        ..TradingPlatformConfig::new(mode, 200)
    })
    .unwrap();
    if snooper {
        platform
            .engine()
            .register_unit(UnitSpec::new("snooper"), Box::new(Snooper))
            .unwrap();
    }
    platform.run_ticks(WARM_UP_TICKS).unwrap();

    let report = platform.report();
    let before = Work {
        orders: report.orders,
        trades: report.trades,
        ..engine_reading(platform.engine())
    };
    platform.run_ticks(TICKS).unwrap();
    let after = engine_reading(platform.engine());
    let report = platform.report();
    since(
        before,
        Work {
            orders: report.orders,
            trades: report.trades,
            ..after
        },
    )
}

/// A sink that does nothing with its deliveries.
struct Sink;

impl Unit for Sink {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("ping"))?;
        Ok(())
    }

    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        Ok(())
    }
}

fn ping_batch(first: usize) -> Vec<EventDraft> {
    (first..first + FANOUT_BATCH)
        .map(|seq| {
            EventDraft::new()
                .public_part("type", Value::str("ping"))
                .public_part("seq", Value::Int(seq as i64))
        })
        .collect()
}

/// One external publisher feeding `sinks` no-op sinks under `LabelsFreeze`,
/// one batch at a time, each drained before the next.
fn fanout(sinks: usize) -> Work {
    let engine = Engine::builder()
        .mode(SecurityMode::LabelsFreeze)
        .workers(0)
        .batch_size(FANOUT_BATCH)
        .build();
    for index in 0..sinks {
        engine
            .register_unit(UnitSpec::new(format!("sink-{index}")), Box::new(Sink))
            .unwrap();
    }
    let source = engine
        .register_unit(UnitSpec::new("source"), Box::new(NullUnit))
        .unwrap();
    let feed = engine.publisher(source).unwrap();
    let handle = engine.start();
    let drive = |handle: &EngineHandle, first: usize| {
        let admission = feed.publish_batch(ping_batch(first)).unwrap();
        assert_eq!(admission.accepted(), FANOUT_BATCH);
        assert!(handle.wait_idle(Duration::from_secs(30)));
    };
    drive(&handle, 0);

    let before = engine_reading(handle.engine());
    for first in (FANOUT_BATCH..FANOUT_BATCH + FANOUT_EVENTS).step_by(FANOUT_BATCH) {
        drive(&handle, first);
    }
    let after = engine_reading(handle.engine());
    handle.shutdown().unwrap();
    since(before, after)
}

/// Appends one batch of eight two-part events [`WAL_APPENDS`] times to a log
/// that never syncs, and measures the frames it leaves on disk.
fn wal_appends() -> Work {
    let dir = std::env::temp_dir().join(format!("defcon-work-counts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = WalWriter::open(WalConfig::new(&dir).fsync(FsyncPolicy::Never)).unwrap();
    let label = Label::public();
    let events: Vec<Event> = (0..8)
        .map(|seq| {
            EventBuilder::new()
                .part("type", Label::public(), Value::str("ping"))
                .part("seq", Label::public(), Value::Int(seq))
                .origin_ns(1_000 + seq as u64)
                .build()
                .unwrap()
        })
        .collect();
    writer.append(1, &label, 0, &events).unwrap();

    let (allocations, bytes) = heap();
    for arrival_ns in 1..=WAL_APPENDS {
        writer.append(1, &label, arrival_ns, &events).unwrap();
    }
    let after = heap();
    drop(writer);
    let log_bytes = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().metadata().unwrap().len())
        .sum();
    std::fs::remove_dir_all(&dir).unwrap();
    Work {
        log_bytes,
        allocations: after.0 - allocations,
        bytes: after.1 - bytes,
        ..NOTHING
    }
}

/// The vertical's work per 10,000 measured ticks, identical in every mode:
/// the modes differ only in what a delivery copies.
const TRADING: Work = Work {
    dispatched: 21_796,
    deliveries: 80_345,
    managed_deliveries: 6_812,
    orders: 4_781,
    trades: 2_031,
    ..NOTHING
};

/// The fan-out programs' shared counts: one dispatch per event, and no
/// allocation that grows with the number of sinks.
const FANOUT: Work = Work {
    dispatched: FANOUT_EVENTS as u64,
    allocations: 32_500,
    bytes: 4_320_000,
    ..NOTHING
};

/// The committed values, measured on a release build.
const EXPECTED: [(&str, Work); 7] = [
    (
        "trading NoSecurity",
        Work {
            allocations: 336_657,
            bytes: 37_082_565,
            ..TRADING
        },
    ),
    (
        "trading LabelsFreeze",
        Work {
            allocations: 348_843,
            bytes: 37_927_461,
            ..TRADING
        },
    ),
    (
        "trading LabelsClone",
        Work {
            allocations: 759_499,
            bytes: 83_825_185,
            ..TRADING
        },
    ),
    // Every order is refused to the snooper (one rejection each), and the
    // refusals allocate nothing.
    (
        "trading LabelsFreeze + snooper",
        Work {
            label_rejections: 4_781,
            allocations: 348_843,
            bytes: 37_927_461,
            ..TRADING
        },
    ),
    (
        "fan-out to 1 sink",
        Work {
            deliveries: FANOUT_EVENTS as u64,
            ..FANOUT
        },
    ),
    (
        "fan-out to 8 sinks",
        Work {
            deliveries: 8 * FANOUT_EVENTS as u64,
            ..FANOUT
        },
    ),
    // One 652-byte frame per batch of eight events (10,001 with the warm-up
    // append) after the segment's 8-byte magic, and no allocation per append.
    (
        "log appends, FsyncPolicy::Never",
        Work {
            log_bytes: 8 + 652 * (WAL_APPENDS + 1),
            ..NOTHING
        },
    ),
];

#[test]
fn fixed_programs_do_their_committed_work() {
    let runs = [
        trading(SecurityMode::NoSecurity, false),
        trading(SecurityMode::LabelsFreeze, false),
        trading(SecurityMode::LabelsClone, false),
        trading(SecurityMode::LabelsFreeze, true),
        fanout(1),
        fanout(8),
        wal_appends(),
    ];
    let mismatches: Vec<String> = EXPECTED
        .iter()
        .zip(&runs)
        .filter(|((_, expected), run)| !run.matches(expected))
        .map(|((name, expected), run)| {
            format!("{name}:\n  expected {expected:?}\n  measured {run:?}")
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "work counts moved (allocations may differ by {ALLOCATION_SLACK}, bytes by {BYTE_SLACK}):\n{}",
        mismatches.join("\n")
    );
}
