//! One long-lived deployment must not accumulate interned labels.
//!
//! Every order carries a fresh per-order tag, so the process-wide label
//! intern table churns on every trade. Labels that outlive their orders
//! would grow the table without bound. `intern_stats()` counts the whole
//! process, so this check lives in a test binary of its own: other platform
//! tests running in parallel would move the count.

use defcon_core::SecurityMode;
use defcon_defc::intern_stats;
use defcon_trading::{TradingPlatform, TradingPlatformConfig};
use defcon_workload::TickGeneratorConfig;

const SLICES: usize = 10;
const TICKS_PER_SLICE: usize = 2_000;

#[test]
fn interned_labels_plateau_on_one_long_lived_deployment() {
    let mut platform = TradingPlatform::build(TradingPlatformConfig {
        mode: SecurityMode::LabelsFreezeIsolation,
        workers: 0,
        batch_size: 8,
        tick_config: TickGeneratorConfig {
            seed: 11,
            ..TickGeneratorConfig::default()
        },
        ..TradingPlatformConfig::default()
    })
    .unwrap();
    let live: Vec<usize> = (0..SLICES)
        .map(|_| {
            platform.run_ticks(TICKS_PER_SLICE).unwrap();
            intern_stats().live_labels
        })
        .collect();
    let report = platform.report();
    assert!(report.trades > 0, "the run must trade: {report:?}");

    // The table holds a standing population (units' labels, pair tags) plus
    // whatever in-flight orders keep alive. The first half sees that
    // plateau; the second half may wander within it, not climb past it.
    let (first, second) = live.split_at(SLICES / 2);
    let plateau = *first.iter().max().unwrap();
    let bound = plateau + plateau / 4;
    assert!(
        second.iter().all(|&labels| labels <= bound),
        "live interned labels per slice {live:?} exceed {bound} (1.25x the first half's {plateau})"
    );
}
