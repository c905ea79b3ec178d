//! The paper's evaluation figures (§6.2) as row printers.
//!
//! Each figure of the paper has a sweep function here and a binary under
//! `src/bin/` that prints its rows. Absolute numbers depend on the host; the
//! reproduced quantities are the orderings and ratios between
//! configurations. The repository's measured benchmark is
//! `defcon_benchmark/`; these sweeps only print.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use defcon_baseline::{BaselineConfig, BaselinePlatform, BaselineReport};
use defcon_core::SecurityMode;
use defcon_trading::{PlatformReport, TradingPlatform, TradingPlatformConfig};

/// Scale factors for a sweep: which trader counts to run and how many ticks to
/// replay per configuration.
#[derive(Debug, Clone)]
pub struct SweepScale {
    /// Trader counts for the DEFCon platform (Figures 5–7).
    pub defcon_traders: Vec<usize>,
    /// Ticks replayed per DEFCon configuration.
    pub defcon_ticks: usize,
    /// Trader counts for the baseline platform (Figures 8–9).
    pub baseline_traders: Vec<usize>,
    /// Ticks replayed per baseline configuration.
    pub baseline_ticks: usize,
}

impl SweepScale {
    /// The paper's full scale: 200–2,000 traders for DEFCon, 2–40 (Fig. 8) and
    /// 20–100 (Fig. 9) for the baseline.
    pub fn paper() -> Self {
        SweepScale {
            defcon_traders: vec![200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000],
            defcon_ticks: 20_000,
            baseline_traders: vec![2, 5, 10, 20, 30, 40],
            baseline_ticks: 20_000,
        }
    }

    /// A reduced scale for a quick look at each figure's shape.
    pub fn quick() -> Self {
        SweepScale {
            defcon_traders: vec![50, 100, 200],
            defcon_ticks: 1_500,
            baseline_traders: vec![2, 4, 8],
            baseline_ticks: 2_000,
        }
    }
}

/// Runs one DEFCon platform configuration (the platform's default worker
/// count) and returns its report.
pub fn run_defcon(mode: SecurityMode, traders: usize, ticks: usize) -> PlatformReport {
    let config = TradingPlatformConfig {
        mode,
        traders,
        symbols: 64,
        ..TradingPlatformConfig::default()
    };
    let mut platform = TradingPlatform::build(config).expect("platform builds");
    platform.run_ticks(ticks).expect("run completes")
}

/// Runs one baseline configuration and returns its report.
pub fn run_baseline(traders: usize, ticks: usize, feed_rate: Option<f64>) -> BaselineReport {
    let config = BaselineConfig {
        traders,
        symbols: 64,
        ticks,
        feed_rate,
        hop_delay: Duration::from_micros(20),
        per_agent_overhead_mib: 96.0,
        ..BaselineConfig::default()
    };
    BaselinePlatform::new(config).run()
}

/// Figure 5: maximum supported event rate in DEFCon as a function of the number of
/// traders, for the four security configurations.
pub fn figure5(scale: &SweepScale) {
    println!("== Figure 5: DEFCon maximum event rate vs number of traders ==");
    for mode in SecurityMode::all() {
        for &traders in &scale.defcon_traders {
            println!("{}", run_defcon(mode, traders, scale.defcon_ticks).as_row());
        }
    }
}

/// Figure 6: event processing latency (70th percentile tick-to-trade) in DEFCon.
pub fn figure6(scale: &SweepScale) {
    println!("== Figure 6: DEFCon trade latency (p70) vs number of traders ==");
    for mode in SecurityMode::all() {
        for &traders in &scale.defcon_traders {
            let report = run_defcon(mode, traders, scale.defcon_ticks);
            println!(
                "{:<26} traders={:<5} p70={:.3} ms  p50={:.3} ms",
                report.mode.figure_label(),
                report.traders,
                report.latency_p70_ms,
                report.latency_p50_ms
            );
        }
    }
}

/// Figure 7: occupied memory in DEFCon as a function of the number of traders.
pub fn figure7(scale: &SweepScale) {
    println!("== Figure 7: DEFCon occupied memory vs number of traders ==");
    for mode in SecurityMode::all() {
        for &traders in &scale.defcon_traders {
            let report = run_defcon(mode, traders, scale.defcon_ticks);
            println!(
                "{:<26} traders={:<5} memory={:.1} MiB",
                report.mode.figure_label(),
                report.traders,
                report.memory_mib
            );
        }
    }
}

/// Figure 8: maximum supported event rate in the Marketcetera-style baseline.
pub fn figure8(scale: &SweepScale) {
    println!("== Figure 8: baseline maximum event rate vs number of traders ==");
    for &traders in &scale.baseline_traders {
        println!(
            "{}",
            run_baseline(traders, scale.baseline_ticks, None).as_row()
        );
    }
}

/// Figure 9: baseline latency broken down into processing, ticks+processing and
/// ticks+orders+processing, at a paced feed of 1,000 ticks/s.
pub fn figure9(scale: &SweepScale) {
    println!("== Figure 9: baseline latency breakdown (p70, paced feed) ==");
    for &traders in &scale.baseline_traders {
        let ticks = scale.baseline_ticks.min(5_000);
        let report = run_baseline(traders, ticks, Some(1_000.0));
        println!(
            "marketcetera-like          traders={:<5} processing={:.3} ms  ticks+processing={:.3} ms  ticks+orders+processing={:.3} ms",
            report.traders,
            report.processing_p70_ms,
            report.ticks_processing_p70_ms,
            report.total_p70_ms
        );
    }
}

/// One of the paper's evaluation figures, as selected by the `fig*` binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Figure 5: DEFCon maximum event rate.
    Fig5,
    /// Figure 6: DEFCon trade latency.
    Fig6,
    /// Figure 7: DEFCon occupied memory.
    Fig7,
    /// Figure 8: baseline maximum event rate.
    Fig8,
    /// Figure 9: baseline latency breakdown.
    Fig9,
}

impl Figure {
    /// All figures, in paper order.
    pub fn all() -> [Figure; 5] {
        [
            Figure::Fig5,
            Figure::Fig6,
            Figure::Fig7,
            Figure::Fig8,
            Figure::Fig9,
        ]
    }

    /// Runs this figure's sweep, printing its rows.
    pub fn run(&self, scale: &SweepScale) {
        match self {
            Figure::Fig5 => figure5(scale),
            Figure::Fig6 => figure6(scale),
            Figure::Fig7 => figure7(scale),
            Figure::Fig8 => figure8(scale),
            Figure::Fig9 => figure9(scale),
        }
    }
}

/// The CLI driver shared by the `fig*` binaries: `--quick` selects the reduced
/// sweep; the rows go to stdout.
pub fn run_figures_cli(figures: &[Figure]) {
    let scale = if std::env::args().any(|a| a == "--quick") {
        SweepScale::quick()
    } else {
        SweepScale::paper()
    };
    for figure in figures {
        figure.run(&scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_defcon_run_produces_metrics() {
        let report = run_defcon(SecurityMode::LabelsFreeze, 20, 600);
        assert_eq!(report.traders, 20);
        assert!(report.throughput_eps > 0.0);
    }

    #[test]
    fn quick_baseline_run_produces_metrics() {
        let report = run_baseline(2, 500, None);
        assert_eq!(report.traders, 2);
        assert!(report.throughput_eps > 0.0);
    }
}
