//! The full Figure 4 trading platform: exchange, pair monitors, traders, dark-pool
//! broker and regulator, with information flow control end to end.
//!
//! Run with: `cargo run --release --example trading_platform [traders] [ticks]`
//!
//! Exits non-zero unless orders, trades and regulator-republished ticks all
//! occurred without an engine fault, and the run registered no unit.

use defcon_core::SecurityMode;
use defcon_trading::{TradingPlatform, TradingPlatformConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let traders: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100);
    let ticks: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5_000);

    println!("Building DEFCon trading platform: {traders} traders, full security (labels+freeze+isolation)");
    let config = TradingPlatformConfig::new(SecurityMode::LabelsFreezeIsolation, traders);
    let mut platform = TradingPlatform::build(config).expect("platform builds");
    let units = platform.engine().unit_count();

    println!("Replaying {ticks} synthetic ticks through the platform...");
    let report = platform.run_ticks(ticks).expect("run completes");

    println!("\n{}", report.as_row());
    println!(
        "orders={}  trades={}  regulator audits={}  warnings={}  republished ticks={}",
        report.orders,
        report.trades,
        platform
            .regulator()
            .audited
            .load(std::sync::atomic::Ordering::Relaxed),
        report.warnings,
        platform
            .regulator()
            .republished
            .load(std::sync::atomic::Ordering::Relaxed),
    );
    println!(
        "engine: {} units, {} subscriptions, {} deliveries, {} label rejections",
        platform.engine().unit_count(),
        platform.engine().subscription_count(),
        platform.engine().stats().deliveries(),
        platform.engine().stats().label_rejections()
    );

    // The Figure 4 cascade (tick → match → order → trade, plus the
    // regulator's republished ticks) must run end to end: a dispatch-order
    // change that breaks it fails here.
    let republished = platform
        .regulator()
        .republished
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(report.orders > 0, "no orders were placed");
    assert!(report.trades > 0, "no trades were executed");
    assert!(republished > 0, "the regulator republished no ticks");
    assert_eq!(
        platform.engine().stats().engine_errors(),
        0,
        "engine faults"
    );
    // Managed handlers are not units: every order and trade runs its broker
    // or regulator handler without registering one.
    assert_eq!(
        platform.engine().unit_count(),
        units,
        "the run changed the unit count"
    );
}
