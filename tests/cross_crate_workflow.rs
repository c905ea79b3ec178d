//! Workspace-level integration tests spanning all crates: the Figure 4 workflow on
//! the assembled platform and the DEFCon-vs-baseline comparison of §6.2,
//! exercised through the umbrella crate's public API.

use defcon::prelude::*;
use defcon_baseline::{BaselineConfig, BaselinePlatform};
use defcon_trading::messages::event_type;
use defcon_trading::{TradingPlatform, TradingPlatformConfig};
use defcon_workload::TickGeneratorConfig;

fn platform_config(mode: SecurityMode, traders: usize) -> TradingPlatformConfig {
    TradingPlatformConfig {
        mode,
        traders,
        symbols: 8,
        regulator_sample: 2,
        volume_quota: 500,
        tick_config: TickGeneratorConfig {
            seed: 11,
            ..TickGeneratorConfig::default()
        },
        ..TradingPlatformConfig::default()
    }
}

/// Registers a unit that subscribes to every MATCH event without holding any
/// trader's tag.
fn register_match_snooper(engine: &Engine) -> UnitId {
    let snooper = engine
        .register_unit(
            UnitSpec::new("snooper"),
            Box::new(defcon::core::unit::NullUnit),
        )
        .unwrap();
    engine
        .with_unit(snooper, |_, ctx| {
            ctx.subscribe(Filter::for_type(event_type::MATCH))
        })
        .unwrap();
    snooper
}

/// Every match is confined to its trader's tag, so the snooper receives none
/// and each match it was refused is counted as a label rejection (every
/// order answers a distinct match).
fn assert_matches_confined(engine: &Engine, snooper: UnitId, orders: u64) {
    assert!(orders > 0);
    assert_eq!(engine.unit_state(snooper).unwrap().delivered, 0);
    assert!(
        engine.stats().label_rejections() >= orders,
        "{} rejections for {orders} orders",
        engine.stats().label_rejections()
    );
}

#[test]
fn figure4_workflow_end_to_end_through_umbrella_crate() {
    let mut platform =
        TradingPlatform::build(platform_config(SecurityMode::LabelsFreezeIsolation, 10))
            .expect("platform builds");
    let snooper = register_match_snooper(platform.engine());
    let report = platform.run_ticks(1_500).expect("run completes");

    assert!(report.orders > 0);
    assert!(report.trades > 0);
    assert!(report.latency_p70_ms > 0.0);
    assert!(report.memory_mib > 0.0);
    // The engine enforced label checks along the way.
    assert_matches_confined(platform.engine(), snooper, report.orders);
}

#[test]
fn defcon_outperforms_baseline_latency_at_scale() {
    // The paper's headline (§6.2): DEFCon's tick-to-trade latency stays in the
    // low-millisecond range while the per-JVM baseline pays per-hop serialisation
    // and per-agent filtering. Compare both on the same (small) workload.
    let traders = 8;
    let ticks = 2_000;

    let mut defcon = TradingPlatform::build(platform_config(
        SecurityMode::LabelsFreezeIsolation,
        traders,
    ))
    .expect("platform builds");
    let defcon_report = defcon.run_ticks(ticks).expect("run completes");

    let baseline_report = BaselinePlatform::new(BaselineConfig {
        traders,
        symbols: 8,
        ticks,
        feed_rate: Some(2_000.0),
        // A loopback socket plus FIX-gateway hop costs well above the in-process
        // default; modelling it explicitly also keeps this comparison from
        // flapping on hosts where both platforms run in the same few hundred
        // microseconds.
        hop_delay: std::time::Duration::from_micros(100),
        ..BaselineConfig::default()
    })
    .run();

    assert!(defcon_report.trades > 0);
    assert!(baseline_report.trades > 0);
    // Relative claim: the baseline's end-to-end latency must not be lower than
    // DEFCon's. (Absolute values are host-dependent.)
    assert!(
        baseline_report.total_p70_ms >= defcon_report.latency_p70_ms,
        "baseline p70 {} ms must be >= DEFCon p70 {} ms",
        baseline_report.total_p70_ms,
        defcon_report.latency_p70_ms
    );
    // The injected hop delay above makes the latency comparison robust but also
    // lenient, so pin DEFCon's own behaviour independently of the baseline: at 8
    // traders its tick-to-trade p70 runs well under a millisecond even in debug
    // builds, and a catastrophic engine regression (e.g. dispatch-path lock
    // contention) must not hide behind the slowed-down baseline. The bound is
    // generous on purpose — oversubscribed CI hosts run debug tests several
    // times slower than the measured ~0.1 ms, but not 500× slower. The unpaced
    // engine must also out-process the per-JVM baseline's paced feed outright.
    assert!(
        defcon_report.latency_p70_ms < 50.0,
        "DEFCon p70 {} ms is orders of magnitude above expectations",
        defcon_report.latency_p70_ms
    );
    assert!(
        defcon_report.throughput_eps > baseline_report.throughput_eps,
        "DEFCon {} ev/s must out-process the baseline {} ev/s",
        defcon_report.throughput_eps,
        baseline_report.throughput_eps
    );
    // And the per-client-domain baseline occupies more memory than the shared engine.
    assert!(baseline_report.memory_mib > defcon_report.memory_mib);
}

#[test]
fn prelude_covers_the_common_api_surface() {
    // Compile-time check that the umbrella prelude exposes the types an application
    // needs — including the v2 builder/handle/publisher surface — plus a small
    // runtime smoke test.
    let engine: Engine = EngineBuilder::new()
        .mode(SecurityMode::LabelsFreeze)
        .build();
    let unit = engine
        .register_unit(UnitSpec::new("u"), Box::new(defcon::core::unit::NullUnit))
        .unwrap();
    let handle: EngineHandle = engine.start();
    let publisher: Publisher = handle.publisher(unit).unwrap();
    let tag = publisher
        .with_context(|ctx| Ok(ctx.create_owned_tag("t")))
        .unwrap();
    publisher
        .publish(EventDraft::new().part(
            "type",
            Label::confidential(TagSet::singleton(tag)),
            Value::str("x"),
        ))
        .unwrap();
    assert_eq!(handle.pump_until_idle().unwrap(), 1);
    handle.shutdown().unwrap();
}

#[test]
fn multi_worker_platform_processes_the_figure4_workflow() {
    // The acceptance scenario of the v2 runtime API: the assembled platform on a
    // four-worker engine still produces orders and trades, and keeps every
    // match confined to its trader.
    let config = TradingPlatformConfig {
        workers: 4,
        ..platform_config(SecurityMode::LabelsFreeze, 8)
    };
    let mut platform = TradingPlatform::build(config).expect("platform builds");
    let snooper = register_match_snooper(platform.engine());
    let report = platform.run_ticks(800).expect("run completes");
    assert!(report.orders > 0);
    assert!(report.trades > 0);
    assert_matches_confined(platform.engine(), snooper, report.orders);
}
