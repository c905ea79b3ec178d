//! End-to-end tests of the Figure 4 workflow on the assembled trading platform.

use std::collections::HashSet;

use defcon_core::unit::NullUnit;
use defcon_core::{Engine, SecurityMode, UnitId, UnitSpec};
use defcon_events::Filter;
use defcon_trading::messages::event_type;
use defcon_trading::{TradingPlatform, TradingPlatformConfig};
use defcon_workload::TickGeneratorConfig;

fn small_config(mode: SecurityMode, traders: usize) -> TradingPlatformConfig {
    TradingPlatformConfig {
        mode,
        traders,
        symbols: 8,
        regulator_sample: 2,
        volume_quota: 500,
        tick_config: TickGeneratorConfig {
            seed: 7,
            ..TickGeneratorConfig::default()
        },
        ..TradingPlatformConfig::default()
    }
}

/// Registers a unit that subscribes to every MATCH event without holding any
/// trader's tag.
fn register_match_snooper(engine: &Engine) -> UnitId {
    let snooper = engine
        .register_unit(UnitSpec::new("snooper"), Box::new(NullUnit))
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
fn full_workflow_produces_matches_orders_trades_and_audits() {
    let mut platform =
        TradingPlatform::build(small_config(SecurityMode::LabelsFreezeIsolation, 8)).unwrap();

    let report = platform.run_ticks(2_000).unwrap();

    assert_eq!(report.ticks, 2_000);
    assert!(report.orders > 0, "traders must have placed orders");
    assert!(report.trades > 0, "the dark pool must have matched trades");
    assert!(
        platform
            .regulator()
            .audited
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "the regulator must have audited sampled trades"
    );
    assert!(
        platform
            .regulator()
            .republished
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "audited trades are republished as endorsed ticks (step 9)"
    );
    assert!(
        report.latency_p70_ms > 0.0,
        "latency must have been recorded"
    );
    assert!(report.throughput_eps > 0.0);
    assert!(report.memory_mib > 0.0);
    // With a small volume quota and repeated trading, warnings appear (step 8).
    assert!(report.warnings > 0, "quota warnings expected: {report:?}");
    // The row formatter mentions the mode.
    assert!(report.as_row().contains("isolation"));
}

#[test]
fn broker_swaps_live_mid_session_without_losing_the_order_flow() {
    let mut platform = TradingPlatform::build(small_config(SecurityMode::LabelsFreeze, 8)).unwrap();

    // First half of the session on broker v1.
    let report = platform.run_ticks(1_000).unwrap();
    let trades_before = report.trades;
    assert!(trades_before > 0, "the first half must have matched trades");

    // Live upgrade of the matching engine while the market is open.
    assert_eq!(platform.swap_broker().unwrap(), 2);
    assert_eq!(platform.engine().queue_stats().unit_swaps, 1);

    // Second half on broker v2: the replacement inherits the broker's labels,
    // privileges and shared order book, so trading continues seamlessly.
    let report = platform.run_ticks(1_000).unwrap();
    assert_eq!(report.ticks, 2_000);
    assert!(
        report.trades > trades_before,
        "the replacement broker must keep matching: {} then {}",
        trades_before,
        report.trades
    );

    // A second swap bumps the version again — the path is repeatable.
    assert_eq!(platform.swap_broker().unwrap(), 3);
}

#[test]
fn workflow_works_in_every_security_mode() {
    for mode in SecurityMode::all() {
        let mut platform = TradingPlatform::build(small_config(mode, 10)).unwrap();
        let report = platform.run_ticks(1_500).unwrap();
        assert!(report.orders > 0, "mode {mode}: no orders");
        assert!(report.trades > 0, "mode {mode}: no trades");
    }
}

#[test]
fn workflow_works_with_dispatcher_workers_in_every_security_mode() {
    // The same Figure 4 cascade, but dispatched by four worker threads over the
    // sharded run queue: distinct units process in parallel while label checks
    // and per-unit serialisation keep the workflow's semantics.
    for mode in SecurityMode::all() {
        let config = TradingPlatformConfig {
            workers: 4,
            ..small_config(mode, 10)
        };
        let mut platform = TradingPlatform::build(config).unwrap();
        assert_eq!(platform.handle().worker_count(), 4);
        let snooper = register_match_snooper(platform.engine());
        let report = platform.run_ticks(600).unwrap();
        assert!(report.orders > 0, "mode {mode}: no orders with workers");
        assert!(report.trades > 0, "mode {mode}: no trades with workers");
        // Label checks must run under concurrent dispatch.
        if mode.checks_labels() {
            assert_matches_confined(platform.engine(), snooper, report.orders);
        }
    }
}

#[test]
fn batched_feed_and_dispatch_preserve_the_workflow() {
    // Feed the exchange in batches of 8 ticks (one publish_batch per chunk)
    // over a 4-worker engine popping in batches of 8: the Figure 4 cascade —
    // monitors, orders, trades, audits — must be indistinguishable in kind
    // from the tick-by-tick drive.
    for mode in SecurityMode::all() {
        let config = TradingPlatformConfig {
            workers: 4,
            batch_size: 8,
            ..small_config(mode, 10)
        };
        let mut platform = TradingPlatform::build(config).unwrap();
        let report = platform.run_ticks(600).unwrap();
        assert_eq!(report.ticks, 600, "mode {mode}: every tick is replayed");
        assert_eq!(report.batch_size, 8, "mode {mode}");
        assert!(report.orders > 0, "mode {mode}: no orders with batching");
        assert!(report.trades > 0, "mode {mode}: no trades with batching");
        assert!(
            platform.engine().queue_depth() == 0,
            "mode {mode}: run_ticks drains each chunk's cascade"
        );
    }
}

#[test]
fn scenario_arrival_shapes_replay_through_the_platform() {
    // The scenario→platform adapter: Zipf-skewed and bursty open/close
    // arrival drive the full Figure 4 cascade through publish_tick_batch, and
    // the resulting rows read like the paper's figures (p70 included).
    use defcon_workload::scenario::{BurstyOpenClose, Scenario, ZipfLanes};

    let shapes: Vec<(&str, Box<dyn Scenario>)> = vec![
        ("zipf", Box::new(ZipfLanes::new(4, 1.0, 16, 600, 11))),
        (
            "bursty",
            Box::new(BurstyOpenClose::new(
                4,
                64,
                4,
                std::time::Duration::from_millis(1),
                600,
            )),
        ),
    ];
    for (name, mut shape) in shapes {
        let config = TradingPlatformConfig {
            batch_size: 8,
            ..small_config(SecurityMode::LabelsFreeze, 8)
        };
        let mut platform = TradingPlatform::build(config).unwrap();
        let row = platform.replay_scenario(shape.as_mut()).unwrap();
        assert_eq!(row.ticks, 600, "{name}: every burst event becomes a tick");
        assert!(row.orders > 0, "{name}: the cascade must place orders");
        assert!(row.trades > 0, "{name}: the cascade must match trades");
        assert!(row.throughput_eps > 0.0, "{name}");
        assert!(
            row.latency_p70_ms > 0.0,
            "{name}: broker latency percentiles must be populated"
        );
        assert!(row.memory_mib > 0.0, "{name}");
        assert_eq!(
            platform.engine().queue_depth(),
            0,
            "{name}: each burst's cascade is drained"
        );
        // The platform's own report agrees on the tick count (the adapter
        // replays through the same publish path run_ticks uses).
        assert_eq!(platform.report().ticks, 600, "{name}");
    }
}

#[test]
fn recorded_traces_replay_through_the_platform() {
    // Capture an arrival trace with the engine-level driver, then feed its
    // shape — burst sizes and pauses — through the full trading cascade via
    // replay_trace. The tick count must equal the trace's event count.
    use defcon_core::unit::NullUnit;
    use defcon_core::{Engine, UnitSpec};
    use defcon_workload::scenario::{MixedBatches, ScenarioDriver};

    let dir = std::env::temp_dir().join(format!("defcon-platform-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("arrival.trace");

    let engine = Engine::builder().build();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();
    let handle = engine.start();
    let driver = ScenarioDriver::new(&handle, source).unwrap();
    let mut scenario = MixedBatches::new(2, vec![4, 12], 320);
    let outcome = driver.record(&mut scenario, &path).unwrap();
    handle.shutdown().unwrap();
    assert_eq!(outcome.published, 320);

    let config = TradingPlatformConfig {
        batch_size: 8,
        ..small_config(SecurityMode::LabelsFreeze, 8)
    };
    let mut platform = TradingPlatform::build(config).unwrap();
    let row = platform.replay_trace(&path).unwrap();
    assert_eq!(row.ticks, 320, "every traced draft becomes one tick");
    assert!(row.orders > 0, "the cascade must place orders");

    // A torn trace is rejected loudly, not replayed partially.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
    assert!(platform.replay_trace(&path).is_err());
}

#[test]
fn traders_never_receive_other_traders_opportunities() {
    // With label checks on, every match event is confined to one trader's tag, so
    // the number of deliveries of match events equals the number of match events
    // published (each goes to exactly one trader), never a multiple.
    let mut platform = TradingPlatform::build(small_config(SecurityMode::LabelsFreeze, 6)).unwrap();
    let snooper = register_match_snooper(platform.engine());
    platform.run_ticks(1_000).unwrap();
    // Orders placed == match deliveries that resulted in an order; every order comes
    // from exactly one trader seeing one match. If confinement were broken, a single
    // match would fan out to all six traders and orders would explode accordingly.
    let orders = platform.report().orders;
    let trades = platform.report().trades;
    assert!(
        orders >= trades,
        "every trade needs at least two orders in the pool"
    );
    // A unit outside every trader's tag sees no opportunity at all.
    assert_matches_confined(platform.engine(), snooper, orders);
}

#[test]
fn traders_retire_their_order_tag_privileges() {
    // Every order mints a tag t_r whose four privileges the trader drops once
    // the order is out, so a trader's privilege set does not grow with its
    // order count.
    let traders = 8;
    let mut platform =
        TradingPlatform::build(small_config(SecurityMode::LabelsFreeze, traders)).unwrap();
    // Engines number units from 1 in registration order, so every trader's
    // id lies below that of a unit registered after the build.
    let after_build = register_match_snooper(platform.engine());
    let report = platform.run_ticks(1_000).unwrap();
    assert!(report.orders > 0, "traders must have placed orders");

    let mut seen = 0;
    for raw in 1..after_build.as_u64() {
        let state = platform.engine().unit_state(UnitId::from_raw(raw)).unwrap();
        if !state.name.starts_with("trader-") {
            continue;
        }
        seen += 1;
        let order_tags: Vec<_> = state
            .privileges
            .iter()
            .filter(|privilege| {
                privilege
                    .tag
                    .name()
                    .is_some_and(|name| name.starts_with("t-order-"))
            })
            .collect();
        assert!(order_tags.is_empty(), "{}: {order_tags:?}", state.name);
        // Its own tag's four privileges plus b+.
        assert_eq!(state.privileges.len(), 5, "{}", state.name);
    }
    assert_eq!(seen, traders);
}

/// The ids of every unit the platform registered: engines number units from
/// 1 in registration order, and nothing else has registered yet.
fn platform_units(platform: &TradingPlatform) -> Vec<UnitId> {
    (1..=platform.engine().unit_count() as u64)
        .map(UnitId::from_raw)
        .collect()
}

#[test]
fn isolation_mode_gives_every_unit_its_own_isolate() {
    let platform =
        TradingPlatform::build(small_config(SecurityMode::LabelsFreezeIsolation, 10)).unwrap();
    let engine = platform.engine();
    let mut isolates = HashSet::new();
    let mut broker = None;
    for unit in platform_units(&platform) {
        let state = engine.unit_state(unit).unwrap();
        assert!(!state.isolate.is_engine(), "{}", state.name);
        assert!(
            isolates.insert(state.isolate),
            "{} shares an isolate",
            state.name
        );
        if state.name == "local-broker" {
            broker = Some(unit);
        }
    }

    // A swapped-in Broker runs in a fresh isolate.
    let broker = broker.expect("the platform registers a broker");
    platform.swap_broker().unwrap();
    let after = engine.unit_state(broker).unwrap().isolate;
    assert!(!after.is_engine());
    assert!(!isolates.contains(&after), "{after} is reused");

    // Without isolation every unit runs in the engine's isolate.
    let plain = TradingPlatform::build(small_config(SecurityMode::LabelsFreeze, 10)).unwrap();
    for unit in platform_units(&plain) {
        let state = plain.engine().unit_state(unit).unwrap();
        assert!(state.isolate.is_engine(), "{}", state.name);
    }
}

#[test]
fn driver_pumped_platforms_repeat_their_ledgers() {
    // With `workers: 0` the driver thread replays each cascade, so two builds
    // of the same deployment must agree exactly — including which managed
    // Broker instances survive the instance cap's eviction.
    let ledger = |batch_size: usize| {
        let mut platform = TradingPlatform::build(TradingPlatformConfig {
            mode: SecurityMode::LabelsFreezeIsolation,
            workers: 0,
            batch_size,
            traders: 200,
            tick_config: TickGeneratorConfig {
                seed: 7,
                ..TickGeneratorConfig::default()
            },
            ..TradingPlatformConfig::default()
        })
        .unwrap();
        let report = platform.run_ticks(4_000).unwrap();
        let stats = platform.engine().stats();
        (
            report.orders,
            report.trades,
            stats.deliveries(),
            stats.managed_instances(),
        )
    };
    for batch_size in [1, 8] {
        let first = ledger(batch_size);
        assert!(
            first.3 > 1024,
            "batch {batch_size}: the instance cap must have evicted: {first:?}"
        );
        assert_eq!(first, ledger(batch_size), "batch {batch_size}");
    }
}

#[test]
fn managed_instances_stay_bounded_over_long_runs() {
    // Orders and trades are protected by per-order tags, so the broker and regulator
    // handler instances are created per contamination; the engine must keep their
    // population bounded rather than growing with every order.
    let mut platform =
        TradingPlatform::build(small_config(SecurityMode::LabelsFreeze, 10)).unwrap();
    platform.run_ticks(2_000).unwrap();
    assert!(platform.report().trades > 0);
    let cap = 1024; // EngineConfig default managed_instance_cap
    assert!(
        platform.engine().unit_count() <= 10 /* traders */ + 10 /* monitors */ + 3 + 2 * cap,
        "unit population must stay bounded, got {}",
        platform.engine().unit_count()
    );
}

#[test]
fn ingress_fed_platform_runs_the_workflow_with_a_bounded_queue() {
    // The exchange feed routed through a credit-gated ingress session: the
    // full Figure 4 cascade still runs, every tick is admitted under the
    // Block policy, and the engine's admission ledger accounts for them.
    let config = TradingPlatformConfig {
        workers: 2,
        batch_size: 8,
        ingress: Some(
            defcon_core::IngressConfig::new(64)
                .credit_window(32)
                .policy(defcon_core::FullQueuePolicy::Block),
        ),
        ..small_config(SecurityMode::LabelsFreeze, 10)
    };
    let mut platform = TradingPlatform::build(config).unwrap();
    assert!(platform.ingress_tier().is_some());
    let report = platform.run_ticks(600).unwrap();
    assert_eq!(report.ticks, 600, "Block admits every tick");
    assert!(report.orders > 0, "no orders through the ingress feed");
    assert!(report.trades > 0, "no trades through the ingress feed");
    let stats = platform.engine().queue_stats();
    assert_eq!(stats.ingress_admitted, 600);
    assert_eq!(stats.ingress_shed, 0, "Block never sheds");
}

#[test]
fn ingress_without_workers_is_rejected_loudly() {
    // With workers=0 nothing drains the queue except explicit pumping, so a
    // credit-gated feed session could never earn its credits back: the build
    // must refuse the combination instead of deadlocking the first tick.
    let config = TradingPlatformConfig {
        workers: 0,
        ingress: Some(defcon_core::IngressConfig::new(64)),
        ..small_config(SecurityMode::LabelsFreeze, 4)
    };
    let err = match TradingPlatform::build(config) {
        Ok(_) => panic!("workers=0 + ingress must be rejected at build time"),
        Err(err) => err,
    };
    assert!(
        matches!(err, defcon_core::EngineError::InvalidOperation(_)),
        "expected a loud InvalidOperation, got {err:?}"
    );
}

#[test]
fn audit_watchers_observe_every_tick_of_their_symbols() {
    // A platform with a large passive compliance population: 5 watchers per
    // symbol, each filtering on one symbol's ticks by string equality — the
    // fan-out shape the subscription index resolves per symbol. Every tick
    // carries exactly one symbol, so collectively the watchers observe
    // `ticks × watchers_per_symbol` deliveries, with no effect on the
    // trading cascade itself.
    let mut platform = TradingPlatform::build(small_config(SecurityMode::LabelsFreeze, 4)).unwrap();
    let received = platform.register_audit_watchers(8 * 5).unwrap();

    let report = platform.run_ticks(400).unwrap();
    assert_eq!(report.ticks, 400);
    assert!(report.trades > 0, "watchers must not perturb the cascade");
    // The regulator republishes sampled trades as endorsed ticks (step 9),
    // and those reach the matching watchers too — every tick-typed event in
    // the system lands on exactly its symbol's 5 watchers.
    let republished = platform
        .regulator()
        .republished
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        received.load(std::sync::atomic::Ordering::Relaxed),
        (400 + republished) * 5,
        "every tick reaches exactly its symbol's watchers"
    );
    let stats = platform.engine().queue_stats();
    assert!(
        stats.index_candidates > 0,
        "the default engine plans watchers through the subscription index"
    );
}
