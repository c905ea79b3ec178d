//! The two trading workloads: the paper's Figure 4 deployment, wired here
//! from the public unit types so the harness can own the exchange's feed,
//! time the Traders, and attach its probes.
//!
//! `TradingPlatform` exposes neither the exchange's unit id nor a
//! non-blocking feed, so [`wire`] repeats its `build` step for step;
//! [`wiring_equivalence`] holds the copy to the original.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use defcon_core::context::LabelOp;
use defcon_core::{
    Engine, EngineHandle, EngineResult, EventDraft, FullQueuePolicy, IngressConfig, Publisher,
    SecurityMode, UnitId, UnitSpec,
};
use defcon_defc::{Component, Label, Privilege};
use defcon_events::{now_ns, Filter};
use defcon_ingress::{IngressTier, SessionHandle};
use defcon_trading::messages::{event_type, pairs_match, tick};
use defcon_trading::units::regulator::RegulatorShared;
use defcon_trading::{
    Broker, BrokerShared, Regulator, StockExchange, Trader, TradingPlatform, TradingPlatformConfig,
};
use defcon_workload::{assign_pairs, SymbolUniverse, TickGenerator, TickGeneratorConfig};

use crate::pass::{self, engine_workers, Pass, Phase, RunCfg};
use crate::schedule::PoissonSchedule;
use crate::stats::{latency_slices, latency_summary};
use crate::units::{boxed, Instruments, Kind, ProbeLog, TickProbe, TradeProbe};

/// Frozen sizes (see README, "How the sizes were chosen").
pub const TRADERS: usize = 200;
pub const SYMBOLS: usize = 64;
/// Ticks fed per publish, and the engine's dispatch batch size.
pub const BATCH: usize = 8;
/// Deployments an untraced run measures in turn. Set-up is cheap here, and
/// two deployments differ in speed by up to a fifth (the tags they draw are
/// random), so many short sub-runs repeat better than few long ones.
const SUB_RUNS: u32 = 12;
/// Ticks of closed-loop warm-up before either workload measures.
const WARMUP_TICKS: usize = 512;
/// Ticks per throughput slice: two whole periods of the generator's
/// 640-tick cycle (64 symbols, an excursion every tenth tick of each), whose
/// 64 consecutive excursion ticks do nearly all the trading.
const SLICE_TICKS: u64 = 1_280;
/// Open-loop arrival rate: about half of what `trading_saturate` sustained
/// over ten seconds on the reference host when this benchmark was defined
/// (9–14k ticks/s, falling as a deployment ages). The generator's excursion
/// ticks come 64 in a row per 640-tick cycle and cost 0.5–0.7 ms each, so
/// every cycle is a burst served at 1.5–2k ticks/s and tick-to-trade latency
/// is that burst's backlog, `k × (service − gap) + service` for its k-th tick.
/// Lower rates were tried and repeat worse: the smaller `service − gap` gets,
/// the more a change in service time is magnified (see README).
pub const OPEN_RATE_PER_S: f64 = 5_000.0;
/// The deployment (which trader watches which pair) is configuration, not
/// input: it keeps the platform's default seed whatever `--seed` says.
const DEPLOYMENT_SEED: u64 = 2010;
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone)]
pub struct TradingCfg {
    pub mode: SecurityMode,
    pub workers: usize,
    pub traders: usize,
    pub tick_seed: u64,
    /// Feed the exchange through an ingress session under this configuration.
    pub ingress: Option<IngressConfig>,
    /// Register the tick and trade probes.
    pub probes: bool,
}

impl TradingCfg {
    pub fn new(cfg: &RunCfg, mode: SecurityMode) -> Self {
        TradingCfg {
            mode,
            workers: engine_workers(),
            traders: if cfg.smoke { 24 } else { TRADERS },
            tick_seed: cfg.seed,
            ingress: None,
            probes: true,
        }
    }

    /// The same configuration with the input seed of sub-run `index`.
    fn for_sub_run(&self, index: u64) -> Self {
        TradingCfg {
            tick_seed: pass::sub_run_seed(self.tick_seed, index),
            ..self.clone()
        }
    }
}

/// The wired platform. Field order is drop order: the ingress tier must stop
/// before the engine's workers go away underneath its sessions.
pub struct Deployment {
    session: Option<SessionHandle>,
    _tier: Option<IngressTier>,
    pub handle: EngineHandle,
    pub engine: Engine,
    feed: Publisher,
    exchange_label: Label,
    generator: TickGenerator,
    pub broker: Arc<BrokerShared>,
    pub orders: Arc<AtomicU64>,
    pub probes: Arc<ProbeLog>,
    /// Every unit registered from outside (Pair Monitors are instantiated by
    /// their Traders and are not listed).
    pub units: Vec<UnitId>,
    /// Due instant per tick, indexed by tick sequence.
    pub due_ns: Vec<u64>,
}

/// Wires the Figure 4 deployment exactly as `TradingPlatform::build` does,
/// plus the optional probes.
pub fn wire(cfg: &TradingCfg, instruments: Option<&Arc<Instruments>>) -> EngineResult<Deployment> {
    let mut builder = Engine::builder()
        .mode(cfg.mode)
        .workers(cfg.workers)
        .batch_size(BATCH);
    if let Some(ingress) = cfg.ingress.clone() {
        builder = builder.ingress(ingress);
    }
    let engine = builder.build();
    let mut units = Vec::new();

    let exchange = engine.register_unit(
        UnitSpec::new("stock-exchange"),
        Box::new(StockExchange::new()),
    )?;
    units.push(exchange);
    let feed = engine.publisher(exchange)?;
    let exchange_tag = feed.with_context(|ctx| {
        let s = ctx.create_owned_tag("i-exchange");
        ctx.change_out_label(Component::Integrity, LabelOp::Add, &s)?;
        Ok(s)
    })?;

    let defaults = TradingPlatformConfig::default();
    let regulator_shared = Arc::new(RegulatorShared::default());
    let regulator = engine.register_unit(
        UnitSpec::new("regulator").with_privilege(Privilege::add(exchange_tag.clone())),
        Box::new(Regulator::new(
            exchange_tag.clone(),
            defaults.regulator_sample,
            defaults.volume_quota,
            Arc::clone(&regulator_shared),
        )),
    )?;
    units.push(regulator);
    let regulator_tag =
        engine.with_unit(regulator, |_, ctx| Ok(ctx.create_owned_tag("r-regulator")))?;

    let broker_shared = BrokerShared::new();
    let broker = engine.register_unit(
        UnitSpec::new("local-broker"),
        Box::new(Broker::new(regulator_tag, Arc::clone(&broker_shared))),
    )?;
    units.push(broker);
    let broker_tag = engine.with_unit(broker, |_, ctx| Ok(ctx.create_owned_tag("b-broker")))?;

    let universe = SymbolUniverse::standard(SYMBOLS);
    let pairs = assign_pairs(
        &universe,
        cfg.traders,
        defaults.zipf_exponent,
        DEPLOYMENT_SEED,
    );
    let orders = Arc::new(AtomicU64::new(0));
    for (index, pair) in pairs.into_iter().enumerate() {
        let trader = Trader::new(
            index as u64,
            pair,
            broker_tag.clone(),
            exchange_tag.clone(),
            Arc::clone(&orders),
        );
        units.push(
            engine.register_unit(
                UnitSpec::new(format!("trader-{index}"))
                    .with_privilege(Privilege::add(broker_tag.clone())),
                boxed(trader, Kind::Trader, instruments),
            )?,
        );
    }

    let probes = Arc::new(ProbeLog::default());
    if cfg.probes {
        units.push(engine.register_unit(
            UnitSpec::new("tick-probe"),
            boxed(
                TickProbe::new(Arc::clone(&probes)),
                Kind::Probe,
                instruments,
            ),
        )?);
        units.push(engine.register_unit(
            UnitSpec::new("trade-probe"),
            boxed(
                TradeProbe {
                    log: Arc::clone(&probes),
                },
                Kind::Probe,
                instruments,
            ),
        )?);
    }

    let generator = TickGenerator::new(
        universe,
        TickGeneratorConfig {
            seed: cfg.tick_seed,
            ..TickGeneratorConfig::default()
        },
    );
    let handle = engine.start();
    let (tier, session) = match cfg.ingress {
        Some(_) => {
            let tier = IngressTier::new(&engine);
            let session = tier.session(exchange)?;
            (Some(tier), Some(session))
        }
        None => (None, None),
    };
    Ok(Deployment {
        session,
        _tier: tier,
        handle,
        exchange_label: StockExchange::endorsed_label(&exchange_tag),
        engine,
        feed,
        generator,
        broker: broker_shared,
        orders,
        probes,
        units,
        due_ns: Vec::new(),
    })
}

impl Deployment {
    fn next_drafts(&mut self, count: usize) -> Vec<EventDraft> {
        (0..count)
            .map(|_| {
                let tick = self.generator.next_tick();
                StockExchange::tick_draft_at(&self.exchange_label, &tick)
            })
            .collect()
    }

    /// Blocks until every cascade in the engine has completed (pumping them
    /// here when the engine has no workers).
    fn drain(&self) -> Result<(), String> {
        if let Some(session) = &self.session {
            if !session.wait_drained(DRAIN_TIMEOUT) {
                return Err("the feed session did not drain within 30 s".into());
            }
        }
        if self.handle.worker_count() == 0 {
            self.handle
                .pump_until_idle()
                .map_err(|err| format!("pumping the cascade: {err}"))?;
        } else if !self.handle.wait_idle(DRAIN_TIMEOUT) {
            return Err("the workers did not drain the cascade within 30 s".into());
        }
        Ok(())
    }

    /// One closed-loop step: `count` ticks handed over at once, their whole
    /// cascade completed before returning. `on_handed_over` runs between the
    /// hand-over and the wait (a traced batch opens its drain span there).
    /// Returns the instants `(start, generated, handed over, drained)`.
    fn closed_step(
        &mut self,
        count: usize,
        on_handed_over: impl FnOnce(u64),
    ) -> Result<[u64; 4], String> {
        let start = now_ns();
        let drafts = self.next_drafts(count);
        let generated = now_ns();
        // A closed-loop tick is due the moment it is handed over.
        self.due_ns
            .resize(self.due_ns.len() + drafts.len(), generated);
        match &self.session {
            Some(session) => {
                let admission = session.submit(drafts);
                if admission.shed() > 0 {
                    return Err(format!("closed-loop feed shed {} ticks", admission.shed()));
                }
            }
            None => {
                let admission = self
                    .feed
                    .publish_batch(drafts)
                    .map_err(|err| format!("publishing ticks: {err}"))?;
                if admission.accepted() != count {
                    return Err(format!(
                        "the engine accepted {} of {count} ticks",
                        admission.accepted()
                    ));
                }
            }
        }
        let handed_over = now_ns();
        on_handed_over(handed_over);
        self.drain()?;
        Ok([start, generated, handed_over, now_ns()])
    }

    fn warm_up(&mut self, ticks: usize) -> Result<(), String> {
        for _ in 0..ticks.div_ceil(BATCH) {
            self.closed_step(BATCH, |_| {})?;
        }
        Ok(())
    }

    /// Tick-to-trade latencies of the trades descending from ticks numbered
    /// `from_sequence` onwards, and how many trades could not be traced back
    /// to a tick.
    fn tick_to_trade(&self, from_sequence: usize) -> (Vec<u64>, usize) {
        let origins = self.probes.tick_origin_ns.lock().expect("probe log");
        let trades = self.probes.trades.lock().expect("probe log");
        tick_to_trade_ns(&self.due_ns, &origins, &trades, from_sequence)
    }

    /// Tight-loop timings over this deployment's own labels, the events its
    /// timed units received, and the shapes of filter its units subscribe
    /// with.
    fn tight_loop_cells(&self, instruments: &Instruments, pass: &mut Pass) {
        let universe = SymbolUniverse::standard(SYMBOLS);
        let mut filters = vec![
            Filter::for_type(event_type::TICK),
            Filter::for_type(event_type::ORDER),
            Filter::for_type(event_type::TRADE),
        ];
        for index in 0..4 {
            filters.push(
                Filter::for_type(event_type::TICK)
                    .where_eq(tick::SYMBOL, universe.symbol(index).as_str()),
            );
            filters.push(
                Filter::for_type(event_type::MATCH).where_eq(pairs_match::TRADER, index as i64),
            );
        }
        crate::micro::cells(
            &self.engine,
            &self.units,
            &instruments.sampled_events(),
            &filters,
            &mut pass.cells,
        );
    }

    fn trading_cells(&self, pass: &mut Pass, ticks: u64, orders_before: u64, trades_before: u64) {
        let per_ktick = |count: u64| count as f64 * 1e3 / ticks.max(1) as f64;
        pass.cells.extend([
            (
                "trading.orders_per_ktick",
                per_ktick(self.orders.load(Ordering::Relaxed) - orders_before),
            ),
            (
                "trading.trades_per_ktick",
                per_ktick(self.broker.trades.load(Ordering::Relaxed) - trades_before),
            ),
        ]);
    }
}

/// Joins the probes' observations with the generator's due times.
///
/// Every tick of one publish chunk carries the same engine origin stamp, and a
/// trade inherits the stamp of the tick that caused it; a trade is therefore
/// timed from the *earliest* due instant in its chunk — an upper bound, exact
/// whenever the chunk held one tick.
pub fn tick_to_trade_ns(
    due_ns: &[u64],
    tick_origin_ns: &[u64],
    trades: &[(u64, u64)],
    from_sequence: usize,
) -> (Vec<u64>, usize) {
    let mut first_of_chunk: Vec<(u64, usize)> = tick_origin_ns
        .iter()
        .enumerate()
        .filter(|(_, origin)| **origin != 0)
        .map(|(sequence, origin)| (*origin, sequence))
        .collect();
    first_of_chunk.sort_unstable();
    first_of_chunk.dedup_by_key(|(origin, _)| *origin);
    let mut latencies = Vec::new();
    let mut untraceable = 0;
    for &(origin, seen_ns) in trades {
        match first_of_chunk.binary_search_by_key(&origin, |(origin, _)| *origin) {
            Ok(at) => {
                let sequence = first_of_chunk[at].1;
                if sequence >= from_sequence && sequence < due_ns.len() {
                    latencies.push(seen_ns.saturating_sub(due_ns[sequence]));
                }
            }
            Err(_) => untraceable += 1,
        }
    }
    (latencies, untraceable)
}

fn describe(cfg: &TradingCfg) -> String {
    format!(
        "config: mode={} workers={} batch_size={BATCH} traders={} symbols={SYMBOLS} cores={}",
        cfg.mode.figure_label(),
        cfg.workers,
        cfg.traders,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )
}

/// Wires and warms a deployment up, timed as the sub-run's set-up.
fn deploy(
    run: &RunCfg,
    cfg: &TradingCfg,
    instruments: Option<&Arc<Instruments>>,
) -> Result<(Deployment, Pass), String> {
    let (deployment, mut pass) = pass::timed_setup(|| {
        let mut deployment = wire(cfg, instruments).map_err(|err| format!("wiring: {err}"))?;
        deployment.warm_up(if run.smoke { 64 } else { WARMUP_TICKS })?;
        Ok(deployment)
    })?;
    pass.notes.push(describe(cfg));
    Ok((deployment, pass))
}

/// `trading_saturate`: closed loop, ticks fed `BATCH` at a time, each batch's
/// cascade drained before the next.
pub fn saturate(
    run: &RunCfg,
    cfg: &TradingCfg,
    measure: Duration,
    instruments: Option<&Arc<Instruments>>,
) -> Result<Pass, String> {
    pass::sub_runs(run, SUB_RUNS, measure, |index, _, share| {
        let cfg = cfg.for_sub_run(index);
        saturate_once(run, &cfg, share, instruments)
    })
}

fn saturate_once(
    run: &RunCfg,
    cfg: &TradingCfg,
    measure: Duration,
    instruments: Option<&Arc<Instruments>>,
) -> Result<Pass, String> {
    let (mut deployment, mut pass) = deploy(run, cfg, instruments)?;
    let from_sequence = deployment.due_ns.len();
    let orders_before = deployment.orders.load(Ordering::Relaxed);
    let trades_before = deployment.broker.trades.load(Ordering::Relaxed);
    let busy_before = instruments.map_or(0, |i| i.busy_ns());
    let (mut gen_ns, mut publish_ns, mut drain_ns, mut batches) = (0u64, 0u64, 0u64, 0u64);
    let mut phase = Phase::begin(&deployment.engine, measure, SLICE_TICKS);
    loop {
        let mut sampled = instruments.and_then(|i| i.tracer.batch(batches, now_ns()));
        let [start, generated, handed_over, drained] =
            deployment.closed_step(BATCH, |handed_over| {
                if let Some(batch) = &mut sampled {
                    batch.open_drain(handed_over);
                }
            })?;
        if let Some(batch) = sampled {
            batch.child("gen", start, generated);
            batch.child("publish", generated, handed_over);
            batch.finish(drained);
        }
        gen_ns += generated - start;
        publish_ns += handed_over - generated;
        drain_ns += drained - handed_over;
        batches += 1;
        phase.slices.add(BATCH as u64, drained);
        if drained >= phase.deadline_ns {
            break;
        }
    }
    let ticks = batches * BATCH as u64;
    phase.end(&deployment.engine, ticks, &mut pass);
    pass.attempted = ticks;
    pass.cells.extend([
        ("workload.gen_ns_per_event", gen_ns as f64 / ticks as f64),
        (
            "core.publish_ns_per_event",
            publish_ns as f64 / ticks as f64,
        ),
        ("workload.achieved_rate_eps", pass.events_per_s()),
    ]);
    deployment.trading_cells(&mut pass, ticks, orders_before, trades_before);
    if let Some(instruments) = instruments {
        let busy_ns = instruments.busy_ns() - busy_before;
        pass.cells.extend([
            (
                "core.dispatch_self_ns_per_event",
                drain_ns.saturating_sub(busy_ns) as f64 / ticks as f64,
            ),
            (
                "trading.callback_share",
                busy_ns as f64 / drain_ns.max(1) as f64,
            ),
        ]);
        deployment.tight_loop_cells(instruments, &mut pass);
    }
    finish_latency(&deployment, &mut pass, from_sequence, ticks);
    Ok(pass)
}

/// Fills the pass's tick-to-trade latency and checks the probes' books.
fn finish_latency(deployment: &Deployment, pass: &mut Pass, from_sequence: usize, admitted: u64) {
    let seen = deployment
        .probes
        .tick_origin_ns
        .lock()
        .expect("probe log")
        .iter()
        .skip(from_sequence)
        .filter(|origin| **origin != 0)
        .count() as u64;
    // An admitted tick the probe never saw was lost inside the engine.
    pass.failed += admitted.saturating_sub(seen);
    pass.check(seen == admitted, || {
        format!("{admitted} ticks admitted but the tick probe saw {seen}")
    });
    let (latencies, untraceable) = deployment.tick_to_trade(from_sequence);
    pass.check(untraceable == 0, || {
        format!("{untraceable} trades carry an origin no exchange tick had")
    });
    pass.check(!latencies.is_empty(), || {
        "no trade happened during the measured phase".into()
    });
    pass.slice_latencies = latency_slices(&latencies);
}

/// Admission for the open loop: shed rather than block, with a session
/// window as wide as the queue bound. The excursion ticks arrive 64 in a row
/// and each costs some twenty times an ordinary tick, so a backlog of a few
/// hundred ticks is this workload's normal state, not overload; the default
/// window of 64 would shed it.
fn open_loop_ingress() -> IngressConfig {
    let config = IngressConfig::default().policy(FullQueuePolicy::ShedNewest);
    let window = config.queue_bound;
    config.credit_window(window)
}

/// `trading_open`: the same deployment fed one tick per Poisson arrival
/// through an ingress session that sheds rather than blocks.
pub fn open(
    run: &RunCfg,
    cfg: &TradingCfg,
    measure: Duration,
    instruments: Option<&Arc<Instruments>>,
) -> Result<Pass, String> {
    pass::sub_runs(run, SUB_RUNS, measure, |index, _, share| {
        let cfg = TradingCfg {
            ingress: Some(open_loop_ingress()),
            ..cfg.for_sub_run(index)
        };
        open_once(run, &cfg, share, instruments)
    })
}

fn open_once(
    run: &RunCfg,
    cfg: &TradingCfg,
    measure: Duration,
    instruments: Option<&Arc<Instruments>>,
) -> Result<Pass, String> {
    let (mut deployment, mut pass) = deploy(run, cfg, instruments)?;
    pass.notes.push(format!(
        "open loop: Poisson arrivals at {OPEN_RATE_PER_S} ticks/s, ShedNewest"
    ));
    let from_sequence = deployment.due_ns.len();
    let orders_before = deployment.orders.load(Ordering::Relaxed);
    let trades_before = deployment.broker.trades.load(Ordering::Relaxed);
    let mut schedule = PoissonSchedule::new(cfg.tick_seed, OPEN_RATE_PER_S);
    let (mut gen_ns, mut submit_ns, mut shed, mut accepted) = (0u64, 0u64, 0u64, 0u64);
    let mut lags_ns = Vec::new();
    // One cycle per slice: a sub-run lasts under a second, a handful of cycles.
    let mut phase = Phase::begin(&deployment.engine, measure, SLICE_TICKS / 2);
    loop {
        let due_ns = phase.start_ns + schedule.next_due();
        if due_ns >= phase.deadline_ns {
            break;
        }
        let start = now_ns();
        let drafts = deployment.next_drafts(1);
        let generated = now_ns();
        wait_until(due_ns);
        let sent = now_ns();
        let sampled = instruments.and_then(|i| i.tracer.batch(accepted + shed, start));
        // Everything downstream is timed from the due instant, not the send:
        // a stall delays later sends, and their users would feel that wait.
        deployment.due_ns.push(due_ns);
        lags_ns.push(sent.saturating_sub(due_ns));
        let admission = deployment
            .session
            .as_ref()
            .expect("trading_open feeds through a session")
            .submit(drafts);
        let submitted = now_ns();
        if let Some(batch) = sampled {
            batch.child("gen", start, generated);
            batch.child("submit", sent, submitted);
            batch.finish(submitted);
        }
        accepted += admission.accepted() as u64;
        shed += admission.shed() as u64;
        gen_ns += generated - start;
        submit_ns += submitted - sent;
        phase.slices.add(admission.accepted() as u64, submitted);
        phase.sample_queue(&deployment.engine);
    }
    let drain_start = now_ns();
    deployment.drain()?;
    let drain_wait_ns = now_ns() - drain_start;
    let attempted = accepted + shed;
    phase.end(&deployment.engine, accepted, &mut pass);
    pass.attempted = attempted;
    pass.failed = shed;
    let ledger = deployment.engine.queue_stats();
    pass.check(ledger.ingress_shed >= shed, || {
        format!(
            "sessions shed {shed} but the ledger says {}",
            ledger.ingress_shed
        )
    });
    let lag = latency_summary(&mut lags_ns);
    let events = attempted.max(1) as f64;
    pass.cells.extend([
        ("workload.gen_ns_per_event", gen_ns as f64 / events),
        ("ingress.submit_ns_per_event", submit_ns as f64 / events),
        (
            "ingress.drain_wait_ns_per_event",
            drain_wait_ns as f64 / events,
        ),
        ("workload.offered_rate_eps", OPEN_RATE_PER_S),
        ("workload.achieved_rate_eps", accepted as f64 / pass.wall_s),
        ("workload.gen_lag_p50_us", lag.p50_us),
        ("workload.gen_lag_p99_us", lag.p99_us),
    ]);
    deployment.trading_cells(&mut pass, attempted, orders_before, trades_before);
    if let Some(instruments) = instruments {
        deployment.tight_loop_cells(instruments, &mut pass);
    }
    finish_latency(&deployment, &mut pass, from_sequence, accepted);
    Ok(pass)
}

/// Sleeps until `due_ns`. A sleep overshoots by the timer slack (some 60 µs
/// here); spinning the last stretch instead would, at this rate, take most of
/// a core from the engine on a two-core host and make its latency depend on
/// the generator. The overshoot is reported as generator lag, and latency is
/// timed from the due instant either way.
fn wait_until(due_ns: u64) {
    loop {
        let now = now_ns();
        if now >= due_ns {
            return;
        }
        std::thread::sleep(Duration::from_nanos(due_ns - now));
    }
}

/// What the wiring-equivalence check compares.
#[derive(Debug, PartialEq, Eq)]
pub struct Ledger {
    pub orders: u64,
    pub trades: u64,
    pub deliveries: u64,
    pub label_rejections: u64,
}

impl Ledger {
    /// Orders and label rejections must agree exactly. Trades, and the
    /// deliveries downstream of them, may differ by 2%: `TradingPlatform`
    /// itself does not repeat them from run to run even at `workers(0)` (308
    /// to 310 trades over the same 2,000 ticks), so an exact comparison would
    /// fail against the original as often as against a drifted copy.
    pub fn matches(&self, other: &Ledger) -> bool {
        let close = |a: u64, b: u64| a.abs_diff(b) * 50 <= a.max(b);
        self.orders == other.orders
            && self.label_rejections == other.label_rejections
            && close(self.trades, other.trades)
            && close(self.deliveries, other.deliveries)
    }
}

/// Runs `ticks` ticks through this file's wiring and through
/// `TradingPlatform::build`, both pumped on the calling thread (`workers(0)`)
/// so event order is deterministic, and returns both ledgers. They must be
/// equal, or `trading_open` has drifted from the platform it stands in for.
pub fn wiring_equivalence(
    seed: u64,
    traders: usize,
    ticks: usize,
) -> Result<(Ledger, Ledger), String> {
    let mode = SecurityMode::LabelsFreezeIsolation;
    let mut ours = wire(
        &TradingCfg {
            mode,
            workers: 0,
            traders,
            tick_seed: seed,
            ingress: None,
            probes: false,
        },
        None,
    )
    .map_err(|err| format!("wiring: {err}"))?;
    for _ in 0..ticks / BATCH {
        ours.closed_step(BATCH, |_| {})?;
    }
    let ours_ledger = Ledger {
        orders: ours.orders.load(Ordering::Relaxed),
        trades: ours.broker.trades.load(Ordering::Relaxed),
        deliveries: ours.engine.stats().deliveries(),
        label_rejections: ours.engine.stats().label_rejections(),
    };

    let mut platform = TradingPlatform::build(TradingPlatformConfig {
        mode,
        workers: 0,
        batch_size: BATCH,
        traders,
        symbols: SYMBOLS,
        tick_config: TickGeneratorConfig {
            seed,
            ..TickGeneratorConfig::default()
        },
        seed: DEPLOYMENT_SEED,
        ..TradingPlatformConfig::default()
    })
    .map_err(|err| format!("building the platform: {err}"))?;
    let report = platform
        .run_ticks(ticks / BATCH * BATCH)
        .map_err(|err| format!("running the platform: {err}"))?;
    let theirs = Ledger {
        orders: report.orders,
        trades: report.trades,
        deliveries: platform.engine().stats().deliveries(),
        label_rejections: platform.engine().stats().label_rejections(),
    };
    Ok((ours_ledger, theirs))
}

/// The differential cells a traced `trading_saturate` run adds: the same
/// closed loop under each security mode, compared by wall time per tick. Also
/// returns the untraced rate under the workload's own mode.
pub fn mode_differentials(
    run: &RunCfg,
    each: Duration,
    cells: &mut pass::Cells,
) -> Result<(Vec<String>, f64), String> {
    let mut per_tick_ns = Vec::new();
    let mut notes = Vec::new();
    for mode in SecurityMode::all() {
        let pass = saturate_once(run, &TradingCfg::new(run, mode), each, None)?;
        if !pass.problems.is_empty() {
            return Err(format!(
                "{}: {}",
                mode.figure_label(),
                pass.problems.join("; ")
            ));
        }
        notes.push(format!(
            "differential {}: {:.0} ticks/s",
            mode.figure_label(),
            pass.events_per_s()
        ));
        per_tick_ns.push((mode, 1e9 / pass.events_per_s().max(1.0)));
    }
    let of = |wanted: SecurityMode| {
        per_tick_ns
            .iter()
            .find(|(mode, _)| *mode == wanted)
            .map_or(0.0, |(_, ns)| *ns)
    };
    let (none, freeze, clone, isolation) = (
        of(SecurityMode::NoSecurity),
        of(SecurityMode::LabelsFreeze),
        of(SecurityMode::LabelsClone),
        of(SecurityMode::LabelsFreezeIsolation),
    );
    cells.extend([
        ("defc.flow_share", 1.0 - none / freeze),
        ("events.clone_over_freeze_ratio", clone / freeze),
        ("isolation.share", isolation / freeze - 1.0),
    ]);
    Ok((notes, 1e9 / isolation))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trades_are_timed_from_the_earliest_due_instant_of_their_chunk() {
        // Ticks 0 and 1 were due at 100 and 150 but the late generator's
        // chunk only got its origin stamp at 400; tick 2 was on time.
        let due = [100, 150, 500];
        let origins = [400, 400, 510];
        let trades = [(400, 900), (510, 700), (999, 1_000)];
        let (latencies, untraceable) = tick_to_trade_ns(&due, &origins, &trades, 0);
        assert_eq!(latencies, [800, 200]);
        assert_eq!(untraceable, 1);
        // Warm-up ticks are left out by sequence, unseen ticks (origin 0) by value.
        let (latencies, _) = tick_to_trade_ns(&due, &[400, 400, 0], &trades, 1);
        assert!(latencies.is_empty());
    }

    #[test]
    fn harness_wiring_matches_the_trading_platform() {
        // The first excursion ticks (the ones that trigger orders) start at
        // tick 576; two full 640-tick cycles cover them twice.
        let (ours, theirs) = wiring_equivalence(11, 24, 1_280).unwrap();
        assert!(ours.orders > 0 && ours.deliveries > 0, "{ours:?}");
        assert!(ours.matches(&theirs), "{ours:?} vs {theirs:?}");
        let drifted = Ledger {
            orders: ours.orders + 1,
            ..theirs
        };
        assert!(!ours.matches(&drifted));
    }
}
