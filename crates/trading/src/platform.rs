//! Assembly and driving of the complete trading platform (Figure 4).
//!
//! [`TradingPlatform::build`] wires the Stock Exchange, the Regulator, the Local
//! Broker and `n` Traders (each of which instantiates its own Pair Monitor) onto a
//! single DEFCon engine in the configured [`SecurityMode`], assigning symbol pairs
//! to traders with a Zipf distribution as in §6.2. [`TradingPlatform::run_ticks`]
//! replays the synthetic trace as fast as the engine can absorb it and produces a
//! [`PlatformReport`] carrying the three metrics of Figures 5–7: median throughput,
//! 70th-percentile tick-to-trade latency, and occupied memory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use defcon_core::{
    Engine, EngineHandle, EngineResult, IngressConfig, Publisher, SecurityMode, UnitSpec,
};
use defcon_defc::Privilege;
use defcon_metrics::ThroughputRecorder;
use defcon_workload::{assign_pairs, SymbolUniverse, TickGenerator, TickGeneratorConfig};

use crate::units::broker::{Broker, BrokerShared};
use crate::units::regulator::{Regulator, RegulatorShared};
use crate::units::stock_exchange::StockExchange;
use crate::units::trader::Trader;

/// Parameters of a platform deployment.
#[derive(Debug, Clone)]
pub struct TradingPlatformConfig {
    /// The engine security configuration (one of the four series of Figures 5–7).
    pub mode: SecurityMode,
    /// Dispatcher worker threads (§6's multi-core deployment), handed to
    /// `Engine::builder().workers(..)`: the engine spawns this many and keeps
    /// all of them active. The default is the host's available parallelism
    /// ([`defcon_core::auto_worker_count`]), so a deployment scales with its
    /// hardware out of the box. Zero replays each tick's cascade on the
    /// driver thread, which keeps runs deterministic — tests that compare
    /// exact event orders should pin `workers: 0`.
    pub workers: usize,
    /// Dispatch/feed batch size: how many events a dispatcher carries per run
    /// queue visit, and how many ticks the feed driver publishes per
    /// `publish_batch` call in [`TradingPlatform::run_ticks`]. 1 (the default)
    /// preserves the classic one-tick-at-a-time drive.
    pub batch_size: usize,
    /// Number of Trader units (the x-axis of Figures 5–7).
    pub traders: usize,
    /// Number of symbols on the synthetic exchange.
    pub symbols: usize,
    /// Zipf exponent for pair popularity.
    pub zipf_exponent: f64,
    /// Tick generator configuration (trigger period, volatility, seed).
    pub tick_config: TickGeneratorConfig,
    /// Every `regulator_sample`-th trade is audited.
    pub regulator_sample: u64,
    /// Volume quota above which the Regulator warns a trader.
    pub volume_quota: u64,
    /// Seed for the Zipf pair assignment.
    pub seed: u64,
    /// Bounded admission for the exchange feed. `None` (the default) keeps
    /// the classic unbounded publish; `Some` builds the engine with this
    /// configuration, so the exchange's publisher admits every tick through
    /// its credit window (run queue bounded, full-queue policy applied).
    /// That requires `workers >= 1` — with no dispatcher the feed could never
    /// earn credits back and the first over-window burst would deadlock, so
    /// [`TradingPlatform::build`] rejects that combination loudly.
    pub ingress: Option<IngressConfig>,
}

impl Default for TradingPlatformConfig {
    fn default() -> Self {
        TradingPlatformConfig {
            mode: SecurityMode::LabelsFreezeIsolation,
            workers: defcon_core::auto_worker_count(),
            batch_size: 1,
            traders: 200,
            symbols: 64,
            zipf_exponent: 1.0,
            tick_config: TickGeneratorConfig::default(),
            regulator_sample: 10,
            volume_quota: 100_000,
            seed: 2010,
            ingress: None,
        }
    }
}

impl TradingPlatformConfig {
    /// Creates a configuration for `traders` traders in the given mode, otherwise
    /// using the defaults.
    pub fn new(mode: SecurityMode, traders: usize) -> Self {
        TradingPlatformConfig {
            mode,
            traders,
            ..TradingPlatformConfig::default()
        }
    }
}

/// The metrics produced by a platform run — one row of the paper's figures.
#[derive(Debug, Clone)]
pub struct PlatformReport {
    /// The security mode of the run.
    pub mode: SecurityMode,
    /// Number of traders hosted.
    pub traders: usize,
    /// Dispatcher worker threads the run spawned (0 = driver-pumped).
    pub workers: usize,
    /// Dispatch/feed batch size the run used.
    pub batch_size: usize,
    /// Ticks replayed.
    pub ticks: u64,
    /// Orders submitted by traders.
    pub orders: u64,
    /// Trades matched by the broker.
    pub trades: u64,
    /// Warnings issued by the regulator.
    pub warnings: u64,
    /// Median throughput in events per second (Figure 5).
    pub throughput_eps: f64,
    /// 70th-percentile tick-to-trade latency in milliseconds (Figure 6).
    pub latency_p70_ms: f64,
    /// Median tick-to-trade latency in milliseconds.
    pub latency_p50_ms: f64,
    /// 99th-percentile tick-to-trade latency in milliseconds.
    pub latency_p99_ms: f64,
    /// Occupied memory in MiB (Figure 7).
    pub memory_mib: f64,
}

impl PlatformReport {
    /// Formats the report as a figure row: mode, traders, workers,
    /// throughput, latency, memory.
    pub fn as_row(&self) -> String {
        format!(
            "{:<26} traders={:<5} workers={:<3} throughput={:>10.0} ev/s  p70={:>7.3} ms  mem={:>8.1} MiB  trades={}",
            self.mode.figure_label(),
            self.traders,
            self.workers,
            self.throughput_eps,
            self.latency_p70_ms,
            self.memory_mib,
            self.trades
        )
    }
}

/// A passive compliance desk: counts the ticks of its one symbol and does
/// nothing else — the unit behind
/// [`TradingPlatform::register_audit_watchers`].
struct AuditWatcher {
    symbol: String,
    received: Arc<AtomicU64>,
}

impl defcon_core::Unit for AuditWatcher {
    fn init(&mut self, ctx: &mut defcon_core::UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(
            defcon_events::Filter::for_type(crate::messages::event_type::TICK).where_eq(
                crate::messages::tick::SYMBOL,
                defcon_events::Value::str(&self.symbol),
            ),
        )?;
        Ok(())
    }

    fn on_event(
        &mut self,
        _ctx: &mut defcon_core::UnitContext<'_>,
        _event: &defcon_events::Event,
    ) -> EngineResult<()> {
        self.received.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// A fully wired trading platform.
pub struct TradingPlatform {
    config: TradingPlatformConfig,
    engine: Engine,
    handle: EngineHandle,
    exchange_feed: Publisher,
    /// The interned `(∅, {s})` endorsement label, computed once and cloned per
    /// tick draft instead of re-interned per tick.
    exchange_label: defcon_defc::Label,
    /// What a broker replacement needs: the unit id to swap and the
    /// Regulator's tag `r` a fresh [`Broker`] labels its trade reports with.
    broker: defcon_core::UnitId,
    regulator_tag: defcon_defc::Tag,
    broker_shared: Arc<BrokerShared>,
    regulator_shared: Arc<RegulatorShared>,
    orders_placed: Arc<AtomicU64>,
    generator: TickGenerator,
    throughput: ThroughputRecorder,
    ticks_published: u64,
}

impl TradingPlatform {
    /// Builds the platform: engine, exchange, regulator, broker and traders (each of
    /// which instantiates its Pair Monitor), then starts the engine runtime with the
    /// configured number of dispatcher workers.
    pub fn build(config: TradingPlatformConfig) -> EngineResult<Self> {
        if config.ingress.is_some() && config.workers == 0 {
            return Err(defcon_core::EngineError::InvalidOperation(
                "an ingress-fed platform needs dispatcher workers: with workers=0 nothing \
                 drains the queue, so the feed could never earn its credits back"
                    .into(),
            ));
        }
        let mut builder = Engine::builder()
            .mode(config.mode)
            .workers(config.workers)
            .batch_size(config.batch_size);
        if let Some(ingress) = config.ingress.clone() {
            builder = builder.ingress(ingress);
        }
        let engine = builder.build();

        // Stock Exchange: owns the integrity tag s and endorses with it.
        let exchange = engine.register_unit(
            UnitSpec::new("stock-exchange"),
            Box::new(StockExchange::new()),
        )?;
        let exchange_feed = engine.publisher(exchange)?;
        let exchange_tag = exchange_feed.with_context(|ctx| {
            let s = ctx.create_owned_tag("i-exchange");
            ctx.change_out_label(
                defcon_defc::Component::Integrity,
                defcon_core::context::LabelOp::Add,
                &s,
            )?;
            Ok(s)
        })?;

        // Regulator: granted s+ so it can republish trades as endorsed ticks; owns r.
        let regulator_shared = Arc::new(RegulatorShared::default());
        let regulator = engine.register_unit(
            UnitSpec::new("regulator").with_privilege(Privilege::add(exchange_tag.clone())),
            Box::new(Regulator::new(
                exchange_tag.clone(),
                config.regulator_sample,
                config.volume_quota,
                Arc::clone(&regulator_shared),
            )),
        )?;
        let regulator_tag =
            engine.with_unit(regulator, |_, ctx| Ok(ctx.create_owned_tag("r-regulator")))?;

        // Local Broker: owns b; matches orders through a managed subscription.
        let broker_shared = BrokerShared::new();
        let broker = engine.register_unit(
            UnitSpec::new("local-broker"),
            Box::new(Broker::new(
                regulator_tag.clone(),
                Arc::clone(&broker_shared),
            )),
        )?;
        let broker_tag = engine.with_unit(broker, |_, ctx| Ok(ctx.create_owned_tag("b-broker")))?;

        // Traders: Zipf-assigned pairs; each is granted b+ so it can confine its
        // orders to the broker.
        let universe = SymbolUniverse::standard(config.symbols);
        let pairs = assign_pairs(&universe, config.traders, config.zipf_exponent, config.seed);
        let orders_placed = Arc::new(AtomicU64::new(0));
        for (index, pair) in pairs.into_iter().enumerate() {
            let trader = Trader::new(
                index as u64,
                pair,
                broker_tag.clone(),
                exchange_tag.clone(),
                Arc::clone(&orders_placed),
            );
            engine.register_unit(
                UnitSpec::new(format!("trader-{index}"))
                    .with_privilege(Privilege::add(broker_tag.clone())),
                Box::new(trader),
            )?;
        }

        let generator = TickGenerator::new(universe, config.tick_config.clone());
        let handle = engine.start();
        let exchange_label = StockExchange::endorsed_label(&exchange_tag);
        Ok(TradingPlatform {
            config,
            engine,
            handle,
            exchange_feed,
            exchange_label,
            broker,
            regulator_tag,
            broker_shared,
            regulator_shared,
            orders_placed,
            generator,
            throughput: ThroughputRecorder::new(),
            ticks_published: 0,
        })
    }

    /// Returns the underlying engine (for inspection and tests).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Returns the running engine's handle (workers, publishers, idle waits).
    pub fn handle(&self) -> &EngineHandle {
        &self.handle
    }

    /// Returns the broker's shared state (order book, latency, trade counters).
    pub fn broker(&self) -> &Arc<BrokerShared> {
        &self.broker_shared
    }

    /// Returns the regulator's shared state (audits, warnings, republished ticks).
    pub fn regulator(&self) -> &Arc<RegulatorShared> {
        &self.regulator_shared
    }

    /// Registers `watchers` passive audit watchers — compliance desks, each
    /// pinned to one symbol of the exchange's universe (cycling) and
    /// subscribed to exactly that symbol's ticks — returning the shared count
    /// of ticks they have collectively observed.
    ///
    /// This is the §6-style fan-out population at its most index-friendly:
    /// every watcher's filter carries a string-equality clause on the tick's
    /// `symbol` part, so the engine's subscription index resolves each tick
    /// to one symbol's watcher list instead of evaluating every registered
    /// watcher, as a linear scan would per tick. Watchers are inert (they
    /// never order, publish or augment), so registering thousands changes
    /// planning cost and nothing else.
    pub fn register_audit_watchers(&self, watchers: usize) -> EngineResult<Arc<AtomicU64>> {
        let universe = SymbolUniverse::standard(self.config.symbols);
        let received = Arc::new(AtomicU64::new(0));
        for index in 0..watchers {
            let symbol = universe.symbols()[index % universe.len()]
                .as_str()
                .to_string();
            self.engine.register_unit(
                UnitSpec::new(format!("audit-watcher-{index}")),
                Box::new(AuditWatcher {
                    symbol,
                    received: Arc::clone(&received),
                }),
            )?;
        }
        Ok(received)
    }

    /// Hot-replaces the Local Broker mid-session with a fresh [`Broker`]
    /// instance wired to the same shared order book and the same Regulator
    /// tag — a live upgrade of the matching engine while the market is open.
    /// The engine quiesces the broker's cell, migrates its labels and the `b+`
    /// privilege onto the replacement under a bumped version, and resumes:
    /// traders keep confining orders to the broker's tag and the managed
    /// matching subscription keeps firing, so no admitted order is lost
    /// across the replacement. Returns the broker's new version.
    pub fn swap_broker(&self) -> EngineResult<u64> {
        self.engine.swap_unit(
            self.broker,
            Box::new(Broker::new(
                self.regulator_tag.clone(),
                Arc::clone(&self.broker_shared),
            )),
        )
    }

    /// Feeds `drafts` to the engine through the exchange's publisher,
    /// returning how many events were admitted. With ingress enabled the
    /// publisher's credit window then drains, so on return every admitted
    /// event has reached dispatch; anything a shed policy dropped is on the
    /// engine's admission ledger.
    fn feed_drafts(&self, drafts: Vec<defcon_core::EventDraft>) -> EngineResult<u64> {
        let admitted = self.exchange_feed.publish_batch(drafts)?.accepted() as u64;
        if !self.exchange_feed.wait_drained(Duration::from_secs(30)) {
            return Err(defcon_core::EngineError::InvalidOperation(
                "the exchange feed did not drain within 30s".into(),
            ));
        }
        Ok(admitted)
    }

    /// Waits until the engine is idle — dispatching on this thread while a
    /// worker is parked, and at `workers(0)` throughout — and returns how many
    /// events were dispatched since the `dispatched` count read `before`.
    fn drain_cascades(&self, before: u64) -> EngineResult<u64> {
        if !self.handle.wait_idle(Duration::from_secs(30)) {
            return Err(defcon_core::EngineError::InvalidOperation(
                "the engine did not drain the tick cascade within 30s".into(),
            ));
        }
        Ok(self.engine.stats().dispatched() - before)
    }

    /// Publishes the next `count` synthetic ticks as the Stock Exchange, as
    /// one batch through the exchange's publisher — one run-queue transaction
    /// for the whole chunk — and fully processes the cascades they trigger
    /// (monitors, traders, broker, regulator) by waiting for the engine to
    /// drain them: inline when the platform runs without workers or its
    /// workers are parked.
    fn publish_tick_batch(&mut self, count: usize) -> EngineResult<()> {
        let before = self.engine.stats().dispatched();
        let drafts = self
            .generator
            .trace(count)
            .iter()
            .map(|tick| StockExchange::tick_draft_at(&self.exchange_label, tick))
            .collect();
        let admitted = self.feed_drafts(drafts)?;
        let dispatched = self.drain_cascades(before)?;
        // Under a shedding ingress policy the admitted count can run below
        // `count`; only ticks that actually entered the engine are reported.
        self.ticks_published += admitted;
        // Figure 5 counts processed events; every dispatched event (ticks plus the
        // derived matches, orders, trades, ...) contributes to the supported rate.
        self.throughput.record(dispatched.max(admitted));
        Ok(())
    }

    /// Replays `n` ticks as fast as the engine can absorb them, feeding them in
    /// chunks of the configured batch size (1 = the classic tick-by-tick
    /// drive).
    pub fn run_ticks(&mut self, n: usize) -> EngineResult<PlatformReport> {
        let chunk = self.config.batch_size.max(1);
        let mut remaining = n;
        while remaining > 0 {
            let take = remaining.min(chunk);
            self.publish_tick_batch(take)?;
            remaining -= take;
        }
        Ok(self.report())
    }

    /// Produces the current metrics row.
    pub fn report(&self) -> PlatformReport {
        PlatformReport {
            mode: self.config.mode,
            traders: self.config.traders,
            workers: self.config.workers,
            batch_size: self.config.batch_size.max(1),
            ticks: self.ticks_published,
            orders: self.orders_placed.load(Ordering::Relaxed),
            trades: self.broker_shared.trades.load(Ordering::Relaxed),
            warnings: self.regulator_shared.warnings.load(Ordering::Relaxed),
            throughput_eps: self.throughput.median_rate().unwrap_or(0.0),
            latency_p70_ms: self.broker_shared.latency.p70_ms().unwrap_or(0.0),
            latency_p50_ms: self.broker_shared.latency.p50_ms().unwrap_or(0.0),
            latency_p99_ms: self.broker_shared.latency.p99_ms().unwrap_or(0.0),
            memory_mib: self.engine.memory_mib(),
        }
    }
}
