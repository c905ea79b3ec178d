//! The baseline platform harness: feed, agents, ORS, and the experiment driver.
//!
//! [`BaselinePlatform::run`] wires one market-data feed (the driver thread), `n`
//! [`StrategyAgent`] threads — each receiving its own
//! serialised copy of the full tick stream — and one [`OrderRoutingService`] thread
//! providing the local brokering facility. It then replays a synthetic trace and
//! reports the Figure 8 / Figure 9 metrics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use defcon_events::event::now_ns;
use defcon_metrics::{memory::MemoryCategory, LatencyHistogram, MemoryAccountant};
use defcon_trading::OrderBook;
use defcon_workload::{assign_pairs, SymbolUniverse, TickGenerator, TickGeneratorConfig};

use crate::agent::{AgentMetrics, StrategyAgent};
use crate::transport::{BaselineMessage, SerializingChannel};

/// Parameters of a baseline experiment.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Number of Strategy Agents ("one JVM per client").
    pub traders: usize,
    /// Number of symbols on the synthetic exchange.
    pub symbols: usize,
    /// Number of ticks to replay.
    pub ticks: usize,
    /// Optional feed rate limit in ticks/second (`None` = as fast as possible, the
    /// Figure 8 configuration; the paper uses 1,000 ticks/s for Figure 9).
    pub feed_rate: Option<f64>,
    /// Per-hop IPC delay modelling socket/gateway overhead of a JVM boundary.
    pub hop_delay: Duration,
    /// Capacity of each serialising channel.
    pub channel_capacity: usize,
    /// Per-agent market-data cache entries (private per-JVM heap contents).
    pub agent_cache: usize,
    /// Fixed per-agent heap baseline in MiB (an idle Strategy Agent JVM).
    pub per_agent_overhead_mib: f64,
    /// Zipf exponent of the pair popularity distribution.
    pub zipf_exponent: f64,
    /// Tick generator configuration.
    pub tick_config: TickGeneratorConfig,
    /// Seed for the Zipf assignment.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            traders: 10,
            symbols: 64,
            ticks: 20_000,
            feed_rate: None,
            hop_delay: Duration::from_micros(20),
            channel_capacity: 1024,
            agent_cache: 10_000,
            per_agent_overhead_mib: 96.0,
            zipf_exponent: 1.0,
            tick_config: TickGeneratorConfig::default(),
            seed: 2010,
        }
    }
}

impl BaselineConfig {
    /// Creates a configuration for `traders` agents with otherwise default values.
    pub fn new(traders: usize) -> Self {
        BaselineConfig {
            traders,
            ..BaselineConfig::default()
        }
    }
}

/// The metrics of one baseline run — rows of Figures 8 and 9.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// Number of agents.
    pub traders: usize,
    /// Ticks replayed by the feed.
    pub ticks: u64,
    /// Orders routed to the ORS.
    pub orders: u64,
    /// Trades matched by the ORS.
    pub trades: u64,
    /// Sustained feed rate in ticks per second (Figure 8's metric).
    pub throughput_eps: f64,
    /// 70th percentile of strategy processing latency, ms (Figure 9 `processing`).
    pub processing_p70_ms: f64,
    /// 70th percentile of tick propagation + processing, ms (Figure 9
    /// `ticks+processing`).
    pub ticks_processing_p70_ms: f64,
    /// 70th percentile of the full path including order propagation, ms (Figure 9
    /// `ticks+orders+processing`).
    pub total_p70_ms: f64,
    /// Occupied memory across all "JVMs", MiB.
    pub memory_mib: f64,
}

impl BaselineReport {
    /// Formats the report as a figure row.
    pub fn as_row(&self) -> String {
        format!(
            "marketcetera-like          traders={:<5} throughput={:>10.0} ev/s  p70={:>7.3} ms (proc {:>6.3} / ticks {:>6.3})  mem={:>8.1} MiB  trades={}",
            self.traders,
            self.throughput_eps,
            self.total_p70_ms,
            self.processing_p70_ms,
            self.ticks_processing_p70_ms,
            self.memory_mib,
            self.trades
        )
    }
}

/// The Order Routing Service: central matching of orders arriving from agents.
pub struct OrderRoutingService {
    book: OrderBook,
    trades: Arc<AtomicU64>,
    orders: Arc<AtomicU64>,
    /// Full-path latency (tick creation to trade) — Figure 9's top series.
    total_latency: Arc<LatencyHistogram>,
}

impl OrderRoutingService {
    /// Creates an ORS publishing counters through the given shared cells.
    pub fn new(
        trades: Arc<AtomicU64>,
        orders: Arc<AtomicU64>,
        total_latency: Arc<LatencyHistogram>,
    ) -> Self {
        OrderRoutingService {
            book: OrderBook::new(),
            trades,
            orders,
            total_latency,
        }
    }

    /// Runs the ORS loop over its inbound channel until `Shutdown`.
    pub fn run(mut self, inbound: SerializingChannel) {
        let mut idle_rounds = 0u32;
        loop {
            let Some(message) = inbound.recv(Duration::from_millis(200)) else {
                idle_rounds += 1;
                if idle_rounds > 50 {
                    break;
                }
                continue;
            };
            idle_rounds = 0;
            match message {
                BaselineMessage::Order {
                    order,
                    tick_created_ns,
                    decided_ns: _,
                } => {
                    self.orders.fetch_add(1, Ordering::Relaxed);
                    // The ORS does not track per-order identity tags; the baseline
                    // has no information flow control (that is the point of the
                    // comparison), so a zero tag is used.
                    if let Some((_trade, _resting)) =
                        self.book.submit(order, defcon_defc::TagId::from_raw(0))
                    {
                        self.trades.fetch_add(1, Ordering::Relaxed);
                        self.total_latency
                            .record(now_ns().saturating_sub(tick_created_ns));
                    }
                }
                BaselineMessage::Shutdown => break,
                _ => {}
            }
        }
    }
}

/// The complete baseline platform.
pub struct BaselinePlatform {
    config: BaselineConfig,
}

impl BaselinePlatform {
    /// Creates a platform for the given configuration.
    pub fn new(config: BaselineConfig) -> Self {
        BaselinePlatform { config }
    }

    /// Runs the experiment: spawns agents and the ORS, replays the trace through the
    /// feed, shuts everything down and reports the metrics.
    pub fn run(&self) -> BaselineReport {
        let config = &self.config;
        let universe = SymbolUniverse::standard(config.symbols);
        let pairs = assign_pairs(&universe, config.traders, config.zipf_exponent, config.seed);

        // Shared metric sinks.
        let trades = Arc::new(AtomicU64::new(0));
        let orders = Arc::new(AtomicU64::new(0));
        let total_latency = Arc::new(LatencyHistogram::new());
        let memory = MemoryAccountant::new();

        // ORS thread and its inbound channel (agents -> ORS).
        let ors_channel = SerializingChannel::new(config.channel_capacity, config.hop_delay);
        let ors = OrderRoutingService::new(
            Arc::clone(&trades),
            Arc::clone(&orders),
            Arc::clone(&total_latency),
        );
        let ors_inbound = ors_channel.clone();
        let ors_thread = std::thread::spawn(move || ors.run(ors_inbound));

        // Agent threads: one market-data channel per agent (per-JVM copies).
        let mut agent_channels = Vec::with_capacity(config.traders);
        let mut agent_metrics = Vec::with_capacity(config.traders);
        let mut agent_threads = Vec::with_capacity(config.traders);
        for (id, pair) in pairs.into_iter().enumerate() {
            let metrics = Arc::new(AgentMetrics::default());
            let channel = SerializingChannel::new(config.channel_capacity, config.hop_delay);
            let agent =
                StrategyAgent::new(id as u64, pair, config.agent_cache, Arc::clone(&metrics));
            let market_data = channel.clone();
            let to_ors = ors_channel.clone();
            agent_threads.push(std::thread::spawn(move || agent.run(market_data, to_ors)));
            agent_channels.push(channel);
            agent_metrics.push(metrics);
        }

        // The market-data feed: replay the trace, broadcasting a separately
        // serialised copy of every tick to every agent.
        let mut generator = TickGenerator::new(universe, config.tick_config.clone());
        let started = Instant::now();
        let tick_interval = config
            .feed_rate
            .map(|rate| Duration::from_secs_f64(1.0 / rate.max(1.0)));
        let mut next_deadline = Instant::now();
        for _ in 0..config.ticks {
            if let Some(interval) = tick_interval {
                // Paced feed (Figure 9 uses 1,000 ticks/s).
                next_deadline += interval;
                let now = Instant::now();
                if next_deadline > now {
                    std::thread::sleep(next_deadline - now);
                }
            }
            let mut tick = generator.next_tick();
            // Stamp with monotonic time so that cross-thread latency is measurable.
            tick.timestamp_ns = now_ns();
            let sent_ns = now_ns();
            for channel in &agent_channels {
                channel.send(&BaselineMessage::Tick {
                    tick: tick.clone(),
                    sent_ns,
                });
            }
        }
        let feed_elapsed = started.elapsed();

        // Shut down: agents first (drains market data), then the ORS.
        for channel in &agent_channels {
            channel.send(&BaselineMessage::Shutdown);
        }
        for thread in agent_threads {
            let _ = thread.join();
        }
        ors_channel.send(&BaselineMessage::Shutdown);
        let _ = ors_thread.join();

        // Aggregate metrics.
        let processing = LatencyHistogram::new();
        let tick_to_decision = LatencyHistogram::new();
        let mut cache_bytes = 0u64;
        for metrics in &agent_metrics {
            processing.merge(&metrics.processing);
            tick_to_decision.merge(&metrics.tick_to_decision);
            cache_bytes += metrics.cache_bytes.load(Ordering::Relaxed);
        }
        memory.charge(MemoryCategory::Baseline, cache_bytes as usize);
        let per_agent_overhead =
            (config.per_agent_overhead_mib * 1024.0 * 1024.0) as usize * config.traders;
        memory.charge(MemoryCategory::Baseline, per_agent_overhead);

        BaselineReport {
            traders: config.traders,
            ticks: config.ticks as u64,
            orders: orders.load(Ordering::Relaxed),
            trades: trades.load(Ordering::Relaxed),
            throughput_eps: config.ticks as f64 / feed_elapsed.as_secs_f64().max(1e-9),
            processing_p70_ms: processing.p70_ms().unwrap_or(0.0),
            ticks_processing_p70_ms: tick_to_decision.p70_ms().unwrap_or(0.0),
            total_p70_ms: total_latency.p70_ms().unwrap_or(0.0),
            memory_mib: memory.total_mib(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_produces_orders_trades_and_latencies() {
        let config = BaselineConfig {
            traders: 4,
            symbols: 4,
            ticks: 3_000,
            hop_delay: Duration::ZERO,
            per_agent_overhead_mib: 1.0,
            ..BaselineConfig::default()
        };
        let report = BaselinePlatform::new(config).run();
        assert_eq!(report.ticks, 3_000);
        assert!(report.orders > 0, "agents must have produced orders");
        assert!(report.trades > 0, "the ORS must have matched trades");
        assert!(report.throughput_eps > 0.0);
        assert!(report.total_p70_ms >= report.ticks_processing_p70_ms * 0.1);
        assert!(report.memory_mib >= 4.0, "per-agent overhead accounted");
        assert!(report.as_row().contains("marketcetera"));
    }

    #[test]
    fn memory_grows_linearly_with_agents() {
        let mut previous = 0.0;
        for traders in [2, 4, 8] {
            let config = BaselineConfig {
                traders,
                symbols: 4,
                ticks: 200,
                hop_delay: Duration::ZERO,
                per_agent_overhead_mib: 8.0,
                ..BaselineConfig::default()
            };
            let report = BaselinePlatform::new(config).run();
            assert!(report.memory_mib > previous);
            previous = report.memory_mib;
        }
    }
}
