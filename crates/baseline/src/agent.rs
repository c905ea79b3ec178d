//! Strategy Agents: per-client isolation domains.
//!
//! "We implemented the pairs trading strategy as a Strategy Agent in Marketcetera
//! 1.5.0. Strategy Agents host one or more strategies of the same client. For
//! isolation, a separate JVM is created for each client's Strategy Agent" (§6.1).
//!
//! Each [`StrategyAgent`] runs on its own thread, receives its own serialised copy
//! of *every* market-data tick, filters locally for the pair it monitors (the
//! platform "does not support centralised market data filtering"), runs the
//! pairs-trading statistic and routes orders to the ORS over another serialising
//! channel. It also keeps a local tick cache, modelling the per-JVM heap that makes
//! the baseline's memory grow linearly with the number of clients (Figure 7/§6.2
//! memory comparison).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use defcon_events::event::now_ns;
use defcon_metrics::LatencyHistogram;
use defcon_trading::{PairsTradeStats, SignalDirection};
use defcon_workload::{Order, OrderSide, SymbolPair, Tick};

use crate::transport::{BaselineMessage, SerializingChannel};

/// Metrics collected by one agent, shared with the platform harness.
#[derive(Debug, Default)]
pub struct AgentMetrics {
    /// Ticks received (after deserialisation).
    pub ticks_received: AtomicU64,
    /// Ticks that survived the local pair filter.
    pub ticks_matched: AtomicU64,
    /// Orders sent to the ORS.
    pub orders_sent: AtomicU64,
    /// Strategy processing time per relevant tick (the `processing` series of
    /// Figure 9), in nanoseconds.
    pub processing: LatencyHistogram,
    /// Time from tick creation at the feed to the order decision (the
    /// `ticks+processing` series of Figure 9).
    pub tick_to_decision: LatencyHistogram,
    /// Estimated bytes held by the agent's local tick cache.
    pub cache_bytes: AtomicU64,
}

/// A per-client strategy agent.
pub struct StrategyAgent {
    id: u64,
    pair: SymbolPair,
    stats: PairsTradeStats,
    contrarian: bool,
    quantity: u64,
    cache_capacity: usize,
    cache: VecDeque<Tick>,
    metrics: Arc<AgentMetrics>,
}

impl StrategyAgent {
    /// Creates an agent monitoring `pair`.
    pub fn new(
        id: u64,
        pair: SymbolPair,
        cache_capacity: usize,
        metrics: Arc<AgentMetrics>,
    ) -> Self {
        StrategyAgent {
            id,
            pair,
            stats: PairsTradeStats::standard(),
            contrarian: id % 2 == 1,
            quantity: 100,
            cache_capacity,
            cache: VecDeque::new(),
            metrics,
        }
    }

    /// Runs the agent loop: receive ticks from `market_data`, send orders to `ors`,
    /// stop on `Shutdown` (or when the feed disconnects).
    pub fn run(mut self, market_data: SerializingChannel, ors: SerializingChannel) {
        let mut idle_rounds = 0u32;
        loop {
            let Some(message) = market_data.recv(Duration::from_millis(200)) else {
                // Feed idle or disconnected; give up after ten seconds of silence so
                // that a crashed driver never leaks agent threads.
                idle_rounds += 1;
                if idle_rounds > 50 {
                    break;
                }
                continue;
            };
            idle_rounds = 0;
            match message {
                BaselineMessage::Tick { tick, sent_ns: _ } => {
                    self.metrics.ticks_received.fetch_add(1, Ordering::Relaxed);
                    self.cache_tick(tick.clone());
                    self.handle_tick(tick, &ors);
                }
                BaselineMessage::Shutdown => break,
                // Agents ignore trade notifications in this workload.
                _ => {}
            }
        }
    }

    /// Processes one tick: the threaded loop's work per received tick.
    fn handle_tick(&mut self, tick: Tick, ors: &SerializingChannel) {
        // Local filtering: this is the per-agent work that the paper identifies as
        // Marketcetera's scalability bottleneck. Every agent runs this for every
        // tick of every symbol.
        if !self.pair.contains(&tick.symbol) {
            return;
        }
        self.metrics.ticks_matched.fetch_add(1, Ordering::Relaxed);

        let processing_start = now_ns();
        let signal = if tick.symbol == self.pair.first {
            self.stats.update_first(tick.price)
        } else {
            self.stats.update_second(tick.price)
        };
        let Some(signal) = signal else {
            return;
        };

        // Decide the order exactly as the DEFCon trader does, so both platforms
        // produce comparable order flow.
        let (buy_symbol, buy_price) = match signal.direction {
            SignalDirection::FirstOverpriced => (self.pair.second.clone(), signal.price_second),
            SignalDirection::FirstUnderpriced => (self.pair.first.clone(), signal.price_first),
        };
        let side = if self.contrarian {
            OrderSide::Sell
        } else {
            OrderSide::Buy
        };
        let price = match side {
            OrderSide::Buy => buy_price * 1.001,
            OrderSide::Sell => buy_price * 0.999,
        };
        let decided_ns = now_ns();
        self.metrics
            .processing
            .record(decided_ns.saturating_sub(processing_start));
        self.metrics
            .tick_to_decision
            .record(decided_ns.saturating_sub(tick.timestamp_ns));

        let order = Order {
            trader: self.id,
            symbol: buy_symbol,
            side,
            price,
            quantity: self.quantity,
            origin_ns: tick.timestamp_ns,
        };
        ors.send(&BaselineMessage::Order {
            order,
            tick_created_ns: tick.timestamp_ns,
            decided_ns,
        });
        self.metrics.orders_sent.fetch_add(1, Ordering::Relaxed);
    }

    fn cache_tick(&mut self, tick: Tick) {
        // The agent's private market-data cache: every JVM keeps its own copy.
        const TICK_FOOTPRINT: u64 = 64;
        self.cache.push_back(tick);
        self.metrics
            .cache_bytes
            .fetch_add(TICK_FOOTPRINT, Ordering::Relaxed);
        while self.cache.len() > self.cache_capacity {
            self.cache.pop_front();
            self.metrics
                .cache_bytes
                .fetch_sub(TICK_FOOTPRINT, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_workload::{Symbol, SymbolUniverse, TickGenerator, TickGeneratorConfig};

    fn pair() -> SymbolPair {
        SymbolPair::new(Symbol::new("MSFT"), Symbol::new("GOOG"))
    }

    #[test]
    fn irrelevant_ticks_are_filtered_locally() {
        let metrics = Arc::new(AgentMetrics::default());
        let mut agent = StrategyAgent::new(0, pair(), 100, Arc::clone(&metrics));
        let ors = SerializingChannel::new(16, Duration::ZERO);
        agent.handle_tick(
            Tick {
                sequence: 0,
                symbol: Symbol::new("AAPL"),
                price: 10.0,
                timestamp_ns: 0,
            },
            &ors,
        );
        assert_eq!(metrics.ticks_matched.load(Ordering::Relaxed), 0);
        assert_eq!(ors.queued(), 0);
    }

    #[test]
    fn excursions_generate_orders() {
        let metrics = Arc::new(AgentMetrics::default());
        let mut agent = StrategyAgent::new(0, pair(), 100, Arc::clone(&metrics));
        let ors = SerializingChannel::new(1024, Duration::ZERO);

        let universe = SymbolUniverse::standard(2);
        let mut generator = TickGenerator::new(universe, TickGeneratorConfig::default());
        for _ in 0..1_000 {
            let mut tick = generator.next_tick();
            tick.timestamp_ns = now_ns();
            agent.handle_tick(tick, &ors);
        }
        assert!(metrics.orders_sent.load(Ordering::Relaxed) > 0);
        assert!(metrics.processing.count() > 0);
        assert!(metrics.tick_to_decision.count() > 0);
    }

    #[test]
    fn cache_is_bounded() {
        let metrics = Arc::new(AgentMetrics::default());
        let mut agent = StrategyAgent::new(0, pair(), 10, Arc::clone(&metrics));
        for i in 0..100 {
            agent.cache_tick(Tick {
                sequence: i,
                symbol: Symbol::new("MSFT"),
                price: 1.0,
                timestamp_ns: 0,
            });
        }
        assert_eq!(metrics.cache_bytes.load(Ordering::Relaxed), 10 * 64);
    }
}
