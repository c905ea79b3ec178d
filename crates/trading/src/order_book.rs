//! The Local Broker's dark-pool order book.
//!
//! §2.1: co-located traders "can carry out local brokering by matching buy/sell
//! orders among themselves — a practice known as a 'dark pool' — thus avoiding the
//! commission costs and trading exposure when the stock exchange is involved."
//!
//! The book keeps resting orders per symbol and matches an incoming order against
//! the oldest compatible resting order (price-time priority simplified to
//! first-compatible). Each resting order remembers the per-order tag protecting the
//! submitting trader's identity so that trade events can keep identities protected.

use std::collections::HashMap;

use defcon_defc::TagId;
use defcon_workload::{Order, Trade};

/// A resting order together with the tag protecting its trader's identity.
#[derive(Debug, Clone)]
pub struct RestingOrder {
    /// The order itself.
    pub order: Order,
    /// The per-order confidentiality tag (`t_r` in Figure 4).
    pub identity_tag: TagId,
}

/// Resting orders kept per symbol; older ones beyond it are discarded.
const MAX_DEPTH: usize = 256;

/// A simple dark-pool order book with bounded resting depth per symbol.
#[derive(Debug, Default)]
pub struct OrderBook {
    resting: HashMap<String, Vec<RestingOrder>>,
    matched: u64,
    submitted: u64,
}

impl OrderBook {
    /// Creates an empty book.
    pub fn new() -> Self {
        OrderBook::default()
    }

    /// Submits an order; returns the resulting trade and the identity tags of both
    /// sides if the order matched a resting one, or stores it otherwise.
    pub fn submit(&mut self, order: Order, identity_tag: TagId) -> Option<(Trade, RestingOrder)> {
        self.submitted += 1;
        let key = order.symbol.as_str().to_string();
        let queue = self.resting.entry(key).or_default();

        if let Some(pos) = queue.iter().position(|r| r.order.matches(&order)) {
            let resting = queue.remove(pos);
            let trade = order
                .execute_against(&resting.order)
                .expect("matches() implies execute_against() succeeds");
            self.matched += 1;
            return Some((trade, resting));
        }

        queue.push(RestingOrder {
            order,
            identity_tag,
        });
        // Bound memory: discard the oldest resting orders beyond the depth limit.
        if queue.len() > MAX_DEPTH {
            let excess = queue.len() - MAX_DEPTH;
            queue.drain(0..excess);
        }
        None
    }

    /// Number of orders submitted since creation.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Number of trades matched since creation.
    pub fn matched(&self) -> u64 {
        self.matched
    }

    /// Total resting orders across all symbols.
    fn resting_depth(&self) -> usize {
        self.resting.values().map(Vec::len).sum()
    }

    /// Estimated heap footprint in bytes (unit-state accounting for Figure 7).
    pub fn estimated_size(&self) -> usize {
        self.resting_depth() * 96 + self.resting.len() * 48
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_workload::{OrderSide, Symbol};

    fn order(trader: u64, side: OrderSide, price: f64) -> Order {
        Order {
            trader,
            symbol: Symbol::new("MSFT"),
            side,
            price,
            quantity: 100,
            origin_ns: 0,
        }
    }

    fn tag(raw: u128) -> TagId {
        TagId::from_raw(raw)
    }

    #[test]
    fn opposite_orders_match_and_report_both_tags() {
        let mut book = OrderBook::new();
        assert!(book
            .submit(order(1, OrderSide::Buy, 101.0), tag(1))
            .is_none());
        let (trade, resting) = book
            .submit(order(2, OrderSide::Sell, 100.0), tag(2))
            .expect("must match");
        assert_eq!(trade.buyer, 1);
        assert_eq!(trade.seller, 2);
        assert_eq!(resting.identity_tag, tag(1));
        assert_eq!(book.matched(), 1);
        assert_eq!(book.submitted(), 2);
        assert_eq!(book.resting_depth(), 0);
    }

    #[test]
    fn same_side_orders_rest() {
        let mut book = OrderBook::new();
        assert!(book
            .submit(order(1, OrderSide::Buy, 100.0), tag(1))
            .is_none());
        assert!(book
            .submit(order(2, OrderSide::Buy, 100.0), tag(2))
            .is_none());
        assert_eq!(book.resting_depth(), 2);
        assert_eq!(book.matched(), 0);
    }

    #[test]
    fn depth_is_bounded() {
        let mut book = OrderBook::new();
        for i in 0..2 * MAX_DEPTH as u64 {
            book.submit(order(i, OrderSide::Buy, 1.0), tag(i as u128));
        }
        assert_eq!(book.resting_depth(), MAX_DEPTH);
        assert!(book.estimated_size() > 0);
    }

    #[test]
    fn different_symbols_do_not_match() {
        let mut book = OrderBook::new();
        book.submit(order(1, OrderSide::Buy, 101.0), tag(1));
        let mut other = order(2, OrderSide::Sell, 100.0);
        other.symbol = Symbol::new("GOOG");
        assert!(book.submit(other, tag(2)).is_none());
        assert_eq!(book.resting_depth(), 2);
    }
}
