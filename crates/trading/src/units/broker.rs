//! The Local Broker unit.
//!
//! "A Local Broker unit enables traders to clear their orders locally, without the
//! need to involve the stock exchange, by matching traders' bid/ask orders" (§6.1).
//!
//! DEFC aspects (Figure 4, steps 5–6): the broker owns the tag `b` (granting it
//! `b+`/`b-`) and processes orders through a *managed subscription*, so that reading
//! an order — whose parts are protected by `b` and by a per-order tag `t_r` — only
//! contaminates the handler built for that one order, never the broker unit itself.
//! When two orders cross, the handler publishes a trade event whose public body is
//! declassified while the two identities remain protected by the per-order tags of
//! their sides; an audit part visible only to the Regulator carries the aggressor's
//! tag and the `t_r+` privilege needed to inspect it (collapsing the paper's
//! on-demand delegation of step 7 into the trade event itself).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use defcon_core::{EngineResult, Unit, UnitContext, UnitFactory};
use defcon_defc::{Label, Privilege, PrivilegeKind, Tag, TagSet};
use defcon_events::{now_ns, Event, Filter, Value, ValueMap};
use defcon_metrics::LatencyHistogram;
use defcon_workload::{Order, OrderSide, Symbol};
use parking_lot::Mutex;

use crate::messages::{event_type, order, trade, PART_TYPE};
use crate::order_book::OrderBook;

/// State shared between the broker's managed handlers.
///
/// The order book, the latency histogram (Figure 6's metric is recorded at the
/// moment the broker produces a trade) and the trade counter all belong to the
/// broker principal; each handler is a one-order view onto it.
#[derive(Debug)]
pub struct BrokerShared {
    /// The dark-pool order book.
    pub book: Mutex<OrderBook>,
    /// Tick-to-trade latency samples.
    pub latency: LatencyHistogram,
    /// Number of trades produced.
    pub trades: AtomicU64,
    /// Number of orders received.
    pub orders: AtomicU64,
}

impl BrokerShared {
    /// Creates empty shared broker state.
    pub fn new() -> Arc<Self> {
        Arc::new(BrokerShared {
            book: Mutex::new(OrderBook::new()),
            latency: LatencyHistogram::new(),
            trades: AtomicU64::new(0),
            orders: AtomicU64::new(0),
        })
    }
}

/// The Local Broker unit: declares the managed subscription over order events.
pub struct Broker {
    regulator_tag: Tag,
    shared: Arc<BrokerShared>,
}

impl Broker {
    /// Creates the broker. `regulator_tag` is the Regulator's tag `r` used to label
    /// audit parts; `shared` collects the book and the metrics.
    pub fn new(regulator_tag: Tag, shared: Arc<BrokerShared>) -> Self {
        Broker {
            regulator_tag,
            shared,
        }
    }
}

impl Unit for Broker {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        // The audit label `({r}, ∅)` is interned once here; every handler
        // (and every trade it publishes) clones the shared value.
        let regulator_label = Label::confidential(TagSet::singleton(self.regulator_tag.clone()));
        let shared = Arc::clone(&self.shared);
        let factory: UnitFactory = Box::new(move || {
            Box::new(BrokerHandler {
                regulator_label: regulator_label.clone(),
                shared: Arc::clone(&shared),
            }) as Box<dyn Unit>
        });
        ctx.subscribe_managed(factory, Filter::for_type(event_type::ORDER))?;
        Ok(())
    }

    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        // All order processing happens in managed handlers.
        Ok(())
    }
}

/// The handler built for each order: it serves that one delivery, at the
/// order's contamination, and is then dropped.
struct BrokerHandler {
    regulator_label: Label,
    shared: Arc<BrokerShared>,
}

impl BrokerHandler {
    fn parse_order(ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<Option<(Order, Tag)>> {
        // Reading the details part bestows t_r+ on the handler (step 5).
        let body = ctx.read_first(event, order::BODY)?;
        // Reading the identity part bestows t_r+auth and reveals trader and tag.
        let identity = ctx.read_first(event, order::NAME)?;

        let (Some(body), Some(identity)) = (body.as_map(), identity.as_map()) else {
            return Ok(None);
        };
        let (Some(symbol), Some(side), Some(price), Some(quantity)) = (
            body.get(order::body_keys::SYMBOL)
                .and_then(|v| v.as_str().map(str::to_owned)),
            body.get(order::body_keys::SIDE)
                .and_then(|v| v.as_str().and_then(OrderSide::parse)),
            body.get(order::body_keys::PRICE).and_then(|v| v.as_float()),
            body.get(order::body_keys::QUANTITY)
                .and_then(|v| v.as_int()),
        ) else {
            return Ok(None);
        };
        let (Some(trader), Some(tag_id)) = (
            identity.get("trader").and_then(|v| v.as_int()),
            identity.get("tag").and_then(|v| v.as_tag()),
        ) else {
            return Ok(None);
        };

        Ok(Some((
            Order {
                trader: trader as u64,
                symbol: Symbol::new(symbol),
                side,
                price,
                quantity: quantity.max(0) as u64,
                origin_ns: event.origin_ns(),
            },
            Tag::from_id(tag_id),
        )))
    }

    /// Submits a parsed order to the book and publishes the trade it
    /// completes, if any.
    fn trade(
        &self,
        ctx: &mut UnitContext<'_>,
        event: &Event,
        incoming: Order,
        order_tag: &Tag,
    ) -> EngineResult<()> {
        let matched = self
            .shared
            .book
            .lock()
            .submit(incoming.clone(), order_tag.id());
        let Some((completed, resting)) = matched else {
            return Ok(());
        };

        // Step 6: publish the trade. The body is declassified (the broker holds b-);
        // the two identities stay protected by the per-order tags of their sides.
        debug_assert!(
            ctx.has_privilege(order_tag, PrivilegeKind::Add),
            "reading the order body must have bestowed t_r+"
        );
        let (buyer_tag, seller_tag) = if incoming.side == OrderSide::Buy {
            (order_tag.id(), resting.identity_tag)
        } else {
            (resting.identity_tag, order_tag.id())
        };

        let body: ValueMap = [
            (
                trade::body_keys::SYMBOL,
                Value::str(completed.symbol.as_str()),
            ),
            (trade::body_keys::PRICE, Value::Float(completed.price)),
            (
                trade::body_keys::QUANTITY,
                Value::Int(completed.quantity as i64),
            ),
        ]
        .into_iter()
        .collect();
        let audit: ValueMap = [
            ("tag", Value::Tag(order_tag.id())),
            ("trader", Value::Int(incoming.trader as i64)),
        ]
        .into_iter()
        .collect();

        let draft = ctx.create_event();
        ctx.add_part(
            &draft,
            Label::public(),
            PART_TYPE,
            Value::str(event_type::TRADE),
        )?;
        ctx.add_part(&draft, Label::public(), trade::BODY, Value::Map(body))?;
        // Identity labels are built around unique per-order tags: `unshared`
        // skips the guaranteed-miss intern lookup.
        ctx.add_part(
            &draft,
            Label::unshared(TagSet::singleton(Tag::from_id(buyer_tag)), TagSet::empty()),
            trade::BUYER,
            Value::Int(completed.buyer as i64),
        )?;
        ctx.add_part(
            &draft,
            Label::unshared(TagSet::singleton(Tag::from_id(seller_tag)), TagSet::empty()),
            trade::SELLER,
            Value::Int(completed.seller as i64),
        )?;
        // Audit part for the Regulator: confined to r, carrying the aggressor's tag
        // and the t_r+ privilege (the handler holds t_r+auth from the identity part).
        let regulator_label = self.regulator_label.clone();
        ctx.add_part(
            &draft,
            regulator_label.clone(),
            trade::AUDIT,
            Value::Map(audit),
        )?;
        ctx.attach_privilege_to_part(
            &draft,
            trade::AUDIT,
            regulator_label,
            Privilege::add(order_tag.clone()),
        )?;
        ctx.publish(draft)?;

        // Figure 6's metric: time from the originating tick to the broker's trade.
        let latency = now_ns().saturating_sub(event.origin_ns());
        self.shared.latency.record(latency);
        self.shared.trades.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl Unit for BrokerHandler {
    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        self.shared.orders.fetch_add(1, Ordering::Relaxed);
        let Some((incoming, order_tag)) = Self::parse_order(ctx, event)? else {
            return Ok(());
        };
        self.trade(ctx, event, incoming, &order_tag)
    }
}
