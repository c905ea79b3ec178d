//! The Trader unit.
//!
//! "Trader units encapsulate traders' strategies for buying and selling stocks using
//! pairs trading" (§6.1). Each trader:
//!
//! * owns a confidentiality tag `t_i`, keeps it in its *input* label (so it can
//!   receive opportunities confined to it) but not in its *output* label (it owns
//!   `t_i-`, so it may operate below its contamination — the §3.1.4 pattern);
//! * instantiates its own Pair Monitor with read integrity `s` and the delegated
//!   `t_i+` privilege (Figure 4, step 1);
//! * reacts to match events by submitting a dark-pool order whose details are
//!   protected by the broker tag `b` and whose identity is additionally protected by
//!   a fresh per-order tag `t_r` (step 4), with `t_r+` attached to the details part
//!   and `t_r+auth` attached to the identity part; once the order is published
//!   the trader drops its own privileges over `t_r`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use defcon_core::context::LabelOp;
use defcon_core::{EngineResult, Unit, UnitContext, UnitSpec};
use defcon_defc::{Component, Label, Privilege, Tag, TagSet};
use defcon_events::{Event, Filter, Value, ValueMap};
use defcon_workload::{OrderSide, SymbolPair};

use crate::messages::{event_type, order, pairs_match, PART_TYPE};
use crate::units::monitor::PairMonitor;

/// A pairs-trading client of the platform.
pub struct Trader {
    id: u64,
    pair: SymbolPair,
    broker_tag: Tag,
    /// The interned `({b}, ∅)` label, computed once: every order's public-ish
    /// parts carry it, so the hot path clones instead of re-interning.
    broker_label: Label,
    exchange_tag: Tag,
    quantity: u64,
    /// Contrarian traders take the opposite side of the signal; mixing both kinds is
    /// what makes dark-pool matches possible among co-located clients.
    contrarian: bool,
    orders_placed: Arc<AtomicU64>,
    order_sequence: u64,
}

impl Trader {
    /// Creates a trader monitoring `pair`.
    ///
    /// `broker_tag` is the broker's tag `b` (the trader is granted `b+` by the
    /// platform at registration); `exchange_tag` is the exchange integrity tag `s`
    /// used to instantiate the Pair Monitor with read integrity.
    pub fn new(
        id: u64,
        pair: SymbolPair,
        broker_tag: Tag,
        exchange_tag: Tag,
        orders_placed: Arc<AtomicU64>,
    ) -> Self {
        Trader {
            id,
            pair,
            broker_label: Label::confidential(TagSet::singleton(broker_tag.clone())),
            broker_tag,
            exchange_tag,
            quantity: 100,
            contrarian: id % 2 == 1,
            orders_placed,
            order_sequence: 0,
        }
    }
}

impl Unit for Trader {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        // The trader's own tag: received in the input label so confined
        // opportunities are visible, removed from the output label so that orders
        // are not self-confined (the trader owns t_i-, §3.1.4).
        let tag = ctx.create_owned_tag(format!("s-trader-{}", self.id));
        ctx.change_in_out_label(Component::Confidentiality, LabelOp::Add, &tag)?;
        ctx.change_out_label(Component::Confidentiality, LabelOp::Remove, &tag)?;

        // Step 1: instantiate the dedicated Pair Monitor, delegating t_i+ only to it
        // and pinning it to genuine exchange data via read integrity s.
        let monitor = PairMonitor::new(self.pair.clone(), self.id, tag.clone());
        let spec = UnitSpec::new(format!("pair-monitor-{}", self.id))
            .with_input_label(Label::endorsed(TagSet::singleton(
                self.exchange_tag.clone(),
            )))
            .with_privilege(Privilege::add(tag.clone()));
        ctx.instantiate_unit(spec, Box::new(monitor))?;

        // Opportunities arrive confined to t_i; only this trader can see them. The
        // explicit trader field keeps routing identical when label checks are off.
        ctx.subscribe(
            Filter::for_type(event_type::MATCH).where_eq(pairs_match::TRADER, self.id as i64),
        )?;

        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let buy_symbol = ctx.read_first(event, pairs_match::BUY_SYMBOL)?;
        let buy_price = ctx
            .read_first(event, pairs_match::BUY_PRICE)?
            .as_float()
            .unwrap_or(0.0);
        let Some(symbol) = buy_symbol.as_str().map(str::to_owned) else {
            return Ok(());
        };
        if buy_price <= 0.0 {
            return Ok(());
        }

        // Half of the traders follow the signal, half fade it; both sides quote
        // through the mid so that opposite orders cross inside the dark pool.
        let side = if self.contrarian {
            OrderSide::Sell
        } else {
            OrderSide::Buy
        };
        let price = match side {
            OrderSide::Buy => buy_price * 1.001,
            OrderSide::Sell => buy_price * 0.999,
        };

        // Step 4: a fresh per-order tag protects the trader's identity.
        self.order_sequence += 1;
        let order_tag =
            ctx.create_owned_tag(format!("t-order-{}-{}", self.id, self.order_sequence));

        let broker = self.broker_label.clone();
        // The fresh per-order tag makes this label unique by construction, so
        // interning it would take the global table lock for a guaranteed miss.
        let broker_and_order = Label::unshared(
            [self.broker_tag.clone(), order_tag.clone()]
                .into_iter()
                .collect(),
            TagSet::empty(),
        );

        let body: ValueMap = [
            (order::body_keys::SYMBOL, Value::str(&symbol)),
            (order::body_keys::SIDE, Value::str(side.as_str())),
            (order::body_keys::PRICE, Value::Float(price)),
            (order::body_keys::QUANTITY, Value::Int(self.quantity as i64)),
        ]
        .into_iter()
        .collect();
        let identity: ValueMap = [
            ("trader", Value::Int(self.id as i64)),
            ("tag", Value::Tag(order_tag.id())),
        ]
        .into_iter()
        .collect();

        let draft = ctx.create_event();
        ctx.add_part(
            &draft,
            broker.clone(),
            PART_TYPE,
            Value::str(event_type::ORDER),
        )?;
        ctx.add_part(&draft, broker.clone(), order::BODY, Value::Map(body))?;
        // The details part carries t_r+ so the Broker can accept the contamination
        // needed to learn the identity.
        ctx.attach_privilege_to_part(
            &draft,
            order::BODY,
            broker.clone(),
            Privilege::add(order_tag.clone()),
        )?;
        // The identity part is protected by {b, t_r} and carries t_r+auth so the
        // Broker can later delegate inspection to the Regulator (step 7).
        ctx.add_part(
            &draft,
            broker_and_order.clone(),
            order::NAME,
            Value::Map(identity),
        )?;
        ctx.attach_privilege_to_part(
            &draft,
            order::NAME,
            broker_and_order,
            Privilege::add_authority(order_tag.clone()),
        )?;
        ctx.publish(draft)?;
        // The order now carries everything t_r grants; the trader never uses
        // its own four privileges over t_r again, so it retires them instead
        // of accumulating four per order.
        ctx.drop_privileges(&order_tag);
        self.orders_placed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}
