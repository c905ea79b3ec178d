//! The Pair Monitor unit.
//!
//! "Pair Monitor units provide pairs trading as a service since it is used by all
//! traders in our system. Based on a stock pair and an investment threshold, it
//! sends events to traders when the expected price difference occurs" (§6.1).
//!
//! DEFC aspects (Figure 4, steps 1–3): the monitor is instantiated by its Trader
//! with the delegated `t+` privilege over the trader's tag and with read integrity
//! `s`, so it only perceives genuine exchange ticks; it adds the trader's tag to its
//! output label at start-up, so every opportunity event it publishes is confined to
//! that trader — the monitor *cannot* leak the trader's strategy even if it wanted
//! to.

use defcon_core::context::LabelOp;
use defcon_core::{EngineResult, Unit, UnitContext};
use defcon_defc::{Component, Label, Tag};
use defcon_events::{Event, Filter, Value};
use defcon_workload::SymbolPair;

use crate::messages::{event_type, pairs_match, tick, PART_TYPE};
use crate::pairs::{PairsTradeStats, SignalDirection};

/// A per-trader pairs-trading monitor.
pub struct PairMonitor {
    pair: SymbolPair,
    trader_id: u64,
    trader_tag: Tag,
    stats: PairsTradeStats,
}

impl PairMonitor {
    /// Creates a monitor for `pair` publishing exclusively to the trader with
    /// numeric id `trader_id` owning `trader_tag`, with the standard threshold.
    pub fn new(pair: SymbolPair, trader_id: u64, trader_tag: Tag) -> Self {
        PairMonitor {
            pair,
            trader_id,
            trader_tag,
            stats: PairsTradeStats::standard(),
        }
    }
}

impl Unit for PairMonitor {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        // Everything this monitor publishes is confined to its trader. This uses the
        // delegated t+ privilege received at instantiation (step 1 of Figure 4).
        ctx.change_out_label(Component::Confidentiality, LabelOp::Add, &self.trader_tag)?;

        // One tick subscription per monitored symbol (step 2).
        for symbol in [&self.pair.first, &self.pair.second] {
            ctx.subscribe(
                Filter::for_type(event_type::TICK).where_eq(tick::SYMBOL, symbol.as_str()),
            )?;
        }
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let symbol = ctx.read_first(event, tick::SYMBOL)?;
        let price = ctx
            .read_first(event, tick::PRICE)?
            .as_float()
            .unwrap_or(0.0);
        if price <= 0.0 {
            return Ok(());
        }

        let signal = if symbol.as_str() == Some(self.pair.first.as_str()) {
            self.stats.update_first(price)
        } else {
            self.stats.update_second(price)
        };

        let Some(signal) = signal else {
            return Ok(());
        };

        // Step 3: tell the trader which leg to buy and which to sell. All parts are
        // requested public but transparently raised to {trader_tag} by contamination
        // independence.
        let (buy, sell, buy_price, sell_price) = match signal.direction {
            SignalDirection::FirstOverpriced => (
                &self.pair.second,
                &self.pair.first,
                signal.price_second,
                signal.price_first,
            ),
            SignalDirection::FirstUnderpriced => (
                &self.pair.first,
                &self.pair.second,
                signal.price_first,
                signal.price_second,
            ),
        };
        let draft = ctx.create_event();
        ctx.add_part(
            &draft,
            Label::public(),
            PART_TYPE,
            Value::str(event_type::MATCH),
        )?;
        ctx.add_part(
            &draft,
            Label::public(),
            pairs_match::BUY_SYMBOL,
            Value::str(buy.as_str()),
        )?;
        ctx.add_part(
            &draft,
            Label::public(),
            pairs_match::SELL_SYMBOL,
            Value::str(sell.as_str()),
        )?;
        ctx.add_part(
            &draft,
            Label::public(),
            pairs_match::BUY_PRICE,
            Value::Float(buy_price),
        )?;
        ctx.add_part(
            &draft,
            Label::public(),
            pairs_match::SELL_PRICE,
            Value::Float(sell_price),
        )?;
        ctx.add_part(
            &draft,
            Label::public(),
            pairs_match::DEVIATION,
            Value::Float(signal.deviation),
        )?;
        ctx.add_part(
            &draft,
            Label::public(),
            pairs_match::TRADER,
            Value::Int(self.trader_id as i64),
        )?;
        ctx.publish(draft)?;
        Ok(())
    }
}
