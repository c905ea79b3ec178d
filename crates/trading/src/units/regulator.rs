//! The Regulator unit.
//!
//! "A Regulator unit samples a subset of local trades on behalf of a regulatory
//! body. It may verify that the volume of a trader's trades has not exceeded a given
//! quota" (§6.1). DEFC aspects (Figure 4, steps 7–9):
//!
//! * the Regulator owns its tag `r`; the Broker labels the audit part of every trade
//!   with `r`, so only the Regulator can inspect it;
//! * trades are processed through a managed subscription, so the per-trade
//!   contamination (the per-order tags protecting the two identities) never sticks
//!   to the Regulator itself;
//! * for sampled trades, reading the audit part bestows the `t_r+` privilege over
//!   the aggressor's per-order tag, which the handler exercises to learn the
//!   identity and update the trader's volume;
//! * a quota breach produces a warning confined to the offending order's tag
//!   (step 8), and the sampled trade is republished as a stock tick endorsed with
//!   the exchange integrity tag `s`, which the Regulator also holds (step 9).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use defcon_core::context::LabelOp;
use defcon_core::{EngineResult, Unit, UnitContext, UnitFactory};
use defcon_defc::{Component, Label, PrivilegeKind, Tag, TagSet};
use defcon_events::{Event, Filter, Value};
use defcon_workload::Symbol;
use parking_lot::Mutex;

use crate::messages::{event_type, trade, warning, PART_TYPE};
use crate::units::stock_exchange::StockExchange;

/// State shared between the Regulator's managed handlers.
#[derive(Debug, Default)]
pub struct RegulatorShared {
    /// Total trades observed.
    pub trades_seen: AtomicU64,
    /// Trades actually audited (every `sample_every`-th).
    pub audited: AtomicU64,
    /// Warnings issued for quota breaches.
    pub warnings: AtomicU64,
    /// Local trades republished as endorsed stock ticks.
    pub republished: AtomicU64,
    /// Cumulative traded volume per trader.
    pub volumes: Mutex<HashMap<u64, u64>>,
}

/// The Regulator unit: declares the managed subscription over trade events.
pub struct Regulator {
    exchange_tag: Tag,
    sample_every: u64,
    volume_quota: u64,
    shared: Arc<RegulatorShared>,
}

impl Regulator {
    /// Creates the regulator.
    ///
    /// `exchange_tag` is the exchange integrity tag `s` (the platform grants the
    /// regulator `s+` so it can republish trades as valid ticks); every
    /// `sample_every`-th trade is audited; traders whose cumulative volume exceeds
    /// `volume_quota` receive a warning.
    pub fn new(
        exchange_tag: Tag,
        sample_every: u64,
        volume_quota: u64,
        shared: Arc<RegulatorShared>,
    ) -> Self {
        Regulator {
            exchange_tag,
            sample_every: sample_every.max(1),
            volume_quota,
            shared,
        }
    }
}

impl Unit for Regulator {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        // Step 9 precondition: the regulator may endorse with s (privilege granted
        // by the platform at registration).
        ctx.change_out_label(Component::Integrity, LabelOp::Add, &self.exchange_tag)?;

        let exchange_tag = self.exchange_tag.clone();
        let sample_every = self.sample_every;
        let volume_quota = self.volume_quota;
        let shared = Arc::clone(&self.shared);
        let factory: UnitFactory = Box::new(move || {
            Box::new(RegulatorHandler {
                exchange_tag: exchange_tag.clone(),
                sample_every,
                volume_quota,
                shared: Arc::clone(&shared),
            }) as Box<dyn Unit>
        });
        ctx.subscribe_managed(factory, Filter::for_type(event_type::TRADE))?;
        Ok(())
    }

    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        // All trade processing happens in managed handlers.
        Ok(())
    }
}

/// The handler built for each trade: it serves that one delivery, at the
/// trade's contamination, and is then dropped.
struct RegulatorHandler {
    exchange_tag: Tag,
    sample_every: u64,
    volume_quota: u64,
    shared: Arc<RegulatorShared>,
}

impl Unit for RegulatorHandler {
    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let seen = self.shared.trades_seen.fetch_add(1, Ordering::Relaxed) + 1;
        if !seen.is_multiple_of(self.sample_every) {
            return Ok(());
        }
        self.shared.audited.fetch_add(1, Ordering::Relaxed);

        // The public trade body is always readable.
        let body = ctx.read_first(event, trade::BODY)?;
        let Some(body) = body.as_map() else {
            return Ok(());
        };
        let (Some(symbol), Some(price), Some(quantity)) = (
            body.get(trade::body_keys::SYMBOL)
                .and_then(|v| v.as_str().map(str::to_owned)),
            body.get(trade::body_keys::PRICE).and_then(|v| v.as_float()),
            body.get(trade::body_keys::QUANTITY)
                .and_then(|v| v.as_int()),
        ) else {
            return Ok(());
        };

        // Step 7: the audit part is confined to r and carries t_r+ over the
        // aggressor's per-order tag; reading it bestows the privilege.
        let audit = ctx.read_first(event, trade::AUDIT)?;
        let Some(audit) = audit.as_map() else {
            return Ok(());
        };
        let (Some(order_tag_id), Some(trader)) = (
            audit.get("tag").and_then(|v| v.as_tag()),
            audit.get("trader").and_then(|v| v.as_int()),
        ) else {
            return Ok(());
        };
        let order_tag = Tag::from_id(order_tag_id);
        debug_assert!(
            ctx.has_privilege(&order_tag, PrivilegeKind::Add),
            "reading the audit part must bestow t_r+"
        );

        // Verify the trader's volume quota.
        let breached = {
            let mut volumes = self.shared.volumes.lock();
            let volume = volumes.entry(trader as u64).or_insert(0);
            *volume += quantity.max(0) as u64;
            *volume > self.volume_quota
        };

        if breached {
            // Step 8: warn the trader; the warning is confined to the per-order tag
            // so only a principal holding t_r (the offending trader owns it) can
            // read it.
            // Per-order tag: unique by construction, so skip the intern table.
            let confined = Label::unshared(TagSet::singleton(order_tag.clone()), TagSet::empty());
            let draft = ctx.create_event();
            ctx.add_part(
                &draft,
                confined.clone(),
                PART_TYPE,
                Value::str(event_type::WARNING),
            )?;
            ctx.add_part(
                &draft,
                confined,
                warning::MESSAGE,
                Value::str("Trading volume exceeded quota"),
            )?;
            ctx.publish(draft)?;
            self.shared.warnings.fetch_add(1, Ordering::Relaxed);
        }

        // Step 9: republish the sampled local trade as a valid, s-endorsed tick so
        // that Pair Monitors perceive dark-pool executions as market data.
        let republished_tick = defcon_workload::Tick {
            sequence: seen,
            symbol: Symbol::new(symbol),
            price,
            timestamp_ns: event.origin_ns(),
        };
        StockExchange::publish_tick(ctx, &self.exchange_tag, &republished_tick)?;
        self.shared.republished.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}
