//! Where the security epoch moves, pinned through `queue_stats().index_rebuilds`.
//!
//! The dispatcher caches one batch context — owner snapshots plus the
//! subscription index — per security epoch, so every epoch bump that reaches
//! a dispatch costs one rebuild. The epoch must move exactly when state that
//! context holds changes: the subscription list, an input label, or the output
//! label and privileges of a managed subscription's owner (the state its
//! handlers run with). Tag creation and privilege traffic of
//! any other unit must not rebuild anything. Also pinned here:
//! `UnitContext::drop_privileges`.

use std::sync::Arc;

use defcon_core::context::LabelOp;
use defcon_core::unit::NullUnit;
use defcon_core::{
    Engine, EngineError, EngineHandle, EngineResult, EventDraft, Publisher, Unit, UnitContext,
    UnitId, UnitSpec,
};
use defcon_defc::{Component, Label, Privilege, PrivilegeKind, Tag, TagSet};
use defcon_events::{Event, Filter, Value};
use parking_lot::Mutex;

const ALL_KINDS: [PrivilegeKind; 4] = [
    PrivilegeKind::Add,
    PrivilegeKind::Remove,
    PrivilegeKind::AddAuthority,
    PrivilegeKind::RemoveAuthority,
];

/// Subscribes to ticks and reads each one's `grant` part, absorbing any
/// privilege the part carries.
struct Reader;

impl Unit for Reader {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("tick"))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let _ = ctx.read_part(event, "grant");
        Ok(())
    }
}

/// A manually pumped engine with a [`Reader`] and a feed unit.
fn deployment() -> (Engine, EngineHandle, UnitId, Publisher) {
    let engine = Engine::builder().build();
    let reader = engine
        .register_unit(UnitSpec::new("reader"), Box::new(Reader))
        .unwrap();
    let feed = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();
    let handle = engine.start();
    let feed = engine.publisher(feed).unwrap();
    (engine, handle, reader, feed)
}

/// Dispatches one tick and returns how many times the batch context has been
/// built so far.
fn rebuilds_after_a_tick(handle: &EngineHandle, feed: &Publisher) -> u64 {
    feed.publish(EventDraft::new().public_part("type", Value::str("tick")))
        .unwrap();
    handle.pump_until_idle().unwrap();
    handle.engine().queue_stats().index_rebuilds
}

#[test]
fn privilege_traffic_of_units_without_managed_subscriptions_never_rebuilds() {
    let (engine, handle, reader, feed) = deployment();
    let settled = rebuilds_after_a_tick(&handle, &feed);
    assert_eq!(settled, 1, "the first dispatch builds the context once");

    // Tag creation, self-delegation and an output-label change by a unit with
    // only direct subscriptions.
    engine
        .with_unit(reader, |_, ctx| {
            ctx.create_tag("unused");
            let tag = ctx.create_owned_tag("owned");
            ctx.change_out_label(Component::Confidentiality, LabelOp::Add, &tag)
        })
        .unwrap();
    assert_eq!(rebuilds_after_a_tick(&handle, &feed), settled);

    // A privilege-carrying read: the feed mints a tag and ships `t+` over it
    // in a public part; the reader absorbs it on delivery.
    let granted = feed
        .with_context(|ctx| {
            let tag = ctx.create_owned_tag("granted");
            let draft = ctx.create_event();
            ctx.add_part(&draft, Label::public(), "type", Value::str("tick"))?;
            ctx.add_part(&draft, Label::public(), "grant", Value::Tag(tag.id()))?;
            ctx.attach_privilege_to_part(
                &draft,
                "grant",
                Label::public(),
                Privilege::add(tag.clone()),
            )?;
            ctx.publish(draft)?;
            Ok(tag)
        })
        .unwrap();
    handle.pump_until_idle().unwrap();
    let state = engine.unit_state(reader).unwrap();
    assert!(state.privileges.holds(&granted, PrivilegeKind::Add));
    assert_eq!(rebuilds_after_a_tick(&handle, &feed), settled);
    handle.shutdown().unwrap();
}

#[test]
fn changes_to_snapshotted_state_each_rebuild_once() {
    let (engine, handle, reader, feed) = deployment();
    let mut expected = rebuilds_after_a_tick(&handle, &feed);

    // An input label.
    engine
        .with_unit(reader, |_, ctx| {
            let tag = ctx.create_owned_tag("in");
            ctx.change_in_out_label(Component::Confidentiality, LabelOp::Add, &tag)
        })
        .unwrap();
    expected += 1;
    assert_eq!(rebuilds_after_a_tick(&handle, &feed), expected);

    // The subscription list.
    engine
        .with_unit(reader, |_, ctx| ctx.subscribe(Filter::for_type("other")))
        .unwrap();
    expected += 1;
    assert_eq!(rebuilds_after_a_tick(&handle, &feed), expected);

    // A managed owner's privileges: registering it is a rebuild of its own,
    // then every privilege change is one more.
    let owner = engine
        .register_unit(UnitSpec::new("owner"), Box::new(ManagedOwner::new().0))
        .unwrap();
    expected += 1;
    assert_eq!(rebuilds_after_a_tick(&handle, &feed), expected);
    let tag = engine
        .with_unit(owner, |_, ctx| Ok(ctx.create_owned_tag("owner-tag")))
        .unwrap();
    expected += 1;
    assert_eq!(rebuilds_after_a_tick(&handle, &feed), expected);
    engine
        .with_unit(owner, |_, ctx| {
            ctx.drop_privileges(&tag);
            Ok(())
        })
        .unwrap();
    expected += 1;
    assert_eq!(rebuilds_after_a_tick(&handle, &feed), expected);
    handle.shutdown().unwrap();
}

/// The tag a [`Probe`] checks its privileges over, and what it found.
#[derive(Default)]
struct ProbeLog {
    watched: Option<Tag>,
    held: Vec<bool>,
}

/// A managed handler recording whether it holds `t+` over the watched tag.
struct Probe(Arc<Mutex<ProbeLog>>);

impl Unit for Probe {
    fn on_event(&mut self, ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        let mut log = self.0.lock();
        if let Some(tag) = log.watched.clone() {
            log.held.push(ctx.has_privilege(&tag, PrivilegeKind::Add));
        }
        Ok(())
    }
}

/// Serves `type == order` through a managed subscription of [`Probe`]s.
struct ManagedOwner(Arc<Mutex<ProbeLog>>);

impl ManagedOwner {
    fn new() -> (Self, Arc<Mutex<ProbeLog>>) {
        let log = Arc::new(Mutex::new(ProbeLog::default()));
        (ManagedOwner(Arc::clone(&log)), log)
    }
}

impl Unit for ManagedOwner {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        let log = Arc::clone(&self.0);
        ctx.subscribe_managed(
            Box::new(move || Box::new(Probe(Arc::clone(&log))) as Box<dyn Unit>),
            Filter::for_type("order"),
        )?;
        Ok(())
    }

    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        Ok(())
    }
}

#[test]
fn a_managed_owners_new_privilege_reaches_the_next_handler_instance() {
    let engine = Engine::builder().build();
    let (owner_unit, log) = ManagedOwner::new();
    let owner = engine
        .register_unit(UnitSpec::new("owner"), Box::new(owner_unit))
        .unwrap();
    let feed = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();
    let handle = engine.start();
    let feed = engine.publisher(feed).unwrap();

    // A first order caches the batch context.
    feed.publish(EventDraft::new().public_part("type", Value::str("order")))
        .unwrap();
    handle.pump_until_idle().unwrap();

    let granted = engine
        .with_unit(owner, |_, ctx| Ok(ctx.create_owned_tag("granted")))
        .unwrap();
    log.lock().watched = Some(granted);

    // The next order's handler runs with the owner's snapshotted
    // privileges: they must already include the grant.
    let secret = Label::confidential(TagSet::singleton(Tag::with_name("secret")));
    feed.publish(
        EventDraft::new()
            .public_part("type", Value::str("order"))
            .part("body", secret, Value::Int(1)),
    )
    .unwrap();
    handle.pump_until_idle().unwrap();
    assert_eq!(engine.stats().managed_deliveries(), 2);
    assert_eq!(log.lock().held, [true]);
    handle.shutdown().unwrap();
}

#[test]
fn dropped_privileges_are_gone_and_their_uses_fail() {
    let engine = Engine::builder().build();
    let unit = engine
        .register_unit(UnitSpec::new("trader"), Box::new(NullUnit))
        .unwrap();
    let (kept, dropped) = engine
        .with_unit(unit, |_, ctx| {
            let kept = ctx.create_owned_tag("kept");
            let dropped = ctx.create_owned_tag("t-order");
            ctx.drop_privileges(&dropped);
            for kind in ALL_KINDS {
                assert!(!ctx.has_privilege(&dropped, kind), "{kind} survived");
                assert!(ctx.has_privilege(&kept, kind), "{kind} over another tag");
            }
            for op in [LabelOp::Add, LabelOp::Remove] {
                assert!(matches!(
                    ctx.change_out_label(Component::Confidentiality, op, &dropped),
                    Err(EngineError::Defc(_))
                ));
            }
            let draft = ctx.create_event();
            ctx.add_part(&draft, Label::public(), "grant", Value::Tag(dropped.id()))?;
            for privilege in [
                Privilege::add(dropped.clone()),
                Privilege::remove_authority(dropped.clone()),
            ] {
                assert!(matches!(
                    ctx.attach_privilege_to_part(&draft, "grant", Label::public(), privilege),
                    Err(EngineError::Defc(_))
                ));
            }
            // Dropping again is a no-op.
            ctx.drop_privileges(&dropped);
            Ok((kept, dropped))
        })
        .unwrap();
    let privileges = engine.unit_state(unit).unwrap().privileges;
    assert_eq!(privileges.len(), 4, "only the kept tag's four remain");
    assert!(privileges.iter().all(|p| p.tag == kept && p.tag != dropped));
}
