//! End-to-end tests of the DEFCon engine: the Table 1 API, the can-flow-to checks
//! performed during dispatch, privilege delegation through events, managed
//! subscriptions and the four security modes — driven through the v2 runtime API
//! (`Engine::builder()` → `Engine` → `EngineHandle`), plus concurrent-dispatch
//! coverage for multi-worker engines.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use defcon_core::context::LabelOp;
use defcon_core::unit::NullUnit;
use defcon_core::{
    Engine, EngineError, EngineHandle, EngineResult, EventDraft, SecurityMode, Unit, UnitContext,
    UnitSpec,
};
use defcon_defc::{Component, Label, Privilege, PrivilegeKind, Tag, TagSet};
use defcon_events::{Event, Filter, Value};
use defcon_metrics::memory::MemoryCategory;

/// Builds an unstarted single-threaded engine in the given mode.
fn engine(mode: SecurityMode) -> Engine {
    Engine::builder().mode(mode).build()
}

/// Starts a single-threaded (manually pumped) engine in the given mode.
fn started(mode: SecurityMode) -> EngineHandle {
    engine(mode).start()
}

/// A unit that records how many events it received and, optionally, the data of a
/// named part of each.
struct Recorder {
    filter: Filter,
    part: Option<String>,
    received: Arc<AtomicU64>,
    seen: Arc<parking_lot::Mutex<Vec<Value>>>,
}

impl Recorder {
    fn new(filter: Filter) -> (Self, Arc<AtomicU64>, Arc<parking_lot::Mutex<Vec<Value>>>) {
        let received = Arc::new(AtomicU64::new(0));
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        (
            Recorder {
                filter,
                part: None,
                received: Arc::clone(&received),
                seen: Arc::clone(&seen),
            },
            received,
            seen,
        )
    }

    fn reading(mut self, part: &str) -> Self {
        self.part = Some(part.to_string());
        self
    }
}

impl Unit for Recorder {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(self.filter.clone())?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        self.received.fetch_add(1, Ordering::Relaxed);
        if let Some(part) = &self.part {
            if let Ok(value) = ctx.read_first(event, part) {
                self.seen.lock().push(value);
            }
        }
        Ok(())
    }
}

/// Publishes an event with the given public parts from a throwaway source unit,
/// through the typed publisher handle.
fn publish_public(engine: &Engine, parts: &[(&str, Value)]) {
    let source = engine
        .register_unit(UnitSpec::new("source"), Box::new(NullUnit))
        .unwrap();
    let publisher = engine.publisher(source).unwrap();
    let mut draft = EventDraft::new();
    for (name, value) in parts {
        draft = draft.public_part(*name, value.clone());
    }
    publisher.publish(draft).unwrap();
}

#[test]
fn basic_publish_subscribe_roundtrip() {
    let handle = started(SecurityMode::LabelsFreeze);
    let engine = handle.engine();
    let (recorder, received, seen) = Recorder::new(Filter::for_type("tick"));
    engine
        .register_unit(
            UnitSpec::new("recorder"),
            Box::new(recorder.reading("price")),
        )
        .unwrap();

    publish_public(
        engine,
        &[("type", Value::str("tick")), ("price", Value::Float(10.0))],
    );
    publish_public(engine, &[("type", Value::str("other"))]);
    handle.pump_until_idle().unwrap();

    assert_eq!(received.load(Ordering::Relaxed), 1);
    assert_eq!(seen.lock().as_slice(), &[Value::Float(10.0)]);
    assert_eq!(engine.stats().published(), 2);
    assert_eq!(engine.stats().dispatched(), 2);
    assert_eq!(engine.stats().deliveries(), 1);
}

#[test]
fn confidential_parts_are_hidden_from_untagged_units() {
    // A subscriber without the secrecy tag must not receive events whose filtered
    // part is confidential, and must not be able to read hidden parts of events it
    // does receive.
    let handle = started(SecurityMode::LabelsFreeze);
    let engine = handle.engine();

    let (recorder, received, _) = Recorder::new(Filter::for_type("order"));
    engine
        .register_unit(UnitSpec::new("curious"), Box::new(recorder))
        .unwrap();

    // The publisher owns a tag and publishes the order body under it, with a public
    // type part.
    let publisher_unit = engine
        .register_unit(UnitSpec::new("publisher"), Box::new(NullUnit))
        .unwrap();
    let publisher = engine.publisher(publisher_unit).unwrap();
    publisher
        .with_context(|ctx| {
            let t = ctx.create_owned_tag("s-trader-1");
            let draft = ctx.create_event();
            ctx.add_part(&draft, Label::public(), "type", Value::str("order"))?;
            ctx.add_part(
                &draft,
                Label::confidential(TagSet::singleton(t.clone())),
                "body",
                Value::Float(99.0),
            )?;
            ctx.publish(draft)?;
            Ok(())
        })
        .unwrap();
    handle.pump_until_idle().unwrap();

    // The curious unit receives the event (the type part is public)...
    assert_eq!(received.load(Ordering::Relaxed), 1);

    // ...but reading the confidential body from a unit without the tag fails.
    let curious2 = engine
        .register_unit(UnitSpec::new("curious2"), Box::new(NullUnit))
        .unwrap();
    // Re-publish and read through a context to verify part-level hiding. The
    // draft can also be built externally: the confidential label is a request
    // honoured by the typed publisher.
    let tag = publisher
        .with_context(|ctx| Ok(ctx.create_owned_tag("s-trader-2")))
        .unwrap();
    publisher
        .publish(
            EventDraft::new()
                .public_part("type", Value::str("order"))
                .part(
                    "body",
                    Label::confidential(TagSet::singleton(tag)),
                    Value::Float(1.0),
                ),
        )
        .unwrap();
    engine.set_pull_mode(curious2, true).unwrap();
    engine
        .with_unit(curious2, |_, ctx| {
            ctx.subscribe(Filter::for_type("order"))?;
            Ok(())
        })
        .unwrap();
    handle.pump_until_idle().unwrap();
    let (event, _) = engine.poll_event(curious2).unwrap().expect("delivered");
    engine
        .with_unit(curious2, |_, ctx| {
            assert!(
                ctx.read_part(&event, "body").is_err(),
                "body must be hidden"
            );
            assert!(ctx.read_part(&event, "type").is_ok());
            Ok(())
        })
        .unwrap();
}

#[test]
fn integrity_subscription_requires_endorsed_events() {
    // A unit instantiated with read integrity {s} only perceives events published
    // with that integrity tag (the Pair Monitor rule, §6.1 step 2).
    let handle = started(SecurityMode::LabelsFreeze);
    let engine = handle.engine();

    let exchange = engine
        .register_unit(UnitSpec::new("exchange"), Box::new(NullUnit))
        .unwrap();
    let feed = engine.publisher(exchange).unwrap();
    // The exchange owns the integrity tag s and endorses its ticks with it.
    let s = feed
        .with_context(|ctx| Ok(ctx.create_owned_tag("i-exchange")))
        .unwrap();

    let (recorder, received, _) = Recorder::new(Filter::for_type("tick"));
    engine
        .register_unit(
            UnitSpec::new("monitor")
                .with_input_label(Label::endorsed(TagSet::singleton(s.clone()))),
            Box::new(recorder),
        )
        .unwrap();

    // An endorsed tick is delivered. The exchange must hold s in its output label
    // (the precondition for endorsing) and request the endorsed label for the part;
    // the contamination-independence transform I' = I ∩ I_out keeps the tag.
    feed.with_context(|ctx| {
        ctx.change_out_label(Component::Integrity, LabelOp::Add, &s)?;
        Ok(())
    })
    .unwrap();
    feed.publish(EventDraft::new().part(
        "type",
        Label::endorsed(TagSet::singleton(s.clone())),
        Value::str("tick"),
    ))
    .unwrap();
    // A forged tick from a unit without the integrity tag is not delivered.
    publish_public(engine, &[("type", Value::str("tick"))]);

    handle.pump_until_idle().unwrap();
    assert_eq!(received.load(Ordering::Relaxed), 1);
    assert!(engine.stats().label_rejections() >= 1);
}

#[test]
fn no_security_mode_skips_label_checks() {
    let handle = started(SecurityMode::NoSecurity);
    let engine = handle.engine();
    let (recorder, received, seen) = Recorder::new(Filter::for_type("order"));
    engine
        .register_unit(
            UnitSpec::new("observer"),
            Box::new(recorder.reading("body")),
        )
        .unwrap();

    let publisher_unit = engine
        .register_unit(UnitSpec::new("publisher"), Box::new(NullUnit))
        .unwrap();
    let publisher = engine.publisher(publisher_unit).unwrap();
    publisher
        .with_context(|ctx| {
            let t = ctx.create_owned_tag("secret");
            let draft = ctx.create_event();
            ctx.add_part(&draft, Label::public(), "type", Value::str("order"))?;
            ctx.add_part(
                &draft,
                Label::confidential(TagSet::singleton(t)),
                "body",
                Value::Float(7.0),
            )?;
            ctx.publish(draft)?;
            Ok(())
        })
        .unwrap();
    handle.pump_until_idle().unwrap();

    // Without security, the confidential body is visible to everyone.
    assert_eq!(received.load(Ordering::Relaxed), 1);
    assert_eq!(seen.lock().as_slice(), &[Value::Float(7.0)]);
}

#[test]
fn privilege_carrying_parts_bestow_privileges_on_read() {
    // A regulator-like unit gains t+ by reading a privilege-carrying part and can
    // then raise its input label to read the protected identity (§3.1.5).
    let handle = started(SecurityMode::LabelsFreeze);
    let engine = handle.engine();

    let trader = engine
        .register_unit(UnitSpec::new("trader"), Box::new(NullUnit))
        .unwrap();
    let regulator = engine
        .register_unit(UnitSpec::new("regulator"), Box::new(NullUnit))
        .unwrap();
    engine.set_pull_mode(regulator, true).unwrap();
    engine
        .with_unit(regulator, |_, ctx| {
            ctx.subscribe(Filter::for_type("trade"))?;
            Ok(())
        })
        .unwrap();

    let tag = engine
        .with_unit(trader, |_, ctx| {
            let t = ctx.create_owned_tag("t-order");
            let draft = ctx.create_event();
            ctx.add_part(&draft, Label::public(), "type", Value::str("trade"))?;
            ctx.add_part(
                &draft,
                Label::confidential(TagSet::singleton(t.clone())),
                "identity",
                Value::str("trader-77"),
            )?;
            // The grant part is public and carries t+ together with the tag itself.
            ctx.add_part(&draft, Label::public(), "grant", Value::Tag(t.id()))?;
            ctx.attach_privilege_to_part(
                &draft,
                "grant",
                Label::public(),
                Privilege::add(t.clone()),
            )?;
            ctx.publish(draft)?;
            Ok(t)
        })
        .unwrap();

    handle.pump_until_idle().unwrap();
    let (event, _) = engine.poll_event(regulator).unwrap().expect("delivered");

    engine
        .with_unit(regulator, |_, ctx| {
            // Before reading the grant, the identity is invisible.
            assert!(ctx.read_part(&event, "identity").is_err());
            assert!(!ctx.has_privilege(&tag, PrivilegeKind::Add));

            // Reading the grant part bestows t+ and hands over the tag reference.
            let grant = ctx.read_first(&event, "grant")?;
            assert_eq!(grant.as_tag(), Some(tag.id()));
            assert!(ctx.has_privilege(&tag, PrivilegeKind::Add));

            // Raising the input label (now permitted) reveals the identity.
            ctx.change_in_out_label(Component::Confidentiality, LabelOp::Add, &tag)?;
            let identity = ctx.read_first(&event, "identity")?;
            assert_eq!(identity.as_str(), Some("trader-77"));
            Ok(())
        })
        .unwrap();
}

#[test]
fn label_changes_require_privileges() {
    let engine = engine(SecurityMode::LabelsFreeze);
    let unit = engine
        .register_unit(UnitSpec::new("u"), Box::new(NullUnit))
        .unwrap();
    let foreign = Tag::with_name("foreign");
    engine
        .with_unit(unit, |_, ctx| {
            // No privilege over the foreign tag: both add and remove must fail.
            assert!(matches!(
                ctx.change_in_out_label(Component::Confidentiality, LabelOp::Add, &foreign),
                Err(EngineError::Defc(_))
            ));
            assert!(matches!(
                ctx.change_out_label(Component::Integrity, LabelOp::Add, &foreign),
                Err(EngineError::Defc(_))
            ));
            // Over an owned tag, changes succeed and are reflected in the state.
            let own = ctx.create_owned_tag("own");
            ctx.change_in_out_label(Component::Confidentiality, LabelOp::Add, &own)?;
            assert!(ctx.input_label().confidentiality().contains(&own));
            assert!(ctx.output_label().confidentiality().contains(&own));
            ctx.change_in_out_label(Component::Confidentiality, LabelOp::Remove, &own)?;
            assert!(ctx.input_label().is_public());
            Ok(())
        })
        .unwrap();
}

#[test]
fn contamination_independence_raises_part_labels() {
    // A unit whose output label carries tag d cannot write a public part: the tag is
    // transparently added (Table 1 footnote) — including for parts published through
    // the typed publisher handle.
    let handle = started(SecurityMode::LabelsFreeze);
    let engine = handle.engine();

    let publisher_unit = engine
        .register_unit(UnitSpec::new("publisher"), Box::new(NullUnit))
        .unwrap();
    let observer = engine
        .register_unit(UnitSpec::new("observer"), Box::new(NullUnit))
        .unwrap();
    engine.set_pull_mode(observer, true).unwrap();
    engine
        .with_unit(observer, |_, ctx| {
            ctx.subscribe(Filter::for_type("note"))?;
            Ok(())
        })
        .unwrap();

    let publisher = engine.publisher(publisher_unit).unwrap();
    publisher
        .with_context(|ctx| {
            let d = ctx.create_owned_tag("d");
            ctx.change_out_label(Component::Confidentiality, LabelOp::Add, &d)?;
            Ok(())
        })
        .unwrap();
    // The driver *asks* for a public label, but the part must come out tagged.
    publisher
        .publish(EventDraft::new().public_part("type", Value::str("note")))
        .unwrap();
    handle.pump_until_idle().unwrap();

    // The observer lacks tag d, so the filtered part is invisible and the event is
    // not delivered at all.
    assert!(engine.poll_event(observer).unwrap().is_none());
    assert!(engine.stats().label_rejections() >= 1);
}

#[test]
fn managed_subscription_keeps_owner_clean() {
    // A broker-like unit uses a managed subscription to process confidential orders
    // without permanently contaminating its own state.
    let handle = started(SecurityMode::LabelsFreeze);
    let engine = handle.engine();

    struct ManagedHandler {
        processed: Arc<AtomicU64>,
    }
    impl Unit for ManagedHandler {
        fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
            // The managed instance is contaminated enough to read the body.
            let body = ctx.read_first(event, "body")?;
            assert!(body.as_float().is_some());
            self.processed.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    struct Broker {
        processed: Arc<AtomicU64>,
    }
    impl Unit for Broker {
        fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
            let processed = Arc::clone(&self.processed);
            ctx.subscribe_managed(
                Box::new(move || {
                    Box::new(ManagedHandler {
                        processed: Arc::clone(&processed),
                    }) as Box<dyn Unit>
                }),
                Filter::for_type("order"),
            )?;
            Ok(())
        }
        fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
            panic!("the broker itself must never be invoked for managed deliveries");
        }
    }

    let processed = Arc::new(AtomicU64::new(0));
    let broker = engine
        .register_unit(
            UnitSpec::new("broker"),
            Box::new(Broker {
                processed: Arc::clone(&processed),
            }),
        )
        .unwrap();

    // Two traders publish orders under their own tags.
    for name in ["alice", "bob"] {
        let trader = engine
            .register_unit(UnitSpec::new(name), Box::new(NullUnit))
            .unwrap();
        let publisher = engine.publisher(trader).unwrap();
        let tag = publisher
            .with_context(|ctx| Ok(ctx.create_owned_tag(format!("s-{name}"))))
            .unwrap();
        publisher
            .publish(
                EventDraft::new()
                    .public_part("type", Value::str("order"))
                    .part(
                        "body",
                        Label::confidential(TagSet::singleton(tag)),
                        Value::Float(10.0),
                    ),
            )
            .unwrap();
    }
    handle.pump_until_idle().unwrap();

    assert_eq!(processed.load(Ordering::Relaxed), 2);
    // Two distinct contaminations -> two managed instances.
    assert_eq!(engine.stats().managed_instances(), 2);
    // The broker's own label is still public.
    let broker_state = engine.unit_state(broker).unwrap();
    assert!(broker_state.input_label.is_public());
}

#[test]
fn main_path_augmentation_is_visible_to_later_subscribers() {
    // Unit A (registered first) annotates orders with a "reason" part; unit B
    // (registered later) sees the annotation on the same event (§3.1.6).
    let handle = started(SecurityMode::LabelsFreeze);
    let engine = handle.engine();

    struct Annotator;
    impl Unit for Annotator {
        fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
            ctx.subscribe(Filter::for_type("order"))?;
            Ok(())
        }
        fn on_event(&mut self, ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
            ctx.add_part_to_current(Label::public(), "reason", Value::str("checked"))?;
            ctx.release();
            Ok(())
        }
    }

    engine
        .register_unit(UnitSpec::new("annotator"), Box::new(Annotator))
        .unwrap();
    let (recorder, received, seen) = Recorder::new(Filter::for_type("order"));
    engine
        .register_unit(
            UnitSpec::new("auditor"),
            Box::new(recorder.reading("reason")),
        )
        .unwrap();

    publish_public(engine, &[("type", Value::str("order"))]);
    handle.pump_until_idle().unwrap();

    assert_eq!(received.load(Ordering::Relaxed), 1);
    assert_eq!(seen.lock().as_slice(), &[Value::str("checked")]);
}

#[test]
fn clone_event_applies_output_label_and_new_identity() {
    let handle = started(SecurityMode::LabelsFreeze);
    let engine = handle.engine();
    let unit = engine
        .register_unit(UnitSpec::new("cloner"), Box::new(NullUnit))
        .unwrap();
    engine.set_pull_mode(unit, true).unwrap();
    engine
        .with_unit(unit, |_, ctx| {
            ctx.subscribe(Filter::for_type("copy"))?;
            Ok(())
        })
        .unwrap();

    engine
        .with_unit(unit, |_, ctx| {
            let d = ctx.create_owned_tag("d");
            ctx.change_out_label(Component::Confidentiality, LabelOp::Add, &d)?;
            let original = defcon_events::EventBuilder::new()
                .part("type", Label::public(), Value::str("copy"))
                .build()
                .unwrap();
            let clone = ctx.clone_event(&original);
            ctx.publish(clone)?;
            Ok(())
        })
        .unwrap();
    handle.pump_until_idle().unwrap();

    // The clone's parts now carry tag d, so the (untagged) subscription of the same
    // unit cannot see them — the event is filtered out.
    assert!(engine.poll_event(unit).unwrap().is_none());
}

#[test]
fn instantiate_unit_checks_delegation_and_inherits_contamination() {
    let engine = engine(SecurityMode::LabelsFreeze);
    let parent = engine
        .register_unit(UnitSpec::new("parent"), Box::new(NullUnit))
        .unwrap();

    let child = engine
        .with_unit(parent, |_, ctx| {
            let owned = ctx.create_owned_tag("owned");
            // Raise the parent's contamination; the child must inherit it.
            ctx.change_in_out_label(Component::Confidentiality, LabelOp::Add, &owned)?;

            // Delegating a privilege the parent cannot delegate fails.
            let foreign = Tag::with_name("foreign");
            let bad = UnitSpec::new("child-bad").with_privilege(Privilege::add(foreign));
            assert!(ctx.instantiate_unit(bad, Box::new(NullUnit)).is_err());

            // Delegating an owned privilege succeeds.
            let good = UnitSpec::new("child").with_privilege(Privilege::add(owned.clone()));
            let child = ctx.instantiate_unit(good, Box::new(NullUnit))?;
            Ok((child, owned))
        })
        .unwrap();

    let (child_id, owned) = child;
    let child_state = engine.unit_state(child_id).unwrap();
    assert!(child_state.input_label.confidentiality().contains(&owned));
    assert!(child_state.privileges.holds(&owned, PrivilegeKind::Add));
}

#[test]
fn empty_filters_and_empty_events_are_rejected() {
    let handle = started(SecurityMode::LabelsFreeze);
    let engine = handle.engine();
    let unit = engine
        .register_unit(UnitSpec::new("u"), Box::new(NullUnit))
        .unwrap();
    engine
        .with_unit(unit, |_, ctx| {
            assert!(matches!(
                ctx.subscribe(Filter::new()),
                Err(EngineError::EmptyFilter)
            ));
            // Publishing a draft without parts is dropped (returns false).
            let draft = ctx.create_event();
            assert!(!ctx.publish(draft)?);
            Ok(())
        })
        .unwrap();
    handle.pump_until_idle().unwrap();
    assert_eq!(engine.stats().published(), 0);
}

#[test]
fn all_security_modes_deliver_functional_events() {
    for mode in SecurityMode::all() {
        let handle = started(mode);
        let engine = handle.engine();
        let (recorder, received, seen) = Recorder::new(Filter::for_type("tick"));
        engine
            .register_unit(UnitSpec::new("r"), Box::new(recorder.reading("price")))
            .unwrap();
        publish_public(
            engine,
            &[("type", Value::str("tick")), ("price", Value::Float(3.5))],
        );
        handle.pump_until_idle().unwrap();
        assert_eq!(received.load(Ordering::Relaxed), 1, "mode {mode}");
        assert_eq!(seen.lock().as_slice(), &[Value::Float(3.5)], "mode {mode}");
    }
}

#[test]
fn pull_mode_get_event_blocks_until_delivery() {
    let handle = started(SecurityMode::LabelsFreeze);
    let engine = handle.engine();
    let unit = engine
        .register_unit(UnitSpec::new("puller"), Box::new(NullUnit))
        .unwrap();
    engine.set_pull_mode(unit, true).unwrap();
    engine
        .with_unit(unit, |_, ctx| {
            ctx.subscribe(Filter::for_type("tick"))?;
            Ok(())
        })
        .unwrap();

    // get_event without anything queued times out with None.
    let nothing = engine
        .get_event(unit, std::time::Duration::from_millis(10))
        .unwrap();
    assert!(nothing.is_none());

    publish_public(engine, &[("type", Value::str("tick"))]);
    handle.pump_until_idle().unwrap();
    let something = engine
        .get_event(unit, std::time::Duration::from_millis(100))
        .unwrap();
    assert!(something.is_some());

    // get_event on a unit not in pull mode is an invalid operation.
    let other = engine
        .register_unit(UnitSpec::new("other"), Box::new(NullUnit))
        .unwrap();
    assert!(matches!(
        engine.get_event(other, std::time::Duration::from_millis(1)),
        Err(EngineError::InvalidOperation(_))
    ));
}

#[test]
fn remove_unit_cleans_up_subscriptions() {
    let handle = started(SecurityMode::LabelsFreeze);
    let engine = handle.engine();
    let (recorder, received, _) = Recorder::new(Filter::for_type("tick"));
    let unit = engine
        .register_unit(UnitSpec::new("r"), Box::new(recorder))
        .unwrap();
    assert_eq!(engine.subscription_count(), 1);
    engine.remove_unit(unit).unwrap();
    assert_eq!(engine.subscription_count(), 0);
    publish_public(engine, &[("type", Value::str("tick"))]);
    handle.pump_until_idle().unwrap();
    assert_eq!(received.load(Ordering::Relaxed), 0);
    assert!(engine.remove_unit(unit).is_err());

    // Churn: remove an earlier-registered unit from a large population, then
    // register a new one. Order, augmentation reach and counts must hold.
    struct Stamper;
    impl Unit for Stamper {
        fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
            ctx.subscribe(Filter::for_type("tick"))?;
            Ok(())
        }
        fn on_event(&mut self, ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
            ctx.add_part_to_current(Label::public(), "audit", Value::str("stamped"))
        }
    }
    let subscribe_many = |unit, filter: Filter, count: usize| {
        engine
            .with_unit(unit, |_, ctx| {
                (0..count)
                    .map(|_| ctx.subscribe(filter.clone()))
                    .collect::<EngineResult<Vec<_>>>()
            })
            .unwrap()
    };
    let audited = || Filter::new().where_eq("audit", Value::str("stamped"));
    let register =
        |name: &str, unit: Box<dyn Unit>| engine.register_unit(UnitSpec::new(name), unit).unwrap();
    let early = register("early", Box::new(NullUnit));
    subscribe_many(early, Filter::for_type("tick"), 200);
    let (before, before_received, _) = Recorder::new(audited());
    register("auditor-before", Box::new(before));
    let survivor = register("survivor", Box::new(NullUnit));
    engine.set_pull_mode(survivor, true).unwrap();
    let mut survivor_subs = subscribe_many(survivor, Filter::for_type("tick"), 1);
    survivor_subs.extend(subscribe_many(
        survivor,
        Filter::new().where_exists("seq"),
        1,
    ));
    register("stamper", Box::new(Stamper));
    let (after, after_received, _) = Recorder::new(audited());
    register("auditor-after", Box::new(after));
    let filler = register("filler", Box::new(NullUnit));
    subscribe_many(filler, Filter::for_type("other"), 2_000);
    assert_eq!(engine.subscription_count(), 2_205);

    let source = register("source", Box::new(NullUnit));
    let publisher = engine.publisher(source).unwrap();
    let tick = |seq: i64| {
        publisher
            .publish(
                EventDraft::new()
                    .public_part("type", Value::str("tick"))
                    .public_part("seq", Value::Int(seq)),
            )
            .unwrap();
        handle.pump_until_idle().unwrap();
    };
    // A dispatch first, so the removal edits a table a snapshot still holds.
    tick(0);
    let memory_before = engine.memory_mib();
    engine.remove_unit(early).unwrap();
    assert_eq!(
        engine.subscription_count(),
        2_005,
        "tombstones are not counted"
    );
    let freed = memory_before - engine.memory_mib();
    let expected = (200 * 128) as f64 / (1024.0 * 1024.0);
    assert!(
        freed >= 0.9 * expected,
        "memory must drop by the removed subscriptions: {freed} MiB"
    );
    let (late, late_received, _) = Recorder::new(audited());
    register("late", Box::new(late));
    assert_eq!(engine.subscription_count(), 2_006);
    tick(1);
    tick(2);

    // The survivor's two subscriptions deliver each event in registration
    // order.
    let mut deliveries = Vec::new();
    while let Some((event, subscription)) = engine.poll_event(survivor).unwrap() {
        let seq = event.first_part("seq").unwrap().data().as_int().unwrap();
        deliveries.push((seq, subscription));
    }
    let expected: Vec<_> = (0..3)
        .flat_map(|seq| survivor_subs.iter().map(move |&sub| (seq, sub)))
        .collect();
    assert_eq!(deliveries, expected);
    // The stamper's released part reaches only subscriptions positioned after
    // it: never the earlier auditor, every event for the later one, and the
    // events published after it registered for the new unit.
    assert_eq!(before_received.load(Ordering::Relaxed), 0);
    assert_eq!(after_received.load(Ordering::Relaxed), 3);
    assert_eq!(late_received.load(Ordering::Relaxed), 2);
}

#[test]
fn memory_accounting_reflects_units() {
    let engine = engine(SecurityMode::LabelsFreeze);
    let unit_bytes = || engine.memory().bytes(MemoryCategory::UnitState);
    let before = engine.memory_mib();
    let units: Vec<_> = (0..50)
        .map(|i| {
            engine
                .register_unit(
                    UnitSpec::new(format!("unit-{i}-{}", "x".repeat(10_000))),
                    Box::new(NullUnit),
                )
                .unwrap()
        })
        .collect();
    let grown = engine.memory_mib();
    assert!(
        grown > before,
        "memory accounting must grow: {before} -> {grown}"
    );
    assert!(unit_bytes() >= 50 * 10_000);
    for unit in units {
        engine.remove_unit(unit).unwrap();
    }
    assert_eq!(unit_bytes(), 0, "removal releases every unit's state");
}

#[test]
fn unit_errors_are_isolated_and_counted() {
    struct Faulty;
    impl Unit for Faulty {
        fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
            ctx.subscribe(Filter::for_type("tick"))?;
            Ok(())
        }
        fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
            // Attempt to read a part that does not exist.
            ctx.read_part(event, "missing")?;
            Ok(())
        }
    }

    let handle = started(SecurityMode::LabelsFreeze);
    let engine = handle.engine();
    engine
        .register_unit(UnitSpec::new("faulty"), Box::new(Faulty))
        .unwrap();
    let (recorder, received, _) = Recorder::new(Filter::for_type("tick"));
    engine
        .register_unit(UnitSpec::new("healthy"), Box::new(recorder))
        .unwrap();

    publish_public(engine, &[("type", Value::str("tick"))]);
    handle.pump_until_idle().unwrap();

    assert_eq!(engine.stats().unit_errors(), 1);
    assert_eq!(
        received.load(Ordering::Relaxed),
        1,
        "other units still receive the event"
    );
}

// ---------------------------------------------------------------------------
// Concurrent dispatch: workers(4) over the sharded run queue. (Exactly-once
// delivery and per-unit serialisation over the full random grid of
// `(workers, batch_size, mode, publishers, events)` live in
// `tests/dispatch_properties.rs`; here only the label-check and lifecycle
// behaviours that need bespoke setups remain.)
// ---------------------------------------------------------------------------

#[test]
fn label_checks_hold_under_concurrent_dispatch() {
    const PUBLISHERS: u64 = 4;
    const EVENTS_EACH: u64 = 150;

    for mode in SecurityMode::all() {
        let engine = Engine::builder().mode(mode).workers(4).build();

        // A curious unit subscribes on the public type part and tries to read the
        // confidential body of every delivery.
        struct Curious {
            received: Arc<AtomicU64>,
            bodies_seen: Arc<AtomicU64>,
        }
        impl Unit for Curious {
            fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
                ctx.subscribe(Filter::for_type("order"))?;
                Ok(())
            }
            fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
                self.received.fetch_add(1, Ordering::SeqCst);
                if ctx.read_part(event, "body").is_ok() {
                    self.bodies_seen.fetch_add(1, Ordering::SeqCst);
                }
                Ok(())
            }
        }

        let received = Arc::new(AtomicU64::new(0));
        let bodies_seen = Arc::new(AtomicU64::new(0));
        engine
            .register_unit(
                UnitSpec::new("curious"),
                Box::new(Curious {
                    received: Arc::clone(&received),
                    bodies_seen: Arc::clone(&bodies_seen),
                }),
            )
            .unwrap();

        let sources: Vec<_> = (0..PUBLISHERS)
            .map(|i| {
                engine
                    .register_unit(UnitSpec::new(format!("trader-{i}")), Box::new(NullUnit))
                    .unwrap()
            })
            .collect();

        let handle = engine.start();
        let threads: Vec<_> = sources
            .iter()
            .enumerate()
            .map(|(i, &source)| {
                let publisher = handle.publisher(source).unwrap();
                std::thread::spawn(move || {
                    // Each driver confines its order bodies under its own tag.
                    let tag = publisher
                        .with_context(|ctx| Ok(ctx.create_owned_tag(format!("s-{i}"))))
                        .unwrap();
                    for _ in 0..EVENTS_EACH {
                        publisher
                            .publish(
                                EventDraft::new()
                                    .public_part("type", Value::str("order"))
                                    .part(
                                        "body",
                                        Label::confidential(TagSet::singleton(tag.clone())),
                                        Value::Float(1.0),
                                    ),
                            )
                            .unwrap();
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        handle.shutdown().unwrap();

        let published = PUBLISHERS * EVENTS_EACH;
        assert_eq!(received.load(Ordering::SeqCst), published, "mode {mode}");
        if mode.checks_labels() {
            assert_eq!(
                bodies_seen.load(Ordering::SeqCst),
                0,
                "mode {mode}: confidential bodies must stay hidden under contention"
            );
        } else {
            assert_eq!(
                bodies_seen.load(Ordering::SeqCst),
                published,
                "mode {mode}: without security every body is readable"
            );
        }
    }
}

#[test]
fn managed_eviction_under_workers_does_not_deadlock_or_leak() {
    // A tight managed-instance cap plus per-event tags forces constant handler
    // creation and eviction while four workers dispatch, and each managed
    // delivery calls instantiate_unit (cell -> units.write lock order) — the
    // combination that would deadlock if eviction locked cells while holding
    // the units registry.
    struct SpawningHandler {
        processed: Arc<AtomicU64>,
    }
    impl Unit for SpawningHandler {
        fn on_event(&mut self, ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
            ctx.instantiate_unit(UnitSpec::new("ephemeral"), Box::new(NullUnit))?;
            self.processed.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
    }

    struct Broker {
        processed: Arc<AtomicU64>,
    }
    impl Unit for Broker {
        fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
            let processed = Arc::clone(&self.processed);
            ctx.subscribe_managed(
                Box::new(move || {
                    Box::new(SpawningHandler {
                        processed: Arc::clone(&processed),
                    }) as Box<dyn Unit>
                }),
                Filter::for_type("order"),
            )?;
            Ok(())
        }
        fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
            Ok(())
        }
    }

    let engine = Engine::builder()
        .mode(SecurityMode::LabelsFreeze)
        .workers(4)
        .managed_instance_cap(4)
        .build();
    let processed = Arc::new(AtomicU64::new(0));
    engine
        .register_unit(
            UnitSpec::new("broker"),
            Box::new(Broker {
                processed: Arc::clone(&processed),
            }),
        )
        .unwrap();
    let sources: Vec<_> = (0..4)
        .map(|i| {
            engine
                .register_unit(UnitSpec::new(format!("trader-{i}")), Box::new(NullUnit))
                .unwrap()
        })
        .collect();

    let handle = engine.start();
    let threads: Vec<_> = sources
        .iter()
        .enumerate()
        .map(|(i, &source)| {
            let publisher = handle.publisher(source).unwrap();
            std::thread::spawn(move || {
                for n in 0..100u64 {
                    // A fresh tag per order: every event demands a new managed
                    // contamination, churning the capped instance registry.
                    let tag = publisher
                        .with_context(|ctx| Ok(ctx.create_owned_tag(format!("s-{i}-{n}"))))
                        .unwrap();
                    publisher
                        .publish(
                            EventDraft::new()
                                .public_part("type", Value::str("order"))
                                .part(
                                    "body",
                                    Label::confidential(TagSet::singleton(tag)),
                                    Value::Float(1.0),
                                ),
                        )
                        .unwrap();
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().unwrap();
    }
    let dispatched = handle.shutdown().unwrap();
    assert_eq!(dispatched, 400);
    assert_eq!(processed.load(Ordering::SeqCst), 400);
    // Eviction kept the registry bounded: 1 broker + 4 traders + at most the
    // capped handlers, plus the 400 ephemeral instantiations.
    assert!(
        engine.stats().managed_instances() >= 396,
        "one handler per contamination"
    );
}

#[test]
fn run_for_drives_dispatch_against_live_publishers() {
    let handle = Engine::builder().mode(SecurityMode::LabelsFreeze).start();
    let engine = handle.engine();
    let (recorder, received, _) = Recorder::new(Filter::for_type("tick"));
    engine
        .register_unit(UnitSpec::new("r"), Box::new(recorder))
        .unwrap();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();
    let publisher = handle.publisher(source).unwrap();

    let driver = std::thread::spawn(move || {
        for _ in 0..50 {
            publisher
                .publish(EventDraft::new().public_part("type", Value::str("tick")))
                .unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    // run_for keeps pumping while the driver publishes from another thread.
    while received.load(Ordering::Relaxed) < 50 {
        handle.run_for(Duration::from_millis(20)).unwrap();
    }
    driver.join().unwrap();
    assert_eq!(received.load(Ordering::Relaxed), 50);
    handle.shutdown().unwrap();
}

#[test]
fn shutdown_waits_for_cascading_publications() {
    // A relay republishes every tick as a "boom" event from inside dispatch;
    // shutdown must also drain the events published *during* the drain.
    struct Relay;
    impl Unit for Relay {
        fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
            ctx.subscribe(Filter::for_type("tick"))?;
            Ok(())
        }
        fn on_event(&mut self, ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
            let draft = ctx.create_event();
            ctx.add_part(&draft, Label::public(), "type", Value::str("boom"))?;
            ctx.publish(draft)?;
            Ok(())
        }
    }

    let engine = Engine::builder()
        .mode(SecurityMode::LabelsFreeze)
        .workers(4)
        .build();
    engine
        .register_unit(UnitSpec::new("relay"), Box::new(Relay))
        .unwrap();
    let (recorder, received, _) = Recorder::new(Filter::for_type("boom"));
    engine
        .register_unit(UnitSpec::new("sink"), Box::new(recorder))
        .unwrap();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();

    let handle = engine.start();
    let publisher = handle.publisher(source).unwrap();
    for _ in 0..200 {
        publisher
            .publish(EventDraft::new().public_part("type", Value::str("tick")))
            .unwrap();
    }
    let dispatched = handle.shutdown().unwrap();
    assert_eq!(dispatched, 400, "ticks plus relayed booms must both drain");
    assert_eq!(received.load(Ordering::Relaxed), 200);
}
