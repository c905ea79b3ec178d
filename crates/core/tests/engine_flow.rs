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
    Engine, EngineError, EngineHandle, EngineResult, EventDraft, SecurityMode, SubscriptionId,
    Unit, UnitContext, UnitId, UnitSpec,
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
                self.seen.lock().push(value.clone());
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
    let (event, _) = engine
        .get_event(curious2, Duration::ZERO)
        .unwrap()
        .expect("delivered");
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
    let (event, _) = engine
        .get_event(regulator, Duration::ZERO)
        .unwrap()
        .expect("delivered");

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
    assert!(engine
        .get_event(observer, Duration::ZERO)
        .unwrap()
        .is_none());
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
            // The managed handler is contaminated enough to read the body.
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
    // One managed delivery per order.
    assert_eq!(engine.stats().managed_deliveries(), 2);
    // The broker's own label is still public.
    let broker_state = engine.unit_state(broker).unwrap();
    assert!(broker_state.input_label.is_public());
}

/// What a [`LawProbe`] saw in one managed delivery.
struct ManagedView {
    /// Whether a field set by an earlier delivery's handler was still set.
    carried: bool,
    input: Label,
    event_label: Label,
    output: Label,
    unit: UnitId,
    holds_owner_tag: bool,
    /// Whether the handler still held a privilege an earlier handler created.
    holds_earlier_tag: bool,
}

#[derive(Default)]
struct LawLog {
    views: Vec<ManagedView>,
    handler_tags: Vec<Tag>,
}

/// A managed handler that records its security state, then changes it: it
/// sets a field, creates a tag and raises its output label with it.
struct LawProbe {
    owner_tag: Tag,
    touched: bool,
    log: Arc<parking_lot::Mutex<LawLog>>,
}

impl Unit for LawProbe {
    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let mut log = self.log.lock();
        let holds_earlier_tag = log
            .handler_tags
            .iter()
            .any(|tag| ctx.has_privilege(tag, PrivilegeKind::AddAuthority));
        log.views.push(ManagedView {
            carried: self.touched,
            input: ctx.input_label(),
            event_label: event.overall_label(),
            output: ctx.output_label(),
            unit: ctx.unit_id(),
            holds_owner_tag: ctx.has_privilege(&self.owner_tag, PrivilegeKind::Add),
            holds_earlier_tag,
        });
        self.touched = true;
        let mine = ctx.create_owned_tag("handler");
        ctx.change_out_label(Component::Confidentiality, LabelOp::Add, &mine)?;
        log.handler_tags.push(mine);
        Ok(())
    }
}

/// The managed-delivery law, in every mode: each delivery's handler starts
/// from the owner's snapshot raised to the event's contamination, runs under
/// the owner's id, and leaves nothing behind — not in the next handler, not
/// in the owner, not in the unit registry.
#[test]
fn managed_deliveries_run_at_the_owners_state_and_keep_nothing() {
    struct Owner {
        owner_tag: Tag,
        log: Arc<parking_lot::Mutex<LawLog>>,
    }
    impl Unit for Owner {
        fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
            let owner_tag = self.owner_tag.clone();
            let log = Arc::clone(&self.log);
            ctx.subscribe_managed(
                Box::new(move || {
                    Box::new(LawProbe {
                        owner_tag: owner_tag.clone(),
                        touched: false,
                        log: Arc::clone(&log),
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

    for mode in SecurityMode::all() {
        let handle = started(mode);
        let engine = handle.engine();
        let owner_tag = Tag::with_name("owner");
        let owner_input = Label::confidential(TagSet::singleton(owner_tag.clone()));
        let owner_output = Label::endorsed(TagSet::singleton(owner_tag.clone()));
        let log = Arc::new(parking_lot::Mutex::new(LawLog::default()));
        let owner = engine
            .register_unit(
                UnitSpec::new("owner")
                    .with_input_label(owner_input.clone())
                    .with_output_label(owner_output.clone())
                    .with_privilege(Privilege::add(owner_tag.clone())),
                Box::new(Owner {
                    owner_tag: owner_tag.clone(),
                    log: Arc::clone(&log),
                }),
            )
            .unwrap();
        let feed = engine
            .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
            .unwrap();
        let feed = engine.publisher(feed).unwrap();
        let units = engine.unit_count();

        // Every order under a tag of its own: a contamination of its own.
        for n in 0..3 {
            let tag = feed
                .with_context(|ctx| Ok(ctx.create_owned_tag(format!("order-{n}"))))
                .unwrap();
            feed.publish(
                EventDraft::new()
                    .public_part("type", Value::str("order"))
                    .part(
                        "body",
                        Label::confidential(TagSet::singleton(tag)),
                        Value::Int(n),
                    ),
            )
            .unwrap();
        }
        handle.pump_until_idle().unwrap();

        let log = log.lock();
        assert_eq!(log.views.len(), 3, "mode {mode}");
        assert_eq!(engine.stats().managed_deliveries(), 3, "mode {mode}");
        for view in &log.views {
            assert!(!view.carried, "mode {mode}: a handler field outlived it");
            let expected_input = if mode.checks_labels() {
                owner_input.join(&view.event_label)
            } else {
                owner_input.clone()
            };
            assert_eq!(view.input, expected_input, "mode {mode}");
            assert_eq!(view.output, owner_output, "mode {mode}");
            assert_eq!(view.unit, owner, "mode {mode}");
            assert!(view.holds_owner_tag, "mode {mode}");
            assert!(
                !view.holds_earlier_tag,
                "mode {mode}: a handler privilege outlived it"
            );
        }
        if mode.checks_labels() {
            assert!(log.views.windows(2).all(|w| w[0].input != w[1].input));
        }
        let state = engine.unit_state(owner).unwrap();
        assert_eq!(state.input_label, owner_input, "mode {mode}");
        assert_eq!(state.output_label, owner_output, "mode {mode}");
        assert!(state.privileges.holds(&owner_tag, PrivilegeKind::Add));
        for tag in &log.handler_tags {
            assert!(
                !state.privileges.holds(tag, PrivilegeKind::AddAuthority),
                "mode {mode}: a handler privilege reached the owner"
            );
        }
        assert_eq!(engine.unit_count(), units, "mode {mode}");
    }
}

/// A managed handler runs under its owner's id at a higher contamination, so
/// it may not edit its owner's subscription set: `subscribe`,
/// `subscribe_managed` and `unsubscribe` are refused. Its errors and panics
/// are counted like any unit's.
#[test]
fn managed_handlers_cannot_edit_their_owners_subscriptions() {
    type Refusals = Arc<parking_lot::Mutex<Vec<[bool; 3]>>>;
    struct Meddler {
        target: Arc<parking_lot::Mutex<Option<SubscriptionId>>>,
        refusals: Refusals,
    }
    impl Unit for Meddler {
        fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
            let refused =
                |result: EngineResult<()>| matches!(result, Err(EngineError::InvalidOperation(_)));
            let target = self.target.lock().expect("the owner subscribed");
            self.refusals.lock().push([
                refused(ctx.subscribe(Filter::for_type("note")).map(drop)),
                refused(
                    ctx.subscribe_managed(
                        Box::new(|| Box::new(NullUnit) as Box<dyn Unit>),
                        Filter::for_type("note"),
                    )
                    .map(drop),
                ),
                refused(ctx.unsubscribe(target)),
            ]);
            if ctx.read_part(event, "panic").is_ok() {
                panic!("a handler panic is a unit panic");
            }
            ctx.unsubscribe(target)
        }
    }
    struct Owner {
        target: Arc<parking_lot::Mutex<Option<SubscriptionId>>>,
        refusals: Refusals,
    }
    impl Unit for Owner {
        fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
            let target = Arc::clone(&self.target);
            let refusals = Arc::clone(&self.refusals);
            let id = ctx.subscribe_managed(
                Box::new(move || {
                    Box::new(Meddler {
                        target: Arc::clone(&target),
                        refusals: Arc::clone(&refusals),
                    }) as Box<dyn Unit>
                }),
                Filter::for_type("order"),
            )?;
            *self.target.lock() = Some(id);
            Ok(())
        }
        fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
            Ok(())
        }
    }

    for mode in SecurityMode::all() {
        let handle = started(mode);
        let engine = handle.engine();
        let refusals = Refusals::default();
        engine
            .register_unit(
                UnitSpec::new("owner"),
                Box::new(Owner {
                    target: Arc::default(),
                    refusals: Arc::clone(&refusals),
                }),
            )
            .unwrap();
        let subscriptions = engine.subscription_count();
        publish_public(engine, &[("type", Value::str("order"))]);
        publish_public(
            engine,
            &[("type", Value::str("order")), ("panic", Value::Bool(true))],
        );
        handle.pump_until_idle().unwrap();

        assert_eq!(*refusals.lock(), [[true; 3]; 2], "mode {mode}");
        assert_eq!(engine.subscription_count(), subscriptions, "mode {mode}");
        assert_eq!(engine.stats().managed_deliveries(), 2, "mode {mode}");
        assert_eq!(engine.stats().unit_errors(), 2, "mode {mode}");
        assert_eq!(engine.queue_stats().unit_panics, 1, "mode {mode}");
        assert_eq!(engine.stats().engine_errors(), 0, "mode {mode}");
    }
}

#[test]
fn main_path_augmentation_is_visible_to_later_subscribers() {
    // Two annotators (registered first) add "reason" parts to each order; an
    // auditor (registered last) sees them on the same event (§3.1.6). Each
    // unit holds two subscriptions, so each delivers as a same-unit run of
    // two. The first annotator releases between its two parts, the second
    // never releases: either way every part reaches the auditor once, in the
    // order it was added.
    struct Annotator {
        name: &'static str,
        release: bool,
        deliveries: u64,
    }
    impl Unit for Annotator {
        fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
            ctx.subscribe(Filter::for_type("order"))?;
            ctx.subscribe(Filter::for_type("order"))?;
            Ok(())
        }
        fn on_event(&mut self, ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
            self.deliveries += 1;
            let n = self.deliveries;
            let tag = self.name;
            ctx.add_part_to_current(Label::public(), "reason", Value::str(format!("{tag}{n}a")))?;
            if self.release {
                ctx.release();
            }
            ctx.add_part_to_current(Label::public(), "reason", Value::str(format!("{tag}{n}b")))?;
            Ok(())
        }
    }

    struct Auditor {
        seen: Arc<parking_lot::Mutex<Vec<Vec<Value>>>>,
    }
    impl Unit for Auditor {
        fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
            ctx.subscribe(Filter::for_type("order"))?;
            ctx.subscribe(Filter::for_type("order"))?;
            Ok(())
        }
        fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
            let reasons = ctx.read_part(event, "reason")?;
            self.seen.lock().push(
                reasons
                    .into_iter()
                    .map(|(_, value)| value.clone())
                    .collect(),
            );
            Ok(())
        }
    }

    let expected: Vec<Value> = ["A1a", "A1b", "A2a", "A2b", "B1a", "B1b", "B2a", "B2b"]
        .into_iter()
        .map(Value::str)
        .collect();
    for workers in [0, 1] {
        let engine = Engine::builder()
            .mode(SecurityMode::LabelsFreeze)
            .workers(workers)
            .build();
        for (name, release) in [("A", true), ("B", false)] {
            let annotator = Annotator {
                name,
                release,
                deliveries: 0,
            };
            engine
                .register_unit(UnitSpec::new(name), Box::new(annotator))
                .unwrap();
        }
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let auditor = Auditor {
            seen: Arc::clone(&seen),
        };
        engine
            .register_unit(UnitSpec::new("auditor"), Box::new(auditor))
            .unwrap();
        let handle = engine.start();
        publish_public(handle.engine(), &[("type", Value::str("order"))]);
        assert_eq!(handle.shutdown().unwrap(), 1, "workers({workers})");

        assert_eq!(
            seen.lock().as_slice(),
            &[expected.clone(), expected.clone()],
            "workers({workers})"
        );
    }
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
    assert!(engine.get_event(unit, Duration::ZERO).unwrap().is_none());
}

#[test]
fn del_part_removes_only_parts_with_a_matching_label() {
    // Table 1's `delPart(e, S, I, name)` removes the draft's parts that carry
    // `name` under exactly that label; a same-named part under another label
    // stays.
    let handle = started(SecurityMode::LabelsFreeze);
    let engine = handle.engine();
    let secret = Label::confidential(TagSet::singleton(Tag::with_name("t")));
    let elsewhere = Label::confidential(TagSet::singleton(Tag::with_name("u")));
    let reader = engine
        .register_unit(
            UnitSpec::new("reader").with_input_label(secret.clone()),
            Box::new(NullUnit),
        )
        .unwrap();
    engine.set_pull_mode(reader, true).unwrap();
    engine
        .with_unit(reader, |_, ctx| {
            ctx.subscribe(Filter::for_type("memo"))?;
            Ok(())
        })
        .unwrap();
    let writer = engine
        .register_unit(UnitSpec::new("writer"), Box::new(NullUnit))
        .unwrap();
    engine
        .with_unit(writer, |_, ctx| {
            let draft = ctx.create_event();
            ctx.add_part(&draft, Label::public(), "type", Value::str("memo"))?;
            ctx.add_part(&draft, Label::public(), "note", Value::Int(1))?;
            ctx.add_part(&draft, secret.clone(), "note", Value::Int(2))?;
            ctx.del_part(&draft, elsewhere.clone(), "note")?;
            ctx.del_part(&draft, Label::public(), "note")?;
            ctx.publish(draft)
        })
        .unwrap();
    handle.pump_until_idle().unwrap();

    let (event, _) = engine
        .get_event(reader, Duration::ZERO)
        .unwrap()
        .expect("delivered");
    let notes: Vec<_> = event.parts_named("note").collect();
    assert_eq!(notes.len(), 1, "{event:?}");
    assert_eq!(notes[0].label(), &secret);
    assert_eq!(notes[0].data(), &Value::Int(2));
}

#[test]
fn draft_kept_past_its_callback_is_unknown_in_the_next() {
    // A draft handle outlives the callback that created it. Publishing it in a
    // later callback must not publish that callback's own draft.
    let handle = started(SecurityMode::LabelsFreeze);
    let engine = handle.engine();
    let unit = engine
        .register_unit(UnitSpec::new("keeper"), Box::new(NullUnit))
        .unwrap();
    engine.set_pull_mode(unit, true).unwrap();
    engine
        .with_unit(unit, |_, ctx| {
            ctx.subscribe(Filter::for_type("note"))?;
            Ok(())
        })
        .unwrap();

    let stale = engine
        .with_unit(unit, |_, ctx| Ok(ctx.create_event()))
        .unwrap();
    let outcome = engine
        .with_unit(unit, |_, ctx| {
            let fresh = ctx.create_event();
            ctx.add_part(&fresh, Label::public(), "type", Value::str("note"))?;
            Ok(ctx.publish(stale))
        })
        .unwrap();
    handle.pump_until_idle().unwrap();

    assert!(
        matches!(outcome, Err(EngineError::UnknownDraft(_))),
        "{outcome:?}"
    );
    assert!(engine.get_event(unit, Duration::ZERO).unwrap().is_none());
    assert_eq!(engine.stats().deliveries(), 0);
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

/// Values are immutable, so every mode but `labels+clone` hands a unit the
/// publisher's storage; `labels+clone` hands it an equal deep copy.
#[test]
fn clone_mode_copies_published_data_and_other_modes_share_it() {
    let symbol_at = |value: &Value| {
        let symbol = value.as_map().and_then(|map| map.get("symbol"));
        symbol.and_then(Value::as_str).unwrap().as_ptr()
    };
    for mode in SecurityMode::all() {
        let handle = started(mode);
        let engine = handle.engine();
        let (recorder, _, seen) = Recorder::new(Filter::for_type("tick"));
        engine
            .register_unit(UnitSpec::new("r"), Box::new(recorder.reading("body")))
            .unwrap();
        let body = Value::Map([("symbol", Value::str("MSFT"))].into_iter().collect());
        publish_public(
            engine,
            &[("type", Value::str("tick")), ("body", body.clone())],
        );
        handle.pump_until_idle().unwrap();

        let seen = seen.lock();
        assert_eq!(seen.as_slice(), std::slice::from_ref(&body), "mode {mode}");
        let shares = mode != SecurityMode::LabelsClone;
        assert_eq!(
            symbol_at(&seen[0]) == symbol_at(&body),
            shares,
            "mode {mode}"
        );
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

/// `get_event` follows its unit: a waiter parked before a swap receives an
/// event delivered after it (the swap moved the mailbox to a new slot), and
/// a waiter whose unit is removed gets `UnknownUnit` at once instead of
/// sleeping out its timeout.
#[test]
fn get_event_waits_across_a_swap_and_ends_at_a_removal() {
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
    // The pause lets each waiter park before the swap or removal it waits
    // through; the assertions hold however the threads interleave.
    let pause = || std::thread::sleep(Duration::from_millis(100));
    std::thread::scope(|scope| {
        let waiter = scope.spawn(|| engine.get_event(unit, Duration::from_secs(3)));
        pause();
        engine.swap_unit(unit, Box::new(NullUnit)).unwrap();
        pause();
        publish_public(engine, &[("type", Value::str("tick"))]);
        handle.pump_until_idle().unwrap();
        let received = waiter.join().unwrap().unwrap();
        assert!(
            received.is_some(),
            "the event delivered after the swap reaches the waiter"
        );

        let waiter = scope.spawn(|| {
            let start = std::time::Instant::now();
            (
                engine.get_event(unit, Duration::from_secs(3)),
                start.elapsed(),
            )
        });
        pause();
        engine.remove_unit(unit).unwrap();
        let (result, waited) = waiter.join().unwrap();
        assert!(
            matches!(result, Err(EngineError::UnknownUnit(_))),
            "{result:?}"
        );
        assert!(waited < Duration::from_secs(2), "waited {waited:?}");
    });
    handle.shutdown().unwrap();
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
    while let Some((event, subscription)) = engine.get_event(survivor, Duration::ZERO).unwrap() {
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

/// Every delivery of a test as `(unit name, seq)`, in delivery order.
type DeliveryLog = Arc<parking_lot::Mutex<Vec<(&'static str, i64)>>>;

/// Logs each delivery into a shared [`DeliveryLog`], reading `seq` straight
/// off the event; with `add_body` it also adds a public `body` part to the
/// event on the main dataflow path.
struct Tally {
    name: &'static str,
    filter: Option<Filter>,
    add_body: bool,
    log: DeliveryLog,
}

impl Tally {
    fn new(name: &'static str, filter: Option<Filter>, log: &DeliveryLog) -> Self {
        Tally {
            name,
            filter,
            add_body: false,
            log: Arc::clone(log),
        }
    }
}

impl Unit for Tally {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        if let Some(filter) = &self.filter {
            ctx.subscribe(filter.clone())?;
        }
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let seq = event.first_part("seq").unwrap().data().as_int().unwrap();
        self.log.lock().push((self.name, seq));
        if self.add_body {
            ctx.add_part_to_current(Label::public(), "body", Value::str("stamped"))?;
        }
        Ok(())
    }
}

/// Serves `filter` through a managed subscription whose handlers are
/// [`Tally`]s named `name`. The factory panics on its first `panics`
/// calls.
struct ManagedTally {
    name: &'static str,
    filter: Filter,
    panics: u64,
    log: DeliveryLog,
}

impl Unit for ManagedTally {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        let (name, log) = (self.name, Arc::clone(&self.log));
        let panics = AtomicU64::new(self.panics);
        ctx.subscribe_managed(
            Box::new(move || {
                let remaining = panics.load(Ordering::Relaxed);
                if remaining > 0 {
                    panics.store(remaining - 1, Ordering::Relaxed);
                    panic!("handler factory fault");
                }
                Box::new(Tally::new(name, None, &log)) as Box<dyn Unit>
            }),
            self.filter.clone(),
        )?;
        Ok(())
    }

    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        panic!("the owner of a managed subscription is never delivered to");
    }
}

#[test]
fn equal_filters_are_evaluated_once_and_charged_as_often_as_they_occur() {
    // Eight subscriptions, seven of them on one filter over a public type and
    // a body only `s` may see: public and `s` owners alike, one managed
    // (which ignores confidentiality), and a stamper in the middle that adds
    // a public body. Per event, evaluating each subscription on its own:
    //
    //   pub1  public       type ok, secret body hidden      1 reject
    //   sec1  {s}          type ok, body seen          ->   delivered
    //   pub2  public       as pub1                          1 reject
    //   mgd   public, managed  body seen               ->   delivered
    //   stamp public  (type == tick)                   ->   delivered, +1 add
    //   pub3  public       body hidden, stamped body   ->   delivered, 1 reject
    //   sec2  {s}          type ok, secret body seen   ->   delivered
    //   pub4  public       as pub3                     ->   delivered, 1 reject
    //
    // that is 4 label rejections and 6 deliveries per event, in that
    // order, out of 8 index candidates, of which pub1 and pub2 fail the
    // exact match. The shared filter's memo must reproduce exactly
    // this: pub2 repeats pub1's rejection, and the stamper's part flips
    // pub3 and pub4, which pub1's remembered verdict must not answer.
    let handle = Engine::builder()
        .mode(SecurityMode::LabelsFreezeIsolation)
        .workers(0)
        .batch_size(8)
        .start();
    let engine = handle.engine();
    let log = DeliveryLog::default();
    let source = engine
        .register_unit(UnitSpec::new("source"), Box::new(NullUnit))
        .unwrap();
    let feed = engine.publisher(source).unwrap();
    let s = feed
        .with_context(|ctx| Ok(ctx.create_owned_tag("s")))
        .unwrap();
    let secret = Label::confidential(TagSet::singleton(s));
    let body_filter = || Filter::for_type("tick").where_exists("body");
    let register = |spec: UnitSpec, unit: Box<dyn Unit>| {
        engine.register_unit(spec, unit).unwrap();
    };
    let tally = |name: &'static str, input: &Label| {
        register(
            UnitSpec::new(name).with_input_label(input.clone()),
            Box::new(Tally::new(name, Some(body_filter()), &log)),
        );
    };
    let public = Label::public();
    tally("pub1", &public);
    tally("sec1", &secret);
    tally("pub2", &public);
    register(
        UnitSpec::new("mgd"),
        Box::new(ManagedTally {
            name: "mgd",
            filter: body_filter(),
            panics: 0,
            log: Arc::clone(&log),
        }),
    );
    let mut stamper = Tally::new("stamp", Some(Filter::for_type("tick")), &log);
    stamper.add_body = true;
    register(UnitSpec::new("stamp"), Box::new(stamper));
    tally("pub3", &public);
    tally("sec2", &secret);
    tally("pub4", &public);

    for seq in 0..2 {
        feed.publish(
            EventDraft::new()
                .public_part("type", Value::str("tick"))
                .part("body", secret.clone(), Value::Int(seq))
                .public_part("seq", Value::Int(seq)),
        )
        .unwrap();
    }
    assert_eq!(handle.pump_until_idle().unwrap(), 2);

    let order = ["sec1", "mgd", "stamp", "pub3", "sec2", "pub4"];
    let expected: Vec<_> = (0..2)
        .flat_map(|seq| order.iter().map(move |&name| (name, seq)))
        .collect();
    assert_eq!(*log.lock(), expected);
    assert_eq!(engine.stats().label_rejections(), 2 * 4);
    assert_eq!(engine.stats().deliveries(), 2 * 6);
    let stats = engine.queue_stats();
    assert_eq!(stats.index_candidates, 2 * 8);
    assert_eq!(stats.index_exact_rejects, 2 * 2);
}

#[test]
fn manual_pumping_survives_an_engine_fault_mid_batch() {
    // A handler factory panic unwinds past the per-delivery isolation: an
    // engine fault. The manual pump must count it and go on with the rest of
    // the popped batch, exactly as a worker does.
    let handle = Engine::builder()
        .mode(SecurityMode::LabelsFreeze)
        .workers(0)
        .batch_size(8)
        .start();
    let engine = handle.engine();
    let log = DeliveryLog::default();
    engine
        .register_unit(
            UnitSpec::new("broker"),
            Box::new(ManagedTally {
                name: "handler",
                filter: Filter::for_type("tick"),
                panics: 1,
                log: Arc::clone(&log),
            }),
        )
        .unwrap();
    let source = engine
        .register_unit(UnitSpec::new("source"), Box::new(NullUnit))
        .unwrap();
    let feed = engine.publisher(source).unwrap();
    for seq in 0..8 {
        feed.publish(
            EventDraft::new()
                .public_part("type", Value::str("tick"))
                .public_part("seq", Value::Int(seq)),
        )
        .unwrap();
    }
    assert_eq!(handle.pump_until_idle().unwrap(), 8);
    assert_eq!(engine.stats().engine_errors(), 1);
    let delivered: Vec<_> = (1..8).map(|seq| ("handler", seq)).collect();
    assert_eq!(*log.lock(), delivered);
}

// ---------------------------------------------------------------------------
// Concurrent dispatch: workers(4) over the run queue. (Exactly-once
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
                let publisher = engine.publisher(source).unwrap();
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
fn managed_handlers_instantiating_units_under_workers_register_only_the_children() {
    // Per-event tags give every order its own contamination while four
    // workers dispatch, and each managed delivery calls instantiate_unit,
    // which takes units.write() from inside a delivery. The handlers
    // themselves register nothing: the registry ends with the broker, the
    // four traders and the 400 children.
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
            let publisher = engine.publisher(source).unwrap();
            std::thread::spawn(move || {
                for n in 0..100u64 {
                    // A fresh tag per order: every event demands a new managed
                    // contamination.
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
    assert_eq!(engine.stats().managed_deliveries(), 400);
    assert_eq!(engine.unit_count(), 1 + 4 + 400);
}

#[test]
fn wait_idle_drives_dispatch_against_live_publishers() {
    let handle = Engine::builder().mode(SecurityMode::LabelsFreeze).start();
    let engine = handle.engine();
    let (recorder, received, _) = Recorder::new(Filter::for_type("tick"));
    engine
        .register_unit(UnitSpec::new("r"), Box::new(recorder))
        .unwrap();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();
    let publisher = engine.publisher(source).unwrap();

    let driver = std::thread::spawn(move || {
        for _ in 0..50 {
            publisher
                .publish(EventDraft::new().public_part("type", Value::str("tick")))
                .unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    // wait_idle dispatches on this thread while the driver publishes from
    // another.
    while received.load(Ordering::Relaxed) < 50 {
        assert!(handle.wait_idle(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(1));
    }
    driver.join().unwrap();
    assert_eq!(received.load(Ordering::Relaxed), 50);
    handle.shutdown().unwrap();
}

/// Republishes every tick as a "boom" event from inside dispatch.
struct BoomRelay;

impl Unit for BoomRelay {
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

#[test]
fn shutdown_waits_for_cascading_publications() {
    // Shutdown must also drain the events published *during* the drain.
    let engine = Engine::builder()
        .mode(SecurityMode::LabelsFreeze)
        .workers(4)
        .build();
    engine
        .register_unit(UnitSpec::new("relay"), Box::new(BoomRelay))
        .unwrap();
    let (recorder, received, _) = Recorder::new(Filter::for_type("boom"));
    engine
        .register_unit(UnitSpec::new("sink"), Box::new(recorder))
        .unwrap();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();

    let handle = engine.start();
    let publisher = engine.publisher(source).unwrap();
    for _ in 0..200 {
        publisher
            .publish(EventDraft::new().public_part("type", Value::str("tick")))
            .unwrap();
    }
    let dispatched = handle.shutdown().unwrap();
    assert_eq!(dispatched, 400, "ticks plus relayed booms must both drain");
    assert_eq!(received.load(Ordering::Relaxed), 200);
}

/// With no workers, the thread waiting in `wait_idle` is the one that
/// dispatches: it drains a queued tick and the cascade the tick publishes,
/// returns `true` well within its timeout, and `shutdown` counts both events.
#[test]
fn wait_idle_drains_a_cascade_without_workers() {
    let handle = Engine::builder()
        .mode(SecurityMode::LabelsFreeze)
        .workers(0)
        .start();
    let engine = handle.engine();
    engine
        .register_unit(UnitSpec::new("relay"), Box::new(BoomRelay))
        .unwrap();
    let (recorder, received, _) = Recorder::new(Filter::for_type("boom"));
    engine
        .register_unit(UnitSpec::new("sink"), Box::new(recorder))
        .unwrap();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();
    engine
        .publisher(source)
        .unwrap()
        .publish(EventDraft::new().public_part("type", Value::str("tick")))
        .unwrap();
    assert_eq!(engine.queue_depth(), 1);

    let timeout = Duration::from_secs(30);
    let start = std::time::Instant::now();
    assert!(
        handle.wait_idle(timeout),
        "the waiting thread drains the queue"
    );
    assert!(start.elapsed() < timeout / 2, "no waiting out the timeout");
    assert_eq!(received.load(Ordering::Relaxed), 1, "the cascade ran");
    assert_eq!(engine.queue_depth(), 0);
    assert_eq!(handle.shutdown().unwrap(), 2, "tick and boom are counted");
}

/// The termination law, swept over dispatch batch sizes {1, 8, 64}: a relay
/// republishes every tick as a "boom" from inside dispatch while a publisher
/// thread floods ticks and `shutdown()` races it. Shutdown drains every
/// accepted tick *and* the boom each one publishes during the drain, cuts the
/// racing publisher off loudly, and rejects late single and batched publishes.
#[test]
fn mid_burst_shutdown_drains_cascades_and_rejects_late_publishes_loudly() {
    let tick = || EventDraft::new().public_part("type", Value::str("tick"));
    for batch_size in [1usize, 8, 64] {
        let engine = Engine::builder()
            .mode(SecurityMode::LabelsFreeze)
            .workers(4)
            .batch_size(batch_size)
            .build();
        engine
            .register_unit(UnitSpec::new("relay"), Box::new(BoomRelay))
            .unwrap();
        let (recorder, received, _) = Recorder::new(Filter::for_type("boom"));
        engine
            .register_unit(UnitSpec::new("sink"), Box::new(recorder))
            .unwrap();
        let source = engine
            .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
            .unwrap();

        let handle = engine.start();
        let publisher = engine.publisher(source).unwrap();
        for _ in 0..200 {
            publisher.publish(tick()).unwrap();
        }

        // Far more ticks than can drain before the shutdown below, so the
        // racer is always cut off mid-burst. It returns how many of its ticks
        // were accepted and whether the runtime refused the rest.
        let (started, first_accepted) = std::sync::mpsc::channel();
        let racer = std::thread::spawn(move || {
            let burst = batch_size.max(8);
            let mut accepted = 0u64;
            for _ in 0..2_000_000 / burst {
                match publisher.publish_batch((0..burst).map(|_| tick()).collect()) {
                    Ok(admission) => {
                        assert_eq!((admission.accepted(), admission.shed()), (burst, 0));
                        accepted += burst as u64;
                        let _ = started.send(());
                    }
                    Err(_) => return (accepted, true),
                }
            }
            (accepted, false)
        });
        first_accepted.recv().unwrap();
        let dispatched = handle.shutdown().unwrap();
        let (raced, refused) = racer.join().unwrap();

        assert!(
            refused,
            "batch {batch_size}: shutdown must cut the racing publisher off loudly"
        );
        let accepted = 200 + raced;
        assert_eq!(
            dispatched,
            2 * accepted,
            "batch {batch_size}: accepted ticks plus relayed booms must both drain"
        );
        assert_eq!(
            received.load(Ordering::Relaxed),
            accepted,
            "batch {batch_size}: one boom per accepted tick, none lost to shutdown"
        );
        assert_eq!(engine.queue_depth(), 0, "batch {batch_size}");

        let late = engine.publisher(source).unwrap();
        let result = late.publish(tick());
        assert!(
            matches!(result, Err(EngineError::InvalidOperation(_))),
            "batch {batch_size}: late publish must be rejected loudly, got {result:?}"
        );
        let result = late.publish_batch(vec![tick()]);
        assert!(
            matches!(result, Err(EngineError::InvalidOperation(_))),
            "batch {batch_size}: late batch publish must be rejected loudly, got {result:?}"
        );
        assert_eq!(
            engine.queue_depth(),
            0,
            "batch {batch_size}: nothing lingers"
        );
    }
}
