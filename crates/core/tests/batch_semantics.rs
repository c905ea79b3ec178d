//! Semantics of batched dispatch: turning on `batch_size(n)` changes how many
//! events a worker carries per run-queue visit — it must change nothing about
//! *what* is delivered. These tests pin exactly-once delivery, per-unit
//! serialisation and in-batch ordering at `workers(4) × batch_size(8)` across
//! all four security modes, plus the publish-batch-vs-shutdown race at the
//! engine level.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Duration;

use defcon_core::context::LabelOp;
use defcon_core::unit::NullUnit;
use defcon_core::{
    Engine, EngineError, EngineResult, EventDraft, SecurityMode, Unit, UnitContext, UnitSpec,
};
use defcon_defc::{Component, Label, Tag, TagSet};
use defcon_events::{Event, Filter, Value};

/// Counts deliveries and asserts it is never re-entered: batched dispatch must
/// keep per-unit delivery serialised.
struct SerialProbe {
    received: Arc<AtomicU64>,
    reentered: Arc<AtomicBool>,
    in_callback: AtomicBool,
}

impl Unit for SerialProbe {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("tick"))?;
        Ok(())
    }

    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        if self.in_callback.swap(true, Ordering::SeqCst) {
            self.reentered.store(true, Ordering::SeqCst);
        }
        self.received.fetch_add(1, Ordering::SeqCst);
        self.in_callback.store(false, Ordering::SeqCst);
        Ok(())
    }
}

fn tick_draft(n: i64) -> EventDraft {
    EventDraft::new()
        .public_part("type", Value::str("tick"))
        .public_part("n", Value::Int(n))
}

// The headline `workers(4) × batch_size(8)` exactly-once sweep was replaced
// by the random-configuration property test in `tests/dispatch_properties.rs`,
// which covers that point (and the rest of the grid) with the same
// assertions; what remains here are the batching-specific semantics.

/// A recording subscriber used for ordering assertions.
struct OrderProbe {
    seen: Arc<parking_lot::Mutex<Vec<i64>>>,
}

impl Unit for OrderProbe {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("tick"))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        if let Ok(versions) = ctx.read_part(event, "n") {
            if let Some((_, Value::Int(n))) = versions.into_iter().next() {
                self.seen.lock().push(*n);
            }
        }
        Ok(())
    }
}

/// With a single worker the queue is FIFO, and a `publish_batch` is queued in
/// draft order — so a subscriber must observe the exact
/// publication order even though events travel in batches of 8.
#[test]
fn publish_batch_order_is_preserved_with_a_single_worker() {
    for mode in SecurityMode::all() {
        let engine = Engine::builder()
            .mode(mode)
            .workers(1)
            .batch_size(8)
            .build();
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        engine
            .register_unit(
                UnitSpec::new("order-probe"),
                Box::new(OrderProbe {
                    seen: Arc::clone(&seen),
                }),
            )
            .unwrap();
        let source = engine
            .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
            .unwrap();

        let handle = engine.start();
        let publisher = engine.publisher(source).unwrap();
        const TOTAL: i64 = 20 * 8;
        for batch in 0..20 {
            let drafts = (0..8).map(|i| tick_draft(batch * 8 + i)).collect();
            let _ = publisher.publish_batch(drafts).unwrap();
        }
        handle.shutdown().unwrap();

        let seen = seen.lock();
        assert_eq!(
            *seen,
            (0..TOTAL).collect::<Vec<_>>(),
            "mode {mode}: single-worker batched dispatch must preserve publish order"
        );
    }
}

/// One entry of the global delivery log: which unit received which tick, and
/// whether the stamper's part was on it.
type Delivery = (&'static str, i64, bool);

/// Appends every tick it receives to a log shared by all units; with `stamp`
/// set it also adds a `stamp` part for the deliveries after it (§3.1.6).
struct Tracer {
    name: &'static str,
    stamp: bool,
    log: Arc<parking_lot::Mutex<Vec<Delivery>>>,
}

impl Unit for Tracer {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("tick"))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let n = ctx.read_first(event, "n")?.as_int().unwrap();
        let stamped = ctx.read_part(event, "stamp").is_ok();
        self.log.lock().push((self.name, n, stamped));
        if self.stamp {
            ctx.add_part_to_current(defcon_defc::Label::public(), "stamp", Value::Int(n))?;
        }
        Ok(())
    }
}

/// `batch_size(1)` (the default) and `batch_size(8)` must be observationally
/// identical on a deterministic single-threaded engine — batching is a carrier
/// change, not a semantics change. The comparison is the *global* delivery
/// sequence across units: each event reaches its subscribers in strict
/// subscription order, including a unit whose two subscriptions sit on either
/// side of other units', and a stamper's part reaches exactly the
/// subscriptions positioned after it.
#[test]
fn batch_size_does_not_change_single_threaded_results() {
    let run = |batch_size: usize| -> (u64, u64, Vec<Delivery>) {
        let engine = Engine::builder()
            .mode(SecurityMode::LabelsFreeze)
            .workers(0)
            .batch_size(batch_size)
            .build();
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let tracer = |name, stamp| {
            Box::new(Tracer {
                name,
                stamp,
                log: Arc::clone(&log),
            })
        };
        // Subscription positions: split, stamper, plain, split again.
        let split = engine
            .register_unit(UnitSpec::new("split"), tracer("split", false))
            .unwrap();
        engine
            .register_unit(UnitSpec::new("stamper"), tracer("stamper", true))
            .unwrap();
        engine
            .register_unit(UnitSpec::new("plain"), tracer("plain", false))
            .unwrap();
        engine
            .with_unit(split, |_, ctx| ctx.subscribe(Filter::for_type("tick")))
            .unwrap();
        let source = engine
            .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
            .unwrap();
        let handle = engine.start();
        let publisher = engine.publisher(source).unwrap();
        for batch in 0..10 {
            let drafts = (0..7).map(|i| tick_draft(batch * 7 + i)).collect();
            let _ = publisher.publish_batch(drafts).unwrap();
        }
        handle.pump_until_idle().unwrap();
        let stats = (
            engine.stats().dispatched(),
            engine.stats().deliveries(),
            log.lock().clone(),
        );
        handle.shutdown().unwrap();
        stats
    };

    let one = run(1);
    let expected: Vec<Delivery> = (0..70)
        .flat_map(|n| {
            [
                ("split", n, false),
                ("stamper", n, false),
                ("plain", n, true),
                ("split", n, true),
            ]
        })
        .collect();
    assert_eq!(one, (70, 280, expected));
    assert_eq!(run(8), one);
}

/// The batch snapshot semantics and their escape hatch: dispatch observes each
/// subscriber's security state as snapshotted when its batch began, so a unit
/// raising its own label *during* a delivery does not affect the visibility
/// checks of later events in the same batch. `batch_size(1)` is the documented
/// escape hatch — every event is its own batch, so every dispatch re-reads the
/// owner state and mid-batch label changes become observable immediately.
#[test]
fn batch_size_one_makes_mid_batch_label_changes_observable() {
    use defcon_defc::Privilege;

    /// Raises its own input label (it holds `tag+`) when it sees a trigger
    /// event; counts every delivery it receives.
    struct Chameleon {
        tag: Tag,
        delivered: Arc<AtomicU64>,
    }

    impl Unit for Chameleon {
        fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
            ctx.subscribe(Filter::for_type("tick"))?;
            Ok(())
        }

        fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
            self.delivered.fetch_add(1, Ordering::SeqCst);
            if ctx.read_part(event, "trigger").is_ok() {
                ctx.change_in_out_label(Component::Confidentiality, LabelOp::Add, &self.tag)?;
            }
            Ok(())
        }
    }

    let run = |batch_size: usize| -> u64 {
        let engine = Engine::builder()
            .mode(SecurityMode::LabelsFreeze)
            .batch_size(batch_size)
            .build();
        let source = engine
            .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
            .unwrap();
        let publisher = engine.publisher(source).unwrap();
        let tag = publisher
            .with_context(|ctx| Ok(ctx.create_owned_tag("s-secret")))
            .unwrap();
        let delivered = Arc::new(AtomicU64::new(0));
        engine
            .register_unit(
                UnitSpec::new("chameleon").with_privilege(Privilege::add(tag.clone())),
                Box::new(Chameleon {
                    tag: tag.clone(),
                    delivered: Arc::clone(&delivered),
                }),
            )
            .unwrap();

        let handle = engine.start();
        // One batch: a public trigger (on which the chameleon raises its own
        // input label) followed by an event whose filtered part is
        // confidential under the tag the raise would make visible.
        let _ = publisher
            .publish_batch(vec![
                EventDraft::new()
                    .public_part("type", Value::str("tick"))
                    .public_part("trigger", Value::Int(1)),
                EventDraft::new().part(
                    "type",
                    Label::confidential(TagSet::singleton(tag.clone())),
                    Value::str("tick"),
                ),
            ])
            .unwrap();
        handle.pump_until_idle().unwrap();
        let seen = delivered.load(Ordering::SeqCst);
        handle.shutdown().unwrap();
        seen
    };

    assert_eq!(
        run(8),
        1,
        "with both events in one batch, the second is checked against the \
         batch-start snapshot: the mid-batch raise is not observed"
    );
    assert_eq!(
        run(1),
        2,
        "batch_size(1) re-snapshots per event: the raise is observable by the \
         very next dispatch"
    );
}

/// The engine-level batch-straddles-stop race: batches racing `shutdown` are
/// accepted whole or rejected whole, and the accepted count exactly matches
/// what reaches the subscriber. Nothing is lost, nothing is duplicated and
/// the engine always settles idle.
#[test]
fn publish_batch_racing_shutdown_is_exact() {
    for round in 0..20 {
        let engine = Engine::builder()
            .mode(SecurityMode::LabelsFreeze)
            .workers(2)
            .batch_size(4)
            .build();
        let received = Arc::new(AtomicU64::new(0));
        let reentered = Arc::new(AtomicBool::new(false));
        engine
            .register_unit(
                UnitSpec::new("probe"),
                Box::new(SerialProbe {
                    received: Arc::clone(&received),
                    reentered: Arc::clone(&reentered),
                    in_callback: AtomicBool::new(false),
                }),
            )
            .unwrap();
        let source = engine
            .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
            .unwrap();

        let handle = engine.start();
        let publisher = engine.publisher(source).unwrap();
        let accepted = Arc::new(AtomicUsize::new(0));
        let driver = {
            let accepted = Arc::clone(&accepted);
            std::thread::spawn(move || {
                for batch in 0..50i64 {
                    let drafts = (0..4).map(|i| tick_draft(batch * 4 + i)).collect();
                    match publisher.publish_batch(drafts) {
                        // A batch is queued whole or refused whole.
                        Ok(admission) => {
                            assert_eq!((admission.accepted(), admission.shed()), (4, 0));
                            accepted.fetch_add(admission.accepted(), Ordering::SeqCst);
                        }
                        // The runtime shut down underneath us: rejected loudly,
                        // nothing enqueued from this call onwards.
                        Err(_) => return,
                    }
                }
            })
        };
        if round % 2 == 0 {
            std::thread::yield_now();
        }
        handle.shutdown().unwrap();
        driver.join().unwrap();

        assert_eq!(
            received.load(Ordering::SeqCst) as usize,
            accepted.load(Ordering::SeqCst),
            "round {round}: accepted events are delivered exactly once, rejected ones never"
        );
        assert_eq!(engine.queue_depth(), 0, "round {round}");
    }
}

/// A delivery log shared by several units.
type Log<T> = Arc<parking_lot::Mutex<Vec<T>>>;

/// Publishes one event from inside a delivery, with public parts only.
fn publish_public(ctx: &mut UnitContext<'_>, parts: &[(&str, Value)]) -> EngineResult<()> {
    let draft = ctx.create_event();
    for (name, value) in parts {
        ctx.add_part(&draft, Label::public(), *name, value.clone())?;
    }
    ctx.publish(draft)?;
    Ok(())
}

/// The ways [`run_roots`] drives a cascade, as `(workers, wait)`. Without
/// `wait` the one worker dispatches it at `workers(1)`, and shutdown's final
/// drain on the calling thread at `workers(0)`. With `wait` the thread
/// waiting in `wait_idle` dispatches it at `workers(0)`, and at `workers(1)`
/// whenever it takes the slot before the woken worker does; it holds the one
/// slot meanwhile, so nothing spills to the parked worker. The orders pinned
/// below hold whichever thread dispatches.
const DRIVES: [(usize, bool); 4] = [(0, false), (1, false), (0, true), (1, true)];

/// Runs `roots` as one publish batch through an engine at `workers(workers)`
/// and `batch_size(8)`, with the units `setup` registers, waits in
/// `wait_idle` if `wait` is set, and returns what `shutdown` reports
/// dispatched (see [`DRIVES`]).
fn run_roots(
    (workers, wait): (usize, bool),
    setup: impl FnOnce(&Engine),
    roots: Vec<EventDraft>,
) -> u64 {
    let engine = Engine::builder()
        .mode(SecurityMode::LabelsFreeze)
        .workers(workers)
        .batch_size(8)
        .build();
    setup(&engine);
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();
    let handle = engine.start();
    let count = roots.len();
    let publisher = engine.publisher(source).unwrap();
    assert_eq!(publisher.publish_batch(roots).unwrap().accepted(), count);
    if wait {
        assert!(handle.wait_idle(Duration::from_secs(30)));
    }
    handle.shutdown().unwrap()
}

fn root(n: i64) -> EventDraft {
    EventDraft::new()
        .public_part("type", Value::str("r"))
        .public_part("n", Value::Int(n))
}

/// Logs each `listen` event as `<listen><n>` and republishes it as one
/// `emit` event with the same `n`.
struct Hop {
    listen: &'static str,
    emit: Option<&'static str>,
    log: Log<String>,
}

impl Unit for Hop {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type(self.listen))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let n = ctx.read_first(event, "n")?.as_int().unwrap();
        self.log.lock().push(format!("{}{n}", self.listen));
        if let Some(emit) = self.emit {
            publish_public(ctx, &[("type", Value::str(emit)), ("n", Value::Int(n))])?;
        }
        Ok(())
    }
}

/// Cascades run depth-first, in preorder: each root's whole chain r → a → b
/// is dispatched before the next root of the same popped batch.
#[test]
fn cascades_are_dispatched_in_preorder_before_the_next_root() {
    for (workers, wait) in DRIVES {
        let log: Log<String> = Arc::default();
        let setup = |engine: &Engine| {
            for (listen, emit) in [("r", Some("a")), ("a", Some("b")), ("b", None)] {
                let hop = Hop {
                    listen,
                    emit,
                    log: Arc::clone(&log),
                };
                engine
                    .register_unit(UnitSpec::new(listen), Box::new(hop))
                    .unwrap();
            }
        };
        let dispatched = run_roots((workers, wait), setup, vec![root(1), root(2)]);
        assert_eq!(
            *log.lock(),
            ["r1", "a1", "b1", "r2", "a2", "b2"],
            "workers({workers}), wait {wait}"
        );
        assert_eq!(
            dispatched, 6,
            "workers({workers}), wait {wait}: cascades are counted"
        );
    }
}

/// At `workers(1)` a thread dispatching in `wait_idle` holds the one slot,
/// so the parked worker takes none of its cascades: they stay on its stack,
/// in preorder. Each round's worker wake-up races the waiting thread for the
/// slot, so there are many rounds: the waiting thread wins most of them, and
/// the order must hold whichever thread wins.
#[test]
fn a_waiting_thread_keeps_its_cascades_in_preorder_at_one_worker() {
    const ROUNDS: i64 = 100;
    let engine = Engine::builder()
        .mode(SecurityMode::LabelsFreeze)
        .workers(1)
        .batch_size(8)
        .build();
    let log: Log<String> = Arc::default();
    for (listen, emit) in [("r", Some("a")), ("a", Some("b")), ("b", None)] {
        let hop = Hop {
            listen,
            emit,
            log: Arc::clone(&log),
        };
        engine
            .register_unit(UnitSpec::new(listen), Box::new(hop))
            .unwrap();
    }
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();
    let handle = engine.start();
    let publisher = engine.publisher(source).unwrap();
    let mut expected = Vec::new();
    for round in 0..ROUNDS {
        let (first, second) = (2 * round, 2 * round + 1);
        let admission = publisher.publish_batch(vec![root(first), root(second)]);
        assert_eq!(admission.unwrap().accepted(), 2);
        assert!(handle.wait_idle(Duration::from_secs(30)));
        for n in [first, second] {
            expected.extend(["r", "a", "b"].map(|hop| format!("{hop}{n}")));
        }
    }
    assert_eq!(*log.lock(), expected);
    assert_eq!(handle.shutdown().unwrap(), 6 * ROUNDS as u64);
}

/// Publishes two `p` events per delivery of a root or an echo, numbered by
/// one running sequence; `depth` is 0 for a root's pair, 1 for an echo's.
struct Pairs {
    next: i64,
}

impl Unit for Pairs {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("r"))?;
        ctx.subscribe(Filter::for_type("echo"))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let depth = i64::from(ctx.read_first(event, "type")?.as_str() == Some("echo"));
        for _ in 0..2 {
            let parts = [
                ("type", Value::str("p")),
                ("seq", Value::Int(self.next)),
                ("depth", Value::Int(depth)),
            ];
            publish_public(ctx, &parts)?;
            self.next += 1;
        }
        Ok(())
    }
}

/// Answers the first `p` of each root's pair with an `echo`: `Pairs` is
/// re-entered in that event's subtree while the pair's second event is still
/// stacked, which pure preorder would let overtake it.
struct Echo;

impl Unit for Echo {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("p"))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let seq = ctx.read_first(event, "seq")?.as_int().unwrap();
        let depth = ctx.read_first(event, "depth")?.as_int().unwrap();
        if depth == 0 && seq % 2 == 0 {
            publish_public(ctx, &[("type", Value::str("echo"))])?;
        }
        Ok(())
    }
}

/// Logs the `seq` of every `p` it receives.
struct SeqLog {
    log: Log<i64>,
}

impl Unit for SeqLog {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("p"))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let seq = ctx.read_first(event, "seq")?.as_int().unwrap();
        self.log.lock().push(seq);
        Ok(())
    }
}

/// A unit's cascades reach every subscriber in publication order: across
/// its deliveries, two publications per delivery, and when it is re-entered
/// in an earlier sibling's subtree.
#[test]
fn each_publishers_cascades_arrive_in_publication_order() {
    for (workers, wait) in DRIVES {
        let (first, second): (Log<i64>, Log<i64>) = Default::default();
        let setup = |engine: &Engine| {
            let seq_log = |log: &Log<i64>| {
                Box::new(SeqLog {
                    log: Arc::clone(log),
                })
            };
            engine
                .register_unit(UnitSpec::new("pairs"), Box::new(Pairs { next: 0 }))
                .unwrap();
            engine
                .register_unit(UnitSpec::new("first"), seq_log(&first))
                .unwrap();
            engine
                .register_unit(UnitSpec::new("echo"), Box::new(Echo))
                .unwrap();
            engine
                .register_unit(UnitSpec::new("second"), seq_log(&second))
                .unwrap();
        };
        let dispatched = run_roots((workers, wait), setup, (1..=3).map(root).collect());
        // Per root: the root, its pair, one echo and the echo's pair.
        assert_eq!(dispatched, 3 * 6, "workers({workers}), wait {wait}");
        let published: Vec<i64> = (0..12).collect();
        assert_eq!(*first.lock(), published, "workers({workers}), wait {wait}");
        assert_eq!(*second.lock(), published, "workers({workers}), wait {wait}");
    }
}

/// Instantiates a `Child` per root and publishes a `poke` for it: odd roots
/// poke first, even roots instantiate first.
struct Spawner {
    log: Log<(i64, i64)>,
}

impl Unit for Spawner {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("r"))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let n = ctx.read_first(event, "n")?.as_int().unwrap();
        let poke = [("type", Value::str("poke")), ("n", Value::Int(n))];
        if n % 2 == 1 {
            publish_public(ctx, &poke)?;
        }
        let child = Child {
            n,
            log: Arc::clone(&self.log),
        };
        ctx.instantiate_unit(UnitSpec::new(format!("child-{n}")), Box::new(child))?;
        if n % 2 == 0 {
            publish_public(ctx, &poke)?;
        }
        Ok(())
    }
}

/// Publishes its root's `c` event 0 from `init` and `c` event 1 on its
/// `poke`; logs every `c` event of its root as `(root, seq)`.
struct Child {
    n: i64,
    log: Log<(i64, i64)>,
}

impl Child {
    fn publish_c(&self, ctx: &mut UnitContext<'_>, seq: i64) -> EngineResult<()> {
        let parts = [
            ("type", Value::str("c")),
            ("n", Value::Int(self.n)),
            ("seq", Value::Int(seq)),
        ];
        publish_public(ctx, &parts)
    }
}

impl Unit for Child {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("poke").where_eq("n", self.n))?;
        ctx.subscribe(Filter::for_type("c").where_eq("n", self.n))?;
        self.publish_c(ctx, 0)
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        if ctx.read_first(event, "type")?.as_str() == Some("poke") {
            return self.publish_c(ctx, 1);
        }
        let seq = ctx.read_first(event, "seq")?.as_int().unwrap();
        self.log.lock().push((self.n, seq));
        Ok(())
    }
}

/// A unit instantiated mid-dispatch publishes from `init` as a cascade of
/// its own: that bootstrap event reaches subscribers before what the unit
/// republishes later in the same cascade, whichever of the instantiation
/// and the event that makes the unit republish comes first.
#[test]
fn init_events_of_a_unit_created_mid_dispatch_keep_publication_order() {
    for (workers, wait) in DRIVES {
        let log: Log<(i64, i64)> = Arc::default();
        let setup = |engine: &Engine| {
            let spawner = Spawner {
                log: Arc::clone(&log),
            };
            engine
                .register_unit(UnitSpec::new("spawner"), Box::new(spawner))
                .unwrap();
        };
        // Per root: the root, its poke and the child's two `c` events.
        assert_eq!(run_roots((workers, wait), setup, vec![root(1), root(2)]), 8);
        assert_eq!(
            *log.lock(),
            [(1, 0), (1, 1), (2, 0), (2, 1)],
            "workers({workers}), wait {wait}"
        );
    }
}

/// Instantiates a unit whose `init` publishes a `c` event and then fails.
struct FailedSpawner;

impl Unit for FailedSpawner {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("r"))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        ctx.instantiate_unit(UnitSpec::new("stillborn"), Box::new(Stillborn))?;
        Ok(())
    }
}

struct Stillborn;

impl Unit for Stillborn {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        publish_public(ctx, &[("type", Value::str("c"))])?;
        Err(EngineError::InvalidOperation("init fails".into()))
    }

    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        Ok(())
    }
}

/// A unit whose `init` fails mid-dispatch is not registered, and what that
/// `init` published before failing is dropped, not dispatched.
#[test]
fn a_unit_whose_init_fails_mid_dispatch_publishes_nothing() {
    for (workers, wait) in DRIVES {
        let setup = |engine: &Engine| {
            engine
                .register_unit(UnitSpec::new("spawner"), Box::new(FailedSpawner))
                .unwrap();
        };
        assert_eq!(
            run_roots((workers, wait), setup, vec![root(1)]),
            1,
            "workers({workers}), wait {wait}"
        );
    }
}

/// Raises its own input label by a tag it owns when a root arrives, then
/// publishes a `tick` whose type part is confidential under that tag; counts
/// every `tick` it receives.
struct Raiser {
    tag: Option<Tag>,
    ticks: Arc<AtomicU64>,
}

impl Unit for Raiser {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        self.tag = Some(ctx.create_owned_tag("s-raised"));
        ctx.subscribe(Filter::for_type("r"))?;
        ctx.subscribe(Filter::for_type("tick"))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let tag = self.tag.clone().unwrap();
        if ctx.read_first(event, "type")?.as_str() == Some("tick") {
            self.ticks.fetch_add(1, Ordering::SeqCst);
            return Ok(());
        }
        ctx.change_in_out_label(Component::Confidentiality, LabelOp::Add, &tag)?;
        let draft = ctx.create_event();
        let secret = Label::confidential(TagSet::singleton(tag));
        ctx.add_part(&draft, secret, "type", Value::str("tick"))?;
        ctx.publish(draft)?;
        Ok(())
    }
}

/// Stacked events are dispatched against a context re-validated against the
/// security epoch: a label an ancestor raised decides its descendants'
/// visibility, though the popped batch's snapshot predates the raise.
#[test]
fn stacked_cascades_see_an_ancestors_label_change() {
    for (workers, wait) in DRIVES {
        let ticks = Arc::new(AtomicU64::new(0));
        let setup = |engine: &Engine| {
            let raiser = Raiser {
                tag: None,
                ticks: Arc::clone(&ticks),
            };
            engine
                .register_unit(UnitSpec::new("raiser"), Box::new(raiser))
                .unwrap();
        };
        assert_eq!(run_roots((workers, wait), setup, vec![root(1)]), 2);
        assert_eq!(
            ticks.load(Ordering::SeqCst),
            1,
            "workers({workers}), wait {wait}: the raised label must make the cascade visible"
        );
    }
}

/// Publishes `WORK` work events per root, each naming its root.
struct Fan;

const WORK: i64 = 16;

impl Unit for Fan {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("r"))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let n = ctx.read_first(event, "n")?;
        for _ in 0..WORK {
            publish_public(ctx, &[("type", Value::str("work")), ("n", n.clone())])?;
        }
        Ok(())
    }
}

/// Each root's work events by the threads they were delivered on.
type Threads = Arc<parking_lot::Mutex<HashMap<i64, HashSet<ThreadId>>>>;

/// Takes a while per work event and records the thread it ran on.
struct SlowSink {
    threads: Threads,
}

impl Unit for SlowSink {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("work"))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let root = ctx.read_first(event, "n")?.as_int().unwrap();
        std::thread::sleep(Duration::from_millis(2));
        let thread = std::thread::current().id();
        self.threads.lock().entry(root).or_default().insert(thread);
        Ok(())
    }
}

/// While a sibling worker is parked, a dispatch's cascade block goes to the
/// shared queue instead of the dispatcher's stack, so the idle worker takes
/// part of it: one root fanning out into slow deliveries keeps both workers
/// of a `workers(2)` engine busy.
#[test]
fn a_parked_worker_takes_spilled_cascades() {
    let engine = Engine::builder()
        .mode(SecurityMode::LabelsFreeze)
        .workers(2)
        .batch_size(1)
        .build();
    let threads = Threads::default();
    engine
        .register_unit(UnitSpec::new("fan"), Box::new(Fan))
        .unwrap();
    engine
        .register_unit(
            UnitSpec::new("sink"),
            Box::new(SlowSink {
                threads: Arc::clone(&threads),
            }),
        )
        .unwrap();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();
    let handle = engine.start();
    let publisher = engine.publisher(source).unwrap();
    // The other worker must be parked when the root's dispatch ends; one
    // still starting up is given further roots.
    let spread = || threads.lock().values().any(|seen| seen.len() == 2);
    let mut roots = 0;
    while roots < 10 && !spread() {
        std::thread::sleep(Duration::from_millis(50));
        publisher.publish(root(roots)).unwrap();
        roots += 1;
        assert!(handle.wait_idle(Duration::from_secs(10)));
    }
    assert!(spread(), "one root's deliveries ran on both workers");
    assert_eq!(handle.shutdown().unwrap(), roots as u64 * (1 + WORK as u64));
}
