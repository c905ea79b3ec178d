//! Property tests of the subscription index: for any subscription population,
//! event stream and runtime configuration, dispatch planned through the
//! inverted index must deliver *exactly* what a linear walk over every live
//! subscription delivers. That walk is written here, in the test, as the
//! reference.
//!
//! Each case generates a population of subscribers over random filters
//! (string and integer equality, two-equality conjunctions, `OneOf`,
//! existence, numeric range and inequality clauses — the index's value-keyed
//! fast path, its choice between keys, and every name-bucket fallback). In
//! half the cases every filter, churn included, comes from a small pool, so
//! equal filters recur across owners, across public and secret input labels
//! and across direct and managed subscriptions — the cases the dispatcher's
//! filter memo must tell apart; in the other half each filter is drawn
//! fresh. It adds a random event
//! stream over a small part-name vocabulary, whose lane is sometimes secret,
//! a random churn of the population between bursts of that stream (units
//! registered with one to three subscriptions, single unsubscribes, unit
//! removals — the index's in-place maintenance, its tombstones and its
//! compacting rebuilds), and a random runtime configuration (workers, batch
//! size, all four [`SecurityMode`]s). The workload runs on the engine, and
//! every event is also walked against the population live when it is
//! published: each live subscription expects the event once when its filter
//! matches the parts its owner may see. Every subscriber's multiset of
//! received sequence numbers must equal the walk's. Since the walk is ground
//! truth, equality pins both directions at once: no false negatives (the
//! candidate set is a superset of the matches) and no false positives
//! surviving the exact filter.
//!
//! The pinned test below covers the augmentation edge the random sweep keeps
//! out of the way: a filter naming a part that only exists once an earlier
//! delivery releases it must match when positioned after that delivery, and
//! never when positioned before it, at any batch size.

use std::sync::{Arc, Mutex};

use std::time::Duration;

use defcon_core::unit::NullUnit;
use defcon_core::{
    Engine, EngineHandle, EngineResult, EventDraft, SecurityMode, SubscriptionId, Unit,
    UnitContext, UnitId, UnitSpec,
};
use defcon_defc::{Label, TagSet};
use defcon_events::{Event, Filter, Part, Predicate, Value};
use proptest::prelude::*;

/// Deterministic xorshift64* generator, so each proptest case expands one
/// seed into a full population/stream reproducibly.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

const LANES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
const TYPES: [&str; 2] = ["tick", "trade"];

/// One random filter: one or two draws across every predicate shape the
/// index treats differently (value-keyed string and integer equality and
/// `OneOf`, name-bucketed everything else), one of which adds two equality
/// clauses at once so the index must pick the more selective key.
fn random_filter(rng: &mut Rng) -> Filter {
    let mut filter = Filter::new();
    let clauses = 1 + rng.below(2);
    for _ in 0..clauses {
        filter = match rng.below(8) {
            0 => filter.where_eq("lane", Value::str(LANES[rng.below(4) as usize])),
            1 => {
                let first = LANES[rng.below(4) as usize].to_string();
                let second = LANES[rng.below(4) as usize].to_string();
                filter.where_part("lane", Predicate::OneOf(vec![first, second]))
            }
            2 => filter.where_exists("flag"),
            3 => filter.where_part("price", Predicate::GreaterThan(rng.below(100) as f64)),
            4 => filter.where_part("price", Predicate::LessThan(rng.below(100) as f64)),
            5 => filter.where_part(
                "lane",
                Predicate::NotEquals(Value::str(LANES[rng.below(4) as usize])),
            ),
            6 => filter.where_eq("bucket", Value::Int(rng.below(4) as i64)),
            _ => filter
                .where_eq("type", Value::str(TYPES[rng.below(2) as usize]))
                .where_eq("lane", Value::str(LANES[rng.below(4) as usize])),
        };
    }
    filter
}

/// What a recorder subscribes with: filters drawn from the case's pool, a
/// public or secret input label, and direct or managed delivery.
#[derive(Clone)]
struct Profile {
    filters: Vec<Filter>,
    secret_input: bool,
    managed: bool,
}

/// A profile of `count` filters drawn from `pool`, or fresh random filters
/// when `pool` is empty.
fn random_profile(rng: &mut Rng, pool: &[Filter], count: u64) -> Profile {
    Profile {
        filters: (0..count)
            .map(|_| match pool.len() as u64 {
                0 => random_filter(rng),
                len => pool[rng.below(len) as usize].clone(),
            })
            .collect(),
        secret_input: rng.below(2) == 0,
        managed: rng.below(3) == 0,
    }
}

/// One random event draft: always a type, a lane, a price, a bucket and a
/// unique sequence number; sometimes a flag (so existence clauses
/// discriminate). The bucket is usually an integer and sometimes the string
/// spelling of one, which an integer-equality clause must never match. The
/// lane is sometimes `secret`, which only secret and managed owners see.
fn random_draft(rng: &mut Rng, seq: i64, secret: &Label) -> EventDraft {
    let bucket = match rng.below(5) {
        0 => Value::str(rng.below(4).to_string()),
        _ => Value::Int(rng.below(4) as i64),
    };
    let lane_label = match rng.below(3) {
        0 => secret.clone(),
        _ => Label::public(),
    };
    let mut draft = EventDraft::new()
        .public_part("type", Value::str(TYPES[rng.below(2) as usize]))
        .part("lane", lane_label, Value::str(LANES[rng.below(4) as usize]))
        .public_part("price", Value::Float(rng.below(100) as f64))
        .public_part("bucket", bucket)
        .public_part("seq", Value::Int(seq));
    if rng.below(2) == 0 {
        draft = draft.public_part("flag", Value::Bool(true));
    }
    draft
}

/// What one recorder received, what the linear reference expects it to
/// receive, and what the reference walks: the subscriptions it still holds,
/// each with its filter, its input label and whether it subscribed managed.
struct Log {
    seen: Vec<i64>,
    expected: Vec<i64>,
    subscriptions: Vec<(SubscriptionId, Filter)>,
    input: Label,
    managed: bool,
}

/// Records the sequence numbers of every event delivered through any of its
/// filters (an event matching two of them is recorded twice). Managed
/// subscriptions deliver to handler instances that record into the same log.
struct Recorder {
    filters: Vec<Filter>,
    managed: bool,
    log: Arc<Mutex<Log>>,
}

impl Unit for Recorder {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        for filter in &self.filters {
            let id = if self.managed {
                let log = Arc::clone(&self.log);
                let handler = move || {
                    Box::new(Recorder {
                        filters: Vec::new(),
                        managed: false,
                        log: Arc::clone(&log),
                    }) as Box<dyn Unit>
                };
                ctx.subscribe_managed(Box::new(handler), filter.clone())?
            } else {
                ctx.subscribe(filter.clone())?
            };
            self.log
                .lock()
                .unwrap()
                .subscriptions
                .push((id, filter.clone()));
        }
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let seq = ctx.read_first(event, "seq")?.as_int().unwrap();
        self.log.lock().unwrap().seen.push(seq);
        Ok(())
    }
}

/// Registers a [`Recorder`] with `profile`, returning its id and log.
fn register_recorder(
    engine: &Engine,
    profile: Profile,
    secret: &Label,
) -> (UnitId, Arc<Mutex<Log>>) {
    let input = match profile.secret_input {
        true => secret.clone(),
        false => Label::public(),
    };
    let log = Arc::new(Mutex::new(Log {
        seen: Vec::new(),
        expected: Vec::new(),
        subscriptions: Vec::new(),
        input: input.clone(),
        managed: profile.managed,
    }));
    let unit = engine
        .register_unit(
            UnitSpec::new("recorder").with_input_label(input),
            Box::new(Recorder {
                filters: profile.filters,
                managed: profile.managed,
                log: Arc::clone(&log),
            }),
        )
        .unwrap();
    (unit, log)
}

/// Lets every published event finish dispatching, so a churn step lands
/// between bursts.
fn settle(handle: &EngineHandle, workers: usize) {
    if workers == 0 {
        handle.pump_until_idle().unwrap();
    } else {
        assert!(
            handle.wait_idle(Duration::from_secs(30)),
            "engine never idled"
        );
    }
}

/// The population the workload churns: the pool its filters come from
/// (empty for fresh ones), the secret label, and the live recorders plus
/// every log ever registered.
struct Population<'a> {
    pool: &'a [Filter],
    secret: Label,
    alive: Vec<(UnitId, Arc<Mutex<Log>>)>,
    logs: Vec<Arc<Mutex<Log>>>,
}

/// One churn step between bursts, drawn from `churn`: register a recorder
/// with one to three filters from the pool, unsubscribe one subscription of
/// a live recorder, or remove a live recorder.
fn churn_step(engine: &Engine, churn: &mut Rng, population: &mut Population<'_>) {
    let Population {
        pool,
        secret,
        alive,
        logs,
    } = population;
    match churn.below(4) {
        0 | 1 => {
            let count = 1 + churn.below(3);
            let profile = random_profile(churn, pool, count);
            let (unit, log) = register_recorder(engine, profile, secret);
            logs.push(Arc::clone(&log));
            alive.push((unit, log));
        }
        2 if !alive.is_empty() => {
            let (unit, log) = &alive[churn.below(alive.len() as u64) as usize];
            let mut log = log.lock().unwrap();
            if log.subscriptions.is_empty() {
                return;
            }
            let at = churn.below(log.subscriptions.len() as u64) as usize;
            let (id, _) = log.subscriptions.remove(at);
            drop(log);
            engine
                .with_unit(*unit, |_, ctx| ctx.unsubscribe(id))
                .unwrap();
        }
        3 if !alive.is_empty() => {
            let (unit, _) = alive.remove(churn.below(alive.len() as u64) as usize);
            engine.remove_unit(unit).unwrap();
        }
        _ => {}
    }
}

/// The linear reference for one event about to be published: every live
/// subscription of every live recorder, walked in turn, expects `seq` once
/// when its filter matches `event` over the parts its owner may see. Those
/// are the parts whose label can flow to a direct owner's input label; for a
/// managed owner, the parts whose integrity covers its input's (the
/// dispatcher's managed rule, which accepts any confidentiality taint); and
/// every part under `NoSecurity`.
fn expect_deliveries(population: &Population<'_>, mode: SecurityMode, event: &Event, seq: i64) {
    for (_, log) in &population.alive {
        let mut log = log.lock().unwrap();
        let Log {
            expected,
            subscriptions,
            input,
            managed,
            ..
        } = &mut *log;
        let visible = |part: &Part| {
            if !mode.checks_labels() {
                true
            } else if *managed {
                part.label().integrity().is_superset(input.integrity())
            } else {
                part.label().can_flow_to(input)
            }
        };
        for (_, filter) in subscriptions.iter() {
            if filter.matches(event, visible) {
                expected.push(seq);
            }
        }
    }
}

/// Runs a generated workload on the engine and checks every recorder,
/// removed ones included, against the linear reference.
#[allow(clippy::too_many_arguments)]
fn run_workload(
    workers: usize,
    batch_size: usize,
    mode: SecurityMode,
    (pool, profiles): (&[Filter], &[Profile]),
    stream_seed: u64,
    churn_seed: u64,
    events: u64,
    config: &str,
) {
    let engine = Engine::builder()
        .mode(mode)
        .workers(workers)
        .batch_size(batch_size)
        .build();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();
    let tag = engine
        .with_unit(source, |_, ctx| Ok(ctx.create_owned_tag("secret")))
        .unwrap();
    // Publishing raises each part's label to the feed's output label; a
    // public one raises nothing, so the reference reads the drafts' labels.
    assert!(engine.unit_state(source).unwrap().output_label.is_public());
    let secret = Label::confidential(TagSet::singleton(tag));
    let alive: Vec<(UnitId, Arc<Mutex<Log>>)> = profiles
        .iter()
        .map(|profile| register_recorder(&engine, profile.clone(), &secret))
        .collect();
    let mut population = Population {
        pool,
        logs: alive.iter().map(|(_, log)| Arc::clone(log)).collect(),
        secret,
        alive,
    };

    let publisher = engine.publisher(source).unwrap();
    let handle = engine.start();
    let mut stream = Rng::new(stream_seed);
    let mut churn = Rng::new(churn_seed);
    let mut seq = 0;
    while seq < events {
        let burst = (1 + churn.below(12)).min(events - seq);
        for _ in 0..burst {
            let draft = random_draft(&mut stream, seq as i64, &population.secret);
            let event = Event::new(draft.parts().to_vec()).unwrap();
            expect_deliveries(&population, mode, &event, seq as i64);
            publisher.publish(draft).unwrap();
            seq += 1;
        }
        settle(&handle, workers);
        for _ in 0..churn.below(3) {
            churn_step(&engine, &mut churn, &mut population);
        }
    }
    handle.shutdown().unwrap();

    assert!(
        engine.queue_stats().index_rebuilds > 0,
        "{config}: dispatch must have built its index at least once"
    );
    for (recorder, log) in population.logs.iter().enumerate() {
        let log = log.lock().unwrap();
        let mut seen = log.seen.clone();
        seen.sort_unstable();
        let mut expected = log.expected.clone();
        expected.sort_unstable();
        assert_eq!(
            seen, expected,
            "{config}: recorder {recorder} must receive what the linear walk delivers"
        );
    }
}

/// Generates a workload from the seeds and runs it against the linear
/// reference.
#[allow(clippy::too_many_arguments)]
fn check_index_equivalence(
    workers: usize,
    batch_size: usize,
    mode: SecurityMode,
    population_seed: u64,
    stream_seed: u64,
    churn_seed: u64,
    subscriptions: u64,
    events: u64,
) {
    let mut rng = Rng::new(population_seed);
    // Half the cases draw every filter from a pool of one to six, so equal
    // filters recur; the other half draw each one fresh, so they rarely do.
    let pool: Vec<Filter> = match rng.below(2) {
        0 => (0..1 + rng.below(6))
            .map(|_| random_filter(&mut rng))
            .collect(),
        _ => Vec::new(),
    };
    let profiles: Vec<Profile> = (0..subscriptions)
        .map(|_| random_profile(&mut rng, &pool, 1))
        .collect();
    let config = format!(
        "workers={workers} batch={batch_size} mode={mode} \
         subs={subscriptions} events={events}"
    );
    run_workload(
        workers,
        batch_size,
        mode,
        (&pool, &profiles),
        stream_seed,
        churn_seed,
        events,
        &config,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn indexed_and_linear_planning_deliver_identically(
        workers in 0usize..3,
        batch_size in 1usize..17,
        mode_index in 0usize..4,
        population_seed in 1u64..u64::MAX,
        stream_seed in 1u64..u64::MAX,
        churn_seed in 1u64..u64::MAX,
        subscriptions in 1u64..24,
        events in 1u64..80,
    ) {
        check_index_equivalence(
            workers,
            batch_size,
            SecurityMode::all()[mode_index],
            population_seed,
            stream_seed,
            churn_seed,
            subscriptions,
            events,
        );
    }
}

/// Adds an `audit` part to every `tick` it sees — releasing it onto the main
/// dataflow path for the deliveries that follow.
/// Adds a public `audit` part and a `memo` part at its own (secret) label
/// to every event delivered to it.
struct Stamper {
    memo: Label,
}

impl Unit for Stamper {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("tick"))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        ctx.add_part_to_current(Label::public(), "audit", Value::str("stamped"))?;
        ctx.add_part_to_current(self.memo.clone(), "memo", Value::str("kept"))?;
        Ok(())
    }
}

/// Main-path augmentation (§3.1.6), pinned: a part released by the stamper's
/// delivery reaches the subscriptions positioned after it and no others. A
/// recorder registered after the stamper, filtering on the released part,
/// receives every event; one registered before it receives none, since its
/// turn came before the part existed. Both hold at every batch size, and so
/// do the counters: the walk charges each candidate once, against the event
/// as augmented when its turn comes.
#[test]
fn augmentation_released_parts_reach_only_later_subscriptions() {
    for batch_size in [1, 8] {
        let engine = Engine::builder().workers(0).batch_size(batch_size).build();
        let source = engine
            .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
            .unwrap();
        let tag = engine
            .with_unit(source, |_, ctx| Ok(ctx.create_owned_tag("memo")))
            .unwrap();
        let memo = Label::confidential(TagSet::singleton(tag));
        let stamped = || Profile {
            filters: vec![Filter::new().where_eq("audit", Value::str("stamped"))],
            secret_input: false,
            managed: false,
        };
        let public = Label::public();
        let (_, before) = register_recorder(&engine, stamped(), &public);
        engine
            .register_unit(UnitSpec::new("stamper"), Box::new(Stamper { memo }))
            .unwrap();
        let (_, after) = register_recorder(&engine, stamped(), &public);
        // Keyed under `type == tick`, so a candidate from the start; its
        // public input cannot see the stamper's memo.
        let snooper = Profile {
            filters: vec![Filter::for_type("tick").where_exists("memo")],
            secret_input: false,
            managed: false,
        };
        let (_, snooped) = register_recorder(&engine, snooper, &public);

        let publisher = engine.publisher(source).unwrap();
        let handle = engine.start();
        let drafts = (0..8)
            .map(|seq| {
                EventDraft::new()
                    .public_part("type", Value::str("tick"))
                    .public_part("seq", Value::Int(seq))
            })
            .collect();
        assert_eq!(publisher.publish_batch(drafts).unwrap().accepted(), 8);
        handle.shutdown().unwrap();

        let config = format!("batch={batch_size}");
        let mut received = after.lock().unwrap().seen.clone();
        received.sort_unstable();
        assert_eq!(
            received,
            (0..8).collect::<Vec<i64>>(),
            "{config}: a filter naming an augmentation-released part must \
             match every stamped event"
        );
        assert_eq!(
            before.lock().unwrap().seen,
            Vec::<i64>::new(),
            "{config}: a subscription positioned before the stamper had its \
             turn before the part was released"
        );
        assert_eq!(snooped.lock().unwrap().seen, Vec::<i64>::new(), "{config}");
        // Per event: the stamper and the snooper are the index's candidates
        // for the published parts, and `audit` adds the recorder after the
        // stamper (the one before it is passed over), so 3 candidates. The
        // stamper and that recorder take 2 deliveries. The snooper is
        // matched once, against the augmented event: its public input cannot
        // see the secret memo, which is 1 label rejection and 1 exact reject.
        let stats = engine.queue_stats();
        assert_eq!(engine.stats().deliveries(), 8 * 2, "{config}");
        assert_eq!(engine.stats().label_rejections(), 8, "{config}");
        assert_eq!(stats.index_candidates, 8 * 3, "{config}");
        assert_eq!(stats.index_exact_rejects, 8, "{config}");
    }
}
