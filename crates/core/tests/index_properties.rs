//! Property tests of the subscription index: for any subscription population,
//! event stream and runtime configuration, planning through the inverted
//! index must produce *exactly* the delivery sets the linear scan produces.
//!
//! Each case generates a random population of filters (string and integer
//! equality, two-equality conjunctions, `OneOf`, existence, numeric range and
//! inequality clauses — the index's value-keyed fast path, its choice between
//! keys, and every name-bucket fallback), a random event
//! stream over a small part-name vocabulary, a random churn of the population
//! between bursts of that stream (units registered with one to three
//! subscriptions, single unsubscribes, unit removals — the index's in-place
//! maintenance, its tombstones and its compacting rebuilds), and a random
//! runtime configuration (workers, batch size, all four [`SecurityMode`]s). The same workload then runs twice — index on, index
//! off — and every subscriber's multiset of received sequence numbers must be
//! identical. Since the linear scan is ground truth, equality pins both
//! directions at once: no false negatives (the candidate set is a superset of
//! the matches) and no false positives surviving the exact filter.
//!
//! The pinned test below covers the augmentation edge the random sweep keeps
//! out of the way: a filter naming a part that only exists once an earlier
//! delivery releases it must match when positioned after that delivery, and
//! never when positioned before it, at any batch size and with either
//! matcher.

use std::sync::{Arc, Mutex};

use std::time::Duration;

use defcon_core::unit::NullUnit;
use defcon_core::{
    Engine, EngineHandle, EngineResult, EventDraft, SecurityMode, SubscriptionId, Unit,
    UnitContext, UnitId, UnitSpec,
};
use defcon_defc::Label;
use defcon_events::{Event, Filter, Predicate, Value};
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

/// One random event draft: always a type, a lane, a price, a bucket and a
/// unique sequence number; sometimes a flag (so existence clauses
/// discriminate). The bucket is usually an integer and sometimes the string
/// spelling of one, which an integer-equality clause must never match.
fn random_draft(rng: &mut Rng, seq: i64) -> EventDraft {
    let bucket = match rng.below(5) {
        0 => Value::str(rng.below(4).to_string()),
        _ => Value::Int(rng.below(4) as i64),
    };
    let mut draft = EventDraft::new()
        .public_part("type", Value::str(TYPES[rng.below(2) as usize]))
        .public_part("lane", Value::str(LANES[rng.below(4) as usize]))
        .public_part("price", Value::Float(rng.below(100) as f64))
        .public_part("bucket", bucket)
        .public_part("seq", Value::Int(seq));
    if rng.below(2) == 0 {
        draft = draft.public_part("flag", Value::Bool(true));
    }
    draft
}

/// What one recorder received, and the subscriptions it still holds.
#[derive(Default)]
struct Log {
    seen: Vec<i64>,
    subscriptions: Vec<SubscriptionId>,
}

/// Records the sequence numbers of every event delivered through any of its
/// filters (an event matching two of them is recorded twice).
struct Recorder {
    filters: Vec<Filter>,
    log: Arc<Mutex<Log>>,
}

impl Unit for Recorder {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        for filter in &self.filters {
            let id = ctx.subscribe(filter.clone())?;
            self.log.lock().unwrap().subscriptions.push(id);
        }
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let seq = ctx.read_first(event, "seq")?.as_int().unwrap();
        self.log.lock().unwrap().seen.push(seq);
        Ok(())
    }
}

/// Registers a [`Recorder`] over `filters`, returning its id and log.
fn register_recorder(engine: &Engine, filters: Vec<Filter>) -> (UnitId, Arc<Mutex<Log>>) {
    let log = Arc::new(Mutex::new(Log::default()));
    let unit = engine
        .register_unit(
            UnitSpec::new("recorder"),
            Box::new(Recorder {
                filters,
                log: Arc::clone(&log),
            }),
        )
        .unwrap();
    (unit, log)
}

/// Lets every published event finish dispatching, so a churn step lands
/// between bursts on both legs alike.
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

/// One churn step between bursts, drawn from `churn`: register a recorder
/// with one to three random filters, unsubscribe one subscription of a live
/// recorder, or remove a live recorder. Both legs draw the same steps, since
/// the draws depend only on the seed and on state both legs share.
fn churn_step(
    engine: &Engine,
    churn: &mut Rng,
    alive: &mut Vec<(UnitId, Arc<Mutex<Log>>)>,
    logs: &mut Vec<Arc<Mutex<Log>>>,
) {
    match churn.below(4) {
        0 | 1 => {
            let filters = (0..1 + churn.below(3))
                .map(|_| random_filter(churn))
                .collect();
            let (unit, log) = register_recorder(engine, filters);
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
            let id = log.subscriptions.remove(at);
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

/// Runs one leg (index on or off) of a generated workload and returns each
/// subscriber's sorted multiset of received sequence numbers.
#[allow(clippy::too_many_arguments)]
fn run_leg(
    indexed: bool,
    workers: usize,
    batch_size: usize,
    mode: SecurityMode,
    filters: &[Filter],
    stream_seed: u64,
    churn_seed: u64,
    events: u64,
) -> Vec<Vec<i64>> {
    let engine = Engine::builder()
        .mode(mode)
        .workers(workers)
        .batch_size(batch_size)
        .subscription_index(indexed)
        .build();
    let mut alive: Vec<(UnitId, Arc<Mutex<Log>>)> = filters
        .iter()
        .map(|filter| register_recorder(&engine, vec![filter.clone()]))
        .collect();
    let mut logs: Vec<Arc<Mutex<Log>>> = alive.iter().map(|(_, log)| Arc::clone(log)).collect();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();

    let handle = engine.start();
    let publisher = handle.publisher(source).unwrap();
    let mut stream = Rng::new(stream_seed);
    let mut churn = Rng::new(churn_seed);
    let mut seq = 0;
    while seq < events {
        let burst = (1 + churn.below(12)).min(events - seq);
        for _ in 0..burst {
            publisher
                .publish(random_draft(&mut stream, seq as i64))
                .unwrap();
            seq += 1;
        }
        settle(&handle, workers);
        for _ in 0..churn.below(3) {
            churn_step(&engine, &mut churn, &mut alive, &mut logs);
        }
    }
    handle.shutdown().unwrap();

    let stats = engine.queue_stats();
    if indexed {
        assert!(
            stats.index_rebuilds > 0,
            "the indexed leg must have built its index at least once"
        );
    } else {
        assert_eq!(
            stats.index_rebuilds, 0,
            "the linear leg must never build an index"
        );
        assert_eq!(stats.index_candidates, 0);
        assert_eq!(stats.index_exact_rejects, 0);
    }

    logs.iter()
        .map(|log| {
            let mut seen = log.lock().unwrap().seen.clone();
            seen.sort_unstable();
            seen
        })
        .collect()
}

/// Generates a workload from the seeds and asserts indexed ≡ linear.
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
    let filters: Vec<Filter> = (0..subscriptions)
        .map(|_| random_filter(&mut rng))
        .collect();
    let config = format!(
        "workers={workers} batch={batch_size} mode={mode} \
         subs={subscriptions} events={events}"
    );
    let indexed = run_leg(
        true,
        workers,
        batch_size,
        mode,
        &filters,
        stream_seed,
        churn_seed,
        events,
    );
    let linear = run_leg(
        false,
        workers,
        batch_size,
        mode,
        &filters,
        stream_seed,
        churn_seed,
        events,
    );
    assert_eq!(
        indexed, linear,
        "{config}: indexed and linear planning must produce identical delivery sets"
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
struct Stamper;

impl Unit for Stamper {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("tick"))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        ctx.add_part_to_current(Label::public(), "audit", Value::str("stamped"))?;
        Ok(())
    }
}

/// Main-path augmentation (§3.1.6), pinned: a part released by the stamper's
/// delivery reaches the subscriptions positioned after it and no others. A
/// recorder registered after the stamper, filtering on the released part,
/// receives every event; one registered before it receives none, since its
/// turn came before the part existed. Both hold at every batch size and under
/// either matcher.
#[test]
fn augmentation_released_parts_reach_only_later_subscriptions() {
    for indexed in [false, true] {
        for batch_size in [1, 8] {
            let engine = Engine::builder()
                .workers(0)
                .batch_size(batch_size)
                .subscription_index(indexed)
                .build();
            let stamped = || vec![Filter::new().where_eq("audit", Value::str("stamped"))];
            let (_, before) = register_recorder(&engine, stamped());
            engine
                .register_unit(UnitSpec::new("stamper"), Box::new(Stamper))
                .unwrap();
            let (_, after) = register_recorder(&engine, stamped());
            let source = engine
                .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
                .unwrap();

            let handle = engine.start();
            let publisher = handle.publisher(source).unwrap();
            let drafts = (0..8)
                .map(|seq| {
                    EventDraft::new()
                        .public_part("type", Value::str("tick"))
                        .public_part("seq", Value::Int(seq))
                })
                .collect();
            assert_eq!(publisher.publish_batch(drafts).unwrap().accepted(), 8);
            handle.shutdown().unwrap();

            let config = format!("indexed={indexed} batch={batch_size}");
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
        }
    }
}
