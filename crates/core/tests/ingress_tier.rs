//! Bounded admission through `Publisher`s of an engine built with an
//! `IngressConfig`: what each policy sheds, the queue bound, loud accounting,
//! and credit windows that publish and regain credit on the calling thread.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use defcon_core::unit::NullUnit;
use defcon_core::{
    Engine, EngineError, EngineHandle, EngineResult, EventDraft, FullQueuePolicy, IngressConfig,
    SecurityMode, Unit, UnitContext, UnitSpec,
};
use defcon_defc::Label;
use defcon_events::{Event, Filter, Value};
use proptest::prelude::*;

fn draft(seq: i64) -> EventDraft {
    EventDraft::new()
        .public_part("type", Value::str("tick"))
        .public_part("seq", Value::Int(seq))
}

fn engine_with(config: IngressConfig, workers: usize) -> (Engine, defcon_core::UnitId) {
    let engine = Engine::builder()
        .mode(SecurityMode::NoSecurity)
        .workers(workers)
        .ingress(config)
        .build();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();
    (engine, source)
}

#[test]
fn block_policy_delivers_everything_exactly_once() {
    let (engine, source) = engine_with(
        IngressConfig::new(32)
            .credit_window(8)
            .policy(FullQueuePolicy::Block),
        1,
    );
    let handle = engine.start();
    let publisher = engine.publisher(source).unwrap();

    let mut accepted = 0u64;
    let mut waits = 0u64;
    for burst in 0..20 {
        let admission = publisher
            .publish_batch((0..25).map(|i| draft(burst * 25 + i)).collect())
            .unwrap();
        accepted += admission.accepted() as u64;
        waits += admission.credit_waits() as u64;
        assert_eq!(admission.shed(), 0, "Block never sheds");
    }
    assert_eq!(accepted, 500);
    assert!(
        publisher.wait_drained(Duration::from_secs(30)),
        "the window must drain"
    );

    let stats = engine.queue_stats();
    assert_eq!(
        stats.ingress_admitted, 500,
        "every accepted event reaches the queue exactly once"
    );
    assert_eq!(stats.ingress_shed, 0);
    // Bursts of 25 against a window of 8 must stall at least once each.
    assert!(waits > 0, "the credit window must have paced the publisher");
    let dispatched = handle.shutdown().unwrap();
    assert_eq!(dispatched, 500);
}

#[test]
fn shed_newest_drops_the_overflow_and_counts_it() {
    // No workers and no pumping: nothing drains, so the window fills and
    // stays full — the policy decision is the only thing being tested.
    let (engine, source) = engine_with(
        IngressConfig::new(1_000)
            .credit_window(10)
            .policy(FullQueuePolicy::ShedNewest),
        0,
    );
    let _handle = engine.start();
    let publisher = engine.publisher(source).unwrap();

    let admission = publisher
        .publish_batch((0..50).map(draft).collect())
        .unwrap();
    assert_eq!(admission.accepted(), 10, "window admits its size");
    assert_eq!(admission.shed(), 40, "the newest overflow is dropped");

    // Nothing can drain, so the window is still full: the whole second
    // batch sheds.
    let again = publisher
        .publish_batch((50..60).map(draft).collect())
        .unwrap();
    assert_eq!(again.accepted(), 0);
    assert_eq!(again.shed(), 10);
    assert_eq!(engine.queue_stats().ingress_shed, 50);
}

#[test]
fn shed_oldest_conflates_in_favour_of_fresh_data() {
    // The *queue* is the bottleneck (bound 4): at most 4 of the window's 10
    // events can be on the engine, so at least 6 stay buffered in the window
    // — and buffered events are what ShedOldest can evict.
    let (engine, source) = engine_with(
        IngressConfig::new(4)
            .credit_window(10)
            .policy(FullQueuePolicy::ShedOldest),
        0,
    );
    let _handle = engine.start();
    let publisher = engine.publisher(source).unwrap();
    let publish = |drafts: Vec<EventDraft>| publisher.publish_batch(drafts).unwrap();

    // Fill the window, then publish fresh data: the buffered oldest are
    // evicted to make room, counted as shed on this batch's admission.
    assert_eq!(publish((0..10).map(draft).collect()).accepted(), 10);
    let fresh = publish((10..16).map(draft).collect());
    assert_eq!(fresh.accepted(), 6, "fresh data enters by evicting stale");
    assert_eq!(fresh.shed(), 6, "the evicted buffered events are counted");

    // A batch far larger than the window: everything buffered is evicted,
    // the batch's own oldest drafts shed, its newest fill the free space.
    // The publish queued up to the bound itself, so exactly the 6 the queue
    // refused were buffered.
    let huge = publish((100..130).map(draft).collect());
    assert_eq!(huge.shed(), 30, "evictions + own-oldest overflow");
    assert_eq!(huge.accepted(), 6, "what was evictable");
}

#[test]
fn queue_bound_holds_under_many_flooding_sessions() {
    const BOUND: usize = 48;
    let (engine, source) = engine_with(
        IngressConfig::new(BOUND)
            .credit_window(16)
            .policy(FullQueuePolicy::Block),
        1,
    );
    let handle = engine.start();
    let publishers: Vec<_> = (0..6).map(|_| engine.publisher(source).unwrap()).collect();

    let mut peak = 0usize;
    std::thread::scope(|scope| {
        for (p, publisher) in (0i64..).zip(&publishers) {
            scope.spawn(move || {
                for burst in 0..10 {
                    let chunk = (0..20).map(|i| draft(p * 1_000 + burst * 20 + i)).collect();
                    assert_eq!(publisher.publish_batch(chunk).unwrap().accepted(), 20);
                }
            });
        }
        for _ in 0..2_000 {
            peak = peak.max(engine.queue_depth());
            std::thread::sleep(Duration::from_micros(50));
        }
    });
    assert!(
        peak <= BOUND,
        "run-queue depth {peak} exceeded the configured bound {BOUND}"
    );
    for publisher in &publishers {
        assert!(publisher.wait_drained(Duration::from_secs(60)));
    }
    let stats = engine.queue_stats();
    assert_eq!(stats.ingress_admitted, 6 * 10 * 20);
    assert_eq!(stats.ingress_shed, 0);
    handle.shutdown().unwrap();
}

/// Counts every tick delivered to it.
struct TickCounter(Arc<AtomicU64>);

impl Unit for TickCounter {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("tick"))?;
        Ok(())
    }

    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        self.0.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Over random admission configurations, with bursts published
    /// round-robin over several publishers (each with its own window), the
    /// admission laws hold:
    ///
    /// 1. **loud accounting** — engine-admitted + shed == published;
    /// 2. **the bound** — sampled run-queue depth never exceeds the queue
    ///    bound;
    /// 3. **`Block` sheds nothing**;
    /// 4. **exactly-once for admitted** — deliveries == admitted.
    #[test]
    fn admission_laws_hold_over_random_tuples(
        sessions in 1usize..5,
        credit_window in 4usize..40,
        policy_index in 0usize..3,
        batch in 1usize..50,
        queue_bound in 8usize..64,
    ) {
        const TOTAL: usize = 600;
        let policy = FullQueuePolicy::all()[policy_index];
        let (engine, source) = engine_with(
            IngressConfig::new(queue_bound)
                .credit_window(credit_window)
                .policy(policy),
            1,
        );
        let delivered = Arc::new(AtomicU64::new(0));
        engine
            .register_unit(
                UnitSpec::new("counter"),
                Box::new(TickCounter(Arc::clone(&delivered))),
            )
            .unwrap();
        let handle = engine.start();
        let publishers: Vec<_> = (0..sessions)
            .map(|_| engine.publisher(source).unwrap())
            .collect();

        let mut peak = 0usize;
        let mut shed = 0usize;
        for (burst, start) in (0..TOTAL).step_by(batch).enumerate() {
            let chunk = (start..(start + batch).min(TOTAL))
                .map(|seq| draft(seq as i64))
                .collect();
            shed += publishers[burst % publishers.len()].publish_batch(chunk).unwrap().shed();
            peak = peak.max(engine.queue_depth());
        }
        for publisher in &publishers {
            prop_assert!(publisher.wait_drained(Duration::from_secs(120)), "windows must drain");
        }
        prop_assert!(
            peak <= queue_bound,
            "sampled depth {peak} exceeded bound {queue_bound}"
        );
        if policy == FullQueuePolicy::Block {
            prop_assert_eq!(shed, 0, "Block never sheds");
        }

        drop(publishers);
        handle.shutdown().unwrap();
        let stats = engine.queue_stats();
        prop_assert_eq!(
            stats.ingress_admitted + stats.ingress_shed,
            TOTAL as u64,
            "admitted {} + shed {} must cover all {} published",
            stats.ingress_admitted,
            stats.ingress_shed,
            TOTAL
        );
        prop_assert_eq!(
            delivered.load(Ordering::Relaxed),
            stats.ingress_admitted,
            "admitted events deliver exactly once"
        );
    }
}

/// Republishes every tick it receives several times, slowly: each input
/// fans out into a cascade the dispatcher runs off its own stack.
struct Relay {
    copies: usize,
}

impl Unit for Relay {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("tick"))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        std::thread::sleep(Duration::from_micros(200));
        for copy in 0..self.copies {
            let draft = ctx.create_event();
            ctx.add_part(&draft, Label::public(), "type", Value::str("echo"))?;
            ctx.add_part(&draft, Label::public(), "copy", Value::Int(copy as i64))?;
            ctx.publish(draft)?;
        }
        Ok(())
    }
}

/// Credits return when a chunk leaves the queue, not when the engine's
/// dispatched count passes the chunk's stamp: cascades dispatched off a
/// dispatcher's stack raise that count without popping anything, so a stamp
/// over it would return a still-queued chunk's credits early and let the
/// publisher queue more than its window.
#[test]
fn cascades_do_not_return_credits_of_still_queued_chunks() {
    const WINDOW: usize = 8;
    let engine = Engine::builder()
        .mode(SecurityMode::NoSecurity)
        .workers(1)
        .batch_size(4)
        .ingress(
            IngressConfig::new(1_000)
                .credit_window(WINDOW)
                .policy(FullQueuePolicy::Block),
        )
        .build();
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .unwrap();
    engine
        .register_unit(UnitSpec::new("relay"), Box::new(Relay { copies: 4 }))
        .unwrap();
    let handle = engine.start();
    let publisher = engine.publisher(source).unwrap();

    let mut peak = 0usize;
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for burst in 0..20 {
                let drafts = (0..10).map(|i| draft(burst * 10 + i)).collect();
                assert_eq!(publisher.publish_batch(drafts).unwrap().accepted(), 10);
            }
            done.store(true, Ordering::SeqCst);
        });
        while !done.load(Ordering::SeqCst) {
            peak = peak.max(engine.queue_depth());
            std::thread::sleep(Duration::from_micros(50));
        }
    });
    assert!(
        publisher.wait_drained(Duration::from_secs(30)),
        "the window must drain"
    );
    assert!(
        peak <= WINDOW,
        "the queue held {peak} of the publisher's events, over its window of {WINDOW}"
    );
    let stats = engine.queue_stats();
    assert_eq!((stats.ingress_admitted, stats.ingress_shed), (200, 0));
    assert_eq!(
        handle.shutdown().unwrap(),
        200 * 5,
        "every tick and each of its four copies is dispatched"
    );
}

/// A live publisher's cached slot goes stale when its unit is hot-swapped.
/// The publisher rebinds transparently, so its window must keep admitting to
/// the replacement — no silent drops, no shed.
#[test]
fn sessions_keep_admitting_across_a_swap_of_their_unit() {
    let (engine, source) = engine_with(
        IngressConfig::new(64)
            .credit_window(16)
            .policy(FullQueuePolicy::Block),
        1,
    );
    let handle = engine.start();
    let publisher = engine.publisher(source).unwrap();
    let publish_burst = |burst: i64| {
        let drafts = (0..50).map(|i| draft(burst * 50 + i)).collect();
        publisher.publish_batch(drafts).unwrap().accepted()
    };

    for burst in 0..3 {
        assert_eq!(publish_burst(burst), 50);
    }
    // Hot-swap the publisher's unit mid-stream; the publisher is never told.
    assert_eq!(engine.swap_unit(source, Box::new(NullUnit)).unwrap(), 2);
    for burst in 3..6 {
        assert_eq!(publish_burst(burst), 50);
    }
    assert!(
        publisher.wait_drained(Duration::from_secs(30)),
        "the window must drain"
    );

    let stats = engine.queue_stats();
    assert_eq!(
        stats.ingress_admitted, 300,
        "every event admits, before and after the swap"
    );
    assert_eq!(stats.ingress_shed, 0);
    assert_eq!(stats.unit_swaps, 1);
    assert_eq!(handle.shutdown().unwrap(), 300);
}

/// A publisher bound to a *quarantined* unit must not silently drop events:
/// the publish fails with a typed error and the window records every refused
/// event as shed on the engine's ledger.
#[test]
fn sessions_bound_to_a_quarantined_unit_shed_loudly() {
    let (engine, source) = engine_with(IngressConfig::new(64).credit_window(16), 1);
    let handle = engine.start();
    let publisher = engine.publisher(source).unwrap();
    let admission = publisher
        .publish_batch((0..10).map(draft).collect())
        .unwrap();
    assert_eq!(admission.accepted(), 10);
    assert!(publisher.wait_drained(Duration::from_secs(30)));

    engine.quarantine_unit(source).unwrap();
    // The batch enters the window, then its publish is refused with
    // `UnitQuarantined` — the window counts the loss instead of hiding it.
    let refused = publisher.publish_batch((10..30).map(draft).collect());
    assert!(
        matches!(refused, Err(EngineError::UnitQuarantined(_))),
        "{refused:?}"
    );
    assert!(
        publisher.wait_drained(Duration::from_secs(30)),
        "refused batches still resolve"
    );

    let stats = engine.queue_stats();
    assert_eq!(
        stats.ingress_admitted, 10,
        "only the pre-quarantine burst admitted"
    );
    assert_eq!(
        stats.ingress_shed, 20,
        "every refused event is counted, none vanish"
    );
    assert_eq!(handle.shutdown().unwrap(), 10);
}

/// Each `Engine::publisher` call opens its own window; clones share theirs,
/// and the last clone to drop sheds what the window still buffers, loudly.
#[test]
fn a_window_is_shared_by_clones_and_shed_when_the_last_drops() {
    let (engine, source) = engine_with(
        IngressConfig::new(4)
            .credit_window(10)
            .policy(FullQueuePolicy::ShedNewest),
        0,
    );
    let _handle = engine.start();
    let publisher = engine.publisher(source).unwrap();
    let admission = publisher
        .publish_batch((0..10).map(draft).collect())
        .unwrap();
    assert_eq!((admission.accepted(), admission.shed()), (10, 0));
    assert_eq!(engine.queue_depth(), 4, "6 stay buffered under the bound");

    let clone = publisher.clone();
    let full = clone.publish_batch((10..15).map(draft).collect()).unwrap();
    assert_eq!(
        (full.accepted(), full.shed()),
        (0, 5),
        "the clone's window is full"
    );
    let fresh = engine.publisher(source).unwrap();
    let own = fresh.publish_batch((15..18).map(draft).collect()).unwrap();
    assert_eq!(
        (own.accepted(), own.shed()),
        (3, 0),
        "a new publisher, a new window"
    );

    drop(publisher);
    assert_eq!(
        engine.queue_stats().ingress_shed,
        5,
        "a clone still holds it"
    );
    drop(clone);
    assert_eq!(
        engine.queue_stats().ingress_shed,
        5 + 6,
        "its buffer is shed"
    );
    drop(fresh);
    assert_eq!(engine.queue_stats().ingress_shed, 5 + 6 + 3);
    assert_eq!(engine.queue_stats().ingress_admitted, 4);
}

/// A window has no thread of its own: with no workers and nobody pumping,
/// the published events are on the queue and in the ledger when
/// `publish_batch` returns, under every policy.
#[test]
fn publish_batch_queues_on_the_calling_thread() {
    for policy in FullQueuePolicy::all() {
        let (engine, source) = engine_with(IngressConfig::new(64).policy(policy), 0);
        let _handle = engine.start();
        let admission = engine
            .publisher(source)
            .unwrap()
            .publish_batch((0..5).map(draft).collect())
            .unwrap();
        assert_eq!((admission.accepted(), admission.shed()), (5, 0), "{policy}");
        assert_eq!(engine.queue_depth(), 5, "{policy}: the publish queued them");
        assert_eq!(engine.queue_stats().ingress_admitted, 5, "{policy}");
    }
}

/// Pumps on this thread until `waiter` finishes; fails after 30 s instead of
/// hanging when the waiter never sees the progress (an unscoped waiter is
/// left behind rather than joined).
fn pump_until_finished<T>(handle: &EngineHandle, waiter: &std::thread::JoinHandle<T>) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !waiter.is_finished() {
        assert!(Instant::now() < deadline, "the waiter missed the pops");
        handle.pump_until_idle().unwrap();
        std::thread::yield_now();
    }
}

/// What the queue bound refuses a shedding publisher stays buffered in its
/// window; no thread publishes it until the publisher's next call does.
#[test]
fn buffered_remainder_is_published_by_the_next_call() {
    for policy in [FullQueuePolicy::ShedNewest, FullQueuePolicy::ShedOldest] {
        let (engine, source) =
            engine_with(IngressConfig::new(4).credit_window(10).policy(policy), 0);
        let delivered = Arc::new(AtomicU64::new(0));
        let counter = TickCounter(Arc::clone(&delivered));
        engine
            .register_unit(UnitSpec::new("counter"), Box::new(counter))
            .unwrap();
        let handle = engine.start();
        let publisher = engine.publisher(source).unwrap();
        let admitted = || engine.queue_stats().ingress_admitted;

        let admission = publisher
            .publish_batch((0..10).map(draft).collect())
            .unwrap();
        assert_eq!(
            (admission.accepted(), admission.shed()),
            (10, 0),
            "{policy}"
        );
        assert_eq!((engine.queue_depth(), admitted()), (4, 4), "{policy}");
        assert_eq!(handle.pump_until_idle().unwrap(), 4, "{policy}");
        assert_eq!(admitted(), 4, "{policy}: nothing published in between");
        // The next publish sends the buffer first, 4 of the 6.
        let empty = publisher.publish_batch(Vec::new()).unwrap();
        assert_eq!(empty.accepted(), 0, "{policy}");
        assert_eq!((engine.queue_depth(), admitted()), (4, 8), "{policy}");
        // `wait_drained` publishes the last 2 and waits for their dispatch.
        let waiter = std::thread::spawn(move || publisher.wait_drained(Duration::from_secs(30)));
        pump_until_finished(&handle, &waiter);
        assert!(waiter.join().unwrap(), "{policy}: the window drains");
        handle.pump_until_idle().unwrap();
        assert_eq!(delivered.load(Ordering::Relaxed), 10, "{policy}: once each");
        let stats = engine.queue_stats();
        assert_eq!(
            (stats.ingress_admitted, stats.ingress_shed),
            (10, 0),
            "{policy}"
        );
    }
}

/// A `Block` publisher without credit waits on dispatch progress alone: at
/// `workers(0)` only this thread's pumping returns its credits.
#[test]
fn block_credits_return_through_dispatch_alone() {
    let (engine, source) = engine_with(IngressConfig::new(64).credit_window(4), 0);
    let handle = engine.start();
    let publisher = engine.publisher(source).unwrap();
    let drafts = (0..40).map(draft).collect();
    let submitter = std::thread::spawn(move || publisher.publish_batch(drafts).unwrap());
    pump_until_finished(&handle, &submitter);
    let admission = submitter.join().unwrap();
    assert_eq!((admission.accepted(), admission.shed()), (40, 0));
    assert!(admission.credit_waits() > 0, "a window of 4 must wait");
    handle.pump_until_idle().unwrap();
    let stats = engine.queue_stats();
    assert_eq!((stats.ingress_admitted, stats.ingress_shed), (40, 0));
}
