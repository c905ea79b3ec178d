//! Integration tests for the credit-gated ingress tier: policy semantics,
//! bound enforcement, accounting consistency, and sessions that publish and
//! regain credit on the submitting thread.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use defcon_core::unit::NullUnit;
use defcon_core::{
    Engine, EngineHandle, EngineResult, EventDraft, FullQueuePolicy, IngressConfig, SecurityMode,
    Unit, UnitContext, UnitSpec,
};
use defcon_defc::Label;
use defcon_events::{Event, Filter, Value};
use defcon_ingress::IngressTier;
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
    let tier = IngressTier::new(&engine);
    let session = tier.session(source).unwrap();

    let mut accepted = 0u64;
    let mut waits = 0u64;
    for burst in 0..20 {
        let admission = session.submit((0..25).map(|i| draft(burst * 25 + i)).collect());
        accepted += admission.accepted() as u64;
        waits += admission.credit_waits() as u64;
        assert_eq!(admission.shed(), 0, "Block never sheds");
    }
    assert_eq!(accepted, 500);
    assert!(tier.drain(Duration::from_secs(30)), "session must drain");

    let stats = engine.queue_stats();
    assert_eq!(
        stats.ingress_admitted, 500,
        "every accepted event reaches the bounded publish path exactly once"
    );
    assert_eq!(stats.ingress_shed, 0);
    // Bursts of 25 against a window of 8 must stall at least once each.
    assert!(waits > 0, "credit window must have paced the submitter");

    let report = tier.shutdown();
    assert_eq!(report.admitted, 500);
    assert_eq!(report.shed, 0);
    assert_eq!(report.sessions, 1);
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
    let tier = IngressTier::new(&engine);
    let session = tier.session(source).unwrap();

    let admission = session.submit((0..50).map(draft).collect());
    assert_eq!(admission.accepted(), 10, "window admits its size");
    assert_eq!(admission.shed(), 40, "the newest overflow is dropped");

    // Nothing can drain, so the window is still full: the whole second
    // chunk sheds.
    let again = session.submit((50..60).map(draft).collect());
    assert_eq!(again.accepted(), 0);
    assert_eq!(again.shed(), 10);
    assert_eq!(engine.queue_stats().ingress_shed, 50);
    drop(tier);
}

#[test]
fn shed_oldest_conflates_in_favour_of_fresh_data() {
    // The *queue* is the bottleneck (bound 4): at most 4 of the window's 10
    // events can be in flight on the engine, so at least 6 stay buffered in
    // the session — and buffered events are what ShedOldest can evict.
    let (engine, source) = engine_with(
        IngressConfig::new(4)
            .credit_window(10)
            .policy(FullQueuePolicy::ShedOldest),
        0,
    );
    let _handle = engine.start();
    let tier = IngressTier::new(&engine);
    let session = tier.session(source).unwrap();

    // Fill the window, then submit fresh data: the buffered oldest are
    // evicted to make room, counted as shed on this chunk's admission.
    assert_eq!(session.submit((0..10).map(draft).collect()).accepted(), 10);
    let fresh = session.submit((10..16).map(draft).collect());
    assert_eq!(fresh.accepted(), 6, "fresh data enters by evicting stale");
    assert_eq!(fresh.shed(), 6, "the evicted buffered events are counted");

    // A chunk far larger than the window: everything buffered is evicted,
    // the chunk's own oldest drafts shed, its newest fill the free space.
    // The submit published up to the bound itself, so exactly the 6 the
    // queue refused were buffered.
    let huge = session.submit((100..130).map(draft).collect());
    assert_eq!(huge.shed(), 30, "evictions + own-oldest overflow");
    assert_eq!(huge.accepted(), 6, "what was evictable");
    drop(tier);
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
    let tier = IngressTier::new(&engine);

    let mut peak = 0usize;
    std::thread::scope(|scope| {
        for s in 0..6 {
            let session = tier.session(source).unwrap();
            scope.spawn(move || {
                for burst in 0..10 {
                    let chunk = (0..20).map(|i| draft(s * 1_000 + burst * 20 + i)).collect();
                    let _ = session.submit(chunk);
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
    assert!(tier.drain(Duration::from_secs(60)));
    let report = tier.shutdown();
    assert_eq!(report.admitted, 6 * 10 * 20);
    assert_eq!(report.shed, 0);
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

    /// Over random admission configurations, with bursts submitted
    /// round-robin over the sessions, the admission laws hold:
    ///
    /// 1. **loud accounting** — engine-admitted + shed == submitted;
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
        let tier = IngressTier::new(&engine);
        let sessions: Vec<_> = (0..sessions)
            .map(|_| tier.session(source).unwrap())
            .collect();

        let mut peak = 0usize;
        let mut shed = 0usize;
        for (burst, start) in (0..TOTAL).step_by(batch).enumerate() {
            let chunk = (start..(start + batch).min(TOTAL))
                .map(|seq| draft(seq as i64))
                .collect();
            shed += sessions[burst % sessions.len()].submit(chunk).shed();
            peak = peak.max(engine.queue_depth());
        }
        prop_assert!(tier.drain(Duration::from_secs(120)), "sessions must drain");
        prop_assert!(
            peak <= queue_bound,
            "sampled depth {peak} exceeded bound {queue_bound}"
        );
        if policy == FullQueuePolicy::Block {
            prop_assert_eq!(shed, 0, "Block never sheds");
        }

        tier.shutdown();
        handle.shutdown().unwrap();
        let stats = engine.queue_stats();
        prop_assert_eq!(
            stats.ingress_admitted + stats.ingress_shed,
            TOTAL as u64,
            "admitted {} + shed {} must cover all {} submitted",
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
/// session queue more than its window.
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
    let tier = IngressTier::new(&engine);
    let session = tier.session(source).unwrap();

    let mut peak = 0usize;
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for burst in 0..20 {
                let _ = session.submit((0..10).map(|i| draft(burst * 10 + i)).collect());
            }
            done.store(true, Ordering::SeqCst);
        });
        while !done.load(Ordering::SeqCst) {
            peak = peak.max(engine.queue_depth());
            std::thread::sleep(Duration::from_micros(50));
        }
    });
    assert!(tier.drain(Duration::from_secs(30)), "session must drain");
    assert!(
        peak <= WINDOW,
        "the queue held {peak} of the session's events, over its window of {WINDOW}"
    );
    let report = tier.shutdown();
    assert_eq!(report.admitted, 200);
    assert_eq!(report.shed, 0);
    assert_eq!(
        handle.shutdown().unwrap(),
        200 * 5,
        "every tick and each of its four copies is dispatched"
    );
}

/// A live session holds a `Publisher` whose cached slot goes stale when its
/// unit is hot-swapped. The publisher rebinds transparently, so the session
/// must keep admitting to the replacement — no silent drops, no shed.
#[test]
fn sessions_keep_admitting_across_a_swap_of_their_unit() {
    let (engine, source) = engine_with(
        IngressConfig::new(64)
            .credit_window(16)
            .policy(FullQueuePolicy::Block),
        1,
    );
    let handle = engine.start();
    let tier = IngressTier::new(&engine);
    let session = tier.session(source).unwrap();

    for burst in 0..3 {
        assert_eq!(
            session
                .submit((0..50).map(|i| draft(burst * 50 + i)).collect())
                .accepted(),
            50
        );
    }
    // Hot-swap the session's unit mid-stream; the session is never told.
    assert_eq!(engine.swap_unit(source, Box::new(NullUnit)).unwrap(), 2);
    for burst in 3..6 {
        assert_eq!(
            session
                .submit((0..50).map(|i| draft(burst * 50 + i)).collect())
                .accepted(),
            50
        );
    }
    assert!(tier.drain(Duration::from_secs(30)), "session must drain");

    let stats = engine.queue_stats();
    assert_eq!(
        stats.ingress_admitted, 300,
        "every event admits, before and after the swap"
    );
    assert_eq!(stats.ingress_shed, 0);
    assert_eq!(stats.unit_swaps, 1);
    let report = tier.shutdown();
    assert_eq!(report.admitted, 300);
    assert_eq!(report.shed, 0);
    assert_eq!(handle.shutdown().unwrap(), 300);
}

/// A session bound to a *quarantined* unit must not silently drop events: the
/// publisher refuses with a typed error and the session records every refused
/// event as shed, visible in the tier report.
#[test]
fn sessions_bound_to_a_quarantined_unit_shed_loudly() {
    let (engine, source) = engine_with(IngressConfig::new(64).credit_window(16), 1);
    let handle = engine.start();
    let tier = IngressTier::new(&engine);
    let session = tier.session(source).unwrap();
    assert_eq!(session.submit((0..10).map(draft).collect()).accepted(), 10);
    assert!(tier.drain(Duration::from_secs(30)));

    engine.quarantine_unit(source).unwrap();
    // The chunk enters the session window, then its publish is refused with
    // `UnitQuarantined` — the session counts the loss instead of hiding it.
    let _ = session.submit((10..30).map(draft).collect());
    assert!(
        tier.drain(Duration::from_secs(30)),
        "refused chunks still resolve"
    );

    let report = tier.shutdown();
    assert_eq!(
        report.admitted, 10,
        "only the pre-quarantine burst admitted"
    );
    assert_eq!(
        report.shed, 20,
        "every refused event is counted, none vanish"
    );
    assert_eq!(engine.queue_stats().ingress_admitted, 10);
    assert_eq!(handle.shutdown().unwrap(), 10);
}

#[test]
fn closed_sessions_shed_further_submits_loudly() {
    let (engine, source) = engine_with(IngressConfig::new(64), 1);
    let handle = engine.start();
    let tier = IngressTier::new(&engine);
    let session = tier.session(source).unwrap();
    assert_eq!(session.submit((0..5).map(draft).collect()).accepted(), 5);
    session.close();
    let late = session.submit((5..10).map(draft).collect());
    assert_eq!(late.accepted(), 0);
    assert_eq!(late.shed(), 5);
    let report = tier.shutdown();
    assert!(report.shed >= 5);
    handle.shutdown().unwrap();
}

/// A session runs on the thread that submits to it: with no workers and
/// nobody pumping, the submitted events are on the queue and in the ledger
/// when `submit` returns, under every policy.
#[test]
fn submit_publishes_on_the_calling_thread() {
    for policy in FullQueuePolicy::all() {
        let (engine, source) = engine_with(IngressConfig::new(64).policy(policy), 0);
        let _handle = engine.start();
        let tier = IngressTier::new(&engine);
        let admission = tier
            .session(source)
            .unwrap()
            .submit((0..5).map(draft).collect());
        assert_eq!((admission.accepted(), admission.shed()), (5, 0), "{policy}");
        assert_eq!(engine.queue_depth(), 5, "{policy}: the submit queued them");
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

/// What the queue bound refuses a shedding session stays buffered in it;
/// no thread publishes it until the session's next call does.
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
        let tier = IngressTier::new(&engine);
        let session = tier.session(source).unwrap();
        let admitted = || engine.queue_stats().ingress_admitted;

        let admission = session.submit((0..10).map(draft).collect());
        assert_eq!(
            (admission.accepted(), admission.shed()),
            (10, 0),
            "{policy}"
        );
        assert_eq!((engine.queue_depth(), admitted()), (4, 4), "{policy}");
        assert_eq!(handle.pump_until_idle().unwrap(), 4, "{policy}");
        assert_eq!(admitted(), 4, "{policy}: nothing published in between");
        // The next submit publishes the buffer first, 4 of the 6.
        assert_eq!(session.submit(Vec::new()).accepted(), 0, "{policy}");
        assert_eq!((engine.queue_depth(), admitted()), (4, 8), "{policy}");
        // `wait_drained` publishes the last 2 and waits for their dispatch.
        let waiter = std::thread::spawn(move || session.wait_drained(Duration::from_secs(30)));
        pump_until_finished(&handle, &waiter);
        assert!(waiter.join().unwrap(), "{policy}: the session drains");
        handle.pump_until_idle().unwrap();
        assert_eq!(delivered.load(Ordering::Relaxed), 10, "{policy}: once each");
        let report = tier.shutdown();
        assert_eq!((report.admitted, report.shed), (10, 0), "{policy}");
    }
}

/// A `Block` submitter without credit waits on dispatch progress alone: at
/// `workers(0)` only this thread's pumping returns its credits.
#[test]
fn block_credits_return_through_dispatch_alone() {
    let (engine, source) = engine_with(IngressConfig::new(64).credit_window(4), 0);
    let handle = engine.start();
    let tier = IngressTier::new(&engine);
    let session = tier.session(source).unwrap();
    let submitter = std::thread::spawn(move || session.submit((0..40).map(draft).collect()));
    pump_until_finished(&handle, &submitter);
    let admission = submitter.join().unwrap();
    assert_eq!((admission.accepted(), admission.shed()), (40, 0));
    assert!(admission.credit_waits() > 0, "a window of 4 must wait");
    handle.pump_until_idle().unwrap();
    let report = tier.shutdown();
    assert_eq!((report.admitted, report.shed), (40, 0));
}
