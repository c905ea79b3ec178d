//! Credit-gated admission in action: the same slow-consumer flood run twice —
//! once on the direct (unbounded) publish path, once through the async
//! ingress tier with a bounded run queue — printing the peak queue depth and
//! admission ledger each way. The direct path's backlog grows with the flood;
//! the credit-gated path holds the configured bound.
//!
//! Run with: `cargo run --release --example ingress_admission [events]`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use defcon::prelude::*;
use defcon_core::unit::NullUnit;

const QUEUE_BOUND: usize = 64;
const BURST: u64 = 128;
const SESSIONS: usize = 4;

/// The consumer that cannot keep up: 20µs per event.
struct SlowSink(Arc<AtomicU64>);

impl Unit for SlowSink {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("tick"))?;
        Ok(())
    }

    fn on_event(&mut self, _ctx: &mut UnitContext<'_>, _event: &Event) -> EngineResult<()> {
        std::thread::sleep(Duration::from_micros(20));
        self.0.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// A one-lane engine with the slow sink and a feed unit, plus the sink's
/// delivery counter.
fn slow_engine(ingress: Option<IngressConfig>) -> (Engine, UnitId, Arc<AtomicU64>) {
    let mut builder = Engine::builder()
        .mode(SecurityMode::LabelsFreeze)
        .workers(2)
        .batch_size(8);
    if let Some(config) = ingress {
        builder = builder.ingress(config);
    }
    let engine = builder.build();
    let delivered = Arc::new(AtomicU64::new(0));
    engine
        .register_unit(
            UnitSpec::new("slow-sink"),
            Box::new(SlowSink(Arc::clone(&delivered))),
        )
        .expect("sink registers");
    let source = engine
        .register_unit(UnitSpec::new("feed"), Box::new(NullUnit))
        .expect("feed registers");
    (engine, source, delivered)
}

/// The flood as bursts of up to [`BURST`] ticks, `events` ticks in all.
fn bursts(events: u64) -> impl Iterator<Item = Vec<EventDraft>> {
    (0..events).step_by(BURST as usize).map(move |start| {
        (start..(start + BURST).min(events))
            .map(|seq| {
                EventDraft::new()
                    .public_part("type", Value::str("tick"))
                    .public_part("seq", Value::Int(seq as i64))
            })
            .collect()
    })
}

fn main() {
    let events: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20_000);

    println!("== direct (unbounded) publish path, {events} events ==");
    let (engine, source, delivered) = slow_engine(None);
    let handle = engine.start();
    let publisher = engine.publisher(source).expect("publisher");
    let (mut published, mut peak) = (0u64, 0usize);
    for burst in bursts(events) {
        let admission = publisher.publish_batch(burst).expect("engine running");
        published += admission.accepted() as u64;
        peak = peak.max(engine.queue_depth());
    }
    handle.shutdown().expect("shutdown");
    println!(
        "published {published} events; peak queue depth {peak} (unbounded: grows with the flood)"
    );
    assert_eq!(published, events);
    assert_eq!(delivered.load(Ordering::Relaxed), events);

    println!("\n== credit-gated ingress tier, queue bound {QUEUE_BOUND} ==");
    let (engine, source, delivered) = slow_engine(Some(
        IngressConfig::new(QUEUE_BOUND)
            .credit_window(32)
            .policy(FullQueuePolicy::Block),
    ));
    let handle = engine.start();
    let tier = IngressTier::new(&engine);
    let sessions: Vec<_> = (0..SESSIONS)
        .map(|_| tier.session(source).expect("session"))
        .collect();
    let mut peak = 0usize;
    for (i, burst) in bursts(events).enumerate() {
        let _ = sessions[i % SESSIONS].submit(burst);
        peak = peak.max(engine.queue_depth());
    }
    assert!(tier.drain(Duration::from_secs(120)), "sessions drain");
    let report = tier.shutdown();
    handle.shutdown().expect("shutdown");
    let stats = engine.queue_stats();
    println!(
        "admitted {} / shed {} / credit stalls {}; peak queue depth {peak} (bound {QUEUE_BOUND} held: {})",
        report.admitted,
        report.shed,
        stats.ingress_credit_stalls,
        peak <= QUEUE_BOUND
    );

    // A sanity check worthy of the name "example": the Block policy admits
    // every event, and the sampled backlog respects the bound.
    assert_eq!(report.admitted, events);
    assert_eq!(report.shed, 0);
    assert!(peak <= QUEUE_BOUND);
    assert_eq!(delivered.load(Ordering::Relaxed), events);
}
