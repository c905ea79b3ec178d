//! Bounded admission in action: the same slow-consumer flood run twice —
//! once into an engine without an `IngressConfig` (unbounded publishers),
//! once into one with a bounded run queue, where every `Publisher` admits
//! through its credit window — printing the peak queue depth and admission
//! ledger each way. The unbounded backlog grows with the flood; the bounded
//! engine holds the configured bound. Its credit windows are wider than the
//! bound plus a burst, so no burst runs out of credit and only the bound
//! can make a publisher wait: every credit stall is the bound refusing a
//! chunk.
//!
//! Run with: `cargo run --release --example ingress_admission [events]`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use defcon::prelude::*;
use defcon_core::unit::NullUnit;

const QUEUE_BOUND: usize = 64;
const BURST: u64 = 128;
const PUBLISHERS: usize = 4;
/// Room for a whole burst on top of a full queue's worth of this
/// publisher's events still awaiting their drain, with slack for the drain
/// watermark's overcount.
const CREDIT_WINDOW: usize = 2 * (QUEUE_BOUND + BURST as usize);

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

/// Floods `engine` with `events` ticks in bursts of up to [`BURST`],
/// round-robin over [`PUBLISHERS`] publishers of `source`, and drains it.
/// Returns the events accepted and the peak queue depth sampled after each
/// burst.
fn flood(engine: &Engine, source: UnitId, events: u64) -> (u64, usize) {
    let handle = engine.start();
    let publishers: Vec<_> = (0..PUBLISHERS)
        .map(|_| engine.publisher(source).expect("publisher"))
        .collect();
    let (mut accepted, mut peak) = (0u64, 0usize);
    for (i, start) in (0..events).step_by(BURST as usize).enumerate() {
        let burst = (start..(start + BURST).min(events))
            .map(|seq| {
                EventDraft::new()
                    .public_part("type", Value::str("tick"))
                    .public_part("seq", Value::Int(seq as i64))
            })
            .collect();
        let admission = publishers[i % PUBLISHERS]
            .publish_batch(burst)
            .expect("engine running");
        accepted += admission.accepted() as u64;
        peak = peak.max(engine.queue_depth());
    }
    for publisher in &publishers {
        assert!(publisher.wait_drained(Duration::from_secs(120)), "drains");
    }
    handle.shutdown().expect("shutdown");
    (accepted, peak)
}

fn main() {
    let events: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20_000);

    println!("== no IngressConfig: unbounded publishers, {events} events ==");
    let (engine, source, delivered) = slow_engine(None);
    let (published, peak) = flood(&engine, source, events);
    println!(
        "published {published} events; peak queue depth {peak} (unbounded: grows with the flood)"
    );
    assert_eq!(published, events);
    assert_eq!(delivered.load(Ordering::Relaxed), events);

    println!(
        "\n== IngressConfig: queue bound {QUEUE_BOUND}, credit window {CREDIT_WINDOW}, Block policy =="
    );
    let (engine, source, delivered) = slow_engine(Some(
        IngressConfig::new(QUEUE_BOUND)
            .credit_window(CREDIT_WINDOW)
            .policy(FullQueuePolicy::Block),
    ));
    let (accepted, peak) = flood(&engine, source, events);
    let stats = engine.queue_stats();
    println!(
        "admitted {} / shed {} / credit stalls {}; peak queue depth {peak} (bound {QUEUE_BOUND} held: {})",
        stats.ingress_admitted,
        stats.ingress_shed,
        stats.ingress_credit_stalls,
        peak <= QUEUE_BOUND
    );

    // A sanity check worthy of the name "example": the Block policy admits
    // every event, the bound refused chunks (no window runs out of credit,
    // so each stall is a refusal), and the sampled backlog respects it.
    assert_eq!(accepted, events);
    assert_eq!(stats.ingress_admitted, events);
    assert_eq!(stats.ingress_shed, 0);
    assert!(
        stats.ingress_credit_stalls > 0,
        "the queue bound never refused a chunk"
    );
    assert!(peak <= QUEUE_BOUND);
    assert_eq!(delivered.load(Ordering::Relaxed), events);
}
