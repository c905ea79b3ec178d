//! Quickstart: two units exchanging labelled events through the DEFCon engine.
//!
//! A `Producer` publishes readings; one part is public, one is confidential. A
//! `Consumer` without the secrecy tag can only see the public part; a second
//! consumer holding the tag in its input label sees everything. Each consumer
//! counts what it saw in counters the deployer hands it, never in a `static`:
//! a process-global is a channel between units that no label check sees.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use defcon::prelude::*;
use defcon_core::context::LabelOp;
use defcon_core::unit::NullUnit;

struct Consumer {
    name: &'static str,
    /// Readings delivered with the patient identity visible.
    authorised: Arc<AtomicU64>,
    /// Readings delivered without it.
    denied: Arc<AtomicU64>,
}

impl Consumer {
    /// A consumer, and the deployer's handles on its two counters.
    fn new(name: &'static str) -> (Self, [Arc<AtomicU64>; 2]) {
        let (authorised, denied) = (Arc::default(), Arc::default());
        let counts = [Arc::clone(&authorised), Arc::clone(&denied)];
        let consumer = Consumer {
            name,
            authorised,
            denied,
        };
        (consumer, counts)
    }
}

impl Unit for Consumer {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("reading"))?;
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let room = ctx.read_first(event, "room")?;
        let secret = ctx.read_part(event, "patient");
        match secret {
            Ok(parts) => {
                self.authorised.fetch_add(1, Ordering::Relaxed);
                println!(
                    "[{}] reading from room {room}: patient {} (authorised)",
                    self.name, parts[0].1
                )
            }
            Err(_) => {
                self.denied.fetch_add(1, Ordering::Relaxed);
                println!(
                    "[{}] reading from room {room}: patient identity not visible",
                    self.name
                )
            }
        }
        Ok(())
    }
}

fn main() -> EngineResult<()> {
    let engine = Engine::builder().mode(SecurityMode::LabelsFreeze).build();

    // A producer that owns a confidentiality tag for patient identities.
    let producer = engine.register_unit(UnitSpec::new("producer"), Box::new(NullUnit))?;
    let feed = engine.publisher(producer)?;
    let patient_tag = feed.with_context(|ctx| Ok(ctx.create_owned_tag("s-patient")))?;

    // An unprivileged consumer: sees only public parts.
    let (dashboard, dashboard_counts) = Consumer::new("public-dashboard");
    engine.register_unit(UnitSpec::new("public-dashboard"), Box::new(dashboard))?;

    // A privileged consumer: granted t+ so it can raise its input label and read the
    // protected part.
    let (clinician, clinician_counts) = Consumer::new("clinician");
    let clinician = engine.register_unit(
        UnitSpec::new("clinician").with_privilege(Privilege::add(patient_tag.clone())),
        Box::new(clinician),
    )?;
    engine.with_unit(clinician, |_, ctx| {
        ctx.change_in_out_label(Component::Confidentiality, LabelOp::Add, &patient_tag)
    })?;

    // Start the runtime and publish a reading — a public room number plus a
    // confidential patient id — through the producer's typed publisher handle.
    let handle = engine.start();
    feed.publish(
        EventDraft::new()
            .public_part("type", Value::str("reading"))
            .public_part("room", Value::Int(302))
            .part(
                "patient",
                Label::confidential(TagSet::singleton(patient_tag.clone())),
                Value::str("patient-4711"),
            ),
    )?;

    handle.pump_until_idle()?;
    println!(
        "events published: {}, deliveries: {}, label rejections: {}",
        engine.stats().published(),
        engine.stats().deliveries(),
        engine.stats().label_rejections()
    );
    handle.shutdown()?;
    // The run checks itself, so it doubles as a test of label visibility:
    // the dashboard is denied its one reading and the clinician authorised.
    let read = |[authorised, denied]: &[Arc<AtomicU64>; 2]| {
        (
            authorised.load(Ordering::Relaxed),
            denied.load(Ordering::Relaxed),
        )
    };
    assert_eq!(
        (read(&dashboard_counts), read(&clinician_counts)),
        ((0, 1), (1, 0)),
        "expected one authorised and one denied reading"
    );
    Ok(())
}
