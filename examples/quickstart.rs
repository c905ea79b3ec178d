//! Quickstart: two units exchanging labelled events through the DEFCon engine.
//!
//! A `Producer` publishes readings; one part is public, one is confidential. A
//! `Consumer` without the secrecy tag can only see the public part; a second
//! consumer holding the tag in its input label sees everything.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::atomic::{AtomicU64, Ordering};

use defcon::prelude::*;
use defcon_core::context::LabelOp;
use defcon_core::unit::NullUnit;

/// Readings delivered with the patient identity visible, and without it.
static AUTHORISED: AtomicU64 = AtomicU64::new(0);
static DENIED: AtomicU64 = AtomicU64::new(0);

struct Consumer {
    name: &'static str,
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
                AUTHORISED.fetch_add(1, Ordering::Relaxed);
                println!(
                    "[{}] reading from room {room}: patient {} (authorised)",
                    self.name, parts[0].1
                )
            }
            Err(_) => {
                DENIED.fetch_add(1, Ordering::Relaxed);
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
    engine.register_unit(
        UnitSpec::new("public-dashboard"),
        Box::new(Consumer {
            name: "public-dashboard",
        }),
    )?;

    // A privileged consumer: granted t+ so it can raise its input label and read the
    // protected part.
    let clinician = engine.register_unit(
        UnitSpec::new("clinician").with_privilege(Privilege::add(patient_tag.clone())),
        Box::new(Consumer { name: "clinician" }),
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
    // The run checks itself, so it doubles as a test of label visibility.
    assert_eq!(
        (
            AUTHORISED.load(Ordering::Relaxed),
            DENIED.load(Ordering::Relaxed)
        ),
        (1, 1),
        "expected one authorised and one denied reading"
    );
    Ok(())
}
