//! A healthcare event-processing scenario (the paper's other motivating domain,
//! §1/§2.2): ward monitors publish vital-sign events whose patient identity is
//! confidential; an analytics unit computes ward-level statistics without ever being
//! able to see identities; an auditor receives the identity-bearing parts through a
//! privilege-carrying part, mirroring the Regulator pattern of Figure 4.
//!
//! Run with: `cargo run --example healthcare_audit`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use defcon::prelude::*;
use defcon_core::unit::NullUnit;

/// Computes ward-level averages; never sees patient identities.
struct WardAnalytics {
    readings: Arc<AtomicU64>,
}

impl Unit for WardAnalytics {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(Filter::for_type("vitals"))?;
        Ok(())
    }
    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        let heart_rate = ctx.read_first(event, "heart_rate")?;
        assert!(
            ctx.read_part(event, "patient").is_err(),
            "analytics must never see patient identities"
        );
        let _ = heart_rate.as_float();
        self.readings.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Audits sensitive readings: gains the per-patient privilege from the grant part.
struct Auditor {
    audited: Arc<AtomicU64>,
}

impl Unit for Auditor {
    fn init(&mut self, ctx: &mut UnitContext<'_>) -> EngineResult<()> {
        ctx.subscribe(
            Filter::for_type("vitals").where_part("heart_rate", Predicate::GreaterThan(120.0)),
        )?;
        Ok(())
    }
    fn on_event(&mut self, ctx: &mut UnitContext<'_>, event: &Event) -> EngineResult<()> {
        // Reading the grant bestows t+ over the patient tag; raising the input label
        // then reveals the identity (§3.1.5).
        let grant = ctx.read_first(event, "grant")?;
        if let Some(tag_id) = grant.as_tag() {
            let tag = Tag::from_id(tag_id);
            ctx.change_in_out_label(
                Component::Confidentiality,
                defcon_core::context::LabelOp::Add,
                &tag,
            )?;
            let patient = ctx.read_first(event, "patient")?;
            println!("auditor: tachycardia alert for {patient}");
            self.audited.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

fn main() -> EngineResult<()> {
    // Full security, and two dispatcher workers: ward monitors are independent
    // units, so their readings dispatch in parallel.
    let engine = Engine::builder()
        .mode(SecurityMode::LabelsFreezeIsolation)
        .workers(2)
        .build();

    let readings = Arc::new(AtomicU64::new(0));
    let audited = Arc::new(AtomicU64::new(0));
    engine.register_unit(
        UnitSpec::new("ward-analytics"),
        Box::new(WardAnalytics {
            readings: Arc::clone(&readings),
        }),
    )?;
    engine.register_unit(
        UnitSpec::new("auditor"),
        Box::new(Auditor {
            audited: Arc::clone(&audited),
        }),
    )?;

    // Start the runtime; the returned handle drives the engine from here on.
    let handle = engine.start();

    // Ward monitors: one per patient, each owning that patient's confidentiality
    // tag. Privilege-carrying grant parts need the full Table 1 API, so the
    // monitors publish through their publisher's context closure.
    for (patient, heart_rate) in [
        ("patient-A", 72.0),
        ("patient-B", 135.0),
        ("patient-C", 88.0),
    ] {
        let monitor = engine.register_unit(UnitSpec::new("ward-monitor"), Box::new(NullUnit))?;
        let publisher = engine.publisher(monitor)?;
        publisher.with_context(|ctx| {
            let tag = ctx.create_owned_tag(format!("s-{patient}"));
            let draft = ctx.create_event();
            ctx.add_part(&draft, Label::public(), "type", Value::str("vitals"))?;
            ctx.add_part(
                &draft,
                Label::public(),
                "heart_rate",
                Value::Float(heart_rate),
            )?;
            ctx.add_part(
                &draft,
                Label::confidential(TagSet::singleton(tag.clone())),
                "patient",
                Value::str(patient),
            )?;
            // The grant part carries the tag and the privilege needed to read the
            // identity; only abnormal readings are subscribed to by the auditor.
            ctx.add_part(&draft, Label::public(), "grant", Value::Tag(tag.id()))?;
            ctx.attach_privilege_to_part(&draft, "grant", Label::public(), Privilege::add(tag))?;
            ctx.publish(draft)?;
            Ok(())
        })?;
    }

    // Graceful shutdown drains the queue and joins the two workers.
    handle.shutdown()?;
    println!(
        "analytics processed {} readings without identities; auditor inspected {} abnormal readings",
        readings.load(Ordering::Relaxed),
        audited.load(Ordering::Relaxed)
    );
    // The run checks itself, so it doubles as a test of label visibility:
    // analytics panics (and counts nothing) on a reading whose identity it
    // can see.
    assert_eq!(
        (
            readings.load(Ordering::Relaxed),
            audited.load(Ordering::Relaxed)
        ),
        (3, 1),
        "expected 3 readings and 1 audit"
    );
    Ok(())
}
