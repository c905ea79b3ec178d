//! Property-based tests for the DEFC label lattice.
//!
//! These check the algebraic laws that the engine's dispatch logic relies on:
//! can-flow-to must be a partial order and join an upper bound, and a unit's
//! label changes (Table 1's `changeOutLabel` / `changeInOutLabel`, driven
//! through the engine) must be exactly the moves its privileges allow.

use defcon_core::context::LabelOp;
use defcon_core::unit::NullUnit;
use defcon_core::{Engine, SecurityMode, UnitSpec};
use defcon_defc::{Component, Label, Privilege, PrivilegeSet, Tag, TagSet};
use proptest::prelude::*;

/// A small universe of tags shared by all generated labels so that subset relations
/// actually occur (fresh random tags would almost never collide).
fn universe() -> Vec<Tag> {
    (0..8).map(|i| Tag::with_name(format!("u{i}"))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn can_flow_to_is_reflexive(mask in prop::collection::vec(any::<bool>(), 16)) {
        let uni = universe();
        let s: TagSet = uni.iter().zip(&mask[..8]).filter(|(_, k)| **k).map(|(t, _)| t.clone()).collect();
        let i: TagSet = uni.iter().zip(&mask[8..]).filter(|(_, k)| **k).map(|(t, _)| t.clone()).collect();
        let l = Label::new(s, i);
        prop_assert!(l.can_flow_to(&l));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn join_is_a_commutative_idempotent_upper_bound(
        seed in 0u64..u64::MAX,
    ) {
        // Derive two labels deterministically from the seed over a shared universe.
        let uni = universe();
        let pick = |bits: u64| -> Label {
            let s: TagSet = uni.iter().enumerate()
                .filter(|(i, _)| bits >> i & 1 == 1)
                .map(|(_, t)| t.clone())
                .collect();
            let i: TagSet = uni.iter().enumerate()
                .filter(|(i, _)| bits >> (i + 8) & 1 == 1)
                .map(|(_, t)| t.clone())
                .collect();
            Label::new(s, i)
        };
        let a = pick(seed);
        let b = pick(seed.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15);

        let j = a.join(&b);
        prop_assert!(a.can_flow_to(&j));
        prop_assert!(b.can_flow_to(&j));

        // Join is commutative and idempotent.
        prop_assert_eq!(a.join(&b), b.join(&a));
        prop_assert_eq!(a.join(&a), a.clone());

        // Interning canonicalises: operations producing equal values converge
        // to pointer-identical labels.
        prop_assert!(a.join(&b).ptr_eq(&b.join(&a)));

        // Antisymmetry on interned pointers: mutual flow implies the operands
        // are the *same allocation*, so the exhaustive-check formulation
        // (`x ≺ y ∧ y ≺ x ⇒ x == y`) strengthens to identity for interned
        // labels.
        if a.can_flow_to(&b) && b.can_flow_to(&a) {
            prop_assert!(a.ptr_eq(&b));
        }
    }

    #[test]
    fn fingerprint_fast_reject_never_disagrees_with_exact_subset(
        seed in 0u64..u64::MAX,
    ) {
        // Two random tag sets over a shared universe: the fingerprint may
        // only *pass* sets the exact check accepts or rejects — a fingerprint
        // reject must always coincide with an exact-check reject (no false
        // rejects), in both directions (subset and superset duals).
        let uni = universe();
        let pick = |bits: u64| -> TagSet {
            uni.iter().enumerate()
                .filter(|(i, _)| bits >> i & 1 == 1)
                .map(|(_, t)| t.clone())
                .collect()
        };
        let a = pick(seed);
        let b = pick(seed.rotate_left(23) ^ 0xd6e8_feb8_6659_fd93);

        // fp reject ⇒ not a subset (the fast path may never flip an accept).
        if a.fingerprint() & !b.fingerprint() != 0 {
            prop_assert!(!a.is_subset(&b));
        }
        // Contrapositive, the form the hot path relies on: a real subset can
        // never be fingerprint-rejected.
        if a.is_subset(&b) {
            prop_assert_eq!(a.fingerprint() & !b.fingerprint(), 0);
        }
        if b.is_superset(&a) {
            prop_assert_eq!(a.fingerprint() & !b.fingerprint(), 0);
        }

        // End to end: the labelled fast path agrees with the exact scan for
        // every component combination of the two sets.
        for (s_a, i_a, s_b, i_b) in [
            (a.clone(), b.clone(), b.clone(), a.clone()),
            (a.clone(), a.clone(), b.clone(), b.clone()),
            (b.clone(), a.clone(), a.clone(), b.clone()),
        ] {
            let x = Label::new(s_a, i_a);
            let y = Label::new(s_b, i_b);
            prop_assert_eq!(x.can_flow_to(&y), x.can_flow_to_exact(&y));
            if let Some(fast) = x.can_flow_to_fast(&y) {
                prop_assert_eq!(fast, x.can_flow_to_exact(&y));
            }
        }
    }
}

#[test]
fn can_flow_to_is_antisymmetric_and_transitive_on_universe() {
    // Exhaustive check over a tiny universe: 2 tags per component -> 16 labels.
    let tags = universe();
    let (a, b) = (tags[0].clone(), tags[1].clone());
    let sets = [
        TagSet::empty(),
        TagSet::singleton(a.clone()),
        TagSet::singleton(b.clone()),
        [a, b].into_iter().collect::<TagSet>(),
    ];
    let mut labels = Vec::new();
    for s in &sets {
        for i in &sets {
            labels.push(Label::new(s.clone(), i.clone()));
        }
    }
    for x in &labels {
        for y in &labels {
            if x.can_flow_to(y) && y.can_flow_to(x) {
                assert_eq!(x, y, "antisymmetry violated");
                // Interned labels strengthen antisymmetry to pointer identity.
                assert!(x.ptr_eq(y), "equal interned labels must share storage");
            }
            for z in &labels {
                if x.can_flow_to(y) && y.can_flow_to(z) {
                    assert!(x.can_flow_to(z), "transitivity violated");
                }
            }
        }
    }
}

/// The confidentiality-only label over the universe tags whose bits are set.
fn confidential_over(uni: &[Tag], bits: u16) -> Label {
    Label::confidential(
        uni.iter()
            .enumerate()
            .filter(|(i, _)| bits >> i & 1 == 1)
            .map(|(_, t)| t.clone())
            .collect(),
    )
}

/// Registers a unit with input and output label `at` and the given
/// privileges on an unstarted, checking engine.
fn unit_at(at: &Label, privileges: &PrivilegeSet) -> (Engine, defcon_core::UnitId) {
    let engine = Engine::builder()
        .mode(SecurityMode::LabelsFreeze)
        .workers(0)
        .build();
    let unit = engine
        .register_unit(
            UnitSpec::new("mover")
                .with_input_label(at.clone())
                .with_output_label(at.clone())
                .with_privileges(privileges),
            Box::new(NullUnit),
        )
        .unwrap();
    (engine, unit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn owner_privileges_allow_any_transition_over_owned_tags(bits in 0u16..,) {
        let uni = universe();
        let mut privs = PrivilegeSet::empty();
        for t in &uni {
            privs.absorb(&PrivilegeSet::owner(t));
        }
        let from = confidential_over(&uni, bits);
        let to = confidential_over(&uni, bits.rotate_left(5));
        let (engine, unit) = unit_at(&from, &privs);
        let (input, output) = engine.with_unit(unit, |_, ctx| {
            // Both labels move from `from` to `to`, one tag at a time...
            for added in to.confidentiality().difference(from.confidentiality()).iter() {
                ctx.change_in_out_label(Component::Confidentiality, LabelOp::Add, added)?;
            }
            for removed in from.confidentiality().difference(to.confidentiality()).iter() {
                ctx.change_in_out_label(Component::Confidentiality, LabelOp::Remove, removed)?;
            }
            // ...then the output label alone moves back.
            for removed in to.confidentiality().difference(from.confidentiality()).iter() {
                ctx.change_out_label(Component::Confidentiality, LabelOp::Remove, removed)?;
            }
            for added in from.confidentiality().difference(to.confidentiality()).iter() {
                ctx.change_out_label(Component::Confidentiality, LabelOp::Add, added)?;
            }
            Ok((ctx.input_label(), ctx.output_label()))
        }).unwrap();
        prop_assert_eq!(input, to);
        prop_assert_eq!(output, from);
    }

    #[test]
    fn empty_privileges_only_allow_identity_transitions(bits in 1u16..=255u16) {
        let uni = universe();
        let secret = confidential_over(&uni, bits);
        let none = PrivilegeSet::empty();
        // bits >= 1, so `secret` holds at least one tag: a public unit may not
        // add any of them, and a unit at `secret` may not remove any.
        for (at, op) in [(Label::public(), LabelOp::Add), (secret.clone(), LabelOp::Remove)] {
            let (engine, unit) = unit_at(&at, &none);
            let (allowed, input, output) = engine.with_unit(unit, |_, ctx| {
                let mut allowed = 0;
                for tag in secret.confidentiality().iter() {
                    allowed += ctx.change_out_label(Component::Confidentiality, op, tag).is_ok() as usize;
                    allowed += ctx.change_in_out_label(Component::Confidentiality, op, tag).is_ok() as usize;
                }
                Ok((allowed, ctx.input_label(), ctx.output_label()))
            }).unwrap();
            prop_assert_eq!(allowed, 0);
            // Every refused change left both labels where they were.
            prop_assert_eq!(input, at.clone());
            prop_assert_eq!(output, at);
        }
    }
}

#[test]
fn delegation_chain_preserves_model() {
    // u creates tag t -> holds t+auth, t-auth. It self-delegates t+ and t-, then
    // delegates t+ to v. v cannot further delegate because it lacks t+auth.
    let t = Tag::with_name("t");
    let mut u: PrivilegeSet = [
        Privilege::add_authority(t.clone()),
        Privilege::remove_authority(t.clone()),
    ]
    .into_iter()
    .collect();

    u.check_may_delegate(&Privilege::add(t.clone())).unwrap();
    u.grant(Privilege::add(t.clone()));
    u.check_may_delegate(&Privilege::remove(t.clone())).unwrap();
    u.grant(Privilege::remove(t.clone()));

    let mut v = PrivilegeSet::empty();
    u.check_may_delegate(&Privilege::add(t.clone())).unwrap();
    v.grant(Privilege::add(t.clone()));

    assert!(v.check_may_delegate(&Privilege::add(t.clone())).is_err());

    // u can hand over delegation rights too, after which v can delegate.
    u.check_may_delegate(&Privilege::add_authority(t.clone()))
        .unwrap();
    v.grant(Privilege::add_authority(t.clone()));
    assert!(v.check_may_delegate(&Privilege::add(t.clone())).is_ok());
}

#[test]
fn label_components_are_independent() {
    let t = Tag::with_name("t");
    let conf = Label::public().with_tag(Component::Confidentiality, t.clone());
    let integ = Label::public().with_tag(Component::Integrity, t.clone());
    assert!(conf.integrity().is_empty());
    assert!(integ.confidentiality().is_empty());
    assert_ne!(conf, integ);
}
