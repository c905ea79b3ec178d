//! Security labels and the can-flow-to lattice.
//!
//! A [`Label`] is a pair `(S, I)` of a confidentiality component `S` and an integrity
//! component `I` (§3.1.1). Confidentiality tags are *sticky*: once present, data
//! cannot flow to a place lacking them unless a declassification privilege is
//! exercised. Integrity tags are *fragile*: mixing data destroys any integrity tag
//! not shared by all inputs unless an endorsement privilege is exercised.
//!
//! The "can flow to" relation is
//!
//! ```text
//! (Sa, Ia) ≺ (Sb, Ib)   iff   Sa ⊆ Sb  and  Ia ⊇ Ib
//! ```
//!
//! Labels form a lattice under this order; [`Label::join`] (least upper bound) is the
//! label of data derived from two sources.
//!
//! # Representation
//!
//! Labels are **interned**: every distinct `(S, I)` pair is backed by one shared,
//! immutable allocation carrying the sorted tag vectors, a precomputed hash and a
//! 128-bit tag fingerprint (one 64-bit Bloom word per component). Cloning a label
//! is a reference-count bump; [`Label::can_flow_to`] answers via a
//! pointer-equality fast path, then a fingerprint fast *reject*
//! (`fp(Sa) & !fp(Sb) != 0` proves `Sa ⊄ Sb`, and dually for the integrity
//! superset), and only runs the exact sorted-vector scan when the fingerprints
//! are inconclusive. A fingerprint can produce false *passes*, never false
//! rejects, so the fast path never changes an answer — it only skips work.

use std::fmt;
use std::sync::Arc;

use crate::intern::{self, LabelInner};
use crate::tag::Tag;
use crate::tagset::TagSet;

/// Identifies one of the two components of a label.
///
/// API calls such as `changeOutLabel(⟨S|I⟩, ⟨add|del⟩, t)` in Table 1 of the paper
/// address a component explicitly; this enum is the Rust rendering of `⟨S|I⟩`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// The confidentiality (secrecy) component `S`.
    Confidentiality,
    /// The integrity component `I`.
    Integrity,
}

/// A security label `(S, I)`, interned and cheap to clone.
#[derive(Clone)]
pub struct Label {
    inner: Arc<LabelInner>,
}

impl Label {
    /// The public label: empty confidentiality, empty integrity.
    ///
    /// Data labelled `Label::public()` can flow anywhere but vouches for nothing.
    /// All public labels share one process-wide allocation, so this is
    /// allocation-free and public-vs-public checks hit the pointer fast path.
    #[inline]
    pub fn public() -> Self {
        Label {
            inner: Arc::clone(intern::public_inner()),
        }
    }

    /// Creates a label from its two components, interning the pair.
    pub fn new(confidentiality: TagSet, integrity: TagSet) -> Self {
        Label {
            inner: intern::intern(confidentiality, integrity),
        }
    }

    /// Creates a label with only a confidentiality component.
    pub fn confidential(confidentiality: TagSet) -> Self {
        Label::new(confidentiality, TagSet::empty())
    }

    /// Creates a label **without** consulting the intern table.
    ///
    /// For labels built around freshly created — therefore globally unique —
    /// tags (per-order confinement, per-request grants), an intern lookup is
    /// a guaranteed miss that still pays the process-wide table lock and
    /// leaves a dead entry behind for the sweep. `unshared` builds the label
    /// directly instead: it misses the pointer-equality fast paths (the
    /// fingerprint fast reject still applies, computed lazily) but is
    /// structurally indistinguishable from an interned equal label — use it
    /// when the label's tag set is known never to repeat.
    pub fn unshared(confidentiality: TagSet, integrity: TagSet) -> Self {
        Label {
            inner: Arc::new(LabelInner::new(confidentiality, integrity)),
        }
    }

    /// Creates a label with only an integrity component.
    pub fn endorsed(integrity: TagSet) -> Self {
        Label::new(TagSet::empty(), integrity)
    }

    /// Returns the confidentiality component `S`.
    #[inline]
    pub fn confidentiality(&self) -> &TagSet {
        &self.inner.confidentiality
    }

    /// Returns the integrity component `I`.
    #[inline]
    pub fn integrity(&self) -> &TagSet {
        &self.inner.integrity
    }

    /// Returns the requested component.
    pub fn component(&self, which: Component) -> &TagSet {
        match which {
            Component::Confidentiality => &self.inner.confidentiality,
            Component::Integrity => &self.inner.integrity,
        }
    }

    /// Returns `true` if this label is the public label.
    #[inline]
    pub fn is_public(&self) -> bool {
        self.inner.confidentiality.is_empty() && self.inner.integrity.is_empty()
    }

    /// Returns `true` if both labels are backed by the same interned
    /// allocation. Implies equality; the converse holds for labels produced by
    /// the interning constructors (everything except [`Label::unshared`]).
    #[inline]
    pub fn ptr_eq(&self, other: &Label) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// A token identifying this label's backing allocation, usable as an
    /// identity key in caches and memo tables.
    ///
    /// Two labels with the same token are [`Label::ptr_eq`]. The token is only
    /// meaningful while a clone of the label is kept alive — after the last
    /// clone drops, a future label may reuse the allocation (and the token).
    #[inline]
    pub fn identity(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// The can-flow-to relation: `self ≺ other` iff `S_self ⊆ S_other` and
    /// `I_self ⊇ I_other`.
    ///
    /// Fast paths: pointer equality (reflexivity), then the fingerprint fast
    /// reject; only fingerprint passes run the exact sorted-vector scans.
    #[inline]
    pub fn can_flow_to(&self, other: &Label) -> bool {
        match self.can_flow_to_fast(other) {
            Some(answer) => answer,
            None => self.can_flow_to_exact(other),
        }
    }

    /// Constant-time portion of [`Label::can_flow_to`]: `Some(answer)` when the
    /// pointer/fingerprint fast paths decide, `None` when the exact scan is
    /// needed. Exposed so that the label property tests can check every fast
    /// answer against [`Label::can_flow_to_exact`].
    #[inline]
    pub fn can_flow_to_fast(&self, other: &Label) -> Option<bool> {
        if self.ptr_eq(other) {
            return Some(true);
        }
        let a = self.inner.cached();
        let b = other.inner.cached();
        // S_self ⊆ S_other is impossible if self's Bloom word sets a bit
        // other's does not (a tag can be in S_self only if its bit is set in
        // both words). Dually for I_self ⊇ I_other.
        if a.fp_confidentiality & !b.fp_confidentiality != 0 {
            return Some(false);
        }
        if b.fp_integrity & !a.fp_integrity != 0 {
            return Some(false);
        }
        // Both subset queries trivially hold when their left side is empty.
        if self.inner.confidentiality.is_empty() && other.inner.integrity.is_empty() {
            return Some(true);
        }
        None
    }

    /// The exact sorted-vector scan behind [`Label::can_flow_to`] — the
    /// fallback for fingerprint passes, and the reference the label property
    /// tests compare the fast path against.
    #[inline]
    pub fn can_flow_to_exact(&self, other: &Label) -> bool {
        self.inner
            .confidentiality
            .is_subset(&other.inner.confidentiality)
            && self.inner.integrity.is_superset(&other.inner.integrity)
    }

    /// Least upper bound: the label of data derived from both operands.
    ///
    /// Confidentiality tags accumulate (union, "sticky"); integrity tags only
    /// survive if present in both inputs (intersection, "fragile").
    ///
    /// When one operand already flows to the other the bound *is* the higher
    /// operand; the result is then returned by reference-count bump instead of
    /// allocating, so repeated joins in dispatch cascades converge to shared
    /// pointers.
    pub fn join(&self, other: &Label) -> Label {
        if self.can_flow_to(other) {
            return other.clone();
        }
        if other.can_flow_to(self) {
            return self.clone();
        }
        Label::new(
            self.inner
                .confidentiality
                .union(&other.inner.confidentiality),
            self.inner.integrity.intersection(&other.inner.integrity),
        )
    }

    /// Returns a copy of this label with `tag` added to `component`, interned.
    pub fn with_tag(&self, component: Component, tag: Tag) -> Label {
        if self.component(component).contains(&tag) {
            return self.clone();
        }
        let (mut s, mut i) = (
            self.inner.confidentiality.clone(),
            self.inner.integrity.clone(),
        );
        match component {
            Component::Confidentiality => s.insert(tag),
            Component::Integrity => i.insert(tag),
        }
        Label::new(s, i)
    }

    /// Returns a copy of this label with `tag` removed from `component`, interned.
    pub fn without_tag(&self, component: Component, tag: &Tag) -> Label {
        if !self.component(component).contains(tag) {
            return self.clone();
        }
        let (mut s, mut i) = (
            self.inner.confidentiality.clone(),
            self.inner.integrity.clone(),
        );
        match component {
            Component::Confidentiality => s.remove(tag),
            Component::Integrity => i.remove(tag),
        };
        Label::new(s, i)
    }

    /// Applies the contamination-independence transformation of Table 1:
    /// `S' = S ∪ S_out` and `I' = I ∩ I_out`.
    ///
    /// A unit that asks for a part to be labelled `(S, I)` transparently gets the
    /// tags of its output label folded in, so that sandboxed units cannot write
    /// below their own contamination. The transformation is exactly the lattice
    /// join, so it shares [`Label::join`]'s allocation-free fast paths.
    #[inline]
    pub fn raised_to_output(&self, output: &Label) -> Label {
        self.join(output)
    }

    /// Total size of the label in tags (useful for memory accounting).
    pub fn tag_count(&self) -> usize {
        self.inner.confidentiality.len() + self.inner.integrity.len()
    }
}

impl Default for Label {
    fn default() -> Self {
        Label::public()
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        if self.ptr_eq(other) {
            return true;
        }
        // The precomputed hash is a cheap negative filter; equal sets always
        // share a hash, so a mismatch proves inequality.
        if self.inner.cached().hash != other.inner.cached().hash {
            return false;
        }
        self.inner.confidentiality == other.inner.confidentiality
            && self.inner.integrity == other.inner.integrity
    }
}

impl Eq for Label {}

impl std::hash::Hash for Label {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Structural (set-based) hash, precomputed at intern time: consistent
        // with `Eq` regardless of which allocation backs the label.
        state.write_u64(self.inner.cached().hash);
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(S={:?}, I={:?})",
            self.inner.confidentiality, self.inner.integrity
        )
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(name: &str) -> Tag {
        Tag::with_name(name)
    }

    #[test]
    fn public_flows_to_everything_with_no_integrity() {
        let public = Label::public();
        let secret = Label::confidential(TagSet::singleton(tag("s")));
        assert!(public.can_flow_to(&secret));
        assert!(!secret.can_flow_to(&public));
    }

    #[test]
    fn integrity_flows_downward() {
        let endorsed = Label::endorsed(TagSet::singleton(tag("i-exchange")));
        let plain = Label::public();
        // High-integrity data can flow to low-integrity places...
        assert!(endorsed.can_flow_to(&plain));
        // ...but low-integrity data cannot flow where integrity is required.
        assert!(!plain.can_flow_to(&endorsed));
    }

    #[test]
    fn paper_example_confidentiality_union() {
        // §3.1.1: data from {s-trading, s-client-2402} and {s-trading, s-trader-77}
        // yields all three tags.
        let trading = tag("s-trading");
        let client = tag("s-client-2402");
        let trader = tag("s-trader-77");

        let a = Label::confidential([trading.clone(), client.clone()].into_iter().collect());
        let b = Label::confidential([trading.clone(), trader.clone()].into_iter().collect());
        let joined = a.join(&b);
        assert_eq!(joined.confidentiality().len(), 3);
        for t in [&trading, &client, &trader] {
            assert!(joined.confidentiality().contains(t));
        }
    }

    #[test]
    fn paper_example_integrity_intersection() {
        // §3.1.1: {i-stockticker} mixed with {i-trader-77} yields {}.
        let a = Label::endorsed(TagSet::singleton(tag("i-stockticker")));
        let b = Label::endorsed(TagSet::singleton(tag("i-trader-77")));
        let joined = a.join(&b);
        assert!(joined.integrity().is_empty());
    }

    #[test]
    fn join_is_least_upper_bound() {
        let s1 = tag("s1");
        let s2 = tag("s2");
        let i1 = tag("i1");

        let a = Label::new(TagSet::singleton(s1.clone()), TagSet::singleton(i1.clone()));
        let b = Label::new(TagSet::singleton(s2.clone()), TagSet::empty());
        let j = a.join(&b);

        assert!(a.can_flow_to(&j));
        assert!(b.can_flow_to(&j));
    }

    #[test]
    fn raised_to_output_matches_table1_note() {
        // Table 1 footnote: S' = S ∪ S_out, I' = I ∩ I_out.
        let d = tag("d");
        let t = tag("t");
        let i = tag("i");

        let requested = Label::new(TagSet::singleton(t.clone()), TagSet::singleton(i.clone()));
        let output = Label::new(TagSet::singleton(d.clone()), TagSet::empty());

        let actual = requested.raised_to_output(&output);
        assert!(actual.confidentiality().contains(&d));
        assert!(actual.confidentiality().contains(&t));
        assert!(actual.integrity().is_empty());
    }

    #[test]
    fn component_accessors() {
        let s = tag("s");
        let i = tag("i");
        let label = Label::new(TagSet::singleton(s.clone()), TagSet::singleton(i.clone()));
        assert!(label.component(Component::Confidentiality).contains(&s));
        assert!(label.component(Component::Integrity).contains(&i));
        assert_eq!(label.tag_count(), 2);
        assert!(!label.is_public());
    }

    #[test]
    fn with_and_without_tag_are_value_ops() {
        let s = tag("s");
        let base = Label::public();
        let secret = base.with_tag(Component::Confidentiality, s.clone());
        assert!(base.is_public());
        assert!(secret.confidentiality().contains(&s));
        let back = secret.without_tag(Component::Confidentiality, &s);
        assert!(back.is_public());
    }

    #[test]
    fn equal_constructions_share_one_allocation() {
        let s = tag("s");
        let a = Label::confidential(TagSet::singleton(s.clone()));
        let b = Label::confidential(TagSet::singleton(s.clone()));
        assert!(a.ptr_eq(&b), "interning canonicalises equal labels");
        assert_eq!(a.identity(), b.identity());
        assert!(Label::public().ptr_eq(&Label::default()));
    }

    #[test]
    fn joins_converge_to_shared_pointers() {
        let s = tag("s");
        let secret = Label::confidential(TagSet::singleton(s));
        // public ⊔ secret = secret, by reference — no new allocation.
        assert!(Label::public().join(&secret).ptr_eq(&secret));
        assert!(secret.join(&secret).ptr_eq(&secret));
        // A genuinely new join result is interned: computing it twice yields
        // one allocation.
        let t = tag("t");
        let other = Label::confidential(TagSet::singleton(t));
        assert!(secret.join(&other).ptr_eq(&other.join(&secret)));
    }

    #[test]
    fn unshared_labels_bypass_the_table_but_stay_structural() {
        let s = tag("s");
        let unshared = Label::unshared(TagSet::singleton(s.clone()), TagSet::empty());
        let interned = Label::confidential(TagSet::singleton(s));
        assert!(
            !unshared.ptr_eq(&interned),
            "unshared labels are not canonical"
        );
        assert_eq!(unshared, interned, "equality stays structural");
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash_of = |l: &Label| {
            let mut h = DefaultHasher::new();
            l.hash(&mut h);
            h.finish()
        };
        assert_eq!(
            hash_of(&unshared),
            hash_of(&interned),
            "and so does hashing"
        );
        assert!(unshared.can_flow_to(&interned) && interned.can_flow_to(&unshared));
        // Ordered joins still shortcut by reference, and a join against the
        // interned twin converges back to the canonical allocation.
        assert!(unshared.join(&Label::public()).ptr_eq(&unshared));
        assert!(unshared.join(&interned).ptr_eq(&interned));
    }

    #[test]
    fn fast_path_agrees_with_exact_scan() {
        let tags: Vec<Tag> = (0..6).map(|i| tag(&format!("t{i}"))).collect();
        let sets: Vec<TagSet> = vec![
            TagSet::empty(),
            TagSet::singleton(tags[0].clone()),
            tags[..3].iter().cloned().collect(),
            tags[2..].iter().cloned().collect(),
            tags.iter().cloned().collect(),
        ];
        for s_a in &sets {
            for i_a in &sets {
                for s_b in &sets {
                    for i_b in &sets {
                        let a = Label::new(s_a.clone(), i_a.clone());
                        let b = Label::new(s_b.clone(), i_b.clone());
                        assert_eq!(
                            a.can_flow_to(&b),
                            a.can_flow_to_exact(&b),
                            "fast path disagreed for {a} ≺ {b}"
                        );
                        if let Some(fast) = a.can_flow_to_fast(&b) {
                            assert_eq!(fast, a.can_flow_to_exact(&b));
                        }
                    }
                }
            }
        }
    }
}
