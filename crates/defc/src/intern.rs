//! Process-wide interning of labels.
//!
//! Every distinct `(S, I)` tag-set pair is represented by exactly one shared
//! [`LabelInner`] allocation, handed out as an `Arc`. Interning buys the
//! dispatch hot path three things:
//!
//! * **pointer-equality fast path** — the overwhelmingly common case of
//!   comparing a label against itself (or against the shared public label)
//!   becomes a single pointer comparison;
//! * **precomputed hash** — labels are `HashMap` keys in the engine (dispatch
//!   memos); the hash is computed once at intern
//!   time instead of per lookup;
//! * **tag fingerprints** — one 64-bit Bloom word per component supports a
//!   constant-time *fast reject* of subset/superset queries (see
//!   [`TagSet::fingerprint`](crate::TagSet::fingerprint)); only fingerprint
//!   passes fall back to the exact sorted-vector scan.
//!
//! The table holds weak references: a label no longer referenced anywhere is
//! freed normally, and its dead table entry is swept once the table grows past
//! an adaptive high-water mark, so long-running deployments with churning
//! per-order tags do not accumulate entries forever.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::tagset::TagSet;

/// The shared representation of one distinct `(S, I)` label value.
///
/// Construction goes through [`intern`], which guarantees that at any moment
/// at most one live `LabelInner` exists per distinct tag-set pair (labels
/// built by `Label::unshared` are the only un-interned ones; a lattice
/// operation on them interns its result).
#[derive(Debug, Clone)]
pub(crate) struct LabelInner {
    pub(crate) confidentiality: TagSet,
    pub(crate) integrity: TagSet,
    /// Hash + fingerprints, computed at intern time (lazily for an
    /// un-interned label).
    cache: OnceLock<LabelCache>,
}

/// Precomputed per-label derived data.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LabelCache {
    /// Structural hash over both components (order-sensitive over the sorted
    /// tag vectors, so equal sets always hash equal).
    pub(crate) hash: u64,
    /// Bloom word over the confidentiality tags.
    pub(crate) fp_confidentiality: u64,
    /// Bloom word over the integrity tags.
    pub(crate) fp_integrity: u64,
}

impl LabelInner {
    pub(crate) fn new(confidentiality: TagSet, integrity: TagSet) -> Self {
        LabelInner {
            confidentiality,
            integrity,
            cache: OnceLock::new(),
        }
    }

    /// Returns the cached hash/fingerprints, computing them on first use.
    #[inline]
    pub(crate) fn cached(&self) -> &LabelCache {
        self.cache.get_or_init(|| LabelCache {
            hash: label_hash(&self.confidentiality, &self.integrity),
            fp_confidentiality: self.confidentiality.fingerprint(),
            fp_integrity: self.integrity.fingerprint(),
        })
    }
}

/// SplitMix64: cheap, well-distributed 64-bit mixer.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mixes a 128-bit tag identifier down to a well-distributed 64-bit hash.
#[inline]
pub(crate) fn tag_hash(id: u128) -> u64 {
    mix64(id as u64 ^ mix64((id >> 64) as u64))
}

/// Structural hash of a label: folds both components' tag hashes in sorted
/// order, separated so that moving a tag between components changes the hash.
fn label_hash(confidentiality: &TagSet, integrity: &TagSet) -> u64 {
    let mut h = 0x5151_5151_d3f3_7c4du64;
    for tag in confidentiality.iter() {
        h = mix64(h ^ tag_hash(tag.id().as_raw()));
    }
    h = mix64(h ^ 0xa5a5_a5a5_a5a5_a5a5);
    for tag in integrity.iter() {
        h = mix64(h ^ tag_hash(tag.id().as_raw()));
    }
    h
}

/// The intern table: structural hash → live labels with that hash.
struct InternTable {
    buckets: HashMap<u64, Vec<Weak<LabelInner>>>,
    /// Sweep dead weak entries when the bucket count exceeds this mark; the
    /// mark then adapts to twice the live population (with a floor), so sweep
    /// cost amortises to O(1) per intern.
    high_water: usize,
}

const INTERN_SWEEP_FLOOR: usize = 1024;

fn table() -> &'static Mutex<InternTable> {
    static TABLE: OnceLock<Mutex<InternTable>> = OnceLock::new();
    TABLE.get_or_init(|| {
        Mutex::new(InternTable {
            buckets: HashMap::new(),
            high_water: INTERN_SWEEP_FLOOR,
        })
    })
}

/// The one shared inner for the public label `({}, {})`.
pub(crate) fn public_inner() -> &'static Arc<LabelInner> {
    static PUBLIC: OnceLock<Arc<LabelInner>> = OnceLock::new();
    PUBLIC.get_or_init(|| {
        let inner = LabelInner::new(TagSet::empty(), TagSet::empty());
        inner.cached(); // precompute so the hot path never takes the OnceLock slow path
        Arc::new(inner)
    })
}

/// Returns the canonical shared inner for the `(S, I)` pair, creating and
/// registering it if this is the first time the pair is seen.
pub(crate) fn intern(confidentiality: TagSet, integrity: TagSet) -> Arc<LabelInner> {
    if confidentiality.is_empty() && integrity.is_empty() {
        return Arc::clone(public_inner());
    }
    let hash = label_hash(&confidentiality, &integrity);
    let mut table = table().lock().expect("label intern table poisoned");
    let bucket = table.buckets.entry(hash).or_default();
    let mut slot = None;
    bucket.retain(|weak| match weak.upgrade() {
        Some(existing) => {
            if slot.is_none()
                && existing.confidentiality == confidentiality
                && existing.integrity == integrity
            {
                slot = Some(existing);
            }
            true
        }
        None => false,
    });
    if let Some(existing) = slot {
        return existing;
    }
    let inner = LabelInner::new(confidentiality, integrity);
    inner
        .cache
        .set(LabelCache {
            hash,
            fp_confidentiality: inner.confidentiality.fingerprint(),
            fp_integrity: inner.integrity.fingerprint(),
        })
        .ok();
    let arc = Arc::new(inner);
    bucket.push(Arc::downgrade(&arc));
    if table.buckets.len() > table.high_water {
        sweep(&mut table);
    }
    arc
}

/// Removes empty/dead buckets and re-adapts the high-water mark.
fn sweep(table: &mut InternTable) {
    table.buckets.retain(|_, bucket| {
        bucket.retain(|weak| weak.strong_count() > 0);
        !bucket.is_empty()
    });
    table.high_water = (table.buckets.len() * 2).max(INTERN_SWEEP_FLOOR);
}

/// A snapshot of the intern table's size, for engine memory accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternStats {
    /// Live interned labels (dead entries awaiting a sweep are excluded).
    pub live_labels: usize,
    /// Total tags across all live interned labels.
    pub live_tags: usize,
}

impl InternStats {
    /// Rough heap footprint of the interned labels plus their table entries.
    pub fn estimated_bytes(&self) -> usize {
        // Per label: Arc header + two Vec headers + cache + table entry.
        self.live_labels * 96 + self.live_tags * std::mem::size_of::<crate::Tag>()
    }
}

/// Returns a snapshot of the process-wide label intern table.
///
/// The count walks the table under its lock; intended for periodic memory
/// accounting and diagnostics, not for hot paths.
pub fn intern_stats() -> InternStats {
    let table = table().lock().expect("label intern table poisoned");
    let mut live_labels = 0;
    let mut live_tags = 0;
    for bucket in table.buckets.values() {
        for weak in bucket {
            if let Some(inner) = weak.upgrade() {
                live_labels += 1;
                live_tags += inner.confidentiality.len() + inner.integrity.len();
            }
        }
    }
    InternStats {
        live_labels,
        live_tags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::Tag;

    #[test]
    fn interning_is_canonical() {
        let t = Tag::with_name("t");
        let a = intern(TagSet::singleton(t.clone()), TagSet::empty());
        let b = intern(TagSet::singleton(t.clone()), TagSet::empty());
        assert!(Arc::ptr_eq(&a, &b));
        let c = intern(TagSet::empty(), TagSet::singleton(t));
        assert!(!Arc::ptr_eq(&a, &c), "components are not interchangeable");
    }

    #[test]
    fn public_label_is_a_shared_static() {
        let a = intern(TagSet::empty(), TagSet::empty());
        let b = intern(TagSet::empty(), TagSet::empty());
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, public_inner()));
    }

    #[test]
    fn dead_labels_are_swept_not_leaked() {
        // Create and drop far more labels than the sweep floor; the table must
        // not retain one entry per dropped label.
        for _ in 0..(INTERN_SWEEP_FLOOR * 3) {
            let t = Tag::new();
            let _label = intern(TagSet::singleton(t), TagSet::empty());
        }
        let stats = intern_stats();
        assert!(
            stats.live_labels < INTERN_SWEEP_FLOOR * 3,
            "dropped labels must eventually leave the table (live: {})",
            stats.live_labels
        );
    }

    #[test]
    fn hash_distinguishes_components_and_sets() {
        let t = Tag::with_name("t");
        let u = Tag::with_name("u");
        let conf = label_hash(&TagSet::singleton(t.clone()), &TagSet::empty());
        let integ = label_hash(&TagSet::empty(), &TagSet::singleton(t.clone()));
        let other = label_hash(&TagSet::singleton(u), &TagSet::empty());
        assert_ne!(conf, integ);
        assert_ne!(conf, other);
        // Equal inputs hash equal (determinism).
        assert_eq!(conf, label_hash(&TagSet::singleton(t), &TagSet::empty()));
    }
}
