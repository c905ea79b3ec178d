//! Opaque security tags.
//!
//! A [`Tag`] represents one indivisible confidentiality or integrity concern
//! (§3.1.1 of the paper). Tags are implemented as unique, random 128-bit values so
//! that they are unforgeable by processing units: a unit can only obtain a tag by
//! creating it through the engine's tag store or by receiving a reference to it in a
//! privilege-carrying event part (§3.1.5).
//!
//! Tags carry an optional symbolic name (`s-trader-77`, `i-stockticker`, ...) that is
//! used purely for diagnostics; equality, hashing and ordering are defined on the
//! random identifier only.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::RngCore;
use rand::ThreadRng;
use serde::{Deserialize, Serialize};

/// A unique identifier for a [`Tag`].
///
/// The identifier combines a random 64-bit component with a process-wide sequence
/// number, which guarantees uniqueness within a process even if the random number
/// generator were to collide, while remaining hard to guess across processes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TagId(u128);

static TAG_SEQUENCE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Each thread's generator for the random half, seeded once on first use:
    /// seeding reads the clock and the process id, which would otherwise cost
    /// a system call per tag.
    static TAG_RNG: RefCell<ThreadRng> = RefCell::new(rand::thread_rng());
}

impl TagId {
    /// Generates a fresh, unique tag identifier.
    pub fn generate() -> Self {
        let random = TAG_RNG.with(|rng| rng.borrow_mut().next_u64()) as u128;
        let seq = TAG_SEQUENCE.fetch_add(1, Ordering::Relaxed) as u128;
        TagId((random << 64) | seq)
    }

    /// Builds a tag identifier from a raw value.
    ///
    /// Only intended for tests and for deserialising identifiers that were generated
    /// by [`TagId::generate`] elsewhere; using small, guessable values in production
    /// code would defeat the unforgeability assumption.
    pub fn from_raw(raw: u128) -> Self {
        TagId(raw)
    }

    /// Returns the raw 128-bit value.
    pub fn as_raw(&self) -> u128 {
        self.0
    }
}

impl fmt::Debug for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TagId({:032x})", self.0)
    }
}

impl fmt::Display for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Only the low 48 bits are shown: enough to disambiguate in logs while
        // keeping label dumps readable.
        write!(f, "{:012x}", self.0 & 0xffff_ffff_ffff)
    }
}

/// An opaque security tag.
///
/// Cloning a `Tag` is cheap (the name is reference counted) and clones compare equal:
/// a tag's identity is its [`TagId`].
#[derive(Clone, Serialize, Deserialize)]
pub struct Tag {
    id: TagId,
    name: Option<Arc<str>>,
}

impl Tag {
    /// Creates a fresh anonymous tag with a unique identifier.
    pub fn new() -> Self {
        Tag {
            id: TagId::generate(),
            name: None,
        }
    }

    /// Creates a fresh tag with a symbolic name used for diagnostics.
    pub fn with_name(name: impl Into<String>) -> Self {
        Tag {
            id: TagId::generate(),
            name: Some(Arc::from(name.into().into_boxed_str())),
        }
    }

    /// Reconstructs a tag from its identifier, e.g. when a reference is transferred
    /// inside a privilege-carrying event part.
    pub fn from_id(id: TagId) -> Self {
        Tag { id, name: None }
    }

    /// Returns the unique identifier of this tag.
    pub fn id(&self) -> TagId {
        self.id
    }

    /// Returns the symbolic name, if one was assigned at creation time.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }
}

impl Default for Tag {
    fn default() -> Self {
        Tag::new()
    }
}

impl PartialEq for Tag {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Tag {}

impl PartialOrd for Tag {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tag {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.id.cmp(&other.id)
    }
}

impl std::hash::Hash for Tag {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl fmt::Debug for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.name {
            Some(name) => write!(f, "{name}"),
            None => write!(f, "tag:{}", self.id),
        }
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.name {
            Some(name) => write!(f, "{name}"),
            None => write!(f, "tag:{}", self.id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generated_ids_are_unique() {
        let ids: HashSet<TagId> = (0..10_000).map(|_| TagId::generate()).collect();
        assert_eq!(ids.len(), 10_000);
    }

    #[test]
    fn ids_drawn_on_several_threads_are_distinct() {
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| (0..2_000).map(|_| TagId::generate()).collect::<Vec<_>>())
            })
            .collect();
        let ids: Vec<TagId> = threads
            .into_iter()
            .flat_map(|thread| thread.join().unwrap())
            .collect();
        let distinct: HashSet<TagId> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), ids.len());
        let randoms: HashSet<u64> = ids.iter().map(|id| (id.as_raw() >> 64) as u64).collect();
        assert_eq!(
            randoms.len(),
            ids.len(),
            "each thread's generator is seeded apart from the others"
        );
    }

    #[test]
    fn tag_equality_is_by_id_not_name() {
        let a = Tag::with_name("alpha");
        let b = Tag::with_name("alpha");
        assert_ne!(a, b, "same name must not imply same tag");

        let a_clone = a.clone();
        assert_eq!(a, a_clone);
    }

    #[test]
    fn from_id_round_trips() {
        let t = Tag::with_name("x");
        let again = Tag::from_id(t.id());
        assert_eq!(t, again);
        assert_eq!(again.name(), None, "names are not part of identity");
    }

    #[test]
    fn display_prefers_name() {
        let named = Tag::with_name("i-stockticker");
        assert_eq!(named.to_string(), "i-stockticker");
        let anon = Tag::new();
        assert!(anon.to_string().starts_with("tag:"));
    }

    #[test]
    fn raw_round_trip() {
        let id = TagId::generate();
        assert_eq!(TagId::from_raw(id.as_raw()), id);
    }

    #[test]
    fn ordering_is_total_and_consistent_with_eq() {
        let mut tags: Vec<Tag> = (0..100).map(|_| Tag::new()).collect();
        tags.sort();
        for w in tags.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
