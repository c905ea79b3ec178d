//! Events: connected collections of labelled parts.
//!
//! §3.1.2: dispatching a single event with secured parts supports the principle of
//! least privilege — units only gain access to the parts their input label allows
//! them to read. §3.1.6: units may modify *some* parts of an event on the main
//! dataflow path; when multiple units make conflicting modifications to a part the
//! event carries both versions.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use defcon_defc::{Label, Privilege};

use crate::part::Part;
use crate::value::Value;
use crate::EventError;

/// A unique identifier for an event instance.
///
/// Identifiers are assigned from a process-wide counter; they have no security
/// meaning (units never observe identifiers of events they cannot read) and exist
/// for diagnostics, deduplication and latency bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

static EVENT_SEQUENCE: AtomicU64 = AtomicU64::new(1);

impl EventId {
    /// Allocates the next event identifier.
    pub fn next() -> Self {
        EventId(EVENT_SEQUENCE.fetch_add(1, Ordering::Relaxed))
    }

    /// Returns the raw counter value.
    pub fn as_u64(&self) -> u64 {
        self.0
    }

    /// Reconstitutes an identifier from its raw value, as stored by the codec.
    ///
    /// Callers that mint events with a recovered id construct them through
    /// [`Event::with_identity`], which keeps future fresh ids collision-free.
    pub fn from_raw(raw: u64) -> Self {
        EventId(raw)
    }

    /// Advances the process-wide id sequence past `raw`, so that identifiers
    /// recovered from a log can never collide with freshly minted ones.
    pub(crate) fn advance_past(raw: u64) {
        EVENT_SEQUENCE.fetch_max(raw.saturating_add(1), Ordering::Relaxed);
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evt#{}", self.0)
    }
}

/// An immutable event: an identifier plus a list of parts.
///
/// Events are cheap to clone (`Arc` internally) and safe to share across threads;
/// all part data is immutable. "Adding a part" produces a new
/// `Event` value that shares the unchanged parts with its predecessor, which is how
/// partial event processing (§3.1.6) avoids relabelling untouched parts.
#[derive(Clone)]
pub struct Event {
    id: EventId,
    /// Monotonic timestamp (nanoseconds) recorded when the originating event was
    /// created; carried across derived events for end-to-end latency measurement.
    origin_ns: u64,
    /// The parts live behind one `Arc<Vec<..>>`: constructing an event is a
    /// single small allocation that adopts the builder's buffer, instead of a
    /// shrink-to-fit plus an `Arc<[Part]>` copy — the publish hot path builds
    /// millions of these.
    parts: Arc<Vec<Part>>,
}

impl Event {
    /// Creates an event from parts. Returns an error if `parts` is empty, since the
    /// engine drops empty events on publish (Table 1, `publish`).
    pub fn new(parts: Vec<Part>) -> Result<Self, EventError> {
        Event::with_origin(parts, now_ns())
    }

    /// Creates an event carrying an explicit origin timestamp, used when an event is
    /// derived from an earlier one and should inherit its latency baseline — or when
    /// a batched publisher stamps a whole batch with one clock read.
    pub fn with_origin(parts: Vec<Part>, origin_ns: u64) -> Result<Self, EventError> {
        if parts.is_empty() {
            return Err(EventError::EmptyEvent);
        }
        Ok(Event {
            id: EventId::next(),
            origin_ns,
            parts: Arc::new(parts),
        })
    }

    /// Reconstitutes an event with an explicit identity, used by recovery and
    /// replay: the decoded event must *be* the original — same id — for
    /// exactly-once accounting and run-to-run delivery comparison to hold
    /// across a crash. Advances the process-wide id sequence past `id` so
    /// later fresh events cannot collide with the recovered one.
    pub fn with_identity(
        id: EventId,
        parts: Vec<Part>,
        origin_ns: u64,
    ) -> Result<Self, EventError> {
        if parts.is_empty() {
            return Err(EventError::EmptyEvent);
        }
        EventId::advance_past(id.as_u64());
        Ok(Event {
            id,
            origin_ns,
            parts: Arc::new(parts),
        })
    }

    /// Returns the event identifier.
    pub fn id(&self) -> EventId {
        self.id
    }

    /// Returns the origin timestamp in nanoseconds.
    pub fn origin_ns(&self) -> u64 {
        self.origin_ns
    }

    /// Returns all parts of the event, regardless of visibility.
    ///
    /// This accessor is intended for the trusted engine; units go through the
    /// engine's `readPart`, which filters by the unit's input label.
    pub fn parts(&self) -> &[Part] {
        self.parts.as_slice()
    }

    /// Returns the number of parts.
    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    /// Returns every part (version) with the given name.
    pub fn parts_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Part> + 'a {
        self.parts.iter().filter(move |p| p.name() == name)
    }

    /// Returns the first part with the given name, if any.
    pub fn first_part(&self, name: &str) -> Option<&Part> {
        self.parts.iter().find(|p| p.name() == name)
    }

    /// Returns a new event with `part` appended, sharing all existing parts.
    ///
    /// This models partial event processing (§3.1.6): the labels of unrelated parts
    /// are not affected by the addition.
    pub fn with_part(&self, part: Part) -> Event {
        let mut parts: Vec<Part> = self.parts.to_vec();
        parts.push(part);
        Event {
            id: self.id,
            origin_ns: self.origin_ns,
            parts: Arc::new(parts),
        }
    }

    /// Implements the label transformation of `cloneEvent` (Table 1): every part of
    /// the clone gets the caller's output confidentiality tags added and only the
    /// caller's output integrity tags retained. The clone receives a fresh
    /// [`EventId`], which is what prevents DEFC violations based on counting
    /// received events.
    pub fn clone_at_output_label(&self, output: &Label) -> Event {
        let parts: Vec<Part> = self
            .parts
            .iter()
            .map(|p| {
                // `S ∪ S_out, I ∩ I_out` is the lattice join; with interned
                // labels it returns the part's own label (by pointer) whenever
                // the part is already at or above the output label, making the
                // common all-parts-unchanged clone allocation-free per part.
                let label = p.label().join(output);
                if label.ptr_eq(p.label()) {
                    p.clone()
                } else {
                    p.with_label(label)
                }
            })
            .collect();
        Event {
            id: EventId::next(),
            origin_ns: self.origin_ns,
            parts: Arc::new(parts),
        }
    }

    /// Produces a deep copy of the event, duplicating all part data.
    ///
    /// This is the per-dispatch cost paid by the `labels+clone` configuration
    /// (Figure 5) and by serialising baselines; DEFCon's share-by-reference dispatch
    /// never calls it on the hot path.
    pub fn deep_clone(&self) -> Event {
        let parts: Vec<Part> = self.parts.iter().map(Part::deep_clone).collect();
        Event {
            id: self.id,
            origin_ns: self.origin_ns,
            parts: Arc::new(parts),
        }
    }

    /// The least upper bound of all part labels: the contamination acquired by a
    /// unit that reads the whole event.
    pub fn overall_label(&self) -> Label {
        // With interned labels, each join step returns the higher operand by
        // reference whenever the accumulator and the next part label are
        // ordered — for the common single-label event this never allocates.
        self.parts
            .iter()
            .fold(Label::public(), |acc, p| acc.join(p.label()))
    }
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} {{", self.id)?;
        for part in self.parts.iter() {
            writeln!(f, "  {part}")?;
        }
        write!(f, "}}")
    }
}

/// A convenience builder for events with several parts.
///
/// ```
/// use defcon_defc::Label;
/// use defcon_events::{EventBuilder, Value};
///
/// let event = EventBuilder::new()
///     .part("type", Label::public(), Value::str("bid"))
///     .part("price", Label::public(), Value::Float(123.4))
///     .build()
///     .unwrap();
/// assert_eq!(event.part_count(), 2);
/// ```
#[derive(Default)]
pub struct EventBuilder {
    parts: Vec<Part>,
    origin_ns: Option<u64>,
}

impl EventBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        EventBuilder::default()
    }

    /// Adds a plain part.
    pub fn part(mut self, name: impl AsRef<str>, label: Label, data: Value) -> Self {
        self.parts.push(Part::new(name, label, data));
        self
    }

    /// Adds a privilege-carrying part.
    pub fn privileged_part(
        mut self,
        name: impl AsRef<str>,
        label: Label,
        data: Value,
        privileges: Vec<Privilege>,
    ) -> Self {
        self.parts
            .push(Part::with_privileges(name, label, data, privileges));
        self
    }

    /// Sets the origin timestamp explicitly (inherited latency baseline).
    pub fn origin_ns(mut self, origin_ns: u64) -> Self {
        self.origin_ns = Some(origin_ns);
        self
    }

    /// Builds the event; fails if no parts were added.
    pub fn build(self) -> Result<Event, EventError> {
        match self.origin_ns {
            Some(origin) => Event::with_origin(self.parts, origin),
            None => Event::new(self.parts),
        }
    }
}

/// Returns a monotonic timestamp in nanoseconds.
pub fn now_ns() -> u64 {
    use std::time::Instant;
    // A process-wide anchor gives readings that are comparable across threads.
    static ANCHOR: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let anchor = ANCHOR.get_or_init(Instant::now);
    anchor.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_defc::{Tag, TagSet};

    fn simple_event() -> Event {
        EventBuilder::new()
            .part("type", Label::public(), Value::str("bid"))
            .part("price", Label::public(), Value::Float(10.0))
            .build()
            .unwrap()
    }

    #[test]
    fn empty_events_are_rejected() {
        assert_eq!(Event::new(vec![]).unwrap_err(), EventError::EmptyEvent);
        assert!(EventBuilder::new().build().is_err());
    }

    #[test]
    fn event_ids_are_unique_and_increasing() {
        let a = simple_event();
        let b = simple_event();
        assert!(b.id().as_u64() > a.id().as_u64());
    }

    #[test]
    fn parts_named_returns_all_versions() {
        let event =
            simple_event().with_part(Part::new("price", Label::public(), Value::Float(11.0)));
        let versions: Vec<_> = event.parts_named("price").collect();
        assert_eq!(versions.len(), 2, "conflicting versions both retained");
        assert_eq!(
            event.first_part("price").unwrap().data(),
            versions[0].data(),
            "the first version comes first"
        );
        assert_eq!(event.part_count(), 3);
    }

    #[test]
    fn with_part_shares_existing_parts_and_keeps_id() {
        let event = simple_event();
        let extended = event.with_part(Part::new("reason", Label::public(), Value::str("ok")));
        assert_eq!(
            extended.id(),
            event.id(),
            "main-path augmentation keeps identity"
        );
        assert_eq!(extended.part_count(), 3);
        assert_eq!(event.part_count(), 2);
        assert_eq!(extended.origin_ns(), event.origin_ns());
    }

    #[test]
    fn clone_at_output_label_applies_table1_transform() {
        let d = Tag::with_name("d");
        let i = Tag::with_name("i");
        let event = EventBuilder::new()
            .part(
                "body",
                Label::new(TagSet::empty(), TagSet::singleton(i.clone())),
                Value::Int(1),
            )
            .build()
            .unwrap();

        // Caller output label: S={d}, I={} — integrity i must be dropped, d added.
        let out = Label::confidential(TagSet::singleton(d.clone()));
        let clone = event.clone_at_output_label(&out);
        assert_ne!(clone.id(), event.id(), "clone gets a fresh identity");
        let part = clone.first_part("body").unwrap();
        assert!(part.label().confidentiality().contains(&d));
        assert!(part.label().integrity().is_empty());
        // Origin timestamp is preserved for latency accounting.
        assert_eq!(clone.origin_ns(), event.origin_ns());
    }

    #[test]
    fn overall_label_joins_part_labels() {
        let a = Tag::with_name("a");
        let b = Tag::with_name("b");
        let event = EventBuilder::new()
            .part(
                "x",
                Label::confidential(TagSet::singleton(a.clone())),
                Value::Int(1),
            )
            .part(
                "y",
                Label::confidential(TagSet::singleton(b.clone())),
                Value::Int(2),
            )
            .build()
            .unwrap();
        let overall = event.overall_label();
        assert!(overall.confidentiality().contains(&a));
        assert!(overall.confidentiality().contains(&b));
    }

    #[test]
    fn deep_clone_duplicates_every_part() {
        let event = simple_event();
        let copy = event.deep_clone();
        assert_eq!(copy.part_count(), event.part_count());
        assert_eq!(copy.id(), event.id());
        for (a, b) in copy.parts().iter().zip(event.parts()) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn builder_with_privileged_part_and_origin() {
        let t = Tag::with_name("t");
        let event = EventBuilder::new()
            .privileged_part(
                "grant",
                Label::public(),
                Value::Tag(t.id()),
                vec![Privilege::add(t.clone())],
            )
            .origin_ns(42)
            .build()
            .unwrap();
        assert_eq!(event.origin_ns(), 42);
        assert!(event.first_part("grant").unwrap().is_privilege_carrying());
    }

    #[test]
    fn with_identity_preserves_id_and_advances_sequence() {
        let raw = simple_event().id().as_u64() + 1000;
        let rebuilt = Event::with_identity(
            EventId::from_raw(raw),
            vec![Part::new("type", Label::public(), Value::str("bid"))],
            7,
        )
        .unwrap();
        assert_eq!(rebuilt.id().as_u64(), raw);
        assert_eq!(rebuilt.origin_ns(), 7);
        assert!(
            simple_event().id().as_u64() > raw,
            "sequence advanced past recovered id"
        );
        assert_eq!(
            Event::with_identity(EventId::from_raw(1), vec![], 0).unwrap_err(),
            EventError::EmptyEvent
        );
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
