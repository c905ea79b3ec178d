//! The subscription table and its inverted index: sublinear candidate
//! selection for dispatch, maintained where the list is edited.
//!
//! The naive matcher evaluates every subscription's filter against every event,
//! so planning cost is O(subscriptions × events) — unusable at the paper's
//! "millions of users" fan-out scale. This module inverts the problem the way
//! content-based pub/sub brokers do: each subscription is indexed under **one**
//! clause of its filter, and an event's candidate set is the union of the index
//! lists for its part names (and string or integer part values). The exact
//! filter — and the flow check — then run only on candidates.
//!
//! # The candidate-superset invariant
//!
//! A [`Filter`] is a *conjunction* of clauses, and a clause on part `name` can
//! only be satisfied by a part named `name`. Therefore a filter can only match
//! an event if **every** clause's name occurs among the event's part names — in
//! particular the one clause this index chose for it. Unioning the lists for
//! all of the event's parts thus yields a **superset** of the true matches, for
//! any visibility predicate (visibility only shrinks the match set further).
//! False positives are eliminated by running the exact filter on candidates;
//! false negatives cannot happen.
//!
//! # Keying by the most selective literal
//!
//! * A clause `name == literal` with a string or integer literal (or `name in
//!   [...]`) is keyed by **value** as well as name: [`Value::structurally_equals`]
//!   never equates across variants, so such a clause can only match a part
//!   whose data is exactly that string or integer — looking up each string- or
//!   integer-valued part's content finds every such subscription, and parts of
//!   any other variant can never satisfy the clause.
//! * A filter with several such clauses is keyed under the one whose
//!   `(name, literal)` pairs the fewest filters name; a `OneOf` costs the sum
//!   of its options. A Pair Monitor (`type == tick ∧ symbol == S`) thus lands
//!   under its symbol rather than under every tick, and a Trader (`type ==
//!   match ∧ trader == id`) under its own id, so a tick's or a match's
//!   candidates are its matches. The counts come from the last full build,
//!   which counts the filters that have a choice (two or more keyable
//!   clauses); a filter with one keyable clause is keyed by it, and one with
//!   none falls back to the name-only bucket of its first clause.
//!
//! Keys hash by **content**, not by interned-pointer identity: the
//! `part_name()` intern table stops deduplicating past its capacity, so pointer
//! identity is not guaranteed for rare names.
//!
//! # Maintenance
//!
//! The index lives in the engine's [`SubscriptionTable`] and is updated under
//! the same write lock as the list it indexes, so a change to the population
//! costs what changed, not a rebuild:
//!
//! * Positions are stable. An added subscription is appended and keyed by
//!   [`SubscriptionIndex::insert`] against the key counts of the last full
//!   build. A removed one leaves a tombstone in the list, and its position is
//!   deleted from the one bucket its key names: the key is recomputed from the
//!   same counts, so it is the one `insert` chose.
//! * [`SubscriptionIndex::build`] is the only build routine. The table runs it
//!   once the changes since the last build exceed half the live count, which
//!   keeps maintenance amortised O(1) per change, restores keying quality after
//!   bulk set-up, and compacts the tombstones away.
//! * Entries are shared `Arc`s, and the list, the index and each of the
//!   index's name and literal buckets are copy-on-write (`Arc::make_mut`).
//!   While no dispatcher snapshot holds them — all of set-up — an edit happens
//!   in place; otherwise it copies the list's pointers and the buckets it
//!   touches, never the whole index.
//! * Equal filters share one allocation: `push` finds an added
//!   subscription's filter by structural hash and hands it the registered
//!   equal one, so dispatch can memoise a filter's result per event by
//!   pointer. The full build drops the shared filters no subscription holds
//!   any more, so churn cannot grow that map.
//!
//! A dispatcher refreshes its snapshot once per security epoch that reaches a
//! dispatch: it clones the table's `Arc`s and snapshots each *owner unit*
//! once, through the dense owner ordinal the table keeps per entry.
//! [`IndexCounters`] exposes the refresh count plus per-plan
//! candidate/reject telemetry through `queue_stats()`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use defcon_events::{Event, Filter, Predicate, Value};

use crate::subscription::{Subscription, SubscriptionId};
use crate::unit::UnitId;

/// Telemetry of the subscription index, sampled by `Engine::queue_stats`.
///
/// `candidates` versus the registered subscription count is the sublinearity
/// check: accumulated candidate-set sizes stay proportional to *matching*
/// subscriptions, not registered ones.
#[derive(Debug, Default)]
pub(crate) struct IndexCounters {
    /// Candidate subscriptions produced across all indexed plans (accumulated
    /// candidate-set sizes; a linear scan would have counted every
    /// registered subscription once per event instead).
    pub(crate) candidates: AtomicU64,
    /// Candidates whose exact filter (or flow check) rejected the delivery —
    /// the index's false positives, paid at exact-match cost only.
    pub(crate) exact_rejects: AtomicU64,
    /// Times a dispatcher refreshed its snapshot of the index: once per
    /// security epoch that dispatched, never once per batch.
    pub(crate) rebuilds: AtomicU64,
}

impl IndexCounters {
    pub(crate) fn candidates(&self) -> u64 {
        self.candidates.load(Ordering::Relaxed)
    }

    pub(crate) fn exact_rejects(&self) -> u64 {
        self.exact_rejects.load(Ordering::Relaxed)
    }

    pub(crate) fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }
}

/// A literal an equality clause can confine its part to, borrowed from the
/// filter (or the event part) it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Literal<'a> {
    Str(&'a str),
    Int(i64),
}

impl<'a> Literal<'a> {
    /// The key `value` is looked up (or indexed) by, if it has one.
    fn of(value: &'a Value) -> Option<Self> {
        match value {
            Value::Str(text) => Some(Literal::Str(text)),
            Value::Int(number) => Some(Literal::Int(*number)),
            _ => None,
        }
    }
}

/// Whether a clause can only match parts carrying one of finitely many
/// keyable literals.
fn keyable(predicate: &Predicate) -> bool {
    match predicate {
        Predicate::Equals(value) => Literal::of(value).is_some(),
        Predicate::OneOf(_) => true,
        _ => false,
    }
}

/// The literals a keyable clause can match (none for any other shape).
fn literals(predicate: &Predicate) -> impl Iterator<Item = Literal<'_>> {
    let (equal, options) = match predicate {
        Predicate::Equals(value) => (Literal::of(value), &[][..]),
        Predicate::OneOf(options) => (None, options.as_slice()),
        _ => (None, &[][..]),
    };
    equal
        .into_iter()
        .chain(options.iter().map(|option| Literal::Str(option)))
}

/// `map[key]`, inserting a default under an owned copy of `key` only on first
/// sight, so lookups of known keys stay borrowed.
fn entry_for<'m, V: Default>(map: &'m mut HashMap<String, V>, key: &str) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("entry just ensured")
}

/// Per-name map from literal to a `T`: by string, and by integer.
#[derive(Debug, Clone, Default)]
struct ByLiteral<T> {
    by_str: HashMap<String, T>,
    by_int: HashMap<i64, T>,
}

impl<T: Default> ByLiteral<T> {
    fn get(&self, literal: Literal<'_>) -> Option<&T> {
        match literal {
            Literal::Str(text) => self.by_str.get(text),
            Literal::Int(number) => self.by_int.get(&number),
        }
    }

    fn get_mut(&mut self, literal: Literal<'_>) -> Option<&mut T> {
        match literal {
            Literal::Str(text) => self.by_str.get_mut(text),
            Literal::Int(number) => self.by_int.get_mut(&number),
        }
    }

    fn get_or_default(&mut self, literal: Literal<'_>) -> &mut T {
        match literal {
            Literal::Str(text) => entry_for(&mut self.by_str, text),
            Literal::Int(number) => self.by_int.entry(number).or_default(),
        }
    }

    fn remove(&mut self, literal: Literal<'_>) {
        match literal {
            Literal::Str(text) => self.by_str.remove(text),
            Literal::Int(number) => self.by_int.remove(&number),
        };
    }
}

/// How many filters with a choice of key name each `(part name, literal)`, as
/// counted by the last full build.
type KeyCounts = HashMap<String, ByLiteral<u32>>;

/// A list of subscription positions in ascending order, copied on write.
type Bucket = Arc<Vec<u32>>;

/// The per-name bucket: subscriptions keyed by an exact value of an equality
/// clause on this name, plus those keyed by name only.
#[derive(Debug, Clone, Default)]
struct NameEntry {
    /// Subscriptions whose chosen clause is `name == literal` / `name in
    /// [...]`, listed under each literal they can match.
    keyed: ByLiteral<Bucket>,
    /// Subscriptions whose filter has no keyable clause and whose first
    /// clause names this part: candidates for every event carrying the name.
    any_value: Bucket,
}

/// An inverted index from part name (and string or integer part value) to
/// the positions of the subscriptions whose filters could match an event
/// carrying that part.
///
/// Lists hold positions in the subscription list in ascending order, so
/// unioned candidate sets preserve subscription order after a sort + dedup.
/// Cloning copies the name map; its entries, their buckets and the counts
/// stay shared until written.
#[derive(Debug, Clone, Default)]
pub(crate) struct SubscriptionIndex {
    names: HashMap<String, Arc<NameEntry>>,
    /// The key counts of the build this index came from; `insert` and
    /// `remove` key by them until the next build.
    counts: Arc<KeyCounts>,
}

impl SubscriptionIndex {
    /// Builds the index over a subscription list's filters, in list order:
    /// one pass counting the keys of filters with a choice to make, one pass
    /// inserting. Empty filters (which never match — the engine rejects them
    /// at subscribe anyway) are left out entirely.
    pub(crate) fn build<'a>(filters: impl Iterator<Item = &'a Filter> + Clone) -> Self {
        let mut counts = KeyCounts::new();
        for filter in filters.clone() {
            let clauses = filter.clauses();
            let mut keyed = clauses.iter().filter(|(_, predicate)| keyable(predicate));
            if keyed.nth(1).is_none() {
                continue;
            }
            for (name, predicate) in clauses {
                for literal in literals(predicate) {
                    *entry_for(&mut counts, name).get_or_default(literal) += 1;
                }
            }
        }
        let mut index = SubscriptionIndex {
            names: HashMap::new(),
            counts: Arc::new(counts),
        };
        for (position, filter) in filters.enumerate() {
            index.insert(position as u32, filter);
        }
        index
    }

    /// The clause `filter` is indexed under: the keyable clause whose
    /// literals the fewest filters name (the first on ties; a lone keyable
    /// clause wins whatever its count), else its first clause by name only.
    /// `None` for an empty filter.
    fn chosen<'f>(&self, filter: &'f Filter) -> Option<(&'f str, Option<&'f Predicate>)> {
        let cost = |(name, predicate): &&(String, Predicate)| -> u32 {
            let counts = self.counts.get(name.as_str());
            literals(predicate)
                .map(|literal| {
                    counts
                        .and_then(|counts| counts.get(literal))
                        .copied()
                        .unwrap_or(0)
                })
                .sum()
        };
        let clauses = filter.clauses();
        match clauses
            .iter()
            .filter(|(_, predicate)| keyable(predicate))
            .min_by_key(cost)
        {
            Some((name, predicate)) => Some((name, Some(predicate))),
            None => clauses.first().map(|(name, _)| (name.as_str(), None)),
        }
    }

    /// Lists the subscription at `position` — which must exceed every
    /// position already listed — under the key its filter chooses.
    pub(crate) fn insert(&mut self, position: u32, filter: &Filter) {
        let Some((name, keyed)) = self.chosen(filter) else {
            return;
        };
        let entry = Arc::make_mut(entry_for(&mut self.names, name));
        let Some(predicate) = keyed else {
            push(&mut entry.any_value, position);
            return;
        };
        // `in []` lists no literal and so is indexed nowhere, which keeps it
        // out of every candidate set — exactly its match set.
        for literal in literals(predicate) {
            push(entry.keyed.get_or_default(literal), position);
        }
    }

    /// Unlists the subscription at `position` from the buckets `insert` put
    /// it in, dropping literal buckets it leaves empty.
    pub(crate) fn remove(&mut self, position: u32, filter: &Filter) {
        let Some((name, keyed)) = self.chosen(filter) else {
            return;
        };
        let Some(entry) = self.names.get_mut(name) else {
            return;
        };
        let entry = Arc::make_mut(entry);
        let Some(predicate) = keyed else {
            unlist(&mut entry.any_value, position);
            return;
        };
        for literal in literals(predicate) {
            // A `OneOf` listing an option twice finds it gone the second time.
            let Some(bucket) = entry.keyed.get_mut(literal) else {
                continue;
            };
            unlist(bucket, position);
            if bucket.is_empty() {
                entry.keyed.remove(literal);
            }
        }
    }

    /// Appends the candidate subscriptions for one part (by name, and by value
    /// for string- or integer-valued data) to `out`. Duplicates across parts
    /// are expected; callers dedupe once per event.
    pub(crate) fn candidates_for_part(&self, name: &str, data: &Value, out: &mut Vec<u32>) {
        let Some(entry) = self.names.get(name) else {
            return;
        };
        out.extend_from_slice(&entry.any_value);
        if let Some(list) = Literal::of(data).and_then(|literal| entry.keyed.get(literal)) {
            out.extend_from_slice(list);
        }
    }

    /// Replaces `out` with the deduplicated, ascending candidate set for
    /// `event`: the union over all of its parts. A superset of the
    /// subscriptions whose filters match the event under any visibility.
    pub(crate) fn candidates_into(&self, event: &Event, out: &mut Vec<u32>) {
        out.clear();
        for part in event.parts() {
            self.candidates_for_part(part.name(), part.data(), out);
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// Appends `position` to a bucket (copying it if a snapshot shares it). A
/// `OneOf` listing an option twice must not list the subscription twice.
fn push(bucket: &mut Bucket, position: u32) {
    if bucket.last() != Some(&position) {
        Arc::make_mut(bucket).push(position);
    }
}

/// Deletes `position` from a bucket (copying it if a snapshot shares it).
fn unlist(bucket: &mut Bucket, position: u32) {
    if let Ok(at) = bucket.binary_search(&position) {
        Arc::make_mut(bucket).remove(at);
    }
}

/// A registered subscription and the dense ordinal of its owner unit.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub(crate) subscription: Arc<Subscription>,
    pub(crate) owner: u32,
}

/// The subscription list by position; `None` is a removed subscription's
/// tombstone.
pub(crate) type Entries = Arc<Vec<Option<Entry>>>;

/// One owner unit and the positions of its live subscriptions.
#[derive(Debug)]
struct Owner {
    unit: UnitId,
    positions: Vec<u32>,
}

/// The engine's subscription table: the list in registration order, its
/// index, and a dense ordinal per owner unit (see the module docs,
/// "Maintenance").
#[derive(Debug)]
pub(crate) struct SubscriptionTable {
    entries: Entries,
    index: Arc<SubscriptionIndex>,
    /// Owner units by ordinal; `None` marks a free ordinal.
    owners: Vec<Option<Owner>>,
    ordinals: HashMap<UnitId, u32>,
    free: Vec<u32>,
    live: usize,
    /// Additions plus removals since the last build.
    changes: usize,
    /// The shared filters, by structural hash: `push` hands an added
    /// subscription the allocation of an equal filter already registered.
    /// The full build drops those only this map still holds.
    filters: HashMap<u64, Arc<Filter>>,
}

/// What a dispatcher refresh takes from the table under its read lock.
pub(crate) struct TableSnapshot {
    pub(crate) entries: Entries,
    pub(crate) index: Arc<SubscriptionIndex>,
    /// Owner units by ordinal; `None` for a free ordinal.
    pub(crate) owners: Vec<Option<UnitId>>,
}

impl SubscriptionTable {
    pub(crate) fn new() -> Self {
        SubscriptionTable {
            entries: Arc::new(Vec::new()),
            index: Arc::default(),
            owners: Vec::new(),
            ordinals: HashMap::new(),
            free: Vec::new(),
            live: 0,
            changes: 0,
            filters: HashMap::new(),
        }
    }

    /// Live subscriptions (tombstones are not counted).
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    pub(crate) fn snapshot(&self) -> TableSnapshot {
        TableSnapshot {
            entries: Arc::clone(&self.entries),
            index: Arc::clone(&self.index),
            owners: self
                .owners
                .iter()
                .map(|owner| owner.as_ref().map(|owner| owner.unit))
                .collect(),
        }
    }

    /// Appends a subscription after every live one, sharing the filter of an
    /// equal one already registered.
    pub(crate) fn push(&mut self, mut subscription: Subscription) {
        subscription.filter = self.share(subscription.filter);
        let ordinal = self.ordinal(subscription.owner);
        let position = self.entries.len() as u32;
        Arc::make_mut(&mut self.index).insert(position, &subscription.filter);
        self.owners[ordinal as usize]
            .as_mut()
            .expect("mapped ordinals are occupied")
            .positions
            .push(position);
        Arc::make_mut(&mut self.entries).push(Some(Entry {
            subscription: Arc::new(subscription),
            owner: ordinal,
        }));
        self.live += 1;
        self.changed(1);
    }

    /// Removes `unit`'s subscription `id`; `false` when it has none such.
    pub(crate) fn unsubscribe(&mut self, id: SubscriptionId, unit: UnitId) -> bool {
        let Some(&ordinal) = self.ordinals.get(&unit) else {
            return false;
        };
        let entries = &self.entries;
        let owner = self.owners[ordinal as usize]
            .as_mut()
            .expect("mapped ordinals are occupied");
        let Some(at) = owner.positions.iter().position(|&position| {
            entries[position as usize]
                .as_ref()
                .is_some_and(|entry| entry.subscription.id == id)
        }) else {
            return false;
        };
        let position = owner.positions.remove(at);
        if owner.positions.is_empty() {
            self.release(unit);
        }
        self.tombstone(position);
        self.changed(1);
        true
    }

    /// Removes every subscription `unit` owns.
    pub(crate) fn remove_owner(&mut self, unit: UnitId) {
        let Some(owner) = self.release(unit) else {
            return;
        };
        for &position in &owner.positions {
            self.tombstone(position);
        }
        self.changed(owner.positions.len());
    }

    /// The registered filter equal to `filter`, or `filter` itself, recorded
    /// for the next equal one. A filter whose hash another filter holds, a
    /// 64-bit collision, keeps its own allocation.
    fn share(&mut self, filter: Arc<Filter>) -> Arc<Filter> {
        let mut hasher = DefaultHasher::new();
        filter.hash(&mut hasher);
        let shared = self
            .filters
            .entry(hasher.finish())
            .or_insert_with(|| Arc::clone(&filter));
        if **shared == *filter {
            Arc::clone(shared)
        } else {
            filter
        }
    }

    /// `unit`'s owner ordinal, allocated (a freed one first) on its first
    /// subscription.
    fn ordinal(&mut self, unit: UnitId) -> u32 {
        if let Some(&ordinal) = self.ordinals.get(&unit) {
            return ordinal;
        }
        let owner = Some(Owner {
            unit,
            positions: Vec::new(),
        });
        let ordinal = match self.free.pop() {
            Some(ordinal) => {
                self.owners[ordinal as usize] = owner;
                ordinal
            }
            None => {
                self.owners.push(owner);
                (self.owners.len() - 1) as u32
            }
        };
        self.ordinals.insert(unit, ordinal);
        ordinal
    }

    /// Frees `unit`'s ordinal for reuse, returning its record.
    fn release(&mut self, unit: UnitId) -> Option<Owner> {
        let ordinal = self.ordinals.remove(&unit)?;
        self.free.push(ordinal);
        self.owners[ordinal as usize].take()
    }

    fn tombstone(&mut self, position: u32) {
        let entry = Arc::make_mut(&mut self.entries)[position as usize]
            .take()
            .expect("owned positions are live");
        Arc::make_mut(&mut self.index).remove(position, &entry.subscription.filter);
        self.live -= 1;
    }

    /// Counts `changes` edits and runs the full build once they exceed half
    /// the live count: it compacts the tombstones away, renumbers positions
    /// and rebuilds the index under fresh key counts.
    fn changed(&mut self, changes: usize) {
        self.changes += changes;
        if self.changes <= self.live / 2 {
            return;
        }
        self.changes = 0;
        let entries = Arc::make_mut(&mut self.entries);
        entries.retain(Option::is_some);
        for owner in self.owners.iter_mut().flatten() {
            owner.positions.clear();
        }
        for (position, entry) in entries.iter().flatten().enumerate() {
            self.owners[entry.owner as usize]
                .as_mut()
                .expect("live entries have owners")
                .positions
                .push(position as u32);
        }
        let filters = entries
            .iter()
            .flatten()
            .map(|entry| &*entry.subscription.filter);
        self.index = Arc::new(SubscriptionIndex::build(filters));
        self.filters
            .retain(|_, filter| Arc::strong_count(filter) > 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_defc::Label;
    use defcon_events::EventBuilder;

    fn event(parts: &[(&str, Value)]) -> Event {
        let mut builder = EventBuilder::new();
        for (name, data) in parts {
            builder = builder.part(*name, Label::public(), data.clone());
        }
        builder.build().unwrap()
    }

    fn candidates(index: &SubscriptionIndex, event: &Event) -> Vec<u32> {
        let mut out = Vec::new();
        index.candidates_into(event, &mut out);
        out
    }

    #[test]
    fn string_equality_filters_key_by_value() {
        let filters = [
            Filter::for_type("tick"),
            Filter::for_type("order"),
            Filter::for_type("tick").where_exists("price"),
        ];
        let index = SubscriptionIndex::build(filters.iter());
        let tick = event(&[("type", Value::str("tick")), ("price", Value::Float(1.0))]);
        assert_eq!(candidates(&index, &tick), vec![0, 2]);
        let order = event(&[("type", Value::str("order"))]);
        assert_eq!(candidates(&index, &order), vec![1]);
    }

    #[test]
    fn non_equality_filters_fall_back_to_the_name_bucket() {
        let filters = [
            Filter::new().where_part("price", Predicate::GreaterThan(10.0)),
            Filter::new().where_exists("volume"),
        ];
        let index = SubscriptionIndex::build(filters.iter());
        let with_price = event(&[("price", Value::Float(5.0))]);
        // Candidate even though the exact filter will reject it: the index
        // promises a superset, never exactness.
        assert_eq!(candidates(&index, &with_price), vec![0]);
        let with_both = event(&[("price", Value::Int(1)), ("volume", Value::Int(2))]);
        assert_eq!(candidates(&index, &with_both), vec![0, 1]);
    }

    #[test]
    fn one_of_filters_are_listed_under_each_option() {
        let filters = [Filter::new().where_part(
            "symbol",
            Predicate::OneOf(vec!["MSFT".into(), "GOOG".into(), "MSFT".into()]),
        )];
        let index = SubscriptionIndex::build(filters.iter());
        let msft = event(&[("symbol", Value::str("MSFT"))]);
        assert_eq!(candidates(&index, &msft), vec![0], "deduplicated");
        let goog = event(&[("symbol", Value::str("GOOG"))]);
        assert_eq!(candidates(&index, &goog), vec![0]);
        let aapl = event(&[("symbol", Value::str("AAPL"))]);
        assert!(candidates(&index, &aapl).is_empty());
    }

    #[test]
    fn empty_filters_and_empty_one_of_are_never_candidates() {
        let filters = [
            Filter::new(),
            Filter::new().where_part("symbol", Predicate::OneOf(Vec::new())),
        ];
        let index = SubscriptionIndex::build(filters.iter());
        let anything = event(&[("symbol", Value::str("MSFT")), ("type", Value::str("x"))]);
        assert!(candidates(&index, &anything).is_empty());
    }

    #[test]
    fn candidate_sets_are_supersets_of_matches() {
        // Every filter that matches the event must be a candidate, whatever
        // clause the index chose for it.
        let filters = [
            Filter::for_type("tick").where_eq("symbol", "MSFT"),
            Filter::new()
                .where_part("price", Predicate::LessThan(100.0))
                .where_eq("symbol", "MSFT"),
            Filter::new().where_exists("price"),
            Filter::new().where_eq("symbol", 42i64), // non-string equality
            Filter::for_type("order"),               // does not match
        ];
        let index = SubscriptionIndex::build(filters.iter());
        let tick = event(&[
            ("type", Value::str("tick")),
            ("symbol", Value::str("MSFT")),
            ("price", Value::Float(9.5)),
        ]);
        let candidate_set = candidates(&index, &tick);
        for (position, filter) in filters.iter().enumerate() {
            if filter.matches_any_visibility(&tick) {
                assert!(
                    candidate_set.contains(&(position as u32)),
                    "matching filter {position} must be a candidate"
                );
            }
        }
        assert!(
            !candidate_set.contains(&4),
            "value-keyed miss prunes the non-matching type"
        );
    }

    #[test]
    fn monitor_filters_key_by_symbol_not_by_type() {
        // Pair Monitors name both `type == tick` and their symbol; every
        // monitor names the same type, so the symbol is the selective key.
        let filters = [
            Filter::for_type("tick").where_eq("symbol", "MSFT"),
            Filter::for_type("tick").where_eq("symbol", "GOOG"),
            Filter::for_type("tick").where_eq("symbol", "MSFT"),
            Filter::for_type("tick"), // a probe: one keyable clause, keyed by it
        ];
        let index = SubscriptionIndex::build(filters.iter());
        let goog = event(&[("type", Value::str("tick")), ("symbol", Value::str("GOOG"))]);
        assert_eq!(candidates(&index, &goog), vec![1, 3]);
        let msft = event(&[("type", Value::str("tick")), ("symbol", Value::str("MSFT"))]);
        assert_eq!(candidates(&index, &msft), vec![0, 2, 3]);
    }

    #[test]
    fn integer_equality_keys_by_value() {
        // Traders name `type == match` and their integer id: the id is keyed,
        // so a match reaches only its trader's subscription.
        let filters: Vec<Filter> = (0..3)
            .map(|trader| Filter::for_type("match").where_eq("trader", trader as i64))
            .collect();
        let index = SubscriptionIndex::build(filters.iter());
        let for_one = event(&[("type", Value::str("match")), ("trader", Value::Int(1))]);
        assert_eq!(candidates(&index, &for_one), vec![1]);
        // `structurally_equals` never crosses variants: a string "1" or a
        // float 1.0 cannot satisfy `trader == 1`, so neither is looked up.
        for other in [Value::str("1"), Value::Float(1.0)] {
            let miss = event(&[("type", Value::str("match")), ("trader", other)]);
            assert!(candidates(&index, &miss).is_empty());
        }
        // A lone integer clause is keyed by value too.
        let single = [Filter::new().where_eq("trader", 7i64)];
        let index = SubscriptionIndex::build(single.iter());
        assert_eq!(
            candidates(&index, &event(&[("trader", Value::Int(7))])),
            vec![0]
        );
        assert!(candidates(&index, &event(&[("trader", Value::Int(8))])).is_empty());
    }

    #[test]
    fn one_of_costs_the_sum_of_its_options() {
        // `symbol in [A, B]` would pull in every subscription keyed under A or
        // B: 2 + 2 filters name those, more than the 3 naming `lane == L1`,
        // so filter 2 is keyed by its lane while 0 and 1 keep their symbols.
        let filters = [
            Filter::new().where_eq("symbol", "A").where_eq("lane", "L1"),
            Filter::new().where_eq("symbol", "B").where_eq("lane", "L1"),
            Filter::new()
                .where_part("symbol", Predicate::OneOf(vec!["A".into(), "B".into()]))
                .where_eq("lane", "L1"),
        ];
        let index = SubscriptionIndex::build(filters.iter());
        let lane_only = event(&[("lane", Value::str("L1")), ("symbol", Value::str("Z"))]);
        assert_eq!(candidates(&index, &lane_only), vec![2]);
        let symbol_only = event(&[("symbol", Value::str("A"))]);
        assert_eq!(candidates(&index, &symbol_only), vec![0]);
    }

    /// Every one- and two-clause filter over string, integer, `OneOf` and
    /// open-ended clauses.
    fn mixed_filters() -> Vec<Filter> {
        let clauses = [
            ("type", Predicate::Equals(Value::str("tick"))),
            ("type", Predicate::Equals(Value::str("match"))),
            ("symbol", Predicate::Equals(Value::str("A"))),
            ("symbol", Predicate::Equals(Value::str("B"))),
            ("symbol", Predicate::OneOf(vec!["A".into(), "B".into()])),
            ("trader", Predicate::Equals(Value::Int(1))),
            ("trader", Predicate::Equals(Value::Int(2))),
            ("price", Predicate::Exists),
            ("symbol", Predicate::NotEquals(Value::str("A"))),
        ];
        let mut filters = Vec::new();
        for (i, (first_name, first)) in clauses.iter().enumerate() {
            filters.push(Filter::new().where_part(*first_name, first.clone()));
            for (second_name, second) in &clauses[i..] {
                filters.push(
                    Filter::new()
                        .where_part(*first_name, first.clone())
                        .where_part(*second_name, second.clone()),
                );
            }
        }
        filters
    }

    /// Every non-empty event over the same vocabulary (plus a string `"1"`
    /// trader, which no integer clause may match).
    fn mixed_events() -> Vec<Event> {
        let types = [Some(Value::str("tick")), Some(Value::str("match")), None];
        let symbols = [Some(Value::str("A")), Some(Value::str("B")), None];
        let traders = [
            Some(Value::Int(1)),
            Some(Value::Int(2)),
            Some(Value::str("1")),
            None,
        ];
        let prices = [Some(Value::Float(1.0)), None];
        let mut events = Vec::new();
        for kind in &types {
            for symbol in &symbols {
                for trader in &traders {
                    for price in &prices {
                        let parts: Vec<(&str, Value)> = [
                            ("type", kind),
                            ("symbol", symbol),
                            ("trader", trader),
                            ("price", price),
                        ]
                        .into_iter()
                        .filter_map(|(name, data)| data.clone().map(|data| (name, data)))
                        .collect();
                        if !parts.is_empty() {
                            events.push(event(&parts));
                        }
                    }
                }
            }
        }
        events
    }

    #[test]
    fn candidates_cover_every_match_over_a_mixed_vocabulary() {
        // Whatever key each filter got, no match may be missing.
        let filters = mixed_filters();
        let index = SubscriptionIndex::build(filters.iter());
        let mut checked = 0;
        for event in mixed_events() {
            let candidate_set = candidates(&index, &event);
            for (position, filter) in filters.iter().enumerate() {
                if filter.matches_any_visibility(&event) {
                    checked += 1;
                    assert!(
                        candidate_set.contains(&(position as u32)),
                        "{filter} matches {event:?} but is not a candidate"
                    );
                }
            }
        }
        assert!(checked > 100, "the vocabulary must produce matches");
    }

    #[test]
    fn table_churn_keeps_candidates_sound_and_compaction_matches_a_fresh_build() {
        // Random subscribes, unsubscribes and owner removals over the mixed
        // vocabulary. After every step each candidate set covers the live
        // matches and names only live positions; after every compaction the
        // candidate sets are exactly those of a fresh build over the live
        // filters in order.
        let filters = mixed_filters();
        let events = mixed_events();
        let mut table = SubscriptionTable::new();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut below = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let (mut compactions, mut tombstoned_steps) = (0, 0);
        for _ in 0..400 {
            let unit = UnitId::from_raw(1 + below(6));
            match below(8) {
                0 => table.remove_owner(unit),
                1 | 2 => {
                    let snapshot = table.snapshot();
                    let owned: Vec<SubscriptionId> = snapshot
                        .entries
                        .iter()
                        .flatten()
                        .filter(|entry| entry.subscription.owner == unit)
                        .map(|entry| entry.subscription.id)
                        .collect();
                    if let Some(&id) = owned.get(below(owned.len() as u64 + 1) as usize) {
                        assert!(table.unsubscribe(id, unit));
                        assert!(!table.unsubscribe(id, unit), "already gone");
                    }
                }
                _ => {
                    let filter = filters[below(filters.len() as u64) as usize].clone();
                    table.push(Subscription::direct(unit, filter));
                }
            }
            let snapshot = table.snapshot();
            let index = &*snapshot.index;
            let live: Vec<(u32, &Filter)> = snapshot
                .entries
                .iter()
                .enumerate()
                .filter_map(|(position, entry)| {
                    entry
                        .as_ref()
                        .map(|entry| (position as u32, &*entry.subscription.filter))
                })
                .collect();
            assert_eq!(live.len(), table.len());
            for entry in snapshot.entries.iter().flatten() {
                assert_eq!(
                    snapshot.owners[entry.owner as usize],
                    Some(entry.subscription.owner)
                );
            }
            let compacted = live.len() == snapshot.entries.len();
            if compacted && table.changes == 0 {
                compactions += 1;
                // Every live filter is shared. Any other shared filter is
                // held by the map alone: a snapshot (the unsubscribe step's)
                // kept it alive through the compaction, and the next one
                // drops it.
                let in_use: Vec<*const Filter> = live
                    .iter()
                    .map(|(_, filter)| *filter as *const Filter)
                    .collect();
                for filter in table.filters.values() {
                    let held = in_use.contains(&Arc::as_ptr(filter));
                    assert!(held || Arc::strong_count(filter) == 1);
                }
                for filter in &in_use {
                    assert!(table.filters.values().any(|f| Arc::as_ptr(f) == *filter));
                }
                let fresh = SubscriptionIndex::build(live.iter().map(|(_, filter)| *filter));
                for event in &events {
                    assert_eq!(candidates(index, event), candidates(&fresh, event));
                }
            } else if !compacted {
                tombstoned_steps += 1;
            }
            for event in &events {
                let candidate_set = candidates(index, event);
                for &candidate in &candidate_set {
                    assert!(
                        live.iter().any(|(position, _)| *position == candidate),
                        "candidate {candidate} is a tombstone"
                    );
                }
                for (position, filter) in &live {
                    if filter.matches_any_visibility(event) {
                        assert!(candidate_set.contains(position));
                    }
                }
            }
        }
        assert!(
            compactions > 3,
            "the half-live rule must compact: {compactions}"
        );
        assert!(
            tombstoned_steps > 50,
            "steps must run on tombstones: {tombstoned_steps}"
        );
    }

    #[test]
    fn equal_filters_share_one_allocation() {
        use crate::unit::{NullUnit, Unit};
        let mut table = SubscriptionTable::new();
        let (a, b) = (UnitId::from_raw(1), UnitId::from_raw(2));
        let list = || Value::List([Value::Int(1), Value::str("a")].into_iter().collect());
        let filters = [
            Filter::for_type("tick").where_eq("x", "1"),
            Filter::for_type("tick").where_eq("x", "1"),
            Filter::for_type("tick").where_eq("x", 1i64),
            Filter::new().where_eq("x", list()),
            Filter::new().where_eq("x", list()),
        ];
        for (position, filter) in filters.into_iter().enumerate() {
            let owner = if position % 2 == 0 { a } else { b };
            table.push(Subscription::direct(owner, filter));
        }
        table.push(Subscription::managed(
            b,
            Filter::for_type("tick").where_eq("x", "1"),
            Box::new(|| Box::new(NullUnit) as Box<dyn Unit>),
        ));
        let snapshot = table.snapshot();
        let filter = |position: usize| {
            let entry = snapshot.entries[position].as_ref().expect("live");
            Arc::clone(&entry.subscription.filter)
        };
        // Across owners and across direct and managed kinds.
        assert!(Arc::ptr_eq(&filter(0), &filter(1)));
        assert!(Arc::ptr_eq(&filter(0), &filter(5)));
        // `"1"` and `1` never match the same part, so they are not equal.
        assert!(!Arc::ptr_eq(&filter(0), &filter(2)));
        // Equal list literals share too: a value cannot change once built.
        assert!(Arc::ptr_eq(&filter(3), &filter(4)));
        assert_eq!(table.filters.len(), 3);
    }

    #[test]
    fn compaction_drops_shared_filters_no_subscription_holds() {
        let mut table = SubscriptionTable::new();
        let kept = UnitId::from_raw(1);
        table.push(Subscription::direct(kept, Filter::for_type("kept")));
        for n in 0..40 {
            let unit = UnitId::from_raw(2 + n);
            let filter = Filter::for_type("churned").where_eq("n", n as i64);
            table.push(Subscription::direct(unit, filter));
            // With one live subscription left, each removal compacts.
            table.remove_owner(unit);
        }
        let snapshot = table.snapshot();
        let live = &snapshot.entries[0].as_ref().expect("live").subscription;
        let shared: Vec<_> = table.filters.values().collect();
        assert_eq!(shared.len(), 1);
        assert!(Arc::ptr_eq(shared[0], &live.filter));
    }

    #[test]
    fn duplicate_part_names_dedupe_candidates() {
        let filters = [Filter::new().where_exists("body")];
        let index = SubscriptionIndex::build(filters.iter());
        let two_bodies = event(&[("body", Value::Int(1)), ("body", Value::Int(2))]);
        assert_eq!(candidates(&index, &two_bodies), vec![0]);
    }
}
