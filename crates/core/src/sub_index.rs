//! The inverted subscription index: sublinear candidate selection for dispatch.
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
//!   candidates are its matches. The counts come from a first pass over just
//!   the filters that have a choice (two or more keyable clauses), borrowing
//!   their literals; a filter with one keyable clause is keyed by it, and one
//!   with none falls back to the name-only bucket of its first clause.
//!
//! Keys hash by **content**, not by interned-pointer identity: the
//! `part_name()` intern table stops deduplicating past its capacity, so pointer
//! identity is not guaranteed for rare names.
//!
//! # Maintenance
//!
//! The index is built inside the dispatcher's epoch-cached `BatchContext`
//! (see `Dispatcher::build_context`), so it is rebuilt exactly when the
//! subscription list can have changed: every subscribe/unsubscribe, unit
//! registration/removal and swap bumps the engine's `security_epoch`, which
//! retires the cached context — index included — and the next batch rebuilds
//! both atomically. Tag creation and privilege traffic of units without a
//! managed subscription leave the epoch, and so the index, alone. Under
//! scheduler v3 the rebuilt index is published through the process-shared
//! context slot, so one epoch bump costs one rebuild process-wide.
//! [`IndexCounters`] exposes the rebuild count plus per-plan candidate/reject
//! telemetry through `queue_stats()`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use defcon_events::{Event, Filter, Predicate, Value};

/// Telemetry of the subscription index, sampled by `Engine::queue_stats`.
///
/// `candidates` versus the registered subscription count is the sublinearity
/// check: with the index on, accumulated candidate-set sizes stay proportional
/// to *matching* subscriptions, not registered ones.
#[derive(Debug, Default)]
pub(crate) struct IndexCounters {
    /// Candidate subscriptions produced across all indexed plans (accumulated
    /// candidate-set sizes; the linear scan would have counted every
    /// registered subscription once per event instead).
    pub(crate) candidates: AtomicU64,
    /// Candidates whose exact filter (or flow check) rejected the delivery —
    /// the index's false positives, paid at exact-match cost only.
    pub(crate) exact_rejects: AtomicU64,
    /// Times the index was (re)built: once per security epoch that dispatched,
    /// never once per batch.
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

/// How many filters with a choice of key name each `(part name, literal)`.
type KeyCounts<'a> = HashMap<(&'a str, Literal<'a>), u32>;

/// The per-name bucket: subscriptions keyed by an exact value of an equality
/// clause on this name, plus those keyed by name only.
#[derive(Debug, Default)]
struct NameEntry {
    /// Subscriptions whose chosen clause is `name == "text"` / `name in
    /// [...]`, listed under each string they can match.
    by_str: HashMap<String, Vec<u32>>,
    /// Subscriptions whose chosen clause is `name == integer`.
    by_int: HashMap<i64, Vec<u32>>,
    /// Subscriptions whose filter has no keyable clause and whose first
    /// clause names this part: candidates for every event carrying the name.
    any_value: Vec<u32>,
}

/// An inverted index from part name (and string or integer part value) to
/// the subscription indices whose filters could match an event carrying that
/// part.
///
/// Built per security epoch from the subscription snapshot; lists hold indices
/// into that snapshot in ascending order, so unioned candidate sets preserve
/// subscription order after a sort + dedup.
#[derive(Debug, Default)]
pub(crate) struct SubscriptionIndex {
    names: HashMap<String, NameEntry>,
}

impl SubscriptionIndex {
    /// Builds the index over a subscription snapshot's filters, in snapshot
    /// order: one pass counting the keys of filters with a choice to make,
    /// one pass inserting. Empty filters (which never match — the engine
    /// rejects them at subscribe anyway) are left out entirely.
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
                    *counts.entry((name.as_str(), literal)).or_default() += 1;
                }
            }
        }
        let mut index = SubscriptionIndex::default();
        for (position, filter) in filters.enumerate() {
            index.insert(position as u32, filter, &counts);
        }
        index
    }

    fn insert(&mut self, position: u32, filter: &Filter, counts: &KeyCounts<'_>) {
        let clauses = filter.clauses();
        // The keyable clause whose literals the fewest filters name, the
        // first on ties; a lone keyable clause wins whatever its count.
        let cost = |(name, predicate): &&(String, Predicate)| -> u32 {
            literals(predicate)
                .map(|literal| counts.get(&(name.as_str(), literal)).copied().unwrap_or(0))
                .sum()
        };
        let keyed = clauses
            .iter()
            .filter(|(_, predicate)| keyable(predicate))
            .min_by_key(cost);
        match keyed {
            Some((name, predicate)) => {
                // `in []` lists no literal and so is indexed nowhere, which
                // keeps it out of every candidate set — exactly its match set.
                let entry = self.entry(name);
                for literal in literals(predicate) {
                    entry.push(literal, position);
                }
            }
            None => {
                if let Some((name, _)) = clauses.first() {
                    self.entry(name).any_value.push(position);
                }
            }
        }
    }

    fn entry(&mut self, name: &str) -> &mut NameEntry {
        // Owned-key insertion only on first sight of a name; lookups stay
        // borrowed.
        if !self.names.contains_key(name) {
            self.names.insert(name.to_string(), NameEntry::default());
        }
        self.names.get_mut(name).expect("entry just ensured")
    }

    /// Appends the candidate subscriptions for one part (by name, and by value
    /// for string- or integer-valued data) to `out`. Duplicates across parts
    /// are expected; callers dedupe once per event.
    pub(crate) fn candidates_for_part(&self, name: &str, data: &Value, out: &mut Vec<u32>) {
        let Some(entry) = self.names.get(name) else {
            return;
        };
        out.extend_from_slice(&entry.any_value);
        let keyed = match Literal::of(data) {
            Some(Literal::Str(text)) => entry.by_str.get(text),
            Some(Literal::Int(number)) => entry.by_int.get(&number),
            None => None,
        };
        if let Some(list) = keyed {
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

impl NameEntry {
    fn push(&mut self, literal: Literal<'_>, position: u32) {
        let list = match literal {
            Literal::Str(text) => {
                // Owned-key insertion only on first sight of a literal.
                if !self.by_str.contains_key(text) {
                    self.by_str.insert(text.to_string(), Vec::new());
                }
                self.by_str.get_mut(text).expect("entry just ensured")
            }
            Literal::Int(number) => self.by_int.entry(number).or_default(),
        };
        // One-of clauses listing an option twice must not list the
        // subscription twice.
        if list.last() != Some(&position) {
            list.push(position);
        }
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

    #[test]
    fn candidates_cover_every_match_over_a_mixed_vocabulary() {
        // Every one- and two-clause filter over string, integer, `OneOf` and
        // open-ended clauses, against every event over the same vocabulary:
        // whatever key each filter got, no match may be missing.
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
        let index = SubscriptionIndex::build(filters.iter());
        let types = [Some(Value::str("tick")), Some(Value::str("match")), None];
        let symbols = [Some(Value::str("A")), Some(Value::str("B")), None];
        let traders = [
            Some(Value::Int(1)),
            Some(Value::Int(2)),
            Some(Value::str("1")),
            None,
        ];
        let prices = [Some(Value::Float(1.0)), None];
        let mut checked = 0;
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
                        if parts.is_empty() {
                            continue;
                        }
                        let event = event(&parts);
                        let candidate_set = candidates(&index, &event);
                        for (position, filter) in filters.iter().enumerate() {
                            if filter.matches_any_visibility(&event) {
                                checked += 1;
                                assert!(
                                    candidate_set.contains(&(position as u32)),
                                    "{filter} matches {parts:?} but is not a candidate"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(checked > 100, "the vocabulary must produce matches");
    }

    #[test]
    fn duplicate_part_names_dedupe_candidates() {
        let filters = [Filter::new().where_exists("body")];
        let index = SubscriptionIndex::build(filters.iter());
        let two_bodies = event(&[("body", Value::Int(1)), ("body", Value::Int(2))]);
        assert_eq!(candidates(&index, &two_bodies), vec![0]);
    }
}
