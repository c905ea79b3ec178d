//! Subscription filters: expressions over the name and data of event parts.
//!
//! Table 1 (`subscribe(filter)`): a unit subscribes with a *non-empty* filter, an
//! expression over part names and data. A filter clause only sees parts that the
//! subscriber's input label allows it to see at matching time; the dispatcher passes
//! the visibility predicate in, keeping all label logic in the engine.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::event::Event;
use crate::part::Part;
use crate::value::Value;

/// A predicate applied to the data of a single named part.
#[derive(Clone, Debug, PartialEq)]
pub enum Predicate {
    /// The part exists (any data).
    Exists,
    /// The part data equals the given value (structural equality).
    Equals(Value),
    /// The part data differs from the given value.
    NotEquals(Value),
    /// The part data, interpreted as a number, is strictly greater than the bound.
    GreaterThan(f64),
    /// The part data, interpreted as a number, is strictly smaller than the bound.
    LessThan(f64),
    /// The part data is a string equal to one of the listed alternatives.
    OneOf(Vec<String>),
}

impl Predicate {
    /// Evaluates the predicate against a part's data.
    pub fn matches(&self, data: &Value) -> bool {
        match self {
            Predicate::Exists => true,
            Predicate::Equals(v) => data.structurally_equals(v),
            Predicate::NotEquals(v) => !data.structurally_equals(v),
            Predicate::GreaterThan(bound) => data.as_float().is_some_and(|x| x > *bound),
            Predicate::LessThan(bound) => data.as_float().is_some_and(|x| x < *bound),
            Predicate::OneOf(options) => data
                .as_str()
                .is_some_and(|s| options.iter().any(|o| o == s)),
        }
    }
}

/// Hashes what `==` compares, so equal predicates hash alike. The numeric
/// bounds compare as floats, so `0.0` and `-0.0` are equal and hash as one.
impl Hash for Predicate {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let bound = |bound: f64| if bound == 0.0 { 0 } else { bound.to_bits() };
        std::mem::discriminant(self).hash(state);
        match self {
            Predicate::Exists => {}
            Predicate::Equals(value) | Predicate::NotEquals(value) => value.hash(state),
            Predicate::GreaterThan(b) | Predicate::LessThan(b) => bound(*b).hash(state),
            Predicate::OneOf(options) => options.hash(state),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Exists => write!(f, "exists"),
            Predicate::Equals(v) => write!(f, "== {v}"),
            Predicate::NotEquals(v) => write!(f, "!= {v}"),
            Predicate::GreaterThan(b) => write!(f, "> {b}"),
            Predicate::LessThan(b) => write!(f, "< {b}"),
            Predicate::OneOf(opts) => write!(f, "in {opts:?}"),
        }
    }
}

/// A conjunction of per-part predicates.
///
/// Every clause must be satisfied by at least one *visible* part carrying the
/// clause's name. Filters must contain at least one clause — the engine rejects
/// empty filters because a subscription matching everything would let a unit infer
/// the existence of events it cannot read.
///
/// Equal filters (`==`, clause by clause) match the same events and hash
/// alike, which is what lets the engine share one allocation between them.
#[derive(Clone, Debug, Default, PartialEq, Hash)]
pub struct Filter {
    clauses: Vec<(String, Predicate)>,
}

impl Filter {
    /// Creates an empty filter (must be populated before use).
    pub fn new() -> Self {
        Filter::default()
    }

    /// Convenience: a filter requiring the `type` part to equal `event_type`.
    pub fn for_type(event_type: &str) -> Self {
        Filter::new().where_part("type", Predicate::Equals(Value::str(event_type)))
    }

    /// Adds a clause on the named part.
    pub fn where_part(mut self, name: impl Into<String>, predicate: Predicate) -> Self {
        self.clauses.push((name.into(), predicate));
        self
    }

    /// Convenience: adds an equality clause.
    pub fn where_eq(self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.where_part(name, Predicate::Equals(value.into()))
    }

    /// Convenience: adds an existence clause.
    pub fn where_exists(self, name: impl Into<String>) -> Self {
        self.where_part(name, Predicate::Exists)
    }

    /// Returns the clauses of the filter.
    pub fn clauses(&self) -> &[(String, Predicate)] {
        &self.clauses
    }

    /// Returns `true` if the filter has no clauses (and is therefore invalid).
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Evaluates the filter over the parts of `event` that satisfy `visible`.
    ///
    /// `visible` is the label check `label_of_part can-flow-to input_label_of_unit`
    /// supplied by the dispatcher; the filter itself is label-agnostic.
    pub fn matches<F>(&self, event: &Event, mut visible: F) -> bool
    where
        F: FnMut(&Part) -> bool,
    {
        if self.clauses.is_empty() {
            return false;
        }
        self.clauses.iter().all(|(name, predicate)| {
            event
                .parts_named(name)
                .any(|part| visible(part) && predicate.matches(part.data()))
        })
    }

    /// Evaluates the filter ignoring visibility (used by tests and by the baseline
    /// platform, which has no label checks).
    pub fn matches_any_visibility(&self, event: &Event) -> bool {
        self.matches(event, |_| true)
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "filter(")?;
        for (i, (name, pred)) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " && ")?;
            }
            write!(f, "{name} {pred}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventBuilder;
    use defcon_defc::{Label, Tag, TagSet};

    fn tick(symbol: &str, price: f64) -> Event {
        EventBuilder::new()
            .part("type", Label::public(), Value::str("tick"))
            .part("symbol", Label::public(), Value::str(symbol))
            .part("price", Label::public(), Value::Float(price))
            .build()
            .unwrap()
    }

    #[test]
    fn empty_filter_never_matches() {
        let f = Filter::new();
        assert!(f.is_empty());
        assert!(!f.matches_any_visibility(&tick("MSFT", 10.0)));
    }

    #[test]
    fn type_and_symbol_filter() {
        let f = Filter::for_type("tick").where_eq("symbol", "MSFT");
        assert!(f.matches_any_visibility(&tick("MSFT", 10.0)));
        assert!(!f.matches_any_visibility(&tick("GOOG", 10.0)));
    }

    #[test]
    fn numeric_predicates() {
        let gt = Filter::new().where_part("price", Predicate::GreaterThan(9.0));
        let lt = Filter::new().where_part("price", Predicate::LessThan(9.0));
        let e = tick("MSFT", 10.0);
        assert!(gt.matches_any_visibility(&e));
        assert!(!lt.matches_any_visibility(&e));
        // Non-numeric data never satisfies numeric predicates.
        let weird = Filter::new().where_part("symbol", Predicate::GreaterThan(0.0));
        assert!(!weird.matches_any_visibility(&e));
    }

    #[test]
    fn one_of_and_not_equals() {
        let f = Filter::new().where_part(
            "symbol",
            Predicate::OneOf(vec!["MSFT".into(), "GOOG".into()]),
        );
        assert!(f.matches_any_visibility(&tick("GOOG", 1.0)));
        assert!(!f.matches_any_visibility(&tick("AAPL", 1.0)));

        let ne = Filter::new().where_part("symbol", Predicate::NotEquals(Value::str("MSFT")));
        assert!(!ne.matches_any_visibility(&tick("MSFT", 1.0)));
        assert!(ne.matches_any_visibility(&tick("AAPL", 1.0)));
    }

    #[test]
    fn visibility_is_enforced_per_part() {
        // The filter clause on a confidential part must not match when the
        // visibility predicate rejects that part.
        let secret_tag = Tag::with_name("s");
        let secret = Label::confidential(TagSet::singleton(secret_tag));
        let event = EventBuilder::new()
            .part("type", Label::public(), Value::str("order"))
            .part("body", secret.clone(), Value::Float(99.0))
            .build()
            .unwrap();

        let f = Filter::for_type("order").where_exists("body");
        assert!(f.matches(&event, |_| true));
        assert!(!f.matches(&event, |p| p.label().is_public()));
    }

    #[test]
    fn exists_clause() {
        let f = Filter::new().where_exists("price");
        assert!(f.matches_any_visibility(&tick("MSFT", 1.0)));
        let no_price = EventBuilder::new()
            .part("type", Label::public(), Value::str("tick"))
            .build()
            .unwrap();
        assert!(!f.matches_any_visibility(&no_price));
    }

    #[test]
    fn equal_filters_hash_alike() {
        let hash = |filter: &Filter| {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            filter.hash(&mut hasher);
            hasher.finish()
        };
        let a = Filter::for_type("tick").where_part("price", Predicate::LessThan(0.0));
        let b = Filter::for_type("tick").where_part("price", Predicate::LessThan(-0.0));
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        // Equality never crosses value variants, so neither does sharing.
        assert_ne!(
            Filter::new().where_eq("x", "1"),
            Filter::new().where_eq("x", 1i64)
        );
    }

    #[test]
    fn display_renders_clauses() {
        let f = Filter::for_type("tick").where_eq("symbol", "MSFT");
        let s = f.to_string();
        assert!(s.contains("type"));
        assert!(s.contains("symbol"));
        assert!(s.contains("&&"));
    }
}
