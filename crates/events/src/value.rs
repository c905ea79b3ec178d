//! The data model for event part contents.
//!
//! §5 restricts the contents of event parts to types that are immutable or can
//! be frozen, so that published data can be shared by reference between
//! isolates. Here every [`Value`] is immutable by type: scalars are plain data,
//! strings and byte strings sit behind an `Arc`, and the collections
//! ([`ValueList`], [`ValueMap`]) are built once with `collect` and have no
//! mutating method. Sharing a part's data is a reference-count bump, and no
//! unit can hold a mutable alias of it: the compiler enforces what the paper's
//! runtime freeze flag checks on every mutation in the JVM.
//!
//! The [`Value::Tag`] variant carries a tag *reference* inside data, which is how
//! privilege-carrying parts hand the receiving unit the tag it needs in order to
//! exercise a delegated privilege (§3.1.5).

use std::collections::btree_map;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::slice;
use std::sync::Arc;

use defcon_defc::TagId;

/// A single datum stored in an event part.
#[derive(Clone, Debug, Default)]
pub enum Value {
    /// Absence of a value.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float (prices, statistics).
    Float(f64),
    /// An immutable string (shared by reference).
    Str(Arc<str>),
    /// An immutable byte string (shared by reference).
    Bytes(Arc<[u8]>),
    /// A timestamp in nanoseconds since an arbitrary epoch; used for latency
    /// measurements of the kind Figure 6/9 report.
    Timestamp(u64),
    /// A reference to a security tag, carried as data (§3.1.5).
    Tag(TagId),
    /// An immutable, ordered list of values.
    List(ValueList),
    /// An immutable string-keyed map of values.
    Map(ValueMap),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for byte-string values.
    pub fn bytes(b: impl Into<Vec<u8>>) -> Value {
        Value::Bytes(Arc::from(b.into().into_boxed_slice()))
    }

    /// Returns the integer if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float if this is a `Float` (or an `Int`, widened).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the string slice if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the byte slice if this is a `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the tag reference if this is a `Tag`.
    pub fn as_tag(&self) -> Option<TagId> {
        match self {
            Value::Tag(t) => Some(*t),
            _ => None,
        }
    }

    /// Returns the map if this is a `Map`.
    pub fn as_map(&self) -> Option<&ValueMap> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Produces a deep copy of this value: new storage for every string, byte
    /// string and collection in it.
    ///
    /// This is the operation whose cost the `labels+clone` configuration of Figure 5
    /// pays on every event dispatch, and which sharing by reference avoids.
    pub fn deep_clone(&self) -> Value {
        match self {
            Value::Str(s) => Value::Str(Arc::from(&**s)),
            Value::Bytes(b) => Value::Bytes(Arc::from(&**b)),
            Value::List(l) => Value::List(l.iter().map(Value::deep_clone).collect()),
            Value::Map(m) => {
                Value::Map(m.iter().map(|(k, v)| (k.clone(), v.deep_clone())).collect())
            }
            scalar => scalar.clone(),
        }
    }

    /// Structural equality that looks through collections.
    pub fn structurally_equals(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bytes(a), Value::Bytes(b)) => a == b,
            (Value::Timestamp(a), Value::Timestamp(b)) => a == b,
            (Value::Tag(a), Value::Tag(b)) => a == b,
            // Element-wise through `PartialEq`, which is this function.
            (Value::List(a), Value::List(b)) => a.0 == b.0,
            (Value::Map(a), Value::Map(b)) => a.0 == b.0,
            _ => false,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.structurally_equals(other)
    }
}

/// Hashes what [`Value::structurally_equals`] compares, so equal values hash
/// alike: the variant, then its content (a float by bit pattern, a collection
/// element by element, which is sound because no value changes once built).
impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::List(l) => l.0.hash(state),
            Value::Map(m) => m.0.hash(state),
            Value::Bool(v) => v.hash(state),
            Value::Int(v) => v.hash(state),
            Value::Float(v) => v.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Bytes(b) => b.hash(state),
            Value::Timestamp(t) => t.hash(state),
            Value::Tag(t) => t.hash(state),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

impl From<TagId> for Value {
    fn from(v: TagId) -> Self {
        Value::Tag(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::Timestamp(t) => write!(f, "@{t}"),
            Value::Tag(t) => write!(f, "tag:{t}"),
            Value::List(l) => write!(f, "list[{}]", l.len()),
            Value::Map(m) => write!(f, "map[{}]", m.len()),
        }
    }
}

/// An immutable, ordered list of [`Value`]s, built once with `collect`.
///
/// Cloning shares the storage; [`Value::deep_clone`] copies it.
///
/// ```
/// use defcon_defc::Label;
/// use defcon_events::{Part, Value, ValueList};
///
/// let list: ValueList = [Value::Int(1), Value::str("two")].into_iter().collect();
/// let part = Part::new("history", Label::public(), Value::List(list));
/// let Value::List(read) = part.data() else {
///     unreachable!()
/// };
/// assert_eq!(read.get(0), Some(&Value::Int(1)));
/// assert_eq!(read.iter().count(), 2);
/// ```
///
/// A list read out of a part has no mutating method, not even on a copy of
/// its own:
///
/// ```compile_fail
/// # use defcon_events::{Part, Value};
/// fn change(part: &Part) {
///     match part.data() {
///         Value::List(list) => {
///             list.clone().push(Value::Int(3));
///         }
///         _ => {}
///     }
/// }
/// ```
#[derive(Clone, Debug)]
pub struct ValueList(Arc<[Value]>);

impl ValueList {
    /// Returns the element at `index`.
    pub fn get(&self, index: usize) -> Option<&Value> {
        self.0.get(index)
    }

    /// Iterates over the elements in order.
    pub fn iter(&self) -> slice::Iter<'_, Value> {
        self.0.iter()
    }

    /// Returns the number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if the list has no elements.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl FromIterator<Value> for ValueList {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        ValueList(iter.into_iter().collect())
    }
}

/// An immutable, string-keyed map of [`Value`]s, built once with `collect`.
///
/// Cloning shares the storage; [`Value::deep_clone`] copies it.
///
/// ```
/// use defcon_defc::Label;
/// use defcon_events::{Part, Value, ValueMap};
///
/// let body: ValueMap = [("symbol", Value::str("MSFT")), ("price", Value::Float(12.5))]
///     .into_iter()
///     .collect();
/// let part = Part::new("body", Label::public(), Value::Map(body));
/// let read = part.data().as_map().unwrap();
/// assert_eq!(read.get("price"), Some(&Value::Float(12.5)));
/// assert_eq!(read.len(), 2);
/// ```
///
/// A map read out of a part can be neither extended nor shrunk:
///
/// ```compile_fail
/// # use defcon_events::{Part, Value};
/// fn change(part: &Part) {
///     part.data().as_map().unwrap().insert("quantity", Value::Int(100));
/// }
/// ```
///
/// ```compile_fail
/// # use defcon_events::Part;
/// fn change(part: &Part) {
///     part.data().as_map().unwrap().remove("price");
/// }
/// ```
#[derive(Clone, Debug)]
pub struct ValueMap(Arc<BTreeMap<String, Value>>);

impl ValueMap {
    /// Returns the value stored under `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.get(key)
    }

    /// Iterates over the entries in key order.
    pub fn iter(&self) -> btree_map::Iter<'_, String, Value> {
        self.0.iter()
    }

    /// Returns the number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<K: Into<String>> FromIterator<(K, Value)> for ValueMap {
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(iter: I) -> Self {
        ValueMap(Arc::new(
            iter.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::bytes(vec![1, 2]).as_bytes(), Some(&[1u8, 2][..]));
        let t = TagId::from_raw(5);
        assert_eq!(Value::Tag(t).as_tag(), Some(t));
        assert_eq!(Value::Int(7).as_str(), None);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("hi"), Value::str("hi"));
        assert_eq!(Value::from(2.0f64), Value::Float(2.0));
    }

    /// The address of the string at the front of a list value.
    fn front_at(list: &Value) -> *const u8 {
        let Value::List(list) = list else {
            panic!("not a list: {list}")
        };
        list.get(0).and_then(Value::as_str).unwrap().as_ptr()
    }

    #[test]
    fn deep_clone_detaches_from_frozen_original() {
        let original = Value::List([Value::str("shared")].into_iter().collect());
        let copy = original.deep_clone();
        assert_eq!(copy, original);
        assert_ne!(front_at(&copy), front_at(&original), "own storage");
    }

    #[test]
    fn shallow_clone_shares_storage() {
        let list = Value::List([Value::str("shared")].into_iter().collect());
        assert_eq!(front_at(&list.clone()), front_at(&list));
    }

    #[test]
    fn structural_equality() {
        let a: ValueMap = [("k", Value::Int(1))].into_iter().collect();
        let b: ValueMap = [("k", Value::Int(1))].into_iter().collect();
        assert_eq!(Value::Map(a.clone()), Value::Map(b));
        let c: ValueMap = [("k", Value::Int(1)), ("j", Value::Int(2))]
            .into_iter()
            .collect();
        assert_ne!(Value::Map(a), Value::Map(c));
        assert_ne!(Value::Int(1), Value::Float(1.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Int(3).to_string(), "3");
        assert!(Value::str("x").to_string().contains('x'));
        let l: ValueList = [Value::Int(1)].into_iter().collect();
        assert_eq!(Value::List(l).to_string(), "list[1]");
    }
}
