//! The data model for event part contents.
//!
//! §5 restricts the contents of event parts to "a subset of types ... either
//! immutable or extending a package-private `Freezable` base class". [`Value`]
//! mirrors that: scalar variants are immutable; the collection variants
//! ([`ValueList`], [`ValueMap`]) are interior-mutable containers that implement the
//! [`Freezable`] protocol, so that once a value is attached to a published event it
//! can be shared by reference between isolates without copying.
//!
//! The [`Value::Tag`] variant carries a tag *reference* inside data, which is how
//! privilege-carrying parts hand the receiving unit the tag it needs in order to
//! exercise a delegated privilege (§3.1.5).

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use defcon_defc::TagId;
use parking_lot::RwLock;

use crate::freeze::{Freezable, FreezeError, FreezeFlag, FreezeState};

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
    /// A freezable, ordered list of values.
    List(ValueList),
    /// A freezable string-keyed map of values.
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

    /// Returns the boolean if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
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

    /// Returns the timestamp if this is a `Timestamp`.
    pub fn as_timestamp(&self) -> Option<u64> {
        match self {
            Value::Timestamp(t) => Some(*t),
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

    /// Returns the list if this is a `List`.
    pub fn as_list(&self) -> Option<&ValueList> {
        match self {
            Value::List(l) => Some(l),
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

    /// Returns `true` if this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Produces a deep, unfrozen copy of this value.
    ///
    /// This is the operation whose cost the `labels+clone` configuration of Figure 5
    /// pays on every event dispatch, and which the freeze-and-share design avoids.
    pub fn deep_clone(&self) -> Value {
        match self {
            Value::Null => Value::Null,
            Value::Bool(v) => Value::Bool(*v),
            Value::Int(v) => Value::Int(*v),
            Value::Float(v) => Value::Float(*v),
            Value::Str(s) => Value::Str(Arc::from(&**s)),
            Value::Bytes(b) => Value::Bytes(Arc::from(&**b)),
            Value::Timestamp(t) => Value::Timestamp(*t),
            Value::Tag(t) => Value::Tag(*t),
            Value::List(l) => Value::List(l.deep_clone()),
            Value::Map(m) => Value::Map(m.deep_clone()),
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
            (Value::List(a), Value::List(b)) => a.structurally_equals(b),
            (Value::Map(a), Value::Map(b)) => a.structurally_equals(b),
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
/// alike: the variant, then a scalar's content (a float by bit pattern).
/// Collections hash by variant only: their contents can still change, and a
/// hash must not.
impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Null | Value::List(_) | Value::Map(_) => {}
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

/// Shared state of a freezable collection.
///
/// Cloning the wrapper shares the same underlying storage, mirroring Java reference
/// semantics; [`deep_clone`](ValueList::deep_clone) produces an independent copy.
#[derive(Clone, Debug)]
struct Collection<T> {
    storage: Arc<RwLock<T>>,
    freeze: FreezeState,
}

impl<T: Default> Default for Collection<T> {
    fn default() -> Self {
        Collection {
            storage: Arc::new(RwLock::new(T::default())),
            freeze: FreezeState::new(),
        }
    }
}

/// A freezable, ordered list of [`Value`]s.
#[derive(Clone, Debug, Default)]
pub struct ValueList {
    inner: Collection<Vec<Value>>,
}

impl ValueList {
    /// Creates an empty, unfrozen list.
    pub fn new() -> Self {
        ValueList::default()
    }

    /// Appends a value; fails if the list is frozen.
    ///
    /// The inserted value is attached to this list's frozen flag so that freezing
    /// the list later freezes the member in constant time (§5).
    pub fn push(&self, mut value: Value) -> Result<(), FreezeError> {
        self.check_mutable()?;
        attach_value(&mut value, self.inner.freeze.own_flag());
        self.inner.storage.write().push(value);
        Ok(())
    }

    /// Returns a clone of the element at `index`.
    pub fn get(&self, index: usize) -> Option<Value> {
        self.inner.storage.read().get(index).cloned()
    }

    /// Returns the number of elements.
    pub fn len(&self) -> usize {
        self.inner.storage.read().len()
    }

    /// Returns `true` if the list has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a snapshot of the elements.
    pub fn to_vec(&self) -> Vec<Value> {
        self.inner.storage.read().clone()
    }

    /// Produces a deep, unfrozen copy.
    pub fn deep_clone(&self) -> ValueList {
        let copy = ValueList::new();
        for v in self.inner.storage.read().iter() {
            // A deep clone of each member detaches it from this list's flag.
            copy.push(v.deep_clone()).expect("fresh list is not frozen");
        }
        copy
    }

    /// Structural equality.
    pub fn structurally_equals(&self, other: &ValueList) -> bool {
        let a = self.inner.storage.read();
        let b = other.inner.storage.read();
        a.len() == b.len()
            && a.iter()
                .zip(b.iter())
                .all(|(x, y)| x.structurally_equals(y))
    }
}

impl Freezable for ValueList {
    fn freeze(&self) {
        self.inner.freeze.freeze();
    }

    fn is_frozen(&self) -> bool {
        self.inner.freeze.is_frozen()
    }

    fn attach_to(&mut self, flag: &FreezeFlag) {
        self.inner.freeze.attach_to(flag);
    }
}

impl FromIterator<Value> for ValueList {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let list = ValueList::new();
        for v in iter {
            list.push(v).expect("fresh list is not frozen");
        }
        list
    }
}

/// A freezable, string-keyed map of [`Value`]s.
#[derive(Clone, Debug, Default)]
pub struct ValueMap {
    inner: Collection<BTreeMap<String, Value>>,
}

impl ValueMap {
    /// Creates an empty, unfrozen map.
    pub fn new() -> Self {
        ValueMap::default()
    }

    /// Inserts a key/value pair; fails if the map is frozen.
    pub fn insert(&self, key: impl Into<String>, mut value: Value) -> Result<(), FreezeError> {
        self.check_mutable()?;
        attach_value(&mut value, self.inner.freeze.own_flag());
        self.inner.storage.write().insert(key.into(), value);
        Ok(())
    }

    /// Removes a key; fails if the map is frozen.
    pub fn remove(&self, key: &str) -> Result<Option<Value>, FreezeError> {
        self.check_mutable()?;
        Ok(self.inner.storage.write().remove(key))
    }

    /// Returns a clone of the value stored under `key`.
    pub fn get(&self, key: &str) -> Option<Value> {
        self.inner.storage.read().get(key).cloned()
    }

    /// Returns the number of entries.
    pub fn len(&self) -> usize {
        self.inner.storage.read().len()
    }

    /// Returns `true` if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a snapshot of the keys.
    pub fn keys(&self) -> Vec<String> {
        self.inner.storage.read().keys().cloned().collect()
    }

    /// Returns a snapshot of the entries.
    pub fn entries(&self) -> Vec<(String, Value)> {
        self.inner
            .storage
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Produces a deep, unfrozen copy.
    pub fn deep_clone(&self) -> ValueMap {
        let copy = ValueMap::new();
        for (k, v) in self.inner.storage.read().iter() {
            copy.insert(k.clone(), v.deep_clone())
                .expect("fresh map is not frozen");
        }
        copy
    }

    /// Structural equality.
    pub fn structurally_equals(&self, other: &ValueMap) -> bool {
        let a = self.inner.storage.read();
        let b = other.inner.storage.read();
        a.len() == b.len()
            && a.iter()
                .zip(b.iter())
                .all(|((ka, va), (kb, vb))| ka == kb && va.structurally_equals(vb))
    }
}

impl Freezable for ValueMap {
    fn freeze(&self) {
        self.inner.freeze.freeze();
    }

    fn is_frozen(&self) -> bool {
        self.inner.freeze.is_frozen()
    }

    fn attach_to(&mut self, flag: &FreezeFlag) {
        self.inner.freeze.attach_to(flag);
    }
}

/// Implements the freeze protocol for the whole `Value` enum: scalars are immutable
/// (always "frozen" in the trivial sense of never being mutable), collections
/// delegate to their own state.
impl Freezable for Value {
    fn freeze(&self) {
        match self {
            Value::List(l) => l.freeze(),
            Value::Map(m) => m.freeze(),
            _ => {}
        }
    }

    fn is_frozen(&self) -> bool {
        match self {
            Value::List(l) => l.is_frozen(),
            Value::Map(m) => m.is_frozen(),
            // Scalars carry no mutable state.
            _ => true,
        }
    }

    fn attach_to(&mut self, flag: &FreezeFlag) {
        match self {
            Value::List(l) => l.attach_to(flag),
            Value::Map(m) => m.attach_to(flag),
            _ => {}
        }
    }
}

/// Attaches a value being inserted into a collection to the collection's flag.
fn attach_value(value: &mut Value, flag: &FreezeFlag) {
    value.attach_to(flag);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::bytes(vec![1, 2]).as_bytes(), Some(&[1u8, 2][..]));
        assert_eq!(Value::Timestamp(10).as_timestamp(), Some(10));
        assert!(Value::Null.is_null());
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

    #[test]
    fn list_push_and_freeze() {
        let list = ValueList::new();
        list.push(Value::Int(1)).unwrap();
        list.push(Value::Int(2)).unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list.get(0), Some(Value::Int(1)));

        list.freeze();
        assert!(list.is_frozen());
        assert_eq!(list.push(Value::Int(3)), Err(FreezeError));
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn freezing_collection_freezes_members_constant_time() {
        // A nested list attached to a parent must become frozen when the parent is
        // frozen, without the parent iterating over members.
        let child = ValueList::new();
        child.push(Value::Int(1)).unwrap();

        let parent = ValueList::new();
        parent.push(Value::List(child.clone())).unwrap();

        assert!(!child.is_frozen());
        parent.freeze();

        // The member we pushed is frozen through the shared flag.
        let member = parent.get(0).unwrap();
        assert!(member.is_frozen());
        // And mutating it through any handle that was attached fails.
        if let Value::List(inner) = member {
            assert_eq!(inner.push(Value::Int(2)), Err(FreezeError));
        } else {
            panic!("expected list");
        }
    }

    #[test]
    fn map_operations_and_freeze() {
        let map = ValueMap::new();
        map.insert("price", Value::Float(12.5)).unwrap();
        map.insert("symbol", Value::str("MSFT")).unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map.get("price"), Some(Value::Float(12.5)));
        assert_eq!(map.keys(), vec!["price".to_string(), "symbol".to_string()]);

        map.freeze();
        assert!(map.insert("x", Value::Null).is_err());
        assert!(map.remove("price").is_err());
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn deep_clone_detaches_from_frozen_original() {
        let map = ValueMap::new();
        map.insert("a", Value::Int(1)).unwrap();
        map.freeze();

        let copy = map.deep_clone();
        assert!(!copy.is_frozen());
        copy.insert("b", Value::Int(2)).unwrap();
        assert_eq!(copy.len(), 2);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn shallow_clone_shares_storage() {
        let list = ValueList::new();
        let alias = list.clone();
        list.push(Value::Int(1)).unwrap();
        assert_eq!(alias.len(), 1, "clone shares the same storage");
    }

    #[test]
    fn structural_equality() {
        let a = ValueMap::new();
        a.insert("k", Value::Int(1)).unwrap();
        let b = ValueMap::new();
        b.insert("k", Value::Int(1)).unwrap();
        assert_eq!(Value::Map(a.clone()), Value::Map(b.clone()));
        b.insert("j", Value::Int(2)).unwrap();
        assert_ne!(Value::Map(a), Value::Map(b));
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

    #[test]
    fn scalars_are_trivially_frozen() {
        assert!(Value::Int(1).is_frozen());
        assert!(Value::str("x").is_frozen());
        let list = ValueList::new();
        assert!(!Value::List(list).is_frozen());
    }
}
