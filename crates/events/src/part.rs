//! Event parts: named, individually labelled pieces of an event.
//!
//! §3.1.2: "An event consists of a number of event parts. Each part has a name,
//! associated data and a security label." Parts may additionally carry privileges
//! (§3.1.5), turning a read of the part into an in-band privilege delegation.
//!
//! A part's [`Value`] is immutable by type, so constructing a part needs no
//! freezing step: its data is shared by reference from then on, and only the
//! `labels+clone` configuration copies it (through [`Part::deep_clone`]).

use std::fmt;
use std::sync::Arc;

use defcon_defc::{Label, Privilege};

use crate::value::Value;

/// The name of an event part (`"type"`, `"body"`, `"trader_id"`, ...).
///
/// Part names are interned into `Arc<str>` so that events replicated across many
/// subscribers share a single allocation per distinct name.
pub type PartName = Arc<str>;

/// Creates a [`PartName`] from a string-like value.
///
/// Names are interned in a process-wide table: the distinct part names of a
/// deployment form a tiny, stable vocabulary (`"type"`, `"price"`, ...), so
/// after warm-up this is a hash lookup plus a reference-count bump instead of
/// an allocation per part constructed — which matters on the publish hot path,
/// where every event allocates its parts.
pub fn part_name(name: impl AsRef<str>) -> PartName {
    use std::cell::RefCell;
    use std::collections::HashSet;
    use std::sync::OnceLock;

    // The table is bounded: a deployment that generates part names
    // dynamically (per-order, per-client, ...) must not grow a process-wide
    // strong-reference table forever. Past the cap, new names fall back to a
    // plain (un-shared) allocation — correctness is unaffected, only the
    // sharing optimisation stops applying to the long tail.
    const NAME_INTERN_CAP: usize = 4096;

    static NAMES: OnceLock<parking_lot::RwLock<HashSet<PartName>>> = OnceLock::new();
    // One-entry per-thread cache for the overwhelmingly common case of
    // consecutive constructions sharing a name (a feed building "type" parts
    // in a loop): a short string compare instead of the table's lock + hash.
    thread_local! {
        static LAST: RefCell<Option<PartName>> = const { RefCell::new(None) };
    }
    let name = name.as_ref();
    LAST.with(|last| {
        if let Some(cached) = last.borrow().as_deref() {
            if cached == name {
                return last.borrow().clone().expect("just observed");
            }
        }
        let names = NAMES.get_or_init(|| parking_lot::RwLock::new(HashSet::new()));
        // The read guard must be fully released before taking the write lock
        // (scoped explicitly: an `if let` over `names.read().get(..)` would
        // keep the read guard alive through its else branch).
        let interned = {
            let table = names.read();
            table.get(name).cloned()
        };
        let interned = interned.unwrap_or_else(|| {
            let mut table = names.write();
            if let Some(existing) = table.get(name) {
                Arc::clone(existing)
            } else {
                let fresh: PartName = Arc::from(name);
                if table.len() < NAME_INTERN_CAP {
                    table.insert(Arc::clone(&fresh));
                }
                fresh
            }
        });
        *last.borrow_mut() = Some(Arc::clone(&interned));
        interned
    })
}

/// The shared empty privilege list: almost every part carries no privileges,
/// so they all point at one allocation instead of allocating an empty
/// `Arc<[Privilege]>` each.
fn no_privileges() -> Arc<[Privilege]> {
    static EMPTY: std::sync::OnceLock<Arc<[Privilege]>> = std::sync::OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::from(Vec::new().into_boxed_slice())))
}

/// A single named, labelled piece of event data.
///
/// A part is immutable once constructed: its [`Value`] cannot change, and
/// "modification" of a part by a unit produces a new version (see
/// `Event::parts_named` and §3.1.6 on conflicting modifications).
#[derive(Clone, Debug)]
pub struct Part {
    name: PartName,
    label: Label,
    data: Value,
    privileges: Arc<[Privilege]>,
}

impl Part {
    /// Creates a new part with the given name, label and data.
    pub fn new(name: impl AsRef<str>, label: Label, data: Value) -> Self {
        Part::from_name_handle(part_name(name), label, data)
    }

    /// Creates a new part from an already-interned [`PartName`] handle,
    /// skipping the name lookup — the allocation-free constructor for callers
    /// (drafts, codecs) that resolve names ahead of time.
    pub fn from_name_handle(name: PartName, label: Label, data: Value) -> Self {
        Part {
            name,
            label,
            data,
            privileges: no_privileges(),
        }
    }

    /// Raises the part's label to a publishing unit's output label **in
    /// place** (contamination independence, Table 1).
    ///
    /// This is the allocation-free publish-path variant of rebuilding the
    /// part: an [`EventDraft`](crate::Event)-style buffer of pre-built parts
    /// can be moved into an event after raising each label, instead of being
    /// reconstructed part by part. It does not break part immutability as
    /// observed by units — it is only callable while the publisher still owns
    /// the part exclusively, before the event enters the engine.
    pub fn raise_label_to_output(&mut self, output: &Label) {
        self.label = self.label.raised_to_output(output);
    }

    /// Creates a privilege-carrying part (§3.1.5).
    ///
    /// Reading the part bestows `privileges` on the reader, provided the reader's
    /// input label already allows it to see the part's data.
    pub fn with_privileges(
        name: impl AsRef<str>,
        label: Label,
        data: Value,
        privileges: Vec<Privilege>,
    ) -> Self {
        let privileges = if privileges.is_empty() {
            no_privileges()
        } else {
            Arc::from(privileges.into_boxed_slice())
        };
        Part {
            name: part_name(name),
            label,
            data,
            privileges,
        }
    }

    /// Returns the part name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the part's security label.
    pub fn label(&self) -> &Label {
        &self.label
    }

    /// Returns the part's data.
    pub fn data(&self) -> &Value {
        &self.data
    }

    /// Returns the privileges attached to this part.
    pub fn privileges(&self) -> &[Privilege] {
        &self.privileges
    }

    /// Returns `true` if this part carries at least one privilege.
    pub(crate) fn is_privilege_carrying(&self) -> bool {
        !self.privileges.is_empty()
    }

    /// Returns a copy of this part with an additional privilege attached.
    ///
    /// Used by the engine's `attachPrivilegeToPart` call (Table 1); the privilege
    /// check (caller holds `t±auth`) happens in the engine, not here.
    pub fn with_additional_privilege(&self, privilege: Privilege) -> Part {
        let mut privileges: Vec<Privilege> = self.privileges.to_vec();
        privileges.push(privilege);
        Part {
            name: self.name.clone(),
            label: self.label.clone(),
            data: self.data.clone(),
            privileges: Arc::from(privileges.into_boxed_slice()),
        }
    }

    /// Returns a copy of this part with its label replaced.
    ///
    /// Used when cloning events at a unit's output label (`cloneEvent`, Table 1).
    pub fn with_label(&self, label: Label) -> Part {
        Part {
            name: self.name.clone(),
            label,
            data: self.data.clone(),
            privileges: self.privileges.clone(),
        }
    }

    /// Produces a deep copy of this part, duplicating the data.
    ///
    /// Only used by the `labels+clone` dispatch configuration and the baseline;
    /// normal DEFCon dispatch shares the data by reference.
    pub fn deep_clone(&self) -> Part {
        Part {
            name: self.name.clone(),
            label: self.label.clone(),
            data: self.data.deep_clone(),
            privileges: self.privileges.clone(),
        }
    }
}

impl fmt::Display for Part {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} = {}", self.name, self.label, self.data)?;
        if self.is_privilege_carrying() {
            write!(f, " [+{} privileges]", self.privileges.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_defc::{Tag, TagSet};

    use crate::value::ValueMap;

    /// The address of the string stored under `"symbol"` in a part's map.
    fn symbol_at(part: &Part) -> *const u8 {
        let symbol = part.data().as_map().and_then(|m| m.get("symbol"));
        symbol.and_then(Value::as_str).unwrap().as_ptr()
    }

    #[test]
    fn new_part_freezes_data() {
        // "Freezing" a part's data is sharing it: the part holds the caller's
        // storage, not a copy.
        let symbol = Value::str("MSFT");
        let map: ValueMap = [("symbol", symbol.clone())].into_iter().collect();
        let part = Part::new("body", Label::public(), Value::Map(map));
        assert_eq!(symbol_at(&part), symbol.as_str().unwrap().as_ptr());
        assert_eq!(part.name(), "body");
        assert!(!part.is_privilege_carrying());
    }

    #[test]
    fn privilege_carrying_part() {
        let t = Tag::with_name("t");
        let part = Part::with_privileges(
            "grant",
            Label::public(),
            Value::Tag(t.id()),
            vec![Privilege::add(t.clone())],
        );
        assert!(part.is_privilege_carrying());
        assert_eq!(part.privileges().len(), 1);
        assert_eq!(part.data().as_tag(), Some(t.id()));

        let more = part.with_additional_privilege(Privilege::remove(t.clone()));
        assert_eq!(more.privileges().len(), 2);
        assert_eq!(part.privileges().len(), 1, "original part unchanged");
    }

    #[test]
    fn with_label_replaces_label_only() {
        let dark = Tag::with_name("dark-pool");
        let part = Part::new("body", Label::public(), Value::Int(1));
        let secret = part.with_label(Label::confidential(TagSet::singleton(dark.clone())));
        assert!(secret.label().confidentiality().contains(&dark));
        assert_eq!(secret.data(), part.data());
        assert!(part.label().is_public());
    }

    #[test]
    fn deep_clone_duplicates_data() {
        let map: ValueMap = [("symbol", Value::str("MSFT"))].into_iter().collect();
        let part = Part::new("body", Label::public(), Value::Map(map));
        let copy = part.deep_clone();
        assert_eq!(copy.data(), part.data());
        assert_ne!(
            symbol_at(&copy),
            symbol_at(&part),
            "the copy has its own storage"
        );
        assert_eq!(symbol_at(&part.clone()), symbol_at(&part));
    }

    #[test]
    fn display_mentions_name_and_privileges() {
        let t = Tag::with_name("t");
        let p = Part::with_privileges(
            "grant",
            Label::public(),
            Value::Null,
            vec![Privilege::add(t)],
        );
        let s = p.to_string();
        assert!(s.contains("grant"));
        assert!(s.contains("privileges"));
    }
}
