//! Per-unit privileges over tags and the delegation rules of §3.1.3.
//!
//! A unit `u` holds four privilege sets:
//!
//! * `O+` — tags that `u` may *add* to a label component (raising secrecy, or
//!   endorsing integrity);
//! * `O-` — tags that `u` may *remove* from a label component (declassifying
//!   secrecy, or dropping integrity);
//! * `O+auth` — tags for which `u` may *delegate* the `t+` privilege (and `t+auth`
//!   itself) to other units;
//! * `O-auth` — likewise for `t-` / `t-auth`.
//!
//! The separation of `O+`/`O-` from the `auth` sets is one of the model's novel
//! features: it allows event flows to be pinned to specific topologies, e.g. a
//! Regulator that can declassify but cannot grant the Broker the right to do so.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::DefcError;
use crate::tag::Tag;
use crate::tagset::TagSet;

/// The kind of privilege over a single tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrivilegeKind {
    /// `t+`: the right to add `t` to a label component.
    Add,
    /// `t-`: the right to remove `t` from a label component.
    Remove,
    /// `t+auth`: the right to delegate `t+` (and `t+auth`) to other units.
    AddAuthority,
    /// `t-auth`: the right to delegate `t-` (and `t-auth`) to other units.
    RemoveAuthority,
}

impl PrivilegeKind {
    /// Returns the authority kind able to delegate this privilege.
    ///
    /// `Add` and `AddAuthority` are both delegated under `AddAuthority`; likewise
    /// for the `Remove` side.
    fn required_authority(self) -> PrivilegeKind {
        match self {
            PrivilegeKind::Add | PrivilegeKind::AddAuthority => PrivilegeKind::AddAuthority,
            PrivilegeKind::Remove | PrivilegeKind::RemoveAuthority => {
                PrivilegeKind::RemoveAuthority
            }
        }
    }
}

impl fmt::Display for PrivilegeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PrivilegeKind::Add => "t+",
            PrivilegeKind::Remove => "t-",
            PrivilegeKind::AddAuthority => "t+auth",
            PrivilegeKind::RemoveAuthority => "t-auth",
        };
        f.write_str(s)
    }
}

/// A single privilege: a kind applied to a specific tag.
///
/// Privileges are the payload of privilege-carrying event parts (§3.1.5): reading
/// such a part bestows the contained privileges on the reader.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Privilege {
    /// The tag the privilege refers to.
    pub tag: Tag,
    /// The kind of privilege.
    pub kind: PrivilegeKind,
}

impl Privilege {
    /// Creates a new privilege of `kind` over `tag`.
    pub fn new(tag: Tag, kind: PrivilegeKind) -> Self {
        Privilege { tag, kind }
    }

    /// Shorthand for `t+`.
    pub fn add(tag: Tag) -> Self {
        Privilege::new(tag, PrivilegeKind::Add)
    }

    /// Shorthand for `t-`.
    pub fn remove(tag: Tag) -> Self {
        Privilege::new(tag, PrivilegeKind::Remove)
    }

    /// Shorthand for `t+auth`.
    pub fn add_authority(tag: Tag) -> Self {
        Privilege::new(tag, PrivilegeKind::AddAuthority)
    }

    /// Shorthand for `t-auth`.
    pub fn remove_authority(tag: Tag) -> Self {
        Privilege::new(tag, PrivilegeKind::RemoveAuthority)
    }
}

impl fmt::Display for Privilege {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.kind, self.tag)
    }
}

/// The complete privilege state of a unit: `O+`, `O-`, `O+auth`, `O-auth`.
#[derive(Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrivilegeSet {
    add: TagSet,
    remove: TagSet,
    add_auth: TagSet,
    remove_auth: TagSet,
}

impl PrivilegeSet {
    /// Returns an empty privilege set.
    pub fn empty() -> Self {
        PrivilegeSet::default()
    }

    /// Returns the privilege set granted when a unit successfully creates a tag:
    /// `t+auth` and `t-auth` (§3.1.3). Note that, exactly as in the paper, creating
    /// a tag grants only the *authority* privileges; most units immediately
    /// self-delegate to also obtain `t+` / `t-`.
    fn for_created_tag(tag: &Tag) -> Self {
        let mut set = PrivilegeSet::empty();
        set.grant(Privilege::add_authority(tag.clone()));
        set.grant(Privilege::remove_authority(tag.clone()));
        set
    }

    /// Returns the privilege set giving complete control over a tag:
    /// `t+`, `t-`, `t+auth` and `t-auth`.
    pub fn owner(tag: &Tag) -> Self {
        let mut set = PrivilegeSet::for_created_tag(tag);
        set.grant(Privilege::add(tag.clone()));
        set.grant(Privilege::remove(tag.clone()));
        set
    }

    /// Returns `true` if the set holds `kind` over `tag`.
    pub fn holds(&self, tag: &Tag, kind: PrivilegeKind) -> bool {
        self.set_for(kind).contains(tag)
    }

    /// Grants a privilege unconditionally (used by the trusted engine).
    pub fn grant(&mut self, privilege: Privilege) {
        self.set_for_mut(privilege.kind).insert(privilege.tag);
    }

    /// Revokes all four privileges over `tag`; returns `true` if any was held.
    pub fn revoke_all(&mut self, tag: &Tag) -> bool {
        // Non-short-circuiting `|`: every set must drop the tag.
        self.add.remove(tag)
            | self.remove.remove(tag)
            | self.add_auth.remove(tag)
            | self.remove_auth.remove(tag)
    }

    /// Merges all privileges of `other` into `self`.
    pub fn absorb(&mut self, other: &PrivilegeSet) {
        self.add = self.add.union(&other.add);
        self.remove = self.remove.union(&other.remove);
        self.add_auth = self.add_auth.union(&other.add_auth);
        self.remove_auth = self.remove_auth.union(&other.remove_auth);
    }

    /// Checks that this set may delegate `privilege` to another unit.
    ///
    /// Per §3.1.3, `t-auth` lets a unit delegate `t-` and `t-auth`; `t+auth` lets it
    /// delegate `t+` and `t+auth`. Holding `t+`/`t-` alone does **not** allow
    /// transferring them.
    pub fn check_may_delegate(&self, privilege: &Privilege) -> Result<(), DefcError> {
        let required = privilege.kind.required_authority();
        if self.holds(&privilege.tag, required) {
            Ok(())
        } else {
            Err(DefcError::MissingDelegationPrivilege(privilege.tag.id()))
        }
    }

    /// Checks that the holder may add `tag` to a label component.
    pub fn check_may_add(&self, tag: &Tag) -> Result<(), DefcError> {
        if self.holds(tag, PrivilegeKind::Add) {
            Ok(())
        } else {
            Err(DefcError::MissingAddPrivilege(tag.id()))
        }
    }

    /// Checks that the holder may remove `tag` from a label component.
    pub fn check_may_remove(&self, tag: &Tag) -> Result<(), DefcError> {
        if self.holds(tag, PrivilegeKind::Remove) {
            Ok(())
        } else {
            Err(DefcError::MissingRemovePrivilege(tag.id()))
        }
    }

    /// Returns an iterator over every privilege in the set.
    pub fn iter(&self) -> impl Iterator<Item = Privilege> + '_ {
        let adds = self.add.iter().cloned().map(Privilege::add);
        let removes = self.remove.iter().cloned().map(Privilege::remove);
        let add_auths = self.add_auth.iter().cloned().map(Privilege::add_authority);
        let remove_auths = self
            .remove_auth
            .iter()
            .cloned()
            .map(Privilege::remove_authority);
        adds.chain(removes).chain(add_auths).chain(remove_auths)
    }

    /// Returns the number of individual privileges held.
    pub fn len(&self) -> usize {
        self.add.len() + self.remove.len() + self.add_auth.len() + self.remove_auth.len()
    }

    /// Returns `true` if no privileges are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the tag set backing a given privilege kind.
    fn set_for(&self, kind: PrivilegeKind) -> &TagSet {
        match kind {
            PrivilegeKind::Add => &self.add,
            PrivilegeKind::Remove => &self.remove,
            PrivilegeKind::AddAuthority => &self.add_auth,
            PrivilegeKind::RemoveAuthority => &self.remove_auth,
        }
    }

    fn set_for_mut(&mut self, kind: PrivilegeKind) -> &mut TagSet {
        match kind {
            PrivilegeKind::Add => &mut self.add,
            PrivilegeKind::Remove => &mut self.remove,
            PrivilegeKind::AddAuthority => &mut self.add_auth,
            PrivilegeKind::RemoveAuthority => &mut self.remove_auth,
        }
    }
}

impl fmt::Debug for PrivilegeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PrivilegeSet {{ O+: {:?}, O-: {:?}, O+auth: {:?}, O-auth: {:?} }}",
            self.add, self.remove, self.add_auth, self.remove_auth
        )
    }
}

impl FromIterator<Privilege> for PrivilegeSet {
    fn from_iter<I: IntoIterator<Item = Privilege>>(iter: I) -> Self {
        let mut set = PrivilegeSet::empty();
        for p in iter {
            set.grant(p);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn created_tag_grants_only_authority() {
        let t = Tag::with_name("t");
        let set = PrivilegeSet::for_created_tag(&t);
        assert!(set.holds(&t, PrivilegeKind::AddAuthority));
        assert!(set.holds(&t, PrivilegeKind::RemoveAuthority));
        assert!(!set.holds(&t, PrivilegeKind::Add));
        assert!(!set.holds(&t, PrivilegeKind::Remove));
    }

    #[test]
    fn owner_holds_everything() {
        let t = Tag::with_name("t");
        let set = PrivilegeSet::owner(&t);
        for kind in [
            PrivilegeKind::Add,
            PrivilegeKind::Remove,
            PrivilegeKind::AddAuthority,
            PrivilegeKind::RemoveAuthority,
        ] {
            assert!(set.holds(&t, kind));
        }
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn delegation_requires_authority_not_bare_privilege() {
        let t = Tag::with_name("t");
        let mut bare = PrivilegeSet::empty();
        bare.grant(Privilege::add(t.clone()));
        bare.grant(Privilege::remove(t.clone()));

        // Holding t+ / t- alone must not allow transfer (§3.1.3).
        assert!(bare.check_may_delegate(&Privilege::add(t.clone())).is_err());
        assert!(bare
            .check_may_delegate(&Privilege::remove(t.clone()))
            .is_err());

        let auth = PrivilegeSet::for_created_tag(&t);
        assert!(auth.check_may_delegate(&Privilege::add(t.clone())).is_ok());
        assert!(auth
            .check_may_delegate(&Privilege::add_authority(t.clone()))
            .is_ok());
        assert!(auth
            .check_may_delegate(&Privilege::remove_authority(t.clone()))
            .is_ok());
    }

    #[test]
    fn delegation_is_per_tag() {
        let t = Tag::with_name("t");
        let other = Tag::with_name("other");
        let auth = PrivilegeSet::for_created_tag(&t);
        assert!(auth.check_may_delegate(&Privilege::add(other)).is_err());
    }

    #[test]
    fn absorb_merges_privileges() {
        let t1 = Tag::with_name("t1");
        let t2 = Tag::with_name("t2");
        let mut a = PrivilegeSet::owner(&t1);
        let b = PrivilegeSet::owner(&t2);
        a.absorb(&b);
        assert!(a.holds(&t1, PrivilegeKind::Add));
        assert!(a.holds(&t2, PrivilegeKind::Add));
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn revoke_and_iter() {
        let t = Tag::with_name("t");
        let other = Tag::with_name("other");
        let mut set = PrivilegeSet::for_created_tag(&t);
        set.absorb(&PrivilegeSet::owner(&other));
        assert!(set.revoke_all(&other));
        assert_eq!(set.len(), 2);
        let listed: PrivilegeSet = set.iter().collect();
        assert_eq!(listed, PrivilegeSet::for_created_tag(&t));
        assert!(set.iter().all(|p| p.tag == t));
    }

    #[test]
    fn revoke_all_drops_every_kind_over_one_tag() {
        let t = Tag::with_name("t");
        let other = Tag::with_name("other");
        let mut set = PrivilegeSet::owner(&t);
        set.absorb(&PrivilegeSet::owner(&other));
        assert!(set.revoke_all(&t));
        assert!(!set.revoke_all(&t), "nothing left to revoke");
        assert_eq!(set, PrivilegeSet::owner(&other));
    }

    #[test]
    fn display_formats() {
        let t = Tag::with_name("x");
        assert_eq!(Privilege::add(t.clone()).to_string(), "t+[x]");
        assert_eq!(Privilege::remove_authority(t).to_string(), "t-auth[x]");
    }

    #[test]
    fn required_authority_mapping() {
        assert_eq!(
            PrivilegeKind::Add.required_authority(),
            PrivilegeKind::AddAuthority
        );
        assert_eq!(
            PrivilegeKind::AddAuthority.required_authority(),
            PrivilegeKind::AddAuthority
        );
        assert_eq!(
            PrivilegeKind::Remove.required_authority(),
            PrivilegeKind::RemoveAuthority
        );
        assert_eq!(
            PrivilegeKind::RemoveAuthority.required_authority(),
            PrivilegeKind::RemoveAuthority
        );
    }
}
