//! Eraser-style static locksets.
//!
//! Every shared access recorded by the MHP engine ([`crate::mhp`])
//! carries the set of locks held on the (unique — the directive
//! language is branch-free) path to it. A lock entry is a runtime lock
//! key ([`LockKey`]: `lock:<name>` for criticals, `red:<var>` for
//! reduction folds, each naming a per-program symbol) tagged with the
//! **dynamic acquisition instance** that produced it.
//!
//! The tag matters for nested parallelism: two sibling threads spawned
//! *inside* a critical both inherit the parent's lock, but that one
//! acquisition provides no mutual exclusion between them. Two accesses
//! are mutually excluded by a lock only when they reach it through
//! **different** acquisitions of the same key — different acquisitions
//! of one lock can never overlap, so the accesses are ordered.

use std::fmt;
use std::sync::Arc;

use crate::sym::{NameSet, Sym, Symbols};

/// A runtime lock: a `critical`'s (`lock:<name>`; the unnamed
/// critical's name is empty) or a reduction fold's (`red:<var>`).
/// Keys order as their spellings do: every critical before every fold,
/// then by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockKey {
    /// `lock:<name>`.
    Critical(Sym),
    /// `red:<var>`.
    Fold(Sym),
}

impl LockKey {
    /// The key as spelled at run time: `lock:<name>` or `red:<var>`.
    #[must_use]
    pub fn spell(self, syms: &Symbols) -> impl fmt::Display + '_ {
        Spelled(self, syms)
    }
}

struct Spelled<'a>(LockKey, &'a Symbols);

impl fmt::Display for Spelled<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            LockKey::Critical(name) => write!(f, "lock:{}", self.1.name(name)),
            LockKey::Fold(var) => write!(f, "red:{}", self.1.name(var)),
        }
    }
}

/// A set of lock keys, iterated in key order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeySet {
    critical: NameSet,
    fold: NameSet,
}

impl KeySet {
    /// Add `key`.
    pub fn insert(&mut self, key: LockKey) {
        match key {
            LockKey::Critical(name) => self.critical.insert(name),
            LockKey::Fold(var) => self.fold.insert(var),
        }
    }

    /// The members, in key order.
    pub fn iter(&self) -> impl Iterator<Item = LockKey> + '_ {
        self.critical.iter().map(LockKey::Critical).chain(self.fold.iter().map(LockKey::Fold))
    }
}

/// The locks held at one program point: lock key → acquisition id,
/// sorted by key. Every access and arrival the MHP model records carries
/// one, so a clone shares the entries; `acquire` and `release` build new
/// ones. The empty set holds no allocation (`None`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Lockset {
    held: Option<Arc<[(LockKey, u64)]>>,
}

impl Lockset {
    /// The empty lockset.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn held(&self) -> &[(LockKey, u64)] {
        self.held.as_deref().unwrap_or_default()
    }

    fn find(&self, key: LockKey) -> Result<usize, usize> {
        self.held().binary_search_by_key(&key, |(k, _)| *k)
    }

    /// Record `key` as held, acquired by dynamic acquisition `acq`.
    pub fn acquire(&mut self, key: LockKey, acq: u64) {
        let held = self.held();
        let (before, after) = match self.find(key) {
            Ok(at) => (&held[..at], &held[at + 1..]),
            Err(at) => (&held[..at], &held[at..]),
        };
        self.held = Some(before.iter().copied().chain([(key, acq)]).chain(after.iter().copied()).collect());
    }

    /// Drop `key` from the set.
    pub fn release(&mut self, key: LockKey) {
        if let Ok(at) = self.find(key) {
            let held = self.held();
            let (before, after) = (&held[..at], &held[at + 1..]);
            self.held = (held.len() > 1).then(|| before.iter().chain(after).copied().collect());
        }
    }

    /// Is `key` currently held?
    #[must_use]
    pub fn contains(&self, key: LockKey) -> bool {
        self.find(key).is_ok()
    }

    /// No locks held?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.held.is_none()
    }

    /// Number of held locks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.held().len()
    }

    /// The held lock keys, sorted.
    pub fn keys(&self) -> impl Iterator<Item = LockKey> + '_ {
        self.held().iter().map(|(key, _)| *key)
    }

    /// The held keys with their acquisition ids, sorted by key.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (LockKey, u64)> + '_ {
        self.held().iter().copied()
    }

    /// Do two locksets mutually exclude the accesses they belong to?
    /// True iff some key is present in both through **different**
    /// acquisitions (see module docs for why same-acquisition sharing
    /// does not count).
    #[must_use]
    pub fn excludes(&self, other: &Lockset) -> bool {
        self.held()
            .iter()
            .any(|(key, acq)| other.find(*key).is_ok_and(|at| other.held()[at].1 != *acq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: LockKey = LockKey::Critical(Sym(1));
    const B: LockKey = LockKey::Critical(Sym(2));

    fn ls(pairs: &[(LockKey, u64)]) -> Lockset {
        let mut l = Lockset::new();
        for (k, a) in pairs {
            l.acquire(*k, *a);
        }
        l
    }

    #[test]
    fn disjoint_locksets_do_not_exclude() {
        assert!(!ls(&[(A, 1)]).excludes(&ls(&[(B, 2)])));
        assert!(!Lockset::new().excludes(&ls(&[(A, 1)])));
    }

    #[test]
    fn different_acquisitions_of_one_lock_exclude() {
        assert!(ls(&[(A, 1)]).excludes(&ls(&[(A, 2)])));
    }

    #[test]
    fn the_same_acquisition_does_not_exclude() {
        // Nested-parallel siblings inheriting the parent's critical:
        // one acquisition, no mutual exclusion between them.
        assert!(!ls(&[(A, 7)]).excludes(&ls(&[(A, 7)])));
    }

    #[test]
    fn release_restores_emptiness() {
        let mut l = ls(&[(A, 1)]);
        assert!(l.contains(A) && !l.is_empty() && l.len() == 1);
        l.release(A);
        assert!(l.is_empty());
    }

    #[test]
    fn keys_order_as_their_spellings() {
        // Every `lock:` key sorts before every `red:` key, then by name.
        assert!(LockKey::Critical(Sym(5)) < LockKey::Fold(Sym(0)));
        let mut set = KeySet::default();
        for key in [LockKey::Fold(Sym(1)), B, A] {
            set.insert(key);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), [A, B, LockKey::Fold(Sym(1))]);
        assert_eq!(ls(&[(B, 1), (A, 2)]).keys().collect::<Vec<_>>(), [A, B]);
    }
}
