//! Eraser-style static locksets.
//!
//! Every shared access recorded by the MHP engine ([`crate::mhp`])
//! carries the set of locks held on the (unique — the directive
//! language is branch-free) path to it. A lock entry is a runtime lock
//! key (`lock:<name>` for criticals, `red:<var>` for reduction folds)
//! tagged with the **dynamic acquisition instance** that produced it.
//!
//! The tag matters for nested parallelism: two sibling threads spawned
//! *inside* a critical both inherit the parent's lock, but that one
//! acquisition provides no mutual exclusion between them. Two accesses
//! are mutually excluded by a lock only when they reach it through
//! **different** acquisitions of the same key — different acquisitions
//! of one lock can never overlap, so the accesses are ordered.

use std::collections::BTreeMap;

/// The locks held at one program point: lock key → acquisition id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Lockset {
    held: BTreeMap<String, u64>,
}

impl Lockset {
    /// The empty lockset.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `key` as held, acquired by dynamic acquisition `acq`.
    pub fn acquire(&mut self, key: &str, acq: u64) {
        self.held.insert(key.to_string(), acq);
    }

    /// Drop `key` from the set.
    pub fn release(&mut self, key: &str) {
        self.held.remove(key);
    }

    /// Is `key` currently held?
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.held.contains_key(key)
    }

    /// No locks held?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }

    /// Number of held locks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.held.len()
    }

    /// The held lock keys, sorted.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.held.keys().map(String::as_str)
    }

    /// Do two locksets mutually exclude the accesses they belong to?
    /// True iff some key is present in both through **different**
    /// acquisitions (see module docs for why same-acquisition sharing
    /// does not count).
    #[must_use]
    pub fn excludes(&self, other: &Lockset) -> bool {
        self.held
            .iter()
            .any(|(key, acq)| other.held.get(key).is_some_and(|o| o != acq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ls(pairs: &[(&str, u64)]) -> Lockset {
        let mut l = Lockset::new();
        for (k, a) in pairs {
            l.acquire(k, *a);
        }
        l
    }

    #[test]
    fn disjoint_locksets_do_not_exclude() {
        assert!(!ls(&[("lock:a", 1)]).excludes(&ls(&[("lock:b", 2)])));
        assert!(!Lockset::new().excludes(&ls(&[("lock:a", 1)])));
    }

    #[test]
    fn different_acquisitions_of_one_lock_exclude() {
        assert!(ls(&[("lock:a", 1)]).excludes(&ls(&[("lock:a", 2)])));
    }

    #[test]
    fn the_same_acquisition_does_not_exclude() {
        // Nested-parallel siblings inheriting the parent's critical:
        // one acquisition, no mutual exclusion between them.
        assert!(!ls(&[("lock:a", 7)]).excludes(&ls(&[("lock:a", 7)])));
    }

    #[test]
    fn release_restores_emptiness() {
        let mut l = ls(&[("lock:a", 1)]);
        assert!(l.contains("lock:a") && !l.is_empty() && l.len() == 1);
        l.release("lock:a");
        assert!(l.is_empty());
    }
}
