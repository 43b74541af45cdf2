//! Sorted linked-list sets: coarse-grained vs hand-over-hand locking.
//!
//! The "Sets" row of project 9's collection comparison, implemented
//! the way the course teaches it: a sorted singly linked list with a
//! sentinel head, protected either by one coarse lock ([`CoarseSet`])
//! or by **lock coupling** ([`FineSet`], hand-over-hand: acquire the
//! successor's lock before releasing the predecessor's, so traversals
//! pipeline through the list and operations on different regions
//! proceed concurrently).

use std::ptr;

use parking_lot::{Mutex, MutexGuard};

/// Common interface for the set strategies.
pub trait ConcurrentSet<T>: Send + Sync {
    /// Insert; false if already present.
    fn insert(&self, value: T) -> bool;
    /// Remove; false if absent.
    fn remove(&self, value: &T) -> bool;
    /// Membership test.
    fn contains(&self, value: &T) -> bool;
    /// Number of elements (O(n); a racy snapshot under writers).
    fn len(&self) -> usize;
    /// True when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Strategy name for reports.
    fn strategy(&self) -> &'static str;
}

/// Coarse-grained: one mutex around a sorted `Vec` (binary search).
pub struct CoarseSet<T> {
    items: Mutex<Vec<T>>,
}

impl<T: Ord> CoarseSet<T> {
    /// New empty set.
    #[must_use]
    pub fn new() -> Self {
        Self {
            items: Mutex::new(Vec::new()),
        }
    }
}

impl<T: Ord> Default for CoarseSet<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Send> ConcurrentSet<T> for CoarseSet<T> {
    fn insert(&self, value: T) -> bool {
        let mut items = self.items.lock();
        match items.binary_search(&value) {
            Ok(_) => false,
            Err(pos) => {
                items.insert(pos, value);
                true
            }
        }
    }
    fn remove(&self, value: &T) -> bool {
        let mut items = self.items.lock();
        match items.binary_search(value) {
            Ok(pos) => {
                items.remove(pos);
                true
            }
            Err(_) => false,
        }
    }
    fn contains(&self, value: &T) -> bool {
        self.items.lock().binary_search(value).is_ok()
    }
    fn len(&self) -> usize {
        self.items.lock().len()
    }
    fn strategy(&self) -> &'static str {
        "coarse"
    }
}

/// A list node. `next` is protected by `lock`: it may only be read or
/// written while holding `lock`.
struct FNode<T> {
    lock: Mutex<()>,
    /// `None` only in the head sentinel.
    value: Option<T>,
    next: *mut FNode<T>,
}

/// Hand-over-hand (lock-coupling) sorted linked list.
///
/// # Safety argument
///
/// Traversal invariant: to learn a node's address you must hold its
/// predecessor's lock, and you acquire the node's own lock *before*
/// releasing the predecessor's. Therefore any thread holding a
/// reference to node `n` holds either `n`'s lock or its predecessor's.
/// Removal holds **both** the predecessor's and the target's locks, so
/// at unlink time no other thread can reference the target — it can be
/// freed immediately, no deferred reclamation needed. (This is the
/// textbook fine-grained list of Herlihy & Shavit §9.5, with the
/// garbage collector replaced by this argument.)
pub struct FineSet<T> {
    head: *mut FNode<T>,
}

// SAFETY: all shared state is reached through per-node mutexes per the
// traversal invariant above.
unsafe impl<T: Send> Send for FineSet<T> {}
unsafe impl<T: Send> Sync for FineSet<T> {}

impl<T: Ord> FineSet<T> {
    /// New empty set.
    #[must_use]
    pub fn new() -> Self {
        Self {
            head: Box::into_raw(Box::new(FNode {
                lock: Mutex::new(()),
                value: None,
                next: ptr::null_mut(),
            })),
        }
    }
}

impl<T: Ord> Default for FineSet<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Send> ConcurrentSet<T> for FineSet<T> {
    fn insert(&self, value: T) -> bool {
        unsafe {
            let mut pred = self.head;
            // SAFETY: head is valid for the set's lifetime.
            #[allow(unused_assignments)]
            let mut pred_guard: MutexGuard<'_, ()> = (*pred).lock.lock();
            loop {
                let curr = (*pred).next;
                if curr.is_null() {
                    // Insert at tail, under pred's lock.
                    (*pred).next = Box::into_raw(Box::new(FNode {
                        lock: Mutex::new(()),
                        value: Some(value),
                        next: ptr::null_mut(),
                    }));
                    return true;
                }
                // Couple: acquire curr before releasing pred.
                let curr_guard = (*curr).lock.lock();
                let cv = (*curr).value.as_ref().expect("non-sentinel");
                if *cv == value {
                    return false;
                }
                if *cv > value {
                    (*pred).next = Box::into_raw(Box::new(FNode {
                        lock: Mutex::new(()),
                        value: Some(value),
                        next: curr,
                    }));
                    return true;
                }
                // Advance: drop pred's guard (assignment), keep curr's.
                pred = curr;
                // The guard is held for its unlock-on-drop effect; the
                // assignment releases the old predecessor's lock.
                pred_guard = curr_guard;
                let _ = &pred_guard;
            }
        }
    }

    fn remove(&self, value: &T) -> bool {
        unsafe {
            let mut pred = self.head;
            #[allow(unused_assignments)]
            let mut pred_guard: MutexGuard<'_, ()> = (*pred).lock.lock();
            loop {
                let curr = (*pred).next;
                if curr.is_null() {
                    return false;
                }
                let curr_guard = (*curr).lock.lock();
                let cv = (*curr).value.as_ref().expect("non-sentinel");
                if *cv == *value {
                    // Unlink while holding BOTH locks: per the safety
                    // argument, no other thread references curr now.
                    (*pred).next = (*curr).next;
                    drop(curr_guard);
                    drop(Box::from_raw(curr));
                    return true;
                }
                if *cv > *value {
                    return false;
                }
                pred = curr;
                // The guard is held for its unlock-on-drop effect; the
                // assignment releases the old predecessor's lock.
                pred_guard = curr_guard;
                let _ = &pred_guard;
            }
        }
    }

    fn contains(&self, value: &T) -> bool {
        unsafe {
            let mut pred = self.head;
            #[allow(unused_assignments)]
            let mut pred_guard: MutexGuard<'_, ()> = (*pred).lock.lock();
            loop {
                let curr = (*pred).next;
                if curr.is_null() {
                    return false;
                }
                let curr_guard = (*curr).lock.lock();
                let cv = (*curr).value.as_ref().expect("non-sentinel");
                if *cv == *value {
                    return true;
                }
                if *cv > *value {
                    return false;
                }
                pred = curr;
                // The guard is held for its unlock-on-drop effect; the
                // assignment releases the old predecessor's lock.
                pred_guard = curr_guard;
                let _ = &pred_guard;
            }
        }
    }

    fn len(&self) -> usize {
        unsafe {
            let mut count = 0;
            let mut pred = self.head;
            #[allow(unused_assignments)]
            let mut pred_guard: MutexGuard<'_, ()> = (*pred).lock.lock();
            loop {
                let curr = (*pred).next;
                if curr.is_null() {
                    return count;
                }
                let curr_guard = (*curr).lock.lock();
                count += 1;
                pred = curr;
                // The guard is held for its unlock-on-drop effect; the
                // assignment releases the old predecessor's lock.
                pred_guard = curr_guard;
                let _ = &pred_guard;
            }
        }
    }

    fn strategy(&self) -> &'static str {
        "lock-coupling"
    }
}

impl<T> Drop for FineSet<T> {
    fn drop(&mut self) {
        // Exclusive access: free the whole chain including sentinel.
        unsafe {
            let mut cur = self.head;
            while !cur.is_null() {
                let node = Box::from_raw(cur);
                cur = node.next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn all_sets() -> Vec<Arc<dyn ConcurrentSet<u64>>> {
        vec![Arc::new(CoarseSet::new()), Arc::new(FineSet::new())]
    }

    #[test]
    fn insert_contains_remove_basics() {
        for set in all_sets() {
            let name = set.strategy();
            assert!(set.is_empty(), "{name}");
            assert!(set.insert(5));
            assert!(set.insert(1));
            assert!(set.insert(9));
            assert!(!set.insert(5), "{name}: duplicate insert");
            assert!(set.contains(&1) && set.contains(&5) && set.contains(&9));
            assert!(!set.contains(&7));
            assert_eq!(set.len(), 3);
            assert!(set.remove(&5));
            assert!(!set.remove(&5), "{name}: double remove");
            assert!(!set.contains(&5));
            assert_eq!(set.len(), 2);
        }
    }

    #[test]
    fn boundary_inserts_and_removes() {
        for set in all_sets() {
            assert!(set.insert(50));
            assert!(set.insert(10)); // new head position
            assert!(set.insert(90)); // new tail
            assert!(set.insert(30)); // middle
            assert_eq!(set.len(), 4);
            for v in [10, 30, 50, 90] {
                assert!(set.contains(&v));
            }
            assert!(set.remove(&10)); // remove first
            assert!(set.remove(&90)); // remove last
            assert_eq!(set.len(), 2);
            assert!(!set.contains(&10));
            assert!(set.contains(&30));
        }
    }

    #[test]
    fn remove_from_empty_and_missing() {
        for set in all_sets() {
            assert!(!set.remove(&1));
            set.insert(5);
            assert!(!set.remove(&4), "smaller missing value");
            assert!(!set.remove(&6), "larger missing value");
            assert_eq!(set.len(), 1);
        }
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        for set in all_sets() {
            let name = set.strategy();
            let mut joins = Vec::new();
            for t in 0..4u64 {
                let set = Arc::clone(&set);
                joins.push(thread::spawn(move || {
                    for i in 0..500 {
                        assert!(set.insert(t * 1000 + i));
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            assert_eq!(set.len(), 2000, "strategy {name}");
            assert!(set.contains(&3250));
            assert!(!set.contains(&999));
        }
    }

    #[test]
    fn concurrent_same_key_inserts_land_once() {
        for set in all_sets() {
            let name = set.strategy();
            let successes = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let mut joins = Vec::new();
            for _ in 0..4 {
                let set = Arc::clone(&set);
                let successes = Arc::clone(&successes);
                joins.push(thread::spawn(move || {
                    for i in 0..200u64 {
                        if set.insert(i % 50) {
                            successes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            assert_eq!(
                successes.load(std::sync::atomic::Ordering::Relaxed),
                50,
                "strategy {name}: each key inserted exactly once"
            );
            assert_eq!(set.len(), 50);
        }
    }

    #[test]
    fn concurrent_insert_remove_mix() {
        for set in all_sets() {
            for i in (0..1000u64).step_by(2) {
                set.insert(i);
            }
            let mut joins = Vec::new();
            for t in 0..2u64 {
                let set = Arc::clone(&set);
                joins.push(thread::spawn(move || {
                    for i in (0..1000u64).skip(t as usize).step_by(2) {
                        set.remove(&i);
                        set.insert(i | 1);
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            for i in (1..1000u64).step_by(2) {
                assert!(set.contains(&i), "odd {i} must be present");
            }
            for i in (0..1000u64).step_by(2) {
                assert!(!set.contains(&i), "even {i} must be gone");
            }
        }
    }

    #[test]
    fn fine_set_drop_frees_chain() {
        // Exercised under the test allocator / ASAN in CI; here we
        // just make sure drop with contents does not crash.
        let set = FineSet::new();
        for i in 0..100 {
            ConcurrentSet::insert(&set, i);
        }
        drop(set);
    }

    #[test]
    fn heap_payloads_work() {
        let set: FineSet<String> = FineSet::new();
        assert!(ConcurrentSet::insert(&set, "m".to_string()));
        assert!(ConcurrentSet::insert(&set, "a".to_string()));
        assert!(ConcurrentSet::insert(&set, "z".to_string()));
        assert!(ConcurrentSet::contains(&set, &"a".to_string()));
        assert!(ConcurrentSet::remove(&set, &"m".to_string()));
        assert_eq!(ConcurrentSet::len(&set), 2);
    }
}
