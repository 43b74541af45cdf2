//! Concurrent stacks: coarse-locked, spinlocked and lock-free.
//!
//! The Treiber stack is built from scratch on `AtomicPtr` with
//! epoch-based reclamation from `crossbeam` handling the memory-safety
//! half that Java students get from the garbage collector for free —
//! the "ConcurrentLinkedDeque vs synchronized LinkedList" comparison
//! of project 9, transplanted.

use std::sync::atomic::Ordering;

use crossbeam::epoch::{self, Atomic, Owned};
use parking_lot::Mutex;

use crate::sync::SpinLock;

/// Common interface for the stack strategies.
pub trait ConcurrentStack<T>: Send + Sync {
    /// Push a value.
    fn push(&self, value: T);
    /// Pop the most recently pushed value, if any.
    fn pop(&self) -> Option<T>;
    /// True when (momentarily) empty.
    fn is_empty(&self) -> bool;
    /// Strategy name for reports.
    fn strategy(&self) -> &'static str;
}

/// `Mutex<Vec<T>>` — the `synchronized` baseline.
pub struct MutexStack<T> {
    items: Mutex<Vec<T>>,
}

impl<T> MutexStack<T> {
    /// New empty stack.
    #[must_use]
    pub fn new() -> Self {
        Self {
            items: Mutex::new(Vec::new()),
        }
    }
}

impl<T> Default for MutexStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> ConcurrentStack<T> for MutexStack<T> {
    fn push(&self, value: T) {
        self.items.lock().push(value);
    }
    fn pop(&self) -> Option<T> {
        self.items.lock().pop()
    }
    fn is_empty(&self) -> bool {
        self.items.lock().is_empty()
    }
    fn strategy(&self) -> &'static str {
        "mutex"
    }
}

/// Spinlocked `Vec<T>` — short critical sections, busy waiting.
pub struct SpinStack<T> {
    items: SpinLock<Vec<T>>,
}

impl<T> SpinStack<T> {
    /// New empty stack.
    #[must_use]
    pub fn new() -> Self {
        Self {
            items: SpinLock::new(Vec::new()),
        }
    }
}

impl<T> Default for SpinStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> ConcurrentStack<T> for SpinStack<T> {
    fn push(&self, value: T) {
        self.items.lock().push(value);
    }
    fn pop(&self) -> Option<T> {
        self.items.lock().pop()
    }
    fn is_empty(&self) -> bool {
        self.items.lock().is_empty()
    }
    fn strategy(&self) -> &'static str {
        "spin"
    }
}

struct Node<T> {
    value: Option<T>,
    next: Atomic<Node<T>>,
}

/// Treiber's lock-free stack: CAS on the head pointer, epoch-based
/// reclamation for popped nodes.
pub struct TreiberStack<T> {
    head: Atomic<Node<T>>,
}

impl<T> TreiberStack<T> {
    /// New empty stack.
    #[must_use]
    pub fn new() -> Self {
        Self {
            head: Atomic::null(),
        }
    }
}

impl<T> Default for TreiberStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + Sync> ConcurrentStack<T> for TreiberStack<T> {
    fn push(&self, value: T) {
        let guard = epoch::pin();
        let mut node = Owned::new(Node {
            value: Some(value),
            next: Atomic::null(),
        });
        loop {
            let head = self.head.load(Ordering::Acquire, &guard);
            node.next.store(head, Ordering::Relaxed);
            match self.head.compare_exchange(
                head,
                node,
                Ordering::Release,
                Ordering::Relaxed,
                &guard,
            ) {
                Ok(_) => return,
                Err(e) => node = e.new,
            }
        }
    }

    fn pop(&self) -> Option<T> {
        let guard = epoch::pin();
        loop {
            let head = self.head.load(Ordering::Acquire, &guard);
            let node = unsafe { head.as_ref() }?;
            let next = node.next.load(Ordering::Acquire, &guard);
            if self
                .head
                .compare_exchange(head, next, Ordering::Release, Ordering::Relaxed, &guard)
                .is_ok()
            {
                // SAFETY: we won the CAS, so we exclusively own the
                // node; taking the value is fine because nobody else
                // will (concurrent readers only follow `next`).
                let value = unsafe { (*(head.as_raw() as *mut Node<T>)).value.take() };
                // SAFETY: unlinked; destroy once all pins drain.
                unsafe {
                    guard.defer_destroy(head);
                }
                return value;
            }
        }
    }

    fn is_empty(&self) -> bool {
        let guard = epoch::pin();
        self.head.load(Ordering::Acquire, &guard).is_null()
    }

    fn strategy(&self) -> &'static str {
        "treiber"
    }
}

impl<T> Drop for TreiberStack<T> {
    fn drop(&mut self) {
        // Exclusive access: walk and free remaining nodes.
        let guard = unsafe { epoch::unprotected() };
        let mut cur = self.head.load(Ordering::Relaxed, guard);
        while let Some(node) = unsafe { cur.as_ref() } {
            let next = node.next.load(Ordering::Relaxed, guard);
            drop(unsafe { cur.into_owned() });
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::thread;

    fn all_stacks() -> Vec<Arc<dyn ConcurrentStack<u64>>> {
        vec![
            Arc::new(MutexStack::new()),
            Arc::new(SpinStack::new()),
            Arc::new(TreiberStack::new()),
        ]
    }

    #[test]
    fn lifo_single_thread() {
        for stack in all_stacks() {
            stack.push(1);
            stack.push(2);
            stack.push(3);
            assert_eq!(stack.pop(), Some(3), "{}", stack.strategy());
            assert_eq!(stack.pop(), Some(2));
            assert_eq!(stack.pop(), Some(1));
            assert_eq!(stack.pop(), None);
            assert!(stack.is_empty());
        }
    }

    #[test]
    fn concurrent_push_pop_loses_nothing() {
        for stack in all_stacks() {
            let name = stack.strategy();
            let producers = 3;
            let per = 2000u64;
            let mut joins = Vec::new();
            for p in 0..producers {
                let s = Arc::clone(&stack);
                joins.push(thread::spawn(move || {
                    for i in 0..per {
                        s.push(p * per + i);
                    }
                }));
            }
            let popped = Arc::new(Mutex::new(HashSet::new()));
            let mut consumers = Vec::new();
            for _ in 0..2 {
                let s = Arc::clone(&stack);
                let seen = Arc::clone(&popped);
                consumers.push(thread::spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        match s.pop() {
                            Some(v) => local.push(v),
                            None => {
                                if local.len() > 100 {
                                    // Keep draining until producers
                                    // are plausibly done.
                                }
                                std::thread::yield_now();
                                // Exit heuristic handled below by
                                // final drain.
                                if local.len() as u64 >= producers * per {
                                    break;
                                }
                                break;
                            }
                        }
                    }
                    seen.lock().extend(local);
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            for c in consumers {
                c.join().unwrap();
            }
            // Drain whatever remains after all producers finished.
            while let Some(v) = stack.pop() {
                popped.lock().insert(v);
            }
            let seen = popped.lock();
            assert_eq!(seen.len() as u64, producers * per, "strategy {name}");
        }
    }

    #[test]
    fn treiber_drop_frees_remaining() {
        let stack = TreiberStack::new();
        for i in 0..100 {
            ConcurrentStack::push(&stack, i);
        }
        drop(stack); // must not leak or double-free (run under ASAN in CI)
    }

    #[test]
    fn treiber_values_with_heap_payloads() {
        let stack = TreiberStack::new();
        for i in 0..50 {
            ConcurrentStack::push(&stack, format!("value-{i}"));
        }
        let mut got = Vec::new();
        while let Some(v) = ConcurrentStack::pop(&stack) {
            got.push(v);
        }
        assert_eq!(got.len(), 50);
        assert_eq!(got[0], "value-49");
    }
}
