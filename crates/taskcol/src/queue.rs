//! Concurrent FIFO queues under three strategies.
//!
//! * [`MutexQueue`] — one lock around a `VecDeque` (the
//!   `Collections.synchronizedList` analogue).
//! * [`TwoLockQueue`] — the Michael & Scott two-lock queue: separate
//!   head and tail locks let one producer and one consumer proceed
//!   concurrently.
//! * [`LibraryQueue`] — the library queue, `crossbeam::queue::SegQueue`,
//!   as the `ConcurrentLinkedQueue` stand-in. Upstream's `SegQueue` is
//!   lock-free, but this workspace's vendored shim is a mutex FIFO, so
//!   here it is a third locked strategy, not a lock-free comparator.

use std::collections::VecDeque;

use crossbeam::queue::SegQueue;
use parking_lot::Mutex;

/// Common interface for the queue strategies.
pub trait ConcurrentQueue<T>: Send + Sync {
    /// Enqueue at the tail.
    fn push(&self, value: T);
    /// Dequeue from the head, if non-empty.
    fn pop(&self) -> Option<T>;
    /// True when (momentarily) empty.
    fn is_empty(&self) -> bool;
    /// Strategy name for reports.
    fn strategy(&self) -> &'static str;
}

/// Coarse-locked queue.
pub struct MutexQueue<T> {
    items: Mutex<VecDeque<T>>,
}

impl<T> MutexQueue<T> {
    /// New empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            items: Mutex::new(VecDeque::new()),
        }
    }
}

impl<T> Default for MutexQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> ConcurrentQueue<T> for MutexQueue<T> {
    fn push(&self, value: T) {
        self.items.lock().push_back(value);
    }
    fn pop(&self) -> Option<T> {
        self.items.lock().pop_front()
    }
    fn is_empty(&self) -> bool {
        self.items.lock().is_empty()
    }
    fn strategy(&self) -> &'static str {
        "mutex"
    }
}

/// Michael & Scott's two-lock queue: a linked list with a permanent
/// dummy node; producers contend only on the tail lock, consumers only
/// on the head lock.
pub struct TwoLockQueue<T> {
    head: Mutex<*mut TlNode<T>>,
    tail: Mutex<*mut TlNode<T>>,
}

struct TlNode<T> {
    value: Option<T>,
    next: *mut TlNode<T>,
}

// SAFETY: raw pointers are only dereferenced under the appropriate
// lock; values are Send.
unsafe impl<T: Send> Send for TwoLockQueue<T> {}
unsafe impl<T: Send> Sync for TwoLockQueue<T> {}

impl<T> TwoLockQueue<T> {
    /// New empty queue (allocates the dummy node).
    #[must_use]
    pub fn new() -> Self {
        let dummy = Box::into_raw(Box::new(TlNode {
            value: None,
            next: std::ptr::null_mut(),
        }));
        Self {
            head: Mutex::new(dummy),
            tail: Mutex::new(dummy),
        }
    }
}

impl<T> Default for TwoLockQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> ConcurrentQueue<T> for TwoLockQueue<T> {
    fn push(&self, value: T) {
        let node = Box::into_raw(Box::new(TlNode {
            value: Some(value),
            next: std::ptr::null_mut(),
        }));
        let mut tail = self.tail.lock();
        // SAFETY: *tail is valid (dummy or last node), we hold the
        // tail lock.
        unsafe {
            (**tail).next = node;
        }
        *tail = node;
    }

    fn pop(&self) -> Option<T> {
        let mut head = self.head.lock();
        // SAFETY: *head is the dummy node; its `next` (if any) holds
        // the first real value. We hold the head lock.
        unsafe {
            let next = (**head).next;
            if next.is_null() {
                return None;
            }
            let value = (*next).value.take();
            let old_dummy = *head;
            *head = next; // `next` becomes the new dummy
            drop(Box::from_raw(old_dummy));
            value
        }
    }

    fn is_empty(&self) -> bool {
        let head = self.head.lock();
        // SAFETY: head valid under lock.
        unsafe { (**head).next.is_null() }
    }

    fn strategy(&self) -> &'static str {
        "two-lock"
    }
}

impl<T> Drop for TwoLockQueue<T> {
    fn drop(&mut self) {
        let mut cur = *self.head.lock();
        while !cur.is_null() {
            // SAFETY: exclusive access in drop; nodes form a chain.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next;
        }
    }
}

/// `crossbeam::queue::SegQueue` — the library queue (a mutex FIFO in
/// the vendored shim).
pub struct LibraryQueue<T> {
    inner: SegQueue<T>,
}

impl<T> LibraryQueue<T> {
    /// New empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: SegQueue::new(),
        }
    }
}

impl<T> Default for LibraryQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> ConcurrentQueue<T> for LibraryQueue<T> {
    fn push(&self, value: T) {
        self.inner.push(value);
    }
    fn pop(&self) -> Option<T> {
        self.inner.pop()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    fn strategy(&self) -> &'static str {
        "library"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn all_queues() -> Vec<Arc<dyn ConcurrentQueue<u64>>> {
        vec![
            Arc::new(MutexQueue::new()),
            Arc::new(TwoLockQueue::new()),
            Arc::new(LibraryQueue::new()),
        ]
    }

    #[test]
    fn fifo_single_thread() {
        for q in all_queues() {
            assert!(q.is_empty());
            q.push(1);
            q.push(2);
            q.push(3);
            assert!(!q.is_empty());
            assert_eq!(q.pop(), Some(1), "{}", q.strategy());
            assert_eq!(q.pop(), Some(2));
            assert_eq!(q.pop(), Some(3));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn spsc_preserves_order() {
        for q in all_queues() {
            let name = q.strategy();
            let producer = {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..5000u64 {
                        q.push(i);
                    }
                })
            };
            let consumer = {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut expected = 0u64;
                    while expected < 5000 {
                        if let Some(v) = q.pop() {
                            assert_eq!(v, expected, "order violated on {name}");
                            expected += 1;
                        } else {
                            thread::yield_now();
                        }
                    }
                })
            };
            producer.join().unwrap();
            consumer.join().unwrap();
        }
    }

    #[test]
    fn mpmc_conserves_items() {
        for q in all_queues() {
            let name = q.strategy();
            let producers = 3;
            let per = 3000u64;
            let mut joins = Vec::new();
            for p in 0..producers {
                let q = Arc::clone(&q);
                joins.push(thread::spawn(move || {
                    for i in 0..per {
                        q.push(p * per + i);
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            let mut seen = Vec::new();
            while let Some(v) = q.pop() {
                seen.push(v);
            }
            seen.sort_unstable();
            assert_eq!(seen.len() as u64, producers * per, "strategy {name}");
            seen.dedup();
            assert_eq!(seen.len() as u64, producers * per, "dups on {name}");
        }
    }

    #[test]
    fn two_lock_drop_with_items_does_not_leak() {
        let q = TwoLockQueue::new();
        for i in 0..100 {
            ConcurrentQueue::push(&q, format!("s{i}"));
        }
        let _ = ConcurrentQueue::pop(&q);
        drop(q);
    }
}
