//! The two pieces of a striped structure: a value padded out to its own
//! cache line, and a small per-thread index that picks a stripe.
//!
//! A counter that many threads add to is one cache line that every
//! core must own in turn to write, so its adds queue up behind each
//! other. Striping (Java's `LongAdder`, project 9's
//! `taskcol::ShardedCounter`) gives each thread a [`CachePadded`]
//! shard chosen by [`thread_slot`] and sums the shards on read.
//!
//! ```
//! use parc_util::stripe::{thread_slot, CachePadded};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let shards: [CachePadded<AtomicU64>; 4] = Default::default();
//! shards[thread_slot() % 4].fetch_add(1, Ordering::Relaxed);
//! assert_eq!(shards.iter().map(|s| s.load(Ordering::Relaxed)).sum::<u64>(), 1);
//! assert_eq!(std::mem::size_of::<CachePadded<AtomicU64>>(), 128);
//! ```

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `T` aligned, and so padded, to 128 bytes: no other value shares a
/// cache line with it. 128 rather than 64 because x86 cores prefetch
/// lines in adjacent pairs, and some ARM cores have 128-byte lines.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    /// Pad `value`.
    pub const fn new(value: T) -> Self {
        Self(value)
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// The calling thread's slot: 0 for the first thread to ask, 1 for the
/// next, and so on. A thread's slot is assigned on its first call and
/// kept for its life, so a striped structure that takes it modulo its
/// stripe count spreads threads over the stripes round-robin.
#[must_use]
pub fn thread_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SLOT.with(|slot| *slot)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_values_never_share_a_line() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<u64>>(), 128);
        let pair = [CachePadded::new(1_u8), CachePadded::new(2)];
        let gap = std::ptr::from_ref(&*pair[1]) as usize - std::ptr::from_ref(&*pair[0]) as usize;
        assert_eq!(gap, 128);
        assert_eq!(*pair[0] + *pair[1], 3);
    }

    #[test]
    fn a_thread_keeps_its_slot_and_threads_get_distinct_ones() {
        let mine = thread_slot();
        assert_eq!(thread_slot(), mine);
        let mut slots: Vec<usize> = (0..4)
            .map(|_| std::thread::spawn(thread_slot).join().unwrap())
            .collect();
        slots.push(mine);
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 5);
    }
}
