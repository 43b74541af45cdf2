//! Shared counters under three synchronisation strategies.
//!
//! The "hello world" of project 9: a counter incremented by many
//! threads. Strategies: a mutex (the `synchronized` analogue), a
//! single atomic (the `AtomicLong` analogue) and a sharded/striped
//! counter (the `LongAdder` analogue — distribute contention, pay at
//! read time).

use std::sync::atomic::{AtomicU64, Ordering};

use parc_util::stripe::{thread_slot, CachePadded};
use parking_lot::Mutex;

/// Common interface so the benchmark harness can sweep strategies.
pub trait SharedCounter: Send + Sync {
    /// Add `n` to the counter.
    fn add(&self, n: u64);
    /// Read the current value. For sharded counters this is a full
    /// aggregation and may be slow relative to `add`.
    fn value(&self) -> u64;
    /// Strategy name for reports.
    fn strategy(&self) -> &'static str;
}

/// Mutex-protected counter (the `synchronized` baseline).
#[derive(Default)]
pub struct MutexCounter {
    value: Mutex<u64>,
}

impl MutexCounter {
    /// New counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl SharedCounter for MutexCounter {
    fn add(&self, n: u64) {
        *self.value.lock() += n;
    }
    fn value(&self) -> u64 {
        *self.value.lock()
    }
    fn strategy(&self) -> &'static str {
        "mutex"
    }
}

/// Single atomic counter (`AtomicLong` analogue).
#[derive(Default)]
pub struct AtomicCounter {
    value: AtomicU64,
}

impl AtomicCounter {
    /// New counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl SharedCounter for AtomicCounter {
    fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }
    fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
    fn strategy(&self) -> &'static str {
        "atomic"
    }
}

/// Striped counter (`LongAdder` analogue): adds go to the shard the
/// calling thread's [`thread_slot`] picks, each shard on a cache line
/// of its own so they do not false-share; reads sum all shards.
pub struct ShardedCounter {
    shards: Vec<CachePadded<AtomicU64>>,
}

impl ShardedCounter {
    /// Counter with the given number of stripes (rounded up to a
    /// power of two).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            shards: (0..n).map(|_| CachePadded::default()).collect(),
        }
    }
}

impl SharedCounter for ShardedCounter {
    fn add(&self, n: u64) {
        self.shards[thread_slot() & (self.shards.len() - 1)].fetch_add(n, Ordering::Relaxed);
    }
    fn value(&self) -> u64 {
        self.shards.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }
    fn strategy(&self) -> &'static str {
        "sharded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn hammer(counter: Arc<dyn SharedCounter>, threads: usize, per_thread: u64) {
        let mut joins = Vec::new();
        for _ in 0..threads {
            let c = Arc::clone(&counter);
            joins.push(thread::spawn(move || {
                for _ in 0..per_thread {
                    c.add(1);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn all_strategies_count_exactly() {
        let cases: Vec<Arc<dyn SharedCounter>> = vec![
            Arc::new(MutexCounter::new()),
            Arc::new(AtomicCounter::new()),
            Arc::new(ShardedCounter::new(8)),
        ];
        for counter in cases {
            let name = counter.strategy();
            hammer(Arc::clone(&counter), 4, 10_000);
            assert_eq!(counter.value(), 40_000, "strategy {name}");
        }
    }

    #[test]
    fn add_n_accumulates() {
        let c = AtomicCounter::new();
        c.add(5);
        c.add(7);
        assert_eq!(c.value(), 12);
    }

    #[test]
    fn sharded_rounds_to_power_of_two() {
        let c = ShardedCounter::new(5);
        assert_eq!(c.shards.len(), 8);
        let c = ShardedCounter::new(0);
        assert_eq!(c.shards.len(), 1);
    }

    #[test]
    fn strategy_names_distinct() {
        assert_ne!(
            MutexCounter::new().strategy(),
            AtomicCounter::new().strategy()
        );
        assert_ne!(
            AtomicCounter::new().strategy(),
            ShardedCounter::new(2).strategy()
        );
    }
}
