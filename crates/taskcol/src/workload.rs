//! Read/write-mix workload driver for the collection comparisons
//! (experiment E9).
//!
//! Mirrors the student test programs: N threads perform a fixed number
//! of operations against one shared collection, with a configurable
//! read fraction and key range, and the driver reports wall time and
//! achieved throughput. Deterministic per seed.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parc_util::rng::Xoshiro256;

use crate::map::ConcurrentMap;
use crate::queue::ConcurrentQueue;

/// Parameters for a map workload run.
#[derive(Clone, Debug)]
pub struct MapWorkload {
    /// Worker thread count.
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: usize,
    /// Fraction of operations that are reads (`get`), remainder split
    /// between inserts and removes 2:1.
    pub read_fraction: f64,
    /// Keys are drawn uniformly from `0..key_space`.
    pub key_space: u64,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for MapWorkload {
    fn default() -> Self {
        Self {
            threads: 4,
            ops_per_thread: 10_000,
            read_fraction: 0.9,
            key_space: 1024,
            seed: 0xC0FFEE,
        }
    }
}

/// Result of one workload run.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Total wall time.
    pub elapsed: Duration,
    /// Total operations performed.
    pub total_ops: usize,
    /// Hits observed by readers (sanity signal, also defeats DCE).
    pub read_hits: usize,
}

impl WorkloadResult {
    /// Throughput in operations per second.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// Drive a mixed read/write workload against `map`.
pub fn run_map_workload<M>(map: &Arc<M>, cfg: &MapWorkload) -> WorkloadResult
where
    M: ConcurrentMap<u64, u64> + 'static,
{
    assert!((0.0..=1.0).contains(&cfg.read_fraction), "bad read fraction");
    assert!(cfg.key_space > 0 && cfg.threads > 0);
    // Pre-populate half the key space so reads hit.
    for k in (0..cfg.key_space).step_by(2) {
        map.insert(k, k);
    }
    let start = Instant::now();
    let mut joins = Vec::new();
    for t in 0..cfg.threads {
        let map = Arc::clone(map);
        let cfg = cfg.clone();
        joins.push(thread::spawn(move || {
            let mut rng = Xoshiro256::seed_from_u64(cfg.seed).stream(t);
            let mut hits = 0usize;
            for _ in 0..cfg.ops_per_thread {
                let key = rng.next_below(cfg.key_space);
                let roll = rng.next_f64();
                if roll < cfg.read_fraction {
                    if map.get(&key).is_some() {
                        hits += 1;
                    }
                } else if roll < cfg.read_fraction + (1.0 - cfg.read_fraction) * 2.0 / 3.0 {
                    map.insert(key, key.wrapping_mul(3));
                } else {
                    map.remove(&key);
                }
            }
            hits
        }));
    }
    let read_hits = joins.into_iter().map(|j| j.join().unwrap()).sum();
    WorkloadResult {
        elapsed: start.elapsed(),
        total_ops: cfg.threads * cfg.ops_per_thread,
        read_hits,
    }
}

/// Drive a producer/consumer workload against `queue`: half the
/// threads push `items_per_producer` values, half pop until they have
/// consumed their share.
pub fn run_queue_workload<Q>(
    queue: &Arc<Q>,
    producers: usize,
    items_per_producer: usize,
) -> WorkloadResult
where
    Q: ConcurrentQueue<u64> + 'static,
{
    assert!(producers > 0 && items_per_producer > 0);
    let start = Instant::now();
    let mut joins = Vec::new();
    for p in 0..producers {
        let queue = Arc::clone(queue);
        joins.push(thread::spawn(move || {
            for i in 0..items_per_producer {
                queue.push((p * items_per_producer + i) as u64);
            }
            0usize
        }));
    }
    for _ in 0..producers {
        let queue = Arc::clone(queue);
        joins.push(thread::spawn(move || {
            let mut got = 0usize;
            while got < items_per_producer {
                if queue.pop().is_some() {
                    got += 1;
                } else {
                    thread::yield_now();
                }
            }
            got
        }));
    }
    let consumed: usize = joins.into_iter().map(|j| j.join().unwrap()).sum();
    WorkloadResult {
        elapsed: start.elapsed(),
        total_ops: 2 * producers * items_per_producer,
        read_hits: consumed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::{MutexMap, RwLockMap, ShardedMap};
    use crate::queue::{LibraryQueue, MutexQueue, TwoLockQueue};

    #[test]
    fn map_workload_runs_all_strategies() {
        let cfg = MapWorkload {
            threads: 3,
            ops_per_thread: 2000,
            ..MapWorkload::default()
        };
        let mutex = Arc::new(MutexMap::new());
        let rw = Arc::new(RwLockMap::new());
        let sharded = Arc::new(ShardedMap::new(16));
        for result in [
            run_map_workload(&mutex, &cfg),
            run_map_workload(&rw, &cfg),
            run_map_workload(&sharded, &cfg),
        ] {
            assert_eq!(result.total_ops, 6000);
            assert!(result.read_hits > 0, "reads should hit the prefilled keys");
            assert!(result.ops_per_sec() > 0.0);
        }
    }

    #[test]
    fn queue_workload_conserves_items() {
        let mutex = Arc::new(MutexQueue::new());
        let twolock = Arc::new(TwoLockQueue::new());
        let library = Arc::new(LibraryQueue::new());
        for (consumed, q_empty) in [
            {
                let r = run_queue_workload(&mutex, 2, 1000);
                (r.read_hits, mutex.is_empty())
            },
            {
                let r = run_queue_workload(&twolock, 2, 1000);
                (r.read_hits, twolock.is_empty())
            },
            {
                let r = run_queue_workload(&library, 2, 1000);
                (r.read_hits, library.is_empty())
            },
        ] {
            assert_eq!(consumed, 2000);
            assert!(q_empty);
        }
    }

    #[test]
    #[should_panic(expected = "bad read fraction")]
    fn rejects_bad_fraction() {
        let cfg = MapWorkload {
            read_fraction: 1.5,
            ..MapWorkload::default()
        };
        let m = Arc::new(MutexMap::new());
        let _ = run_map_workload(&m, &cfg);
    }

    #[test]
    fn deterministic_hits_per_seed() {
        let cfg = MapWorkload {
            threads: 1,
            ops_per_thread: 5000,
            seed: 42,
            ..MapWorkload::default()
        };
        let a = {
            let m = Arc::new(MutexMap::new());
            run_map_workload(&m, &cfg).read_hits
        };
        let b = {
            let m = Arc::new(MutexMap::new());
            run_map_workload(&m, &cfg).read_hits
        };
        assert_eq!(a, b, "single-threaded run must be deterministic");
    }
}
