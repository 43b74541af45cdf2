//! The executable race demonstrations and their corrected variants.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;

use parking_lot::Mutex;

/// How a demo's corrected variant achieves safety.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FixStrategy {
    /// Atomic read-modify-write (`fetch_add`).
    AtomicRmw,
    /// A mutex around the critical section.
    Mutex,
    /// Release/acquire publication.
    ReleaseAcquire,
    /// Sequential consistency everywhere.
    SeqCst,
    /// `OnceLock` / once-only initialisation.
    Once,
}

/// Outcome of running one demonstration.
#[derive(Clone, Debug)]
pub struct DemoReport {
    /// Demo name.
    pub name: &'static str,
    /// What a correct execution would produce.
    pub expected: u64,
    /// What was observed.
    pub observed: u64,
    /// Number of anomalies witnessed (lost updates, stale reads,
    /// both-zero outcomes, double constructions).
    pub anomalies: u64,
    /// Trials / operations performed.
    pub trials: u64,
}

impl DemoReport {
    /// Did the run witness the phenomenon?
    #[must_use]
    pub fn race_observed(&self) -> bool {
        self.anomalies > 0
    }
}

// ---------------------------------------------------------------------
// 1. Lost update
// ---------------------------------------------------------------------

/// The racy `count++`: each increment is a separate load and store
/// (exactly what non-atomic `count++` compiles to), so concurrent
/// increments can overwrite each other. `yield_between` inserts a
/// scheduler yield between load and store, which forces the race to
/// manifest even on a single-CPU host.
#[must_use]
pub fn lost_update(threads: usize, per_thread: u64, yield_between: bool) -> DemoReport {
    let counter = Arc::new(AtomicU64::new(0));
    let mut joins = Vec::new();
    for _ in 0..threads {
        let counter = Arc::clone(&counter);
        joins.push(thread::spawn(move || {
            for i in 0..per_thread {
                // Split RMW: the racy read...
                let seen = counter.load(Ordering::Relaxed);
                if yield_between && i % 64 == 0 {
                    thread::yield_now();
                }
                // ...and the racy write-back.
                counter.store(seen + 1, Ordering::Relaxed);
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let expected = threads as u64 * per_thread;
    let observed = counter.load(Ordering::Relaxed);
    DemoReport {
        name: "lost-update",
        expected,
        observed,
        anomalies: expected - observed,
        trials: expected,
    }
}

/// The fixed counter under a chosen strategy; always exact.
#[must_use]
pub fn lost_update_fixed(threads: usize, per_thread: u64, fix: FixStrategy) -> DemoReport {
    let expected = threads as u64 * per_thread;
    let observed = match fix {
        FixStrategy::AtomicRmw | FixStrategy::SeqCst => {
            let ordering = if fix == FixStrategy::SeqCst {
                Ordering::SeqCst
            } else {
                Ordering::Relaxed
            };
            let counter = Arc::new(AtomicU64::new(0));
            let mut joins = Vec::new();
            for _ in 0..threads {
                let counter = Arc::clone(&counter);
                joins.push(thread::spawn(move || {
                    for _ in 0..per_thread {
                        counter.fetch_add(1, ordering);
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            counter.load(Ordering::SeqCst)
        }
        FixStrategy::Mutex => {
            let counter = Arc::new(Mutex::new(0u64));
            let mut joins = Vec::new();
            for _ in 0..threads {
                let counter = Arc::clone(&counter);
                joins.push(thread::spawn(move || {
                    for _ in 0..per_thread {
                        *counter.lock() += 1;
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            let v = *counter.lock();
            v
        }
        FixStrategy::ReleaseAcquire | FixStrategy::Once => {
            panic!("strategy {fix:?} does not apply to a counter")
        }
    };
    DemoReport {
        name: "lost-update-fixed",
        expected,
        observed,
        anomalies: expected.saturating_sub(observed),
        trials: expected,
    }
}

// ---------------------------------------------------------------------
// 2. Message passing (unsafe publication)
// ---------------------------------------------------------------------

/// The publication idiom: writer stores `data` then raises `flag`;
/// reader spins on `flag` then reads `data`. With `Ordering::Relaxed`
/// nothing orders the two stores for the reader — a stale read of 0
/// is permitted (and observable on weakly ordered hardware). With
/// release/acquire it is forbidden. Returns the number of stale reads
/// over `trials` rounds.
#[must_use]
pub fn message_passing(trials: u64, fixed: bool) -> DemoReport {
    let (store_ord, load_ord) = if fixed {
        (Ordering::Release, Ordering::Acquire)
    } else {
        (Ordering::Relaxed, Ordering::Relaxed)
    };
    let mut stale = 0u64;
    for _ in 0..trials {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicBool::new(false));
        let writer = {
            let data = Arc::clone(&data);
            let flag = Arc::clone(&flag);
            thread::spawn(move || {
                data.store(42, Ordering::Relaxed);
                flag.store(true, store_ord);
            })
        };
        let reader = {
            let data = Arc::clone(&data);
            let flag = Arc::clone(&flag);
            thread::spawn(move || {
                while !flag.load(load_ord) {
                    std::hint::spin_loop();
                }
                data.load(Ordering::Relaxed)
            })
        };
        writer.join().unwrap();
        if reader.join().unwrap() != 42 {
            stale += 1;
        }
    }
    DemoReport {
        name: if fixed {
            "message-passing-fixed"
        } else {
            "message-passing-racy"
        },
        expected: 0,
        observed: stale,
        anomalies: stale,
        trials,
    }
}

// ---------------------------------------------------------------------
// 3. Store-buffer litmus (Dekker)
// ---------------------------------------------------------------------

/// The store-buffer litmus: thread A does `x = 1; r1 = y`, thread B
/// does `y = 1; r2 = x`. Under sequential consistency at least one
/// thread must see the other's store (`r1 = r2 = 0` is impossible);
/// with relaxed (or even release/acquire) orderings the store can sit
/// in a store buffer past the load and both can read 0. Returns the
/// number of both-zero outcomes over `trials`.
#[must_use]
pub fn store_buffer(trials: u64, ordering: Ordering) -> DemoReport {
    use std::sync::Barrier;
    let mut both_zero = 0u64;
    for _ in 0..trials {
        let x = Arc::new(AtomicU64::new(0));
        let y = Arc::new(AtomicU64::new(0));
        let gate = Arc::new(Barrier::new(2));
        let a = {
            let x = Arc::clone(&x);
            let y = Arc::clone(&y);
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                gate.wait();
                x.store(1, ordering);
                y.load(ordering)
            })
        };
        let b = {
            let x = Arc::clone(&x);
            let y = Arc::clone(&y);
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                gate.wait();
                y.store(1, ordering);
                x.load(ordering)
            })
        };
        let r1 = a.join().unwrap();
        let r2 = b.join().unwrap();
        if r1 == 0 && r2 == 0 {
            both_zero += 1;
        }
    }
    DemoReport {
        name: "store-buffer",
        expected: 0,
        observed: both_zero,
        anomalies: both_zero,
        trials,
    }
}

// ---------------------------------------------------------------------
// 4. Lazy initialisation
// ---------------------------------------------------------------------

/// Racy one-time initialisation: every thread checks an
/// "initialised" flag and constructs when it reads `false`. Without
/// synchronisation several threads can construct. Returns the number
/// of excess constructions across `trials` rounds of `threads`
/// initialisers. The fixed variant uses [`OnceLock`], which
/// guarantees exactly one construction.
#[must_use]
pub fn lazy_init(trials: u64, threads: usize, fixed: bool) -> DemoReport {
    let mut excess = 0u64;
    for _ in 0..trials {
        let constructions = Arc::new(AtomicUsize::new(0));
        if fixed {
            let cell: Arc<OnceLock<u64>> = Arc::new(OnceLock::new());
            let mut joins = Vec::new();
            for _ in 0..threads {
                let cell = Arc::clone(&cell);
                let constructions = Arc::clone(&constructions);
                joins.push(thread::spawn(move || {
                    let v = *cell.get_or_init(|| {
                        constructions.fetch_add(1, Ordering::SeqCst);
                        thread::yield_now(); // widen the construction window
                        99
                    });
                    assert_eq!(v, 99);
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
        } else {
            // The racy check-then-act.
            let initialised = Arc::new(AtomicBool::new(false));
            let mut joins = Vec::new();
            for _ in 0..threads {
                let initialised = Arc::clone(&initialised);
                let constructions = Arc::clone(&constructions);
                joins.push(thread::spawn(move || {
                    if !initialised.load(Ordering::Relaxed) {
                        // Several threads can be here at once.
                        constructions.fetch_add(1, Ordering::SeqCst);
                        thread::yield_now();
                        initialised.store(true, Ordering::Relaxed);
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
        }
        let built = constructions.load(Ordering::SeqCst) as u64;
        excess += built.saturating_sub(1);
    }
    DemoReport {
        name: if fixed {
            "lazy-init-fixed"
        } else {
            "lazy-init-racy"
        },
        expected: trials,
        observed: trials + excess,
        anomalies: excess,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn racy_counter_never_overcounts() {
        let report = lost_update(4, 5_000, true);
        assert!(report.observed <= report.expected);
        assert_eq!(report.anomalies, report.expected - report.observed);
    }

    // The racy-variant verdicts live below in `explorer_verdicts`:
    // instead of running the native demo and hoping the host scheduler
    // exhibits the bad timing (the old probabilistic tests), each demo
    // is ported onto the parc-explore shims and the race is *proved*
    // by enumerating interleavings.

    fn prove(name: &str, expect_race: bool) {
        let entry = parc_explore::litmus::by_name(name)
            .unwrap_or_else(|| panic!("litmus `{name}` missing from the catalogue"));
        let body = std::sync::Arc::clone(&entry.body);
        let report = parc_explore::explore(parc_explore::Config::dfs(name), move || body());
        assert!(report.exhausted, "{name}: interleaving space not exhausted");
        assert_eq!(
            !report.race_free(),
            expect_race,
            "{name}: wrong deterministic verdict\n{}",
            report.render()
        );
    }

    #[test]
    fn lost_update_racy_has_a_racing_schedule() {
        prove("lost-update/racy", true);
        prove("lost-update/fixed-rmw", false);
        prove("lost-update/fixed-mutex", false);
    }

    #[test]
    fn fixed_counters_are_exact() {
        for fix in [
            FixStrategy::AtomicRmw,
            FixStrategy::Mutex,
            FixStrategy::SeqCst,
        ] {
            let report = lost_update_fixed(4, 10_000, fix);
            assert_eq!(report.observed, report.expected, "{fix:?}");
            assert_eq!(report.anomalies, 0);
        }
    }

    #[test]
    #[should_panic(expected = "does not apply")]
    fn inapplicable_fix_rejected() {
        let _ = lost_update_fixed(1, 1, FixStrategy::Once);
    }

    #[test]
    fn message_passing_fixed_never_stale() {
        let report = message_passing(200, true);
        assert_eq!(
            report.anomalies, 0,
            "release/acquire forbids stale publication reads"
        );
    }

    #[test]
    fn message_passing_racy_has_a_racing_schedule() {
        prove("message-passing/racy", true);
        prove("message-passing/fixed-relacq", false);
    }

    #[test]
    fn store_buffer_seqcst_forbids_both_zero() {
        let report = store_buffer(300, Ordering::SeqCst);
        assert_eq!(
            report.anomalies, 0,
            "sequential consistency forbids r1 = r2 = 0"
        );
    }

    #[test]
    fn store_buffer_relaxed_races_and_seqcst_does_not() {
        // Interleaving exploration cannot exhibit the weak-memory
        // both-zero outcome itself; what it proves deterministically is
        // the data race on x and y — the precondition that licenses
        // the reordering.
        prove("store-buffer/relaxed", true);
        prove("store-buffer/seqcst", false);
    }

    #[test]
    fn lazy_init_fixed_constructs_exactly_once() {
        let report = lazy_init(50, 4, true);
        assert_eq!(report.anomalies, 0, "OnceLock must construct once");
        assert_eq!(report.observed, report.trials);
    }

    #[test]
    fn lazy_init_racy_has_a_racing_schedule() {
        prove("lazy-init/racy", true);
        prove("lazy-init/fixed-mutex", false);
    }

    #[test]
    fn lazy_init_double_construction_is_witnessed() {
        // The explorer does more than flag the race: some enumerated
        // schedule actually constructs twice.
        let entry = parc_explore::litmus::by_name("lazy-init/racy").unwrap();
        let body = std::sync::Arc::clone(&entry.body);
        let report =
            parc_explore::explore(parc_explore::Config::dfs("lazy-init/racy"), move || body());
        let outcomes = &report.observations["constructions"];
        assert!(
            outcomes.contains(&2),
            "no schedule double-constructed: {outcomes:?}"
        );
    }
}
