//! Scheduler regression suite for the lock-free Chase–Lev core.
//!
//! Pins the three hot-path accounting bugs fixed alongside the deque
//! swap, the batch-spawn semantics, nested fork-join trees on every
//! scheduler (with the helping joins' depth bound), the wake-up of a
//! joiner that parks, spawns through another runtime's handle from a
//! worker, a join off the pool that helps a task spawned on a worker,
//! and — via
//! proptest — the shim deque's sequential equivalence to a
//! `Mutex<VecDeque>`-style reference model (the substrate it replaced,
//! still available as `SchedulerKind::WorkStealingLocked`), and the
//! same for both injectors and the locked substrate, with their
//! refill caps pinned.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use partask::{RuntimeHandle, SchedulerKind, TaskError, TaskRuntime, HELP_STEAL_CAP};

// ---------------------------------------------------------------
// Satellite 1: per-worker steal-latency histograms.
// ---------------------------------------------------------------

/// The old path recorded one sample per steal under a single shared
/// `Mutex<LatencyHistogram>`; the new path keeps one histogram per
/// worker and merges on demand. The merged view must preserve the
/// accounting: one sample per steal *episode*, so with any steals at
/// all the total is in `1..=steals` (an episode moves >= 1 item).
#[test]
fn merged_steal_latency_total_matches_episode_count() {
    let rt = TaskRuntime::builder()
        .workers(4)
        .scheduler(SchedulerKind::WorkStealing)
        .name("steal-hist")
        .build();
    // Fan out from inside a task so the jobs land on one worker's own
    // deque and the other three workers must steal them.
    let rth = rt.handle();
    let h = rt.spawn(move || {
        let handles: Vec<_> = (0..64).map(|i| rth.spawn(move || busy_work(i))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
    });
    h.join().unwrap();
    rt.wait_quiescent();
    let stats = rt.stats();
    let lat = rt.latencies();
    if stats.steals > 0 {
        assert!(
            lat.steal_wait_ms.total() >= 1 && lat.steal_wait_ms.total() <= stats.steals,
            "episodes {} outside 1..=steals {}",
            lat.steal_wait_ms.total(),
            stats.steals
        );
    } else {
        assert_eq!(lat.steal_wait_ms.total(), 0, "no steals, no samples");
    }
    rt.shutdown();
}

fn busy_work(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for _ in 0..100 {
        x = x.wrapping_mul(x).rotate_left(7);
    }
    x & 1
}

// ---------------------------------------------------------------
// Satellite 2: idle workers park instead of busy-spinning.
// ---------------------------------------------------------------

/// An idle pool must reach quiescence by *parking*: each worker takes
/// the idle-parking path at most ~once per 100 ms (the insurance
/// timeout), where the old busy-spin re-probed the queues millions of
/// times per second. The probe counter bounds it.
#[test]
fn idle_pool_parks_instead_of_spinning() {
    for kind in [SchedulerKind::WorkSharing, SchedulerKind::WorkStealing] {
        let rt = TaskRuntime::builder()
            .workers(4)
            .scheduler(kind)
            .name("idle-park")
            .build();
        // Run one trivial task so every worker has started, then idle.
        rt.spawn(|| ()).join().unwrap();
        let before = rt.idle_probes();
        let idle_for = Duration::from_millis(300);
        std::thread::sleep(idle_for);
        let probes = rt.idle_probes() - before;
        // 4 workers x (300 ms / 100 ms park + slack for the wakeups
        // around the probe task). A busy-spin fails this by orders of
        // magnitude.
        let bound = 4 * (idle_for.as_millis() as u64 / 100 + 3);
        assert!(
            probes <= bound,
            "{kind:?}: {probes} idle probes in {idle_for:?} (bound {bound}) — busy-spin regression"
        );
        // Parked workers must still wake for new work promptly.
        let woke = rt.spawn(|| 7u32).join().unwrap();
        assert_eq!(woke, 7);
        rt.shutdown();
    }
}

// ---------------------------------------------------------------
// Satellite 3: snapshot-consistent progress accounting.
// ---------------------------------------------------------------

/// `spawned == finished + pending` must hold in *every* snapshot taken
/// while spawns and completions race — the old `queue_len()` summed
/// per-queue lengths under separate locks and could double-count or
/// miss items mid-steal. The packed-word snapshot cannot.
#[test]
fn progress_snapshot_is_consistent_under_concurrent_load() {
    let rt = TaskRuntime::builder()
        .workers(4)
        .scheduler(SchedulerKind::WorkStealing)
        .name("progress")
        .build();
    let stop = Arc::new(AtomicUsize::new(0));
    let spawner = {
        let rt = rt.handle();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut handles = Vec::new();
            for i in 0..2_000u64 {
                handles.push(rt.spawn(move || busy_work(i)));
                if i % 64 == 0 {
                    std::thread::yield_now();
                }
            }
            stop.store(1, Ordering::Release);
            handles.into_iter().for_each(|h| {
                h.join().unwrap();
            });
        })
    };
    // Sample while the spawner races the workers.
    let mut last_finished = 0u64;
    let mut last_spawned = 0u64;
    let mut samples = 0u64;
    while stop.load(Ordering::Acquire) == 0 {
        let p = rt.progress();
        assert_eq!(
            p.spawned,
            p.finished + p.pending as u64,
            "snapshot tore: {p:?}"
        );
        assert!(p.finished >= last_finished, "finished went backwards");
        assert!(p.spawned >= last_spawned, "spawned went backwards");
        last_finished = p.finished;
        last_spawned = p.spawned;
        samples += 1;
    }
    spawner.join().unwrap();
    rt.wait_quiescent();
    assert!(samples > 0);
    let p = rt.progress();
    assert_eq!(p.pending, 0, "quiescent means nothing pending");
    assert_eq!(p.spawned, 2_000, "one progress unit per spawned task");
    assert_eq!(p.finished, 2_000);
    let stats = rt.stats();
    assert_eq!(stats.spawned, stats.executed, "all spawned tasks executed");
    assert_eq!(rt.queued_hint(), 0);
    rt.shutdown();
}

// ---------------------------------------------------------------
// Tentpole: batch spawn.
// ---------------------------------------------------------------

const EVERY_SCHEDULER: [SchedulerKind; 3] = [
    SchedulerKind::WorkStealing,
    SchedulerKind::WorkStealingLocked,
    SchedulerKind::WorkSharing,
];

#[test]
fn batch_results_come_back_in_index_order() {
    for kind in EVERY_SCHEDULER {
        for workers in [1, 2, 4] {
            let rt = TaskRuntime::builder().workers(workers).scheduler(kind).build();
            let batch = rt.spawn_batch(1_000, |i| i * i);
            let results = batch.join();
            assert_eq!(results.len(), 1_000);
            for (i, r) in results.into_iter().enumerate() {
                assert_eq!(
                    r.unwrap(),
                    i * i,
                    "index {i} out of order ({kind:?}, {workers} workers)"
                );
            }
            rt.shutdown();
        }
    }
}

#[test]
fn batch_member_panic_is_contained_to_its_slot() {
    let body = |i: usize| {
        assert!(i != 5 && i != 11, "boom at {i}");
        i as u64
    };
    for kind in EVERY_SCHEDULER {
        let rt = TaskRuntime::builder().workers(2).scheduler(kind).build();
        let handle = rt.handle();
        let on_pool = rt.spawn_batch(16, body).join();
        rt.shutdown();
        // With the runtime gone, the handle runs the batch inline.
        let inline = handle.spawn_batch(16, body).join();
        for results in [on_pool, inline] {
            for (i, r) in results.into_iter().enumerate() {
                if i == 5 || i == 11 {
                    match r {
                        Err(TaskError::Panicked(msg)) => {
                            assert!(msg.contains("boom"), "panic message lost: {msg}")
                        }
                        other => panic!("index {i} ({kind:?}): expected panic, got {other:?}"),
                    }
                } else {
                    assert_eq!(r.unwrap(), i as u64);
                }
            }
        }
    }
}

#[test]
fn cancelling_a_batch_cancels_unstarted_members() {
    let rt = TaskRuntime::builder().workers(1).build();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    // Block the only worker so no batch member can start.
    let blocker = rt.spawn(move || gate_rx.recv().unwrap());
    let batch = rt.spawn_batch(32, |i| i);
    batch.cancel();
    gate_tx.send(()).unwrap();
    blocker.join().unwrap();
    for r in batch.join() {
        match r {
            Err(TaskError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }
    let stats = rt.stats();
    assert_eq!(stats.cancelled, 32);
    rt.shutdown();
}

#[test]
fn nested_batches_help_and_complete_on_one_worker() {
    // A batch member joining a sub-batch must *help* run queued work,
    // or a 1-worker pool would deadlock on the nested join.
    let rt = TaskRuntime::builder().workers(1).build();
    let rth = rt.handle();
    let batch = rt.spawn_batch(4, move |i| {
        let inner = rth.spawn_batch(8, move |j| (i * 8 + j) as u64);
        inner.join().into_iter().map(|r| r.unwrap()).sum::<u64>()
    });
    let total: u64 = batch.join().into_iter().map(|r| r.unwrap()).sum();
    assert_eq!(total, (0..32u64).sum::<u64>());
    rt.shutdown();
}

#[test]
fn batch_accounting_matches_per_task_spawns() {
    let rt = TaskRuntime::builder().workers(2).name("batch-acct").build();
    let batch = rt.spawn_batch(500, |i| i as u64);
    let sum: u64 = batch.join().into_iter().map(|r| r.unwrap()).sum();
    assert_eq!(sum, (0..500u64).sum::<u64>());
    rt.wait_quiescent();
    let p = rt.progress();
    assert_eq!(p.spawned, 500, "each batch member is one progress unit");
    assert_eq!(p.finished, 500);
    let stats = rt.stats();
    assert_eq!(stats.spawned, 500);
    assert_eq!(stats.executed, 500);
    rt.shutdown();
}

// ---------------------------------------------------------------
// Nested fork-join trees: helping joins on every scheduler.
// ---------------------------------------------------------------

/// A leaf's value: a few mixing rounds, so the sum checks every leaf.
fn leaf(index: u64) -> u64 {
    let mut x = index ^ 0x5EED;
    for _ in 0..4 {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ index;
    }
    x
}

/// One tree node as a task: spawn both children from the current
/// thread with `RuntimeHandle::spawn` and join them.
fn node(rt: &RuntimeHandle, levels: u32, level: u32, index: u64) -> u64 {
    if level + 1 == levels {
        return leaf(index);
    }
    let (l_rt, r_rt) = (rt.clone(), rt.clone());
    let left = rt.spawn(move || node(&l_rt, levels, level + 1, 2 * index));
    let right = rt.spawn(move || node(&r_rt, levels, level + 1, 2 * index + 1));
    let left = left.join().expect("left child completes");
    let right = right.join().expect("right child completes");
    left.wrapping_add(right)
}

/// The same tree by plain recursion.
fn recurse(levels: u32, level: u32, index: u64) -> u64 {
    if level + 1 == levels {
        return leaf(index);
    }
    recurse(levels, level + 1, 2 * index).wrapping_add(recurse(levels, level + 1, 2 * index + 1))
}

/// Every scheduler joins a nested tree at 1 and 2 workers: the joins
/// inside workers help, so a single worker never deadlocks on its own
/// children, and every spawned task runs exactly once.
///
/// Work-sharing helping takes the oldest queued job, so one worker
/// nests a tree breadth-first: 2^(levels - 1) - 1 helped bodies. At 12
/// levels that overflows a 2 MiB worker stack in debug builds, so its
/// tree has 10 levels (511 nested bodies).
#[test]
fn nested_tree_joins_on_every_scheduler() {
    for (kind, levels) in [
        (SchedulerKind::WorkStealing, 12),
        (SchedulerKind::WorkStealingLocked, 12),
        (SchedulerKind::WorkSharing, 10),
    ] {
        let expected = recurse(levels, 0, 0);
        for workers in [1, 2] {
            let rt = TaskRuntime::builder().workers(workers).scheduler(kind).build();
            let handle = rt.handle();
            let sum = rt.spawn(move || node(&handle, levels, 0, 0)).join().unwrap();
            assert_eq!(sum, expected, "{kind:?} at {workers} workers");
            rt.wait_quiescent();
            let stats = rt.stats();
            assert_eq!(stats.spawned, (1 << levels) - 1, "{kind:?} at {workers} workers");
            assert_eq!(stats.spawned, stats.executed, "{kind:?} at {workers} workers");
            rt.shutdown();
        }
    }
}

/// A 20-level tree (1,048,575 tasks) on a fresh 2-worker runtime,
/// rooted once on a worker and once on this thread. Helping joins are
/// depth-first, so neither run overflows a stack. In the worker-rooted
/// run this thread waits without helping and the only injector job is
/// the root, so the nesting stays within the bound DESIGN.md derives:
/// the steal cap plus the tree's levels.
#[test]
fn deep_tree_joins_within_the_help_depth_bound() {
    const LEVELS: u32 = 20;
    let expected = recurse(LEVELS, 0, 0);
    for rooted_on_worker in [true, false] {
        let rt = TaskRuntime::builder().workers(2).build();
        let handle = rt.handle();
        let sum = if rooted_on_worker {
            rt.spawn(move || node(&handle, LEVELS, 0, 0))
                .join_timeout(Duration::from_secs(600))
                .unwrap()
        } else {
            node(&handle, LEVELS, 0, 0)
        };
        assert_eq!(sum, expected, "rooted on a worker: {rooted_on_worker}");
        rt.wait_quiescent();
        let stats = rt.stats();
        assert_eq!(stats.spawned, (1 << LEVELS) - 1 - u64::from(!rooted_on_worker));
        assert_eq!(stats.spawned, stats.executed);
        if rooted_on_worker {
            let depth = rt.max_help_depth();
            assert!(
                depth <= HELP_STEAL_CAP + LEVELS as usize,
                "help depth {depth} above cap {HELP_STEAL_CAP} + {LEVELS} levels"
            );
        }
        rt.shutdown();
    }
}

// ---------------------------------------------------------------
// Joins: a parked joiner is woken; handles name their runtime.
// ---------------------------------------------------------------

/// Completion notifies a task's condvar only when a joiner is parked
/// on it. `join_timeout` never helps, so this thread parks on every
/// task it reaches before the task has run; the workers run each
/// injector refill newest first, so that is most of them. A lost
/// wake-up would hold that join for its whole 30 s budget.
#[test]
fn a_parked_joiner_that_does_not_help_is_still_woken() {
    let rt = TaskRuntime::builder().workers(2).build();
    let start = Instant::now();
    let tasks: Vec<_> = (0..1_000u64)
        .map(|i| {
            rt.spawn(move || {
                thread::sleep(Duration::from_micros(100));
                i
            })
        })
        .collect();
    for (i, task) in (0u64..).zip(tasks) {
        assert_eq!(task.join_timeout(Duration::from_secs(30)), Ok(i));
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "1,000 joins took {elapsed:?}: a parked joiner waited out its timeout"
    );
    rt.shutdown();
}

/// A worker uses the runtime its thread holds only for a handle to
/// that same runtime. A task on runtime A spawns N tasks through
/// runtime B's handle and joins them: B counts the N, and A counts
/// only the outer task. A handle cloned on a worker of a runtime that
/// has since shut down reads as dead, runs `spawn` inline on A's
/// worker, and its `help_once` runs none of A's queued jobs.
#[test]
fn a_worker_spawns_through_another_runtimes_handle() {
    const N: u64 = 64;
    let expected = (0..N).map(leaf).fold(0, u64::wrapping_add);
    for workers in [1, 2] {
        let a = TaskRuntime::builder().workers(workers).name("rt-a").build();
        let b = TaskRuntime::builder().workers(workers).name("rt-b").build();
        let b_handle = b.handle();
        let sum = a
            .spawn(move || {
                let tasks: Vec<_> = (0..N).map(|i| b_handle.spawn(move || leaf(i))).collect();
                tasks
                    .into_iter()
                    .map(|t| t.join().expect("B's task completes"))
                    .fold(0, u64::wrapping_add)
            })
            .join()
            .unwrap();
        assert_eq!(sum, expected, "{workers} workers");
        a.wait_quiescent();
        b.wait_quiescent();
        assert_eq!(a.stats().spawned, 1, "{workers} workers: A counts only the outer task");
        assert_eq!(b.stats().spawned, N, "{workers} workers");
        assert_eq!(b.stats().executed, N, "{workers} workers");

        let (handle, dead) = {
            let gone = TaskRuntime::builder().workers(1).name("rt-gone").build();
            let handle = gone.handle();
            let on_worker = handle.clone();
            // `join_timeout` never helps, so the worker makes the clone.
            let dead = gone
                .spawn(move || on_worker.clone())
                .join_timeout(Duration::from_secs(10))
                .expect("gone's worker clones the handle");
            assert!(dead.is_alive());
            gone.shutdown();
            (handle, dead)
        };
        assert!(!handle.is_alive());
        assert!(!dead.is_alive(), "a clone made on a worker outlives its runtime");
        let a_handle = a.handle();
        let (ran_inline, helped) = a
            .spawn(move || {
                let here = thread::current().id();
                let inline = dead.spawn(move || thread::current().id());
                let ran_inline = inline.is_done() && inline.join() == Ok(here);
                let queued = a_handle.spawn(|| ());
                let helped = dead.help_once();
                queued.join().expect("A's queued task completes");
                (ran_inline, helped)
            })
            .join()
            .unwrap();
        assert!(ran_inline, "{workers} workers: a dead runtime's spawn runs inline");
        assert!(!helped, "{workers} workers: a dead runtime's help_once ran A's job");
        a.wait_quiescent();
        assert_eq!(a.stats().spawned, 3, "{workers} workers: the probe task and its child");
        a.shutdown();
        b.shutdown();
    }
}

/// A handle spawned on a worker borrows that worker's reference to
/// the runtime, yet any thread that joins it still helps. On a
/// 1-worker runtime a task spawns a child onto its own deque, hands
/// the child's handle to this thread and blocks until this thread
/// signals, so the child can run only in this thread's help steps.
/// The worker stops waiting after 10 s, so a join that does not help
/// shows as a child run on the worker instead of a hang.
#[test]
fn a_task_spawned_on_a_worker_is_helped_by_its_joiner_elsewhere() {
    let rt = TaskRuntime::builder().workers(1).name("lent").build();
    let handle = rt.handle();
    let (child_tx, child_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let parent = rt.spawn(move || {
        child_tx
            .send(handle.spawn(|| thread::current().id()))
            .expect("main waits for the child");
        let _ = go_rx.recv_timeout(Duration::from_secs(10));
        thread::current().id()
    });
    let child = child_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the worker runs the parent");
    let ran_on = child.join().expect("the child completes");
    let _ = go_tx.send(());
    let worker = parent
        .join_timeout(Duration::from_secs(10))
        .expect("the parent completes");
    assert_eq!(ran_on, thread::current().id(), "the join helped");
    assert_ne!(worker, ran_on);
    rt.wait_quiescent();
    assert!(rt.stats().helped >= 1);
    rt.shutdown();
}

// ---------------------------------------------------------------
// Proptest: shim deque vs a Mutex<VecDeque> reference model.
// ---------------------------------------------------------------

/// Reference model of one worker deque: LIFO at the owner's end, FIFO
/// at the steal end — the semantics the old locked substrate
/// implemented directly with a `Mutex<VecDeque>`.
#[derive(Default)]
struct RefDeque {
    items: VecDeque<u32>,
}

impl RefDeque {
    fn push(&mut self, v: u32) {
        self.items.push_back(v);
    }
    fn pop(&mut self) -> Option<u32> {
        self.items.pop_back()
    }
    fn steal(&mut self) -> Option<u32> {
        self.items.pop_front()
    }
    /// Mirror of `Stealer::steal_batch_and_pop_with_count`: claim
    /// `(len + 1) / 2` (capped) from the front; the oldest is
    /// returned, the rest append to `dest` oldest-first.
    fn steal_batch_and_pop(&mut self, dest: &mut RefDeque, cap: usize) -> Option<(u32, usize)> {
        let len = self.items.len();
        if len == 0 {
            return None;
        }
        let n = len.div_ceil(2).min(cap);
        let first = self.items.pop_front().expect("len checked");
        for _ in 1..n {
            dest.items.push_back(self.items.pop_front().expect("claimed range"));
        }
        Some((first, n))
    }
}

#[derive(Clone, Copy, Debug)]
enum DeqOp {
    Push,
    Pop,
    Steal,
    BatchSteal,
}

/// Jobs one injector refill moves into the worker's deque beyond the
/// one it returns, per substrate.
const LOCKFREE_REFILL_CAP: usize = 31;
const LOCKED_REFILL_CAP: usize = 16;

/// Reference model of `steal_batch_and_pop` on an injector: the oldest
/// item is returned, and half of the rest (at most `cap`) moves to
/// `dest` so that its owner, popping newest-first, sees them oldest
/// first — FIFO across the refill.
fn ref_refill(injector: &mut VecDeque<u32>, dest: &mut RefDeque, cap: usize) -> Option<u32> {
    let first = injector.pop_front()?;
    let extra = (injector.len() / 2).min(cap);
    let batch: Vec<u32> = injector.drain(..extra).collect();
    for v in batch.into_iter().rev() {
        dest.push(v);
    }
    Some(first)
}

#[derive(Clone, Copy, Debug)]
enum InjOp {
    Push,
    PushBatch(u32),
    InjectorSteal,
    Refill,
    WorkerPush,
    WorkerPop,
    Steal,
}

/// Weighted decode: pushes and batch pushes (1 to 61 items) outweigh
/// the takes, so the injectors regularly hold more than 2 × 31 items
/// and refills hit both caps.
fn decode_inj_op(raw: u8) -> InjOp {
    match raw % 16 {
        0..=3 => InjOp::Push,
        4..=6 => InjOp::PushBatch(u32::from(raw / 16) * 4 + 1),
        7 => InjOp::InjectorSteal,
        8..=9 => InjOp::Refill,
        10 => InjOp::WorkerPush,
        11..=12 => InjOp::WorkerPop,
        _ => InjOp::Steal,
    }
}

/// A sequential steal from a mutex FIFO or an uncontended deque.
fn taken<T>(steal: crossbeam::deque::Steal<T>) -> Option<T> {
    match steal {
        crossbeam::deque::Steal::Success(v) => Some(v),
        crossbeam::deque::Steal::Empty => None,
        crossbeam::deque::Steal::Retry => unreachable!("no concurrent CAS in a sequential test"),
    }
}

/// The caps, pinned directly: one refill from 100 queued items takes
/// the oldest plus 31 (lock-free) or 16 (locked), the owner pops them
/// FIFO across the refill, and a locked thief takes exactly one item.
#[test]
fn injector_refills_stop_at_their_caps() {
    use crossbeam::deque::{locked, Injector, Worker};

    let injector = Injector::new();
    injector.push_batch(0..100u32);
    let worker = Worker::new_lifo();
    assert_eq!(taken(injector.steal_batch_and_pop(&worker)), Some(0));
    assert_eq!(worker.len(), LOCKFREE_REFILL_CAP);
    assert_eq!(injector.len(), 100 - 1 - LOCKFREE_REFILL_CAP);
    for want in 1..=31 {
        assert_eq!(worker.pop(), Some(want), "FIFO across the refill");
    }
    assert_eq!(taken(injector.steal()), Some(32));

    let injector = locked::Injector::new();
    for v in 0..100u32 {
        injector.push(v);
    }
    let worker = locked::Worker::new_lifo();
    let thief = worker.stealer();
    assert_eq!(taken(injector.steal_batch_and_pop(&worker)), Some(0));
    assert_eq!(thief.len(), LOCKED_REFILL_CAP);
    assert_eq!(injector.len(), 100 - 1 - LOCKED_REFILL_CAP);
    // The refill is pushed newest-first, so the steal end holds 16.
    assert_eq!(
        taken(thief.steal()),
        Some(16),
        "a locked steal takes the steal end"
    );
    assert_eq!(thief.len(), LOCKED_REFILL_CAP - 1, "and only it");
    for want in 1..=15 {
        assert_eq!(worker.pop(), Some(want), "FIFO across the refill");
    }
    assert_eq!(taken(injector.steal()), Some(17));
}

/// Weighted decode (the shim proptest has no `prop_oneof`): pushes
/// 3/8, pops and steals 2/8 each, batch steals 1/8 — enough pushes
/// that the deque regularly holds multi-item runs for batch claims.
fn decode_op(raw: u8) -> DeqOp {
    match raw {
        0..=2 => DeqOp::Push,
        3..=4 => DeqOp::Pop,
        5..=6 => DeqOp::Steal,
        _ => DeqOp::BatchSteal,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every op sequence must drive the lock-free deque and the
    /// reference model through identical observable states: same
    /// values from pop/steal/batch-steal, same final drain order on
    /// both the victim and the batch-destination deque.
    #[test]
    fn chase_lev_deque_matches_vecdeque_model(raw_ops in prop::collection::vec(0u8..8, 0..200)) {
        use crossbeam::deque::{Steal, Worker};
        let ops: Vec<DeqOp> = raw_ops.into_iter().map(decode_op).collect();

        let victim = Worker::new_lifo();
        let stealer = victim.stealer();
        let dest = Worker::new_lifo();
        let mut ref_victim = RefDeque::default();
        let mut ref_dest = RefDeque::default();
        // MAX_BATCH in shims/crossbeam: a claim never exceeds 32.
        const MAX_BATCH: usize = 32;

        let mut next = 0u32;
        for op in ops {
            match op {
                DeqOp::Push => {
                    victim.push(next);
                    ref_victim.push(next);
                    next += 1;
                }
                DeqOp::Pop => {
                    prop_assert_eq!(victim.pop(), ref_victim.pop());
                }
                DeqOp::Steal => {
                    let got = match stealer.steal() {
                        Steal::Success(v) => Some(v),
                        Steal::Empty => None,
                        Steal::Retry => unreachable!("no concurrent CAS in a sequential test"),
                    };
                    prop_assert_eq!(got, ref_victim.steal());
                }
                DeqOp::BatchSteal => {
                    let got = match stealer.steal_batch_and_pop_with_count(&dest) {
                        Steal::Success((v, n)) => Some((v, n)),
                        Steal::Empty => None,
                        Steal::Retry => unreachable!("no concurrent CAS in a sequential test"),
                    };
                    prop_assert_eq!(got, ref_victim.steal_batch_and_pop(&mut ref_dest, MAX_BATCH));
                }
            }
        }
        // Drain both deques and compare the full remaining order.
        let mut drained = Vec::new();
        while let Some(v) = victim.pop() {
            drained.push(v);
        }
        let mut ref_drained = Vec::new();
        while let Some(v) = ref_victim.pop() {
            ref_drained.push(v);
        }
        prop_assert_eq!(drained, ref_drained);
        let mut dest_drained = Vec::new();
        while let Some(v) = dest.pop() {
            dest_drained.push(v);
        }
        let mut ref_dest_drained = Vec::new();
        while let Some(v) = ref_dest.pop() {
            ref_dest_drained.push(v);
        }
        prop_assert_eq!(dest_drained, ref_dest_drained);
    }

    /// The same kind of op sequence drives both injectors, each
    /// refilling its own substrate's worker, and the locked worker and
    /// stealer, against `VecDeque` models: every take returns the same
    /// item, refills move the same run (capped at 31 and 16), a locked
    /// steal takes one item, and the queues drain in the same order.
    #[test]
    fn injectors_and_locked_substrate_match_vecdeque_models(
        raw_ops in prop::collection::vec(0u8..=255, 0..200),
    ) {
        use crossbeam::deque::{locked, Injector, Worker};

        let injector = Injector::new();
        let worker = Worker::new_lifo();
        let thief = worker.stealer();
        let locked_injector = locked::Injector::new();
        let locked_worker = locked::Worker::new_lifo();
        let locked_thief = locked_worker.stealer();
        let (mut ref_injector, mut ref_worker) = (VecDeque::new(), RefDeque::default());
        let (mut ref_locked_injector, mut ref_locked_worker) = (VecDeque::new(), RefDeque::default());

        let mut next = 0u32;
        for op in raw_ops.into_iter().map(decode_inj_op) {
            match op {
                InjOp::Push => {
                    injector.push(next);
                    locked_injector.push(next);
                    ref_injector.push_back(next);
                    ref_locked_injector.push_back(next);
                    next += 1;
                }
                InjOp::PushBatch(k) => {
                    let values: Vec<u32> = (next..next + k).collect();
                    injector.push_batch(values.iter().copied());
                    for &v in &values {
                        locked_injector.push(v);
                    }
                    ref_injector.extend(values.iter().copied());
                    ref_locked_injector.extend(values.iter().copied());
                    next += k;
                }
                InjOp::InjectorSteal => {
                    prop_assert_eq!(taken(injector.steal()), ref_injector.pop_front());
                    prop_assert_eq!(taken(locked_injector.steal()), ref_locked_injector.pop_front());
                }
                InjOp::Refill => {
                    prop_assert_eq!(
                        taken(injector.steal_batch_and_pop(&worker)),
                        ref_refill(&mut ref_injector, &mut ref_worker, LOCKFREE_REFILL_CAP)
                    );
                    prop_assert_eq!(
                        taken(locked_injector.steal_batch_and_pop(&locked_worker)),
                        ref_refill(&mut ref_locked_injector, &mut ref_locked_worker, LOCKED_REFILL_CAP)
                    );
                }
                InjOp::WorkerPush => {
                    worker.push(next);
                    locked_worker.push(next);
                    ref_worker.push(next);
                    ref_locked_worker.push(next);
                    next += 1;
                }
                InjOp::WorkerPop => {
                    prop_assert_eq!(worker.pop(), ref_worker.pop());
                    prop_assert_eq!(locked_worker.pop(), ref_locked_worker.pop());
                }
                InjOp::Steal => {
                    prop_assert_eq!(taken(thief.steal()), ref_worker.steal());
                    prop_assert_eq!(taken(locked_thief.steal()), ref_locked_worker.steal());
                }
            }
            prop_assert_eq!(injector.len(), ref_injector.len());
            prop_assert_eq!(worker.len(), ref_worker.items.len());
            prop_assert_eq!(locked_injector.len(), ref_locked_injector.len());
            prop_assert_eq!(locked_thief.len(), ref_locked_worker.items.len());
        }
        // Drain everything in each queue's own order.
        let drained: Vec<u32> = std::iter::from_fn(|| taken(injector.steal())).collect();
        prop_assert_eq!(drained, Vec::from(ref_injector));
        let drained: Vec<u32> = std::iter::from_fn(|| taken(locked_injector.steal())).collect();
        prop_assert_eq!(drained, Vec::from(ref_locked_injector));
        let drained: Vec<u32> = std::iter::from_fn(|| worker.pop()).collect();
        prop_assert_eq!(drained, std::iter::from_fn(|| ref_worker.pop()).collect::<Vec<_>>());
        let drained: Vec<u32> = std::iter::from_fn(|| locked_worker.pop()).collect();
        prop_assert_eq!(drained, std::iter::from_fn(|| ref_locked_worker.pop()).collect::<Vec<_>>());
    }
}
