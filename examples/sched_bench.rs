//! E-SCHED: scheduler fan-out throughput and steal latency.
//!
//! Measures the lock-free Chase–Lev runtime core against the
//! `Mutex<VecDeque>` substrate it replaced (still available as
//! [`SchedulerKind::WorkStealingLocked`] — the ablation baseline), at
//! 1/2/4/8 workers:
//!
//! * `locked-spawn`   — baseline: per-task `spawn` onto the locked
//!   deques, one injector lock + one boxed closure + one
//!   `Arc<Mutex<Core>>` per task.
//! * `lockfree-spawn` — the same per-task protocol on the Chase–Lev
//!   deques (isolates the deque swap).
//! * `lockfree-batch` — `spawn_batch`: one injector episode and one
//!   completion structure for the whole 10k-task fan-out.
//! * `fanout-*`       — the fan-out issued from *inside* a worker
//!   task, so the jobs land on one worker's own deque and every other
//!   worker must steal: this is what populates the steal-latency
//!   trajectory (p50/p99 of time-to-acquire-work per steal episode).
//!
//! Each (variant, workers) pair is a cell, run once on a fresh pool.
//! Its accounting block (spawned/executed/pending) is deterministic;
//! throughput and steal latency are measured.
//!
//! Gates (violations; any one exits non-zero):
//! * per cell: quiescent after the run, spawned == executed, a
//!   torn-free progress snapshot, and at least one steal episode in
//!   every fan-out on 2 or more workers; on 1 worker a fan-out has no
//!   steal episode and pops all 10 000 children from the worker's own
//!   deque (a waiting worker helps from its own deque first);
//! * experiment: `lockfree-batch` above 2× the `locked-spawn`
//!   throughput at 4 and 8 workers (EXPERIMENTS.md, E-SCHED, records
//!   how often single runs on the 2-CPU host clear it).
//!
//! Run with: `cargo run --release --example sched_bench -- [--out DIR]`

use std::thread;
use std::time::{Duration, Instant};

use parc_trace::Json;
use partask::{SchedulerKind, TaskRuntime};
use softeng751_repro::experiment::{self, Report, Spec};

const TASKS: usize = 10_000;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const BATCH_FLOOR: f64 = 2.0;

type Body = fn(&TaskRuntime);

const VARIANTS: [(&str, SchedulerKind, Body); 5] = [
    ("locked-spawn", SchedulerKind::WorkStealingLocked, spawn_each),
    ("lockfree-spawn", SchedulerKind::WorkStealing, spawn_each),
    ("lockfree-batch", SchedulerKind::WorkStealing, spawn_batch),
    ("fanout-locked", SchedulerKind::WorkStealingLocked, fan_out),
    ("fanout-lockfree", SchedulerKind::WorkStealing, fan_out),
];

/// The measured body: a short pseudo-random spin so a task is cheap
/// but not empty (an empty body over-rewards the batch path).
fn busy_work(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for _ in 0..32 {
        x = x.wrapping_mul(x).rotate_left(7);
    }
    x & 1
}

/// Per-task spawn of `TASKS` trivial tasks from this thread, then
/// quiescence. The spawn path is the measured object, so handles are
/// deliberately not retained (results resolve into their cores).
fn spawn_each(rt: &TaskRuntime) {
    for i in 0..TASKS {
        drop(rt.spawn(move || busy_work(i as u64)));
    }
    rt.wait_quiescent();
}

/// One `spawn_batch` episode for the whole fan-out.
fn spawn_batch(rt: &TaskRuntime) {
    rt.spawn_batch(TASKS, |i| busy_work(i as u64)).wait();
    rt.wait_quiescent();
}

/// Fan out from inside a worker task: children land on that worker's
/// own deque, so every task a *different* worker runs was stolen.
///
/// The root handle must not be help-joined from this thread (and
/// neither `join` nor `wait_quiescent` may run before the pool is
/// done): a helping join pops the root job out of the injector and
/// runs it on *this* (external) thread, where the children go back
/// through the injector instead of a worker deque and no steal ever
/// happens. A non-helping poll of the packed progress word guarantees
/// a pool worker ran the root, which is the whole point of the
/// variant.
fn fan_out(rt: &TaskRuntime) {
    let rth = rt.handle();
    let root = rt.spawn(move || {
        let handles: Vec<_> = (0..TASKS).map(|i| rth.spawn(move || busy_work(i as u64))).collect();
        handles.into_iter().for_each(|h| {
            let _ = h.join();
        });
    });
    while rt.progress().pending != 0 {
        thread::sleep(Duration::from_micros(200));
    }
    root.join().expect("fanout root");
}

/// One timed run of `body` on a fresh pool.
fn measure(variant: &str, kind: SchedulerKind, body: Body, workers: usize) -> Report {
    let rt = TaskRuntime::builder().workers(workers).scheduler(kind).name("sched-bench").build();
    let started = Instant::now();
    body(&rt);
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    let (stats, lat, progress, pending) =
        (rt.stats(), rt.latencies(), rt.progress(), rt.queued_hint());
    rt.shutdown();
    let steals = lat.steal_wait_ms.total();
    Report::new()
        .det("variant", variant)
        .det("workers", workers)
        .det("spawned", stats.spawned)
        .det("executed", stats.executed)
        .det("pending_after", pending)
        .measured("elapsed_ms", secs * 1e3)
        .measured("tasks_per_sec", stats.executed as f64 / secs)
        .measured("steal_episodes", steals)
        .measured("local_pops", stats.local_pops)
        .measured("steal_p50_ms", lat.steal_wait_ms.p50())
        .measured("steal_p99_ms", lat.steal_wait_ms.p99())
        .check(
            progress.spawned == progress.finished + progress.pending as u64,
            format!("torn progress snapshot {progress:?}"),
        )
        .check(pending == 0, format!("{pending} tasks left queued"))
        .check(
            stats.spawned == stats.executed,
            format!("spawned {} != executed {}", stats.spawned, stats.executed),
        )
        .check(
            fan_out_ok(variant, workers, steals, stats.local_pops),
            format!("fan-out: {steals} steal episodes, {} local pops", stats.local_pops),
        )
}

/// A fan-out on 2 or more workers must be stolen from; on 1 worker
/// nobody can steal, so every child is popped from the worker's own
/// deque.
fn fan_out_ok(variant: &str, workers: usize, steals: u64, local_pops: u64) -> bool {
    match (variant.starts_with("fanout"), workers) {
        (false, _) => true,
        (true, 1) => steals == 0 && local_pops == TASKS as u64,
        (true, _) => steals > 0,
    }
}

fn main() {
    let cells = WORKER_COUNTS
        .iter()
        .flat_map(|&w| {
            VARIANTS.map(|(name, kind, body)| (format!("{name} @ {w}"), (name, kind, body, w)))
        })
        .collect();
    experiment::run(
        Spec { name: "runtime", seed: 0, pool: None, cells },
        |&(variant, kind, body, workers), _, _| measure(variant, kind, body, workers),
        |_, reports| {
            let tps = |variant: &str, w: usize| {
                let wi = WORKER_COUNTS.iter().position(|&x| x == w).expect("worker count");
                let vi = VARIANTS.iter().position(|v| v.0 == variant).expect("variant");
                reports[wi * VARIANTS.len() + vi].number("tasks_per_sec")
            };
            let batch = |w| tps("lockfree-batch", w) / tps("locked-spawn", w);
            let speedups: Vec<Json> = WORKER_COUNTS
                .iter()
                .map(|&w| {
                    let (batch, spawn) =
                        (batch(w), tps("lockfree-spawn", w) / tps("locked-spawn", w));
                    println!("  {w} workers vs locked: batch {batch:.1}x, spawn {spawn:.1}x");
                    [("workers", w as f64), ("batch_vs_locked", batch), ("spawn_vs_locked", spawn)]
                        .into_iter()
                        .collect()
                })
                .collect();
            Report::new().det("tasks_per_run", TASKS).measured("speedups", speedups).check(
                batch(4) > BATCH_FLOOR && batch(8) > BATCH_FLOOR,
                format!(
                    "batch vs locked {:.2}x at 4, {:.2}x at 8 workers: floor {BATCH_FLOOR}x",
                    batch(4),
                    batch(8)
                ),
            )
        },
    );
}
