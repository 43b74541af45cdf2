//! Layer microbenchmarks: each layer's public functions timed from
//! outside, on the calling thread (partask on the 2-worker runtime).
//! The suite is the same on every workload; the marking layers run on a
//! cohort drawn from the workload's seed.

use std::hint::black_box;
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use course::assessment::{score_analysis, AutoMarkRubric};
use course::pipeline::cohort::{generate_tick, spot_eligible};
use course::pipeline::ledger::MarkLedger;
use crossbeam::deque::{Injector, Steal, Worker};
use faultsim::RetryPolicy;
use parc_explore::Config;
use parc_supervise::{ChildError, Supervisor};
use partask::TaskRuntime;

use crate::ops::{recurse, spawn_tree, RATE_PER_TICK, TREE_TASKS};
use crate::stats::{median, quantile};
use crate::Metric;

/// Ticks of cohort the marking layers generate (~7,200 submissions).
const COHORT_TICKS: u32 = 3;
const STUDENTS: u32 = 4000;
const DEQUE_OPS: usize = 1 << 20;
const SPAWNS: usize = 20_000;
const BATCH: usize = 200_000;
const TREES: usize = 16;
const LEDGER_SLOTS: u64 = 200_000;
const RESTARTS: u32 = 30;
/// Spot-check sampling (one in `SPOT_EVERY` programs, by the
/// pipeline's seeded hash), sample size and time budget: explorer cost
/// is heavy-tailed, so the sample stops early rather than overrun.
const SPOT_EVERY: u64 = 64;
const SPOT_PROGRAMS: usize = 12;
const SPOT_BUDGET: Duration = Duration::from_secs(4);

fn per_op(elapsed: Duration, ops: usize, scale: f64) -> f64 {
    elapsed.as_secs_f64() * scale / ops as f64
}

/// Run every layer microbenchmark. `tree_seed` is the fork-join
/// tree's leaf seed, `cohort_seed` the cohort the marking layers use.
pub fn suite(rt: &TaskRuntime, tree_seed: u64, cohort_seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    deque_layer(&mut out);
    runtime_layer(rt, tree_seed, &mut out);
    marking_layers(cohort_seed, &mut out);
    ledger_layer(&mut out);
    out.push(Metric::new(
        "supervise.restart_us",
        supervise_restart_us(),
        "us",
    ));
    out
}

fn deque_layer(out: &mut Vec<Metric>) {
    let worker = Worker::new_lifo();
    let t = Instant::now();
    for i in 0..DEQUE_OPS {
        worker.push(i);
        black_box(worker.pop());
    }
    out.push(Metric::new(
        "crossbeam.push_pop_ns",
        per_op(t.elapsed(), DEQUE_OPS, 1e9),
        "ns",
    ));

    for i in 0..DEQUE_OPS {
        worker.push(i);
    }
    let stealer = worker.stealer();
    let t = Instant::now();
    let mut stolen = 0usize;
    loop {
        match stealer.steal() {
            Steal::Success(x) => {
                black_box(x);
                stolen += 1;
            }
            Steal::Empty => break,
            Steal::Retry => {}
        }
    }
    out.push(Metric::new(
        "crossbeam.steal_ns",
        per_op(t.elapsed(), stolen, 1e9),
        "ns",
    ));

    // Push through the injector, refill a worker deque in batches, pop.
    let injector = Injector::new();
    let t = Instant::now();
    for i in 0..DEQUE_OPS {
        injector.push(i);
    }
    let mut moved = 0usize;
    loop {
        match injector.steal_batch_and_pop(&worker) {
            Steal::Success(x) => {
                black_box(x);
                moved += 1;
                while let Some(y) = worker.pop() {
                    black_box(y);
                    moved += 1;
                }
            }
            Steal::Empty => break,
            Steal::Retry => {}
        }
    }
    assert_eq!(moved, DEQUE_OPS, "the injector delivers every element once");
    out.push(Metric::new(
        "crossbeam.injector_batch_ns",
        per_op(t.elapsed(), moved, 1e9),
        "ns",
    ));
}

fn runtime_layer(rt: &TaskRuntime, tree_seed: u64, out: &mut Vec<Metric>) {
    let t = Instant::now();
    let handles: Vec<_> = (0..SPAWNS)
        .map(|i| rt.spawn(move || black_box(i)))
        .collect();
    for h in handles {
        black_box(h.join().expect("a trivial task completes"));
    }
    out.push(Metric::new(
        "partask.spawn_ns_per_task",
        per_op(t.elapsed(), SPAWNS, 1e9),
        "ns",
    ));

    let t = Instant::now();
    let results = rt.spawn_batch(BATCH, black_box).join();
    let elapsed = t.elapsed();
    assert!(results
        .iter()
        .enumerate()
        .all(|(i, r)| r.as_ref().ok() == Some(&i)));
    out.push(Metric::new(
        "partask.batch_ns_per_task",
        per_op(elapsed, BATCH, 1e9),
        "ns",
    ));

    // Tree wall minus the plain recursion's, per task.
    let expected = recurse(tree_seed, 0, 0);
    let mut tree_s = Vec::with_capacity(TREES);
    let mut rec_s = Vec::with_capacity(TREES);
    for _ in 0..TREES {
        let t = Instant::now();
        assert_eq!(
            spawn_tree(rt, tree_seed),
            Ok(expected),
            "tree sum equals the recursion"
        );
        tree_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(recurse(black_box(tree_seed), 0, 0));
        rec_s.push(t.elapsed().as_secs_f64());
    }
    let per_task = (median(&tree_s) - median(&rec_s)) / TREE_TASKS as f64;
    out.push(Metric::new("partask.spawn_join_ns", per_task * 1e9, "ns"));
}

fn marking_layers(cohort_seed: u64, out: &mut Vec<Metric>) {
    let rubric = AutoMarkRubric::default();
    let per_tick = RATE_PER_TICK as usize;

    // The single-thread baseline: a plain generate -> lint -> score loop.
    let t = Instant::now();
    let mut marked = 0usize;
    for tick in 0..COHORT_TICKS {
        for sub in generate_tick(cohort_seed, tick, per_tick, STUDENTS) {
            let analysis = parc_analyze::analyze(&sub.source);
            black_box(score_analysis(&analysis, &rubric));
            marked += 1;
        }
    }
    let seq_per_s = marked as f64 / t.elapsed().as_secs_f64();

    // The same cohort, one stage at a time.
    let t = Instant::now();
    let subs: Vec<_> = (0..COHORT_TICKS)
        .flat_map(|tick| generate_tick(cohort_seed, tick, per_tick, STUDENTS))
        .collect();
    out.push(Metric::new(
        "cohort.gen_us",
        per_op(t.elapsed(), subs.len(), 1e6),
        "us",
    ));

    let t = Instant::now();
    let programs: Vec<_> = subs
        .iter()
        .filter_map(|s| parc_analyze::parse::parse_recover(&s.source).0)
        .collect();
    out.push(Metric::new(
        "analyze.parse_us",
        per_op(t.elapsed(), subs.len(), 1e6),
        "us",
    ));

    let t = Instant::now();
    for program in &programs {
        black_box(parc_analyze::rules::check(program));
    }
    out.push(Metric::new(
        "analyze.check_us",
        per_op(t.elapsed(), programs.len(), 1e6),
        "us",
    ));

    let t = Instant::now();
    let analyses: Vec<_> = subs
        .iter()
        .map(|s| parc_analyze::analyze(&s.source))
        .collect();
    out.push(Metric::new(
        "analyze.lint_us",
        per_op(t.elapsed(), subs.len(), 1e6),
        "us",
    ));

    let t = Instant::now();
    for analysis in &analyses {
        black_box(score_analysis(analysis, &rubric));
    }
    out.push(Metric::new(
        "rubric.score_ns",
        per_op(t.elapsed(), analyses.len(), 1e9),
        "ns",
    ));

    // Explorer spot-checks over the cohort's hash-sampled spot set.
    let spot_set = analyses
        .iter()
        .enumerate()
        .filter(|&(i, _)| spot_eligible(cohort_seed, i as u64, SPOT_EVERY))
        .filter_map(|(_, a)| a.program.as_ref());
    let budget = Instant::now();
    let mut spot_ms = Vec::new();
    let mut schedules = 0usize;
    for program in spot_set.take(SPOT_PROGRAMS) {
        if budget.elapsed() > SPOT_BUDGET {
            break;
        }
        let t = Instant::now();
        let report = parc_analyze::bridge::explore_program(program, Config::fuzz("spot-check"));
        spot_ms.push(t.elapsed().as_secs_f64() * 1e3);
        schedules += report.schedules;
    }
    out.push(Metric::new(
        "explore.spot_ms_p50",
        quantile(&spot_ms, 0.5),
        "ms",
    ));
    out.push(Metric::new(
        "explore.spot_ms_p90",
        quantile(&spot_ms, 0.9),
        "ms",
    ));
    let per_spot = schedules as f64 / spot_ms.len().max(1) as f64;
    out.push(Metric::new("explore.schedules_per_spot", per_spot, "count"));
    out.push(Metric::new("pipeline.seq_marked_per_s", seq_per_s, "1/s"));
}

fn ledger_layer(out: &mut Vec<Metric>) {
    let admitted = || {
        let mut ledger = MarkLedger::new();
        for id in 0..LEDGER_SLOTS {
            ledger.admit((id % 8) as u16, 0);
        }
        ledger
    };
    let n = LEDGER_SLOTS as usize;

    let mut ledger = admitted();
    let t = Instant::now();
    let mut ok = 0usize;
    for id in 0..LEDGER_SLOTS {
        ok += usize::from(ledger.claim(id, 0, 1) && ledger.ack(id, 0, 1));
    }
    let elapsed = t.elapsed();
    assert_eq!(ok, n, "every claim and ack succeeds");
    out.push(Metric::new(
        "ledger.claim_ack_ns",
        per_op(elapsed, n, 1e9),
        "ns",
    ));

    let mut ledger = admitted();
    for id in 0..LEDGER_SLOTS {
        assert!(ledger.claim(id, 0, 1));
    }
    let t = Instant::now();
    for id in 0..LEDGER_SLOTS {
        ledger.reclaim(id, 0, 1);
    }
    out.push(Metric::new(
        "ledger.reclaim_ns",
        per_op(t.elapsed(), n, 1e9),
        "ns",
    ));
    assert_eq!(ledger.reclaims(), LEDGER_SLOTS);
}

/// Median time from failing a supervised child to its restarted
/// incarnation running, over `RESTARTS` round trips.
fn supervise_restart_us() -> f64 {
    let (cmd_tx, cmd_rx) = mpsc::channel::<bool>();
    let (ready_tx, ready_rx) = mpsc::channel::<u32>();
    let cmd_rx = Mutex::new(cmd_rx);
    let builder = Supervisor::builder("restart-probe")
        .restart_policy(
            RetryPolicy::fixed(Duration::from_millis(1)).with_max_attempts(RESTARTS + 1),
        )
        .backoff_time_scale(1e-3)
        .child("probe", move |ctx| {
            let _ = ready_tx.send(ctx.incarnation);
            match cmd_rx.lock().expect("probe command lock").recv() {
                Ok(true) => Err(ChildError::Failed("failed by the benchmark".into())),
                _ => Ok(()),
            }
        });
    let supervisor = thread::spawn(move || builder.run());
    assert_eq!(ready_rx.recv(), Ok(1), "the probe starts");
    let mut us = Vec::with_capacity(RESTARTS as usize);
    for _ in 0..RESTARTS {
        let t = Instant::now();
        cmd_tx.send(true).expect("probe is alive");
        ready_rx.recv().expect("the supervisor restarts the probe");
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    cmd_tx.send(false).expect("probe is alive");
    let report = supervisor.join().expect("supervisor thread does not panic");
    assert_eq!(report.restarts_total, RESTARTS);
    median(&us)
}
