//! Experiment E-DEBUG: queryable traces, critical paths and
//! time-travel replay, with hard determinism gates.
//!
//! The one cell runs the seeded quicksort + pyjama-barrier workload
//! under the collector, promotes the trace into a
//! [`parc_inspect::TraceStore`], rebuilds the task dependence graph and
//! exports its critical path: the rerun-stable part (graph fingerprint,
//! logical critical path) is the cell's `deterministic` section, the
//! wall-clock path and attribution table its `measured` section.
//!
//! Gates (violations; any one exits non-zero):
//! * pool: the cell reruns on 1, 3 and 8 partask workers and must
//!   reconstruct the same canonical graph and critical path as on 4;
//! * per cell: a non-empty graph and critical path; attribution shares
//!   in (0, 100]% of capacity with a nonzero `barrier.wait` share; and
//!   interval, kind and span-overlap queries equal to naive full scans;
//! * experiment: same explorer seed ⇒ empty
//!   [`parc_inspect::diff_schedules`]; replaying a recorded schedule
//!   reproduces it; a divergent seed pair pinpoints its first divergent
//!   decision; [`parc_inspect::TimeTravel`] walks the schedule to both
//!   ends consistently; and store-build, graph-build and query
//!   throughput on a ~480k-event synthetic trace are positive.
//!
//! Run with: `cargo run --release --example trace_inspect -- [--seed N] [--out DIR]`
//! (the seed feeds the quicksort input; default `0xC0FFEE`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parc_explore::replay::{record_seeded, replay};
use parc_explore::sync::PlainCell;
use parc_inspect::{diff_schedules, CriticalReport, TaskGraph, TimeTravel, TraceStore};
use parc_trace::{Collector, Json, MarkKind, SpanKind, Trace};
use parc_util::rng::Xoshiro256;
use parsort::{data, quicksort_partask};
use partask::TaskRuntime;
use pyjama::{Schedule, Team};
use softeng751_repro::experiment::{self, Report, Spec};

const WORKERS: usize = 4;

/// The E-DEBUG workload: seeded quicksort on `workers` partask
/// workers, then a 4-member pyjama worksharing region with an
/// explicit barrier — all into one collector.
fn traced_run(seed: u64, workers: usize) -> Trace {
    let collector = Collector::new();
    let handle = collector.handle();

    let rt = TaskRuntime::builder().workers(workers).name("partask").trace(&handle).build();
    let mut v = data::random(200_000, seed);
    quicksort_partask(&rt, &mut v);
    assert!(v.windows(2).all(|w| w[0] <= w[1]), "quicksort must sort");
    rt.shutdown();

    let team = Team::with_trace(4, &handle);
    let sums: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
    team.parallel(|ctx| {
        ctx.pfor(0..10_000, Schedule::Dynamic(512), |i: usize| {
            sums[i % 4].fetch_add(i as u64, Ordering::Relaxed);
        });
        ctx.barrier();
    });

    collector.snapshot()
}

/// Two simulated threads racing plain increments — the schedule-
/// sensitive body the replay gates explore.
fn racy_body() {
    let cell = Arc::new(PlainCell::new("count", 0i64));
    let mut handles = Vec::new();
    for _ in 0..2 {
        let cell = Arc::clone(&cell);
        handles.push(parc_explore::thread::spawn(move || {
            let v = cell.get();
            cell.set(v + 1);
        }));
    }
    for h in handles {
        h.join();
    }
    parc_explore::record("final", cell.get());
}

fn main() {
    let cells = vec![("quicksort + barrier".to_string(), ())];
    experiment::run(
        Spec { name: "inspect", seed: 0x00C0_FFEE, pool: Some(WORKERS), cells },
        |(), seed, pool| {
            let (store, graph, report) = parc_inspect::analyze(traced_run(seed, pool));
            if pool == WORKERS {
                println!(
                    "{} events -> {} nodes, {} edges\n",
                    store.len(),
                    graph.node_count(),
                    graph.edge_count()
                );
                println!("{}", report.render());
            }
            let export = report.to_json();
            let section = |key| match export.get(key) {
                Some(Json::Obj(fields)) => fields.clone(),
                _ => BTreeMap::new(),
            };
            let out = Report {
                deterministic: section("deterministic"),
                measured: section("wall_clock"),
                ..Report::default()
            };
            let total_pct = report.attribution_total_pct();
            let path_len = out
                .deterministic
                .get("critical_path")
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len);
            let nonempty = out.number("node_count") > 0.0 && out.number("logical_total") > 0.0;
            query_checks(out, &store)
                .check(nonempty, "empty task graph")
                .check(path_len > 0, "empty critical path")
                .check(
                    total_pct > 0.0 && total_pct <= 100.0 + 1e-6,
                    format!("attribution shares sum to {total_pct:.2}%"),
                )
                .check(report.share_of("barrier.wait") > 0.0, "no barrier.wait time attributed")
        },
        |_, _| throughput(replay_checks(Report::new())),
    );
}

/// Every indexed query must equal the naive full scan.
fn query_checks(report: Report, store: &TraceStore) -> Report {
    let events = store.events();
    let first = events.first().map_or(0, |e| e.ts_ns);
    let lo = first + store.wall_ns() / 3;
    let hi = first + 2 * store.wall_ns() / 3;

    let fast = store.events_in(lo, hi);
    let naive: Vec<_> = events.iter().filter(|e| e.ts_ns >= lo && e.ts_ns < hi).collect();
    let mut report = report.check(
        fast.len() == naive.len()
            && fast.iter().zip(&naive).all(|(a, b)| a.ts_ns == b.ts_ns && a.tid == b.tid),
        format!("interval query returned {} events, scan {}", fast.len(), naive.len()),
    );
    for kind in ["task.spawn", "barrier.wait", "sched.steal"] {
        let indexed = store.kind_indices(kind).len();
        let scanned = events.iter().filter(|e| e.name() == kind).count();
        report = report
            .check(indexed == scanned, format!("kind query {kind}: {indexed} != scan {scanned}"));
    }
    let windowed = store.kind_indices_in("task.spawn", lo, hi).len();
    let windowed_naive =
        events.iter().filter(|e| e.name() == "task.spawn" && e.ts_ns >= lo && e.ts_ns < hi).count();

    let fast_spans: Vec<u64> = store.spans_overlapping(lo, hi).iter().map(|s| s.span.id).collect();
    let mut naive_spans: Vec<(u64, u64)> = store
        .spans()
        .filter(|s| s.span.start_ns < hi && s.span.end_ns >= lo)
        .map(|s| (s.span.start_ns, s.span.id))
        .collect();
    naive_spans.sort_unstable();
    report
        .check(
            windowed == windowed_naive,
            format!("kind-interval query: {windowed} != scan {windowed_naive}"),
        )
        .check(
            fast_spans == naive_spans.iter().map(|(_, id)| *id).collect::<Vec<_>>(),
            format!(
                "overlap query returned {} spans, scan {}",
                fast_spans.len(),
                naive_spans.len()
            ),
        )
}

/// Recording, replaying and diffing schedules is deterministic, and
/// time travel is position-consistent.
fn replay_checks(report: Report) -> Report {
    let a = record_seeded("seed42-a", 42, 20_000, racy_body);
    let b = record_seeded("seed42-b", 42, 20_000, racy_body);
    let same = diff_schedules(&a, &b);
    let replayed = replay("seed42-replay", racy_body, &a.schedule);
    let mut report = report
        .det("recording_fingerprint", experiment::hex(a.fingerprint()))
        .det("recording_steps", a.len())
        .check(a.completed, format!("recording did not complete: {}", a.verdict()))
        .check(a.fingerprint() == b.fingerprint(), "same seed produced different recordings")
        .check(same.is_empty(), format!("same-seed diff is not empty:\n{}", same.render()))
        .check(
            diff_schedules(&a, &replayed).is_empty() && replayed.completed,
            "replaying the recorded schedule did not reproduce the run",
        );

    match (43..128)
        .map(|seed| record_seeded("hunt", seed, 20_000, racy_body))
        .find(|r| r.schedule != a.schedule)
    {
        None => report = report.check(false, "no seed in 43..128 diverged"),
        Some(d) => {
            let diff = diff_schedules(&a, &d);
            let at = diff.first_divergence;
            report = report
                .det("divergence", diff.to_json())
                .check(
                    !diff.is_empty()
                        && at.is_some_and(|at| a.steps[..at] == d.steps[..at])
                        && diff.a_step.is_some(),
                    "diff failed to locate the first divergent decision",
                );
        }
    }

    let total = a.len();
    let mut tt = TimeTravel::new(a, racy_body);
    tt.seek(0);
    let start_ok = tt.at_start() && tt.state().steps.is_empty() && !tt.state().frontier.is_empty();
    report = report.check(start_ok, "time travel: position 0 must be empty with a frontier");
    for _ in 0..total {
        tt.forward();
    }
    report = report.check(
        tt.at_end() && tt.state().steps.len() == total && tt.state().completed,
        format!("time travel walked to {}/{total} steps", tt.state().steps.len()),
    );
    tt.back();
    report.check(
        tt.cursor() == total - 1 && tt.state().steps.len() == total - 1,
        "time travel: stepping back must re-execute the shorter prefix",
    )
}

/// A synthetic ~480k-event trace: 4 lanes of spawn-marked task spans.
fn synthetic_trace() -> Trace {
    let collector = Collector::with_thread_capacity(1 << 19);
    let handle = collector.handle();
    let pid = handle.register_track("bench");
    std::thread::scope(|scope| {
        for lane in 0u64..4 {
            let handle = handle.clone();
            scope.spawn(move || {
                for i in 0..30_000u64 {
                    let task = (lane << 32) | i;
                    handle.mark(pid, MarkKind::TaskSpawn { task, parent_span: 0 });
                    let span = handle.span(pid, SpanKind::TaskRun { task });
                    handle.mark(pid, MarkKind::Steal { victim: (lane as u32 + 1) % 4 });
                    drop(span);
                }
            });
        }
    });
    collector.snapshot()
}

/// Store-build, graph-build and query throughput.
fn throughput(report: Report) -> Report {
    let trace = synthetic_trace();
    let events = trace.len() as f64;

    let t0 = Instant::now();
    let store = TraceStore::new(trace);
    let build_s = t0.elapsed().as_secs_f64().max(1e-9);

    let t1 = Instant::now();
    let graph = TaskGraph::build(&store);
    let _report = CriticalReport::analyze(&store, &graph);
    let graph_s = t1.elapsed().as_secs_f64().max(1e-9);

    let first = store.events().first().map_or(0, |e| e.ts_ns);
    let wall = store.wall_ns().max(1);
    let mut rng = Xoshiro256::seed_from_u64(0xE0_DEB6);
    let queries = 2_000u64;
    let mut touched = 0u64;
    let t2 = Instant::now();
    for _ in 0..queries {
        let a = first + rng.next_below(wall);
        let b = first + rng.next_below(wall);
        let (lo, hi) = (a.min(b), a.max(b));
        touched += store.events_in(lo, hi).len() as u64;
        touched += store.kind_indices_in("task.spawn", lo, hi).len() as u64;
    }
    let query_s = t2.elapsed().as_secs_f64().max(1e-9);

    let rates = [events / build_s, events / graph_s, queries as f64 / query_s];
    report
        .measured("bench_events", events)
        .measured("bench_graph_nodes", graph.node_count())
        .measured("store_build_events_per_sec", rates[0])
        .measured("graph_build_events_per_sec", rates[1])
        .measured("queries_per_sec", rates[2])
        .measured("query_results_per_sec", touched as f64 / query_s)
        .check(
            rates.iter().all(|&r| r > 0.0),
            format!("throughput rates must be positive: {rates:?}"),
        )
}
