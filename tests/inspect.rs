//! Inspect suite: the E-DEBUG contracts, as integration tests.
//!
//! 1. **Query = scan** — the store's interval, kind and overlap
//!    indexes agree with naive full scans on a real fault-injected
//!    crawl trace.
//! 2. **Canonical reconstruction** — the task graph's fingerprint,
//!    logical critical path and deterministic JSON are bit-identical
//!    across reruns *and* across 1/3/8-worker pools for the same
//!    seed.
//! 3. **Replay determinism** — diffing two same-seed recordings is
//!    empty, replaying a schedule reproduces it, and the time-travel
//!    cursor re-executes prefixes consistently in both directions.
//! 4. **Integration** — spans still open at snapshot time surface in
//!    the store, and a traced runtime records exactly one `task.run`
//!    span per executed task in the run the graph is built from.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use faultsim::{FaultInjector, FaultPlan, RetryPolicy};
use parc_explore::replay::{record_seeded, replay};
use parc_explore::sync::PlainCell;
use parc_inspect::{diff_schedules, CriticalPath, CriticalReport, TaskGraph, TimeTravel, TraceStore};
use parc_trace::{Collector, SpanKind, Trace};
use parsort::{data, quicksort_partask};
use partask::TaskRuntime;
use pyjama::{Schedule, Team};
use websim::{try_fetch_all, ServerConfig, SimServer};

/// The deterministic E-DEBUG workload: seeded quicksort on `workers`
/// partask workers plus a 4-member pyjama region with a barrier.
fn deterministic_run(workers: usize) -> Trace {
    let collector = Collector::new();
    let handle = collector.handle();
    let rt = TaskRuntime::builder()
        .workers(workers)
        .name("partask")
        .trace(&handle)
        .build();
    let mut v = data::random(60_000, 0xC0FFEE);
    quicksort_partask(&rt, &mut v);
    rt.shutdown();

    let team = Team::with_trace(4, &handle);
    let sums: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
    team.parallel(|ctx| {
        ctx.pfor(0..4_000, Schedule::Dynamic(256), |i: usize| {
            sums[i % 4].fetch_add(i as u64, Ordering::Relaxed);
        });
        ctx.barrier();
    });
    collector.snapshot()
}

/// A messier trace for query tests: fault-injected crawl with
/// retries, panics and steals.
fn crawl_trace() -> Trace {
    faultsim::silence_injected_panics();
    let collector = Collector::new();
    let handle = collector.handle();
    let rt = TaskRuntime::builder()
        .workers(3)
        .name("partask")
        .trace(&handle)
        .build();
    let server = Arc::new(
        SimServer::with_faults(
            ServerConfig { pages: 24, time_scale: 2e-6, ..ServerConfig::default() },
            FaultInjector::new(
                FaultPlan::reliable(42).with_error_rate(0.25).with_panic_rate(0.05),
            ),
        )
        .with_trace(&handle),
    );
    let policy = RetryPolicy::fixed(Duration::from_micros(100)).with_max_attempts(6);
    let _ = try_fetch_all(&rt, &server, 4, &policy);
    rt.shutdown();
    collector.snapshot()
}

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

// ---------------------------------------------------------------
// 1. Queries agree with naive scans.

#[test]
fn interval_and_kind_queries_match_naive_scans_on_a_crawl() {
    let store = TraceStore::new(crawl_trace());
    let events = store.events();
    assert!(!events.is_empty());
    let first = events[0].ts_ns;
    let wall = store.wall_ns();

    // Several windows, including empty and full ones.
    for (lo, hi) in [
        (first, first + wall + 1),
        (first + wall / 4, first + wall / 2),
        (first + wall, first + wall),
        (first + wall / 3, first + 2 * wall / 3),
    ] {
        let fast = store.events_in(lo, hi);
        let naive: Vec<_> =
            events.iter().filter(|e| e.ts_ns >= lo && e.ts_ns < hi).collect();
        assert_eq!(fast.len(), naive.len(), "window [{lo},{hi})");
        assert!(fast
            .iter()
            .zip(&naive)
            .all(|(a, b)| a.ts_ns == b.ts_ns && a.tid == b.tid && a.pid == b.pid));

        for kind in ["fetch.attempt", "task.spawn", "retry.wait", "sched.steal"] {
            let indexed = store.kind_indices_in(kind, lo, hi).len();
            let scanned = events
                .iter()
                .filter(|e| e.name() == kind && e.ts_ns >= lo && e.ts_ns < hi)
                .count();
            assert_eq!(indexed, scanned, "kind {kind} in [{lo},{hi})");
        }

        let fast_spans: Vec<u64> =
            store.spans_overlapping(lo, hi).iter().map(|s| s.span.id).collect();
        let mut naive_spans: Vec<(u64, u64)> = store
            .spans()
            .filter(|s| s.span.start_ns < hi && s.span.end_ns >= lo)
            .map(|s| (s.span.start_ns, s.span.id))
            .collect();
        naive_spans.sort_unstable();
        let naive_ids: Vec<u64> = naive_spans.into_iter().map(|(_, id)| id).collect();
        assert_eq!(fast_spans, naive_ids, "overlap in [{lo},{hi})");
    }

    for kind in ["fetch.attempt", "task.run", "fault.injected"] {
        assert_eq!(
            store.kind_indices(kind).len(),
            events.iter().filter(|e| e.name() == kind).count(),
            "total count for {kind}",
        );
    }
}

// ---------------------------------------------------------------
// 2. Canonical reconstruction across reruns and pool sizes.

#[test]
fn graph_and_critical_path_are_identical_across_reruns_and_pools() {
    let (_, canonical_graph, canonical_report) = parc_inspect::analyze(deterministic_run(4));
    let fingerprint = canonical_graph.fingerprint();
    let det_json = canonical_report.deterministic_json();
    assert!(canonical_graph.node_count() > 10, "workload must spawn real structure");

    // Rerun with the same pool.
    let (_, g2, r2) = parc_inspect::analyze(deterministic_run(4));
    assert_eq!(g2.fingerprint(), fingerprint, "rerun fingerprint");
    assert_eq!(r2.deterministic_json(), det_json, "rerun critical path");

    // Different pool sizes reconstruct the same canonical graph.
    for workers in [1usize, 3, 8] {
        let (_, g, r) = parc_inspect::analyze(deterministic_run(workers));
        assert_eq!(g.fingerprint(), fingerprint, "pool size {workers}");
        assert_eq!(r.deterministic_json(), det_json, "pool size {workers} path");
        assert_eq!(g.node_count(), canonical_graph.node_count());
        assert_eq!(g.edge_count(), canonical_graph.edge_count());
    }
}

#[test]
fn attribution_is_bounded_and_sees_the_barrier() {
    let (_, _, report) = parc_inspect::analyze(deterministic_run(4));
    let total = report.attribution_total_pct();
    assert!(total > 0.0 && total <= 100.0 + 1e-6, "shares bounded: {total}");
    assert!(report.share_of("barrier.wait") > 0.0, "barrier demo must show waits");
    assert!(report.share_of("task.run") > 0.0);
    // Exports parse with the in-repo JSON parser.
    let json = parc_trace::parse_json(&report.to_json().to_string()).expect("report JSON parses");
    assert!(json.get("deterministic").is_some() && json.get("wall_clock").is_some());
}

#[test]
fn logical_critical_path_has_zero_slack_on_path_nodes() {
    let (_, graph, _) = parc_inspect::analyze(deterministic_run(2));
    let path = CriticalPath::compute(&graph, |i| graph.nodes[i].logical);
    assert!(!path.is_empty());
    for entry in &path.entries {
        assert_eq!(path.slack[entry.node], 0, "on-path node must have zero slack");
    }
    assert_eq!(path.entries.last().unwrap().cumulative, path.total);
}

// ---------------------------------------------------------------
// 3. Replay determinism.

#[test]
fn same_seed_recordings_diff_empty_and_replays_reproduce() {
    let a = record_seeded("a", 7, 20_000, racy_body);
    let b = record_seeded("b", 7, 20_000, racy_body);
    assert!(a.completed);
    assert!(diff_schedules(&a, &b).is_empty(), "same seed must diff empty");

    let replayed = replay("r", racy_body, &a.schedule);
    assert!(replayed.completed);
    assert!(diff_schedules(&a, &replayed).is_empty(), "replay must reproduce");
}

#[test]
fn different_seeds_eventually_diverge_with_a_located_first_decision() {
    let base = record_seeded("base", 1, 20_000, racy_body);
    let other = (2..64)
        .map(|seed| record_seeded("other", seed, 20_000, racy_body))
        .find(|r| r.schedule != base.schedule)
        .expect("some seed in 2..64 schedules differently");
    let diff = diff_schedules(&base, &other);
    assert!(!diff.is_empty());
    let at = diff.first_divergence.expect("divergence located");
    assert_eq!(base.steps[..at], other.steps[..at], "common prefix holds");
    assert_ne!(base.steps.get(at), other.steps.get(at));
}

#[test]
fn time_travel_prefixes_are_consistent_in_both_directions() {
    let rec = record_seeded("tt", 3, 20_000, racy_body);
    let total = rec.len();
    let reference = rec.steps.clone();
    let mut tt = TimeTravel::new(rec, racy_body);

    // Forward from 0: every position replays exactly the prefix.
    tt.seek(0);
    for want in 1..=total {
        tt.forward();
        assert_eq!(tt.cursor(), want);
        assert_eq!(tt.state().steps[..], reference[..want], "prefix {want}");
        assert!(tt.state().diverged_at.is_none(), "own schedule never diverges");
    }
    assert!(tt.at_end() && tt.state().completed);

    // Backward: same invariant, re-executed.
    for want in (0..total).rev() {
        tt.back();
        assert_eq!(tt.cursor(), want);
        assert_eq!(tt.state().steps[..], reference[..want]);
        if want < total {
            assert!(!tt.state().frontier.is_empty(), "mid-run exposes the frontier");
        }
    }
    assert!(tt.at_start());
}

// ---------------------------------------------------------------
// 4. Integration: open spans and the runtime's task spans.

#[test]
fn open_spans_surface_in_store_and_graph() {
    let collector = Collector::new();
    let handle = collector.handle();
    let pid = handle.register_track("demo");
    let held = handle.span(pid, SpanKind::TaskRun { task: 5 });
    drop(handle.span(pid, SpanKind::TaskRun { task: 6 }));
    let store = TraceStore::new(collector.snapshot());
    drop(held);

    let open: Vec<_> = store.spans().filter(|s| s.span.open).collect();
    assert_eq!(open.len(), 1, "the held span must surface as open");
    assert!(open[0].end_idx.is_none());
    let graph = TaskGraph::build(&store);
    assert_eq!(graph.node_count(), 2, "open task still becomes a node");
}

#[test]
fn trace_holds_one_task_run_span_per_executed_task() {
    let collector = Collector::new();
    let rt = TaskRuntime::builder()
        .workers(4)
        .name("partask")
        .trace(&collector.handle())
        .build();
    let mut v = data::random(60_000, 0xC0FFEE);
    quicksort_partask(&rt, &mut v);
    // Quiescent: every body's span closed before its job counted as
    // executed, so the two tallies must agree exactly.
    rt.wait_quiescent();
    let executed = rt.stats().executed;
    rt.shutdown();

    let (store, graph, _) = parc_inspect::analyze(collector.snapshot());
    let tasks_run = store.kind_indices("task.run").len() / 2; // begin + end
    assert!(executed > 0);
    assert_eq!(
        tasks_run as u64, executed,
        "one task.run span per executed task"
    );
    assert!(!graph.is_empty());
    let report = CriticalReport::analyze(&store, &graph);
    assert!(report.logical.total > 0);
}
