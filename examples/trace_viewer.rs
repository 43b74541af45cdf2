//! Observability demo: run a seeded quicksort (partask + pyjama) and a
//! fault-injected web crawl (websim) with the `parc-trace` collector
//! attached, write a Chrome-trace JSON, and print the ASCII timeline,
//! event counts and metrics that the teaching reports embed.
//!
//! The crawl's outcome is deterministic for its fault seed; event
//! counts depend on the schedule and are measured. The export must
//! pass [`validate_chrome_trace`] or the run fails.
//!
//! Artifacts under `--out`: `BENCH_trace.json` and
//! `trace_viewer.trace.json`. Load the trace in `chrome://tracing` or
//! <https://ui.perfetto.dev>: one process per runtime (partask,
//! pyjama, websim), one thread per worker, `B`/`E` span pairs for task
//! bodies, barrier waits and fetch attempts, instants for steals,
//! retries and injected faults.
//!
//! Run with: `cargo run --release --example trace_viewer -- [--seed N] [--out DIR]`
//! (the seed drives the crawl's fault injector; default 42).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use faultsim::{FaultInjector, FaultPlan, RetryPolicy};
use parc_trace::{render_event_counts, render_timeline, to_chrome_json, Collector};
use parsort::{data, quicksort_partask};
use partask::TaskRuntime;
use pyjama::{Schedule, Team};
use softeng751_repro::experiment::{self, Report, Spec};
use websim::{try_fetch_all, ServerConfig, SimServer};

fn main() {
    // The crawl injects panics on purpose; keep them out of stderr.
    faultsim::silence_injected_panics();
    let cells = vec![("three runtimes".to_string(), ())];
    experiment::run(
        Spec { name: "trace", seed: 42, pool: None, cells },
        |(), seed, _| traced(seed),
        |_, _| Report::new(),
    );
}

fn traced(seed: u64) -> Report {
    let collector = Collector::new();
    let trace = collector.handle();

    // --- Workload 1: seeded quicksort on the task runtime.
    let rt = TaskRuntime::builder().workers(4).name("partask").trace(&trace).build();
    let mut v = data::random(200_000, 0xC0FFEE);
    quicksort_partask(&rt, &mut v);
    let sorted = v.windows(2).all(|w| w[0] <= w[1]);

    // --- Workload 2: a worksharing region with barriers on a team.
    let team = Team::with_trace(4, &trace);
    let sums: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
    team.parallel(|ctx| {
        ctx.pfor(0..10_000, Schedule::Dynamic(512), |i: usize| {
            sums[i % 4].fetch_add(i as u64, Ordering::Relaxed);
        });
        ctx.barrier();
    });

    // --- Workload 3: fault-injected crawl with per-page retries.
    let server = Arc::new(
        SimServer::with_faults(
            ServerConfig { pages: 40, time_scale: 2e-5, ..ServerConfig::default() },
            FaultInjector::new(
                FaultPlan::reliable(seed).with_error_rate(0.2).with_panic_rate(0.05),
            ),
        )
        .with_trace(&trace),
    );
    let policy = RetryPolicy::fixed(Duration::from_millis(1)).with_max_attempts(6);
    let outcome = try_fetch_all(&rt, &server, 6, &policy);
    rt.shutdown();

    // --- Export: Chrome trace + terminal views.
    let snapshot = collector.snapshot();
    let json = to_chrome_json(&snapshot);
    println!("{}", render_timeline(&snapshot, 64));
    println!("{}", render_event_counts(&snapshot));
    println!("{}", collector.metrics().render());

    Report::new()
        .det("pages", outcome.report.pages)
        .det("succeeded", outcome.succeeded)
        .det("attempts", outcome.attempts_total)
        .det("retries", outcome.retries)
        .det("transient_errors", outcome.transient_errors)
        .det("panics_contained", outcome.panics)
        .measured("events", snapshot.len())
        .measured("dropped", snapshot.dropped)
        .check(sorted, "quicksort must sort")
        .violations(validate_chrome_trace(&json))
        .file("trace_viewer.trace.json", json)
}

/// Shape-check the export with the in-repo JSON parser: it must
/// round-trip, hold at least one event, every event must carry `name`,
/// `ph`, `pid` and `tid`, both `B` and `E` phases must appear, and
/// `B`/`E` span pairs must balance per lane — the property that makes
/// the viewer nest spans as durations.
fn validate_chrome_trace(json: &str) -> Vec<String> {
    let doc = match parc_trace::parse_json(json) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("trace is not valid JSON: {e}")],
    };
    let Some(events) = doc.get("traceEvents").and_then(|e| e.as_arr()) else {
        return vec!["traceEvents must be an array".to_string()];
    };
    let mut bad = Vec::new();
    if events.is_empty() {
        bad.push("trace holds no events".to_string());
    }
    let mut depth: BTreeMap<(i64, i64), i64> = BTreeMap::new();
    let mut phases = (false, false);
    for ev in events {
        let field = |key| ev.get(key);
        let (Some(_), Some(ph), Some(pid), Some(tid)) = (
            field("name"),
            field("ph").and_then(|p| p.as_str()),
            field("pid").and_then(|p| p.as_f64()),
            field("tid").and_then(|t| t.as_f64()),
        ) else {
            bad.push(format!("event without name/ph/pid/tid: {ev}"));
            continue;
        };
        let lane = depth.entry((pid as i64, tid as i64)).or_insert(0);
        match ph {
            "B" => {
                phases.0 = true;
                *lane += 1;
            }
            "E" => {
                phases.1 = true;
                *lane -= 1;
                if *lane < 0 {
                    bad.push(format!("lane ({pid},{tid}): E without matching B"));
                }
            }
            _ => {}
        }
    }
    if phases != (true, true) {
        bad.push(format!("trace must hold both B and E phases, saw (B, E) = {phases:?}"));
    }
    if depth.values().any(|&d| d != 0) {
        bad.push(format!("unbalanced span pairs: {depth:?}"));
    }
    if bad.is_empty() {
        println!("trace validated: {} entries, span pairs balanced\n", events.len());
    }
    bad
}
