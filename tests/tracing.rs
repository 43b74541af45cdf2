//! Tracing suite: the observability layer's three contracts.
//!
//! 1. The Chrome-trace exporter emits valid JSON whose `B`/`E` span
//!    pairs balance on every lane.
//! 2. Under a fixed seed, traces are deterministic where the workload
//!    is: event *counts* and per-key *causal orderings* are identical
//!    across reruns and across pool sizes (the `tests/chaos.rs`
//!    bit-identical pattern, lifted to events). Timestamps and
//!    cross-thread interleavings may differ; nothing here looks at
//!    them.
//! 3. Tracing is observation only: a disabled collector records zero
//!    events, and instrumented code behaves bit-identically with and
//!    without a collector attached.
//!
//! The metrics the runtimes register count exactly: a striped counter
//! sums to its total however its adds fall on its stripes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use faultsim::{FaultInjector, FaultPlan, RetryPolicy};
use parc_trace::{
    parse_json, to_chrome_json, Collector, Counter, EventKind, MarkKind, MetricsRegistry, Trace,
    TraceHandle,
};
use partask::TaskRuntime;
use pyjama::{Schedule, Team};
use websim::{try_fetch_all, FetchOutcome, ServerConfig, SimServer};

fn flaky_server(seed: u64, trace: &TraceHandle) -> Arc<SimServer> {
    let plan = FaultPlan::reliable(seed)
        .with_error_rate(0.2)
        .with_timeout_rate(0.05)
        .with_panic_rate(0.03)
        .fail_key_n_times(7, 3);
    Arc::new(
        SimServer::with_faults(
            ServerConfig {
                pages: 40,
                time_scale: 2e-6,
                ..ServerConfig::default()
            },
            FaultInjector::new(plan),
        )
        .with_trace(trace),
    )
}

fn crawl_policy() -> RetryPolicy {
    RetryPolicy::fixed(Duration::from_millis(1)).with_max_attempts(5)
}

/// Run one fully traced crawl and return the drained trace plus the
/// crawl's outcome.
fn traced_crawl(seed: u64, workers: usize, connections: usize) -> (Trace, FetchOutcome) {
    let col = Collector::new();
    let h = col.handle();
    let rt = TaskRuntime::builder().workers(workers).trace(&h).build();
    let server = flaky_server(seed, &h);
    let outcome = try_fetch_all(&rt, &server, connections, &crawl_policy());
    rt.shutdown();
    (col.snapshot(), outcome)
}

/// The subset of event counts that the seed fully determines (steal
/// and queue-path counts legitimately vary with thread interleaving).
fn seed_determined_counts(trace: &Trace) -> BTreeMap<&'static str, u64> {
    const SEEDED: [&str; 4] = ["crawl", "fetch.attempt", "fetch.result", "fault.injected"];
    trace
        .counts_by_name()
        .into_iter()
        .filter(|(name, _)| SEEDED.contains(name))
        .collect()
}

/// Per-page causal fingerprint: the ordered (attempt, result) sequence
/// each page went through.
fn per_page_orderings(trace: &Trace) -> BTreeMap<u32, Vec<(u32, &'static str)>> {
    let mut map: BTreeMap<u32, Vec<(u32, &'static str)>> = BTreeMap::new();
    for ev in &trace.events {
        if let EventKind::Mark {
            what: MarkKind::FetchResult { page, attempt, result },
        } = ev.kind
        {
            map.entry(page).or_default().push((attempt, result.name()));
        }
    }
    // Same-page attempts happen sequentially on one connection, so
    // timestamp order within a page is causal order.
    map
}

#[test]
fn chrome_export_is_valid_json_with_balanced_spans() {
    faultsim::silence_injected_panics();
    let (trace, _) = traced_crawl(0xBEEF, 4, 4);
    assert!(!trace.is_empty());
    let json = to_chrome_json(&trace);
    let doc = parse_json(&json).expect("chrome export must round-trip through the JSON parser");
    let events = doc
        .get("traceEvents")
        .expect("traceEvents key")
        .as_arr()
        .expect("traceEvents is an array");
    assert!(events.len() >= trace.len(), "one entry per event plus metadata");
    // B/E pairs must balance per (pid, tid) lane — that is what makes
    // chrome://tracing nest them as durations.
    let mut depth: BTreeMap<(i64, i64), i64> = BTreeMap::new();
    for ev in events {
        let ph = ev.get("ph").unwrap().as_str().unwrap();
        let pid = ev.get("pid").unwrap().as_f64().unwrap() as i64;
        let tid = ev.get("tid").unwrap().as_f64().unwrap() as i64;
        let d = depth.entry((pid, tid)).or_insert(0);
        match ph {
            "B" => *d += 1,
            "E" => {
                *d -= 1;
                assert!(*d >= 0, "lane ({pid},{tid}): E without matching B");
            }
            "i" | "M" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for ((pid, tid), d) in depth {
        assert_eq!(d, 0, "lane ({pid},{tid}): unbalanced span pairs");
    }
}

#[test]
fn same_seed_traces_agree_across_reruns_and_pool_sizes() {
    faultsim::silence_injected_panics();
    let seed = 0x5EED_7AB5;
    let (base_trace, base_outcome) = traced_crawl(seed, 4, 4);
    let base_counts = seed_determined_counts(&base_trace);
    let base_order = per_page_orderings(&base_trace);
    assert!(base_counts["fetch.attempt"] > 40, "retries must have fired");
    assert_eq!(base_counts["fetch.attempt"], base_outcome.attempts_total);
    // Rerun with the same pool, then with very different pools: event
    // counts and per-page causal orderings must not move.
    for (workers, connections) in [(4usize, 4usize), (2, 1), (8, 8)] {
        let (trace, outcome) = traced_crawl(seed, workers, connections);
        assert_eq!(
            seed_determined_counts(&trace),
            base_counts,
            "{workers}w/{connections}c changed event counts"
        );
        assert_eq!(
            per_page_orderings(&trace),
            base_order,
            "{workers}w/{connections}c changed a page's attempt ordering"
        );
        // Task accounting stays internally consistent at any size.
        let counts = trace.counts_by_name();
        assert_eq!(counts["task.spawn"], connections as u64);
        assert_eq!(counts["task.spawn"], counts["task.outcome"]);
        assert_eq!(outcome.attempts_total, base_outcome.attempts_total);
    }
}

#[test]
fn task_spawns_inherit_the_crawl_span_as_causal_parent() {
    faultsim::silence_injected_panics();
    let (trace, _) = traced_crawl(0xCAFE, 4, 3);
    let crawl = trace
        .spans()
        .into_iter()
        .find(|s| s.what.name() == "crawl")
        .expect("crawl span completed");
    let spawn_parents: Vec<u64> = trace
        .events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::Mark { what: MarkKind::TaskSpawn { parent_span, .. } } => {
                Some(parent_span)
            }
            _ => None,
        })
        .collect();
    assert_eq!(spawn_parents.len(), 3, "one spawn per connection");
    for parent in spawn_parents {
        assert_eq!(
            parent, crawl.id,
            "connection tasks are spawned inside the crawl span"
        );
    }
}

#[test]
fn pyjama_region_events_are_deterministic() {
    let n = 4;
    let run = || {
        let col = Collector::new();
        let team = Team::with_trace(n, &col.handle());
        team.parallel(|ctx| {
            ctx.pfor(0..10_000, Schedule::Dynamic(512), |_i: usize| {});
            ctx.barrier();
        });
        col.snapshot()
    };
    let a = run();
    let b = run();
    let counts = a.counts_by_name();
    assert_eq!(counts["region.member"], n as u64);
    // pfor's trailing barrier + the explicit one: 2 waits per member.
    assert_eq!(counts["barrier.wait"], 2 * n as u64);
    assert_eq!(counts["barrier.release"], 2 * n as u64);
    // Dynamic(512) over 10_000 iterations deals exactly ceil(10000/512)
    // chunks in total, however the members race for them.
    assert_eq!(counts["chunk.dispatch"], 10_000u64.div_ceil(512));
    assert_eq!(counts, b.counts_by_name(), "rerun changed region event counts");
}

#[test]
fn disabled_collector_records_nothing_and_changes_nothing() {
    faultsim::silence_injected_panics();
    let seed = 0xD15_AB1E;
    // Attached but toggled off: the whole instrumented path runs with
    // recording disabled and must emit zero events.
    let col = Collector::new();
    col.set_enabled(false);
    let h = col.handle();
    let rt = TaskRuntime::builder().workers(4).trace(&h).build();
    let server = flaky_server(seed, &h);
    let off_outcome = try_fetch_all(&rt, &server, 4, &crawl_policy());
    rt.shutdown();
    assert!(col.snapshot().is_empty(), "disabled collector must record nothing");

    // No collector at all (the default handle): same behaviour again.
    let rt = TaskRuntime::builder().workers(4).build();
    let server = flaky_server(seed, &TraceHandle::default());
    let plain_outcome = try_fetch_all(&rt, &server, 4, &crawl_policy());
    rt.shutdown();

    // And a fully recording run: the workload's observable behaviour
    // is bit-identical in all three configurations.
    let (_, on_outcome) = traced_crawl(seed, 4, 4);
    let fp = |o: &FetchOutcome| {
        (
            o.pages
                .iter()
                .map(|p| (p.page, p.attempts, p.kb.map(f64::to_bits)))
                .collect::<Vec<_>>(),
            o.failed_pages.clone(),
            [o.attempts_total, o.retries, o.transient_errors, o.timeouts, o.panics],
        )
    };
    assert_eq!(fp(&off_outcome), fp(&plain_outcome));
    assert_eq!(fp(&off_outcome), fp(&on_outcome));
}

#[test]
fn metrics_registry_matches_trace_and_stats() {
    faultsim::silence_injected_panics();
    let col = Collector::new();
    let h = col.handle();
    let rt = TaskRuntime::builder().workers(4).name("rt").trace(&h).build();
    let server = flaky_server(0xFACE, &h);
    let _ = try_fetch_all(&rt, &server, 4, &crawl_policy());
    // `try_fetch_all` returns when the joiners have their results, which
    // can be a beat before the workers finish their post-run bookkeeping
    // (`executed` and the outcome mark land after the result is posted).
    // Quiesce so every counter is final before sampling.
    rt.wait_quiescent();
    let stats = rt.stats();
    rt.shutdown();
    let counters = col.metrics().counter_values();
    assert_eq!(counters["rt.spawned"], stats.spawned);
    assert_eq!(counters["rt.executed"], stats.executed);
    assert_eq!(counters["rt.steals"], stats.steals);
    let trace = col.snapshot();
    let counts = trace.counts_by_name();
    assert_eq!(counts["task.spawn"], stats.spawned);
    assert_eq!(
        counts.get("sched.steal").copied().unwrap_or(0),
        stats.steals,
        "steal marks and the steal counter are written at the same site"
    );
}

#[test]
fn a_striped_counter_sums_exactly_when_threads_share_its_stripes() {
    // Three threads per stripe, so several threads add to each stripe
    // at once, wherever their slots fall.
    let threads = 3 * Counter::SHARDS as u64;
    let per_thread = 10_000_u64;
    let counter = Arc::new(Counter::new());
    let reg = MetricsRegistry::new();
    reg.register_counter("striped", &counter);
    // Thread `t` adds `t + 1` on every third step and one on the rest.
    let adds = per_thread.div_ceil(3);
    let expected: u64 = (1..=threads).map(|k| k * adds + (per_thread - adds)).sum();
    let finished = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (counter, finished) = (&counter, &finished);
            s.spawn(move || {
                for i in 0..per_thread {
                    if i % 3 == 0 {
                        counter.add(t + 1);
                    } else {
                        counter.inc();
                    }
                }
                finished.fetch_add(1, Ordering::Release);
            });
        }
        // While the adds race, every read is a lower bound that never
        // goes down.
        let mut last = 0;
        while finished.load(Ordering::Acquire) < threads as usize {
            let now = counter.get();
            assert!(last <= now && now <= expected, "read {now} after {last}");
            last = now;
        }
    });
    assert_eq!(counter.get(), expected);
    assert_eq!(reg.counter_values()["striped"], expected);
}
