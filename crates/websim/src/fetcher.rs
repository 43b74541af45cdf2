//! The concurrent page fetcher and the connection-count sweep.
//!
//! Two entry points: [`fetch_all`] is the original project-10 code
//! path (no faults expected, panics impossible by construction), and
//! [`try_fetch_all`] is the fault-tolerant crawler — per-page retries
//! under a [`RetryPolicy`], injected panics contained per attempt, and
//! a [`FetchOutcome`] recording exactly what happened to every page.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use faultsim::{RetryError, RetryPolicy};
use parc_trace::{FetchTag, MarkKind, SpanKind};
use parc_util::rng::SplitMix64;
use partask::TaskRuntime;

use crate::server::{RequestError, SimServer};

/// Result of downloading a page set.
#[derive(Clone, Debug)]
pub struct FetchReport {
    /// Number of pages fetched.
    pub pages: usize,
    /// Connection-pool size used.
    pub connections: usize,
    /// Wall-clock time of the whole download.
    pub elapsed: std::time::Duration,
    /// Total kilobytes transferred.
    pub total_kb: f64,
}

impl FetchReport {
    /// Achieved throughput in KB per wall-clock second.
    #[must_use]
    pub fn kb_per_sec(&self) -> f64 {
        self.total_kb / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// What happened to one page during a fault-tolerant crawl.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PageOutcome {
    /// The page id.
    pub page: usize,
    /// Attempts spent on it (including the successful one, if any).
    pub attempts: u32,
    /// Kilobytes transferred, or `None` if the page permanently
    /// failed (attempts/deadline exhausted).
    pub kb: Option<f64>,
    /// Attempts on this page that failed with a transient error.
    pub transient_errors: u32,
    /// Attempts on this page that failed by timeout.
    pub timeouts: u32,
    /// Attempts on this page that failed by injected panic.
    pub panics: u32,
}

/// Full accounting of a [`try_fetch_all`] crawl.
///
/// With a deterministic fault plan this is reproducible: per-page
/// attempt counts, retry totals and the failed-page set are identical
/// across reruns with the same seeds, regardless of how connection
/// threads interleave (`tests/chaos.rs` asserts this bit-for-bit).
#[derive(Clone, Debug)]
pub struct FetchOutcome {
    /// Wall-time/throughput summary (`total_kb` counts successes only).
    pub report: FetchReport,
    /// Per-page record, sorted by page id.
    pub pages: Vec<PageOutcome>,
    /// Pages fetched successfully.
    pub succeeded: usize,
    /// Pages that exhausted their retry budget, sorted.
    pub failed_pages: Vec<usize>,
    /// Total attempts across all pages.
    pub attempts_total: u64,
    /// Attempts beyond each page's first (the retry overhead).
    pub retries: u64,
    /// Attempts that failed with a transient error. Derived from the
    /// per-page records, like every other aggregate here.
    pub transient_errors: u64,
    /// Attempts that failed by timeout.
    pub timeouts: u64,
    /// Attempts that failed by injected panic (contained per attempt).
    pub panics: u64,
    /// True only if the crawl was torn down externally (runtime
    /// cancellation) before accounting completed.
    pub aborted: bool,
}

impl FetchOutcome {
    /// Did every page come back?
    #[must_use]
    pub fn fully_succeeded(&self) -> bool {
        !self.aborted && self.failed_pages.is_empty()
    }
}

/// One attempt's failure, as seen by the retry loop.
enum AttemptError {
    Transient,
    Timeout,
    Panicked,
}

/// Download every page of `server` using `connections` parallel
/// connections. Each connection is one multi-task instance pulling
/// page ids from a shared work counter — the Parallel Task phrasing
/// of a download pool.
///
/// This is the original, fault-oblivious entry point, now a thin
/// wrapper over [`try_fetch_all`] with a single-attempt policy: on a
/// fault-free server it behaves exactly as before, and a faulty page
/// degrades the report instead of panicking the joining task.
#[must_use]
pub fn fetch_all(rt: &TaskRuntime, server: &Arc<SimServer>, connections: usize) -> FetchReport {
    let once = RetryPolicy::fixed(Duration::ZERO).with_max_attempts(1);
    try_fetch_all(rt, server, connections, &once).report
}

/// Download every page of `server` with `connections` parallel
/// connections, retrying each page under `policy`.
///
/// Resilience guarantees:
/// * every attempt (including its injected-panic outcome) is contained
///   to that attempt — a panic is caught, counted, and retried like
///   any other failure;
/// * a page that exhausts `policy` is recorded in
///   [`FetchOutcome::failed_pages`] rather than failing the crawl;
/// * backoff delays are interpreted as *simulated* milliseconds and
///   slept at the server's `time_scale`, with deterministic per-page
///   jitter seeds.
#[must_use]
pub fn try_fetch_all(
    rt: &TaskRuntime,
    server: &Arc<SimServer>,
    connections: usize,
    policy: &RetryPolicy,
) -> FetchOutcome {
    let connections = connections.max(1);
    let page_count = server.page_count();
    let next = Arc::new(AtomicUsize::new(0));
    let policy = *policy;
    let time_scale = server.config().time_scale;
    let seed = server.config().seed;
    let start = Instant::now();
    let crawl_span = server.trace.span(
        server.pid,
        SpanKind::Crawl {
            pages: page_count as u32,
        },
    );
    let multi = rt.spawn_batch(connections, {
        let server = Arc::clone(server);
        let next = Arc::clone(&next);
        move |_conn| {
            let mut pages = Vec::new();
            loop {
                let page = next.fetch_add(1, Ordering::Relaxed);
                if page >= page_count {
                    break;
                }
                fetch_one(&server, page, &policy, seed, time_scale, &mut pages);
            }
            pages
        }
    });
    let (mut pages, aborted) = match multi.join().into_iter().collect::<Result<Vec<_>, _>>() {
        Ok(parts) => (parts.into_iter().flatten().collect::<Vec<_>>(), false),
        // Only reachable if the runtime is cancelled externally:
        // connection bodies contain their own panics.
        Err(_) => (Vec::new(), true),
    };
    drop(crawl_span);
    pages.sort_by_key(|p| p.page);
    // Every aggregate below is derived from the per-page records —
    // there is exactly one source of truth for the tallies
    // (`fetcher::tests::aggregates_derive_from_page_records` pins the
    // cross-field identities).
    let failed_pages: Vec<usize> = pages
        .iter()
        .filter(|p| p.kb.is_none())
        .map(|p| p.page)
        .collect();
    let succeeded = pages.len() - failed_pages.len();
    let attempts_total: u64 = pages.iter().map(|p| u64::from(p.attempts)).sum();
    let retries = attempts_total - pages.len() as u64;
    let total_kb: f64 = pages.iter().filter_map(|p| p.kb).sum();
    let transient_errors: u64 = pages.iter().map(|p| u64::from(p.transient_errors)).sum();
    let timeouts: u64 = pages.iter().map(|p| u64::from(p.timeouts)).sum();
    let panics: u64 = pages.iter().map(|p| u64::from(p.panics)).sum();
    FetchOutcome {
        report: FetchReport {
            pages: page_count,
            connections,
            elapsed: start.elapsed(),
            total_kb,
        },
        pages,
        succeeded,
        failed_pages,
        attempts_total,
        retries,
        transient_errors,
        timeouts,
        panics,
        aborted,
    }
}

/// Fetch one page to completion or retry exhaustion, pushing its
/// [`PageOutcome`] (with per-page failure tallies) onto `out`.
fn fetch_one(
    server: &Arc<SimServer>,
    page: usize,
    policy: &RetryPolicy,
    seed: u64,
    time_scale: f64,
    out: &mut Vec<PageOutcome>,
) {
    let page_seed = SplitMix64::mix(seed ^ (page as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let sleep_scaled = |d: Duration| {
        // Policy delays are simulated milliseconds; convert to wall
        // time the same way the server scales its own sleeps.
        let sim_ms = d.as_secs_f64() * 1e3;
        std::thread::sleep(Duration::from_secs_f64(sim_ms * time_scale));
    };
    let mut transient_errors = 0u32;
    let mut timeouts = 0u32;
    let mut panics = 0u32;
    let result = policy.execute_with(page_seed, sleep_scaled, |attempt| {
        let _span = server.trace.span(
            server.pid,
            SpanKind::FetchAttempt {
                page: page as u32,
                attempt,
            },
        );
        let (outcome, tag) =
            match catch_unwind(AssertUnwindSafe(|| server.try_request(page, attempt))) {
                Ok(Ok(kb)) => (Ok(kb), FetchTag::Ok),
                Ok(Err(RequestError::Transient { .. })) => {
                    transient_errors += 1;
                    (Err(AttemptError::Transient), FetchTag::Transient)
                }
                Ok(Err(RequestError::TimedOut { .. })) => {
                    timeouts += 1;
                    (Err(AttemptError::Timeout), FetchTag::TimedOut)
                }
                Err(_panic_payload) => {
                    panics += 1;
                    (Err(AttemptError::Panicked), FetchTag::Panicked)
                }
            };
        server.trace.mark(
            server.pid,
            MarkKind::FetchResult {
                page: page as u32,
                attempt,
                result: tag,
            },
        );
        outcome
    });
    out.push(match result {
        Ok(done) => PageOutcome {
            page,
            attempts: done.attempts,
            kb: Some(done.value),
            transient_errors,
            timeouts,
            panics,
        },
        Err(err @ (RetryError::Exhausted { .. } | RetryError::DeadlineExceeded { .. })) => {
            PageOutcome {
                page,
                attempts: err.attempts(),
                kb: None,
                transient_errors,
                timeouts,
                panics,
            }
        }
    });
}

/// One point of the connection sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Pool size.
    pub connections: usize,
    /// Measured wall time in milliseconds.
    pub wall_ms: f64,
    /// Analytic model prediction in *simulated* milliseconds.
    pub predicted_sim_ms: f64,
}

/// Measure the download time for each pool size in `sizes`. Also
/// returns the analytic prediction so the E10 report can show the
/// model curve next to the measured one.
///
/// The runtime must have at least `max(sizes)` workers — connections
/// spend their life sleeping in the simulator, so a worker per
/// connection is cheap and keeps the measured concurrency equal to
/// the nominal pool size.
#[must_use]
pub fn sweep_connections(
    rt: &TaskRuntime,
    server: &Arc<SimServer>,
    sizes: &[usize],
) -> Vec<SweepPoint> {
    let max_k = sizes.iter().copied().max().unwrap_or(1);
    assert!(
        rt.workers() >= max_k,
        "sweep needs >= {max_k} workers so every connection can run concurrently"
    );
    sizes
        .iter()
        .map(|&k| {
            let report = fetch_all(rt, server, k);
            SweepPoint {
                connections: k,
                wall_ms: report.elapsed.as_secs_f64() * 1e3,
                predicted_sim_ms: predict_fetch_sim_ms(server, k),
            }
        })
        .collect()
}

/// Analytic prediction of the total download time (simulated ms) with
/// `k` connections: pages are served in waves of `k`, each page
/// costing the model duration at concurrency `k`; the makespan is the
/// total work divided by `k` (fluid approximation).
#[must_use]
pub fn predict_fetch_sim_ms(server: &Arc<SimServer>, k: usize) -> f64 {
    let k = k.max(1);
    let total: f64 = (0..server.page_count())
        .map(|p| server.model_duration_ms(p, k))
        .sum();
    total / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;

    fn quick_server(pages: usize) -> Arc<SimServer> {
        Arc::new(SimServer::new(ServerConfig {
            pages,
            time_scale: 2e-6, // 2 µs per simulated ms: fast tests
            ..ServerConfig::default()
        }))
    }

    #[test]
    fn fetch_all_downloads_every_page_once() {
        let rt = TaskRuntime::builder().workers(4).build();
        let server = quick_server(40);
        let report = fetch_all(&rt, &server, 8);
        assert_eq!(report.pages, 40);
        assert_eq!(server.requests_served(), 40);
        let expected_kb: f64 = (0..40).map(|i| server.page(i).size_kb).sum();
        assert!((report.total_kb - expected_kb).abs() < 1e-9);
        assert!(report.kb_per_sec() > 0.0);
        rt.shutdown();
    }

    #[test]
    fn single_connection_is_serial() {
        let rt = TaskRuntime::builder().workers(2).build();
        let server = quick_server(10);
        let report = fetch_all(&rt, &server, 1);
        assert_eq!(report.connections, 1);
        assert_eq!(server.requests_served(), 10);
        rt.shutdown();
    }

    #[test]
    fn zero_connections_clamped() {
        let rt = TaskRuntime::builder().workers(1).build();
        let server = quick_server(4);
        let report = fetch_all(&rt, &server, 0);
        assert_eq!(report.connections, 1);
        rt.shutdown();
    }

    #[test]
    fn try_fetch_all_retries_through_transient_faults() {
        use faultsim::{FaultInjector, FaultPlan};
        let rt = TaskRuntime::builder().workers(4).build();
        let server = Arc::new(SimServer::with_faults(
            ServerConfig {
                pages: 30,
                time_scale: 2e-6,
                ..ServerConfig::default()
            },
            FaultInjector::new(
                FaultPlan::reliable(11)
                    .with_error_rate(0.3)
                    .fail_key_n_times(7, 2),
            ),
        ));
        let policy = RetryPolicy::fixed(Duration::from_millis(1)).with_max_attempts(6);
        let out = try_fetch_all(&rt, &server, 6, &policy);
        assert!(
            out.fully_succeeded(),
            "failed pages: {:?}",
            out.failed_pages
        );
        assert_eq!(out.succeeded, 30);
        assert!(out.retries > 0, "plan must have forced at least one retry");
        assert!(out.transient_errors > 0);
        let page7 = out.pages.iter().find(|p| p.page == 7).unwrap();
        assert!(page7.attempts >= 3, "page 7 fails twice before recovering");
        let expected_kb: f64 = (0..30).map(|i| server.page(i).size_kb).sum();
        assert!((out.report.total_kb - expected_kb).abs() < 1e-9);
        rt.shutdown();
    }

    #[test]
    fn exhausted_pages_degrade_instead_of_panicking() {
        use faultsim::{FaultInjector, FaultPlan};
        let rt = TaskRuntime::builder().workers(2).build();
        let server = Arc::new(SimServer::with_faults(
            ServerConfig {
                pages: 10,
                time_scale: 2e-6,
                ..ServerConfig::default()
            },
            FaultInjector::new(FaultPlan::reliable(3).fail_key_n_times(4, 99)),
        ));
        let policy = RetryPolicy::fixed(Duration::from_millis(1)).with_max_attempts(3);
        let out = try_fetch_all(&rt, &server, 4, &policy);
        assert_eq!(out.failed_pages, vec![4]);
        assert_eq!(out.succeeded, 9);
        let page4 = out.pages.iter().find(|p| p.page == 4).unwrap();
        assert_eq!(page4.attempts, 3);
        assert_eq!(page4.kb, None);
        // The old code path also no longer panics on a faulty server.
        let report = fetch_all(&rt, &server, 4);
        assert_eq!(report.pages, 10);
        rt.shutdown();
    }

    #[test]
    fn injected_panics_are_contained_and_retried() {
        use faultsim::{FaultInjector, FaultPlan};
        let rt = TaskRuntime::builder().workers(4).build();
        let server = Arc::new(SimServer::with_faults(
            ServerConfig {
                pages: 40,
                time_scale: 2e-6,
                ..ServerConfig::default()
            },
            FaultInjector::new(FaultPlan::reliable(23).with_panic_rate(0.15)),
        ));
        let policy = RetryPolicy::fixed(Duration::from_millis(1)).with_max_attempts(8);
        let out = try_fetch_all(&rt, &server, 6, &policy);
        assert!(out.panics > 0, "panic rate 0.15 over 40 pages must fire");
        assert!(
            out.fully_succeeded(),
            "failed pages: {:?}",
            out.failed_pages
        );
        rt.shutdown();
    }

    #[test]
    fn aggregates_derive_from_page_records() {
        // Regression guard for the old double-bookkeeping bug: the
        // outcome's totals were once tallied separately from the
        // per-page records and could drift. Now the per-page records
        // are the single source of truth; pin every identity.
        use faultsim::{FaultInjector, FaultPlan};
        let rt = TaskRuntime::builder().workers(4).build();
        let server = Arc::new(SimServer::with_faults(
            ServerConfig {
                pages: 25,
                time_scale: 2e-6,
                ..ServerConfig::default()
            },
            FaultInjector::new(
                FaultPlan::reliable(17)
                    .with_error_rate(0.25)
                    .with_timeout_rate(0.1)
                    .with_panic_rate(0.1)
                    .fail_key_n_times(3, 99),
            ),
        ));
        let policy = RetryPolicy::fixed(Duration::from_millis(1)).with_max_attempts(4);
        let out = try_fetch_all(&rt, &server, 5, &policy);
        assert_eq!(out.pages.len(), 25, "one record per page");
        let attempts: u64 = out.pages.iter().map(|p| u64::from(p.attempts)).sum();
        assert_eq!(out.attempts_total, attempts);
        assert_eq!(out.retries, attempts - 25);
        assert_eq!(
            out.transient_errors,
            out.pages
                .iter()
                .map(|p| u64::from(p.transient_errors))
                .sum::<u64>()
        );
        assert_eq!(
            out.timeouts,
            out.pages.iter().map(|p| u64::from(p.timeouts)).sum::<u64>()
        );
        assert_eq!(
            out.panics,
            out.pages.iter().map(|p| u64::from(p.panics)).sum::<u64>()
        );
        assert_eq!(
            out.succeeded,
            out.pages.iter().filter(|p| p.kb.is_some()).count()
        );
        assert_eq!(
            out.failed_pages,
            out.pages
                .iter()
                .filter(|p| p.kb.is_none())
                .map(|p| p.page)
                .collect::<Vec<_>>()
        );
        // Per page, attempts account for every failure plus at most
        // one success.
        for p in &out.pages {
            let failures = p.transient_errors + p.timeouts + p.panics;
            let successes = u32::from(p.kb.is_some());
            assert_eq!(p.attempts, failures + successes, "page {}", p.page);
        }
        rt.shutdown();
    }

    #[test]
    fn prediction_has_interior_optimum() {
        // The analytic curve must fall from k=1, reach a minimum at a
        // moderate k, and rise again past the server's limit — the
        // paper project's research answer.
        let server = quick_server(100);
        let ks = [1usize, 2, 4, 8, 16, 24, 48, 96];
        let curve: Vec<f64> = ks
            .iter()
            .map(|&k| predict_fetch_sim_ms(&server, k))
            .collect();
        let best = curve
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(curve[0] > curve[best] * 2.0, "k=1 must be much slower");
        assert!(best > 0 && best < ks.len() - 1, "optimum must be interior");
        assert!(
            curve[ks.len() - 1] > curve[best],
            "over-subscription must hurt"
        );
    }

    #[test]
    fn measured_sweep_tracks_model_shape() {
        let rt = TaskRuntime::builder().workers(8).build();
        let server = quick_server(60);
        let points = sweep_connections(&rt, &server, &[1, 8]);
        assert_eq!(points.len(), 2);
        // Wall time with 8 connections must beat 1 connection by a
        // clear margin (sleeps overlap even on one CPU).
        assert!(
            points[1].wall_ms < points[0].wall_ms * 0.6,
            "k=8 {} ms vs k=1 {} ms",
            points[1].wall_ms,
            points[0].wall_ms
        );
        rt.shutdown();
    }
}
