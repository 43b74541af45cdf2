//! Graceful degradation: load shedding, breakers and a stale-metadata
//! cache layered over the fault-tolerant crawler.
//!
//! [`fetcher::try_fetch_all`](crate::fetcher::try_fetch_all) keeps
//! retrying until budgets run out — correct when faults are rare, but
//! under a storm it amplifies load exactly when the server can least
//! afford it. [`ResilientCrawler`] trades completeness for
//! predictability instead:
//!
//! * **Load shedding** — a page whose *predicted* cost
//!   (`model_duration_ms × latency_factor`) exceeds the phase's
//!   deadline budget is shed without touching the server; its
//!   [`ResilientPage::shed`] flag is set.
//! * **Per-connection breakers** — a [`Breaker`] per connection stops
//!   hammering a failing server; while it is open, pages are served
//!   degraded instead of retried.
//! * **Degraded serving** — every page the crawler cannot fetch fresh
//!   is answered from the epoch-stamped [`ResilientCrawler`] cache
//!   when possible, with an explicit staleness age; only uncached
//!   pages become unavailable.
//!
//! Determinism is preserved by *static partitioning*: connection `c`
//! owns pages `c, c + k, c + 2k, …` in ascending order, so breaker
//! state, retry seeds and cache contents are pure functions of the
//! seeds and the epoch — never of thread interleaving. Two crawls of
//! equal-seeded servers produce equal [`ResilientReport`]s on any
//! worker count (`tests/supervise.rs` pins this).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use faultsim::{Breaker, RetryPolicy};
use parc_util::rng::SplitMix64;
use parking_lot::Mutex;
use partask::TaskRuntime;

use crate::server::{RequestError, SimServer};

/// Knobs of the resilient crawl. `connections` is part of the
/// determinism contract: it fixes the page partition, so compare runs
/// only at equal connection counts (worker counts may differ freely).
#[derive(Clone, Debug)]
pub struct ResilientConfig {
    /// Parallel connections (also the page-partition stride).
    pub connections: usize,
    /// Per-page retry schedule for admitted requests.
    pub retry: RetryPolicy,
    /// Consecutive failures before a connection's breaker trips.
    pub breaker_threshold: u32,
    /// Denied calls before a tripped breaker half-opens.
    pub breaker_cooldown: u32,
    /// Successful probes required to close a half-open breaker.
    pub probe_successes: u32,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        Self {
            connections: 4,
            retry: RetryPolicy::fixed(Duration::from_millis(5)).with_max_attempts(3),
            breaker_threshold: 3,
            breaker_cooldown: 4,
            probe_successes: 2,
        }
    }
}

/// How one page was answered by a resilient crawl.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResilientPage {
    /// The page id.
    pub page: usize,
    /// Server attempts spent (0 when shed or breaker-denied).
    pub attempts: u32,
    /// Was the page shed by the deadline predictor?
    pub shed: bool,
    /// Was the page denied by an open breaker?
    pub breaker_denied: bool,
    /// Kilobytes served — fetched fresh this epoch, or from the cache
    /// when [`ResilientPage::stale_age`] is set. `None` = unanswered.
    pub kb: Option<f64>,
    /// Cache age in epochs, when served stale instead of fresh.
    pub stale_age: Option<u64>,
}

impl ResilientPage {
    /// Was the page answered at all (fresh or stale)?
    #[must_use]
    pub fn served(&self) -> bool {
        self.kb.is_some() || self.stale_age.is_some()
    }
}

/// Deterministic accounting of one resilient crawl (one epoch).
///
/// Contains no wall-clock fields, so equal-seeded runs compare equal
/// with `==` regardless of scheduling.
#[derive(Clone, Debug, PartialEq)]
pub struct ResilientReport {
    /// The crawl epoch this report describes (1-based).
    pub epoch: u64,
    /// Connections used (the partition stride).
    pub connections: usize,
    /// Per-page record, sorted by page id.
    pub pages: Vec<ResilientPage>,
    /// Pages fetched fresh this epoch.
    pub fresh: usize,
    /// Pages served from the stale cache.
    pub stale: usize,
    /// Pages shed by the deadline predictor (may still be stale-served).
    pub shed: usize,
    /// Pages denied by an open breaker (may still be stale-served).
    pub breaker_denied: usize,
    /// Pages neither fetched nor cached: the true losses.
    pub unavailable: usize,
    /// Server attempts across all pages.
    pub attempts_total: u64,
}

impl ResilientReport {
    /// Fraction of pages answered (fresh or stale), in `[0, 1]`.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.pages.is_empty() {
            return 1.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let served = (self.fresh + self.stale) as f64;
        #[allow(clippy::cast_precision_loss)]
        let total = self.pages.len() as f64;
        served / total
    }

    /// Mean cache age (in epochs) over stale-served pages; 0 when
    /// everything was fresh.
    #[must_use]
    pub fn staleness(&self) -> f64 {
        let ages: Vec<u64> = self.pages.iter().filter_map(|p| p.stale_age).collect();
        if ages.is_empty() {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let sum = ages.iter().sum::<u64>() as f64;
        #[allow(clippy::cast_precision_loss)]
        let n = ages.len() as f64;
        sum / n
    }
}

#[derive(Clone, Copy)]
struct Cached {
    kb: f64,
    epoch: u64,
}

/// A crawler that survives fault storms by degrading instead of
/// failing: shed, deny, or serve stale — but always account for every
/// page and always terminate.
///
/// The crawler is stateful across epochs: each [`ResilientCrawler::crawl`]
/// advances the epoch and refreshes the cache with whatever it fetched,
/// so a calm phase warms the cache that a later storm phase serves
/// stale from.
pub struct ResilientCrawler {
    cfg: ResilientConfig,
    cache: Arc<Mutex<HashMap<usize, Cached>>>,
    epoch: u64,
}

impl ResilientCrawler {
    /// A fresh crawler with an empty cache at epoch 0.
    #[must_use]
    pub fn new(cfg: ResilientConfig) -> Self {
        Self {
            cfg,
            cache: Arc::new(Mutex::new(HashMap::new())),
            epoch: 0,
        }
    }

    /// Epochs crawled so far.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Pages currently cached (for degraded serving).
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.cache.lock().len()
    }

    /// Crawl every page of `server` once, degrading under pressure.
    ///
    /// `latency_factor` is the crawler's estimate of storm-induced
    /// latency inflation and `shed_budget_ms` the per-request deadline
    /// budget: pages with `model_duration_ms(page, connections) ×
    /// latency_factor > shed_budget_ms` are shed analytically. Both
    /// typically come from the active [`faultsim::StormPhase`].
    pub fn crawl(
        &mut self,
        rt: &TaskRuntime,
        server: &Arc<SimServer>,
        latency_factor: f64,
        shed_budget_ms: f64,
    ) -> ResilientReport {
        self.epoch += 1;
        let epoch = self.epoch;
        let cfg = self.cfg.clone();
        let connections = cfg.connections.max(1);
        let page_count = server.page_count();
        let multi = rt.spawn_batch(connections, {
            let server = Arc::clone(server);
            let cache = Arc::clone(&self.cache);
            let cfg = cfg.clone();
            move |conn| {
                let breaker = Breaker::new(cfg.breaker_threshold, cfg.breaker_cooldown)
                    .with_probe_successes(cfg.probe_successes);
                let mut out = Vec::new();
                let mut page = conn;
                // Static partition: this connection owns every k-th
                // page, visited in ascending order — the breaker sees
                // a schedule-independent request stream.
                while page < page_count {
                    out.push(fetch_degradable(
                        &server,
                        &cache,
                        &breaker,
                        &cfg,
                        page,
                        epoch,
                        connections,
                        latency_factor,
                        shed_budget_ms,
                    ));
                    page += connections;
                }
                out
            }
        });
        // A lost connection task must fail the crawl: an empty page
        // list would read as full coverage.
        let mut pages: Vec<ResilientPage> = multi
            .join()
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .expect("connection tasks contain their panics and are never cancelled")
            .into_iter()
            .flatten()
            .collect();
        pages.sort_by_key(|p| p.page);
        let fresh = pages
            .iter()
            .filter(|p| p.kb.is_some() && p.stale_age.is_none())
            .count();
        let stale = pages.iter().filter(|p| p.stale_age.is_some()).count();
        let shed = pages.iter().filter(|p| p.shed).count();
        let breaker_denied = pages.iter().filter(|p| p.breaker_denied).count();
        let unavailable = pages.iter().filter(|p| !p.served()).count();
        let attempts_total = pages.iter().map(|p| u64::from(p.attempts)).sum();
        ResilientReport {
            epoch,
            connections,
            pages,
            fresh,
            stale,
            shed,
            breaker_denied,
            unavailable,
            attempts_total,
        }
    }
}

/// Fetch one page fresh unless it is shed or breaker-denied, else
/// answer degraded.
#[allow(clippy::too_many_arguments)]
fn fetch_degradable(
    server: &Arc<SimServer>,
    cache: &Arc<Mutex<HashMap<usize, Cached>>>,
    breaker: &Breaker,
    cfg: &ResilientConfig,
    page: usize,
    epoch: u64,
    connections: usize,
    latency_factor: f64,
    shed_budget_ms: f64,
) -> ResilientPage {
    // 1. Deadline-aware shedding: predicted cost under the storm's
    //    latency inflation, at this crawl's own concurrency. Analytic,
    //    so the shed set is identical on every rerun.
    let predicted_ms = server.model_duration_ms(page, connections) * latency_factor;
    if predicted_ms > shed_budget_ms {
        return degrade(cache, page, epoch, 0, true, false);
    }
    // 2. Breaker: while this connection's dependency view is open,
    //    serve degraded rather than pile on. The denial advances the
    //    cooldown, deterministically, because this connection's page
    //    stream is fixed.
    if !breaker.allow() {
        return degrade(cache, page, epoch, 0, false, true);
    }
    // 3. Admitted: retry under the policy, panics contained per
    //    attempt.
    let time_scale = server.config().time_scale;
    let page_seed =
        SplitMix64::mix(server.config().seed ^ (page as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let sleep_scaled = |d: Duration| {
        let sim_ms = d.as_secs_f64() * 1e3;
        std::thread::sleep(Duration::from_secs_f64(sim_ms * time_scale));
    };
    let result = cfg.retry.execute_with(page_seed, sleep_scaled, |attempt| {
        match catch_unwind(AssertUnwindSafe(|| server.try_request(page, attempt))) {
            Ok(Ok(kb)) => Ok(kb),
            Ok(Err(err)) => Err(err),
            Err(_panic) => Err(RequestError::Transient { page, attempt }),
        }
    });
    match result {
        Ok(done) => {
            breaker.record_success();
            cache.lock().insert(
                page,
                Cached {
                    kb: done.value,
                    epoch,
                },
            );
            ResilientPage {
                page,
                attempts: done.attempts,
                shed: false,
                breaker_denied: false,
                kb: Some(done.value),
                stale_age: None,
            }
        }
        Err(err) => {
            breaker.record_failure();
            degrade(cache, page, epoch, err.attempts(), false, false)
        }
    }
}

/// Answer `page` from the stale cache if possible.
fn degrade(
    cache: &Arc<Mutex<HashMap<usize, Cached>>>,
    page: usize,
    epoch: u64,
    attempts: u32,
    shed: bool,
    breaker_denied: bool,
) -> ResilientPage {
    let cached = cache.lock().get(&page).copied();
    ResilientPage {
        page,
        attempts,
        shed,
        breaker_denied,
        kb: cached.map(|c| c.kb),
        stale_age: cached.map(|c| epoch - c.epoch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use faultsim::{FaultInjector, FaultPlan, FaultStorm};

    fn quick_config(pages: usize) -> ServerConfig {
        ServerConfig {
            pages,
            time_scale: 2e-6,
            ..ServerConfig::default()
        }
    }

    fn reliable_server(pages: usize) -> Arc<SimServer> {
        Arc::new(SimServer::new(quick_config(pages)))
    }

    #[test]
    fn calm_crawl_is_all_fresh() {
        let rt = TaskRuntime::builder().workers(4).build();
        let mut crawler = ResilientCrawler::new(ResilientConfig::default());
        let server = reliable_server(30);
        let report = crawler.crawl(&rt, &server, 1.0, 1e9);
        assert_eq!(report.fresh, 30);
        assert_eq!(report.shed + report.breaker_denied + report.unavailable, 0);
        assert!((report.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(report.staleness(), 0.0);
        assert_eq!(crawler.cache_len(), 30);
        rt.shutdown();
    }

    #[test]
    fn tight_budget_sheds_and_serves_stale_from_warm_cache() {
        let rt = TaskRuntime::builder().workers(4).build();
        let mut crawler = ResilientCrawler::new(ResilientConfig::default());
        let server = reliable_server(30);
        // Epoch 1 warms the cache; epoch 2 inflates latency 100× with
        // a tight budget, shedding expensive pages.
        let calm = crawler.crawl(&rt, &server, 1.0, 1e9);
        assert_eq!(calm.fresh, 30);
        let stormy = crawler.crawl(&rt, &server, 100.0, 250.0);
        assert!(stormy.shed > 0, "100× inflation must shed something");
        // Every shed page is served stale (cache is fully warm).
        for p in stormy.pages.iter().filter(|p| p.shed) {
            assert_eq!(p.attempts, 0, "shed pages never hit the server");
            assert_eq!(p.stale_age, Some(1), "warm cache, one epoch old");
        }
        assert!(
            (stormy.coverage() - 1.0).abs() < 1e-12,
            "degraded, not lost"
        );
        assert!(stormy.staleness() > 0.0);
        rt.shutdown();
    }

    #[test]
    fn cold_cache_sheds_become_unavailable() {
        let rt = TaskRuntime::builder().workers(2).build();
        let mut crawler = ResilientCrawler::new(ResilientConfig::default());
        let server = reliable_server(20);
        let report = crawler.crawl(&rt, &server, 100.0, 250.0);
        assert!(report.shed > 0);
        assert_eq!(report.stale, 0, "nothing cached yet");
        assert_eq!(report.unavailable, report.shed);
        assert!(report.coverage() < 1.0);
        rt.shutdown();
    }

    #[test]
    fn breaker_opens_under_forced_failures_and_cache_covers() {
        let rt = TaskRuntime::builder().workers(4).build();
        // One connection so every page shares one breaker; pages 0..8
        // always fail, tripping it quickly.
        let cfg = ResilientConfig {
            connections: 1,
            breaker_threshold: 2,
            breaker_cooldown: 3,
            retry: RetryPolicy::fixed(Duration::from_millis(1)).with_max_attempts(2),
            ..ResilientConfig::default()
        };
        let mut crawler = ResilientCrawler::new(cfg);
        let mut plan = FaultPlan::reliable(9);
        for page in 0..8 {
            plan = plan.fail_key_n_times(page, 999);
        }
        let reliable = Arc::new(SimServer::new(quick_config(24)));
        let faulty = Arc::new(SimServer::with_faults(
            quick_config(24),
            FaultInjector::new(plan),
        ));
        let calm = crawler.crawl(&rt, &reliable, 1.0, 1e9);
        assert_eq!(calm.fresh, 24);
        let stormy = crawler.crawl(&rt, &faulty, 1.0, 1e9);
        assert!(stormy.breaker_denied > 0, "breaker must trip and deny");
        assert!(
            (stormy.coverage() - 1.0).abs() < 1e-12,
            "cache covers denials"
        );
        assert!(stormy.fresh > 0, "pages past the faulty prefix recover");
        rt.shutdown();
    }

    #[test]
    fn reports_are_deterministic_across_worker_counts() {
        let storm = FaultStorm::brownout(0xABCD);
        let mut reports = Vec::new();
        for workers in [2usize, 6] {
            let rt = TaskRuntime::builder().workers(workers).build();
            let mut crawler = ResilientCrawler::new(ResilientConfig::default());
            let mut per_phase = Vec::new();
            for phase in &storm.phases {
                let server = Arc::new(SimServer::with_faults(
                    quick_config(40),
                    FaultInjector::new(phase.plan.clone()),
                ));
                per_phase.push(crawler.crawl(
                    &rt,
                    &server,
                    phase.latency_factor,
                    phase.shed_budget_ms,
                ));
            }
            reports.push(per_phase);
            rt.shutdown();
        }
        assert_eq!(reports[0], reports[1], "worker count leaked into outcomes");
    }
}
