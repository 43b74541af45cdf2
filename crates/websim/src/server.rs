//! The deterministic simulated web server.
//!
//! Each page has a fixed round-trip latency and size drawn from a
//! seeded PRNG. A request costs
//!
//! ```text
//! rtt + size / (bandwidth / active_connections) [+ queue penalty]
//! ```
//!
//! where `active_connections` is sampled when the transfer starts —
//! a simple fluid model of a shared access link. Requests beyond
//! `max_concurrent` pay an additional queueing penalty per excess
//! connection. All durations are in *simulated milliseconds*,
//! executed as real sleeps scaled by `time_scale`.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use faultsim::{Fault, FaultInjector};
use parc_trace::{FaultTag, MarkKind, TraceHandle};
use parc_util::rng::{SplitMix64, Xoshiro256};

/// Static properties of one simulated page.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PageMeta {
    /// Round-trip latency in simulated ms.
    pub rtt_ms: f64,
    /// Page size in kilobytes.
    pub size_kb: f64,
}

/// Server model parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Number of distinct pages served.
    pub pages: usize,
    /// Latency range (simulated ms).
    pub rtt_range: (f64, f64),
    /// Page-size range (KB).
    pub size_range: (f64, f64),
    /// Shared downstream bandwidth in KB per simulated ms.
    pub bandwidth_kb_per_ms: f64,
    /// Connections beyond this pay a queue penalty.
    pub max_concurrent: usize,
    /// Queue penalty per excess connection (simulated ms).
    pub queue_penalty_ms: f64,
    /// Real-time seconds per simulated millisecond (e.g. `1e-5` =
    /// 10 µs of wall time per simulated ms).
    pub time_scale: f64,
    /// Seed for page properties.
    pub seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            pages: 200,
            rtt_range: (20.0, 120.0),
            size_range: (10.0, 200.0),
            bandwidth_kb_per_ms: 50.0,
            max_concurrent: 24,
            queue_penalty_ms: 15.0,
            time_scale: 2e-5,
            seed: 0x7EB,
        }
    }
}

/// Why a [`SimServer::try_request`] attempt failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// A retryable connection-level failure (reset, 5xx, ...).
    Transient {
        /// The page requested.
        page: usize,
        /// The 1-based attempt that failed.
        attempt: u32,
    },
    /// The transfer exceeded its time budget and was abandoned.
    TimedOut {
        /// The page requested.
        page: usize,
        /// The 1-based attempt that failed.
        attempt: u32,
    },
}

impl RequestError {
    /// The page the failed attempt was for.
    #[must_use]
    pub fn page(&self) -> usize {
        match self {
            RequestError::Transient { page, .. } | RequestError::TimedOut { page, .. } => *page,
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Transient { page, attempt } => {
                write!(
                    f,
                    "transient error fetching page {page} (attempt {attempt})"
                )
            }
            RequestError::TimedOut { page, attempt } => {
                write!(f, "timeout fetching page {page} (attempt {attempt})")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// The simulated server. Thread-safe; any number of client threads
/// may call [`SimServer::request`] concurrently.
///
/// A server built with [`SimServer::with_faults`] consults its
/// [`FaultInjector`] on every [`SimServer::try_request`]: since each
/// decision is a pure function of `(plan seed, page, attempt)`, the
/// set of injected failures is identical across reruns no matter how
/// client threads interleave. The legacy [`SimServer::request`] path
/// never fails and ignores the injector.
pub struct SimServer {
    config: ServerConfig,
    pages: Vec<PageMeta>,
    injector: Option<FaultInjector>,
    pub(crate) trace: TraceHandle,
    pub(crate) pid: u32,
    active: AtomicUsize,
    requests_served: AtomicU64,
    faults_injected: AtomicU64,
    /// Total simulated milliseconds charged across all requests.
    sim_ms_total: AtomicU64,
}

impl SimServer {
    /// Build a server; page properties are deterministic per seed.
    #[must_use]
    pub fn new(config: ServerConfig) -> Self {
        Self::build(config, None)
    }

    /// Build a server whose [`SimServer::try_request`] fails according
    /// to `injector`'s plan.
    #[must_use]
    pub fn with_faults(config: ServerConfig, injector: FaultInjector) -> Self {
        Self::build(config, Some(injector))
    }

    fn build(config: ServerConfig, injector: Option<FaultInjector>) -> Self {
        let mut rng = Xoshiro256::seed_from_u64(config.seed);
        let pages = (0..config.pages)
            .map(|_| PageMeta {
                rtt_ms: rng.gen_range_f64(config.rtt_range.0..config.rtt_range.1),
                size_kb: rng.gen_range_f64(config.size_range.0..config.size_range.1),
            })
            .collect();
        Self {
            config,
            pages,
            injector,
            trace: TraceHandle::default(),
            pid: 0,
            active: AtomicUsize::new(0),
            requests_served: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            sim_ms_total: AtomicU64::new(0),
        }
    }

    /// Record this server's activity (injected faults, and the fetch
    /// attempts/crawls made by [`crate::fetcher`]) through `trace` on a
    /// track named `"websim"`.
    #[must_use]
    pub fn with_trace(mut self, trace: &TraceHandle) -> Self {
        self.pid = trace.register_track("websim");
        self.trace = trace.clone();
        self
    }

    /// Number of pages served.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Metadata of page `id`.
    #[must_use]
    pub fn page(&self, id: usize) -> PageMeta {
        self.pages[id]
    }

    /// The simulated duration a request for `page` costs at a given
    /// concurrency level (the analytic model, used by tests and by
    /// [`crate::fetcher::predict_fetch_sim_ms`]).
    #[must_use]
    pub fn model_duration_ms(&self, page: usize, active: usize) -> f64 {
        let meta = self.pages[page];
        let active = active.max(1);
        let share = self.config.bandwidth_kb_per_ms / active as f64;
        let mut ms = meta.rtt_ms + meta.size_kb / share;
        if active > self.config.max_concurrent {
            ms += (active - self.config.max_concurrent) as f64 * self.config.queue_penalty_ms;
        }
        ms
    }

    /// Perform the request: blocks (sleeps) for the simulated
    /// duration and returns the page's size in KB. A small seeded
    /// jitter (±5 %) keeps runs realistic yet deterministic per
    /// (page, request-count) pair. Never fails — fault injection
    /// applies only to [`SimServer::try_request`].
    pub fn request(&self, page: usize) -> f64 {
        self.perform(page, 0.0)
    }

    /// Perform one attempt at fetching `page`, subject to the server's
    /// fault plan. `attempt` is 1-based and is part of the fault
    /// decision, so a page can fail its first attempts and then
    /// recover. Failed attempts still cost simulated time: a transient
    /// error burns the round trip, a timeout burns the whole transfer
    /// budget before giving up.
    ///
    /// # Panics
    /// If the fault plan schedules [`Fault::Panic`] for this attempt —
    /// that is the injector doing its job (exercising callers'
    /// panic-safety), not a bug.
    pub fn try_request(&self, page: usize, attempt: u32) -> Result<f64, RequestError> {
        let fault = self
            .injector
            .as_ref()
            .map_or(Fault::None, |inj| inj.decide(page as u64, attempt));
        if fault != Fault::None {
            self.faults_injected.fetch_add(1, Ordering::Relaxed);
            if let Some(tag) = fault_tag(fault) {
                self.trace.mark(
                    self.pid,
                    MarkKind::FaultInjected {
                        key: page as u64,
                        attempt,
                        fault: tag,
                    },
                );
            }
        }
        match fault {
            Fault::None => Ok(self.perform(page, 0.0)),
            Fault::LatencySpike { extra_ms } => Ok(self.perform(page, extra_ms)),
            Fault::TransientError => {
                // Connection died early: pay the round trip only.
                self.charge_and_sleep(self.pages[page].rtt_ms);
                self.requests_served.fetch_add(1, Ordering::Relaxed);
                Err(RequestError::Transient { page, attempt })
            }
            Fault::Timeout => {
                // Client waited the full transfer before giving up.
                let active = self.active.load(Ordering::SeqCst).max(1);
                self.charge_and_sleep(self.model_duration_ms(page, active));
                self.requests_served.fetch_add(1, Ordering::Relaxed);
                Err(RequestError::TimedOut { page, attempt })
            }
            Fault::Panic => {
                panic!(
                    "{} fetching page {page} (attempt {attempt})",
                    faultsim::INJECTED_PANIC_PREFIX
                )
            }
        }
    }

    fn perform(&self, page: usize, extra_ms: f64) -> f64 {
        let active = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        let serial = self.requests_served.fetch_add(1, Ordering::Relaxed);
        let base_ms = self.model_duration_ms(page, active);
        let jitter = {
            let h = SplitMix64::mix((page as u64) << 32 | (serial & 0xFFFF));
            0.95 + 0.10 * (h as f64 / u64::MAX as f64)
        };
        let ms = base_ms * jitter + extra_ms;
        self.sim_ms_total.fetch_add(ms as u64, Ordering::Relaxed);
        std::thread::sleep(Duration::from_secs_f64(ms * self.config.time_scale));
        self.active.fetch_sub(1, Ordering::SeqCst);
        self.pages[page].size_kb
    }

    /// Account `ms` of simulated time and sleep it at the configured
    /// scale (used by failure paths that hold no connection slot).
    fn charge_and_sleep(&self, ms: f64) {
        self.sim_ms_total.fetch_add(ms as u64, Ordering::Relaxed);
        std::thread::sleep(Duration::from_secs_f64(ms * self.config.time_scale));
    }

    /// Requests served so far (successful and failed attempts alike).
    #[must_use]
    pub fn requests_served(&self) -> u64 {
        self.requests_served.load(Ordering::Relaxed)
    }

    /// Faults injected so far (any non-`None` decision).
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::Relaxed)
    }

    /// The fault injector, if this server was built with one.
    #[must_use]
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Total simulated milliseconds charged so far.
    #[must_use]
    pub fn sim_ms_total(&self) -> u64 {
        self.sim_ms_total.load(Ordering::Relaxed)
    }

    /// Current concurrent request count.
    #[must_use]
    pub fn active_now(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }
}

/// The trace tag for an injected fault (`None` carries no tag).
fn fault_tag(fault: Fault) -> Option<FaultTag> {
    match fault {
        Fault::None => None,
        Fault::TransientError => Some(FaultTag::Transient),
        Fault::Timeout => Some(FaultTag::Timeout),
        Fault::Panic => Some(FaultTag::Panic),
        Fault::LatencySpike { .. } => Some(FaultTag::LatencySpike),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> ServerConfig {
        ServerConfig {
            pages: 20,
            time_scale: 1e-6,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn pages_deterministic_per_seed() {
        let a = SimServer::new(fast_config());
        let b = SimServer::new(fast_config());
        for i in 0..a.page_count() {
            assert_eq!(a.page(i), b.page(i));
        }
    }

    #[test]
    fn page_properties_within_ranges() {
        let server = SimServer::new(fast_config());
        let cfg = server.config();
        for i in 0..server.page_count() {
            let p = server.page(i);
            assert!(p.rtt_ms >= cfg.rtt_range.0 && p.rtt_ms < cfg.rtt_range.1);
            assert!(p.size_kb >= cfg.size_range.0 && p.size_kb < cfg.size_range.1);
        }
    }

    #[test]
    fn model_duration_grows_with_concurrency() {
        let server = SimServer::new(fast_config());
        let d1 = server.model_duration_ms(0, 1);
        let d8 = server.model_duration_ms(0, 8);
        let d100 = server.model_duration_ms(0, 100);
        assert!(d8 > d1, "shared bandwidth must slow transfers");
        assert!(d100 > d8 + 50.0, "queue penalty must kick in past the cap");
    }

    #[test]
    fn request_returns_size_and_counts() {
        let server = SimServer::new(fast_config());
        let size = server.request(3);
        assert_eq!(size, server.page(3).size_kb);
        assert_eq!(server.requests_served(), 1);
        assert!(server.sim_ms_total() > 0);
        assert_eq!(server.active_now(), 0);
    }

    #[test]
    fn try_request_without_injector_never_fails() {
        let server = SimServer::new(fast_config());
        for page in 0..5 {
            for attempt in 1..4 {
                assert!(server.try_request(page, attempt).is_ok());
            }
        }
        assert_eq!(server.faults_injected(), 0);
    }

    #[test]
    fn fail_n_then_recover_is_visible_to_clients() {
        use faultsim::{FaultInjector, FaultPlan};
        let server = SimServer::with_faults(
            fast_config(),
            FaultInjector::new(FaultPlan::reliable(5).fail_key_n_times(2, 2)),
        );
        assert_eq!(
            server.try_request(2, 1),
            Err(RequestError::Transient {
                page: 2,
                attempt: 1
            })
        );
        assert_eq!(
            server.try_request(2, 2),
            Err(RequestError::Transient {
                page: 2,
                attempt: 2
            })
        );
        assert!(server.try_request(2, 3).is_ok());
        assert!(server.try_request(3, 1).is_ok());
        assert_eq!(server.faults_injected(), 2);
    }

    #[test]
    fn injected_failures_are_deterministic_across_servers() {
        use faultsim::{FaultInjector, FaultPlan};
        let plan = FaultPlan::reliable(77)
            .with_error_rate(0.3)
            .with_timeout_rate(0.1);
        let a = SimServer::with_faults(fast_config(), FaultInjector::new(plan.clone()));
        let b = SimServer::with_faults(fast_config(), FaultInjector::new(plan));
        for page in 0..a.page_count() {
            for attempt in 1..3 {
                assert_eq!(
                    a.try_request(page, attempt).is_ok(),
                    b.try_request(page, attempt).is_ok(),
                    "page {page} attempt {attempt} diverged"
                );
            }
        }
        assert_eq!(a.faults_injected(), b.faults_injected());
    }

    #[test]
    fn injected_faults_emit_trace_marks() {
        use faultsim::{FaultInjector, FaultPlan};
        let col = parc_trace::Collector::new();
        let server = SimServer::with_faults(
            fast_config(),
            FaultInjector::new(FaultPlan::reliable(5).fail_key_n_times(2, 2)),
        )
        .with_trace(&col.handle());
        assert!(server.try_request(2, 1).is_err());
        assert!(server.try_request(2, 2).is_err());
        assert!(server.try_request(2, 3).is_ok());
        let trace = col.snapshot();
        assert_eq!(trace.counts_by_name()["fault.injected"], 2);
        assert_eq!(server.faults_injected(), 2);
    }

    #[test]
    fn concurrent_requests_tracked() {
        let server = std::sync::Arc::new(SimServer::new(ServerConfig {
            pages: 4,
            time_scale: 2e-4, // long enough to overlap
            ..ServerConfig::default()
        }));
        let mut joins = Vec::new();
        for i in 0..4 {
            let s = std::sync::Arc::clone(&server);
            joins.push(std::thread::spawn(move || s.request(i)));
        }
        for j in joins {
            let _ = j.join().unwrap();
        }
        assert_eq!(server.requests_served(), 4);
        assert_eq!(server.active_now(), 0);
    }
}
