//! The metrics registry: named counters and log-bucketed
//! [`LatencyHistogram`]s.
//!
//! Runtimes own their counters (`Arc<Counter>`), and *register* them
//! under prefixed names when a collector is attached; the registry
//! then snapshots every registered metric into one deterministic,
//! alphabetised table for the experiment reports. A counter is
//! striped: an increment is one relaxed atomic add on a cache line
//! that the other threads adding to it do not write, and a read sums
//! the stripes.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parc_util::stripe::{thread_slot, CachePadded};
use parc_util::table::Table;
use parking_lot::Mutex;

/// A monotonically increasing counter, striped so that threads adding
/// to it at once do not write the same cache line (project 9's
/// `LongAdder` lesson, applied to the runtimes' own counters).
///
/// It holds [`Counter::SHARDS`] shards, each on a line of its own. An
/// add is one relaxed `fetch_add` on the shard that the calling
/// thread's [`thread_slot`] picks, and [`Counter::get`] sums the
/// shards. So a runtime's workers count every task on separate lines
/// instead of passing one line between their cores, and a read costs
/// one load per shard.
///
/// A read is exact once every add has happened before it (its threads
/// joined, or its runtime quiescent). While adds race it, a read may
/// miss some of them but never counts one twice, and successive reads
/// on one thread never go down: every shard only grows.
#[derive(Default)]
pub struct Counter {
    shards: [CachePadded<AtomicU64>; Counter::SHARDS],
}

impl Counter {
    /// How many shards a counter holds: enough for a runtime's workers
    /// and the threads that spawn into it to add on lines of their
    /// own, few enough that a read stays a short sum.
    pub const SHARDS: usize = 8;

    /// A counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[thread_slot() % Self::SHARDS].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value: the sum of the shards, wrapping as one atomic
    /// would.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.load(Ordering::Relaxed))
            .fold(0, u64::wrapping_add)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A log-bucketed (HDR-style) latency histogram with quantile
/// estimation.
///
/// Buckets grow geometrically (`buckets_per_decade` per factor of 10),
/// so one histogram spans microseconds to minutes with a bounded
/// *relative* error per bucket, which is what tail-latency reporting
/// (p99, p99.9) needs and what equal-width buckets cannot give.
/// Recording and querying are plain `&mut`/`&` operations on a value
/// type, so reports can embed a histogram and compare runs with `==`
/// (all state is a pure function of the recorded samples).
///
/// Values below the low bound clamp into the first bucket; values at
/// or above the high bound clamp into the last (acting as an overflow
/// bucket). [`LatencyHistogram::quantile`] interpolates linearly
/// inside the chosen bucket and clamps to the observed min/max, so
/// `quantile(0.0)` and `quantile(1.0)` are exact.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyHistogram {
    lo: f64,
    ln_growth: f64,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min_seen: f64,
    max_seen: f64,
}

impl LatencyHistogram {
    /// Histogram covering `[lo, hi)` with `buckets_per_decade`
    /// geometric buckets per factor of 10.
    ///
    /// # Panics
    /// If `lo <= 0`, `hi <= lo`, or `buckets_per_decade == 0`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, buckets_per_decade: usize) -> Self {
        assert!(lo > 0.0, "low bound must be positive");
        assert!(hi > lo, "high bound must exceed low bound");
        assert!(
            buckets_per_decade > 0,
            "need at least one bucket per decade"
        );
        #[allow(clippy::cast_precision_loss)]
        let ln_growth = std::f64::consts::LN_10 / buckets_per_decade as f64;
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let buckets = ((hi / lo).ln() / ln_growth).ceil().max(1.0) as usize;
        Self {
            lo,
            ln_growth,
            counts: vec![0; buckets],
            total: 0,
            sum: 0.0,
            min_seen: f64::INFINITY,
            max_seen: f64::NEG_INFINITY,
        }
    }

    fn bucket_index(&self, x: f64) -> usize {
        if x < self.lo {
            return 0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let idx = ((x / self.lo).ln() / self.ln_growth).floor() as usize;
        idx.min(self.counts.len() - 1)
    }

    /// Lower bound of bucket `i`.
    fn bucket_lo(&self, i: usize) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let exp = i as f64 * self.ln_growth;
        self.lo * exp.exp()
    }

    /// Record one sample (non-negative; NaN is rejected by assert).
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "latency sample must not be NaN");
        let x = x.max(0.0);
        let idx = self.bucket_index(x);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += x;
        self.min_seen = self.min_seen.min(x);
        self.max_seen = self.max_seen.max(x);
    }

    /// Total recorded samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of recorded samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let n = self.total as f64;
        self.sum / n
    }

    /// Largest recorded sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max_seen
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) of the recorded samples,
    /// interpolated within the selected bucket and clamped to the
    /// observed range. Returns 0 when no samples were recorded.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.min_seen;
        }
        if q == 1.0 {
            return self.max_seen;
        }
        #[allow(clippy::cast_precision_loss)]
        let target = q * self.total as f64;
        let mut cum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            #[allow(clippy::cast_precision_loss)]
            let count = c as f64;
            if cum + count >= target {
                let frac = ((target - cum) / count).clamp(0.0, 1.0);
                let b_lo = self.bucket_lo(i);
                let b_hi = self.bucket_lo(i + 1);
                let v = b_lo + frac * (b_hi - b_lo);
                return v.clamp(self.min_seen, self.max_seen);
            }
            cum += count;
        }
        self.max_seen
    }

    /// Median (p50).
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    #[must_use]
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Merge another histogram of the identical shape into this one.
    ///
    /// # Panics
    /// If the two histograms were built with different bounds.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert!(
            (self.lo - other.lo).abs() < f64::EPSILON
                && (self.ln_growth - other.ln_growth).abs() < f64::EPSILON
                && self.counts.len() == other.counts.len(),
            "cannot merge latency histograms of different shapes"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min_seen = self.min_seen.min(other.min_seen);
        self.max_seen = self.max_seen.max(other.max_seen);
    }

    /// One line for benchmark tables:
    /// `"n=1200 p50=12.3 p99=88.1 p99.9=140.2 max=151.0"`.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "n={} p50={:.1} p99={:.1} p99.9={:.1} max={:.1}",
            self.total,
            self.p50(),
            self.p99(),
            self.p999(),
            self.max()
        )
    }
}

/// A registry of named metrics with deterministic (alphabetical)
/// snapshot order.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Mutex<LatencyHistogram>>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Register an existing counter under `name` (replacing any
    /// previous registration). This is how runtimes expose the
    /// counters they own and increment internally.
    pub fn register_counter(&self, name: &str, counter: &Arc<Counter>) {
        self.counters
            .lock()
            .insert(name.to_string(), Arc::clone(counter));
    }

    /// Get or create the histogram `name` over `[lo, hi)` with
    /// `buckets_per_decade` log buckets (see [`LatencyHistogram::new`]).
    /// The shape of an existing histogram wins.
    #[must_use]
    pub fn histogram(
        &self,
        name: &str,
        lo: f64,
        hi: f64,
        buckets_per_decade: usize,
    ) -> Arc<Mutex<LatencyHistogram>> {
        Arc::clone(
            self.histograms
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| {
                    Arc::new(Mutex::new(LatencyHistogram::new(
                        lo,
                        hi,
                        buckets_per_decade,
                    )))
                }),
        )
    }

    /// Every counter's current value, alphabetised.
    #[must_use]
    pub fn counter_values(&self) -> BTreeMap<String, u64> {
        self.counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Histogram names with sample totals, alphabetised.
    #[must_use]
    pub fn histogram_totals(&self) -> BTreeMap<String, u64> {
        self.histograms
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.lock().total()))
            .collect()
    }

    /// Render the flat metrics summary — one row per metric, sorted by
    /// name — used by the teaching reports and EXPERIMENTS.md.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = Table::new("metrics", &["metric", "kind", "value"]);
        for (name, value) in self.counter_values() {
            table.row(&[name, "counter".into(), value.to_string()]);
        }
        for (name, total) in self.histogram_totals() {
            table.row(&[name, "histogram".into(), format!("{total} samples")]);
        }
        table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn registry_get_or_create_shares() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn registered_counter_is_visible() {
        let reg = MetricsRegistry::new();
        let owned = Arc::new(Counter::new());
        owned.add(42);
        reg.register_counter("rt.spawned", &owned);
        assert_eq!(reg.counter_values()["rt.spawned"], 42);
        owned.inc();
        assert_eq!(reg.counter("rt.spawned").get(), 43);
    }

    #[test]
    fn histogram_records_through_registry() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("wait_ms", 0.1, 10.0, 5);
        h.lock().record(1.0);
        h.lock().record(3.0);
        h.lock().record(99.0); // past the range still counts toward total
        assert_eq!(reg.histogram_totals()["wait_ms"], 3);
    }

    #[test]
    fn latency_histogram_quantiles_of_uniform_ramp() {
        let mut h = LatencyHistogram::new(0.1, 1e4, 36);
        for i in 1..=1000 {
            h.record(f64::from(i));
        }
        assert_eq!(h.total(), 1000);
        // Log buckets at 36/decade have ~6.6 % relative width; allow
        // 10 % relative error on interior quantiles.
        for (q, expect) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let got = h.quantile(q);
            assert!(
                (got - expect).abs() / expect < 0.10,
                "quantile({q}) = {got}, want ~{expect}"
            );
        }
        assert_eq!(h.quantile(0.0), 1.0, "q=0 clamps to observed min");
        assert_eq!(h.quantile(1.0), 1000.0, "q=1 clamps to observed max");
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn latency_histogram_tail_beats_fixed_width() {
        // A bimodal distribution: 990 fast samples, 10 slow outliers.
        // The log-bucketed histogram resolves the tail that equal-width
        // buckets would lump into overflow.
        let mut h = LatencyHistogram::new(0.1, 1e5, 36);
        for _ in 0..990 {
            h.record(5.0);
        }
        for _ in 0..10 {
            h.record(2000.0);
        }
        assert!(
            h.p50() < 10.0,
            "p50 {} should sit in the fast mode",
            h.p50()
        );
        let p999 = h.p999();
        assert!(
            (1800.0..=2200.0).contains(&p999),
            "p99.9 {p999} should resolve the slow mode"
        );
    }

    #[test]
    fn latency_histogram_clamps_out_of_range() {
        let mut h = LatencyHistogram::new(1.0, 100.0, 10);
        h.record(0.0); // below lo -> first bucket
        h.record(1e9); // above hi -> last bucket
        assert_eq!(h.total(), 2);
        assert_eq!(h.quantile(1.0), 1e9, "max is tracked exactly");
        assert_eq!(h.quantile(0.0), 0.0, "min is tracked exactly");
    }

    #[test]
    fn latency_histogram_merge_matches_single_stream() {
        let mut all = LatencyHistogram::new(0.5, 1e3, 20);
        let mut a = LatencyHistogram::new(0.5, 1e3, 20);
        let mut b = LatencyHistogram::new(0.5, 1e3, 20);
        for i in 0..500u32 {
            let x = 1.0 + f64::from(i % 97);
            all.record(x);
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a, all, "merge must equal the single-stream histogram");
    }

    #[test]
    fn latency_histogram_empty_reports_zeroes() {
        let h = LatencyHistogram::new(1.0, 10.0, 5);
        assert_eq!(h.total(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn render_is_alphabetised_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("b.count").add(2);
        reg.counter("a.count").add(1);
        let _ = reg.histogram("lat", 0.1, 1.0, 2);
        let text = reg.render();
        let a = text.find("a.count").unwrap();
        let b = text.find("b.count").unwrap();
        assert!(a < b, "counters must render alphabetised");
        assert!(text.contains("histogram"));
        assert!(text.contains("== metrics =="));
    }
}
