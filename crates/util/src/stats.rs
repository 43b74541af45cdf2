//! Descriptive statistics used by every experiment harness.
//!
//! [`Summary`] computes batch statistics (mean, standard deviation,
//! percentiles) from a sample vector; [`Welford`] accumulates mean and
//! variance online without storing samples.

/// Batch summary statistics over a set of `f64` samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    mean: f64,
    stddev: f64,
}

impl Summary {
    /// Build a summary from samples. Panics if `samples` is empty or
    /// contains NaN.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of an empty sample set");
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "samples must not contain NaN"
        );
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let n = sorted.len() as f64;
        let mean = sorted.iter().sum::<f64>() / n;
        let var = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        Self {
            sorted,
            mean,
            stddev: var.sqrt(),
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples (never: construction forbids it).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Arithmetic mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation.
    #[must_use]
    pub fn stddev(&self) -> f64 {
        self.stddev
    }

    /// Smallest sample.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    #[must_use]
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Linear-interpolated percentile, `p` in `[0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let rank = p / 100.0 * (self.sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Median (50th percentile).
    #[must_use]
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Render as `mean ± stddev [min..max]` with the given unit.
    #[must_use]
    pub fn render(&self, unit: &str) -> String {
        format!(
            "{:.3} ± {:.3} {unit} [min {:.3}, p50 {:.3}, p95 {:.3}, max {:.3}]",
            self.mean,
            self.stddev,
            self.min(),
            self.median(),
            self.percentile(95.0),
            self.max()
        )
    }
}

/// Welford's online algorithm for mean and variance.
///
/// Numerically stable; suitable for accumulating millions of samples
/// without storing them.
#[derive(Clone, Debug, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// New, empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel reduction of
    /// partial statistics, Chan et al.).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 if fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (+inf if empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf if empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Geometric mean of strictly positive values — the conventional way
/// to aggregate speedups across heterogeneous workloads.
#[must_use]
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    assert!(values.iter().all(|&v| v > 0.0), "values must be positive");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert!((s.median() - 3.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert!((s.stddev() - (2.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_percentile_interpolates() {
        let s = Summary::from_samples(&[0.0, 10.0]);
        assert!((s.percentile(25.0) - 2.5).abs() < 1e-12);
        assert!((s.percentile(0.0) - 0.0).abs() < 1e-12);
        assert!((s.percentile(100.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::from_samples(&[42.0]);
        assert_eq!(s.percentile(0.0), 42.0);
        assert_eq!(s.percentile(99.0), 42.0);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn summary_empty_panics() {
        let _ = Summary::from_samples(&[]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn summary_nan_panics() {
        let _ = Summary::from_samples(&[1.0, f64::NAN]);
    }

    #[test]
    fn summary_unsorted_input() {
        let s = Summary::from_samples(&[5.0, 1.0, 3.0]);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.median(), 3.0);
    }

    #[test]
    fn welford_matches_batch() {
        let samples: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let batch = Summary::from_samples(&samples);
        let mut w = Welford::new();
        for &s in &samples {
            w.push(s);
        }
        assert!((w.mean() - batch.mean()).abs() < 1e-9);
        assert!((w.stddev() - batch.stddev()).abs() < 1e-9);
        assert_eq!(w.min(), batch.min());
        assert_eq!(w.max(), batch.max());
        assert_eq!(w.count(), 100);
    }

    #[test]
    fn welford_merge_matches_sequential() {
        let samples: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64).collect();
        let mut whole = Welford::new();
        for &s in &samples {
            whole.push(s);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &s in &samples[..400] {
            left.push(s);
        }
        for &s in &samples[400..] {
            right.push(s);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-6);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(1.0);
        a.push(2.0);
        let before = a.clone();
        a.merge(&Welford::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut empty = Welford::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_defaults() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn geometric_mean_of_speedups() {
        let g = geometric_mean(&[2.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_nonpositive() {
        let _ = geometric_mean(&[1.0, 0.0]);
    }
}
