//! Timing helpers for experiment harnesses: a stopwatch, one timed
//! call, and [`measure_n`]'s summary of repeated runs, which the
//! experiment programs use for every per-iteration timing series.

use std::time::{Duration, Instant};

use crate::stats::Summary;

/// A resettable stopwatch.
#[derive(Clone, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start a new stopwatch.
    #[must_use]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start (or last reset).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in milliseconds as `f64`.
    #[must_use]
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Restart the stopwatch, returning the time that had elapsed.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let elapsed = now - self.start;
        self.start = now;
        elapsed
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// Time one invocation of `f`, returning its result and the duration.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.elapsed())
}

/// Run `f` `n` times (after `warmup` unmeasured runs) and summarise
/// the per-iteration wall time in milliseconds.
pub fn measure_n<T>(n: usize, warmup: usize, mut f: impl FnMut() -> T) -> Summary {
    assert!(n > 0, "need at least one measured iteration");
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let sw = Stopwatch::start();
        std::hint::black_box(f());
        samples.push(sw.elapsed_ms());
    }
    Summary::from_samples(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
    }

    #[test]
    fn lap_resets() {
        let mut sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        let first = sw.lap();
        assert!(first >= Duration::from_millis(1));
        // After a lap, elapsed starts near zero again.
        assert!(sw.elapsed() < first + Duration::from_millis(50));
    }

    #[test]
    fn measure_returns_value_and_positive_time() {
        let (value, dur) = measure(|| (0..1000u64).sum::<u64>());
        assert_eq!(value, 499_500);
        assert!(dur >= Duration::ZERO);
    }

    #[test]
    fn measure_n_produces_summary() {
        let summary = measure_n(5, 1, || std::hint::black_box((0..100u64).product::<u64>()));
        assert_eq!(summary.len(), 5);
        assert!(summary.min() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn measure_n_rejects_zero() {
        let _ = measure_n(0, 0, || ());
    }
}
