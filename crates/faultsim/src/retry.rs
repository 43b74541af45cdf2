//! Retry policies: bounded attempts, backoff, deterministic jitter,
//! and deadlines.

use std::time::Duration;

use parc_util::rng::SplitMix64;

/// How the delay between attempts grows.
#[derive(Clone, Copy, Debug)]
pub enum Backoff {
    /// The same delay after every failure.
    Fixed(Duration),
    /// `base * factor^(k-1)` after the `k`-th failure, capped at `max`.
    Exponential {
        /// Delay after the first failure.
        base: Duration,
        /// Growth factor (≥ 1 keeps the schedule monotone).
        factor: f64,
        /// Upper bound on any single delay.
        max: Duration,
    },
}

/// A successful call plus how hard the policy had to work for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Retried<T> {
    /// The operation's result.
    pub value: T,
    /// Attempts used, including the successful one (≥ 1).
    pub attempts: u32,
}

/// Why a retried operation ultimately did not succeed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RetryError<E> {
    /// Every permitted attempt failed.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// The error from the final attempt.
        last: E,
    },
    /// The overall deadline left no room for another attempt.
    DeadlineExceeded {
        /// Attempts made before giving up.
        attempts: u32,
        /// The error from the final attempt.
        last: E,
    },
}

impl<E> RetryError<E> {
    /// Attempts made before failing.
    #[must_use]
    pub fn attempts(&self) -> u32 {
        match self {
            RetryError::Exhausted { attempts, .. }
            | RetryError::DeadlineExceeded { attempts, .. } => *attempts,
        }
    }

    /// The error from the final attempt.
    #[must_use]
    pub fn last_error(&self) -> &E {
        match self {
            RetryError::Exhausted { last, .. } | RetryError::DeadlineExceeded { last, .. } => last,
        }
    }
}

/// A bounded, deterministic retry schedule.
///
/// Jitter is *seeded*, not sampled from ambient randomness: the delay
/// before attempt `k` is `raw_delay(k) * j` where `j ∈ [1-jitter,
/// 1+jitter]` is a pure function of `(seed, k)`. Two executions with
/// the same seed therefore wait exactly as long as each other, which
/// lets chaos tests assert on schedules.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    backoff: Backoff,
    max_attempts: u32,
    jitter: f64,
    overall_deadline: Option<Duration>,
}

impl RetryPolicy {
    /// Fixed backoff of `delay` between attempts.
    #[must_use]
    pub fn fixed(delay: Duration) -> Self {
        Self {
            backoff: Backoff::Fixed(delay),
            max_attempts: 3,
            jitter: 0.0,
            overall_deadline: None,
        }
    }

    /// Exponential backoff starting at `base`, growing by `factor`,
    /// capped at `max`.
    #[must_use]
    pub fn exponential(base: Duration, factor: f64, max: Duration) -> Self {
        assert!(factor >= 1.0, "factor < 1 would shrink delays");
        Self {
            backoff: Backoff::Exponential { base, factor, max },
            max_attempts: 3,
            jitter: 0.0,
            overall_deadline: None,
        }
    }

    /// Total attempts permitted (including the first; must be ≥ 1).
    #[must_use]
    pub fn with_max_attempts(mut self, n: u32) -> Self {
        assert!(n >= 1, "at least one attempt required");
        self.max_attempts = n;
        self
    }

    /// Jitter fraction in `[0, 1)`: each delay is scaled by a
    /// deterministic factor in `[1 - jitter, 1 + jitter]`.
    #[must_use]
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0,1)");
        self.jitter = jitter;
        self
    }

    /// Budget for the whole retry loop, counted over backoff delays.
    #[must_use]
    pub fn with_overall_deadline(mut self, t: Duration) -> Self {
        self.overall_deadline = Some(t);
        self
    }

    /// Maximum attempts (including the first).
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The overall budget, if configured.
    #[must_use]
    pub fn overall_deadline(&self) -> Option<Duration> {
        self.overall_deadline
    }

    /// Un-jittered delay after the `k`-th failed attempt (`k` ≥ 1).
    /// Monotone non-decreasing in `k` for both backoff shapes.
    #[must_use]
    pub fn raw_delay(&self, failed_attempt: u32) -> Duration {
        assert!(failed_attempt >= 1, "attempts are 1-based");
        match self.backoff {
            Backoff::Fixed(d) => d,
            Backoff::Exponential { base, factor, max } => {
                let exp = factor.powi(i32::try_from(failed_attempt - 1).unwrap_or(i32::MAX));
                let scaled = base.as_secs_f64() * exp;
                Duration::from_secs_f64(scaled.min(max.as_secs_f64()))
            }
        }
    }

    /// Jittered delay after the `k`-th failed attempt: a pure function
    /// of `(seed, k)`.
    #[must_use]
    pub fn delay_after(&self, failed_attempt: u32, seed: u64) -> Duration {
        let raw = self.raw_delay(failed_attempt);
        if self.jitter == 0.0 {
            return raw;
        }
        let h =
            SplitMix64::mix(seed ^ u64::from(failed_attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        #[allow(clippy::cast_precision_loss)]
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let factor = 1.0 + self.jitter * (2.0 * unit - 1.0);
        Duration::from_secs_f64(raw.as_secs_f64() * factor)
    }

    /// The full delay schedule for `seed`: the waits between attempts
    /// `1..max_attempts`, truncated so the cumulative delay never
    /// exceeds the overall deadline (when one is set).
    #[must_use]
    pub fn schedule(&self, seed: u64) -> Vec<Duration> {
        let mut out = Vec::new();
        let mut total = Duration::ZERO;
        for failed in 1..self.max_attempts {
            let d = self.delay_after(failed, seed);
            if let Some(deadline) = self.overall_deadline {
                if total + d > deadline {
                    break;
                }
            }
            total += d;
            out.push(d);
        }
        out
    }

    /// Drive `op` under this policy. `sleep` receives each backoff
    /// delay — pass `std::thread::sleep` in production or a recorder /
    /// no-op in tests. `op` gets the 1-based attempt number.
    pub fn execute_with<T, E>(
        &self,
        seed: u64,
        mut sleep: impl FnMut(Duration),
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<Retried<T>, RetryError<E>> {
        let mut waited = Duration::ZERO;
        let mut attempt = 1u32;
        loop {
            match op(attempt) {
                Ok(value) => {
                    return Ok(Retried {
                        value,
                        attempts: attempt,
                    })
                }
                Err(last) => {
                    if attempt >= self.max_attempts {
                        return Err(RetryError::Exhausted {
                            attempts: attempt,
                            last,
                        });
                    }
                    let delay = self.delay_after(attempt, seed);
                    if let Some(deadline) = self.overall_deadline {
                        if waited + delay > deadline {
                            return Err(RetryError::DeadlineExceeded {
                                attempts: attempt,
                                last,
                            });
                        }
                    }
                    waited += delay;
                    sleep(delay);
                    attempt += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_delays_are_flat() {
        let p = RetryPolicy::fixed(Duration::from_millis(10)).with_max_attempts(5);
        for k in 1..5 {
            assert_eq!(p.raw_delay(k), Duration::from_millis(10));
        }
    }

    #[test]
    fn exponential_is_monotone_and_capped() {
        let p = RetryPolicy::exponential(Duration::from_millis(5), 2.0, Duration::from_millis(40))
            .with_max_attempts(8);
        let mut prev = Duration::ZERO;
        for k in 1..8 {
            let d = p.raw_delay(k);
            assert!(d >= prev, "delay shrank at k={k}");
            assert!(d <= Duration::from_millis(40));
            prev = d;
        }
        assert_eq!(p.raw_delay(7), Duration::from_millis(40));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::fixed(Duration::from_millis(100))
            .with_max_attempts(10)
            .with_jitter(0.5);
        for k in 1..10 {
            let a = p.delay_after(k, 1234);
            let b = p.delay_after(k, 1234);
            assert_eq!(a, b, "same seed produced different jitter");
            assert!(a >= Duration::from_millis(50) && a <= Duration::from_millis(150));
        }
        let diverged = (1..10).any(|k| p.delay_after(k, 1) != p.delay_after(k, 2));
        assert!(diverged, "seed had no effect on jitter");
    }

    #[test]
    fn schedule_respects_overall_deadline() {
        let p = RetryPolicy::fixed(Duration::from_millis(30))
            .with_max_attempts(10)
            .with_overall_deadline(Duration::from_millis(100));
        let sched = p.schedule(0);
        let total: Duration = sched.iter().sum();
        assert!(total <= Duration::from_millis(100));
        assert_eq!(sched.len(), 3); // 30+30+30 fits, the 4th would not
    }

    #[test]
    fn execute_retries_until_success() {
        let p = RetryPolicy::fixed(Duration::from_millis(1)).with_max_attempts(5);
        let mut sleeps = Vec::new();
        let out = p
            .execute_with(
                9,
                |d| sleeps.push(d),
                |attempt| {
                    if attempt < 3 {
                        Err("boom")
                    } else {
                        Ok(attempt * 10)
                    }
                },
            )
            .expect("succeeds on attempt 3");
        assert_eq!(out.value, 30);
        assert_eq!(out.attempts, 3);
        assert_eq!(sleeps.len(), 2);
    }

    #[test]
    fn execute_exhausts_attempts() {
        let p = RetryPolicy::fixed(Duration::ZERO).with_max_attempts(4);
        let err = p
            .execute_with::<(), _>(0, |_| {}, |_| Err("always"))
            .expect_err("cannot succeed");
        assert_eq!(err.attempts(), 4);
        assert_eq!(*err.last_error(), "always");
        assert!(matches!(err, RetryError::Exhausted { .. }));
    }

    #[test]
    fn execute_stops_at_deadline() {
        let p = RetryPolicy::fixed(Duration::from_millis(60))
            .with_max_attempts(10)
            .with_overall_deadline(Duration::from_millis(100));
        let err = p
            .execute_with::<(), _>(0, |_| {}, |_| Err("always"))
            .expect_err("cannot succeed");
        // One 60 ms wait fits the 100 ms budget; the second would not.
        assert_eq!(err.attempts(), 2);
        assert!(matches!(err, RetryError::DeadlineExceeded { .. }));
    }
}
