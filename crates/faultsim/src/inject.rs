//! Seeded fault plans and the deterministic injector.

use std::collections::HashMap;

use parc_util::rng::SplitMix64;

/// One injected fault, as decided for a single `(key, attempt)` pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// Proceed normally.
    None,
    /// Fail with a retryable error (e.g. connection reset).
    TransientError,
    /// Fail by exceeding the caller's per-attempt timeout.
    Timeout,
    /// Unwind with a panic inside the faulted operation.
    Panic,
    /// Succeed, but only after an extra latency spike.
    LatencySpike {
        /// Additional simulated-model milliseconds.
        extra_ms: f64,
    },
}

impl Fault {
    /// Is this a failure (anything that prevents a normal result)?
    #[must_use]
    pub fn is_failure(self) -> bool {
        matches!(self, Fault::TransientError | Fault::Timeout | Fault::Panic)
    }
}

/// A declarative description of what should go wrong, and how often.
///
/// Rates are probabilities in `[0, 1]` evaluated *independently per
/// attempt*; `fail_key_n_times` entries override the random draws for
/// specific keys (the classic "page fails twice then recovers"
/// scenario). The plan carries its own seed: two injectors built from
/// equal plans make identical decisions forever.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Root seed every decision is derived from.
    pub seed: u64,
    /// Probability of [`Fault::TransientError`] per attempt.
    pub error_rate: f64,
    /// Probability of [`Fault::Timeout`] per attempt.
    pub timeout_rate: f64,
    /// Probability of [`Fault::Panic`] per attempt.
    pub panic_rate: f64,
    /// Probability of a [`Fault::LatencySpike`] per attempt.
    pub latency_spike_rate: f64,
    /// Extra model-milliseconds added by each latency spike.
    pub latency_spike_ms: f64,
    fail_then_recover: HashMap<u64, u32>,
    /// Flapping window: random draws apply only while
    /// `(attempt - 1) % period < on`. `None` means always on.
    flapping: Option<(u32, u32)>,
}

impl FaultPlan {
    /// A plan injecting nothing: every decision is [`Fault::None`].
    #[must_use]
    pub fn reliable(seed: u64) -> Self {
        Self {
            seed,
            error_rate: 0.0,
            timeout_rate: 0.0,
            panic_rate: 0.0,
            latency_spike_rate: 0.0,
            latency_spike_ms: 0.0,
            fail_then_recover: HashMap::new(),
            flapping: None,
        }
    }

    /// Set the transient-error probability.
    #[must_use]
    pub fn with_error_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        self.error_rate = rate;
        self
    }

    /// Set the timeout probability.
    #[must_use]
    pub fn with_timeout_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        self.timeout_rate = rate;
        self
    }

    /// Set the injected-panic probability.
    #[must_use]
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        self.panic_rate = rate;
        self
    }

    /// Set the latency-spike probability and magnitude.
    #[must_use]
    pub fn with_latency_spikes(mut self, rate: f64, extra_ms: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        assert!(extra_ms >= 0.0, "spike must be non-negative");
        self.latency_spike_rate = rate;
        self.latency_spike_ms = extra_ms;
        self
    }

    /// Restrict the *random* fault rates to a flapping window: they
    /// apply only while `(attempt - 1) % period < on`, so a dependency
    /// alternates between `on` faulty attempts and `period - on` clean
    /// ones. Forced [`FaultPlan::fail_key_n_times`] overrides are not
    /// gated. Modelling the flap on the attempt counter (not wall
    /// time) keeps decisions pure functions of `(seed, key, attempt)`.
    #[must_use]
    pub fn with_flapping(mut self, period: u32, on: u32) -> Self {
        assert!(period >= 1, "flap period must be at least 1");
        assert!(on <= period, "on-window cannot exceed the period");
        self.flapping = Some((period, on));
        self
    }

    /// Is the random-fault window open at `attempt` (1-based)?
    #[must_use]
    pub fn flap_window_open(&self, attempt: u32) -> bool {
        match self.flapping {
            None => true,
            Some((period, on)) => (attempt - 1) % period < on,
        }
    }

    /// Force `key` to fail its first `n` attempts with
    /// [`Fault::TransientError`], then behave per the random rates.
    #[must_use]
    pub fn fail_key_n_times(mut self, key: u64, n: u32) -> Self {
        self.fail_then_recover.insert(key, n);
        self
    }

    /// How many forced failures remain for `key` at `attempt`
    /// (1-based), if any override exists.
    #[must_use]
    pub fn forced_failures(&self, key: u64) -> Option<u32> {
        self.fail_then_recover.get(&key).copied()
    }
}

/// Stateless decision engine over a [`FaultPlan`].
///
/// `decide(key, attempt)` is a pure function: it hashes
/// `(seed, key, attempt)` into independent uniform draws and compares
/// them against the plan's rates. No interior state, no ordering
/// sensitivity — concurrent callers on any schedule observe the same
/// faults, which makes whole-system runs replayable.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Build an injector for `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self { plan }
    }

    /// The plan this injector executes.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decide the fault for one attempt. `attempt` is 1-based.
    #[must_use]
    pub fn decide(&self, key: u64, attempt: u32) -> Fault {
        if let Some(n) = self.plan.forced_failures(key) {
            if attempt <= n {
                return Fault::TransientError;
            }
        }
        if !self.plan.flap_window_open(attempt) {
            return Fault::None;
        }
        let mut h = SplitMix64::mix(
            self.plan
                .seed
                .wrapping_add(SplitMix64::mix(key).rotate_left(17))
                .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let mut draw = || {
            h = SplitMix64::mix(h);
            unit(h)
        };
        // Independent draws, checked from most to least disruptive so
        // tightening one rate never perturbs another rate's stream.
        if draw() < self.plan.panic_rate {
            return Fault::Panic;
        }
        if draw() < self.plan.timeout_rate {
            return Fault::Timeout;
        }
        if draw() < self.plan.error_rate {
            return Fault::TransientError;
        }
        if draw() < self.plan.latency_spike_rate {
            return Fault::LatencySpike {
                extra_ms: self.plan.latency_spike_ms,
            };
        }
        Fault::None
    }
}

/// Map 64 random bits to a uniform `f64` in `[0, 1)`.
fn unit(h: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let mantissa = (h >> 11) as f64;
    mantissa * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy_plan() -> FaultPlan {
        FaultPlan::reliable(42)
            .with_error_rate(0.2)
            .with_timeout_rate(0.1)
            .with_panic_rate(0.05)
            .with_latency_spikes(0.1, 25.0)
    }

    #[test]
    fn decisions_are_pure_functions() {
        let a = FaultInjector::new(lossy_plan());
        let b = FaultInjector::new(lossy_plan());
        for key in 0..500 {
            for attempt in 1..4 {
                let fa = a.decide(key, attempt);
                assert_eq!(fa, b.decide(key, attempt), "key {key} attempt {attempt}");
                assert_eq!(fa, a.decide(key, attempt), "repeat call differed");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultInjector::new(lossy_plan());
        let mut other = lossy_plan();
        other.seed = 43;
        let b = FaultInjector::new(other);
        let diverged = (0..500).any(|k| a.decide(k, 1) != b.decide(k, 1));
        assert!(diverged, "seed had no effect on decisions");
    }

    #[test]
    fn rates_are_roughly_respected() {
        let inj = FaultInjector::new(FaultPlan::reliable(7).with_error_rate(0.25));
        let n = 20_000u64;
        let errors = (0..n)
            .filter(|&k| inj.decide(k, 1) == Fault::TransientError)
            .count();
        #[allow(clippy::cast_precision_loss)]
        let observed = errors as f64 / n as f64;
        assert!(
            (observed - 0.25).abs() < 0.02,
            "observed error rate {observed}"
        );
    }

    #[test]
    fn fail_n_then_recover_overrides() {
        let inj = FaultInjector::new(FaultPlan::reliable(1).fail_key_n_times(9, 2));
        assert_eq!(inj.decide(9, 1), Fault::TransientError);
        assert_eq!(inj.decide(9, 2), Fault::TransientError);
        assert_eq!(inj.decide(9, 3), Fault::None);
        assert_eq!(inj.decide(8, 1), Fault::None);
    }

    #[test]
    fn reliable_plan_injects_nothing() {
        let inj = FaultInjector::new(FaultPlan::reliable(999));
        assert!((0..1000).all(|k| inj.decide(k, 1) == Fault::None));
    }

    #[test]
    fn flapping_gates_random_faults_by_attempt() {
        // 2 faulty attempts, then 3 clean ones, repeating.
        let plan = FaultPlan::reliable(11)
            .with_error_rate(1.0)
            .with_flapping(5, 2);
        let inj = FaultInjector::new(plan);
        for key in 0..20 {
            for attempt in 1..=15 {
                let expect_fault = (attempt - 1) % 5 < 2;
                let got = inj.decide(key, attempt);
                if expect_fault {
                    assert_eq!(got, Fault::TransientError, "key {key} attempt {attempt}");
                } else {
                    assert_eq!(got, Fault::None, "key {key} attempt {attempt}");
                }
            }
        }
    }

    #[test]
    fn flapping_does_not_gate_forced_failures() {
        // Off-window attempts still honour fail_key_n_times.
        let plan = FaultPlan::reliable(5)
            .with_flapping(4, 1)
            .fail_key_n_times(3, 3);
        let inj = FaultInjector::new(plan);
        assert_eq!(
            inj.decide(3, 2),
            Fault::TransientError,
            "forced, window closed"
        );
        assert_eq!(inj.decide(3, 4), Fault::None, "recovered, window closed");
    }

    #[test]
    fn attempts_get_independent_draws() {
        let inj = FaultInjector::new(FaultPlan::reliable(3).with_error_rate(0.5));
        // With per-attempt independence, some key must fail on attempt 1
        // and succeed on attempt 2 (retry can make progress).
        let recovers = (0..200)
            .any(|k| inj.decide(k, 1) == Fault::TransientError && inj.decide(k, 2) == Fault::None);
        assert!(recovers, "no key ever recovered on retry");
    }
}
