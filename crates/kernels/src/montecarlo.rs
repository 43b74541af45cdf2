//! Monte-Carlo and quadrature kernels.
//!
//! π by dartboard sampling (with independent per-thread PRNG streams —
//! the classic correctness trap of parallel Monte Carlo) and the
//! textbook `∫₀¹ 4/(1+x²) dx = π` trapezoid rule, both sequential and
//! as pyjama reductions.

use parc_util::rng::Xoshiro256;
use pyjama::{Schedule, SumRed, Team};

/// Sequential dartboard π estimate over `samples` points.
#[must_use]
pub fn pi_monte_carlo_seq(samples: u64, seed: u64) -> f64 {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut hits = 0u64;
    for _ in 0..samples {
        let x = rng.next_f64();
        let y = rng.next_f64();
        if x * x + y * y <= 1.0 {
            hits += 1;
        }
    }
    4.0 * hits as f64 / samples as f64
}

/// Parallel dartboard π: the sample range is workshared in fixed
/// blocks, each block drawing from its own jumped PRNG stream so the
/// estimate is deterministic regardless of thread count.
#[must_use]
pub fn pi_monte_carlo_par(team: &Team, samples: u64, seed: u64, blocks: usize) -> f64 {
    let blocks = blocks.max(1);
    let base = Xoshiro256::seed_from_u64(seed);
    let base_ref = &base;
    let per_block = samples / blocks as u64;
    let hits = team.par_reduce(0..blocks, Schedule::Dynamic(1), &SumRed, move |b| {
        let mut rng = base_ref.stream(b);
        let mut hits = 0u64;
        let extra = if b == blocks - 1 {
            samples - per_block * blocks as u64
        } else {
            0
        };
        for _ in 0..per_block + extra {
            let x = rng.next_f64();
            let y = rng.next_f64();
            if x * x + y * y <= 1.0 {
                hits += 1;
            }
        }
        hits
    });
    4.0 * hits as f64 / samples as f64
}

/// Sequential trapezoid rule for `∫₀¹ 4/(1+x²) dx = π`.
#[must_use]
pub fn pi_quadrature_seq(steps: usize) -> f64 {
    let h = 1.0 / steps as f64;
    let mut sum = 0.0;
    for i in 0..steps {
        let x = (i as f64 + 0.5) * h;
        sum += 4.0 / (1.0 + x * x);
    }
    sum * h
}

/// Parallel trapezoid rule as a sum-reduction (the canonical first
/// OpenMP reduction exercise).
#[must_use]
pub fn pi_quadrature_par(team: &Team, steps: usize, schedule: Schedule) -> f64 {
    let h = 1.0 / steps as f64;
    let sum = team.par_reduce(0..steps, schedule, &SumRed, move |i| {
        let x = (i as f64 + 0.5) * h;
        4.0 / (1.0 + x * x)
    });
    sum * h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadrature_converges_to_pi() {
        let approx = pi_quadrature_seq(100_000);
        assert!((approx - std::f64::consts::PI).abs() < 1e-8);
    }

    #[test]
    fn quadrature_par_matches_seq_closely() {
        let team = Team::new(3);
        let seq = pi_quadrature_seq(50_000);
        for schedule in [
            Schedule::Static,
            Schedule::Dynamic(512),
            Schedule::Guided(64),
        ] {
            let par = pi_quadrature_par(&team, 50_000, schedule);
            // Floating addition order differs; agreement is to ~1e-10.
            assert!((seq - par).abs() < 1e-9, "{schedule:?}");
        }
    }

    #[test]
    fn monte_carlo_close_to_pi() {
        let est = pi_monte_carlo_seq(200_000, 123);
        assert!((est - std::f64::consts::PI).abs() < 0.02, "estimate {est}");
    }

    #[test]
    fn monte_carlo_deterministic_per_seed() {
        assert_eq!(
            pi_monte_carlo_seq(10_000, 5).to_bits(),
            pi_monte_carlo_seq(10_000, 5).to_bits()
        );
        assert_ne!(
            pi_monte_carlo_seq(10_000, 5).to_bits(),
            pi_monte_carlo_seq(10_000, 6).to_bits()
        );
    }

    #[test]
    fn parallel_monte_carlo_thread_count_invariant() {
        // Same seed and block structure => bitwise-identical estimate
        // on 1 thread and 4 threads.
        let t1 = Team::new(1);
        let t4 = Team::new(4);
        let a = pi_monte_carlo_par(&t1, 100_000, 7, 16);
        let b = pi_monte_carlo_par(&t4, 100_000, 7, 16);
        assert_eq!(a.to_bits(), b.to_bits());
        assert!((a - std::f64::consts::PI).abs() < 0.05);
    }

    #[test]
    fn parallel_monte_carlo_handles_ragged_tail() {
        let team = Team::new(2);
        // samples not divisible by blocks: remainder must be sampled.
        let est = pi_monte_carlo_par(&team, 100_003, 11, 8);
        assert!((est - std::f64::consts::PI).abs() < 0.05);
    }
}
