//! # parsort — parallel sorting three ways
//!
//! SoftEng 751 **project 2**: "developing parallel implementations of
//! the classical quicksort algorithm … the students had to implement
//! three versions using object-oriented language support (using
//! Parallel Task, Pyjama and standard Java threads and concurrency
//! classes)."
//!
//! This crate reproduces all three, plus the usual baselines and
//! extensions:
//!
//! * [`quicksort::quicksort_seq`] — the sequential reference (with an
//!   insertion-sort cutoff, median-of-three pivoting);
//! * [`quicksort::quicksort_partask`] — recursive task spawning on
//!   the [`partask`] runtime (the Parallel Task version; relies on
//!   helping joins for nested fork/join);
//! * [`quicksort::quicksort_pyjama`] — a worksharing phrasing on a
//!   [`pyjama`] team: partition into per-thread buckets, sort buckets
//!   in a parallel region, concatenate (how one writes quicksort when
//!   the tool is OpenMP-shaped);
//! * [`quicksort::quicksort_threads`] — raw `std::thread` recursion
//!   with a depth limit (the "standard threads" version);
//! * [`mergesort::mergesort_seq`] / [`mergesort::mergesort_partask`]
//!   — the stable comparison-sort counterpart;
//! * [`samplesort::samplesort`] — the bucket/sample sort extension.

pub mod mergesort;
pub mod quicksort;
pub mod samplesort;

pub use quicksort::{
    quicksort_partask, quicksort_pyjama, quicksort_seq, quicksort_threads, INSERTION_CUTOFF,
};

/// Deterministic input generators shared by tests and the `projects` experiment.
pub mod data {
    use parc_util::rng::Xoshiro256;

    /// Uniform random `u64`s.
    #[must_use]
    pub fn random(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    /// Already sorted (adversarial for naive pivots).
    #[must_use]
    pub fn sorted(n: usize) -> Vec<u64> {
        (0..n as u64).collect()
    }

    /// Reverse sorted.
    #[must_use]
    pub fn reversed(n: usize) -> Vec<u64> {
        (0..n as u64).rev().collect()
    }

    /// Few distinct values (duplicate-heavy).
    #[must_use]
    pub fn few_unique(n: usize, distinct: u64, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..n).map(|_| rng.next_below(distinct)).collect()
    }

    /// Nearly sorted: sorted with `swaps` random transpositions.
    #[must_use]
    pub fn nearly_sorted(n: usize, swaps: usize, seed: u64) -> Vec<u64> {
        let mut v = sorted(n);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        for _ in 0..swaps {
            let i = rng.gen_range_usize(0..n);
            let j = rng.gen_range_usize(0..n);
            v.swap(i, j);
        }
        v
    }
}
