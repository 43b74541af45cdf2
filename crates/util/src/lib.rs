//! # parc-util
//!
//! Shared foundation for the SoftEng 751 reproduction: deterministic
//! pseudo-random number generation, descriptive statistics, timing
//! helpers, plain-text report rendering and the one fingerprint hash
//! ([`fnv1a`]) every determinism gate compares.
//!
//! Every experiment in the workspace is seeded, so any result in
//! `EXPERIMENTS.md` can be regenerated bit-for-bit. The PRNGs here
//! (SplitMix64 and Xoshiro256++) are implemented from scratch so the
//! workspace does not depend on an external crate's evolving API for
//! its own determinism guarantees.
//!
//! ```
//! use parc_util::rng::Xoshiro256;
//! let mut rng = Xoshiro256::seed_from_u64(42);
//! let x = rng.gen_range_usize(0..10);
//! assert!(x < 10);
//! ```

pub mod rng;
pub mod stats;
pub mod table;
pub mod timer;

pub use rng::{SplitMix64, Xoshiro256};
pub use stats::{Summary, Welford};
pub use table::Table;
pub use timer::{measure, measure_n, Stopwatch};

/// 64-bit FNV-1a: the fingerprint hash behind every determinism gate
/// (pipeline cells, cluster and soak reports, image content hashes,
/// experiment reports).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(super::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(super::fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
