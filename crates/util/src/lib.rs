//! # parc-util
//!
//! Shared foundation for the SoftEng 751 reproduction: deterministic
//! pseudo-random number generation, descriptive statistics, timing
//! helpers, plain-text report rendering, the one fingerprint hash
//! ([`fnv1a`]) every determinism gate compares, the one rendering
//! of a caught panic's payload ([`panic_message`]), and the one
//! cache-line padding type and thread-slot helper that striped
//! structures share ([`stripe`]).
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
pub mod stripe;
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

/// The text of a caught panic's payload: the message of a `panic!`
/// with a literal (`&str`) or a formatted one (`String`), and
/// `<non-string panic payload>` for anything else.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn panic_message_reads_str_and_string_payloads() {
        let text = |payload: Box<dyn std::any::Any + Send>| super::panic_message(&*payload);
        assert_eq!(text(Box::new("a literal")), "a literal");
        assert_eq!(text(Box::new(format!("formatted {}", 7))), "formatted 7");
        assert_eq!(text(Box::new(7_u32)), "<non-string panic payload>");
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(super::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(super::fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
