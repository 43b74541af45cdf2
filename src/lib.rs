//! Workspace root crate for the SoftEng 751 reproduction.
//!
//! This crate exists to host the cross-crate integration tests in
//! `tests/` and the runnable examples in `examples/`, plus the one
//! [`experiment`] harness every experiment program runs through. The
//! actual public API lives in the [`softeng751`] umbrella crate and the
//! individual subsystem crates it re-exports.

pub mod experiment;

pub use softeng751;
