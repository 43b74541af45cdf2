//! # pyjama — OpenMP-style structured parallelism
//!
//! This crate is the Rust analogue of **Pyjama** (Vikas, Giacaman &
//! Sinnen, *Multiprocessing with GUI-awareness using OpenMP-like
//! directives in Java*, Parallel Computing 2013): the PARC lab tool
//! that transplants the OpenMP programming model into an
//! object-oriented language, and the substrate for SoftEng 751
//! projects 3 (computational kernels) and 5 (object-oriented
//! reductions).
//!
//! Where Pyjama's compiler rewrites `//#omp parallel` comments, this
//! crate expresses the same constructs as closures over a persistent
//! [`Team`] of threads:
//!
//! | OpenMP / Pyjama | pyjama-rs |
//! |---|---|
//! | `parallel` region | [`Team::parallel`] |
//! | `for` + `schedule(...)` | [`Ctx::pfor`], [`Schedule`] |
//! | `reduction(op:var)` | [`Ctx::pfor_reduce`], [`Reduction`] |
//! | `barrier` | [`Ctx::barrier`] |
//! | `critical [name]` | [`Ctx::critical`] |
//! | `single` / `master` | [`Ctx::single`], [`Ctx::master`] |
//! | `sections` | [`Ctx::sections`] |
//! | `//#omp gui` (Pyjama's EDT-aware region) | [`gui::gui_async`] |
//!
//! The *object-oriented reduction* extension — the point of project 5:
//! OpenMP reduces only scalars with built-in operators, while an OO
//! language wants to reduce collections (concatenation, set union, map
//! merge, top-k) — lives in [`reduction`].
//!
//! The calling thread participates as thread 0 of the team, exactly
//! like OpenMP's master thread. Nested `parallel` calls serialise (the
//! OpenMP default when nesting is disabled).
//!
//! ```
//! use pyjama::{Team, Schedule};
//!
//! let team = Team::new(2);
//! let data: Vec<u64> = (0..1000).collect();
//! let sum = team.par_sum(0..data.len(), Schedule::Static, |i| data[i]);
//! assert_eq!(sum, 499_500);
//! ```

pub mod barrier;
pub mod gui;
pub mod reduction;
pub mod region;
pub mod schedule;
pub mod team;

pub use reduction::{
    BitAndRed, BitOrRed, BitXorRed, MapMerge, MaxRed, MinRed, ProdRed, Reduction, SetUnion, SumRed,
    TopK, VecConcat,
};
pub use schedule::Schedule;
pub use team::{Ctx, Team, TeamError};
