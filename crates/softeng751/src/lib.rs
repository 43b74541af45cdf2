//! # softeng751 — the umbrella crate
//!
//! One roof over the whole reproduction of Giacaman & Sinnen's
//! research-infused parallel-programming course (IPDPSW 2014):
//!
//! * the PARC tool analogues — [`partask`] (Parallel Task) and
//!   [`pyjama`] (OpenMP-style directives), over the [`guievent`]
//!   event-dispatch substrate;
//! * the kernel and application substrates the ten student projects
//!   need — [`kernels`], [`imaging`], [`docsearch`], [`websim`],
//!   [`taskcol`], [`memmodel`], [`parsort`];
//! * the course model itself — [`course`];
//! * and, in [`catalogue`], the **ten projects of Section IV-C** as
//!   self-checking scenario drivers: each exercises its subsystem end
//!   to end and returns a [`catalogue::ProjectReport`].
//!
//! ```
//! use softeng751::catalogue::{self, ProjectId};
//!
//! let engines = catalogue::Engines::small();
//! let report = catalogue::run_project(ProjectId::ParallelQuicksort, &engines);
//! assert!(report.violations.is_empty());
//! ```

pub mod catalogue;
pub mod prelude;
pub mod soak;

pub use catalogue::{run_project, Engines, ProjectId, ProjectReport};
pub use soak::{run_soak_cell, run_soak_matrix, SoakCellReport};

// Re-export the subsystem crates under one roof.
pub use course;
pub use parc_supervise;
pub use docsearch;
pub use faultsim;
pub use guievent;
pub use imaging;
pub use kernels;
pub use memmodel;
pub use parc_inspect;
pub use parc_trace;
pub use parc_util;
pub use parsort;
pub use partask;
pub use pyjama;
pub use taskcol;
pub use websim;
