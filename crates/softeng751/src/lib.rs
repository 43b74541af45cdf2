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
//! * a [`prelude`] of the types a course workbook imports, and the
//!   supervised chaos-soak cells in [`soak`].
//!
//! The ten projects of Section IV-C are experiment cells of the
//! workspace's `projects` example, and the paper's own figures, tables
//! and survey are cells of its `course` example.

pub mod prelude;
pub mod soak;

pub use soak::{run_soak_cell, run_soak_matrix, SoakCellReport};

// Re-export the subsystem crates under one roof.
pub use course;
pub use docsearch;
pub use faultsim;
pub use guievent;
pub use imaging;
pub use kernels;
pub use memmodel;
pub use parc_inspect;
pub use parc_supervise;
pub use parc_trace;
pub use parc_util;
pub use parsort;
pub use partask;
pub use pyjama;
pub use taskcol;
pub use websim;
