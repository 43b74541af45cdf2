//! # parc-analyze — Pyjama directive front end + static diagnostics
//!
//! Pyjama (Vikas, Giacaman & Sinnen) brings OpenMP-style directives to
//! Java as `//#omp` comments; SoftEng 751 students write parallel
//! programs against it and make the same handful of mistakes every
//! year — barriers inside worksharing, unprotected shared counters,
//! `master` where `single` was needed, inconsistent lock order. This
//! crate is the teaching-scale analogue of the marker's eye: a
//! front end for a Pyjama-style directive mini-language and a static
//! rule engine that names those mistakes precisely, with spans and
//! caret-annotated snippets.
//!
//! The pipeline:
//!
//! 1. [`parse`](parse::parse) — byte lexer + recursive-descent parser
//!    producing a spanned region tree ([`ast`]). Structural misuse is
//!    `E005` at this stage; recoverable directive errors no longer
//!    abort the parse ([`parse::parse_recover`]), so later regions
//!    still get analysed.
//! 2. [`check`](rules::check) — over the program's names interned once
//!    ([`sym`]), structural rules plus the MHP∩lockset engine: [`mhp`]
//!    symbolically executes every thread of every team (the language
//!    is branch-free, so the model is exact), [`lockset`]
//!    tracks the locks held on the path to each shared access, and the
//!    rules report races (`W101`/`W102`) only for access pairs that
//!    may happen in parallel under disjoint locksets, deterministic
//!    barrier deadlocks (`E001`/`E006`) from proved arrival-count
//!    mismatches, lock-order cycles (`E004`) from concurrent nesting
//!    edges, and redundant criticals (`W104`) where nothing conflicts.
//! 3. [`bridge`] — the same tree runs on the `parc-explore` shim
//!    runtime, the real `pyjama` runtime, and a sequential reference,
//!    so every static verdict is *cross-validated dynamically*:
//!    flagged deadlocks must deadlock under the explorer, flagged
//!    races must produce witnessed racing schedules, and clean
//!    programs must be proved race-free over the exhausted
//!    interleaving space (see `tests/analyze.rs`). The lowering these
//!    three back ends run is written once, in a crate-private
//!    interpreter, and [`mhp::model`] is its fourth back end: the
//!    static model walks exactly the accesses the explorer executes.
//!
//! The [`fixtures`] corpus holds hand-written directive programs styled
//! on the student projects — buggy originals and fixed counterparts —
//! and [`genprog`] generates thousands more per seed for the E-FUZZ
//! agreement harness (`examples/fuzz_lint.rs`), which gates on the
//! static engine never missing an explorer-witnessed race or deadlock
//! while keeping a lower false-positive rate than the old syntactic
//! engine ([`rules::check_syntactic`]).

#![warn(missing_docs)]

pub mod ast;
pub mod bridge;
pub mod diag;
pub mod fixtures;
pub mod genprog;
pub mod lexer;
pub mod lockset;
mod lower;
pub mod mhp;
pub mod parse;
pub mod rules;
pub mod sym;

use diag::Diagnostic;

/// The result of analysing one source text.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The parsed program, if parsing succeeded.
    pub program: Option<ast::Program>,
    /// All diagnostics, deterministically ordered (span, then code).
    pub diagnostics: Vec<Diagnostic>,
}

impl Analysis {
    /// Does the analysis carry any `E`-class diagnostic?
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.code.severity() == diag::Severity::Error)
    }

    /// Is the program completely clean (no errors, no warnings)?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Parse and check a directive program in one call.
///
/// The parser recovers from malformed directives: only *fatal*
/// structural failures (unclosed/unmatched blocks) yield
/// `program: None`. Recoverable errors (an unknown or malformed
/// directive) produce their `E005` and the rule engine still runs
/// over everything after them.
#[must_use]
pub fn analyze(source: &str) -> Analysis {
    let (program, mut diagnostics) = parse::parse_recover(source);
    if let Some(program) = &program {
        rules::diagnose(program, &mut diagnostics);
        diag::sort_and_dedup(&mut diagnostics);
    }
    Analysis { program, diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diag::Code;

    #[test]
    fn analyze_runs_the_full_pipeline() {
        let a = analyze("//#omp parallel num_threads(2)\n{\n    count = count + 1;\n}\n");
        assert!(a.program.is_some());
        assert_eq!(a.diagnostics.len(), 1);
        assert_eq!(a.diagnostics[0].code, Code::W101);
        assert!(!a.has_errors());
        assert!(!a.is_clean());
    }

    #[test]
    fn analyze_surfaces_parse_failures() {
        let a = analyze("//#omp parallel\n{\n");
        assert!(a.program.is_none());
        assert!(a.has_errors());
        assert!(a.diagnostics.iter().all(|d| d.code == Code::E005));
    }

    #[test]
    fn every_fixture_matches_its_expected_codes() {
        for fixture in fixtures::corpus() {
            let a = analyze(fixture.source);
            let got: Vec<Code> = a.diagnostics.iter().map(|d| d.code).collect();
            assert_eq!(
                got, fixture.expect,
                "fixture `{}` diagnostics diverged",
                fixture.name
            );
        }
    }
}
