//! Experiment E-FUZZ: cross-validate the MHP + lockset static engine
//! against the exhaustive interleaving explorer on thousands of
//! seeded, generated directive programs.
//!
//! Each cell generates 2,000 well-typed Pyjama programs from one corpus
//! seed (`parc_analyze::genprog`), lints each with both the MHP engine
//! and the old syntactic engine, lowers it onto the `parc-explore` shims
//! for exhaustive DFS, and tallies the agreement:
//!
//! * **missed dynamic findings** — an explorer-witnessed race or
//!   deadlock with no matching static diagnostic;
//! * **false positives** — a race/deadlock-class diagnostic on a
//!   program the explorer proves clean.
//!
//! Gates (violations; any one exits non-zero):
//! * per cell: zero parse failures, zero missed dynamic findings, and a
//!   corpus that contains clean, racy and deadlocked programs;
//! * experiment: at least 6,000 programs in total, and the MHP engine's
//!   false-positive count strictly below the syntactic engine's.
//!
//! The cells are corpus seeds 1, 2 and 3; `--seed S` shifts them to
//! S+1, S+2 and S+3 (default 0).
//!
//! Run with: `cargo run --release --example fuzz_lint -- [--seed N] [--out DIR]`

use parc_analyze::genprog;
use softeng751_repro::experiment::{self, Report, Spec};

/// Programs generated per corpus.
const COUNT: usize = 2000;
const MIN_TOTAL_PROGRAMS: f64 = 6000.0;

fn main() {
    let cells = [1u64, 2, 3].map(|c| (format!("corpus {c}"), c)).into();
    experiment::run(
        Spec { name: "fuzz", seed: 0, pool: None, cells },
        |&corpus, seed, _| {
            let corpus_seed = seed.wrapping_add(corpus);
            let (stats, mismatches) =
                genprog::cross_validate(&genprog::generate(corpus_seed, COUNT));
            let missed = mismatches.iter().filter(|m| m.kind.starts_with("missed"));
            Report::new()
                .det("corpus_seed", format!("{corpus_seed:#x}"))
                .det("programs", stats.programs)
                .det("parse_failures", stats.parse_failures)
                .det("dynamic_clean", stats.dynamic_clean)
                .det("dynamic_racy", stats.dynamic_racy)
                .det("dynamic_deadlocked", stats.dynamic_deadlocked)
                .det("unexhausted", stats.unexhausted)
                .det("schedules_explored", stats.schedules_explored)
                .det("missed_dynamic_findings", stats.missed_dynamic_findings)
                .det("false_positives_new", stats.false_positives_new)
                .det("false_positives_old", stats.false_positives_old)
                .det("mismatches", mismatches.len())
                .check(
                    stats.parse_failures == 0,
                    format!("{} programs failed to re-parse", stats.parse_failures),
                )
                .violations(missed.take(5).map(|m| {
                    format!(
                        "{} {} #{}: {:?}\n{}",
                        m.kind, m.family, m.index, m.static_codes, m.source
                    )
                }))
                .check(
                    stats.missed_dynamic_findings == 0,
                    format!("{} explorer-witnessed findings missed", stats.missed_dynamic_findings),
                )
                .check(
                    stats.dynamic_clean > 0
                        && stats.dynamic_racy > 0
                        && stats.dynamic_deadlocked > 0,
                    "corpus must hold clean, racy and deadlocked programs",
                )
        },
        |_, reports| {
            let sum = |key| reports.iter().map(|r| r.number(key)).sum::<f64>();
            let (fp_new, fp_old) = (sum("false_positives_new"), sum("false_positives_old"));
            Report::new()
                .det("families", genprog::family_count())
                .det("programs_per_corpus", COUNT)
                .det("total_programs", sum("programs"))
                .det("total_missed_dynamic_findings", sum("missed_dynamic_findings"))
                .det("total_false_positives_new", fp_new)
                .det("total_false_positives_old", fp_old)
                .check(
                    sum("programs") >= MIN_TOTAL_PROGRAMS,
                    format!("{} programs < {MIN_TOTAL_PROGRAMS}", sum("programs")),
                )
                .check(
                    fp_new < fp_old,
                    format!(
                        "MHP engine not strictly more precise: {fp_new} FPs vs syntactic {fp_old}"
                    ),
                )
        },
    );
}
