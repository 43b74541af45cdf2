//! Experiment E-LINT: static diagnostics for the whole directive
//! fixture corpus, plus the analyser's throughput benchmark on both
//! the hand-written and the generated corpora.
//!
//! Each cell is one entry of `parc_analyze::fixtures::corpus()`: the
//! full front end (lex → parse → rule engine) runs on it, and its
//! diagnostics — snippets included, round-tripped through the JSON
//! parser — land in the cell's `deterministic` section. The
//! static-vs-dynamic agreement matrix itself lives in
//! `tests/analyze.rs`, where each verdict is cross-validated against
//! the exhaustive explorer and the pyjama runtime.
//!
//! The experiment-level report times 200 rounds of the fixture corpus
//! and a seeded `genprog` corpus, splits the generated corpus's lint
//! time into its layers (`parse_us` for `parse::parse_recover`,
//! `check_us` for `rules::check`, `lint_us` for the whole `analyze`,
//! microseconds per program over 20 passes), and cross-validates the
//! generated corpus against the exhaustive explorer next to the old
//! syntactic engine.
//!
//! Gates (violations; any one exits non-zero):
//! * per cell: the emitted codes equal the fixture's expected codes,
//!   and every exported diagnostic carries code, severity, line, col,
//!   message and snippet;
//! * experiment: all 22 fixtures, every code E001–E006 and W101–W104
//!   emitted somewhere, a positive lint rate, zero missed dynamic
//!   findings on the generated corpus, and strictly fewer false
//!   positives than the syntactic engine.
//!
//! Run with: `cargo run --release --example directive_lint -- [--seed N] [--out DIR]`
//! (the seed picks the generated corpus; default 1).

use std::hint::black_box;
use std::time::Instant;

use parc_analyze::diag::to_json_with_source;
use parc_analyze::{fixtures, genprog};
use parc_trace::Json;
use softeng751_repro::experiment::{self, Report, Spec};

const FIXTURES: usize = 22;
const ROUNDS: usize = 200;
/// Passes over the generated corpus behind each per-layer time.
const LAYER_PASSES: usize = 20;
const CODES: [&str; 10] =
    ["E001", "E002", "E003", "E004", "E005", "E006", "W101", "W102", "W103", "W104"];
const DIAGNOSTIC_KEYS: [&str; 6] = ["code", "severity", "line", "col", "message", "snippet"];

fn main() {
    let cells = fixtures::corpus().iter().map(|fx| (fx.name.to_string(), fx)).collect();
    experiment::run(
        Spec { name: "analyze", seed: 1, pool: None, cells },
        |fx, _, _| {
            let analysis = parc_analyze::analyze(fx.source);
            let emitted: Vec<&str> = analysis.diagnostics.iter().map(|d| d.code.as_str()).collect();
            let expected: Vec<&str> = fx.expect.iter().map(|c| c.as_str()).collect();
            let export = to_json_with_source(&analysis.diagnostics, fx.source);
            let diagnostics = export.as_arr().unwrap_or_default();
            let complete =
                diagnostics.iter().all(|d| DIAGNOSTIC_KEYS.iter().all(|k| d.get(k).is_some()));
            Report::new()
                .det("styled_on", fx.styled_on)
                .det("dynamic", format!("{:?}", fx.dynamic))
                .det("expected", expected.clone())
                .det("emitted", emitted.clone())
                .det("diagnostics", diagnostics.to_vec())
                .check(emitted == expected, format!("emitted {emitted:?} != expected {expected:?}"))
                .check(complete, "diagnostic export lacks a required key")
        },
        |seed, reports| {
            let emitted: Vec<&str> = reports
                .iter()
                .flat_map(|r| r.deterministic["emitted"].as_arr().unwrap_or_default())
                .filter_map(Json::as_str)
                .collect();
            let missing: Vec<&str> = CODES.into_iter().filter(|c| !emitted.contains(c)).collect();

            let started = Instant::now();
            let mut diags = 0usize;
            for _ in 0..ROUNDS {
                for fx in fixtures::corpus() {
                    diags += parc_analyze::analyze(fx.source).diagnostics.len();
                }
            }
            let secs = started.elapsed().as_secs_f64().max(1e-9);
            let programs = ROUNDS * fixtures::corpus().len();
            let rate = programs as f64 / secs;

            let corpus = genprog::generate(seed, 20 * genprog::family_count());
            let gen_started = Instant::now();
            for gp in &corpus {
                let _ = parc_analyze::analyze(&gp.source);
            }
            let gen_secs = gen_started.elapsed().as_secs_f64().max(1e-9);
            let sources: Vec<&str> = corpus.iter().map(|gp| gp.source.as_str()).collect();
            let programs_parsed: Vec<_> =
                sources.iter().filter_map(|s| parc_analyze::parse::parse_recover(s).0).collect();
            let parse_us = per_program_us(&sources, |s| {
                black_box(parc_analyze::parse::parse_recover(s));
            });
            let check_us = per_program_us(&programs_parsed, |p| {
                black_box(parc_analyze::rules::check(p));
            });
            let lint_us = per_program_us(&sources, |s| {
                black_box(parc_analyze::analyze(s));
            });
            let (stats, _) = genprog::cross_validate(&corpus);

            Report::new()
                .det("fixtures", reports.len())
                .det("programs_linted", programs)
                .det("diagnostics_linted", diags)
                .measured("programs_per_sec", rate)
                .measured("diagnostics_per_sec", diags as f64 / secs)
                .det("generated_programs", stats.programs)
                .measured("generated_programs_per_sec", corpus.len() as f64 / gen_secs)
                .measured("parse_us", parse_us)
                .measured("check_us", check_us)
                .measured("lint_us", lint_us)
                .det("generated_parse_failures", stats.parse_failures)
                .det("generated_dynamic_clean", stats.dynamic_clean)
                .det("generated_dynamic_racy", stats.dynamic_racy)
                .det("generated_dynamic_deadlocked", stats.dynamic_deadlocked)
                .det("generated_unexhausted", stats.unexhausted)
                .det("generated_schedules_explored", stats.schedules_explored)
                .det("generated_missed_dynamic_findings", stats.missed_dynamic_findings)
                .det("generated_false_positives_new", stats.false_positives_new)
                .det("generated_false_positives_old", stats.false_positives_old)
                .check(
                    reports.len() == FIXTURES,
                    format!("{} fixtures, expected {FIXTURES}", reports.len()),
                )
                .check(missing.is_empty(), format!("codes never emitted: {missing:?}"))
                .check(rate > 0.0, "fixture lint rate is not positive")
                .check(
                    stats.missed_dynamic_findings == 0,
                    format!("{} explorer-witnessed findings missed", stats.missed_dynamic_findings),
                )
                .check(
                    stats.false_positives_new < stats.false_positives_old,
                    format!(
                        "MHP engine not strictly more precise: {} FPs vs syntactic {}",
                        stats.false_positives_new, stats.false_positives_old
                    ),
                )
        },
    );
}

/// Mean microseconds `f` takes per item, over `LAYER_PASSES` passes.
fn per_program_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let started = Instant::now();
    for _ in 0..LAYER_PASSES {
        for item in items {
            f(black_box(item));
        }
    }
    started.elapsed().as_secs_f64() * 1e6 / (LAYER_PASSES * items.len()).max(1) as f64
}
