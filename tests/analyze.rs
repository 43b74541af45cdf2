//! Static-analysis suite: parser fixed points, deterministic
//! diagnostics, and the static↔dynamic agreement matrix.
//!
//! The last part is the load-bearing one: every `E`-class/`W`-class
//! verdict the rule engine produces over the fixture corpus is
//! cross-validated against what actually happens when the same program
//! is lowered onto the `parc-explore` shims (exhaustive interleaving
//! search) and, for clean fixtures, onto the real pyjama runtime.
//! A static analyser that cries wolf — or stays silent while the
//! explorer finds a deadlock — fails here.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use parc_analyze::bridge::{explore_program, interpret_seq, run_on_pyjama};
use parc_analyze::diag::{to_json, Code};
use parc_analyze::fixtures::{corpus, DynVerdict};
use parc_analyze::genprog;
use parc_analyze::mhp;
use parc_analyze::parse::{parse, parse_recover};
use parc_explore::Config;
use parc_util::fnv1a;
use parc_util::rng::Xoshiro256;
use pyjama::Team;

/// Every parseable fixture pretty-prints to a fixed point: parsing the
/// pretty form and pretty-printing again reproduces it byte-for-byte.
#[test]
fn pretty_print_is_a_fixed_point() {
    for fx in corpus() {
        let Ok(prog) = parse(fx.source) else { continue };
        let printed = prog.pretty();
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("{}: pretty form must reparse: {e:?}", fx.name));
        assert_eq!(reparsed.pretty(), printed, "{}: pretty is not a fixed point", fx.name);
    }
}

/// Diagnostics (and their JSON export) are bit-identical across reruns
/// — ordering is by span, then code, then message, never by HashMap
/// iteration order.
#[test]
fn diagnostics_are_deterministic() {
    for fx in corpus() {
        let a = parc_analyze::analyze(fx.source);
        let b = parc_analyze::analyze(fx.source);
        assert_eq!(a.diagnostics, b.diagnostics, "{}: diagnostics differ across runs", fx.name);
        assert_eq!(
            to_json(&a.diagnostics),
            to_json(&b.diagnostics),
            "{}: JSON export differs across runs",
            fx.name
        );
    }
}

/// The corpus is the contract: each fixture emits exactly its expected
/// code sequence, in order.
#[test]
fn fixtures_emit_expected_codes() {
    for fx in corpus() {
        let emitted: Vec<Code> =
            parc_analyze::analyze(fx.source).diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(emitted, fx.expect, "{}: emitted codes diverge from fixture", fx.name);
    }
}

/// The static↔dynamic agreement matrix (EXPERIMENTS.md E-LINT):
///
/// * `Deadlock` fixtures must carry a deadlock-class static error
///   (E001/E004/E006) AND the explorer must witness a concrete
///   deadlocked schedule;
/// * `Race` fixtures must carry a race-class static diagnostic
///   (E002/E003/W101/W102) AND the explorer must witness a concrete
///   racing schedule;
/// * `Clean` fixtures must be proved race- and deadlock-free over the
///   *exhaustive* interleaving space;
/// * `Unlowered` fixtures fail to parse (E005) and are skipped
///   dynamically.
#[test]
fn static_and_dynamic_verdicts_agree() {
    let mut matrix: BTreeMap<&str, usize> = BTreeMap::new();
    for fx in corpus() {
        *matrix.entry(verdict_key(fx.dynamic)).or_default() += 1;
        let analysis = parc_analyze::analyze(fx.source);
        match fx.dynamic {
            DynVerdict::Unlowered => {
                // Structurally broken — either the parser rejects it
                // outright or the rule engine flags the malformed
                // structure; in both cases lowering is not attempted.
                assert!(
                    fx.expect.contains(&Code::E005),
                    "{}: unlowered fixture must be an E005",
                    fx.name
                );
                continue;
            }
            _ => assert!(analysis.program.is_some(), "{}: should parse", fx.name),
        }
        let prog = analysis.program.as_ref().unwrap();
        let report = explore_program(prog, Config::dfs(fx.name));
        match fx.dynamic {
            DynVerdict::Deadlock => {
                assert!(
                    fx.expect.iter().any(|c| matches!(c, Code::E001 | Code::E004 | Code::E006)),
                    "{}: deadlocking fixture lacks a deadlock-class error",
                    fx.name
                );
                assert!(
                    report.deadlocks > 0,
                    "{}: statically-diagnosed deadlock never witnessed dynamically",
                    fx.name
                );
            }
            DynVerdict::Race => {
                assert!(
                    fx.expect
                        .iter()
                        .any(|c| matches!(c, Code::E002 | Code::E003 | Code::W101 | Code::W102)),
                    "{}: racy fixture lacks a race-class diagnostic",
                    fx.name
                );
                assert!(
                    !report.race_free(),
                    "{}: statically-diagnosed race never witnessed dynamically",
                    fx.name
                );
            }
            DynVerdict::Clean => {
                assert!(
                    report.exhausted,
                    "{}: clean verdict needs the full interleaving space",
                    fx.name
                );
                assert!(report.race_free(), "{}: clean fixture raced", fx.name);
                assert_eq!(report.deadlocks, 0, "{}: clean fixture deadlocked", fx.name);
            }
            DynVerdict::Unlowered => unreachable!(),
        }
    }
    // The corpus shape itself is part of the record: 22 fixtures,
    // every dynamic class populated.
    assert_eq!(matrix.values().sum::<usize>(), 22);
    assert_eq!(matrix["clean"], 10);
    assert_eq!(matrix["race"], 5);
    assert_eq!(matrix["deadlock"], 5);
    assert_eq!(matrix["unlowered"], 2);
}

/// Parser error recovery keeps later regions analysable: a malformed
/// directive mid-file yields its E005 *and* the diagnostics of the
/// well-formed regions after it, in pinned span order.
#[test]
fn parser_recovery_reports_later_regions() {
    let src = "\
//#omp parallell num_threads(2)
{
    lost = lost + 1;
}
//#omp parallel num_threads(2)
{
    count = count + 1;
    //#omp single
    {
        //#omp barrier
    }
}
";
    let (program, parse_diags) = parse_recover(src);
    assert!(program.is_some(), "recoverable error must keep the tree");
    assert_eq!(parse_diags.len(), 1);
    assert_eq!(parse_diags[0].code, Code::E005);

    let analysis = parc_analyze::analyze(src);
    let codes: Vec<Code> = analysis.diagnostics.iter().map(|d| d.code).collect();
    // Pinned order: the E005 at line 1, then the later region's W101
    // (racy counter) and E001 (barrier under single), span-sorted.
    assert_eq!(codes, vec![Code::E005, Code::W101, Code::E001]);
    assert_eq!(analysis.diagnostics[0].span.line, 1);
    assert!(analysis.diagnostics[1].span.line > 4, "W101 comes from the recovered region");
}

/// A slice of the E-FUZZ gate runs in-tree on every `cargo test`: a
/// generated corpus where the MHP engine must miss no
/// explorer-witnessed race/deadlock and must beat the syntactic
/// engine's false-positive count. The full 3-seed × 2000-program run
/// lives in `examples/fuzz_lint.rs` (CI `fuzz-lint` job).
#[test]
fn generated_corpus_agreement_holds() {
    let corpus = genprog::generate(1, 7 * genprog::family_count() + 3);
    let (stats, mismatches) = genprog::cross_validate(&corpus);
    for m in &mismatches {
        eprintln!("[{}] {} #{}: {:?}\n{}", m.kind, m.family, m.index, m.static_codes, m.source);
    }
    assert_eq!(stats.parse_failures, 0, "generated programs must re-parse");
    assert_eq!(
        stats.missed_dynamic_findings, 0,
        "the static engine missed explorer-witnessed findings: {stats:?}"
    );
    assert!(
        stats.false_positives_new < stats.false_positives_old,
        "the MHP engine must be strictly more precise: {stats:?}"
    );
    assert!(stats.dynamic_clean > 0 && stats.dynamic_racy > 0 && stats.dynamic_deadlocked > 0);
}

/// Clean programs mean the same thing on every back end: the real
/// pyjama runtime, the sequential reference and every schedule the
/// explorer runs (one observed final per variable) agree. Beside the
/// clean fixtures, three programs pin lowering decisions: a team's
/// frame starts afresh, so an outer loop variable does not shadow
/// inside it (`i` reads the shared cell); a reduction folds into the
/// shared cell even where the variable is private to the enclosing
/// team; and a variable that only a `firstprivate` or `reduction`
/// clause names still has a shared cell.
#[test]
fn clean_fixtures_agree_on_pyjama() {
    let lowering_pins = [
        (
            "team-frame-starts-afresh",
            "for i in 0..2 {\n    //#omp parallel num_threads(2)\n    {\n        \
             //#omp critical acc\n        {\n            x = x + i;\n        }\n    }\n}\n",
        ),
        (
            "fold-into-shared-cell",
            "//#omp parallel num_threads(2) private(s)\n{\n    s = 0;\n    \
             //#omp for reduction(+:s)\n    for i in 0..4 {\n        s = s + i;\n    }\n}\n",
        ),
        (
            "clause-only-variables",
            "//#omp parallel num_threads(2) firstprivate(seed) private(t)\n{\n    \
             //#omp for reduction(+:sum)\n    for i in 0..2 {\n        t = i;\n    }\n}\n",
        ),
    ];
    for (name, source) in lowering_pins {
        let diags = parc_analyze::analyze(source).diagnostics;
        assert!(diags.is_empty(), "{name}: statically flagged: {diags:?}");
    }
    let clean = corpus()
        .iter()
        .filter(|fx| fx.dynamic == DynVerdict::Clean)
        .map(|fx| (fx.name, fx.source));
    let team = Team::new(2);
    let mut programs = 0;
    for (name, source) in clean.chain(lowering_pins) {
        let prog = parse(source).expect("clean programs parse");
        let report = explore_program(&prog, Config::dfs(name));
        assert!(report.exhausted && report.race_free(), "{name}: not proved race-free");
        assert_eq!(report.deadlocks, 0, "{name}: deadlocked");
        let explored: BTreeMap<String, i64> = report
            .observations
            .iter()
            .map(|(var, seen)| {
                assert_eq!(seen.len(), 1, "{name}: `{var}` ends in several values: {seen:?}");
                (var.clone(), *seen.first().expect("one observed value"))
            })
            .collect();
        let seq = interpret_seq(&prog);
        assert_eq!(run_on_pyjama(&prog, &team), seq, "{name}: pyjama and sequential diverge");
        assert_eq!(explored, seq, "{name}: explorer and sequential diverge");
        programs += 1;
    }
    assert_eq!(programs, 13);
}

/// The lowering's observable behaviour is pinned: over every lowered
/// fixture (explored with `Config::dfs`) and one generated program per
/// family (`Config::fuzz`, as E-FUZZ explores them), one digest covers
/// the MHP event model (its `Display`, which spells out names and lock
/// keys), the diagnostics and the explorer's report
/// (fingerprint, schedule, pruning, step and deadlock counts, observed
/// finals). A change to how directives lower onto threads, locks and
/// barriers moves it.
#[test]
fn lowering_digest_is_pinned() {
    let fixtures = corpus()
        .iter()
        .filter(|fx| fx.dynamic != DynVerdict::Unlowered)
        .map(|fx| (fx.source.to_string(), Config::dfs(fx.name)));
    let generated = genprog::generate(1, genprog::family_count())
        .into_iter()
        .map(|gp| (gp.source, Config::fuzz(&format!("fuzz-{}", gp.index))));
    let mut record = String::new();
    let mut programs = 0;
    for (source, config) in fixtures.chain(generated) {
        let name = config.name.clone();
        let analysis = parc_analyze::analyze(&source);
        let prog = analysis.program.as_ref().expect("lowered programs parse");
        let report = explore_program(prog, config);
        writeln!(
            record,
            "{name}\n{}{:?}\n{:#x} {} {} {} {} {:?}",
            mhp::model(prog),
            analysis.diagnostics,
            report.fingerprint(),
            report.schedules,
            report.pruned,
            report.steps_total,
            report.deadlocks,
            report.observations,
        )
        .expect("writing to a String cannot fail");
        programs += 1;
    }
    assert_eq!(programs, 20 + genprog::family_count());
    assert_eq!(fnv1a(record.as_bytes()), 0x692a_dcf8_1d80_35eb, "the lowering digest moved");
}

/// The front end is pinned on malformed input as well as well-formed:
/// over `genprog::generate(1, 2000)` and one seeded mutation of each
/// source (a deleted character, a duplicated line, or one inserted
/// `#` `.` `{` `}` `;` `(`, tab or `é`), one digest covers every
/// diagnostic (code, span, message, notes), whether a program came
/// back, and that program's pretty form. The lexer's E005 spans and
/// messages and the parser's recovery move it.
#[test]
fn front_end_digest_is_pinned() {
    const INSERTS: [char; 8] = ['#', '.', '{', '}', ';', '(', '\t', 'é'];
    let mut rng = Xoshiro256::seed_from_u64(0x0F20_7E7D);
    let mut record = String::new();
    for gp in genprog::generate(1, 2000) {
        let mut chars: Vec<char> = gp.source.chars().collect();
        match rng.gen_range_usize(0..3) {
            0 => {
                chars.remove(rng.gen_range_usize(0..chars.len()));
            }
            1 => {
                let lines: Vec<&str> = gp.source.split_inclusive('\n').collect();
                let at = rng.gen_range_usize(0..lines.len());
                chars = lines[..=at].iter().chain(&lines[at..]).flat_map(|l| l.chars()).collect();
            }
            _ => {
                let c = INSERTS[rng.gen_range_usize(0..INSERTS.len())];
                chars.insert(rng.gen_range_usize(0..chars.len() + 1), c);
            }
        }
        let mutated: String = chars.into_iter().collect();
        for source in [&gp.source, &mutated] {
            let analysis = parc_analyze::analyze(source);
            for d in &analysis.diagnostics {
                let s = d.span;
                writeln!(record, "{:?} {}:{}+{} {} {:?}", d.code, s.line, s.col, s.len, d.message, d.notes)
                    .expect("writing to a String cannot fail");
            }
            match &analysis.program {
                Some(program) => record.push_str(&program.pretty()),
                None => record.push_str("no program\n"),
            }
        }
    }
    assert_eq!(fnv1a(record.as_bytes()), 0xd87a_74c9_1133_b7e0, "the front-end digest moved");
}

/// Directive columns count characters after non-ASCII indentation: the
/// directive's own span and the tokens of its body start at the
/// character column, not the byte offset (an ideographic space and an
/// em space are three bytes each).
#[test]
fn directive_columns_count_characters_after_non_ascii_indent() {
    let cases = [
        (
            "//#omp parallel\n{\n\u{3000}//#omp critical\n\u{3000}{\n  x = x + 1;\n  }\n}\n",
            "expected `{` on the next line to open this region's block",
            (3, 2),
        ),
        ("//#omp parallel num_threads(2)\n{\n\u{2003}//#omp paralel\n}\n", "unknown directive `paralel`", (3, 9)),
    ];
    for (source, message, (line, col)) in cases {
        let analysis = parc_analyze::analyze(source);
        let d = analysis
            .diagnostics
            .iter()
            .find(|d| d.message == message)
            .unwrap_or_else(|| panic!("no `{message}` in {:?}", analysis.diagnostics));
        assert_eq!((d.code, d.span.line, d.span.col), (Code::E005, line, col), "{message}");
    }
}

fn verdict_key(v: DynVerdict) -> &'static str {
    match v {
        DynVerdict::Clean => "clean",
        DynVerdict::Race => "race",
        DynVerdict::Deadlock => "deadlock",
        DynVerdict::Unlowered => "unlowered",
    }
}
