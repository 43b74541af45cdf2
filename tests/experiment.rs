//! Gate tests for the experiment harness: one seeded mutation per
//! runner gate, each of which the runner must catch, a round trip of
//! the artifact through the JSON parser, and a check that every
//! experiment program under `examples/` runs through the harness.

use std::sync::atomic::{AtomicUsize, Ordering};

use parc_trace::Json;
use softeng751_repro::experiment::{execute, Report, Spec, POOLS};

fn toy(pool: Option<usize>) -> Spec<u64> {
    Spec { name: "toy", seed: 7, pool, cells: vec![("a".to_string(), 1), ("b".to_string(), 2)] }
}

fn clean(cell: &u64, seed: u64, _pool: usize) -> Report {
    Report::new().det("value", cell * seed).model("model_ms", 0.5)
}

fn no_summary(_: u64, _: &[Report]) -> Report {
    Report::new()
}

#[test]
fn a_clean_pooled_experiment_passes() {
    let out = execute(&toy(Some(4)), 7, clean, no_summary);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
}

#[test]
fn pool_gate_catches_a_pool_size_leaking_into_deterministic() {
    let leaky = |c: &u64, seed: u64, pool: usize| clean(c, seed, pool).det("workers", pool);
    let out = execute(&toy(Some(4)), 7, leaky, no_summary);
    let mismatches: Vec<_> = out.violations.iter().filter(|v| v.contains("fingerprint")).collect();
    assert_eq!(mismatches.len(), 2 * POOLS.len(), "{:?}", out.violations);
    assert!(mismatches[0].contains("/deterministic/workers: 4 vs 1"), "{}", mismatches[0]);
}

#[test]
fn a_cell_violation_fails_the_run() {
    let broken =
        |c: &u64, seed: u64, pool: usize| clean(c, seed, pool).check(*c != 2, "cell two is broken");
    let out = execute(&toy(None), 7, broken, no_summary);
    assert_eq!(out.violations, ["b: cell two is broken"]);
}

#[test]
fn an_experiment_level_violation_fails_the_run() {
    let out = execute(&toy(None), 7, clean, |_, reports| {
        Report::new().check(reports.len() >= 3, "need at least three cells")
    });
    assert_eq!(out.violations, ["experiment: need at least three cells"]);
}

#[test]
fn a_measured_section_that_differs_between_runs_still_passes() {
    let calls = AtomicUsize::new(0);
    let noisy = |c: &u64, seed: u64, pool: usize| {
        clean(c, seed, pool).measured("call", calls.fetch_add(1, Ordering::Relaxed))
    };
    let first = execute(&toy(Some(3)), 7, noisy, no_summary);
    let second = execute(&toy(Some(3)), 7, noisy, no_summary);
    assert!(first.violations.is_empty(), "{:?}", first.violations);
    assert!(second.violations.is_empty(), "{:?}", second.violations);
    assert_eq!(first.fingerprint, second.fingerprint);
    // Two cells, each on every pool size, in each of two executions.
    assert_eq!(calls.load(Ordering::Relaxed), 2 * 2 * POOLS.len());
}

#[test]
fn the_artifact_round_trips_through_the_parser() {
    let out =
        execute(&toy(Some(8)), 7, clean, |_, reports| Report::new().det("cells", reports.len()));
    let doc = parc_trace::parse_json(&format!("{:#}", out.doc)).expect("artifact is JSON");
    assert_eq!(doc, out.doc);

    let host = doc.get("host").expect("host block");
    for key in ["cpus", "profile", "git_rev"] {
        assert!(host.get(key).is_some(), "host.{key} missing");
    }
    let fingerprint = format!("{:#018x}", out.fingerprint);
    assert_eq!(doc.get("fingerprint").and_then(Json::as_str), Some(fingerprint.as_str()));

    let cells = doc.get("cells").and_then(Json::as_arr).expect("cells array");
    assert_eq!(cells.len(), 2);
    for section in cells.iter().chain(doc.get("summary")) {
        for key in ["fingerprint", "deterministic", "model", "measured", "violations"] {
            assert!(section.get(key).is_some(), "{key} missing from {section}");
        }
    }
    assert_eq!(cells[1].get("cell").and_then(Json::as_str), Some("b"));
    assert_eq!(cells[1].get("deterministic").and_then(|d| d.get("value")), Some(&Json::Num(14.0)));
    assert!(cells[0].get("measured").and_then(|m| m.get("wall_ms")).is_some());
    assert_eq!(
        doc.get("summary").and_then(|s| s.get("deterministic")).and_then(|d| d.get("cells")),
        Some(&Json::Num(2.0))
    );
}

#[test]
fn every_example_but_quickstart_runs_through_the_harness() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut drivers = 0;
    for entry in std::fs::read_dir(dir).expect("examples directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if !name.ends_with(".rs") || name == "quickstart.rs" {
            continue;
        }
        let source = std::fs::read_to_string(&path).expect("readable example");
        assert!(source.contains("experiment::run("), "examples/{name} is not a harness driver");
        drivers += 1;
    }
    assert!(drivers > 0, "no harness drivers found");
}
