//! Deterministic race verdicts for the collection strategies.
//!
//! The crate's own tests exercise the *safe* collections natively and
//! can only demonstrate, not prove, that the unsynchronised designs
//! they replace are broken. These tests close that gap: the counter
//! and stack strategies are ported onto the `parc-explore` shims
//! (see `parc_explore::litmus`) and the explorer enumerates every
//! interleaving — the unsynchronised ports must have a witnessed
//! racing schedule, the mutex/atomic ports must be race-free over the
//! whole space.

use std::collections::BTreeSet;
use std::sync::Arc;

use parc_explore::{explore, litmus, Config};

fn report_for(name: &str) -> parc_explore::ExploreReport {
    let entry = litmus::by_name(name)
        .unwrap_or_else(|| panic!("litmus `{name}` missing from the catalogue"));
    let body = Arc::clone(&entry.body);
    let report = explore(Config::dfs(name), move || body());
    assert!(report.exhausted, "{name}: interleaving space not exhausted");
    report
}

#[test]
fn unsync_counter_races_with_witness() {
    let report = report_for("taskcol-counter/unsync");
    assert!(!report.race_free(), "the plain counter must race");
    let race = &report.races[0];
    assert_eq!(race.location, "count");
    // The witnessing schedule must also show a lost update.
    let outcomes = &report.observations["final"];
    assert!(
        outcomes.contains(&1),
        "lost update not witnessed: {outcomes:?}"
    );
}

#[test]
fn atomic_counter_is_proved_race_free_and_exact() {
    let report = report_for("taskcol-counter/atomic");
    assert!(report.race_free(), "races: {:?}", report.races);
    assert_eq!(report.observations["final"], BTreeSet::from([2]));
}

#[test]
fn mutex_counter_is_proved_race_free_and_exact() {
    let report = report_for("taskcol-counter/mutex");
    assert!(report.race_free(), "races: {:?}", report.races);
    assert_eq!(report.observations["final"], BTreeSet::from([2]));
    assert_eq!(report.deadlocks, 0);
}

#[test]
fn racy_stack_push_races_on_top() {
    let report = report_for("taskcol-stack/racy");
    assert!(!report.race_free(), "the unsynchronised push must race");
    assert!(
        report.races.iter().any(|r| r.location == "top"),
        "expected a race on the stack cursor, got {:?}",
        report
            .races
            .iter()
            .map(|r| r.location.clone())
            .collect::<Vec<_>>()
    );
    // Some schedule loses a push: top ends at 1.
    assert!(report.observations["top"].contains(&1));
}

#[test]
fn mutex_stack_is_proved_race_free_and_loses_nothing() {
    let report = report_for("taskcol-stack/mutex");
    assert!(report.race_free(), "races: {:?}", report.races);
    assert_eq!(report.observations["top"], BTreeSet::from([2]));
    assert_eq!(report.observations["sum"], BTreeSet::from([3]));
}
