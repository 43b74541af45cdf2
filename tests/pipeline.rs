//! Integration tests for the fault-tolerant auto-marking pipeline:
//! exactly-once marking under storms, pool-size-independent
//! fingerprints, explicit degradation, and the supervision tree
//! agreeing with the model.

use course::pipeline::{run_cell, CellReport, PipelineConfig};
use faultsim::FaultStorm;
use parc_loadgen::ArrivalProcess;
use parc_trace::TraceHandle;
use partask::TaskRuntime;

fn small_cfg(seed: u64) -> PipelineConfig {
    PipelineConfig {
        seed,
        shards: 4,
        markers: 3,
        batch_per_marker: 60,
        queue_cap: 150,
        arrival_ticks: 14,
        drain_max_ticks: 12,
        spot_every: 64,
        degrade_backlog: 250,
        restart_budget: 12,
        students: 200,
        ..PipelineConfig::default()
    }
}

fn run(workers: usize, arrival: &ArrivalProcess, storm: &FaultStorm, cfg: &PipelineConfig) -> CellReport {
    run_counting_tasks(workers, arrival, storm, cfg).0
}

/// Run one cell on a fresh pool, and count the tasks the pool executed
/// for it once the pool is quiescent.
fn run_counting_tasks(
    workers: usize,
    arrival: &ArrivalProcess,
    storm: &FaultStorm,
    cfg: &PipelineConfig,
) -> (CellReport, u64) {
    let rt = TaskRuntime::builder().workers(workers).build();
    let before = rt.stats().executed;
    let report = run_cell(&rt, arrival, storm, cfg, &TraceHandle::disabled());
    rt.wait_quiescent();
    let tasks = rt.stats().executed - before;
    rt.shutdown();
    (report, tasks)
}

#[test]
fn every_cell_of_the_small_matrix_conserves() {
    let cfg = small_cfg(0x11A7);
    let arrivals = ArrivalProcess::all(70.0, cfg.arrival_ticks as usize);
    let rt = TaskRuntime::builder().workers(3).build();
    let mut kills_somewhere = false;
    for arrival in &arrivals {
        for storm in FaultStorm::all(0x11A7) {
            let report = run_cell(&rt, arrival, &storm, &cfg, &TraceHandle::disabled());
            assert!(
                report.violations().is_empty(),
                "[{} x {}] violations: {:?}",
                arrival.name(),
                storm.name,
                report.violations()
            );
            assert_eq!(report.submitted, report.marked + report.shed);
            assert_eq!(report.duplicates, 0);
            assert_eq!(report.in_flight, 0);
            kills_somewhere |= report.kills > 0;
        }
    }
    rt.shutdown();
    assert!(kills_somewhere, "the matrix must exercise the fault path");
}

#[test]
fn kills_mid_batch_are_exactly_once() {
    let cfg = small_cfg(0x2BAD);
    let arrival = ArrivalProcess::PoissonSteady { rate: 90.0 };
    let storm = FaultStorm::burst(0x2BAD);
    let (report, tasks) = run_counting_tasks(3, &arrival, &storm, &cfg);
    assert!(report.violations().is_empty(), "violations: {:?}", report.violations());
    assert!(report.kills > 0, "burst storm must kill markers");
    assert!(report.restarts > 0, "kills must be followed by supervised restarts");
    assert!(report.reclaims > 0, "mid-batch kills must reclaim the unacked tail");
    assert!(report.redone > 0, "reclaimed submissions must be genuinely re-marked");
    assert_eq!(report.duplicates, 0, "no submission is ever marked twice");
    assert_eq!(report.stale_acks, 0, "no zombie ack reaches the ledger");
    // One task per marked submission: a killed tail is never computed.
    assert_eq!(tasks, report.marked, "tasks executed vs submissions marked");
    // The real supervision tree and the model tell the same story.
    assert_eq!(u64::from(report.supervision.restarts_total), report.restarts);
    assert_eq!(u64::from(report.supervision.escalations), report.escalations);
    // Pinned (3 kills, 3 supervised restarts): a refactor of the tick
    // loop, the ledger or the guards must keep this cell bit-identical.
    assert_eq!(report.fingerprint(), 0x8b35_de55_a08a_952c, "{}", report.render_deterministic());
}

#[test]
fn fingerprint_is_identical_across_1_3_8_worker_pools_and_reruns() {
    let cfg = small_cfg(0x3F1D);
    let arrival = ArrivalProcess::Diurnal { base: 60.0, amplitude: 36.0, period_ticks: 7 };
    let storm = FaultStorm::flapping(0x3F1D);
    let base = run(1, &arrival, &storm, &cfg);
    assert!(base.violations().is_empty(), "violations: {:?}", base.violations());
    let rerun = run(1, &arrival, &storm, &cfg);
    assert_eq!(base.fingerprint(), rerun.fingerprint(), "same-pool rerun diverged");
    for workers in [3usize, 8] {
        let wide = run(workers, &arrival, &storm, &cfg);
        assert_eq!(
            base.fingerprint(),
            wide.fingerprint(),
            "pool size {workers} leaked into the model"
        );
        assert_eq!(base.render_deterministic(), wide.render_deterministic());
    }
    // Pinned: a refactor must keep the cell bit-identical, not merely
    // pool-size independent.
    assert_eq!(base.fingerprint(), 0x1c6e_17b5_8eb9_b7c4, "{}", base.render_deterministic());
}

#[test]
fn exhausted_restart_budget_escalates_and_work_flows_to_survivors() {
    let mut cfg = small_cfg(0x4E5C);
    cfg.restart_budget = 0; // first kill escalates
    cfg.arrival_ticks = 18;
    let arrival = ArrivalProcess::PoissonSteady { rate: 80.0 };
    let storm = FaultStorm::burst(0x4E5C);
    let (report, tasks) = run_counting_tasks(2, &arrival, &storm, &cfg);
    assert!(report.violations().is_empty(), "violations: {:?}", report.violations());
    assert!(report.escalations > 0, "budget 0 must escalate on the first kill");
    assert!(report.supervision.has_escalations());
    let escalated = report.supervision.escalated_children();
    assert_eq!(escalated.len() as u64, report.escalations);
    assert!(escalated.iter().all(|c| c.escalated));
    // The survivors kept marking: conservation still closes.
    assert!(report.marked > 0);
    assert_eq!(tasks, report.marked, "tasks executed vs submissions marked");
    assert!(report.events.iter().any(|e| e.contains("shards reassigned")));
    // Pinned (3 escalations).
    assert_eq!(report.fingerprint(), 0x902e_641f_9f04_ad31, "{}", report.render_deterministic());
}

#[test]
fn degradation_sheds_the_expensive_stage_first_and_quantifies_it() {
    let mut cfg = small_cfg(0x5DE6);
    cfg.degrade_backlog = 30;
    cfg.spot_every = 8;
    cfg.batch_per_marker = 30;
    let arrival = ArrivalProcess::FlashCrowd { base: 50.0, peak: 260.0, at_tick: 4, decay_ticks: 5 };
    let storm = FaultStorm::brownout(0x5DE6);
    let report = run(3, &arrival, &storm, &cfg);
    assert!(report.violations().is_empty(), "violations: {:?}", report.violations());
    assert!(report.degraded_ticks > 0, "the flash crowd must push the pipeline into degradation");
    assert!(report.spot_degraded > 0, "degraded spot-checks must be counted, not silently skipped");
    assert_eq!(
        report.spot_eligible,
        report.spot_run + report.spot_degraded,
        "every sampled submission is either spot-checked or explicitly degraded"
    );
    assert!(
        report.events.iter().any(|e| e.contains("degradation ON")),
        "the degradation toggle must appear in the event log"
    );
    // Rubric marking itself was never skipped: only admission-level
    // shedding leaves a submission unmarked.
    assert_eq!(report.submitted, report.marked + report.shed);
    // Pinned (6 kills, 22 degraded ticks; 4 spot-checks run, 180
    // degraded, 184 eligible).
    assert_eq!(report.fingerprint(), 0x22cd_b8c5_7530_f3aa, "{}", report.render_deterministic());
}

#[test]
fn backpressure_sheds_with_attributed_causes_under_flash_crowd() {
    let mut cfg = small_cfg(0x6F1A);
    cfg.queue_cap = 40;
    cfg.batch_per_marker = 25;
    cfg.drain_max_ticks = 2; // force a drain-overrun shed too
    let arrival = ArrivalProcess::FlashCrowd { base: 60.0, peak: 400.0, at_tick: 3, decay_ticks: 4 };
    let storm = FaultStorm::brownout(0x6F1A);
    let report = run(2, &arrival, &storm, &cfg);
    assert!(report.violations().is_empty(), "violations: {:?}", report.violations());
    assert!(report.shed > 0, "a 400/tick flash against 75/tick capacity must shed");
    let shed_full: u64 = report.shards.iter().map(|s| s.shed_full).sum();
    let shed_drain: u64 = report.shards.iter().map(|s| s.shed_drain).sum();
    assert_eq!(shed_full + shed_drain, report.shed, "every shed carries its cause");
    assert!(shed_full > 0, "queue-full backpressure must trigger at the admission gate");
    // Pinned (1,185 queue-full and 5 drain-overrun sheds).
    assert_eq!(report.fingerprint(), 0x9aa1_34e1_e887_fe6b, "{}", report.render_deterministic());
}

#[test]
fn marking_stages_flow_through_the_trace() {
    let col = parc_trace::Collector::new();
    let rt = TaskRuntime::builder().workers(2).build();
    let cfg = small_cfg(0x77AC);
    let arrival = ArrivalProcess::PoissonSteady { rate: 70.0 };
    let storm = FaultStorm::burst(0x77AC);
    let report = run_cell(&rt, &arrival, &storm, &cfg, &col.handle());
    rt.shutdown();
    assert!(report.violations().is_empty());
    let trace = col.snapshot();
    let counts = trace.counts_by_name();
    assert!(counts.get("mark.tick").copied().unwrap_or(0) >= u64::from(report.ticks));
    assert!(counts.get("mark.claim").copied().unwrap_or(0) > 0);
    assert!(counts.get("mark.ack").copied().unwrap_or(0) > 0);
    if report.kills > 0 {
        assert!(counts.get("mark.reclaim").copied().unwrap_or(0) > 0);
    }
    // Supervision marks (guard child lifecycle) land in the same
    // collector, and the chrome export stays well-formed JSON.
    assert!(counts.get("sup.child_start").copied().unwrap_or(0) > 0);
    let json = parc_trace::to_chrome_json(&trace);
    parc_trace::parse_json(&json).expect("chrome export of a pipeline trace must parse");
}
