//! Experiment E-SOAK: supervised course workloads under seeded fault
//! storms.
//!
//! Runs the full soak matrix — every storm shape (burst, brownout,
//! flapping) × every supervision policy (one-for-one, all-for-one) —
//! with each cell supervising the resilient crawler, parallel
//! quicksort and the imaging pipeline across the storm's phases, plus
//! scripted child failures that exercise restart budgets, backoff and
//! escalation.
//!
//! Gates (violations; any one exits non-zero):
//! * per cell: `SoakCellReport::violations` — each spawned child
//!   incarnation is accounted as completed/failed/cancelled/restarted/
//!   escalated, supervisor threads are all joined, and the cell's task
//!   runtime drains to quiescence (spawned == executed);
//! * pool: every cell reruns on 1, 3 and 8 workers and must reproduce
//!   its 4-worker report, `SoakCellReport::fingerprint` included (it
//!   embeds the full supervision event log for one-for-one cells);
//! * experiment: the matrix covers at least 3 storms × both policies.
//!
//! The default seed `0x50AC200E` makes exactly one one-for-one cell
//! escalate — losing its crawl entirely — while every other cell
//! fails, restarts within budget and recovers.
//!
//! Run with: `cargo run --release --example chaos_soak -- [--seed N] [--out DIR]`

use faultsim::FaultStorm;
use parc_supervise::RestartPolicy;
use softeng751::soak::run_soak_cell;
use softeng751_repro::experiment::{self, hex, Report, Spec};
use websim::ResilientReport;

const POLICIES: [RestartPolicy; 2] = [RestartPolicy::OneForOne, RestartPolicy::AllForOne];

fn main() {
    faultsim::silence_injected_panics();
    // Storm shapes keep their names whatever the seed; cells index them.
    let storms: Vec<&str> = FaultStorm::all(0).iter().map(|s| s.name).collect();
    let cells = storms
        .iter()
        .enumerate()
        .flat_map(|(si, s)| POLICIES.map(|p| (format!("{s} x {}", p.name()), (si, p))))
        .collect();

    experiment::run(
        Spec { name: "soak", seed: 0x50AC_200E, pool: Some(4), cells },
        |&(si, policy), seed, pool| {
            let cell = run_soak_cell(&FaultStorm::all(seed)[si], policy, seed, pool);
            let crawled =
                |f: fn(&ResilientReport) -> usize| -> usize { cell.crawl.iter().map(f).sum() };
            let mut report = Report::new()
                .det("fingerprint_hash", hex(parc_util::fnv1a(cell.fingerprint().as_bytes())))
                .det("phases", cell.phases)
                .det("scripted_failures", cell.scripted.to_vec())
                .det("mean_coverage", cell.mean_coverage())
                .det("worst_coverage", cell.worst_coverage())
                .det("stale_served", crawled(|r| r.stale))
                .det("shed", crawled(|r| r.shed))
                .det("unavailable", crawled(|r| r.unavailable))
                .det("crawl_attempts", cell.crawl.iter().map(|r| r.attempts_total).sum::<u64>())
                .violations(cell.violations());
            // All-for-one restart counts race with sibling cancellation,
            // so only one-for-one cells pin them.
            if policy == RestartPolicy::OneForOne {
                report = report
                    .det("restarts_total", cell.supervision.restarts_total)
                    .det("escalations", cell.supervision.escalations)
                    .det(
                        "events",
                        cell.supervision.event_log().lines().map(String::from).collect::<Vec<_>>(),
                    );
            }
            report
        },
        |_, reports| {
            Report::new().check(
                storms.len() >= 3 && reports.len() == storms.len() * POLICIES.len(),
                format!(
                    "{} cells for {} storms x {} policies",
                    reports.len(),
                    storms.len(),
                    POLICIES.len()
                ),
            )
        },
    );
}
