//! Experiment E-MARK: exactly-once marking of a million-submission
//! cohort under seeded fault storms.
//!
//! Runs the marking matrix — every arrival process (steady Poisson,
//! diurnal wave, flash crowd at the deadline) × every storm shape
//! (burst, brownout, flapping) — through the supervised, sharded,
//! checkpointed `course::pipeline`. Every cell kills markers
//! mid-batch; the claim/complete ledger guarantees no submission is
//! lost or marked twice across the supervised restarts.
//!
//! Gates (violations; any one exits non-zero):
//! * per cell: every conservation identity of `CellReport::violations`
//!   (`submitted == marked + shed`, zero in flight, zero duplicate or
//!   stale acks, per-shard and per-marker sums closing, degradation
//!   quantified, the supervision tree agreeing with the model), and the
//!   fault path exercised: kills > 0 and supervised restarts > 0;
//! * pool: every cell reruns on 1 and 3 workers and must reproduce its
//!   8-worker report, `CellReport::fingerprint` included;
//! * experiment: at least 1,000,000 submissions across a matrix of at
//!   least 3 processes × 3 storms.
//!
//! Artifacts under `--out`: `BENCH_marking.json`, and
//! `TRACE_marking.json`, a chrome trace of the first cell's stages.
//!
//! Run with: `cargo run --release --example mark_storm -- [--seed N] [--out DIR]`
//! (default seed `0xEA751`).

use course::pipeline::{run_cell, PipelineConfig};
use faultsim::FaultStorm;
use parc_loadgen::ArrivalProcess;
use parc_trace::{Collector, TraceHandle};
use partask::TaskRuntime;
use softeng751_repro::experiment::{self, hex, Report, Spec};

const TICKS: u32 = 60;
const RATE_PER_TICK: f64 = 2400.0;
const WORKERS: usize = 8;
const MIN_TOTAL_SUBMISSIONS: f64 = 1_000_000.0;

fn main() {
    faultsim::silence_injected_panics();
    let processes = ArrivalProcess::all(RATE_PER_TICK, TICKS as usize);
    // Storm shapes keep their names whatever the seed; cells index them.
    let storms: Vec<&str> = FaultStorm::all(0).iter().map(|s| s.name).collect();
    let cells = processes
        .iter()
        .enumerate()
        .flat_map(|(pi, p)| {
            storms.iter().enumerate().map(move |(si, s)| (format!("{} x {s}", p.name()), (pi, si)))
        })
        .collect();
    let config = |seed| PipelineConfig { seed, arrival_ticks: TICKS, ..PipelineConfig::default() };

    experiment::run(
        Spec { name: "marking", seed: 0xEA751, pool: Some(WORKERS), cells },
        |&(pi, si), seed, pool| {
            // Chrome trace of the first cell only: enough to see every
            // stage (claims, acks, kills, reclaims, spot-checks).
            let traced = pi == 0 && si == 0 && pool == WORKERS;
            let collector = Collector::new();
            let handle = if traced { collector.handle() } else { TraceHandle::disabled() };
            let rt = TaskRuntime::builder().workers(pool).build();
            let c =
                run_cell(&rt, &processes[pi], &FaultStorm::all(seed)[si], &config(seed), &handle);
            rt.shutdown();
            let shed_full: u64 = c.shards.iter().map(|s| s.shed_full).sum();
            let shed_drain: u64 = c.shards.iter().map(|s| s.shed_drain).sum();
            let report = Report::new()
                .det("fingerprint", hex(c.fingerprint()))
                .det("submitted", c.submitted)
                .det("marked", c.marked)
                .det("shed", c.shed)
                .det("shed_queue_full", shed_full)
                .det("shed_drain_overrun", shed_drain)
                .det("duplicates", c.duplicates)
                .det("stale_acks", c.stale_acks)
                .det("in_flight", c.in_flight)
                .det("claims", c.claims)
                .det("reclaims", c.reclaims)
                .det("redone", c.redone)
                .det("kills", c.kills)
                .det("restarts", c.restarts)
                .det("escalations", c.escalations)
                .det("ticks", c.ticks)
                .det("degraded_ticks", c.degraded_ticks)
                .det("spot_eligible", c.spot_eligible)
                .det("spot_run", c.spot_run)
                .det("spot_degraded", c.spot_degraded)
                .det("spot_missed", c.spot_missed)
                .det("students_marked", c.students_marked)
                .det("cohort_mean_best", c.cohort_mean_best)
                .det("mark_digest", hex(c.mark_digest))
                .det("events", c.events.clone())
                .model("p50_ms", c.latency.p50())
                .model("p99_ms", c.latency.p99())
                .model("p999_ms", c.latency.p999())
                .violations(c.violations())
                .check(
                    c.kills > 0 && c.restarts > 0,
                    format!("fault path not exercised: kills {} restarts {}", c.kills, c.restarts),
                );
            if traced {
                report.file("TRACE_marking.json", parc_trace::to_chrome_json(&collector.snapshot()))
            } else {
                report
            }
        },
        |seed, reports| {
            let cfg = config(seed);
            let sum = |key| reports.iter().map(|r| r.number(key)).sum::<f64>();
            let total = sum("submitted");
            Report::new()
                .det("shards", u32::from(cfg.shards))
                .det("markers", cfg.markers)
                .det("ticks_per_cell", TICKS)
                .model("rate_per_tick", RATE_PER_TICK)
                .det("total_submitted", total)
                .det("total_marked", sum("marked"))
                .check(
                    total >= MIN_TOTAL_SUBMISSIONS,
                    format!("scale gate: {total} submissions < {MIN_TOTAL_SUBMISSIONS}"),
                )
                .check(
                    processes.len() >= 3 && storms.len() >= 3,
                    format!("matrix is {} processes x {} storms", processes.len(), storms.len()),
                )
        },
    );
}
