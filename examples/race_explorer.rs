//! Experiment E-RACE: deterministic race verdicts for the whole
//! litmus catalogue, plus the explorer's throughput benchmark.
//!
//! Each cell is one entry of `parc_explore::litmus::catalogue()`,
//! explored exhaustively by DFS. Racy variants must have a concrete
//! racing schedule; fixed variants must be race-free over the whole
//! interleaving space.
//!
//! Gates (violations; any one exits non-zero):
//! * per cell: the space is exhausted and the verdict matches ground
//!   truth.
//!
//! Artifacts under `--out`: `BENCH_explore.json` (verdicts, schedule
//! counts, schedules/s) and `race_explorer.traces.txt`, the racing
//! interleaving diagrams.
//!
//! Run with: `cargo run --release --example race_explorer -- [--out DIR]`

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use parc_explore::{explore, litmus, Config};
use parc_trace::Json;
use softeng751_repro::experiment::{self, Report, Spec};

fn main() {
    let cells =
        litmus::catalogue().into_iter().map(|entry| (entry.name.to_string(), entry)).collect();
    experiment::run(
        Spec { name: "explore", seed: 0, pool: None, cells },
        |entry, _, _| {
            let body = Arc::clone(&entry.body);
            let started = Instant::now();
            let report = explore(Config::dfs(entry.name), move || body());
            let secs = started.elapsed().as_secs_f64().max(1e-9);
            let schedules = report.schedule_log.len();

            let mut traces = format!("==== {} ====\n", entry.name);
            if report.races.is_empty() {
                let _ = writeln!(
                    traces,
                    "no race over {schedules} explored schedules ({})\n",
                    report.verdict()
                );
            }
            for race in &report.races {
                let _ = writeln!(traces, "{}", race.render());
            }
            for (key, values) in &report.observations {
                let rendered: Vec<String> = values.iter().map(ToString::to_string).collect();
                let _ = writeln!(traces, "observed {key} in {{{}}}", rendered.join(", "));
            }
            traces.push('\n');

            Report::new()
                .det("expect_race", entry.expect_race)
                .det("verdict", report.verdict())
                .det("schedules", schedules)
                .det("pruned", report.pruned)
                .det("steps", report.steps_total)
                .det(
                    "first_race_schedule",
                    report.first_race_schedule.map_or(Json::Null, Json::from),
                )
                .det("first_race_depth", report.first_race_depth.map_or(Json::Null, Json::from))
                .measured("schedules_per_sec", schedules as f64 / secs)
                .measured("steps_per_sec", report.steps_total as f64 / secs)
                .check(report.exhausted, "litmus space must be enumerable")
                .check(
                    report.race_free() != entry.expect_race,
                    format!("verdict {} disagrees with ground truth", report.verdict()),
                )
                .file("race_explorer.traces.txt", traces)
        },
        |_, reports| {
            let sum = |key| reports.iter().map(|r| r.number(key)).sum::<f64>();
            Report::new()
                .det("litmus_tests", reports.len())
                .det("schedules_explored", sum("schedules"))
                .det("steps_executed", sum("steps"))
        },
    );
}
