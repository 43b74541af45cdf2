//! Benchmark of the auto-marking pipeline and the partask fork-join
//! runtime, end to end and per layer.
//!
//! ```text
//! perfbench --workload <mark-steady|mark-storm|task-tree> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! measures the per-layer metrics: an untraced reference, the same
//! operations traced (with the layer self-time table), and the layer
//! microbenchmarks. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the command exits
//! non-zero when any correctness check fails.

mod layers;
mod ops;
mod stats;
mod traced;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use parc_trace::{Collector, TraceHandle};
use partask::TaskRuntime;

use ops::{Bench, Op, Workload, WORKERS};
use stats::{median, peak_rss_mb, quantile, ratio};
use traced::{Attribution, OpWindow};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Bounds on operations per measured section.
const MIN_OPS: usize = 3;
const MAX_OPS: usize = 100_000;
const SEGMENT_S: f64 = 0.5;
/// Events each thread's trace ring holds; sized for one marking cell
/// or one chunk of trees per collector.
const TRACE_RING: usize = 1 << 20;
const TREES_PER_CHUNK: usize = 8;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(()))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad(()))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad(()))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

struct Run {
    ops: Vec<Op>,
    metrics: Vec<Metric>,
}

/// Set the workload up `SETUP_REPS` times (inputs, runtime, warm-up)
/// and keep the last; returns the median set-up time.
fn setup(workload: Workload, seed: u64) -> (Bench, TaskRuntime, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let mut bench = Bench::new(workload, seed);
        let rt = ops::runtime(&TraceHandle::disabled());
        bench.warm_up(&rt);
        times.push(t.elapsed().as_secs_f64());
        last = Some((bench, rt));
    }
    let (bench, rt) = last.expect("at least one set-up");
    (bench, rt, median(&times))
}

/// Run untraced operations on `rt` until `until` (at least `min_ops`).
fn run_on(bench: &mut Bench, rt: &TaskRuntime, until: Instant, min_ops: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    while ops.len() < min_ops || (Instant::now() < until && ops.len() < MAX_OPS) {
        ops.push(bench.run_op(rt, &TraceHandle::disabled()));
    }
    ops
}

/// Run untraced operations for `seconds`, on a fresh runtime every
/// `SEGMENT_S` seconds so that no one runtime instance's thread
/// placement or memory layout sets the result.
fn run_for(bench: &mut Bench, rt: TaskRuntime, seconds: f64) -> Vec<Op> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut ops = Vec::new();
    let mut rt = Some(rt);
    while ops.len() < MIN_OPS || Instant::now() < deadline {
        let runtime = rt
            .take()
            .unwrap_or_else(|| ops::runtime(&TraceHandle::disabled()));
        let until = deadline.min(Instant::now() + Duration::from_secs_f64(SEGMENT_S));
        ops.extend(run_on(bench, &runtime, until, 1));
        runtime.shutdown();
    }
    ops
}

/// Run `count` operations traced, `chunk` per fresh collector and
/// runtime, and attribute their wall time.
fn run_traced(
    bench: &mut Bench,
    count: usize,
    chunk: usize,
    marking: bool,
) -> (Vec<Op>, Attribution) {
    let mut attribution = Attribution::new(marking);
    let mut ops = Vec::with_capacity(count);
    while ops.len() < count {
        let collector = Collector::with_thread_capacity(TRACE_RING);
        let base = Instant::now();
        let handle = collector.handle();
        let rt = ops::runtime(&handle);
        let mut windows = Vec::new();
        for _ in 0..chunk.min(count - ops.len()) {
            let op = bench.run_op(&rt, &handle);
            windows.push(OpWindow::new(base, &op));
            ops.push(op);
        }
        rt.shutdown();
        attribution.add(&collector.snapshot(), &windows);
    }
    (ops, attribution)
}

fn walls(ops: &[Op]) -> Vec<f64> {
    ops.iter().map(Op::wall_s).collect()
}

fn task_rates(ops: &[Op]) -> Vec<f64> {
    ops.iter().map(|op| op.tasks as f64 / op.wall_s()).collect()
}

/// Human-readable summary of the untraced operations, including the
/// workload-specific figures that are not end-to-end metrics.
fn summarize(workload: Workload, ops: &[Op]) {
    let walls_ms: Vec<f64> = walls(ops).iter().map(|w| w * 1e3).collect();
    println!(
        "{} operations of {}: wall p50 {:.3} ms, p95 {:.3} ms, max {:.3} ms",
        ops.len(),
        workload.name(),
        quantile(&walls_ms, 0.5),
        quantile(&walls_ms, 0.95),
        quantile(&walls_ms, 1.0),
    );
    if let Some(cell) = ops.first().and_then(|op| op.cell.as_ref()) {
        println!(
            "cell: submitted {} marked {} shed {} kills {} restarts {} reclaims {} \
             degraded_ticks {} fingerprint {:#018x}",
            cell.submitted,
            cell.marked,
            cell.shed,
            cell.kills,
            cell.restarts,
            cell.reclaims,
            cell.degraded_ticks,
            cell.fingerprint()
        );
        println!(
            "marked_per_s {:.1} (median over cells), shed_frac {:.5}, latency_p99_model_ms {:.1}",
            median(&task_rates(ops)),
            ratio(cell.shed as f64, cell.submitted as f64),
            cell.latency.p99()
        );
    }
}

fn end_to_end(args: &Args) -> Run {
    let (mut bench, rt, setup_s) = setup(args.workload, args.seed);
    let ops = run_for(&mut bench, rt, args.seconds);
    summarize(args.workload, &ops);
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("tasks_per_s", median(&task_rates(&ops)), "1/s"),
        Metric::new("op_p50_ms", median(&walls(&ops)) * 1e3, "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    Run { ops, metrics }
}

fn per_layer(args: &Args) -> Run {
    let marking = args.workload != Workload::TaskTree;
    let (mut bench, rt, _) = setup(args.workload, args.seed);

    // Untraced reference.
    let before = rt.stats();
    let probes = rt.idle_probes();
    let t = Instant::now();
    let reference = run_on(
        &mut bench,
        &rt,
        t + Duration::from_secs_f64(args.seconds / 2.0),
        MIN_OPS,
    );
    let reference_s = t.elapsed().as_secs_f64();
    let after = rt.stats();
    let idle_probes = (rt.idle_probes() - probes) as f64;
    let steal_wait_ms = rt.latencies().steal_wait_ms;
    summarize(args.workload, &reference);

    // The same operations, traced.
    let chunk = if marking { 1 } else { TREES_PER_CHUNK };
    let (traced, attribution) = run_traced(&mut bench, reference.len(), chunk, marking);
    println!("{}", attribution.render());

    // The pipeline figures come from the workload's own cells, or from
    // a short probe cell when the workload marks nothing.
    let (probe_ops, probe_attribution) = if marking {
        (Vec::new(), None)
    } else {
        let mut probe = Bench::probe(args.seed);
        let untraced = probe.run_op(&rt, &TraceHandle::disabled());
        let (traced, attribution) = run_traced(&mut probe, 1, 1, true);
        println!("pipeline probe cell:\n{}", attribution.render());
        (
            std::iter::once(untraced).chain(traced).collect(),
            Some(attribution),
        )
    };
    let (cells, cell_attribution) = match &probe_attribution {
        Some(a) => (&probe_ops[..1], a),
        None => (&reference[..], &attribution),
    };
    let cohort_seed = cells[0]
        .cell
        .as_ref()
        .expect("cell operations carry reports")
        .seed;
    let mut metrics = layers::suite(&rt, ops::tree_seed(args.seed), cohort_seed);
    rt.shutdown();
    let seq_per_s = metrics
        .iter()
        .find(|m| m.name == "pipeline.seq_marked_per_s")
        .map_or(0.0, |m| m.value);

    let executed = (after.executed - before.executed) as f64;
    let share = |n: u64, m: u64| ratio((n - m) as f64, executed);
    let busy = ratio(
        attribution.worker_busy_ns as f64,
        (WORKERS as u64 * attribution.call_ns) as f64,
    );
    metrics.extend([
        Metric::new(
            "partask.steal_ratio",
            share(after.steals, before.steals),
            "frac",
        ),
        Metric::new(
            "partask.help_ratio",
            share(after.helped, before.helped),
            "frac",
        ),
        Metric::new(
            "partask.local_pop_ratio",
            share(after.local_pops, before.local_pops),
            "frac",
        ),
        Metric::new("partask.steal_wait_p50_us", steal_wait_ms.p50() * 1e3, "us"),
        Metric::new("partask.steal_wait_p99_us", steal_wait_ms.p99() * 1e3, "us"),
        Metric::new("partask.worker_busy_frac", busy, "frac"),
        Metric::new(
            "partask.idle_probes_per_s",
            idle_probes / reference_s,
            "1/s",
        ),
    ]);
    metrics.extend(pipeline_metrics(cells, cell_attribution, seq_per_s));
    let overhead = median(&walls(&traced)) / median(&walls(&reference)) - 1.0;
    metrics.extend([
        Metric::new("trace.overhead_frac", overhead, "frac"),
        Metric::new("trace.events", attribution.events as f64, "count"),
        Metric::new("trace.dropped", attribution.dropped as f64, "count"),
    ]);
    let ops = reference
        .into_iter()
        .chain(traced)
        .chain(probe_ops)
        .collect();
    Run { ops, metrics }
}

/// `course::pipeline` figures from untraced cells and their traced
/// attribution. The Amdahl bound is `1 / (s + (1 - s) / workers)`.
fn pipeline_metrics(cells: &[Op], attribution: &Attribution, seq_per_s: f64) -> Vec<Metric> {
    let cell = cells[0]
        .cell
        .as_ref()
        .expect("cell operations carry reports");
    let serial = attribution.serial_ns as f64;
    let s = ratio(serial, serial + attribution.task_ns as f64);
    vec![
        Metric::new(
            "pipeline.tick_p50_ms",
            quantile(&attribution.tick_ms, 0.5),
            "ms",
        ),
        Metric::new(
            "pipeline.tick_p99_ms",
            quantile(&attribution.tick_ms, 0.99),
            "ms",
        ),
        Metric::new("pipeline.serial_frac", s, "frac"),
        Metric::new(
            "pipeline.amdahl_bound",
            1.0 / (s + (1.0 - s) / WORKERS as f64),
            "x",
        ),
        Metric::new(
            "pipeline.speedup_vs_seq",
            ratio(median(&task_rates(cells)), seq_per_s),
            "x",
        ),
        Metric::new("pipeline.kills", cell.kills as f64, "count"),
        Metric::new("pipeline.restarts", cell.restarts as f64, "count"),
        Metric::new("pipeline.reclaims", cell.reclaims as f64, "count"),
        Metric::new(
            "pipeline.shed_frac",
            ratio(cell.shed as f64, cell.submitted as f64),
            "frac",
        ),
    ]
}

fn emit(run: &Run) -> bool {
    let failed = run.ops.iter().filter(|op| !op.failures.is_empty()).count();
    for op in &run.ops {
        for failure in &op.failures {
            eprintln!("CHECK FAILED: {failure}");
        }
    }
    println!(
        "failed_frac {:.6} ({failed} of {} operations)",
        ratio(failed as f64, run.ops.len() as f64),
        run.ops.len()
    );
    let mut json = String::new();
    for (i, m) in run.metrics.iter().enumerate() {
        println!("metric {:<30} {:>18.6} {}", m.name, m.value, m.unit);
        json.push_str(&format!(
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        failed == 0,
        run.ops.len()
    );
    failed == 0
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <mark-steady|mark-storm|task-tree> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} seed {} seconds {} trace {} ({WORKERS} workers, {} CPUs available)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let run = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    if emit(&run) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
