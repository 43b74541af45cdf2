//! The three workloads: their inputs (from the seed), their set-up and
//! warm-up, and one timed, checked operation each.

use std::time::Instant;

use course::pipeline::{run_cell, CellReport, PipelineConfig};
use faultsim::{FaultPlan, FaultStorm, StormPhase};
use parc_loadgen::ArrivalProcess;
use parc_trace::TraceHandle;
use parc_util::rng::SplitMix64;
use partask::{RuntimeHandle, TaskError, TaskRuntime};

/// Worker threads of every runtime the benchmark builds, sized for a
/// 2-CPU machine.
pub const WORKERS: usize = 2;
/// Levels of one fork-join tree; every node is a task.
pub const TREE_LEVELS: u32 = 12;
/// Tasks per tree: every node of a full binary tree of `TREE_LEVELS`.
pub const TREE_TASKS: u64 = (1 << TREE_LEVELS) - 1;
/// Hash rounds each leaf runs.
const LEAF_ROUNDS: u32 = 32;
/// Arrival ticks of one timed marking cell.
const CELL_TICKS: u32 = 60;
/// Arrival ticks of the warm-up cell.
const WARMUP_TICKS: u32 = 3;
/// Mean arrivals per tick (the E-MARK cell shape).
pub const RATE_PER_TICK: f64 = 2400.0;
/// Trees the warm-up runs.
const WARMUP_TREES: usize = 8;
/// Arrival ticks of the pipeline probe cell.
const PROBE_TICKS: u32 = 6;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MarkSteady,
    MarkStorm,
    TaskTree,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "mark-steady" => Some(Self::MarkSteady),
            "mark-storm" => Some(Self::MarkStorm),
            "task-tree" => Some(Self::TaskTree),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::MarkSteady => "mark-steady",
            Self::MarkStorm => "mark-storm",
            Self::TaskTree => "task-tree",
        }
    }
}

pub fn runtime(trace: &TraceHandle) -> TaskRuntime {
    TaskRuntime::builder()
        .workers(WORKERS)
        .name("bench")
        .trace(trace)
        .build()
}

/// One timed operation: a marking cell or a fork-join tree.
pub struct Op {
    /// Before the call into the library.
    pub start: Instant,
    /// Around the library call itself; `call_end - call_start` is the
    /// operation's wall time.
    pub call_start: Instant,
    pub call_end: Instant,
    /// After the checks.
    pub end: Instant,
    /// partask tasks the operation executed.
    pub tasks: u64,
    /// The cell's report (marking workloads).
    pub cell: Option<CellReport>,
    /// Failed correctness checks.
    pub failures: Vec<String>,
}

impl Op {
    pub fn wall_s(&self) -> f64 {
        (self.call_end - self.call_start).as_secs_f64()
    }
}

/// A marking cell's inputs: arrival process, storm and configuration.
#[derive(Clone)]
pub struct MarkShape {
    arrival: ArrivalProcess,
    storm: FaultStorm,
    cfg: PipelineConfig,
    stormy: bool,
}

impl MarkShape {
    pub fn new(workload: Workload, seed: u64, ticks: u32) -> Self {
        let cfg = PipelineConfig {
            seed: SplitMix64::mix(seed ^ 0x3A4B),
            arrival_ticks: ticks,
            spot_every: 0,
            ..PipelineConfig::default()
        };
        let storm_seed = SplitMix64::mix(seed ^ 0x5707);
        match workload {
            Workload::MarkStorm => Self {
                arrival: ArrivalProcess::all(RATE_PER_TICK, ticks as usize)[2],
                storm: FaultStorm::burst(storm_seed),
                cfg,
                stormy: true,
            },
            _ => Self {
                arrival: ArrivalProcess::PoissonSteady {
                    rate: RATE_PER_TICK,
                },
                storm: FaultStorm {
                    name: "calm",
                    seed: storm_seed,
                    phases: vec![StormPhase {
                        label: "calm",
                        plan: FaultPlan::reliable(storm_seed),
                        latency_factor: 1.0,
                        shed_budget_ms: 250.0,
                    }],
                },
                cfg,
                stormy: false,
            },
        }
    }
}

/// A workload ready to run operations, with the reference values its
/// checks compare against.
// One `Bench` exists per run, so the variants' size difference is moot.
#[allow(clippy::large_enum_variant)]
pub enum Bench {
    Mark {
        shape: MarkShape,
        warmup: MarkShape,
        fingerprint: Option<u64>,
    },
    Tree {
        leaf_seed: u64,
        expected: u64,
    },
}

impl Bench {
    pub fn new(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::TaskTree => {
                let leaf_seed = tree_seed(seed);
                Self::Tree {
                    leaf_seed,
                    expected: recurse(leaf_seed, 0, 0),
                }
            }
            mark => Self::Mark {
                shape: MarkShape::new(mark, seed, CELL_TICKS),
                warmup: MarkShape::new(mark, seed, WARMUP_TICKS),
                fingerprint: None,
            },
        }
    }

    /// A short calm cell: the pipeline probe the tree workload's traced
    /// run marks to fill the `pipeline.*` metrics.
    pub fn probe(seed: u64) -> Self {
        let shape = MarkShape::new(Workload::MarkSteady, seed, PROBE_TICKS);
        Self::Mark {
            warmup: shape.clone(),
            shape,
            fingerprint: None,
        }
    }

    /// The untimed warm-up: a short cell, or a few trees.
    pub fn warm_up(&mut self, rt: &TaskRuntime) {
        match self {
            Self::Mark { warmup, .. } => {
                let _ = run_cell(
                    rt,
                    &warmup.arrival,
                    &warmup.storm,
                    &warmup.cfg,
                    &TraceHandle::disabled(),
                );
            }
            Self::Tree { .. } => {
                for _ in 0..WARMUP_TREES {
                    let _ = self.run_op(rt, &TraceHandle::disabled());
                }
            }
        }
    }

    /// Run and check one operation on `rt`, recording through `trace`
    /// where the library takes a trace handle.
    pub fn run_op(&mut self, rt: &TaskRuntime, trace: &TraceHandle) -> Op {
        let start = Instant::now();
        // Counters settle only at quiescence: a previous batch's last
        // task may still be counting itself.
        rt.wait_quiescent();
        let before = rt.stats();
        match self {
            Self::Mark {
                shape, fingerprint, ..
            } => {
                let call_start = Instant::now();
                let report = run_cell(rt, &shape.arrival, &shape.storm, &shape.cfg, trace);
                let call_end = Instant::now();
                rt.wait_quiescent();
                let tasks = rt.stats().executed - before.executed;
                let mut failures = report.violations();
                let fp = report.fingerprint();
                if *fingerprint.get_or_insert(fp) != fp {
                    failures.push(format!("fingerprint {fp:#x} differs from the first cell's"));
                }
                if tasks != report.marked {
                    failures.push(format!(
                        "{tasks} tasks executed for {} marked",
                        report.marked
                    ));
                }
                if shape.stormy {
                    if report.kills == 0 || report.restarts == 0 || report.reclaims == 0 {
                        failures.push(format!(
                            "storm not exercised: kills {} restarts {} reclaims {}",
                            report.kills, report.restarts, report.reclaims
                        ));
                    }
                } else if report.kills != 0 {
                    failures.push(format!("{} kills in a calm cell", report.kills));
                }
                Op {
                    start,
                    call_start,
                    call_end,
                    end: Instant::now(),
                    tasks,
                    cell: Some(report),
                    failures,
                }
            }
            Self::Tree {
                leaf_seed,
                expected,
            } => {
                let expected = *expected;
                let call_start = Instant::now();
                let sum = spawn_tree(rt, *leaf_seed);
                let call_end = Instant::now();
                rt.wait_quiescent();
                let after = rt.stats();
                let (spawned, tasks) = (
                    after.spawned - before.spawned,
                    after.executed - before.executed,
                );
                let mut failures = Vec::new();
                match sum {
                    Ok(sum) if sum == expected => {}
                    Ok(sum) => {
                        failures.push(format!("tree sum {sum:#x} != recursion {expected:#x}"))
                    }
                    Err(e) => failures.push(format!("tree root failed: {e:?}")),
                }
                if spawned != TREE_TASKS || tasks != spawned {
                    failures.push(format!(
                        "spawned {spawned}, executed {tasks}, expected {TREE_TASKS} each"
                    ));
                }
                Op {
                    start,
                    call_start,
                    call_end,
                    end: Instant::now(),
                    tasks,
                    cell: None,
                    failures,
                }
            }
        }
    }
}

fn leaf(seed: u64, index: u64) -> u64 {
    let mut x = seed ^ index;
    for _ in 0..LEAF_ROUNDS {
        x = SplitMix64::mix(x);
    }
    x
}

/// One tree node as a task: spawn both children from inside the worker
/// and join them.
fn node(handle: &RuntimeHandle, seed: u64, level: u32, index: u64) -> u64 {
    if level + 1 == TREE_LEVELS {
        return leaf(seed, index);
    }
    let (left_h, right_h) = (handle.clone(), handle.clone());
    let left = handle.spawn(move || node(&left_h, seed, level + 1, 2 * index));
    let right = handle.spawn(move || node(&right_h, seed, level + 1, 2 * index + 1));
    let left = left.join().expect("left child completes");
    let right = right.join().expect("right child completes");
    left.wrapping_add(right)
}

/// The same tree computed by plain recursion on one thread.
pub fn recurse(seed: u64, level: u32, index: u64) -> u64 {
    if level + 1 == TREE_LEVELS {
        return leaf(seed, index);
    }
    recurse(seed, level + 1, 2 * index).wrapping_add(recurse(seed, level + 1, 2 * index + 1))
}

/// The seed a tree workload would use; the layer suite times the same
/// tree on every workload.
pub fn tree_seed(seed: u64) -> u64 {
    SplitMix64::mix(seed ^ 0x7EE)
}

/// Spawn one tree's root on `rt` and join it.
pub fn spawn_tree(rt: &TaskRuntime, leaf_seed: u64) -> Result<u64, TaskError> {
    let handle = rt.handle();
    rt.spawn(move || node(&handle, leaf_seed, 0, 0)).join()
}
