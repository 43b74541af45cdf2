//! Chaos-soak cells: supervised course workloads under fault storms.
//!
//! One **cell** = one [`FaultStorm`] shape × one [`RestartPolicy`].
//! Inside the cell a [`Supervisor`] runs three children drawn from the
//! student projects — the resilient crawler (E10), parallel quicksort
//! (E2) and the imaging filter pipeline (E1/E3) — while each child
//! walks the storm's phases doing one unit of work per phase. Children
//! additionally fail on a *scripted, seeded schedule* (failures at
//! their first `n` incarnations), so restart budgets, backoff and
//! escalation are all exercised deterministically.
//!
//! Determinism contract (pinned by `tests/supervise.rs`):
//!
//! * [`SoakCellReport::fingerprint`] is bit-identical across reruns
//!   with the same seed **and across worker-pool sizes** — it contains
//!   only schedule-independent facts: the scripted failure counts, the
//!   per-phase crawl accounting (static page partitioning makes it a
//!   pure function of the seeds), per-child final outcomes, and — for
//!   one-for-one cells, where no cross-child races exist — the full
//!   canonical supervision event log.
//! * All-for-one cells *do* race (which of two near-simultaneous
//!   failures triggers the collective restart is timing-dependent), so
//!   their fingerprints deliberately omit event details; correctness
//!   there is enforced by [`SoakCellReport::violations`]'s conservation
//!   identities, which hold on every schedule.
//!
//! The storm matrix, soak example (`examples/chaos_soak.rs`) and the
//! E-SOAK record in EXPERIMENTS.md all route through
//! [`run_soak_cell`].

use std::sync::Arc;
use std::time::Duration;

use faultsim::{FaultInjector, FaultStorm, RetryPolicy};
use parc_supervise::{ChildError, RestartPolicy, SupervisionReport, Supervisor};
use parc_util::rng::SplitMix64;
use parking_lot::Mutex;
use partask::TaskRuntime;
use pyjama::{Team, TeamError};
use websim::{ResilientConfig, ResilientCrawler, ResilientReport, ServerConfig, SimServer};

/// Restarts each child may use before escalation (`max_attempts - 1`).
pub const SOAK_RESTART_BUDGET: u32 = 2;

/// Pages in each phase's simulated page set.
const SOAK_PAGES: usize = 40;

/// Scripted failure count for `child` in the `storm` cell seeded
/// `seed`: the child fails its first `n` incarnations, then does real
/// work. The storm name is folded into the draw so different cells of
/// the same matrix exercise different schedules. Under one-for-one the
/// range `0..=budget+1` includes schedules that *escalate*; under
/// all-for-one escalation would cancel the whole cell at a racy point,
/// so schedules stay within budget there and escalation is exercised
/// by the one-for-one cells and unit tests.
#[must_use]
pub fn scripted_failures(seed: u64, storm: &str, child: u64, policy: RestartPolicy) -> u32 {
    let h = storm
        .bytes()
        .fold(seed, |h, b| SplitMix64::mix(h ^ u64::from(b)));
    let r = SplitMix64::mix(h ^ (child + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let modulus = match policy {
        RestartPolicy::OneForOne => u64::from(SOAK_RESTART_BUDGET) + 2,
        RestartPolicy::AllForOne => u64::from(SOAK_RESTART_BUDGET) + 1,
    };
    u32::try_from(r % modulus).expect("modulus is tiny")
}

/// Everything one soak cell produced.
#[derive(Clone, Debug)]
pub struct SoakCellReport {
    /// Storm shape name.
    pub storm_name: &'static str,
    /// Supervision policy of the cell.
    pub policy: RestartPolicy,
    /// Cell seed (drives storm plans, page sets, scripted failures).
    pub seed: u64,
    /// Worker-pool size used (excluded from the fingerprint).
    pub workers: usize,
    /// Phases the storm had.
    pub phases: usize,
    /// Scripted failure counts per child (crawler, quicksort, pipeline).
    pub scripted: [u32; 3],
    /// The supervision run.
    pub supervision: SupervisionReport,
    /// Per-phase crawl accounting from the resilient crawler's final
    /// complete pass over the storm.
    pub crawl: Vec<ResilientReport>,
    /// Did the runtime drain to quiescence within its budget?
    pub drained: bool,
    /// Jobs still live when the drain budget expired (0 when drained).
    pub leftover: usize,
    /// Tasks spawned on the cell's runtime over its whole life.
    pub spawned: u64,
    /// Task bodies executed (== `spawned` at quiescence).
    pub executed: u64,
}

impl SoakCellReport {
    /// Expected number of restarts/budget charges for child `i` under
    /// one-for-one (where nothing interferes with the schedule).
    fn expected_charges(&self, i: usize) -> u32 {
        self.scripted[i].min(SOAK_RESTART_BUDGET)
    }

    /// Conservation and accounting violations; empty means the cell is
    /// sound. Checks hold on *every* schedule, including the racy
    /// all-for-one interleavings.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let mut bad = self.supervision.conservation_violations();
        let mut check = |ok: bool, msg: String| {
            if !ok {
                bad.push(msg);
            }
        };
        // Every spawned child accounted for, with the outcome its
        // scripted schedule demands.
        for (i, c) in self.supervision.children.iter().enumerate() {
            let should_escalate = self.scripted[i] > SOAK_RESTART_BUDGET;
            check(
                c.escalated == should_escalate,
                format!(
                    "{}: escalated={} but scripted {} failures against budget {}",
                    c.name, c.escalated, self.scripted[i], SOAK_RESTART_BUDGET
                ),
            );
            if should_escalate {
                check(
                    c.final_outcome().is_failure(),
                    format!("{}: escalated child must end in failure", c.name),
                );
            } else {
                check(
                    c.final_outcome() == parc_supervise::ChildOutcome::Completed,
                    format!(
                        "{}: expected completion, got {}",
                        c.name,
                        c.final_outcome().name()
                    ),
                );
            }
            if self.policy == RestartPolicy::OneForOne {
                check(
                    c.restarts == self.expected_charges(i),
                    format!(
                        "{}: one-for-one restarts {} != scripted {}",
                        c.name,
                        c.restarts,
                        self.expected_charges(i)
                    ),
                );
                check(
                    c.budget_used == self.expected_charges(i),
                    format!(
                        "{}: one-for-one budget_used {} != scripted {}",
                        c.name,
                        c.budget_used,
                        self.expected_charges(i)
                    ),
                );
            }
        }
        // The crawler's final pass covered the whole storm — unless
        // its scripted schedule escalated it, in which case no pass
        // ever completed and the slot must still be empty. Either way,
        // every recorded phase accounts each page exactly once.
        if self.scripted[0] > SOAK_RESTART_BUDGET {
            check(
                self.crawl.is_empty(),
                format!(
                    "escalated crawler still recorded {} phases",
                    self.crawl.len()
                ),
            );
        } else {
            check(
                self.crawl.len() == self.phases,
                format!(
                    "crawl covered {} of {} phases",
                    self.crawl.len(),
                    self.phases
                ),
            );
        }
        for r in &self.crawl {
            check(
                r.fresh + r.stale + r.unavailable == r.pages.len(),
                format!(
                    "phase {}: {} fresh + {} stale + {} lost != {} pages",
                    r.epoch,
                    r.fresh,
                    r.stale,
                    r.unavailable,
                    r.pages.len()
                ),
            );
        }
        // Post-storm quiescence: no leaked tasks, no leaked threads.
        check(
            self.drained,
            format!("runtime failed to drain ({} leftover)", self.leftover),
        );
        check(
            self.spawned == self.executed,
            format!(
                "task conservation: spawned {} != executed {}",
                self.spawned, self.executed
            ),
        );
        bad
    }

    /// Did every invariant hold?
    #[must_use]
    pub fn invariants_ok(&self) -> bool {
        self.violations().is_empty()
    }

    /// The deterministic facts of this cell as one canonical string —
    /// equal across same-seed reruns and across worker-pool sizes.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut s = format!(
            "cell {} {} seed {:#x}\nscripted {:?}\n",
            self.storm_name,
            self.policy.name(),
            self.seed,
            self.scripted
        );
        for r in &self.crawl {
            s.push_str(&format!(
                "phase {}: fresh {} stale {} shed {} denied {} lost {} attempts {} \
                 coverage {:.4} staleness {:.4}\n",
                r.epoch,
                r.fresh,
                r.stale,
                r.shed,
                r.breaker_denied,
                r.unavailable,
                r.attempts_total,
                r.coverage(),
                r.staleness(),
            ));
        }
        for c in &self.supervision.children {
            s.push_str(&format!(
                "child {}: final {}",
                c.name,
                c.final_outcome().name()
            ));
            if self.policy == RestartPolicy::OneForOne {
                s.push_str(&format!(
                    " incarnations {} restarts {} budget_used {} escalated {}",
                    c.incarnations, c.restarts, c.budget_used, c.escalated
                ));
            }
            s.push('\n');
        }
        if self.policy == RestartPolicy::OneForOne {
            s.push_str("events:\n");
            s.push_str(&self.supervision.event_log());
        }
        s
    }

    /// Mean crawl coverage across phases, in `[0, 1]`.
    #[must_use]
    pub fn mean_coverage(&self) -> f64 {
        if self.crawl.is_empty() {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let n = self.crawl.len() as f64;
        self.crawl
            .iter()
            .map(ResilientReport::coverage)
            .sum::<f64>()
            / n
    }

    /// Worst (lowest) per-phase coverage; 0 when no pass completed.
    #[must_use]
    pub fn worst_coverage(&self) -> f64 {
        if self.crawl.is_empty() {
            return 0.0;
        }
        self.crawl
            .iter()
            .map(ResilientReport::coverage)
            .fold(1.0, f64::min)
    }
}

/// Scripted-failure gate shared by all three child bodies.
fn scripted_gate(ctx: &parc_supervise::ChildCtx, scripted: u32) -> Result<(), ChildError> {
    if ctx.incarnation <= scripted {
        return Err(ChildError::Failed(format!(
            "soak: scripted failure {} of {}",
            ctx.incarnation, scripted
        )));
    }
    Ok(())
}

/// Run one cell: `storm` under `policy`, seeded `seed`, on pools of
/// `workers` threads. The cell owns its runtime and team and drains
/// them to quiescence before reporting.
#[must_use]
pub fn run_soak_cell(
    storm: &FaultStorm,
    policy: RestartPolicy,
    seed: u64,
    workers: usize,
) -> SoakCellReport {
    let rt = Arc::new(TaskRuntime::builder().workers(workers).build());
    let team = Arc::new(Team::new(workers));
    let phases = storm.phases.clone();
    let scripted = [
        scripted_failures(seed, storm.name, 0, policy),
        scripted_failures(seed, storm.name, 1, policy),
        scripted_failures(seed, storm.name, 2, policy),
    ];

    // Baselines for the pipeline child, computed before supervision:
    // the filter chain is deterministic, so each phase must reproduce
    // these hashes exactly.
    let pipeline_images = Arc::new(imaging::gen::generate_folder(phases.len(), 24, 32, seed));
    let pipeline_filters: Arc<[imaging::Filter2D]> = Arc::from(
        [
            imaging::Filter2D::Grayscale,
            imaging::Filter2D::Brighten(12),
            imaging::Filter2D::BoxBlur(1),
        ]
        .as_slice(),
    );
    let pipeline_expected: Arc<Vec<u64>> = Arc::new(
        pipeline_images
            .iter()
            .map(|img| imaging::apply_pipeline(&team, img, &pipeline_filters).content_hash())
            .collect(),
    );

    let crawl_slot: Arc<Mutex<Vec<ResilientReport>>> = Arc::new(Mutex::new(Vec::new()));
    let sup_name = format!("soak-{}-{}", storm.name, policy.name());
    let builder = Supervisor::builder(&sup_name)
        .policy(policy)
        .restart_policy(
            RetryPolicy::fixed(Duration::from_millis(1)).with_max_attempts(SOAK_RESTART_BUDGET + 1),
        )
        .backoff_seed(seed)
        .backoff_time_scale(0.05)
        .child("crawler", {
            let rt = Arc::clone(&rt);
            let phases = phases.clone();
            let slot = Arc::clone(&crawl_slot);
            let scripted = scripted[0];
            move |ctx| {
                scripted_gate(ctx, scripted)?;
                // A fresh crawler per incarnation: partial passes
                // interrupted by all-for-one cancellation are
                // discarded, so the recorded reports are always one
                // *complete* walk of the storm — a pure function of
                // the seeds.
                let mut crawler = ResilientCrawler::new(ResilientConfig {
                    connections: 4,
                    retry: RetryPolicy::fixed(Duration::from_millis(2)).with_max_attempts(3),
                    breaker_threshold: 3,
                    breaker_cooldown: 4,
                    probe_successes: 2,
                });
                let mut reports = Vec::new();
                for phase in &phases {
                    if ctx.token.is_cancelled() {
                        return Err(ChildError::Cancelled);
                    }
                    let server = Arc::new(SimServer::with_faults(
                        ServerConfig {
                            pages: SOAK_PAGES,
                            time_scale: 2e-6,
                            seed,
                            ..ServerConfig::default()
                        },
                        FaultInjector::new(phase.plan.clone()),
                    ));
                    reports.push(crawler.crawl(
                        &rt,
                        &server,
                        phase.latency_factor,
                        phase.shed_budget_ms,
                    ));
                }
                *slot.lock() = reports;
                Ok(())
            }
        })
        .child("quicksort", {
            let rt = Arc::clone(&rt);
            let n_phases = phases.len();
            let scripted = scripted[1];
            move |ctx| {
                scripted_gate(ctx, scripted)?;
                for i in 0..n_phases {
                    if ctx.token.is_cancelled() {
                        return Err(ChildError::Cancelled);
                    }
                    let mut v = parsort::data::random(6_000, SplitMix64::mix(seed ^ i as u64));
                    let mut expected = v.clone();
                    expected.sort_unstable();
                    parsort::quicksort_partask(&rt, &mut v);
                    if v != expected {
                        return Err(ChildError::Failed(format!(
                            "quicksort verification failed in phase {i}"
                        )));
                    }
                }
                Ok(())
            }
        })
        .child("pipeline", {
            let team = Arc::clone(&team);
            let images = Arc::clone(&pipeline_images);
            let filters = Arc::clone(&pipeline_filters);
            let expected = Arc::clone(&pipeline_expected);
            let scripted = scripted[2];
            move |ctx| {
                scripted_gate(ctx, scripted)?;
                for (i, img) in images.iter().enumerate() {
                    if ctx.token.is_cancelled() {
                        return Err(ChildError::Cancelled);
                    }
                    let out = imaging::apply_pipeline(&team, img, &filters);
                    if out.content_hash() != expected[i] {
                        return Err(ChildError::Failed(format!(
                            "pipeline hash mismatch in phase {i}"
                        )));
                    }
                    // A cancellable pyjama region as the phase's
                    // cooperative cancellation point: members meet at
                    // the barrier, which observes the child token.
                    match team.try_parallel_cancellable(&ctx.token, |tctx| {
                        tctx.barrier();
                    }) {
                        Ok(()) => {}
                        Err(TeamError::Cancelled) => return Err(ChildError::Cancelled),
                        Err(other) => {
                            return Err(ChildError::Failed(format!(
                                "pipeline region failed: {other}"
                            )))
                        }
                    }
                }
                Ok(())
            }
        });
    let supervision = builder.run();

    drop((pipeline_images, pipeline_filters, pipeline_expected, team));
    let crawl = std::mem::take(&mut *crawl_slot.lock());
    let Ok(rt) = Arc::try_unwrap(rt) else {
        unreachable!("all supervised children joined; runtime uniquely owned")
    };
    let drain = rt.shutdown_graceful(Duration::from_secs(5));

    SoakCellReport {
        storm_name: storm.name,
        policy,
        seed,
        workers,
        phases: phases.len(),
        scripted,
        supervision,
        crawl,
        drained: drain.drained,
        leftover: drain.leftover,
        spawned: drain.stats.spawned,
        executed: drain.stats.executed,
    }
}

/// The full soak matrix: every storm shape × every restart policy.
#[must_use]
pub fn run_soak_matrix(seed: u64, workers: usize) -> Vec<SoakCellReport> {
    let mut cells = Vec::new();
    for storm in FaultStorm::all(seed) {
        for policy in [RestartPolicy::OneForOne, RestartPolicy::AllForOne] {
            cells.push(run_soak_cell(&storm, policy, seed, workers));
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_is_sound_and_deterministic() {
        faultsim::silence_injected_panics();
        let storm = FaultStorm::burst(0x50AC);
        let a = run_soak_cell(&storm, RestartPolicy::OneForOne, 0x50AC, 2);
        assert!(a.invariants_ok(), "violations: {:?}", a.violations());
        let b = run_soak_cell(&storm, RestartPolicy::OneForOne, 0x50AC, 4);
        assert!(b.invariants_ok(), "violations: {:?}", b.violations());
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "fingerprint must not depend on worker count"
        );
    }

    #[test]
    fn all_for_one_cell_is_sound() {
        faultsim::silence_injected_panics();
        let storm = FaultStorm::flapping(0xF1A9);
        let cell = run_soak_cell(&storm, RestartPolicy::AllForOne, 0xF1A9, 3);
        assert!(cell.invariants_ok(), "violations: {:?}", cell.violations());
        assert!(!cell.crawl.is_empty());
        assert!(cell.mean_coverage() > 0.0);
    }

    #[test]
    fn scripted_schedules_cover_escalation_only_under_one_for_one() {
        let mut saw_escalating = false;
        for seed in 0..64u64 {
            for storm in ["burst", "brownout", "flapping"] {
                for child in 0..3u64 {
                    let one = scripted_failures(seed, storm, child, RestartPolicy::OneForOne);
                    let all = scripted_failures(seed, storm, child, RestartPolicy::AllForOne);
                    assert!(one <= SOAK_RESTART_BUDGET + 1);
                    assert!(
                        all <= SOAK_RESTART_BUDGET,
                        "all-for-one must never escalate"
                    );
                    saw_escalating |= one > SOAK_RESTART_BUDGET;
                }
            }
        }
        assert!(saw_escalating, "some one-for-one schedule must escalate");
    }
}
