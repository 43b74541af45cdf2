//! `course::pipeline` — the fault-tolerant parallel auto-marking
//! pipeline: exactly-once marking of millions of generated
//! submissions under seeded fault storms.
//!
//! This is the paper's own workload (Section III-C assessment) at
//! production scale. Submissions are real directive programs from
//! [`parc_analyze::genprog`], arriving via a
//! [`parc_loadgen::ArrivalProcess`] (steady / diurnal /
//! flash-crowd-at-the-deadline); a seeded hash shards them into
//! bounded per-shard queues with explicit
//! [`faultsim::ShedReason`]-attributed backpressure; marker workers run
//! as [`parc_supervise::Guards`] under a **real** supervisor
//! (one-for-one, seeded restart budgets). Each tick, every live marker
//! claims its batch in turn, and one `partask`
//! [`TaskRuntime::spawn_batch`] fan-out runs the three marking stages —
//! parc-analyze lint, an explorer spot-check on a sampled subset, and
//! rubric scoring — over all of those batches at once, while the tick
//! thread generates the next tick's arrivals.
//!
//! # Exactly-once under storms
//!
//! [`faultsim::FaultStorm`] phases kill markers mid-batch. The
//! [`ledger::MarkLedger`] claim/complete checkpoint protocol makes
//! marking exactly-once anyway: a marker claims its batch, each
//! submission it marks is acked, and a kill tears up only the
//! *unacknowledged* tail — which the restarted incarnation (a real
//! supervised restart, gated on the supervisor actually granting it)
//! re-claims later. Stale acks from dead incarnations bounce off the
//! ledger. The final [`CellReport`] asserts the conservation
//! identities — `submitted == marked + shed`, zero in flight, zero
//! duplicates, per-shard and per-marker sums closing — and carries a
//! fingerprint that is bit-identical across reruns *and* worker-pool
//! sizes, because the model makes every decision sequentially and
//! parallelism lives only inside pure per-submission closures joined
//! in index order.
//!
//! # Graceful degradation
//!
//! Under backlog pressure (or once a marker escalates for good) the
//! pipeline sheds the *expensive* stage first: explorer spot-checks
//! are skipped, each skip counted as `spot_degraded` and the toggle
//! logged — degradation is always explicit and quantified, never
//! silent. Rubric marking itself is never skipped; admission-level
//! shedding is the only way a submission goes unmarked, and every
//! shed carries its cause.

pub mod cohort;
pub mod ledger;
pub mod report;

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use faultsim::{FaultStorm, RetryPolicy, ShedReason, StormPhase};
use parc_loadgen::ArrivalProcess;
use parc_supervise::{Guards, Supervisor};
use parc_trace::{LatencyHistogram, MarkKind, MarkingTag, SpanKind, TraceHandle};
use parc_util::fnv1a;
use parc_util::rng::{SplitMix64, Xoshiro256};
use partask::TaskRuntime;

use crate::assessment::AutoMarkRubric;
use cohort::{generate_tick, mark_submission, shard_for, spot_eligible, SpotVerdict};
use ledger::MarkLedger;
pub use report::{CellReport, MarkerStats, ShardStats};

/// Everything a pipeline cell needs beyond its arrival process and
/// storm. All sizes are model knobs; determinism never depends on
/// them being "right", only conservation and throughput do.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Root seed; every stream below derives from it.
    pub seed: u64,
    /// Bounded submission queues (seeded-hash sharded).
    pub shards: u16,
    /// Supervised marker workers.
    pub markers: u32,
    /// Submissions one marker claims per tick.
    pub batch_per_marker: usize,
    /// Per-shard queue capacity; arrivals beyond it are shed
    /// (`queue_full`).
    pub queue_cap: usize,
    /// Ticks during which submissions arrive.
    pub arrival_ticks: u32,
    /// Extra ticks allowed to drain the backlog before the remainder
    /// is shed (`drain_overrun`).
    pub drain_max_ticks: u32,
    /// Model-milliseconds per tick (latency accounting only).
    pub tick_ms: f64,
    /// One in `spot_every` submissions gets the expensive explorer
    /// spot-check (0 disables the stage).
    pub spot_every: u64,
    /// Queued-submission backlog above which the expensive stage is
    /// degraded.
    pub degrade_backlog: usize,
    /// Supervised restarts each marker may use before its next kill
    /// escalates and its shards are reassigned.
    pub restart_budget: u32,
    /// Synthetic cohort size submissions are attributed to.
    pub students: u32,
    /// The marking rubric.
    pub rubric: AutoMarkRubric,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            seed: 0x751_0C0DE,
            shards: 8,
            markers: 4,
            batch_per_marker: 900,
            queue_cap: 1500,
            arrival_ticks: 60,
            drain_max_ticks: 40,
            tick_ms: 250.0,
            spot_every: 4096,
            degrade_backlog: 2500,
            restart_budget: 25,
            students: 4000,
            rubric: AutoMarkRubric::default(),
        }
    }
}

/// Run one cell — one arrival process crossed with one fault storm —
/// to completion and return its conservation-checked report.
///
/// Deterministic contract: the report's
/// [`CellReport::fingerprint`] depends only on `(arrival, storm,
/// cfg)`; the worker count of `rt` and wall-clock timing never leak
/// in, because the tick loop owns all state sequentially and
/// `spawn_batch` results are joined in index order.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_cell(
    rt: &TaskRuntime,
    arrival: &ArrivalProcess,
    storm: &FaultStorm,
    cfg: &PipelineConfig,
    trace: &TraceHandle,
) -> CellReport {
    assert!(
        cfg.markers > 0 && cfg.shards > 0 && cfg.batch_per_marker > 0 && cfg.students > 0,
        "PipelineConfig: markers, shards, batch_per_marker and students must all be > 0"
    );
    let started = std::time::Instant::now();
    let cell_seed = SplitMix64::mix(
        cfg.seed ^ fnv1a(arrival.name().as_bytes()).rotate_left(17) ^ fnv1a(storm.name.as_bytes()),
    );
    let shard_seed = SplitMix64::mix(cell_seed ^ 0x5AAD);
    let spot_seed = SplitMix64::mix(cell_seed ^ 0x590F);
    let mut arrivals_rng = Xoshiro256::seed_from_u64(SplitMix64::mix(cell_seed ^ 0xA221));

    let pid = trace.register_track(&format!("pipeline/{}/{}", arrival.name(), storm.name));
    // One supervised guard per marker: a storm kill *is* the guard's
    // failure, and the model's restart is gated on the supervisor
    // actually granting one.
    let guards = Guards::spawn(
        Supervisor::builder("marker-pool")
            .restart_policy(
                RetryPolicy::fixed(Duration::from_millis(1))
                    .with_max_attempts(cfg.restart_budget + 1),
            )
            .backoff_seed(cell_seed)
            .backoff_time_scale(1e-3)
            .trace(trace),
        (0..cfg.markers).map(|m| format!("marker-{m}")),
    );

    let mut ledger = MarkLedger::new();
    // Sources and student attribution, indexed by ledger id; a source
    // moves out when its submission is fanned out for marking and is
    // dropped when it is shed, bounding memory to the queued backlog.
    let mut sources: Vec<String> = Vec::new();
    let mut students_of: Vec<u32> = Vec::new();
    let mut queues: Vec<VecDeque<u64>> = (0..cfg.shards).map(|_| VecDeque::new()).collect();

    let mut shard_stats = vec![ShardStats::default(); cfg.shards as usize];
    let mut marker_stats = vec![MarkerStats::default(); cfg.markers as usize];
    let mut incarnation = vec![1u32; cfg.markers as usize];
    let mut alive = vec![true; cfg.markers as usize];
    // Shard ownership: recomputed round-robin over live markers when
    // one escalates.
    let mut owner: Vec<u32> = (0..cfg.shards).map(|s| u32::from(s) % cfg.markers).collect();

    let mut best_mark = vec![-1.0_f32; cfg.students as usize];
    let mut latency = LatencyHistogram::new(1.0, 1e7, 8);
    let mut events: Vec<String> = Vec::new();
    let mut mark_digest = 0u64;
    let (mut kills, mut restarts, mut escalations) = (0u64, 0u64, 0u64);
    let (mut spot_elig, mut spot_run, mut spot_deg, mut spot_missed) = (0u64, 0u64, 0u64, 0u64);
    let mut degraded_ticks = 0u32;
    let mut was_degraded = false;
    let mut last_phase: Option<&'static str> = None;

    let total_ticks = cfg.arrival_ticks as usize;
    let rubric = Arc::new(cfg.rubric.clone());
    // One arrival sample and one generated cohort per arrival tick, in
    // tick order: tick 0's here, every later tick's during the
    // previous tick's marking fan-out.
    let mut arrivals_at = move |tick: u32| {
        let n = arrival.sample(tick as usize, &mut arrivals_rng);
        generate_tick(cell_seed, tick, n, cfg.students)
    };
    let mut arriving = if cfg.arrival_ticks > 0 { arrivals_at(0) } else { Vec::new() };
    let mut tick = 0u32;
    loop {
        let phase = storm.phase_at(tick as usize, total_ticks);
        if last_phase != Some(phase.label) {
            events.push(format!("tick {tick:03} phase {}", phase.label));
            last_phase = Some(phase.label);
        }
        let _tick_span = trace.span(pid, SpanKind::MarkingTick { tick: u64::from(tick) });

        // ---- arrivals: shard, admit or shed ----
        if tick < cfg.arrival_ticks {
            let mut shed_this_tick = 0u32;
            for sub in std::mem::take(&mut arriving) {
                // Ledger ids are dense and admission-ordered, so the
                // shard hash can be computed before admitting.
                let shard = shard_for(shard_seed, ledger.admitted(), cfg.shards);
                let id = ledger.admit(shard, tick);
                debug_assert_eq!(id as usize, sources.len());
                let st = &mut shard_stats[shard as usize];
                st.arrived += 1;
                if queues[shard as usize].len() >= cfg.queue_cap {
                    ledger.shed(id, ShedReason::QueueFull);
                    st.shed_full += 1;
                    shed_this_tick += 1;
                    sources.push(String::new());
                    students_of.push(sub.student);
                } else {
                    queues[shard as usize].push_back(id);
                    st.enqueued += 1;
                    st.peak_depth = st.peak_depth.max(queues[shard as usize].len() as u64);
                    sources.push(sub.source);
                    students_of.push(sub.student);
                }
            }
            if shed_this_tick > 0 {
                trace.mark(
                    pid,
                    MarkKind::MarkingStage {
                        stage: MarkingTag::Shed,
                        lane: 0,
                        count: shed_this_tick,
                    },
                );
            }
        }

        // ---- degradation decision (backlog or escalations) ----
        let backlog: usize = queues.iter().map(VecDeque::len).sum();
        let degraded = backlog > cfg.degrade_backlog || escalations > 0;
        if degraded != was_degraded {
            events.push(format!(
                "tick {tick:03} degradation {} (backlog {backlog}, escalations {escalations})",
                if degraded { "ON: shedding explorer spot-checks" } else { "off" }
            ));
            was_degraded = degraded;
        }
        if degraded {
            degraded_ticks += 1;
        }

        // ---- claim: each live marker's batch, in marker order ----
        // Prefix sources move into `items`; `lanes` holds each marker's
        // (marker, claiming incarnation, prefix length). A kill is
        // settled here, before the next marker claims: an escalation
        // hands the dead marker's shards, reclaimed tail included, to
        // later markers in this same tick.
        let mut items: Vec<(u64, String, bool)> = Vec::new();
        let mut lanes: Vec<(u32, u32, usize)> = Vec::new();
        for m in 0..cfg.markers {
            if !alive[m as usize] {
                continue;
            }
            // Assemble this marker's batch round-robin over its
            // shards, front of each queue.
            let my_shards: Vec<u16> =
                (0..cfg.shards).filter(|&s| owner[s as usize] == m).collect();
            if my_shards.is_empty() {
                continue;
            }
            let mut batch: Vec<u64> = Vec::with_capacity(cfg.batch_per_marker);
            'fill: loop {
                let mut any = false;
                for &s in &my_shards {
                    if let Some(id) = queues[s as usize].pop_front() {
                        batch.push(id);
                        any = true;
                        if batch.len() == cfg.batch_per_marker {
                            break 'fill;
                        }
                    }
                }
                if !any {
                    break;
                }
            }
            if batch.is_empty() {
                continue;
            }
            let inc = incarnation[m as usize];
            for &id in &batch {
                assert!(ledger.claim(id, m, inc), "queued work must be claimable");
            }
            trace.mark(
                pid,
                MarkKind::MarkingStage {
                    stage: MarkingTag::Claim,
                    lane: m,
                    count: batch.len() as u32,
                },
            );

            // The storm's verdict on this marker, decided *before*
            // the batch runs so killed work is genuinely never
            // computed by this incarnation: a kill cuts the batch at
            // a deterministic point, the prefix is marked and acked
            // under the claiming incarnation, the tail goes back to
            // the queues for a later claim.
            let killed = storm_kills_marker(phase, cell_seed, m, tick);
            let cut = if killed {
                (SplitMix64::mix(cell_seed ^ (u64::from(tick) << 24) ^ u64::from(m))
                    % batch.len() as u64) as usize
            } else {
                batch.len()
            };
            items.extend(batch[..cut].iter().map(|&id| {
                let run_spot = spot_eligible(spot_seed, id, cfg.spot_every) && !degraded;
                (id, std::mem::take(&mut sources[id as usize]), run_spot)
            }));
            lanes.push((m, inc, cut));

            if killed {
                kills += 1;
                marker_stats[m as usize].kills += 1;
                let tail = &batch[cut..];
                events.push(format!(
                    "tick {tick:03} marker {m} killed mid-batch (acked {cut}, reclaiming {})",
                    tail.len()
                ));
                trace.mark(
                    pid,
                    MarkKind::MarkingStage {
                        stage: MarkingTag::Reclaim,
                        lane: m,
                        count: tail.len() as u32,
                    },
                );
                // Tear up the unacked tail: back to the front of its
                // shard queues (reverse order preserves FIFO).
                for &id in tail.iter().rev() {
                    ledger.reclaim(id, m, inc);
                    marker_stats[m as usize].reclaimed += 1;
                    queues[ledger.shard_of(id) as usize].push_front(id);
                }
                if marker_stats[m as usize].kills > u64::from(cfg.restart_budget) {
                    // Budget exhausted: the real supervisor escalates
                    // (no restart); the marker is dead for good and
                    // its shards are reassigned to the survivors.
                    guards.kill(m as usize);
                    alive[m as usize] = false;
                    marker_stats[m as usize].escalated = true;
                    escalations += 1;
                    events.push(format!(
                        "tick {tick:03} marker {m} escalated after {} kills; shards reassigned",
                        marker_stats[m as usize].kills
                    ));
                    reassign_shards(&mut owner, &alive);
                } else {
                    // A real supervised restart: the model does not
                    // proceed until the supervisor has granted it.
                    guards.kill(m as usize);
                    let next = guards.await_restart(m as usize);
                    assert_eq!(next, inc + 1, "incarnations are dense");
                    incarnation[m as usize] = next;
                    restarts += 1;
                    marker_stats[m as usize].restarts += 1;
                    // The restarted marker sits out the rest of this
                    // tick; its reclaimed work is waiting in the
                    // queues for the next one.
                }
            }
        }

        // ---- mark: one pure fan-out over every prefix ----
        // While the workers mark, this thread generates the next
        // tick's arrivals. Generation stays off the pool, so partask
        // runs exactly one task per marked submission.
        let items = Arc::new(items);
        let worker_items = Arc::clone(&items);
        let rubric = Arc::clone(&rubric);
        let marking = rt.spawn_batch(items.len(), move |i| {
            let (_, source, run_spot) = &worker_items[i];
            mark_submission(source, &rubric, *run_spot)
        });
        if tick + 1 < cfg.arrival_ticks {
            arriving = arrivals_at(tick + 1);
        }
        let mut results = items.iter().zip(marking.join());

        // ---- ack: sequential, (marker, index) order ----
        // This order is what makes acks (and the digest) pool-size
        // independent.
        for (m, inc, len) in lanes {
            for (&(id, _, ran_spot), res) in results.by_ref().take(len) {
                let result = res.expect("marking closures neither panic nor cancel");
                assert!(ledger.ack(id, m, inc), "prefix acks cannot be stale");
                marker_stats[m as usize].marked += 1;
                shard_stats[ledger.shard_of(id) as usize].served += 1;
                let wait_ticks = f64::from(tick - ledger.arrival_tick_of(id));
                latency.record(
                    (wait_ticks * cfg.tick_ms + result.service_ms * phase.latency_factor)
                        .max(1.0),
                );
                mark_digest =
                    report::fold_mark_digest(mark_digest, id, result.score.mark.to_bits());
                let student = students_of[id as usize] as usize;
                best_mark[student] = best_mark[student].max(result.score.mark as f32);
                if spot_eligible(spot_seed, id, cfg.spot_every) {
                    spot_elig += 1;
                    if ran_spot {
                        spot_run += 1;
                        trace.mark(
                            pid,
                            MarkKind::MarkingStage { stage: MarkingTag::Spot, lane: m, count: 1 },
                        );
                        if result.spot == Some(SpotVerdict::MissedFinding) {
                            spot_missed += 1;
                        }
                    } else {
                        spot_deg += 1;
                        trace.mark(
                            pid,
                            MarkKind::MarkingStage {
                                stage: MarkingTag::Degraded,
                                lane: m,
                                count: 1,
                            },
                        );
                    }
                }
                if ledger.was_reclaimed(id) {
                    trace.mark(
                        pid,
                        MarkKind::MarkingStage { stage: MarkingTag::Redone, lane: m, count: 1 },
                    );
                }
            }
            if len > 0 {
                trace.mark(
                    pid,
                    MarkKind::MarkingStage { stage: MarkingTag::Ack, lane: m, count: len as u32 },
                );
            }
        }

        // ---- termination ----
        let backlog: usize = queues.iter().map(VecDeque::len).sum();
        if tick + 1 >= cfg.arrival_ticks && backlog == 0 {
            tick += 1;
            break;
        }
        if tick + 1 >= cfg.arrival_ticks + cfg.drain_max_ticks {
            // Drain window closed: shed the remainder, attributed.
            let mut shed = 0u64;
            for s in 0..cfg.shards {
                while let Some(id) = queues[s as usize].pop_front() {
                    ledger.shed(id, ShedReason::DrainOverrun);
                    shard_stats[s as usize].shed_drain += 1;
                    sources[id as usize] = String::new();
                    shed += 1;
                }
            }
            if shed > 0 {
                events.push(format!("tick {tick:03} drain window closed: shed {shed} queued"));
                trace.mark(
                    pid,
                    MarkKind::MarkingStage {
                        stage: MarkingTag::Shed,
                        lane: 0,
                        count: shed as u32,
                    },
                );
            }
            tick += 1;
            break;
        }
        tick += 1;
    }

    let supervision = guards.finish();
    for (m, stat) in marker_stats.iter_mut().enumerate() {
        stat.final_incarnation = incarnation[m];
    }

    // Cohort roll-up: per-student best marks, sequential fold.
    let mut students_marked = 0u64;
    let mut best_sum = 0.0_f64;
    for &b in &best_mark {
        if b >= 0.0 {
            students_marked += 1;
            best_sum += f64::from(b);
        }
    }
    let cohort_mean_best = if students_marked > 0 {
        best_sum / students_marked as f64
    } else {
        0.0
    };

    CellReport {
        arrival: arrival.name(),
        storm: storm.name,
        seed: cell_seed,
        submitted: ledger.admitted(),
        marked: ledger.marked(),
        shed: ledger.shed_total(),
        claims: ledger.claims(),
        reclaims: ledger.reclaims(),
        redone: ledger.redone(),
        duplicates: ledger.duplicate_acks_rejected(),
        stale_acks: ledger.stale_acks_rejected(),
        in_flight: ledger.in_flight(),
        kills,
        restarts,
        escalations,
        ticks: tick,
        degraded_ticks,
        spot_eligible: spot_elig,
        spot_run,
        spot_degraded: spot_deg,
        spot_missed,
        students_marked,
        cohort_mean_best,
        mark_digest,
        shards: shard_stats,
        markers: marker_stats,
        latency,
        events,
        supervision,
        ledger_violations: ledger.conservation_violations(),
        elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

/// Does the storm kill marker `m` on this tick? Pure in
/// `(phase, seed, m, tick)`. The phase's fault plan drives the
/// decision (storm peaks kill often, calm phases never), thinned 4×
/// so markers spend most of a storm marking rather than restarting.
fn storm_kills_marker(phase: &StormPhase, seed: u64, m: u32, tick: u32) -> bool {
    let fault = phase.injector(u64::from(m)).decide(u64::from(m), tick + 1);
    fault.is_failure()
        && SplitMix64::mix(seed ^ (u64::from(tick) << 32) ^ u64::from(m).rotate_left(51))
            .is_multiple_of(4)
}

/// Round-robin the shards over the surviving markers (deterministic:
/// shard index order over live marker index order).
fn reassign_shards(owner: &mut [u32], alive: &[bool]) {
    let live: Vec<u32> = (0..alive.len() as u32).filter(|&m| alive[m as usize]).collect();
    if live.is_empty() {
        return; // final shed path will drain the queues
    }
    for (s, o) in owner.iter_mut().enumerate() {
        *o = live[s % live.len()];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(seed: u64) -> PipelineConfig {
        PipelineConfig {
            seed,
            shards: 4,
            markers: 2,
            batch_per_marker: 40,
            queue_cap: 120,
            arrival_ticks: 12,
            drain_max_ticks: 10,
            spot_every: 64,
            degrade_backlog: 200,
            restart_budget: 10,
            students: 100,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn small_cell_conserves_and_marks_everything_reachable() {
        let rt = TaskRuntime::builder().workers(2).build();
        let cfg = small_cfg(7);
        let arrival = ArrivalProcess::PoissonSteady { rate: 50.0 };
        let storm = FaultStorm::burst(0xB00);
        let report =
            run_cell(&rt, &arrival, &storm, &cfg, &parc_trace::TraceHandle::default());
        assert!(report.violations().is_empty(), "violations: {:?}", report.violations());
        assert!(report.submitted > 300, "submitted {}", report.submitted);
        assert_eq!(report.submitted, report.marked + report.shed);
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.in_flight, 0);
    }

    #[test]
    fn kills_mid_batch_never_lose_or_double_mark() {
        let rt = TaskRuntime::builder().workers(3).build();
        let cfg = small_cfg(0xD1E);
        let arrival = ArrivalProcess::PoissonSteady { rate: 60.0 };
        // Burst storm: the peak phase kills hard.
        let storm = FaultStorm::burst(0x5707);
        let report =
            run_cell(&rt, &arrival, &storm, &cfg, &parc_trace::TraceHandle::default());
        assert!(report.violations().is_empty(), "violations: {:?}", report.violations());
        assert!(report.kills > 0, "the storm must actually kill markers");
        assert!(report.restarts > 0, "kills must flow through supervised restarts");
        assert!(report.reclaims > 0, "mid-batch kills must tear up unacked claims");
        assert!(report.redone > 0, "reclaimed work must be genuinely re-marked");
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.stale_acks, 0);
        // The real supervision tree saw the same story.
        assert_eq!(u64::from(report.supervision.restarts_total), report.restarts);
    }

    #[test]
    fn fingerprints_are_identical_across_pools_and_reruns() {
        let cfg = small_cfg(0xF1F0);
        let arrival = ArrivalProcess::FlashCrowd {
            base: 30.0,
            peak: 120.0,
            at_tick: 4,
            decay_ticks: 3,
        };
        let storm = FaultStorm::flapping(0xF1A9);
        let run = |workers: usize| {
            let rt = TaskRuntime::builder().workers(workers).build();
            run_cell(&rt, &arrival, &storm, &cfg, &parc_trace::TraceHandle::default())
        };
        let base = run(1);
        assert!(base.violations().is_empty(), "violations: {:?}", base.violations());
        let rerun = run(1);
        assert_eq!(base.fingerprint(), rerun.fingerprint(), "rerun diverged");
        let wide = run(4);
        assert_eq!(
            base.fingerprint(),
            wide.fingerprint(),
            "worker-pool size leaked into the model:\n{}",
            diff_hint(&base.render_deterministic(), &wide.render_deterministic())
        );
    }

    #[test]
    fn exhausted_budget_escalates_and_reassigns_shards() {
        let rt = TaskRuntime::builder().workers(2).build();
        let mut cfg = small_cfg(0xE5C);
        cfg.restart_budget = 0; // first kill escalates
        cfg.arrival_ticks = 16;
        let arrival = ArrivalProcess::PoissonSteady { rate: 60.0 };
        let storm = FaultStorm::burst(0xE5C4);
        let report =
            run_cell(&rt, &arrival, &storm, &cfg, &parc_trace::TraceHandle::default());
        assert!(report.violations().is_empty(), "violations: {:?}", report.violations());
        assert!(report.escalations > 0, "budget 0 must escalate on the first kill");
        assert!(report.supervision.has_escalations());
        assert!(!report.supervision.escalated_children().is_empty());
        // Submissions kept getting marked by the survivors.
        assert!(report.marked > 0);
        assert_eq!(report.submitted, report.marked + report.shed);
        assert!(report.events.iter().any(|e| e.contains("shards reassigned")));
    }

    #[test]
    fn degradation_is_explicit_and_quantified() {
        let rt = TaskRuntime::builder().workers(2).build();
        let mut cfg = small_cfg(0xDE6);
        // Tiny backlog threshold and dense sampling: degradation is
        // guaranteed under a flash crowd.
        cfg.degrade_backlog = 20;
        cfg.spot_every = 8;
        cfg.batch_per_marker = 25;
        let arrival =
            ArrivalProcess::FlashCrowd { base: 40.0, peak: 200.0, at_tick: 3, decay_ticks: 4 };
        let storm = FaultStorm::brownout(0xDE64);
        let report =
            run_cell(&rt, &arrival, &storm, &cfg, &parc_trace::TraceHandle::default());
        assert!(report.violations().is_empty(), "violations: {:?}", report.violations());
        assert!(report.degraded_ticks > 0, "flash crowd must trigger degradation");
        assert!(report.spot_degraded > 0, "skipped spot-checks must be counted");
        assert_eq!(report.spot_eligible, report.spot_run + report.spot_degraded);
        assert!(
            report.events.iter().any(|e| e.contains("degradation ON")),
            "the toggle must be logged: {:?}",
            report.events
        );
    }

    #[test]
    fn pipeline_stages_are_traced() {
        let col = parc_trace::Collector::new();
        let rt = TaskRuntime::builder().workers(2).build();
        let cfg = small_cfg(0x7124);
        let arrival = ArrivalProcess::PoissonSteady { rate: 50.0 };
        let storm = FaultStorm::burst(0x7124);
        let report = run_cell(&rt, &arrival, &storm, &cfg, &col.handle());
        assert!(report.violations().is_empty());
        let counts = col.snapshot().counts_by_name();
        assert!(counts.get("mark.claim").copied().unwrap_or(0) > 0);
        assert!(counts.get("mark.ack").copied().unwrap_or(0) > 0);
        assert!(counts.get("mark.tick").copied().unwrap_or(0) > 0);
        if report.kills > 0 {
            assert!(counts.get("mark.reclaim").copied().unwrap_or(0) > 0);
        }
        // Supervision marks flow through the same collector.
        assert!(counts.get("sup.child_start").copied().unwrap_or(0) > 0);
    }

    #[test]
    #[should_panic(expected = "students must all be > 0")]
    fn a_cell_without_students_is_refused_up_front() {
        let rt = TaskRuntime::builder().workers(1).build();
        let cfg = PipelineConfig { students: 0, ..small_cfg(1) };
        let arrival = ArrivalProcess::PoissonSteady { rate: 10.0 };
        let _ = run_cell(&rt, &arrival, &FaultStorm::burst(1), &cfg, &TraceHandle::disabled());
    }

    fn diff_hint(a: &str, b: &str) -> String {
        for (la, lb) in a.lines().zip(b.lines()) {
            if la != lb {
                return format!("first divergence:\n  a: {la}\n  b: {lb}");
            }
        }
        "renderings equal-length prefix".to_string()
    }
}
