//! Cohort-scale submission generation and the marking stages.
//!
//! Submissions are real directive programs from
//! `parc_analyze::genprog` — seeded per `(cell, tick)`, so a cohort
//! of millions is reproducible bit-for-bit without ever being held in
//! memory at once. Each submission is attributed to a synthetic
//! student, sharded by a seeded hash, and marked by the three-stage
//! pipeline: static lint ([`parc_analyze::analyze`]), an optional
//! explorer spot-check on a sampled subset, and rubric scoring
//! ([`crate::assessment::score_analysis`]).

use parc_analyze::diag::Code;
use parc_analyze::genprog::{self, DEADLOCK_CLASS, RACE_CLASS};
use parc_explore::Config;
use parc_util::rng::SplitMix64;

use crate::assessment::{score_analysis, AutoMarkRubric, MarkScore};

/// One generated submission, before admission assigns its ledger id.
#[derive(Clone, Debug)]
pub struct Submission {
    /// The synthetic student who submitted it.
    pub student: u32,
    /// Generator family (`"race/plain"` etc.), for the report.
    pub family: &'static str,
    /// The program text.
    pub source: String,
}

/// Generate the submissions arriving on one tick of one cell:
/// `count` seeded programs, each attributed to a student. Pure in
/// `(seed, tick, count)`, so reruns and different worker pools see
/// the identical cohort.
#[must_use]
pub fn generate_tick(seed: u64, tick: u32, count: usize, students: u32) -> Vec<Submission> {
    let tick_seed = SplitMix64::mix(seed ^ (u64::from(tick) << 20).wrapping_add(0x51D));
    genprog::generate(tick_seed, count)
        .into_iter()
        .map(|p| Submission {
            student: (SplitMix64::mix(tick_seed ^ (p.index as u64).rotate_left(13)) % u64::from(students.max(1)))
                as u32,
            family: p.family,
            source: p.source,
        })
        .collect()
}

/// The seeded shard hash: which of `shards` queues submission `id`
/// lands in.
#[must_use]
pub fn shard_for(shard_seed: u64, id: u64, shards: u16) -> u16 {
    (SplitMix64::mix(shard_seed ^ id.rotate_left(29)) % u64::from(shards.max(1))) as u16
}

/// Is submission `id` sampled for the expensive explorer spot-check?
/// One in `spot_every` submissions, chosen by seeded hash so the
/// sample is stable across reruns, pool sizes, and re-claims.
#[must_use]
pub fn spot_eligible(spot_seed: u64, id: u64, spot_every: u64) -> bool {
    spot_every != 0 && SplitMix64::mix(spot_seed ^ id.rotate_left(47)).is_multiple_of(spot_every)
}

/// What the explorer spot-check concluded about one submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpotVerdict {
    /// Every dynamic finding was covered by a static claim.
    Agree,
    /// The explorer witnessed a race or deadlock the static analysis
    /// never claimed — a soundness bug, reported loudly.
    MissedFinding,
}

/// The full marking result for one submission, computed inside the
/// `spawn_batch` fan-out. Pure: no shared state, deterministic for a
/// given source.
#[derive(Clone, Copy, Debug)]
pub struct MarkResult {
    /// The rubric score.
    pub score: MarkScore,
    /// Model-milliseconds of marking service time (lint + scoring,
    /// plus the spot-check premium when one ran).
    pub service_ms: f64,
    /// The spot-check verdict, when one ran.
    pub spot: Option<SpotVerdict>,
}

/// Mark one submission end to end: lint, optional spot-check, score.
#[must_use]
pub fn mark_submission(source: &str, rubric: &AutoMarkRubric, run_spot: bool) -> MarkResult {
    let analysis = parc_analyze::analyze(source);
    let score = score_analysis(&analysis, rubric);
    // Model service time: a lint+score costs ~2 model-ms; an explorer
    // spot-check is the expensive stage at ~40 model-ms. These are
    // model constants (deterministic), not wall-clock measurements.
    let mut service_ms = 2.0;
    let mut spot = None;
    if run_spot {
        service_ms += 40.0;
        spot = Some(match &analysis.program {
            Some(program) => {
                let report =
                    parc_analyze::bridge::explore_program(program, Config::fuzz("spot-check"));
                let dynamic_race = !report.races.is_empty();
                let dynamic_deadlock = report.deadlocks > 0;
                let claims = |class: &[Code]| {
                    analysis.diagnostics.iter().any(|d| class.contains(&d.code))
                };
                if (dynamic_race && !claims(&RACE_CLASS))
                    || (dynamic_deadlock && !claims(&DEADLOCK_CLASS))
                {
                    SpotVerdict::MissedFinding
                } else {
                    SpotVerdict::Agree
                }
            }
            // An unparseable submission has nothing to explore; the
            // parse diagnostics themselves are the static claim.
            None => SpotVerdict::Agree,
        });
    }
    MarkResult { score, service_ms, spot }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_reproducible_and_attributed() {
        let a = generate_tick(0xC0DE, 7, 50, 4000);
        let b = generate_tick(0xC0DE, 7, 50, 4000);
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.source, y.source);
            assert_eq!(x.student, y.student);
            assert_eq!(x.family, y.family);
            assert!(x.student < 4000);
        }
        // Different ticks draw different programs.
        let c = generate_tick(0xC0DE, 8, 50, 4000);
        assert!(a.iter().zip(&c).any(|(x, y)| x.source != y.source));
    }

    #[test]
    fn sharding_is_stable_and_in_range() {
        for id in 0..1000 {
            let s = shard_for(42, id, 8);
            assert!(s < 8);
            assert_eq!(s, shard_for(42, id, 8));
        }
        // The hash actually spreads: all 8 shards hit within 1k ids.
        let hit: std::collections::BTreeSet<u16> =
            (0..1000).map(|id| shard_for(42, id, 8)).collect();
        assert_eq!(hit.len(), 8);
    }

    #[test]
    fn spot_sampling_is_sparse_and_stable() {
        let hits: Vec<u64> = (0..10_000).filter(|&id| spot_eligible(7, id, 512)).collect();
        assert!(!hits.is_empty() && hits.len() < 100, "{} hits", hits.len());
        for &id in &hits {
            assert!(spot_eligible(7, id, 512), "stable across calls");
        }
        assert!(!spot_eligible(7, hits[0], 0), "spot_every=0 disables sampling");
    }

    #[test]
    fn marking_a_generated_program_spot_checks_cleanly() {
        // A couple of generated programs through the full stage stack:
        // the PR 9 engine promises no missed dynamic findings.
        let rubric = AutoMarkRubric::default();
        for sub in generate_tick(0xFEED, 0, 4, 100) {
            let result = mark_submission(&sub.source, &rubric, true);
            assert_eq!(result.spot, Some(SpotVerdict::Agree), "family {}", sub.family);
            assert!(result.score.mark >= 0.0 && result.score.mark <= 100.0);
            assert!(result.service_ms > 40.0, "spot premium applied");
        }
        let cheap = mark_submission("x = 1;\n", &rubric, false);
        assert!(cheap.spot.is_none());
        assert!(cheap.service_ms < 40.0);
    }
}
