//! Phase-structured seeded fault storms.
//!
//! A [`FaultStorm`] strings several [`FaultPlan`]s into a named
//! narrative — calm, then a disruption with a characteristic shape,
//! then recovery. Soak harnesses walk the phases in order, running one
//! unit of work per phase, so a storm describes *how a system degrades
//! and heals over time* rather than a single stationary failure rate.
//!
//! Everything is derived from the storm's root seed: phase `i` gets
//! the sub-seed `SplitMix64::mix(seed ^ i)`, so two storms built from
//! the same `(shape, seed)` drive bit-identical fault decisions. The
//! three shipped shapes mirror the outage taxonomy the resilience
//! lectures use:
//!
//! * **burst** — a short total outage: brief, very high failure rates,
//!   then a clean recovery.
//! * **brownout** — a long partial degradation: moderate error rates
//!   plus heavy latency inflation, stressing load shedding.
//! * **flapping** — a dependency that alternates between healthy and
//!   failing on a fixed attempt cadence, stressing breaker hysteresis.

use parc_util::rng::SplitMix64;

use crate::inject::{FaultInjector, FaultPlan};

/// One phase of a storm: a fault plan plus the load-model knobs the
/// serving layer should apply while the phase is active.
#[derive(Clone, Debug)]
pub struct StormPhase {
    /// Human-readable phase name (`"calm"`, `"peak"`, ...).
    pub label: &'static str,
    /// Faults injected while this phase is active.
    pub plan: FaultPlan,
    /// Multiplier on modelled request latency (1.0 = nominal).
    pub latency_factor: f64,
    /// Deadline budget (model milliseconds) used for load shedding:
    /// requests predicted to exceed it are shed rather than served.
    pub shed_budget_ms: f64,
}

impl StormPhase {
    /// The phase's fault stream for one `lane` (a replica, a marker):
    /// the phase plan re-seeded per lane, so lanes fail independently
    /// but reproducibly.
    #[must_use]
    pub fn injector(&self, lane: u64) -> FaultInjector {
        let mut plan = self.plan.clone();
        plan.seed = SplitMix64::mix(plan.seed ^ 0xBEEF ^ (lane << 8));
        FaultInjector::new(plan)
    }
}

/// A named, seeded sequence of [`StormPhase`]s.
#[derive(Clone, Debug)]
pub struct FaultStorm {
    /// Storm shape name (`"burst"`, `"brownout"`, `"flapping"`).
    pub name: &'static str,
    /// Root seed all phase sub-seeds derive from.
    pub seed: u64,
    /// Phases, walked in order by the harness.
    pub phases: Vec<StormPhase>,
}

impl FaultStorm {
    /// The sub-seed for phase `index`: a pure function of the storm
    /// seed, so phases are independent streams yet fully replayable.
    #[must_use]
    pub fn phase_seed(seed: u64, index: u64) -> u64 {
        SplitMix64::mix(seed ^ index)
    }

    /// A short total outage: one calm warm-up phase, one peak phase
    /// where most attempts fail outright, then a clean recovery.
    #[must_use]
    pub fn burst(seed: u64) -> Self {
        let phase = |i: u64| Self::phase_seed(seed, i);
        Self {
            name: "burst",
            seed,
            phases: vec![
                StormPhase {
                    label: "calm",
                    plan: FaultPlan::reliable(phase(0)),
                    latency_factor: 1.0,
                    shed_budget_ms: 250.0,
                },
                StormPhase {
                    label: "peak",
                    plan: FaultPlan::reliable(phase(1))
                        .with_error_rate(0.55)
                        .with_timeout_rate(0.15)
                        .with_panic_rate(0.05),
                    latency_factor: 2.0,
                    shed_budget_ms: 250.0,
                },
                StormPhase {
                    label: "recovery",
                    plan: FaultPlan::reliable(phase(2)).with_error_rate(0.05),
                    latency_factor: 1.0,
                    shed_budget_ms: 250.0,
                },
            ],
        }
    }

    /// A long partial degradation: two brownout phases with moderate
    /// error rates but heavy latency inflation and a tight shedding
    /// budget, bracketed by calm and recovery.
    #[must_use]
    pub fn brownout(seed: u64) -> Self {
        let phase = |i: u64| Self::phase_seed(seed, i);
        let dim = |s: u64| {
            FaultPlan::reliable(s)
                .with_error_rate(0.2)
                .with_timeout_rate(0.1)
                .with_latency_spikes(0.5, 120.0)
        };
        Self {
            name: "brownout",
            seed,
            phases: vec![
                StormPhase {
                    label: "calm",
                    plan: FaultPlan::reliable(phase(0)),
                    latency_factor: 1.0,
                    shed_budget_ms: 250.0,
                },
                StormPhase {
                    label: "dim",
                    plan: dim(phase(1)),
                    latency_factor: 4.0,
                    shed_budget_ms: 120.0,
                },
                StormPhase {
                    label: "dimmer",
                    plan: dim(phase(2)).with_error_rate(0.35),
                    latency_factor: 6.0,
                    shed_budget_ms: 80.0,
                },
                StormPhase {
                    label: "recovery",
                    plan: FaultPlan::reliable(phase(3)).with_error_rate(0.05),
                    latency_factor: 1.5,
                    shed_budget_ms: 250.0,
                },
            ],
        }
    }

    /// A flapping dependency: the peak phase gates its (high) failure
    /// rates through [`FaultPlan::with_flapping`], so retries land in
    /// alternating healthy and failing windows — the pattern that
    /// defeats single-probe circuit breakers.
    #[must_use]
    pub fn flapping(seed: u64) -> Self {
        let phase = |i: u64| Self::phase_seed(seed, i);
        Self {
            name: "flapping",
            seed,
            phases: vec![
                StormPhase {
                    label: "calm",
                    plan: FaultPlan::reliable(phase(0)),
                    latency_factor: 1.0,
                    shed_budget_ms: 250.0,
                },
                StormPhase {
                    label: "flap",
                    plan: FaultPlan::reliable(phase(1))
                        .with_error_rate(0.9)
                        .with_flapping(4, 2),
                    latency_factor: 1.5,
                    shed_budget_ms: 200.0,
                },
                StormPhase {
                    label: "flap-fast",
                    plan: FaultPlan::reliable(phase(2))
                        .with_error_rate(0.9)
                        .with_timeout_rate(0.2)
                        .with_flapping(2, 1),
                    latency_factor: 2.0,
                    shed_budget_ms: 150.0,
                },
                StormPhase {
                    label: "recovery",
                    plan: FaultPlan::reliable(phase(3)),
                    latency_factor: 1.0,
                    shed_budget_ms: 250.0,
                },
            ],
        }
    }

    /// Every shipped storm shape, all derived from `seed`.
    #[must_use]
    pub fn all(seed: u64) -> Vec<Self> {
        vec![
            Self::burst(seed),
            Self::brownout(seed),
            Self::flapping(seed),
        ]
    }

    /// The phase active at `step` of a harness that walks `total`
    /// equally sized steps across the whole storm — how continuous
    /// load schedules (one step per traffic tick) overlay the phase
    /// narrative. Steps split evenly; the last phase absorbs any
    /// remainder, and out-of-range steps clamp to the final phase.
    ///
    /// # Panics
    /// If the storm has no phases (shipped shapes always do).
    #[must_use]
    pub fn phase_at(&self, step: usize, total: usize) -> &StormPhase {
        assert!(!self.phases.is_empty(), "storm has no phases");
        let n = self.phases.len();
        let total = total.max(1);
        let idx = (step.min(total - 1) * n) / total;
        &self.phases[idx.min(n - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{Fault, FaultInjector};

    #[test]
    fn same_seed_builds_identical_storms() {
        for (a, b) in FaultStorm::all(0xC0FFEE)
            .into_iter()
            .zip(FaultStorm::all(0xC0FFEE))
        {
            assert_eq!(a.name, b.name);
            assert_eq!(a.phases.len(), b.phases.len());
            for (pa, pb) in a.phases.iter().zip(&b.phases) {
                assert_eq!(pa.label, pb.label);
                assert_eq!(pa.plan.seed, pb.plan.seed);
                assert!((pa.latency_factor - pb.latency_factor).abs() < f64::EPSILON);
                assert!((pa.shed_budget_ms - pb.shed_budget_ms).abs() < f64::EPSILON);
                let ia = FaultInjector::new(pa.plan.clone());
                let ib = FaultInjector::new(pb.plan.clone());
                for key in 0..64 {
                    for attempt in 1..4 {
                        assert_eq!(ia.decide(key, attempt), ib.decide(key, attempt));
                    }
                }
            }
        }
    }

    #[test]
    fn phases_have_distinct_sub_seeds() {
        for storm in FaultStorm::all(7) {
            let mut seeds: Vec<u64> = storm.phases.iter().map(|p| p.plan.seed).collect();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(
                seeds.len(),
                storm.phases.len(),
                "{}: seed collision",
                storm.name
            );
        }
    }

    #[test]
    fn storms_start_calm_and_end_in_recovery() {
        for storm in FaultStorm::all(99) {
            assert!(storm.phases.len() >= 3, "{} too short", storm.name);
            let first = &storm.phases[0];
            assert_eq!(first.label, "calm");
            let calm = FaultInjector::new(first.plan.clone());
            assert!((0..100).all(|k| calm.decide(k, 1) == Fault::None));
            let last = storm.phases.last().unwrap();
            assert!(last.label.starts_with("recovery"), "{}", storm.name);
            assert!(last.plan.panic_rate == 0.0);
        }
    }

    #[test]
    fn peak_phases_actually_inject() {
        for storm in FaultStorm::all(123) {
            let worst = storm
                .phases
                .iter()
                .max_by(|a, b| {
                    let ra = a.plan.error_rate + a.plan.timeout_rate;
                    let rb = b.plan.error_rate + b.plan.timeout_rate;
                    ra.partial_cmp(&rb).unwrap()
                })
                .unwrap();
            let inj = FaultInjector::new(worst.plan.clone());
            let failures = (0..200).filter(|&k| inj.decide(k, 1).is_failure()).count();
            assert!(failures > 20, "{}: peak phase barely faults", storm.name);
        }
    }

    #[test]
    fn phase_at_covers_every_phase_in_order() {
        for storm in FaultStorm::all(0xA11) {
            let total = 40;
            let mut seen = Vec::new();
            let mut last_idx = 0usize;
            for step in 0..total {
                let phase = storm.phase_at(step, total);
                let idx = storm
                    .phases
                    .iter()
                    .position(|p| std::ptr::eq(p, phase))
                    .unwrap();
                assert!(idx >= last_idx, "phases must advance monotonically");
                last_idx = idx;
                if seen.last() != Some(&idx) {
                    seen.push(idx);
                }
            }
            assert_eq!(
                seen,
                (0..storm.phases.len()).collect::<Vec<_>>(),
                "{}: every phase must get steps",
                storm.name
            );
            // Clamping: past-the-end steps stay in the final phase.
            assert_eq!(
                storm.phase_at(total + 5, total).label,
                storm.phases.last().unwrap().label
            );
        }
    }

    #[test]
    fn lanes_draw_independent_reproducible_streams() {
        let peak = &FaultStorm::burst(0x1A4E).phases[1];
        let draws = |lane: u64| -> Vec<Fault> {
            let inj = peak.injector(lane);
            (0..64).map(|key| inj.decide(key, 1)).collect()
        };
        assert_eq!(
            draws(3),
            draws(3),
            "a lane's stream is a pure function of the phase"
        );
        assert_ne!(draws(0), draws(1), "lanes must not share a stream");
    }

    #[test]
    fn different_seeds_make_different_storms() {
        let a = FaultStorm::burst(1);
        let b = FaultStorm::burst(2);
        assert_ne!(a.phases[1].plan.seed, b.phases[1].plan.seed);
    }
}
