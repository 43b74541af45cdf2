//! Materialised traffic: a whole run's arrivals decided up front
//! (open loop).

use parc_util::rng::{SplitMix64, Xoshiro256};

use crate::arrival::{ArrivalProcess, Popularity};

/// Knobs of an open-loop traffic trace.
#[derive(Clone, Debug)]
pub struct TrafficConfig {
    /// Seed for both the arrival sampler and the popularity draw.
    pub seed: u64,
    /// Number of ticks to generate.
    pub ticks: usize,
    /// Zipf exponent for page popularity (0 = uniform).
    pub zipf_s: f64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self { seed: 0x074A_FF1C, ticks: 48, zipf_s: 0.9 }
    }
}

/// An open-loop run: the page requested by every arrival of every
/// tick, fixed before the cluster sees any of it. Open-loop traffic
/// does not slow down when the tier degrades — which is exactly why
/// it needs shedding.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficTrace {
    /// `ticks[t]` = pages requested at tick `t`, in arrival order.
    pub ticks: Vec<Vec<usize>>,
}

impl TrafficTrace {
    /// Generate the trace for `process` under `cfg` over a catalogue
    /// of `pages` pages (pass the serving tier's own page count). Same
    /// `(process, cfg, pages)` → identical trace, always.
    #[must_use]
    pub fn generate(process: &ArrivalProcess, cfg: &TrafficConfig, pages: usize) -> Self {
        let mut arrivals =
            Xoshiro256::seed_from_u64(SplitMix64::mix(cfg.seed ^ 0xA44));
        let mut picks = Xoshiro256::seed_from_u64(SplitMix64::mix(cfg.seed ^ 0xBEE));
        let pop = Popularity::zipf(cfg.seed, pages, cfg.zipf_s);
        let ticks = (0..cfg.ticks)
            .map(|t| {
                let n = process.sample(t, &mut arrivals);
                (0..n).map(|_| pop.sample(&mut picks)).collect()
            })
            .collect();
        Self { ticks }
    }

    /// Total requests across all ticks.
    #[must_use]
    pub fn total_requests(&self) -> usize {
        self.ticks.iter().map(Vec::len).sum()
    }

    /// The largest single-tick burst.
    #[must_use]
    pub fn peak_tick(&self) -> usize {
        self.ticks.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_reproducible_and_seed_sensitive() {
        let cfg = TrafficConfig { seed: 0xAB, ticks: 24, zipf_s: 0.9 };
        let p = ArrivalProcess::PoissonSteady { rate: 15.0 };
        let a = TrafficTrace::generate(&p, &cfg, 80);
        let b = TrafficTrace::generate(&p, &cfg, 80);
        assert_eq!(a, b, "same seed, same trace");
        let other = TrafficTrace::generate(&p, &TrafficConfig { seed: 0xAC, ..cfg }, 80);
        assert_ne!(a, other, "different seed, different trace");
        assert!(a.total_requests() > 200, "15/tick × 24 ticks should top 200");
    }

    #[test]
    fn flash_crowd_trace_has_its_spike() {
        let cfg = TrafficConfig { seed: 0xF1A5, ticks: 30, zipf_s: 0.0 };
        let p = ArrivalProcess::FlashCrowd { base: 5.0, peak: 60.0, at_tick: 10, decay_ticks: 5 };
        let trace = TrafficTrace::generate(&p, &cfg, 80);
        let pre: usize = trace.ticks[..10].iter().map(Vec::len).sum();
        let surge: usize = trace.ticks[10..15].iter().map(Vec::len).sum();
        #[allow(clippy::cast_precision_loss)]
        let (pre_rate, surge_rate) = (pre as f64 / 10.0, surge as f64 / 5.0);
        assert!(
            surge_rate > pre_rate * 3.0,
            "surge rate {surge_rate} should dwarf pre-rate {pre_rate}"
        );
        assert!(trace.peak_tick() >= 30, "peak tick should reflect the crowd");
    }
}
