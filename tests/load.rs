//! Integration tests for the sharded web tier and its load generator:
//! the E-LOAD acceptance gates as pinned tests.
//!
//! The headline invariant: a replica killed mid-storm and restarted
//! under `parc-supervise` loses **zero acknowledged pages** — every
//! page the balancer acked to a client stays readable from a
//! surviving owner's store. Plus hedge dedup (each hedge accounted
//! exactly once, no double-count in the per-replica serve tallies),
//! full conservation of the request ledger, bit-identical reports
//! across worker-pool sizes, and property tests over the consistent-
//! hash ring (balance within 2×, ejection moves only the ejected
//! replica's pages).

use faultsim::FaultStorm;
use parc_loadgen::{ArrivalProcess, TrafficConfig, TrafficTrace};
use partask::TaskRuntime;
use proptest::prelude::*;
use websim::cluster::{Cluster, ClusterConfig, ClusterReport, HashRing, OutageScript};
use websim::server::ServerConfig;

fn tier_cfg(seed: u64) -> ClusterConfig {
    ClusterConfig {
        replicas: 4,
        replication: 2,
        seed,
        server: ServerConfig { pages: 100, time_scale: 1e-7, ..ServerConfig::default() },
        ..ClusterConfig::default()
    }
}

/// One load cell: `process`'s trace, seeded like the tier and drawn
/// over its page catalogue, driven through `storm`.
fn run_cell(
    rt: &TaskRuntime,
    process: &ArrivalProcess,
    storm: &FaultStorm,
    cluster: ClusterConfig,
    ticks: usize,
    outage: Option<OutageScript>,
) -> ClusterReport {
    let traffic = TrafficConfig { seed: cluster.seed, ticks, zipf_s: 0.9 };
    let trace = TrafficTrace::generate(process, &traffic, cluster.server.pages);
    Cluster::new(cluster).run_storm(rt, &trace.ticks, storm, outage)
}

/// The tentpole gate: kill a replica mid-storm, restart it under
/// supervision, and prove zero acknowledged pages were lost — for
/// every arrival process × storm shape combination.
#[test]
fn mid_storm_kill_with_supervised_restart_loses_zero_acked_pages() {
    let seed = 0x010A_D6E4;
    let ticks = 30;
    let outage = OutageScript { replica: 1, kill_tick: ticks / 3, restart_tick: 2 * ticks / 3 };
    let rt = TaskRuntime::builder().workers(4).build();
    for process in ArrivalProcess::all(12.0, ticks) {
        for storm in FaultStorm::all(seed) {
            let report = run_cell(&rt, &process, &storm, tier_cfg(seed), ticks, Some(outage));
            let label = format!("[{} {}]", process.name(), storm.name);
            assert_eq!(report.kills, 1, "{label}");
            assert_eq!(report.restarts, 1, "{label}");
            assert_eq!(
                report.supervision_restarts, 1,
                "{label}: the restart must come from the supervision tree"
            );
            assert_eq!(report.supervision_escalations, 0, "{label}");
            assert_eq!(report.lost_acked, 0, "{label}: acknowledged pages lost to the kill");
            assert_eq!(report.violations(), Vec::<String>::new(), "{label}");
            assert!(report.acked > 0, "{label}: tier served nothing");
        }
    }
    rt.shutdown();
}

/// After the kill, some acked pages must survive *only* on a
/// non-primary owner — proof that R-way replication (not luck in the
/// routing) carried the outage.
#[test]
fn replication_is_what_carries_the_kill() {
    let seed = 0xBEE;
    let ticks = 30;
    let outage = OutageScript { replica: 1, kill_tick: 10, restart_tick: 20 };
    let rt = TaskRuntime::builder().workers(4).build();
    let process = ArrivalProcess::PoissonSteady { rate: 16.0 };
    let storm = FaultStorm::burst(seed);
    let report = run_cell(&rt, &process, &storm, tier_cfg(seed), ticks, Some(outage));
    rt.shutdown();
    assert!(
        report.reserved_from_replica > 0,
        "no page survived only on a replica — the kill never bit"
    );
    assert_eq!(report.lost_acked, 0);
}

/// Hedge dedup: every hedge fired is accounted exactly once (won,
/// redundant, or wasted), latency samples equal acks (no hedge is
/// recorded twice), and per-replica serve counts sum to acked (no
/// hedge winner is double-credited).
#[test]
fn hedged_requests_are_deduplicated_and_fully_accounted() {
    let seed = 0xD1CE;
    let ticks = 24;
    // Aggressive hedging: median threshold, fast warm-up.
    let cfg = ClusterConfig { hedge_quantile: 0.5, hedge_min_samples: 16, ..tier_cfg(seed) };
    let rt = TaskRuntime::builder().workers(4).build();
    let process = ArrivalProcess::PoissonSteady { rate: 18.0 };
    let storm = FaultStorm::brownout(seed);
    let r = run_cell(&rt, &process, &storm, cfg, ticks, None);
    rt.shutdown();
    assert!(r.hedges_fired > 0, "median-quantile hedging never fired");
    assert_eq!(
        r.hedges_fired,
        r.served_hedge + r.hedge_redundant + r.hedge_wasted,
        "a hedge escaped the ledger"
    );
    assert_eq!(r.latency.total(), r.acked, "an ack was latency-sampled twice (hedge dup?)");
    assert_eq!(
        r.per_replica_served.iter().sum::<u64>(),
        r.acked,
        "a hedge winner was credited to two replicas"
    );
    assert_eq!(r.violations(), Vec::<String>::new());
}

/// The whole cell — trace generation, routing, faults, hedging,
/// health checks, supervised outage — is bit-identical across
/// worker-pool sizes and reruns.
#[test]
fn load_cells_are_bit_identical_across_pool_sizes() {
    let seed = 0xF00;
    let ticks = 24;
    let outage = OutageScript { replica: 2, kill_tick: 8, restart_tick: 16 };
    let process = ArrivalProcess::FlashCrowd { base: 8.0, peak: 40.0, at_tick: 8, decay_ticks: 5 };
    let storm = FaultStorm::flapping(seed);
    let mut reports = Vec::new();
    for workers in [1usize, 3, 8] {
        let rt = TaskRuntime::builder().workers(workers).build();
        reports.push(run_cell(&rt, &process, &storm, tier_cfg(seed), ticks, Some(outage)));
        rt.shutdown();
    }
    assert_eq!(reports[0], reports[1], "1 vs 3 workers diverged");
    assert_eq!(reports[1], reports[2], "3 vs 8 workers diverged");
    assert_eq!(reports[0].fingerprint(), reports[2].fingerprint());
    // Pinned (1 kill, 1 supervised restart): a refactor of the tier, its
    // guard or the traffic generator must keep the cell bit-identical.
    let fingerprint = reports[0].fingerprint();
    assert_eq!(
        parc_util::fnv1a(fingerprint.as_bytes()),
        0x0844_6b32_c61d_5730,
        "{fingerprint}"
    );
}

/// Backpressure end to end: with tiny queues, an open-loop burst is
/// answered with queue-full sheds (not failures), and the ledger
/// still balances.
#[test]
fn bounded_queues_shed_bursts_without_losing_the_ledger() {
    let seed = 0xCAFE;
    let cfg = ClusterConfig { queue_capacity: 3, ..tier_cfg(seed) };
    let rt = TaskRuntime::builder().workers(4).build();
    let process = ArrivalProcess::FlashCrowd { base: 6.0, peak: 90.0, at_tick: 2, decay_ticks: 2 };
    let storm = FaultStorm::burst(seed);
    let report = run_cell(&rt, &process, &storm, cfg, 6, None);
    rt.shutdown();
    assert!(report.shed_queue_full > 0, "the burst never hit the bounded queues");
    assert_eq!(report.violations(), Vec::<String>::new());
}

/// Same seeds reproduce the whole cell, which is conserved and reports
/// positive model rates and ordered latency quantiles.
#[test]
fn load_cell_is_deterministic_and_conserved() {
    let cfg = || ClusterConfig {
        server: ServerConfig { pages: 60, time_scale: 1e-7, ..ServerConfig::default() },
        seed: 0xE,
        ..ClusterConfig::default()
    };
    let storm = FaultStorm::burst(0x10AD);
    let process = ArrivalProcess::PoissonSteady { rate: 14.0 };
    let rt = TaskRuntime::builder().workers(4).build();
    let a = run_cell(&rt, &process, &storm, cfg(), 18, None);
    let b = run_cell(&rt, &process, &storm, cfg(), 18, None);
    rt.shutdown();
    assert_eq!(a, b, "same seeds must reproduce the whole cell");
    assert_eq!(a.violations(), Vec::<String>::new());
    assert!(a.offered_rps() > 0.0);
    assert!(a.acked_rps() > 0.0);
    assert!(a.latency.p99() >= a.latency.p50());
}

/// A generated trace is a pure function of its seeds, and distinct
/// arrival processes genuinely differ in shape.
#[test]
fn traces_are_reproducible_and_shaped() {
    let cfg = TrafficConfig { seed: 0xAB, ticks: 30, zipf_s: 0.9 };
    for process in ArrivalProcess::all(14.0, 30) {
        let a = TrafficTrace::generate(&process, &cfg, 100);
        let b = TrafficTrace::generate(&process, &cfg, 100);
        assert_eq!(a, b, "{}", process.name());
        assert!(a.total_requests() > 0, "{}", process.name());
    }
    let crowd = ArrivalProcess::FlashCrowd { base: 6.0, peak: 80.0, at_tick: 10, decay_ticks: 4 };
    let trace = TrafficTrace::generate(&crowd, &cfg, 100);
    let before: usize = trace.ticks[..10].iter().map(Vec::len).sum();
    let after: usize = trace.ticks[10..14].iter().map(Vec::len).sum();
    assert!(after > before, "flash crowd must spike after its landing tick");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Consistent-hash balance: at N ∈ {2, 4, 8} replicas with 128
    /// vnodes, the busiest replica owns at most 2× the primary pages
    /// of the quietest.
    #[test]
    fn ring_balances_pages_within_two_x(seed in any::<u64>(), n_idx in 0usize..3) {
        let replicas = [2usize, 4, 8][n_idx];
        let ring = HashRing::new(seed, replicas, 128);
        let pages = 2048usize;
        let mut counts = vec![0usize; replicas];
        for page in 0..pages {
            counts[ring.primary(page)] += 1;
        }
        let max = *counts.iter().max().expect("non-empty");
        let min = *counts.iter().min().expect("non-empty");
        prop_assert!(min > 0, "a replica owns zero pages: {:?}", counts);
        prop_assert!(
            max <= 2 * min,
            "imbalance beyond 2x at n={}: {:?} (seed {:#x})",
            replicas, counts, seed
        );
    }

    /// Minimal remapping: ejecting one replica moves only that
    /// replica's pages; every other page keeps its primary.
    #[test]
    fn ejection_remaps_only_the_ejected_replicas_pages(
        seed in any::<u64>(),
        victim in 0usize..4,
    ) {
        let replicas = 4usize;
        let ring = HashRing::new(seed, replicas, 128);
        let all = vec![true; replicas];
        let mut mask = all.clone();
        mask[victim] = false;
        for page in 0..2048 {
            let before = ring.owners_among(page, 1, &all)[0];
            let after = ring.owners_among(page, 1, &mask)[0];
            if before == victim {
                prop_assert!(after != victim, "page {} still routed to the ejected", page);
            } else {
                prop_assert!(after == before, "page {} moved although its owner survived", page);
            }
        }
    }

    /// Replica sets are stable and distinct at every replication
    /// factor the tier supports.
    #[test]
    fn owner_sets_are_distinct_and_ordered(seed in any::<u64>(), page in 0usize..4096) {
        let ring = HashRing::new(seed, 5, 64);
        for r in 1..=5usize {
            let owners = ring.owners(page, r);
            prop_assert_eq!(owners.len(), r);
            let mut dedup = owners.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert!(dedup.len() == r, "duplicate owner at r={}", r);
            if r > 1 {
                prop_assert!(
                    owners[..r - 1] == ring.owners(page, r - 1)[..],
                    "owner list must be a prefix chain at r={}", r
                );
            }
        }
    }
}

/// Negative control for the loss detector: with R=1 the kill *must*
/// lose pages and `violations()` must say so — proving the zero-loss
/// gate can actually fail.
#[test]
fn loss_detector_fires_without_replication() {
    let seed = 0xBAD;
    let cfg = ClusterConfig { replication: 1, ..tier_cfg(seed) };
    let process = ArrivalProcess::PoissonSteady { rate: 16.0 };
    let storm = FaultStorm::burst(seed);
    let outage = OutageScript { replica: 1, kill_tick: 10, restart_tick: 20 };
    let rt = TaskRuntime::builder().workers(4).build();
    let report = run_cell(&rt, &process, &storm, cfg, 30, Some(outage));
    rt.shutdown();
    assert!(report.lost_acked > 0, "R=1 kill lost nothing — detector is blind");
    assert!(report.violations().iter().any(|v| v.contains("lost")));
}
