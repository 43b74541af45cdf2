//! Experiment E-LOAD: seeded traffic storms against the sharded web
//! tier.
//!
//! Runs the load matrix — every arrival process (steady Poisson,
//! diurnal wave, flash crowd) × every storm shape (burst, brownout,
//! flapping) — against a 4-replica, R=2 cluster behind the
//! consistent-hash balancer. Every cell also scripts a mid-storm
//! replica kill with a supervised restart, so each row doubles as a
//! failover drill: the conservation check proves zero acknowledged
//! pages were lost to the kill.
//!
//! Gates (violations; any one exits non-zero):
//! * per cell: every conservation identity of
//!   `ClusterReport::violations` — requests balance across
//!   acked/shed/failed, every hedge is deduplicated and accounted
//!   exactly once, one latency sample per ack, zero acknowledged pages
//!   lost, no escalation — and exactly one supervised restart (the
//!   scripted kill);
//! * pool: every cell reruns on 1, 3 and 8 workers and must reproduce
//!   its 4-worker report, `ClusterReport::fingerprint` included;
//! * experiment: a matrix of at least 3 processes × 3 storms.
//!
//! Latencies and rates are model time from the analytic latency model,
//! judged against a fixed p99 budget; they are never performance.
//!
//! Run with: `cargo run --release --example load_storm -- [--seed N] [--out DIR]`
//! (default seed `0x10AD6E4`).

use faultsim::FaultStorm;
use parc_loadgen::{ArrivalProcess, TrafficConfig, TrafficTrace};
use partask::TaskRuntime;
use softeng751_repro::experiment::{self, hex, Report, Spec};
use websim::cluster::{Cluster, ClusterConfig, OutageScript};
use websim::server::ServerConfig;

/// The fixed tail budget every cell is judged against (model ms).
const P99_BUDGET_MS: f64 = 250.0;
const TICKS: usize = 36;
const RATE_PER_TICK: f64 = 14.0;
/// Kill replica 1 a third of the way in, supervised restart two thirds
/// in — every cell is also a failover drill.
const OUTAGE: OutageScript =
    OutageScript { replica: 1, kill_tick: TICKS / 3, restart_tick: 2 * TICKS / 3 };

fn cluster_config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        replicas: 4,
        replication: 2,
        seed,
        server: ServerConfig { pages: 120, time_scale: 5e-7, ..ServerConfig::default() },
        ..ClusterConfig::default()
    }
}

fn main() {
    faultsim::silence_injected_panics();
    let processes = ArrivalProcess::all(RATE_PER_TICK, TICKS);
    // Storm shapes keep their names whatever the seed; cells index them.
    let storms: Vec<&str> = FaultStorm::all(0).iter().map(|s| s.name).collect();
    let cells = processes
        .iter()
        .enumerate()
        .flat_map(|(pi, p)| {
            storms.iter().enumerate().map(move |(si, s)| (format!("{} x {s}", p.name()), (pi, si)))
        })
        .collect();

    experiment::run(
        Spec { name: "load", seed: 0x010A_D6E4, pool: Some(4), cells },
        |&(pi, si), seed, pool| {
            let cluster = cluster_config(seed);
            let traffic = TrafficConfig { seed, ticks: TICKS, zipf_s: 0.9 };
            let trace = TrafficTrace::generate(&processes[pi], &traffic, cluster.server.pages);
            let rt = TaskRuntime::builder().workers(pool).build();
            let r = Cluster::new(cluster).run_storm(
                &rt,
                &trace.ticks,
                &FaultStorm::all(seed)[si],
                Some(OUTAGE),
            );
            rt.shutdown();
            Report::new()
                .det("fingerprint_hash", hex(parc_util::fnv1a(r.fingerprint().as_bytes())))
                .det("issued", r.issued)
                .det("acked", r.acked)
                .det("served_primary", r.served_primary)
                .det("served_hedge", r.served_hedge)
                .det("served_failover", r.served_failover)
                .det("shed", r.shed_total())
                .det("failed", r.failed)
                .det("hedges_fired", r.hedges_fired)
                .det("hedge_redundant", r.hedge_redundant)
                .det("ejections", r.ejections)
                .det("kills", r.kills)
                .det("supervised_restarts", r.supervision_restarts)
                .det("acked_pages", r.acked_pages)
                .det("reserved_from_replica", r.reserved_from_replica)
                .det("lost_acked", r.lost_acked)
                .det("events", r.events.clone())
                .model("offered_rps", r.offered_rps())
                .model("acked_rps", r.acked_rps())
                .model("p50_ms", r.latency.p50())
                .model("p99_ms", r.latency.p99())
                .model("p999_ms", r.latency.p999())
                .model("within_p99_budget", r.latency.p99() <= P99_BUDGET_MS)
                .violations(r.violations())
                .check(
                    r.supervision_restarts == 1,
                    format!("{} supervised restarts for one scripted kill", r.supervision_restarts),
                )
        },
        |_, _| {
            Report::new()
                .det("replicas", 4u32)
                .det("replication", 2u32)
                .det("ticks", TICKS)
                .model("p99_budget_ms", P99_BUDGET_MS)
                .check(
                    processes.len() >= 3 && storms.len() >= 3,
                    format!("matrix is {} processes x {} storms", processes.len(), storms.len()),
                )
        },
    );
}
