//! The sharded, fault-tolerant web tier: a load balancer over N
//! [`SimServer`] replicas with consistent-hash page partitioning,
//! R-way replication, health checks, hedged requests and end-to-end
//! backpressure.
//!
//! One [`SimServer`] behind [`crate::resilient`] degrades gracefully,
//! but a dead replica is still total data loss. [`Cluster`] is the
//! multi-node answer:
//!
//! * **Consistent-hash partitioning** — a seeded [`HashRing`] of
//!   virtual nodes maps every page to R distinct owner replicas;
//!   ejecting one replica remaps only that replica's pages to their
//!   ring successors (the property `tests/load.rs` pins).
//! * **Bounded queues + backpressure** — each replica accepts at most
//!   `queue_capacity` requests per tick; when every candidate's queue
//!   is full the balancer sheds the request with
//!   [`ShedReason::QueueFull`] instead of letting queues collapse.
//!   Sheds are counted per reason in [`ClusterReport`].
//! * **Per-replica breakers feeding the routing table** — a
//!   [`Breaker`] per replica (state advanced in deterministic request
//!   order) steers traffic to the next owner while open; if every
//!   owner is open the request is shed with [`ShedReason::Breaker`].
//! * **Deadline shedding** — requests whose *predicted* latency
//!   (queue wait + modelled service under the storm's inflation)
//!   exceeds the phase budget on every candidate are shed with
//!   [`ShedReason::Deadline`].
//! * **Hedged requests** — when the predicted latency exceeds a
//!   seeded quantile of the observed latency histogram, a backup copy
//!   is enqueued on the next owner; the first (modelled) success wins
//!   and the loser is deduplicated, never double-counted.
//! * **Health checks** — every 4 ticks the balancer ejects replicas
//!   that failed at least half of 8 or more requests since the last
//!   check, and readmits them 8 ticks later; kills are observed
//!   immediately.
//! * **Supervised replica restart** — a mid-storm kill wipes the
//!   replica's store; the restart runs under a [`parc_supervise`]
//!   supervisor (the [`Guards`] child's failure *is* the kill), and the
//!   conservation check proves no acknowledged page was lost: every
//!   acked page stays readable from a surviving owner's store.
//!
//! Determinism: routing, fault decisions, breaker transitions, health
//! verdicts and the latency model are pure functions of the seeds and
//! the deterministic per-tick request order. Worker-pool size shapes
//! wall-clock only, so [`ClusterReport`]s compare equal with `==`
//! across pool sizes and reruns.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

use faultsim::{Breaker, Fault, FaultInjector, FaultStorm, RetryPolicy, ShedReason, StormPhase};
use parc_supervise::{Guards, Supervisor};
use parc_trace::LatencyHistogram;
use parc_util::rng::SplitMix64;
use partask::TaskRuntime;

use crate::server::{ServerConfig, SimServer};

/// A seeded consistent-hash ring of virtual nodes.
///
/// Each replica owns `vnodes` points on a 64-bit ring; a page is
/// assigned to the first `r` *distinct* replicas clockwise from its
/// hash. Removing a replica removes only its points, so pages whose
/// owners survive keep their assignment — the minimal-remapping
/// property that makes ejection cheap.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(position, replica)`, sorted by position.
    points: Vec<(u64, usize)>,
    replicas: usize,
    seed: u64,
}

impl HashRing {
    /// Build a ring of `replicas × vnodes` points from `seed`.
    ///
    /// # Panics
    /// If `replicas` or `vnodes` is zero.
    #[must_use]
    pub fn new(seed: u64, replicas: usize, vnodes: usize) -> Self {
        assert!(replicas > 0, "a ring needs at least one replica");
        assert!(vnodes > 0, "a ring needs at least one vnode per replica");
        let mut points = Vec::with_capacity(replicas * vnodes);
        for replica in 0..replicas {
            for v in 0..vnodes {
                let key = ((replica as u64) << 32) | v as u64;
                points.push((SplitMix64::mix(seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15)), replica));
            }
        }
        // Sort by (position, replica): ties (astronomically unlikely)
        // break deterministically.
        points.sort_unstable();
        Self { points, replicas, seed }
    }

    /// Number of replicas the ring was built for.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    fn page_point(&self, page: usize) -> u64 {
        SplitMix64::mix(self.seed ^ (page as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The first `r` distinct replicas clockwise from `page`'s hash,
    /// considering only replicas marked eligible (`None` = all).
    fn owners_inner(&self, page: usize, r: usize, eligible: Option<&[bool]>) -> Vec<usize> {
        let target = self.page_point(page);
        let start = self.points.partition_point(|&(pos, _)| pos < target);
        let mut owners = Vec::with_capacity(r);
        for i in 0..self.points.len() {
            let (_, replica) = self.points[(start + i) % self.points.len()];
            if let Some(mask) = eligible {
                if !mask[replica] {
                    continue;
                }
            }
            if !owners.contains(&replica) {
                owners.push(replica);
                if owners.len() == r {
                    break;
                }
            }
        }
        owners
    }

    /// The `r` distinct owner replicas of `page`, primary first.
    #[must_use]
    pub fn owners(&self, page: usize, r: usize) -> Vec<usize> {
        self.owners_inner(page, r, None)
    }

    /// The owners of `page` among replicas marked `true` in
    /// `eligible` — how the balancer routes around ejected or dead
    /// replicas without rebuilding the ring.
    ///
    /// # Panics
    /// If `eligible.len()` differs from the ring's replica count.
    #[must_use]
    pub fn owners_among(&self, page: usize, r: usize, eligible: &[bool]) -> Vec<usize> {
        assert_eq!(eligible.len(), self.replicas, "eligibility mask size mismatch");
        self.owners_inner(page, r, Some(eligible))
    }

    /// The primary owner of `page` (all replicas eligible).
    #[must_use]
    pub fn primary(&self, page: usize) -> usize {
        self.owners_inner(page, 1, None)[0]
    }
}

/// Virtual nodes per replica on the hash ring.
const VNODES: usize = 128;
/// Concurrent service slots per replica (latency model width).
const SERVICE_WIDTH: usize = 4;
/// Attempts per request on the serving replica before failover.
const MAX_ATTEMPTS: u32 = 3;
/// Consecutive failures before a replica's breaker opens.
const BREAKER_THRESHOLD: u32 = 4;
/// Denied calls before an open breaker half-opens.
const BREAKER_COOLDOWN: u32 = 6;
/// Health-check cadence in ticks.
const HEALTH_EVERY: usize = 4;
/// Window failure ratio that ejects a replica.
const UNHEALTHY_RATIO: f64 = 0.5;
/// Minimum window samples before a health verdict.
const MIN_HEALTH_SAMPLES: u64 = 8;
/// Ticks an ejected replica sits out before readmission.
const EJECT_TICKS: usize = 8;
/// Simulated milliseconds per traffic tick.
const TICK_MS: f64 = 100.0;

/// Knobs of the sharded tier. Everything that shapes *outcomes* is
/// part of the determinism contract; worker-pool size is not a field
/// here precisely because it must not matter.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of replicas (N).
    pub replicas: usize,
    /// Copies of every page (R ≤ N). R ≥ 2 is what makes a single
    /// kill survivable.
    pub replication: usize,
    /// Bounded queue: requests one replica accepts per tick.
    pub queue_capacity: usize,
    /// Hedge when predicted latency exceeds this quantile of observed
    /// latencies (e.g. 0.95).
    pub hedge_quantile: f64,
    /// Observed samples required before hedging activates.
    pub hedge_min_samples: u64,
    /// Root seed for the ring and per-replica fault streams.
    pub seed: u64,
    /// Template for every replica's server. The seed is shared so all
    /// replicas serve identical page content (replicas are copies,
    /// not shards of *content*).
    pub server: ServerConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            replicas: 3,
            replication: 2,
            queue_capacity: 32,
            hedge_quantile: 0.95,
            hedge_min_samples: 64,
            seed: 0xC1_0AD,
            server: ServerConfig { time_scale: 5e-7, ..ServerConfig::default() },
        }
    }
}

/// A mid-storm replica outage script: kill at one tick, restart
/// (supervised) at a later tick.
#[derive(Clone, Copy, Debug)]
pub struct OutageScript {
    /// The replica to kill.
    pub replica: usize,
    /// Tick before which the kill happens.
    pub kill_tick: usize,
    /// Tick before which the supervised restart happens.
    pub restart_tick: usize,
}

/// One replica: a server, its R-way replicated page store, a breaker,
/// and health state.
struct Replica {
    server: Arc<SimServer>,
    injector: FaultInjector,
    store: HashMap<usize, f64>,
    breaker: Breaker,
    alive: bool,
    ejected_until: Option<usize>,
    window_requests: u64,
    window_failures: u64,
    served: u64,
}

/// Deterministic accounting of one storm-length cluster run. Contains
/// no wall-clock fields: equal-seeded runs compare equal with `==`
/// regardless of worker count or scheduling.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterReport {
    /// Traffic ticks walked.
    pub ticks: usize,
    /// Replica count (N).
    pub replicas: usize,
    /// Replication factor (R).
    pub replication: usize,
    /// Simulated milliseconds per tick.
    pub tick_ms: f64,
    /// Requests offered by the load schedule.
    pub issued: u64,
    /// Requests acknowledged to the client (exactly once each).
    pub acked: u64,
    /// Acks served by the replica chosen at routing time.
    pub served_primary: u64,
    /// Acks won by the hedged backup copy.
    pub served_hedge: u64,
    /// Acks recovered by post-failure failover to another owner.
    pub served_failover: u64,
    /// Requests answered by nobody (true losses, never acked).
    pub failed: u64,
    /// Shed because predicted latency blew the phase deadline budget.
    pub shed_deadline: u64,
    /// Shed because every candidate's breaker was open.
    pub shed_breaker: u64,
    /// Shed because every candidate's bounded queue was full.
    pub shed_queue_full: u64,
    /// Hedged backup copies fired.
    pub hedges_fired: u64,
    /// Hedges where both copies succeeded (loser deduplicated).
    pub hedge_redundant: u64,
    /// Hedges whose backup failed (no win, no dedup needed).
    pub hedge_wasted: u64,
    /// Server attempts across all requests (incl. retries/failover).
    pub attempts_total: u64,
    /// Faults injected across all attempts.
    pub faults_seen: u64,
    /// Replicas ejected by health checks.
    pub ejections: u32,
    /// Replicas readmitted after ejection.
    pub readmissions: u32,
    /// Replicas killed by the outage script.
    pub kills: u32,
    /// Replicas restarted (supervised).
    pub restarts: u32,
    /// Restarts the supervision tree performed (one per kill).
    pub supervision_restarts: u32,
    /// Escalations in the supervision tree (must be zero).
    pub supervision_escalations: u32,
    /// Conservation violations reported by the supervision tree.
    pub supervision_violations: Vec<String>,
    /// Canonical health/outage event log, in tick order.
    pub events: Vec<String>,
    /// Latency of every acked request (modelled milliseconds).
    pub latency: LatencyHistogram,
    /// Total modelled busy milliseconds (max per replica per tick,
    /// summed over ticks).
    pub sim_ms_total: f64,
    /// Distinct pages acknowledged at least once.
    pub acked_pages: usize,
    /// Acked pages readable from their primary owner's store at the
    /// end of the run.
    pub durable_primary: usize,
    /// Acked pages readable only from a non-primary owner — the
    /// "re-served from replica" set that proves replication carried
    /// the kill.
    pub reserved_from_replica: usize,
    /// Acked pages readable from no surviving store (must be zero).
    pub lost_acked: usize,
    /// Acks served per replica.
    pub per_replica_served: Vec<u64>,
}

impl ClusterReport {
    /// Total requests shed, across all reasons.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed_deadline + self.shed_breaker + self.shed_queue_full
    }

    /// Offered load in requests per simulated second.
    #[must_use]
    pub fn offered_rps(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let secs = self.ticks as f64 * self.tick_ms / 1e3;
        if secs <= 0.0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let issued = self.issued as f64;
        issued / secs
    }

    /// Goodput in acknowledged requests per simulated second.
    #[must_use]
    pub fn acked_rps(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let secs = self.ticks as f64 * self.tick_ms / 1e3;
        if secs <= 0.0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let acked = self.acked as f64;
        acked / secs
    }

    /// Check every conservation identity of the run. Returns the list
    /// of violated identities (empty = conserved):
    ///
    /// * every issued request is accounted exactly once:
    ///   `issued == acked + shed + failed`;
    /// * every ack has exactly one server: `acked == served_primary +
    ///   served_hedge + served_failover` and the per-replica served
    ///   counts sum to `acked` (hedge dedup: a redundant winner is
    ///   counted once);
    /// * every hedge is accounted: `hedges_fired == served_hedge +
    ///   hedge_redundant + hedge_wasted`;
    /// * one latency sample per ack;
    /// * **zero acknowledged loss**: every acked page is still
    ///   readable from a surviving owner's store;
    /// * the supervision tree is conserved and never escalated.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let mut check = |ok: bool, msg: String| {
            if !ok {
                bad.push(msg);
            }
        };
        check(
            self.issued == self.acked + self.shed_total() + self.failed,
            format!(
                "request conservation: issued {} != acked {} + shed {} + failed {}",
                self.issued,
                self.acked,
                self.shed_total(),
                self.failed
            ),
        );
        check(
            self.acked == self.served_primary + self.served_hedge + self.served_failover,
            format!(
                "ack attribution: acked {} != primary {} + hedge {} + failover {}",
                self.acked, self.served_primary, self.served_hedge, self.served_failover
            ),
        );
        check(
            self.per_replica_served.iter().sum::<u64>() == self.acked,
            format!(
                "per-replica serve counts sum {} != acked {} (hedge double-count?)",
                self.per_replica_served.iter().sum::<u64>(),
                self.acked
            ),
        );
        check(
            self.hedges_fired == self.served_hedge + self.hedge_redundant + self.hedge_wasted,
            format!(
                "hedge accounting: fired {} != won {} + redundant {} + wasted {}",
                self.hedges_fired, self.served_hedge, self.hedge_redundant, self.hedge_wasted
            ),
        );
        check(
            self.latency.total() == self.acked,
            format!(
                "latency samples {} != acked {} (double-recorded hedge?)",
                self.latency.total(),
                self.acked
            ),
        );
        check(
            self.acked_pages == self.durable_primary + self.reserved_from_replica + self.lost_acked,
            format!(
                "durability partition: {} acked pages != {} primary + {} replica + {} lost",
                self.acked_pages, self.durable_primary, self.reserved_from_replica, self.lost_acked
            ),
        );
        check(
            self.lost_acked == 0,
            format!("{} acknowledged page(s) lost after replica kill", self.lost_acked),
        );
        check(self.kills == self.restarts, {
            format!("kills {} != restarts {}", self.kills, self.restarts)
        });
        check(
            self.supervision_restarts == self.kills,
            format!(
                "supervision restarts {} != kills {}",
                self.supervision_restarts, self.kills
            ),
        );
        check(
            self.supervision_escalations == 0,
            format!("supervision escalated {} time(s)", self.supervision_escalations),
        );
        for v in &self.supervision_violations {
            bad.push(format!("supervision: {v}"));
        }
        bad
    }

    /// Canonical multi-line fingerprint: every deterministic field,
    /// bit-identical across same-seed reruns and pool sizes. Used by
    /// the E-LOAD driver's determinism gate.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cluster n={} r={} ticks={} tick_ms={}\n",
            self.replicas, self.replication, self.ticks, self.tick_ms
        ));
        out.push_str(&format!(
            "issued={} acked={} primary={} hedge={} failover={} failed={}\n",
            self.issued,
            self.acked,
            self.served_primary,
            self.served_hedge,
            self.served_failover,
            self.failed
        ));
        out.push_str(&format!(
            "shed deadline={} breaker={} queue_full={}\n",
            self.shed_deadline, self.shed_breaker, self.shed_queue_full
        ));
        out.push_str(&format!(
            "hedges fired={} redundant={} wasted={}\n",
            self.hedges_fired, self.hedge_redundant, self.hedge_wasted
        ));
        out.push_str(&format!(
            "attempts={} faults={} sim_ms={:.6}\n",
            self.attempts_total, self.faults_seen, self.sim_ms_total
        ));
        out.push_str(&format!(
            "health ejections={} readmissions={} kills={} restarts={} sup_restarts={} sup_escal={}\n",
            self.ejections,
            self.readmissions,
            self.kills,
            self.restarts,
            self.supervision_restarts,
            self.supervision_escalations
        ));
        out.push_str(&format!(
            "durability pages={} primary={} replica={} lost={}\n",
            self.acked_pages, self.durable_primary, self.reserved_from_replica, self.lost_acked
        ));
        out.push_str(&format!(
            "latency {} p50={:.6} p99={:.6} p999={:.6} mean={:.6}\n",
            self.latency.total(),
            self.latency.p50(),
            self.latency.p99(),
            self.latency.p999(),
            self.latency.mean()
        ));
        out.push_str(&format!("served_per_replica={:?}\n", self.per_replica_served));
        out.push_str("events:\n");
        for e in &self.events {
            out.push_str("  ");
            out.push_str(e);
            out.push('\n');
        }
        out
    }
}

/// One queued unit of work on a replica for one tick.
#[derive(Clone, Copy)]
struct QueueEntry {
    /// Index of the request within the tick.
    req: usize,
    /// The page requested.
    page: usize,
    /// Is this the hedged backup copy?
    hedge: bool,
}

/// What one replica's execution produced for one queue entry.
#[derive(Clone, Copy)]
struct ExecResult {
    req: usize,
    hedge: bool,
    /// KB served on success.
    kb: Option<f64>,
    /// Modelled completion latency within the tick (queue wait +
    /// attempt costs), in simulated ms.
    latency_ms: f64,
    attempts: u32,
    faults: u64,
}

/// How one tick-request was routed.
enum Route {
    /// Enqueued on a replica (plus optionally a hedge on another).
    Queued {
        /// True when the serving replica was not the first live owner.
        diverted: bool,
        hedge_on: Option<usize>,
    },
    Shed(ShedReason),
    /// No live owner at all (total outage for this page).
    NoOwner,
}

/// The sharded web tier: N replicas behind a consistent-hash load
/// balancer. See the module docs for the full behaviour catalogue.
pub struct Cluster {
    cfg: ClusterConfig,
    ring: HashRing,
    replicas: Vec<Replica>,
}

impl Cluster {
    /// Build a cluster of `cfg.replicas` identical-content replicas.
    ///
    /// # Panics
    /// If `replication` is zero or exceeds the replica count.
    #[must_use]
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(
            cfg.replication >= 1 && cfg.replication <= cfg.replicas,
            "replication factor must be in [1, replicas]"
        );
        let ring = HashRing::new(cfg.seed, cfg.replicas, VNODES);
        let replicas = (0..cfg.replicas)
            .map(|i| Replica {
                server: Arc::new(SimServer::new(cfg.server.clone())),
                injector: FaultInjector::new(faultsim::FaultPlan::reliable(
                    SplitMix64::mix(cfg.seed ^ i as u64),
                )),
                store: HashMap::new(),
                breaker: Breaker::new(BREAKER_THRESHOLD, BREAKER_COOLDOWN),
                alive: true,
                ejected_until: None,
                window_requests: 0,
                window_failures: 0,
                served: 0,
            })
            .collect();
        Self { cfg, ring, replicas }
    }

    /// Give every replica its own lane of `phase`'s fault stream.
    fn set_phase(&mut self, phase: &StormPhase) {
        for (i, rep) in self.replicas.iter_mut().enumerate() {
            rep.injector = phase.injector(i as u64);
        }
    }

    /// Kill `replica`: mark it dead and wipe its store (data loss the
    /// replication factor must absorb).
    fn kill(&mut self, replica: usize) {
        let rep = &mut self.replicas[replica];
        rep.alive = false;
        rep.store.clear();
        rep.ejected_until = None;
        rep.window_requests = 0;
        rep.window_failures = 0;
    }

    /// Restart `replica`: alive again with an empty store, a fresh
    /// breaker and a clean health window.
    fn restart(&mut self, replica: usize) {
        let rep = &mut self.replicas[replica];
        rep.alive = true;
        rep.store.clear();
        rep.breaker = Breaker::new(BREAKER_THRESHOLD, BREAKER_COOLDOWN);
        rep.window_requests = 0;
        rep.window_failures = 0;
    }

    /// Modelled cost of serving `page` on a replica during `phase`.
    fn service_ms(&self, page: usize, phase: &StormPhase) -> f64 {
        self.replicas[0]
            .server
            .model_duration_ms(page, SERVICE_WIDTH)
            * phase.latency_factor
    }

    /// Run the whole `schedule` (one `Vec<page>` per tick) against
    /// the storm, with an optional supervised mid-storm replica
    /// outage. Deterministic: the report is a pure function of the
    /// seeds and the schedule.
    ///
    /// # Panics
    /// If the outage script is out of range or targets a dead
    /// replica, or if the supervision guard thread panics.
    #[allow(clippy::too_many_lines)]
    pub fn run_storm(
        &mut self,
        rt: &TaskRuntime,
        schedule: &[Vec<usize>],
        storm: &FaultStorm,
        outage: Option<OutageScript>,
    ) -> ClusterReport {
        if let Some(o) = outage {
            assert!(o.replica < self.replicas.len(), "outage replica out of range");
            assert!(o.kill_tick < o.restart_tick, "kill must precede restart");
            assert!(o.restart_tick < schedule.len(), "restart must land inside the run");
        }
        // The supervised outage: one guard child stands for the
        // replica's process, and its supervised restart gates the
        // replica's readmission.
        let guard = outage.map(|o| {
            let builder = Supervisor::builder("cluster-outage")
                .restart_policy(RetryPolicy::fixed(Duration::from_millis(1)).with_max_attempts(3))
                .backoff_time_scale(1e-3);
            (o, Guards::spawn(builder, ["replica-guard"]))
        });

        let ticks = schedule.len();
        let mut acc = RunAccounting::new();
        let mut last_phase_label: Option<&'static str> = None;

        for (tick, requests) in schedule.iter().enumerate() {
            let phase = storm.phase_at(tick, ticks);
            if last_phase_label != Some(phase.label) {
                self.set_phase(phase);
                acc.events.push(format!("tick {tick:03} phase {}", phase.label));
                last_phase_label = Some(phase.label);
            }

            // Scripted outage: kill/supervised-restart between ticks.
            if let Some((o, g)) = &guard {
                if tick == o.kill_tick {
                    self.kill(o.replica);
                    acc.kills += 1;
                    acc.events.push(format!("tick {tick:03} replica {} killed", o.replica));
                    g.kill(0);
                }
                if tick == o.restart_tick {
                    // Block until the supervisor has restarted the
                    // guard child — the replica's readmission is gated
                    // on its supervised incarnation being alive.
                    let incarnation = g.await_restart(0);
                    self.restart(o.replica);
                    acc.restarts += 1;
                    acc.events.push(format!(
                        "tick {tick:03} replica {} restarted (supervised incarnation {incarnation})",
                        o.replica
                    ));
                }
            }

            self.health_check(tick, &mut acc);
            self.run_tick(rt, requests, phase, &mut acc);
        }

        // Durability audit: every acked page must still be readable
        // from a surviving owner's store.
        let mut durable_primary = 0usize;
        let mut reserved_from_replica = 0usize;
        let mut lost = 0usize;
        for &page in &acc.acked_pages {
            let owners = self.ring.owners(page, self.cfg.replication);
            let holder = owners
                .iter()
                .position(|&o| self.replicas[o].alive && self.replicas[o].store.contains_key(&page));
            match holder {
                Some(0) => durable_primary += 1,
                Some(_) => reserved_from_replica += 1,
                None => lost += 1,
            }
        }

        let (sup_restarts, sup_escalations, sup_violations) = match guard {
            Some((_, g)) => {
                let report = g.finish();
                (
                    report.restarts_total,
                    report.escalations,
                    report.conservation_violations(),
                )
            }
            None => (0, 0, Vec::new()),
        };

        ClusterReport {
            ticks,
            replicas: self.replicas.len(),
            replication: self.cfg.replication,
            tick_ms: TICK_MS,
            issued: acc.issued,
            acked: acc.acked,
            served_primary: acc.served_primary,
            served_hedge: acc.served_hedge,
            served_failover: acc.served_failover,
            failed: acc.failed,
            shed_deadline: acc.shed[ShedReason::Deadline as usize],
            shed_breaker: acc.shed[ShedReason::Breaker as usize],
            shed_queue_full: acc.shed[ShedReason::QueueFull as usize],
            hedges_fired: acc.hedges_fired,
            hedge_redundant: acc.hedge_redundant,
            hedge_wasted: acc.hedge_wasted,
            attempts_total: acc.attempts_total,
            faults_seen: acc.faults_seen,
            ejections: acc.ejections,
            readmissions: acc.readmissions,
            kills: acc.kills,
            restarts: acc.restarts,
            supervision_restarts: sup_restarts,
            supervision_escalations: sup_escalations,
            supervision_violations: sup_violations,
            events: acc.events,
            latency: acc.latency,
            sim_ms_total: acc.sim_ms_total,
            acked_pages: acc.acked_pages.len(),
            durable_primary,
            reserved_from_replica,
            lost_acked: lost,
            per_replica_served: self.replicas.iter().map(|r| r.served).collect(),
        }
    }

    /// Health check at tick boundaries: eject unhealthy live
    /// replicas, readmit ejected ones whose sentence elapsed.
    fn health_check(&mut self, tick: usize, acc: &mut RunAccounting) {
        // Readmissions happen on any tick (the sentence is absolute).
        for (i, rep) in self.replicas.iter_mut().enumerate() {
            if let Some(until) = rep.ejected_until {
                if tick >= until && rep.alive {
                    rep.ejected_until = None;
                    rep.window_requests = 0;
                    rep.window_failures = 0;
                    acc.readmissions += 1;
                    acc.events.push(format!("tick {tick:03} replica {i} readmitted"));
                }
            }
        }
        if !tick.is_multiple_of(HEALTH_EVERY) {
            return;
        }
        for (i, rep) in self.replicas.iter_mut().enumerate() {
            if !rep.alive || rep.ejected_until.is_some() {
                continue;
            }
            if rep.window_requests < MIN_HEALTH_SAMPLES {
                continue;
            }
            #[allow(clippy::cast_precision_loss)]
            let ratio = rep.window_failures as f64 / rep.window_requests as f64;
            if ratio >= UNHEALTHY_RATIO {
                rep.ejected_until = Some(tick + EJECT_TICKS);
                acc.ejections += 1;
                acc.events.push(format!(
                    "tick {tick:03} replica {i} ejected ({}/{} failed in window)",
                    rep.window_failures, rep.window_requests
                ));
            }
            rep.window_requests = 0;
            rep.window_failures = 0;
        }
    }

    /// Route, execute and collect one tick of requests.
    #[allow(clippy::too_many_lines)]
    fn run_tick(
        &mut self,
        rt: &TaskRuntime,
        requests: &[usize],
        phase: &StormPhase,
        acc: &mut RunAccounting,
    ) {
        let n = self.replicas.len();
        acc.issued += requests.len() as u64;

        // The routing table this tick: alive and not ejected.
        let eligible: Vec<bool> = self
            .replicas
            .iter()
            .map(|r| r.alive && r.ejected_until.is_none())
            .collect();

        // Hedge threshold: a seeded quantile of the latencies observed
        // in *previous* ticks (deterministic snapshot at tick start).
        let hedge_threshold = if acc.latency.total() >= self.cfg.hedge_min_samples {
            acc.latency.quantile(self.cfg.hedge_quantile)
        } else {
            f64::INFINITY
        };

        // --- Route (sequential, deterministic request order) -------
        let mut queues: Vec<Vec<QueueEntry>> = vec![Vec::new(); n];
        // Predicted busy ms already enqueued per replica this tick.
        let mut pending_ms: Vec<f64> = vec![0.0; n];
        let mut routes: Vec<Route> = Vec::with_capacity(requests.len());
        #[allow(clippy::cast_precision_loss)]
        let width = SERVICE_WIDTH as f64;

        for (req, &page) in requests.iter().enumerate() {
            let owners = self.ring.owners_among(page, self.cfg.replication, &eligible);
            if owners.is_empty() {
                routes.push(Route::NoOwner);
                continue;
            }
            let service = self.service_ms(page, phase);
            // Candidates whose breaker admits the call, in owner
            // order. `allow()` advances cooldown state; calling it in
            // request order keeps breakers deterministic.
            let open: Vec<usize> = owners
                .iter()
                .copied()
                .filter(|&o| self.replicas[o].breaker.allow())
                .collect();
            if open.is_empty() {
                routes.push(Route::Shed(ShedReason::Breaker));
                continue;
            }
            // First candidate with queue room; queue-full propagates
            // to the next owner, and to the client when all are full.
            let routed = open
                .iter()
                .copied()
                .find(|&o| queues[o].len() < self.cfg.queue_capacity);
            let Some(replica) = routed else {
                routes.push(Route::Shed(ShedReason::QueueFull));
                continue;
            };
            let predicted = pending_ms[replica] / width + service;
            if predicted > phase.shed_budget_ms {
                // Try the least-loaded alternative before giving up.
                let alt = open
                    .iter()
                    .copied()
                    .filter(|&o| o != replica && queues[o].len() < self.cfg.queue_capacity)
                    .min_by(|&a, &b| {
                        pending_ms[a].partial_cmp(&pending_ms[b]).expect("no NaN")
                    });
                let best = alt
                    .map(|o| (o, pending_ms[o] / width + service))
                    .filter(|&(_, p)| p < predicted);
                match best {
                    Some((o, p)) if p <= phase.shed_budget_ms => {
                        queues[o].push(QueueEntry { req, page, hedge: false });
                        pending_ms[o] += service;
                        routes.push(Route::Queued { diverted: o != owners[0], hedge_on: None });
                        continue;
                    }
                    _ => {
                        routes.push(Route::Shed(ShedReason::Deadline));
                        continue;
                    }
                }
            }
            // Hedge: predicted latency beyond the seeded quantile and
            // a second owner has queue room.
            let hedge_on = if predicted > hedge_threshold {
                open.iter()
                    .copied()
                    .find(|&o| o != replica && queues[o].len() < self.cfg.queue_capacity)
            } else {
                None
            };
            queues[replica].push(QueueEntry { req, page, hedge: false });
            pending_ms[replica] += service;
            if let Some(h) = hedge_on {
                queues[h].push(QueueEntry { req, page, hedge: true });
                pending_ms[h] += service;
                acc.hedges_fired += 1;
            }
            routes.push(Route::Queued { diverted: replica != owners[0], hedge_on });
        }

        // --- Execute (parallel across replicas, sequential within) -
        type ExecInput = (Vec<QueueEntry>, Arc<SimServer>, FaultInjector);
        let exec_inputs: Arc<Vec<ExecInput>> = Arc::new(
            queues
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    (q.clone(), Arc::clone(&self.replicas[i].server), self.replicas[i].injector.clone())
                })
                .collect(),
        );
        let latency_factor = phase.latency_factor;
        let per_replica: Vec<(Vec<ExecResult>, f64)> = rt
            .spawn_batch(n, move |replica| {
                let (queue, server, injector) = &exec_inputs[replica];
                execute_queue(queue, server, injector, latency_factor)
            })
            .join()
            .into_iter()
            .map(|r| r.expect("replica execution neither panics nor is cancelled"))
            .collect();

        // Tick busy time: the slowest replica bounds the tick.
        let tick_busy = per_replica.iter().map(|(_, busy)| *busy).fold(0.0f64, f64::max);
        acc.sim_ms_total += tick_busy;

        // Index execution results by (req, hedge-flag); update breaker
        // and health windows in deterministic replica-then-queue order.
        let mut primary_result: HashMap<usize, (usize, ExecResult)> = HashMap::new();
        let mut hedge_result: HashMap<usize, (usize, ExecResult)> = HashMap::new();
        for (replica, (results, _)) in per_replica.iter().enumerate() {
            let rep = &mut self.replicas[replica];
            for r in results {
                acc.attempts_total += u64::from(r.attempts);
                acc.faults_seen += r.faults;
                rep.window_requests += 1;
                if r.kb.is_some() {
                    rep.breaker.record_success();
                } else {
                    rep.breaker.record_failure();
                    rep.window_failures += 1;
                }
                if r.hedge {
                    hedge_result.insert(r.req, (replica, *r));
                } else {
                    primary_result.insert(r.req, (replica, *r));
                }
            }
        }

        // --- Collect (sequential, deterministic request order) -----
        for (req, &page) in requests.iter().enumerate() {
            match &routes[req] {
                Route::Shed(reason) => acc.shed[*reason as usize] += 1,
                Route::NoOwner => acc.failed += 1,
                Route::Queued { diverted, hedge_on, .. } => {
                    let primary = primary_result.get(&req).copied();
                    let hedge = hedge_on.and_then(|_| hedge_result.get(&req).copied());
                    let (p_ok, h_ok) = (
                        primary.filter(|(_, r)| r.kb.is_some()),
                        hedge.filter(|(_, r)| r.kb.is_some()),
                    );
                    let winner = match (p_ok, h_ok) {
                        (Some(p), Some(h)) => {
                            acc.hedge_redundant += 1;
                            // First success wins: the lower modelled
                            // completion time; ties prefer primary.
                            if h.1.latency_ms < p.1.latency_ms {
                                acc.served_hedge += 1;
                                // The redundant hedge already counted;
                                // reclassify as a win, not redundant.
                                acc.hedge_redundant -= 1;
                                Some(h)
                            } else {
                                Some(p)
                            }
                        }
                        (Some(p), None) => {
                            if hedge_on.is_some() {
                                acc.hedge_wasted += 1;
                            }
                            Some(p)
                        }
                        (None, Some(h)) => {
                            acc.served_hedge += 1;
                            Some(h)
                        }
                        (None, None) => {
                            if hedge_on.is_some() {
                                acc.hedge_wasted += 1;
                            }
                            None
                        }
                    };
                    match winner {
                        Some((replica, result)) => {
                            if result.hedge {
                                // attributed above as served_hedge
                            } else if *diverted {
                                acc.served_failover += 1;
                            } else {
                                acc.served_primary += 1;
                            }
                            self.ack(page, replica, result.latency_ms, acc);
                        }
                        None => {
                            // Failover pass: remaining live owners in
                            // ring order, one shot each.
                            let tried: Vec<usize> = primary
                                .iter()
                                .map(|(rep, _)| *rep)
                                .chain(hedge.iter().map(|(rep, _)| *rep))
                                .collect();
                            let carried = primary.map_or(0.0, |(_, r)| r.latency_ms);
                            match self.failover(page, &eligible, &tried, carried, phase, acc) {
                                Some((replica, latency)) => {
                                    acc.served_failover += 1;
                                    self.ack(page, replica, latency, acc);
                                }
                                None => acc.failed += 1,
                            }
                        }
                    }
                }
            }
        }
    }

    /// Acknowledge `page`: record the latency sample, credit the
    /// serving replica, and replicate the content to every live
    /// owner's store (write-through, R copies).
    fn ack(&mut self, page: usize, replica: usize, latency_ms: f64, acc: &mut RunAccounting) {
        acc.acked += 1;
        acc.latency.record(latency_ms.max(0.01));
        acc.acked_pages.insert(page);
        self.replicas[replica].served += 1;
        let kb = self.replicas[replica].server.page(page).size_kb;
        for owner in self.ring.owners(page, self.cfg.replication) {
            if self.replicas[owner].alive {
                self.replicas[owner].store.insert(page, kb);
            }
        }
    }

    /// Post-failure failover: one attempt-sequence on each remaining
    /// live owner, in ring order. Returns the serving replica and the
    /// total modelled latency on success.
    fn failover(
        &mut self,
        page: usize,
        eligible: &[bool],
        tried: &[usize],
        carried_latency_ms: f64,
        phase: &StormPhase,
        acc: &mut RunAccounting,
    ) -> Option<(usize, f64)> {
        let owners = self.ring.owners_among(page, self.cfg.replication, eligible);
        let mut latency = carried_latency_ms;
        for owner in owners {
            if tried.contains(&owner) {
                continue;
            }
            if !self.replicas[owner].breaker.allow() {
                continue;
            }
            let queue = [QueueEntry { req: 0, page, hedge: false }];
            let (results, _busy) = execute_queue(
                &queue,
                &self.replicas[owner].server,
                &self.replicas[owner].injector,
                phase.latency_factor,
            );
            let r = results[0];
            acc.attempts_total += u64::from(r.attempts);
            acc.faults_seen += r.faults;
            let rep = &mut self.replicas[owner];
            rep.window_requests += 1;
            latency += r.latency_ms;
            if r.kb.is_some() {
                rep.breaker.record_success();
                return Some((owner, latency));
            }
            rep.breaker.record_failure();
            rep.window_failures += 1;
        }
        None
    }
}

/// Execute one replica's tick queue sequentially: a `SERVICE_WIDTH`-slot
/// deterministic queueing model for latency, the replica's seeded
/// fault stream for outcomes, and a real (scaled) server request per
/// successful attempt so the simulated tier does actual work.
/// Returns the per-entry results and the replica's busy ms this tick.
fn execute_queue(
    queue: &[QueueEntry],
    server: &Arc<SimServer>,
    injector: &FaultInjector,
    latency_factor: f64,
) -> (Vec<ExecResult>, f64) {
    let mut slots = [0.0f64; SERVICE_WIDTH];
    let mut out = Vec::with_capacity(queue.len());
    for entry in queue {
        // Earliest-free slot; ties resolve to the lowest index.
        let slot = (0..SERVICE_WIDTH)
            .min_by(|&a, &b| slots[a].partial_cmp(&slots[b]).expect("no NaN"))
            .expect("SERVICE_WIDTH >= 1");
        let start = slots[slot];
        let meta = server.page(entry.page);
        let service = server.model_duration_ms(entry.page, SERVICE_WIDTH) * latency_factor;
        let mut cost = 0.0f64;
        let mut kb = None;
        let mut attempts = 0u32;
        let mut faults = 0u64;
        for attempt in 1..=MAX_ATTEMPTS {
            attempts = attempt;
            match injector.decide(entry.page as u64, attempt) {
                Fault::None => {
                    cost += service;
                    kb = Some(server.request(entry.page));
                    break;
                }
                Fault::LatencySpike { extra_ms } => {
                    cost += service + extra_ms;
                    kb = Some(server.request(entry.page));
                    break;
                }
                Fault::TransientError | Fault::Panic => {
                    // Connection died early: the round trip is burnt.
                    faults += 1;
                    cost += meta.rtt_ms * latency_factor;
                }
                Fault::Timeout => {
                    // Waited out the whole transfer before giving up.
                    faults += 1;
                    cost += service;
                }
            }
        }
        let end = start + cost;
        slots[slot] = end;
        out.push(ExecResult {
            req: entry.req,
            hedge: entry.hedge,
            kb,
            latency_ms: end,
            attempts,
            faults,
        });
    }
    let busy = slots.iter().copied().fold(0.0f64, f64::max);
    (out, busy)
}

/// Mutable run-wide accounting, local to one `run_storm` call.
struct RunAccounting {
    issued: u64,
    acked: u64,
    served_primary: u64,
    served_hedge: u64,
    served_failover: u64,
    failed: u64,
    /// Indexed by `ShedReason as usize`. The tier has no drain window,
    /// so its `DrainOverrun` slot stays zero.
    shed: [u64; 4],
    hedges_fired: u64,
    hedge_redundant: u64,
    hedge_wasted: u64,
    attempts_total: u64,
    faults_seen: u64,
    ejections: u32,
    readmissions: u32,
    kills: u32,
    restarts: u32,
    events: Vec<String>,
    latency: LatencyHistogram,
    sim_ms_total: f64,
    acked_pages: BTreeSet<usize>,
}

impl RunAccounting {
    fn new() -> Self {
        Self {
            issued: 0,
            acked: 0,
            served_primary: 0,
            served_hedge: 0,
            served_failover: 0,
            failed: 0,
            shed: [0; 4],
            hedges_fired: 0,
            hedge_redundant: 0,
            hedge_wasted: 0,
            attempts_total: 0,
            faults_seen: 0,
            ejections: 0,
            readmissions: 0,
            kills: 0,
            restarts: 0,
            events: Vec::new(),
            latency: LatencyHistogram::new(0.1, 1e6, 36),
            sim_ms_total: 0.0,
            acked_pages: BTreeSet::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ClusterConfig {
        ClusterConfig {
            server: ServerConfig { pages: 40, time_scale: 1e-7, ..ServerConfig::default() },
            ..ClusterConfig::default()
        }
    }

    fn steady_schedule(ticks: usize, per_tick: usize, pages: usize, seed: u64) -> Vec<Vec<usize>> {
        use parc_util::rng::Xoshiro256;
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..ticks)
            .map(|_| (0..per_tick).map(|_| rng.gen_range_usize(0..pages)).collect())
            .collect()
    }

    #[test]
    fn ring_owners_are_distinct_and_stable() {
        let ring = HashRing::new(7, 4, 64);
        for page in 0..200 {
            let owners = ring.owners(page, 3);
            assert_eq!(owners.len(), 3);
            let mut dedup = owners.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "owners must be distinct replicas");
            assert_eq!(owners, HashRing::new(7, 4, 64).owners(page, 3), "seeded = stable");
            assert_eq!(owners[0], ring.primary(page));
        }
    }

    #[test]
    fn ring_ejection_remaps_only_the_ejected_replicas_pages() {
        let ring = HashRing::new(42, 4, 64);
        let all = vec![true; 4];
        let mut without2 = all.clone();
        without2[2] = false;
        for page in 0..300 {
            let before = ring.owners_among(page, 1, &all)[0];
            let after = ring.owners_among(page, 1, &without2)[0];
            if before == 2 {
                assert_ne!(after, 2, "ejected replica must lose its pages");
            } else {
                assert_eq!(after, before, "page {page}: surviving owner must keep its pages");
            }
        }
    }

    #[test]
    fn calm_run_acks_everything_and_conserves() {
        let rt = TaskRuntime::builder().workers(4).build();
        let mut cluster = Cluster::new(quick_cfg());
        let schedule = steady_schedule(12, 16, 40, 0xA1);
        let storm = FaultStorm::burst(0x5EED);
        // Calm phase only: slice the schedule into the calm third.
        let calm_only: Vec<Vec<usize>> = schedule[..4].to_vec();
        let report = cluster.run_storm(&rt, &calm_only, &storm, None);
        assert_eq!(report.violations(), Vec::<String>::new());
        assert_eq!(report.issued, 64);
        assert!(report.acked > 0);
        rt.shutdown();
    }

    #[test]
    fn storm_run_is_deterministic_across_worker_counts() {
        let storm = FaultStorm::brownout(0xABCD);
        let schedule = steady_schedule(20, 12, 40, 0xF00);
        let mut reports = Vec::new();
        for workers in [2usize, 6] {
            let rt = TaskRuntime::builder().workers(workers).build();
            let mut cluster = Cluster::new(quick_cfg());
            reports.push(cluster.run_storm(&rt, &schedule, &storm, None));
            rt.shutdown();
        }
        assert_eq!(reports[0], reports[1], "worker count leaked into outcomes");
        assert_eq!(reports[0].fingerprint(), reports[1].fingerprint());
    }

    #[test]
    fn killed_replica_loses_no_acked_pages_with_replication() {
        let rt = TaskRuntime::builder().workers(4).build();
        let mut cluster = Cluster::new(quick_cfg());
        let schedule = steady_schedule(24, 16, 40, 0xBEE);
        let storm = FaultStorm::burst(0x5EED);
        let outage = OutageScript { replica: 1, kill_tick: 8, restart_tick: 16 };
        let report = cluster.run_storm(&rt, &schedule, &storm, Some(outage));
        assert_eq!(report.kills, 1);
        assert_eq!(report.restarts, 1);
        assert_eq!(report.supervision_restarts, 1);
        assert_eq!(report.lost_acked, 0, "replication must cover the kill");
        assert!(report.reserved_from_replica > 0, "some pages must survive only on a replica");
        assert_eq!(report.violations(), Vec::<String>::new());
        rt.shutdown();
    }

    #[test]
    fn replication_one_loses_pages_and_the_check_catches_it() {
        // Negative control: with R=1 a kill MUST lose acked pages,
        // proving the conservation check actually detects loss.
        let rt = TaskRuntime::builder().workers(2).build();
        let cfg = ClusterConfig { replication: 1, ..quick_cfg() };
        let mut cluster = Cluster::new(cfg);
        let schedule = steady_schedule(24, 16, 40, 0xBEE);
        let storm = FaultStorm::burst(0x5EED);
        let outage = OutageScript { replica: 1, kill_tick: 8, restart_tick: 16 };
        let report = cluster.run_storm(&rt, &schedule, &storm, Some(outage));
        assert!(report.lost_acked > 0, "R=1 must lose the killed replica's pages");
        assert!(
            report.violations().iter().any(|v| v.contains("lost")),
            "violations must flag the loss"
        );
        rt.shutdown();
    }

    #[test]
    fn queue_full_backpressure_sheds_instead_of_collapsing() {
        let rt = TaskRuntime::builder().workers(2).build();
        let cfg = ClusterConfig { queue_capacity: 2, ..quick_cfg() };
        let mut cluster = Cluster::new(cfg);
        // One massive tick: far more requests than 3 replicas × 2 slots.
        let schedule = vec![steady_schedule(1, 64, 40, 0xCAFE).remove(0)];
        let storm = FaultStorm::burst(0x5EED);
        let report = cluster.run_storm(&rt, &schedule, &storm, None);
        assert!(report.shed_queue_full > 0, "bounded queues must shed");
        assert_eq!(report.violations(), Vec::<String>::new());
        rt.shutdown();
    }

    #[test]
    fn hedges_fire_and_never_double_count() {
        let rt = TaskRuntime::builder().workers(4).build();
        // Hedge aggressively: median threshold, warm up quickly.
        let cfg = ClusterConfig {
            hedge_quantile: 0.5,
            hedge_min_samples: 16,
            ..quick_cfg()
        };
        let mut cluster = Cluster::new(cfg);
        let schedule = steady_schedule(16, 24, 40, 0xD1CE);
        let storm = FaultStorm::burst(0x5EED);
        let report = cluster.run_storm(&rt, &schedule, &storm, None);
        assert!(report.hedges_fired > 0, "median threshold must hedge");
        assert_eq!(
            report.hedges_fired,
            report.served_hedge + report.hedge_redundant + report.hedge_wasted,
            "every hedge accounted once"
        );
        assert_eq!(report.violations(), Vec::<String>::new());
        rt.shutdown();
    }
}
