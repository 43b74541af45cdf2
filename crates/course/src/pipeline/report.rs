//! The deterministic marking report: per-cell counters, conservation
//! identities and the rerun/pool-size-stable fingerprint.

use parc_supervise::SupervisionReport;
use parc_trace::LatencyHistogram;

/// Per-shard accounting.
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// Submissions hashed to this shard (admitted or shed at the
    /// gate).
    pub arrived: u64,
    /// Submissions that entered the bounded queue.
    pub enqueued: u64,
    /// Submissions shed at admission because the queue was full.
    pub shed_full: u64,
    /// Submissions shed from the queue when the drain window closed.
    pub shed_drain: u64,
    /// Submissions marked (acked) out of this shard.
    pub served: u64,
    /// High-water mark of the queue depth.
    pub peak_depth: u64,
}

/// Per-marker accounting.
#[derive(Clone, Debug, Default)]
pub struct MarkerStats {
    /// Submissions this marker acked across all incarnations.
    pub marked: u64,
    /// Storm kills suffered (each tears up the unacked tail of the
    /// in-progress batch).
    pub kills: u64,
    /// Supervised restarts granted (kills minus a final escalating
    /// kill, if any).
    pub restarts: u64,
    /// Claims torn up by this marker's deaths.
    pub reclaimed: u64,
    /// Did the marker exhaust its restart budget and die for good?
    pub escalated: bool,
    /// Final supervised incarnation number.
    pub final_incarnation: u32,
}

/// Everything one pipeline cell (arrival process × fault storm)
/// produced. All fields except the embedded wall-clock are pure
/// functions of the cell seed — [`CellReport::fingerprint`] pins
/// that.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Arrival-process name (`"poisson_steady"`, ...).
    pub arrival: &'static str,
    /// Storm shape name (`"burst"`, ...).
    pub storm: &'static str,
    /// Cell seed.
    pub seed: u64,
    /// Submissions generated (== admitted to the ledger).
    pub submitted: u64,
    /// Submissions marked exactly once.
    pub marked: u64,
    /// Submissions shed (queue-full + drain), always attributed.
    pub shed: u64,
    /// Ledger claims granted.
    pub claims: u64,
    /// Claims torn up by marker deaths.
    pub reclaims: u64,
    /// Submissions re-marked after a lost first attempt.
    pub redone: u64,
    /// Rejected duplicate acks (must be 0).
    pub duplicates: u64,
    /// Rejected zombie acks (must be 0 in the model).
    pub stale_acks: u64,
    /// Ledger slots still in flight at the end (must be 0).
    pub in_flight: u64,
    /// Marker kills dealt by the storm.
    pub kills: u64,
    /// Supervised restarts granted.
    pub restarts: u64,
    /// Markers that exhausted their budget and were reassigned.
    pub escalations: u64,
    /// Ticks that ran (arrivals + drain).
    pub ticks: u32,
    /// Ticks the expensive stage was degraded.
    pub degraded_ticks: u32,
    /// Spot-checks eligible by sampling.
    pub spot_eligible: u64,
    /// Spot-checks actually run.
    pub spot_run: u64,
    /// Spot-checks skipped under degradation (quantified, explicit).
    pub spot_degraded: u64,
    /// Spot-checks whose dynamic findings the static stage missed
    /// (must be 0: the PR 9 engine is sound on generated programs).
    pub spot_missed: u64,
    /// Distinct students with at least one marked submission.
    pub students_marked: u64,
    /// Mean of per-student best marks, percent.
    pub cohort_mean_best: f64,
    /// Order-stable digest of every `(id, mark)` ack.
    pub mark_digest: u64,
    /// Per-shard accounting.
    pub shards: Vec<ShardStats>,
    /// Per-marker accounting.
    pub markers: Vec<MarkerStats>,
    /// Model-time marking latency (arrival tick → ack), milliseconds.
    pub latency: LatencyHistogram,
    /// Narrative event log (phase changes, kills, restarts,
    /// degradation toggles), deterministic.
    pub events: Vec<String>,
    /// The supervision tree's own report for the marker guards.
    pub supervision: SupervisionReport,
    /// The ledger's own check of its slot states against its counters
    /// ([`super::ledger::MarkLedger::conservation_violations`]), taken when the
    /// cell finished (empty = conserved). Checked by
    /// [`CellReport::violations`]; not part of the fingerprint.
    pub ledger_violations: Vec<String>,
    /// Wall-clock for the whole cell — the only nondeterministic
    /// field, excluded from the fingerprint.
    pub elapsed_ms: f64,
}

impl CellReport {
    /// Check every conservation identity the pipeline promises.
    /// Returns the violated ones (empty = clean).
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let mut check = |ok: bool, msg: String| {
            if !ok {
                bad.push(msg);
            }
        };
        check(
            self.submitted == self.marked + self.shed,
            format!(
                "submitted {} != marked {} + shed {}",
                self.submitted, self.marked, self.shed
            ),
        );
        check(self.in_flight == 0, format!("{} submissions still in flight", self.in_flight));
        check(self.duplicates == 0, format!("{} duplicate marks", self.duplicates));
        check(self.stale_acks == 0, format!("{} stale acks reached the ledger", self.stale_acks));
        check(
            self.claims == self.marked + self.reclaims,
            format!(
                "claims {} != marked {} + reclaims {}",
                self.claims, self.marked, self.reclaims
            ),
        );
        let shard_served: u64 = self.shards.iter().map(|s| s.served).sum();
        check(
            shard_served == self.marked,
            format!("per-shard served {shard_served} != marked {}", self.marked),
        );
        let shard_arrived: u64 = self.shards.iter().map(|s| s.arrived).sum();
        check(
            shard_arrived == self.submitted,
            format!("per-shard arrived {shard_arrived} != submitted {}", self.submitted),
        );
        let marker_marked: u64 = self.markers.iter().map(|m| m.marked).sum();
        check(
            marker_marked == self.marked,
            format!("per-marker marked {marker_marked} != marked {}", self.marked),
        );
        let marker_kills: u64 = self.markers.iter().map(|m| m.kills).sum();
        check(
            marker_kills == self.kills,
            format!("per-marker kills {marker_kills} != kills {}", self.kills),
        );
        check(
            self.spot_eligible == self.spot_run + self.spot_degraded,
            format!(
                "spot eligible {} != run {} + degraded {} — degradation must be quantified",
                self.spot_eligible, self.spot_run, self.spot_degraded
            ),
        );
        check(self.spot_missed == 0, format!("{} spot-checks missed findings", self.spot_missed));
        check(
            self.latency.total() == self.marked,
            format!(
                "latency samples {} != marked {}",
                self.latency.total(),
                self.marked
            ),
        );
        // The real supervision tree must agree with the model.
        check(
            u64::from(self.supervision.restarts_total) == self.restarts,
            format!(
                "supervised restarts {} != model restarts {}",
                self.supervision.restarts_total, self.restarts
            ),
        );
        check(
            u64::from(self.supervision.escalations) == self.escalations,
            format!(
                "supervised escalations {} != model escalations {}",
                self.supervision.escalations, self.escalations
            ),
        );
        for v in self.supervision.conservation_violations() {
            bad.push(format!("supervision: {v}"));
        }
        bad.extend(self.ledger_violations.iter().cloned());
        bad
    }

    /// The deterministic block: every model-derived field rendered
    /// canonically. Bit-identical across reruns and worker-pool
    /// sizes; excludes only wall-clock.
    #[must_use]
    pub fn render_deterministic(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "cell {} x {} seed {:#x}", self.arrival, self.storm, self.seed);
        let _ = writeln!(
            out,
            "submitted {} marked {} shed {} in_flight {} duplicates {} stale {}",
            self.submitted, self.marked, self.shed, self.in_flight, self.duplicates,
            self.stale_acks
        );
        let _ = writeln!(
            out,
            "claims {} reclaims {} redone {} kills {} restarts {} escalations {}",
            self.claims, self.reclaims, self.redone, self.kills, self.restarts, self.escalations
        );
        let _ = writeln!(
            out,
            "ticks {} degraded_ticks {} spot {}/{}/{} missed {}",
            self.ticks,
            self.degraded_ticks,
            self.spot_run,
            self.spot_degraded,
            self.spot_eligible,
            self.spot_missed
        );
        let _ = writeln!(
            out,
            "students_marked {} cohort_mean_best {:.4} mark_digest {:#018x}",
            self.students_marked, self.cohort_mean_best, self.mark_digest
        );
        let _ = writeln!(
            out,
            "latency_ms p50 {:.3} p99 {:.3} p999 {:.3} samples {}",
            self.latency.p50(),
            self.latency.p99(),
            self.latency.p999(),
            self.latency.total()
        );
        for (i, s) in self.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "shard {i}: arrived {} enqueued {} served {} shed_full {} shed_drain {} peak {}",
                s.arrived, s.enqueued, s.served, s.shed_full, s.shed_drain, s.peak_depth
            );
        }
        for (i, m) in self.markers.iter().enumerate() {
            let _ = writeln!(
                out,
                "marker {i}: marked {} kills {} restarts {} reclaimed {} escalated {} inc {}",
                m.marked, m.kills, m.restarts, m.reclaimed, m.escalated, m.final_incarnation
            );
        }
        for ev in &self.events {
            let _ = writeln!(out, "event {ev}");
        }
        out.push_str("supervision:\n");
        out.push_str(&self.supervision.event_log());
        out
    }

    /// FNV-1a fingerprint of [`CellReport::render_deterministic`].
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        parc_util::fnv1a(self.render_deterministic().as_bytes())
    }
}

/// Fold one `(id, mark)` ack into the running order-stable digest.
/// Acks happen in deterministic model order, so a sequential fold is
/// stable across pools; mixing per-entry keeps it sensitive to both
/// value and position.
#[must_use]
pub fn fold_mark_digest(digest: u64, id: u64, mark_bits: u64) -> u64 {
    let mut h = digest ^ id.rotate_left(31) ^ mark_bits;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 29;
    h
}
