//! Attributed load shedding: the one reason type every bounded queue
//! in the workspace sheds with.

use std::fmt;

/// Machine-readable reason a unit of work was shed instead of served.
/// Shedding is always an explicit, attributed decision, never a silent
/// drop: the sharded web tier (`websim::cluster`) sheds requests with
/// the first four reasons, the auto-marking pipeline
/// (`course::pipeline`) sheds submissions with `QueueFull` and
/// `DrainOverrun`, and both count every reason on its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShedReason {
    /// An admission gate refused the work before routing (a per-tick
    /// cap was reached).
    Admission,
    /// The predicted cost exceeded the active deadline budget, so
    /// serving the work would only have added load.
    Deadline,
    /// Every candidate's circuit breaker was open.
    Breaker,
    /// Every candidate's bounded queue was full — the end-to-end
    /// backpressure signal.
    QueueFull,
    /// The drain window closed with the work still queued.
    DrainOverrun,
}

impl ShedReason {
    /// Stable label for reports and benchmark JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::Admission => "admission",
            ShedReason::Deadline => "deadline",
            ShedReason::Breaker => "breaker",
            ShedReason::QueueFull => "queue_full",
            ShedReason::DrainOverrun => "drain_overrun",
        }
    }

    /// All reasons, in canonical (enum) order — for report tables and
    /// per-reason counters indexed by `reason as usize`.
    #[must_use]
    pub fn all() -> [ShedReason; 5] {
        [
            ShedReason::Admission,
            ShedReason::Deadline,
            ShedReason::Breaker,
            ShedReason::QueueFull,
            ShedReason::DrainOverrun,
        ]
    }
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_reason_is_machine_readable_and_pinned() {
        // The reason taxonomy is part of the report/JSON contract:
        // names and order are pinned here so downstream consumers
        // (per-reason counters, BENCH_load.json) can rely on them.
        assert_eq!(
            ShedReason::all().map(ShedReason::name),
            ["admission", "deadline", "breaker", "queue_full", "drain_overrun"]
        );
        for (i, reason) in ShedReason::all().into_iter().enumerate() {
            assert_eq!(reason as usize, i, "canonical order must match enum order");
            assert_eq!(reason.to_string(), reason.name());
        }
    }
}
