//! A consecutive-failure circuit breaker with half-open probing.

use parc_trace::{BreakerPhase, MarkKind, TraceHandle};
use parking_lot::Mutex;

/// Observable breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Requests are rejected while the dependency cools down.
    Open,
    /// One probe request is allowed through to test recovery.
    HalfOpen,
}

impl BreakerState {
    fn phase(self) -> BreakerPhase {
        match self {
            BreakerState::Closed => BreakerPhase::Closed,
            BreakerState::Open => BreakerPhase::Open,
            BreakerState::HalfOpen => BreakerPhase::HalfOpen,
        }
    }
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    consecutive_failures: u32,
    /// Calls denied since the breaker opened (cooldown progress).
    denied: u32,
    /// Is the half-open probe currently in flight?
    probing: bool,
    /// Consecutive successful probes in the current half-open phase.
    probe_streak: u32,
}

/// Trips open after `threshold` consecutive failures; after
/// `cooldown_calls` denied requests it half-opens and admits probes
/// one at a time. After `probe_successes` consecutive successful
/// probes (default 1, see [`Breaker::with_probe_successes`]) the
/// breaker closes; any failed probe re-opens it for another full
/// cooldown. Requiring more than one probe success makes the breaker
/// robust against *flapping* dependencies that recover for a single
/// call and fail again.
///
/// Cooldown is counted in *denied calls* rather than elapsed time, so
/// behaviour under a deterministic fault plan is itself deterministic
/// (no wall-clock dependence). Thread-safe: all methods take `&self`.
#[derive(Debug)]
pub struct Breaker {
    threshold: u32,
    cooldown_calls: u32,
    probe_successes: u32,
    inner: Mutex<Inner>,
    trace: TraceHandle,
    pid: u32,
}

impl Breaker {
    /// A breaker tripping after `threshold` consecutive failures and
    /// cooling down over `cooldown_calls` denied requests.
    #[must_use]
    pub fn new(threshold: u32, cooldown_calls: u32) -> Self {
        assert!(threshold >= 1, "threshold must be at least 1");
        Self {
            threshold,
            cooldown_calls,
            probe_successes: 1,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                denied: 0,
                probing: false,
                probe_streak: 0,
            }),
            trace: TraceHandle::default(),
            pid: 0,
        }
    }

    /// Require `n` consecutive successful half-open probes before the
    /// breaker closes (default 1, which preserves the single-probe
    /// behaviour). Probes are still admitted one at a time: each
    /// success admits the next probe, and the breaker closes when the
    /// streak reaches `n`.
    #[must_use]
    pub fn with_probe_successes(mut self, n: u32) -> Self {
        assert!(n >= 1, "at least one successful probe is required");
        self.probe_successes = n;
        self
    }

    /// Record this breaker's state transitions through `trace` on the
    /// track `pid` (obtain one with
    /// [`parc_trace::TraceHandle::register_track`]).
    #[must_use]
    pub fn with_trace(mut self, trace: &TraceHandle, pid: u32) -> Self {
        self.trace = trace.clone();
        self.pid = pid;
        self
    }

    /// Emit a transition mark when the state actually changed.
    fn trace_transition(&self, from: BreakerState, to: BreakerState) {
        if from != to {
            self.trace.mark(
                self.pid,
                MarkKind::BreakerTransition {
                    from: from.phase(),
                    to: to.phase(),
                },
            );
        }
    }

    /// May a request proceed right now? Denials advance the cooldown.
    pub fn allow(&self) -> bool {
        let mut g = self.inner.lock();
        let before = g.state;
        let decision = match g.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                g.denied += 1;
                if g.denied >= self.cooldown_calls {
                    g.state = BreakerState::HalfOpen;
                    g.probing = false;
                }
                false
            }
            BreakerState::HalfOpen => {
                if g.probing {
                    false
                } else {
                    g.probing = true;
                    true
                }
            }
        };
        let after = g.state;
        drop(g);
        self.trace_transition(before, after);
        decision
    }

    /// Record that an admitted request succeeded.
    pub fn record_success(&self) {
        let mut g = self.inner.lock();
        let before = g.state;
        match g.state {
            BreakerState::HalfOpen => {
                g.probe_streak += 1;
                // Clearing `probing` admits the next probe when the
                // required streak has not been reached yet.
                g.probing = false;
                if g.probe_streak >= self.probe_successes {
                    g.state = BreakerState::Closed;
                    g.consecutive_failures = 0;
                    g.denied = 0;
                    g.probe_streak = 0;
                }
            }
            BreakerState::Closed | BreakerState::Open => {
                // A success outside half-open closes the breaker and
                // resets every counter. (In the Open state this can
                // only be a call admitted before the trip; it is
                // treated as evidence of recovery, as the
                // single-probe breaker always did.)
                g.state = BreakerState::Closed;
                g.consecutive_failures = 0;
                g.denied = 0;
                g.probing = false;
                g.probe_streak = 0;
            }
        }
        let after = g.state;
        drop(g);
        self.trace_transition(before, after);
    }

    /// Record that an admitted request failed.
    pub fn record_failure(&self) {
        let mut g = self.inner.lock();
        let before = g.state;
        match g.state {
            BreakerState::HalfOpen => {
                // Failed probe: straight back to a full cooldown, and
                // any accumulated probe streak is forfeited.
                g.state = BreakerState::Open;
                g.denied = 0;
                g.probing = false;
                g.probe_streak = 0;
            }
            BreakerState::Closed => {
                g.consecutive_failures += 1;
                if g.consecutive_failures >= self.threshold {
                    g.state = BreakerState::Open;
                    g.denied = 0;
                }
            }
            BreakerState::Open => {}
        }
        let after = g.state;
        drop(g);
        self.trace_transition(before, after);
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_until_threshold() {
        let b = Breaker::new(3, 5);
        assert!(b.allow());
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow());
    }

    #[test]
    fn success_resets_failure_streak() {
        let b = Breaker::new(2, 5);
        b.record_failure();
        b.record_success();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn cooldown_leads_to_half_open_probe() {
        let b = Breaker::new(1, 3);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        // Three denials complete the cooldown.
        assert!(!b.allow());
        assert!(!b.allow());
        assert!(!b.allow());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Exactly one probe gets through.
        assert!(b.allow());
        assert!(!b.allow());
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
    }

    #[test]
    fn transitions_are_traced() {
        let col = parc_trace::Collector::new();
        let h = col.handle();
        let pid = h.register_track("breaker");
        let b = Breaker::new(1, 1).with_trace(&h, pid);
        b.record_failure(); // Closed -> Open
        assert!(!b.allow()); // cooldown done: Open -> HalfOpen
        assert!(b.allow()); // probe admitted, no transition
        b.record_success(); // HalfOpen -> Closed
        b.record_success(); // already Closed: no transition
        let trace = col.snapshot();
        assert_eq!(trace.counts_by_name()["breaker.transition"], 3);
    }

    #[test]
    fn multi_probe_threshold_requires_a_streak() {
        let b = Breaker::new(1, 2).with_probe_successes(3);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow());
        assert!(!b.allow()); // cooldown done → HalfOpen
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Each success admits the next probe; only the third closes.
        for expected_probes in 1..=2 {
            assert!(b.allow(), "probe {expected_probes} admitted");
            assert!(!b.allow(), "one probe at a time");
            b.record_success();
            assert_eq!(b.state(), BreakerState::HalfOpen, "streak not complete");
        }
        assert!(b.allow());
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn flapping_dependency_cannot_close_a_multi_probe_breaker() {
        // Dependency pattern: one success, then a failure — forever.
        // A single-probe breaker would close on every good call and
        // trip again immediately; requiring a streak of 2 keeps it
        // open/half-open throughout the flapping.
        let b = Breaker::new(1, 1).with_probe_successes(2);
        b.record_failure();
        for _ in 0..10 {
            assert!(!b.allow()); // cooldown → HalfOpen
            assert!(b.allow()); // probe 1
            b.record_success(); // streak 1 of 2: still HalfOpen
            assert_eq!(b.state(), BreakerState::HalfOpen);
            assert!(b.allow()); // probe 2
            b.record_failure(); // flap: streak forfeited, re-open
            assert_eq!(b.state(), BreakerState::Open);
        }
    }

    #[test]
    fn single_probe_default_closes_on_flap_recovery() {
        // The contrast case: with the default threshold of 1 the same
        // flapping pattern closes (and re-trips) the breaker each
        // cycle — the pre-existing behaviour, preserved by default.
        let b = Breaker::new(1, 1);
        b.record_failure();
        assert!(!b.allow());
        assert!(b.allow());
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens() {
        let b = Breaker::new(1, 1);
        b.record_failure();
        assert!(!b.allow()); // cooldown done → HalfOpen
        assert!(b.allow()); // probe admitted
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow()); // cooldown done again → HalfOpen
        assert!(b.allow());
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }
}
