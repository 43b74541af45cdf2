//! Supervised guards: the bridge between a tick-driven model that
//! decides *when* its simulated workers die and a real supervisor that
//! decides whether they come back.
//!
//! Each guard is one supervised child standing for one simulated
//! worker (a marker of the auto-marking pipeline, a replica of the
//! sharded web tier). An incarnation announces itself, then waits for
//! the model's verdict. [`Guards::kill`] fails the incarnation, which
//! charges the child's restart budget; [`Guards::await_restart`]
//! blocks until the supervisor has started the next one. A kill past
//! the budget escalates instead. So "supervised restart" and
//! "escalation" in a model's report are literal, not simulated.

use std::sync::mpsc;
use std::thread;

use parking_lot::Mutex;

use crate::supervisor::{ChildError, SupervisionReport, SupervisorBuilder};

/// The model's verdict on a guard's current incarnation.
enum Verdict {
    /// The worker died: fail, charging the restart budget.
    Kill,
    /// The run is over: complete.
    Done,
}

/// A running supervision tree of guard children, one per name, run on
/// its own thread.
pub struct Guards {
    verdicts: Vec<mpsc::Sender<Verdict>>,
    started: Vec<mpsc::Receiver<u32>>,
    supervisor: thread::JoinHandle<SupervisionReport>,
}

impl Guards {
    /// Add one guard child per name to `builder` (which sets the
    /// restart budget, backoff and trace), run it on a new thread, and
    /// return once every guard's first incarnation is up.
    ///
    /// # Panics
    /// If the supervisor thread cannot be spawned.
    #[must_use]
    pub fn spawn<S: AsRef<str>>(
        mut builder: SupervisorBuilder,
        names: impl IntoIterator<Item = S>,
    ) -> Self {
        let mut verdicts = Vec::new();
        let mut started = Vec::new();
        for name in names {
            let (verdict_tx, verdict_rx) = mpsc::channel();
            let (started_tx, started_rx) = mpsc::channel();
            verdicts.push(verdict_tx);
            started.push(started_rx);
            let verdict_rx = Mutex::new(verdict_rx);
            builder = builder.child(name.as_ref(), move |ctx| {
                let _ = started_tx.send(ctx.incarnation);
                match verdict_rx.lock().recv() {
                    Ok(Verdict::Kill) => Err(ChildError::Failed("killed by the model".into())),
                    Ok(Verdict::Done) | Err(_) => Ok(()),
                }
            });
        }
        let supervisor = thread::Builder::new()
            .name(format!("{}-supervisor", builder.name))
            .spawn(move || builder.run())
            .expect("spawn guard supervisor thread");
        // Consume every first incarnation's signal so `await_restart`
        // blocks on a *restarted* incarnation.
        for rx in &started {
            assert_eq!(rx.recv().expect("guard must start"), 1);
        }
        Self {
            verdicts,
            started,
            supervisor,
        }
    }

    /// Fail guard `i`'s current incarnation; the supervisor restarts it
    /// if its budget allows, and escalates otherwise.
    ///
    /// # Panics
    /// If the supervision tree has already finished.
    pub fn kill(&self, i: usize) {
        self.verdicts[i]
            .send(Verdict::Kill)
            .expect("guard alive at kill");
    }

    /// Block until the supervisor has restarted guard `i`; returns the
    /// new incarnation number.
    ///
    /// # Panics
    /// If the guard escalated instead of restarting.
    #[must_use]
    pub fn await_restart(&self, i: usize) -> u32 {
        self.started[i]
            .recv()
            .expect("supervisor must restart the guard")
    }

    /// Complete every surviving guard and return the supervision
    /// report.
    ///
    /// # Panics
    /// If the supervisor thread panicked, as it does when `spawn` was
    /// given no names.
    #[must_use]
    pub fn finish(self) -> SupervisionReport {
        for tx in &self.verdicts {
            // An escalated guard is gone; nobody reads its verdict.
            let _ = tx.send(Verdict::Done);
        }
        self.supervisor
            .join()
            .expect("guard supervisor thread must not panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::Supervisor;
    use faultsim::RetryPolicy;
    use std::time::Duration;

    #[test]
    fn kills_restart_within_budget_and_escalate_past_it() {
        // One restart each: the second kill of a guard escalates.
        let builder = Supervisor::builder("guards")
            .restart_policy(RetryPolicy::fixed(Duration::from_millis(1)).with_max_attempts(2))
            .backoff_time_scale(1e-3);
        let guards = Guards::spawn(builder, ["a", "b"]);
        guards.kill(0);
        assert_eq!(guards.await_restart(0), 2);
        guards.kill(1);
        assert_eq!(guards.await_restart(1), 2);
        guards.kill(1);
        let report = guards.finish();
        assert_eq!(report.restarts_total, 2);
        assert_eq!(report.escalations, 1);
        assert!(
            report.children[1].escalated,
            "the second kill of guard 1 escalates"
        );
        assert!(report.conservation_violations().is_empty());
    }
}
