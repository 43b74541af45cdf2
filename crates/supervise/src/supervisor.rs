//! Erlang-style supervision: restart policies, seeded restart budgets
//! with deterministic backoff, and escalation.
//!
//! A [`Supervisor`] owns a set of named children, each a closure run on
//! its own dedicated thread under a [`CancelToken`] that is a child of
//! the supervisor's token. When a child *fails* (returns an error,
//! panics, or exceeds its deadline) the supervisor restarts it — with a
//! backoff schedule taken from a [`faultsim::RetryPolicy`], so delays
//! are a pure function of `(seed, child, restart)` — until the child's
//! restart budget is exhausted, at which point the failure **escalates**:
//! the child is recorded as escalated, and when the supervisor is
//! nested as a subtree ([`SupervisorBuilder::child_tree`]) the parent
//! observes the escalation as an ordinary child failure, giving the
//! classic supervision-tree semantics.
//!
//! Every lifecycle step is emitted as a `parc-trace` mark
//! (`sup.child_start`, `sup.child_exit`, `sup.restart`,
//! `sup.escalate`) and recorded in the returned [`SupervisionReport`],
//! whose canonical event log is ordered by `(child, seq)` — per-child
//! sequences are deterministic under a seeded failure schedule even
//! though global completion order races.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use faultsim::RetryPolicy;
use parc_trace::{ChildTag, MarkKind, TraceHandle};
use parc_util::rng::SplitMix64;

use crate::token::CancelToken;

/// Which siblings a child failure takes down before restarting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Only the failed child is restarted; siblings are untouched.
    OneForOne,
    /// A child failure cancels every running sibling, then the failed
    /// child and all cancelled siblings are restarted together.
    AllForOne,
}

impl RestartPolicy {
    /// Stable label for reports and benchmarks.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RestartPolicy::OneForOne => "one_for_one",
            RestartPolicy::AllForOne => "all_for_one",
        }
    }
}

/// Why a child body did not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChildError {
    /// The child's work failed.
    Failed(String),
    /// The child observed its token and stopped cooperatively.
    Cancelled,
}

/// How one child incarnation exited.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChildOutcome {
    /// The body returned success; the child is done for good.
    Completed,
    /// The body returned [`ChildError::Failed`].
    Failed,
    /// The body panicked (contained by the supervisor).
    Panicked,
    /// The body stopped after observing cancellation.
    Cancelled,
    /// The body stopped because its per-incarnation deadline expired.
    TimedOut,
}

impl ChildOutcome {
    /// Does this exit count against the restart budget?
    #[must_use]
    pub fn is_failure(self) -> bool {
        matches!(
            self,
            ChildOutcome::Failed | ChildOutcome::Panicked | ChildOutcome::TimedOut
        )
    }

    /// Stable label for reports and benchmarks.
    #[must_use]
    pub fn name(self) -> &'static str {
        self.tag().name()
    }

    /// The trace tag for this outcome.
    #[must_use]
    pub fn tag(self) -> ChildTag {
        match self {
            ChildOutcome::Completed => ChildTag::Completed,
            ChildOutcome::Failed => ChildTag::Failed,
            ChildOutcome::Panicked => ChildTag::Panicked,
            ChildOutcome::Cancelled => ChildTag::Cancelled,
            ChildOutcome::TimedOut => ChildTag::TimedOut,
        }
    }
}

/// What a child body sees: its token, identity and incarnation.
#[derive(Clone, Debug)]
pub struct ChildCtx {
    /// Cancellation token for this incarnation (a child of the
    /// supervisor's token; carries the per-incarnation deadline).
    pub token: CancelToken,
    /// Supervisor-local child index.
    pub child: u32,
    /// 1-based incarnation number (restarts increment it).
    pub incarnation: u32,
}

type ChildBody = Arc<dyn Fn(&ChildCtx) -> Result<(), ChildError> + Send + Sync>;

#[derive(Clone)]
struct ChildSpec {
    name: String,
    body: ChildBody,
}

/// One entry of the canonical supervision event log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SupEventKind {
    /// An incarnation was started.
    Start {
        /// 1-based incarnation number.
        incarnation: u32,
    },
    /// An incarnation exited.
    Exit {
        /// 1-based incarnation number.
        incarnation: u32,
        /// How it exited.
        outcome: ChildOutcome,
    },
    /// The supervisor decided to restart the child.
    Restart {
        /// The incarnation about to start.
        incarnation: u32,
    },
    /// The child exhausted its restart budget.
    Escalate,
    /// A restart was due but the supervisor's token was cancelled (or
    /// its deadline expired) during the backoff; the child stays down
    /// without being charged or escalated.
    RestartAborted,
}

/// One supervision event, addressed by `(child, seq)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SupEvent {
    /// Supervisor-local child index.
    pub child: u32,
    /// Per-child sequence number (0-based, dense).
    pub seq: u32,
    /// What happened.
    pub kind: SupEventKind,
}

impl SupEvent {
    /// Stable one-line rendering, used by the canonical log.
    #[must_use]
    pub fn render(&self, child_name: &str) -> String {
        match self.kind {
            SupEventKind::Start { incarnation } => {
                format!("{child_name}[{}] #{} start", self.child, incarnation)
            }
            SupEventKind::Exit {
                incarnation,
                outcome,
            } => {
                format!(
                    "{child_name}[{}] #{} exit {}",
                    self.child,
                    incarnation,
                    outcome.name()
                )
            }
            SupEventKind::Restart { incarnation } => {
                format!("{child_name}[{}] #{} restart", self.child, incarnation)
            }
            SupEventKind::Escalate => {
                format!("{child_name}[{}] escalate", self.child)
            }
            SupEventKind::RestartAborted => {
                format!("{child_name}[{}] restart aborted (cancelled)", self.child)
            }
        }
    }
}

/// Final accounting for one supervised child.
#[derive(Clone, Debug)]
pub struct ChildReport {
    /// The child's name.
    pub name: String,
    /// Incarnations started (= restarts + 1).
    pub incarnations: u32,
    /// Restarts performed (own failures *and* all-for-one collective
    /// restarts; always `incarnations - 1`).
    pub restarts: u32,
    /// Failures charged against this child's own restart budget. Under
    /// one-for-one this equals `restarts`; under all-for-one a sibling
    /// taken down collectively is restarted without being charged.
    pub budget_used: u32,
    /// Exit outcome of every incarnation, in order.
    pub exits: Vec<ChildOutcome>,
    /// True when the child exhausted its budget and escalated.
    pub escalated: bool,
    /// True when a due restart was abandoned because the supervisor's
    /// token was cancelled (or its deadline expired) during the
    /// backoff — the child's last exit is then a failure even though
    /// it neither completed nor escalated.
    pub restart_aborted: bool,
}

impl ChildReport {
    /// The last incarnation's outcome.
    #[must_use]
    pub fn final_outcome(&self) -> ChildOutcome {
        *self.exits.last().expect("every child runs at least once")
    }
}

/// Everything a supervision run produced.
#[derive(Clone, Debug)]
pub struct SupervisionReport {
    /// The supervisor's name.
    pub name: String,
    /// The restart policy that ran.
    pub policy: RestartPolicy,
    /// Per-child accounting, by child index.
    pub children: Vec<ChildReport>,
    /// Canonical event log, ordered by `(child, seq)`.
    pub events: Vec<SupEvent>,
    /// Total restarts across children.
    pub restarts_total: u32,
    /// Children that exhausted their budget.
    pub escalations: u32,
    /// Child threads spawned over the whole run.
    pub threads_spawned: u32,
    /// Child threads joined (must equal spawned: no leaks).
    pub threads_joined: u32,
}

impl SupervisionReport {
    /// Did every child complete (no escalation, no cancellation)?
    #[must_use]
    pub fn all_completed(&self) -> bool {
        self.children
            .iter()
            .all(|c| c.final_outcome() == ChildOutcome::Completed)
    }

    /// Did any child exhaust its restart budget? Degradation logic
    /// keys off this directly instead of parsing the event log.
    #[must_use]
    pub fn has_escalations(&self) -> bool {
        self.escalations > 0
    }

    /// The children that exhausted their restart budget and escalated,
    /// in child-index order. Empty when the tree ran within budget.
    #[must_use]
    pub fn escalated_children(&self) -> Vec<&ChildReport> {
        self.children.iter().filter(|c| c.escalated).collect()
    }

    /// The canonical event log as text: one line per event, ordered by
    /// `(child, seq)`. Bit-identical across same-seed reruns.
    #[must_use]
    pub fn event_log(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.render(&self.children[ev.child as usize].name));
            out.push('\n');
        }
        out
    }

    /// Check the spawned-children conservation identity. Every child
    /// started must be accounted for:
    ///
    /// * incarnations = restarts + 1, and every incarnation has
    ///   exactly one recorded exit;
    /// * a non-final incarnation only ever exits by failure (that is
    ///   what triggered its restart) or cancellation (all-for-one
    ///   collective restart);
    /// * escalated children end in a failure outcome, non-escalated
    ///   ones in `Completed` or `Cancelled`;
    /// * every spawned child thread was joined (no leaks).
    ///
    /// Returns the list of violated identities (empty = conserved).
    #[must_use]
    pub fn conservation_violations(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let mut check = |ok: bool, msg: String| {
            if !ok {
                bad.push(msg);
            }
        };
        let mut incarnations_total = 0u32;
        for (i, c) in self.children.iter().enumerate() {
            incarnations_total += c.incarnations;
            check(
                c.incarnations == c.restarts + 1,
                format!(
                    "child {i}: incarnations {} != restarts {} + 1",
                    c.incarnations, c.restarts
                ),
            );
            check(
                c.budget_used <= c.restarts,
                format!(
                    "child {i}: budget_used {} > restarts {}",
                    c.budget_used, c.restarts
                ),
            );
            check(
                c.exits.len() == c.incarnations as usize,
                format!(
                    "child {i}: {} exits for {} incarnations",
                    c.exits.len(),
                    c.incarnations
                ),
            );
            for (k, exit) in c.exits.iter().enumerate() {
                let last = k + 1 == c.exits.len();
                if !last {
                    check(
                        exit.is_failure() || *exit == ChildOutcome::Cancelled,
                        format!("child {i}: non-final exit #{} was {}", k + 1, exit.name()),
                    );
                }
            }
            if c.escalated {
                check(
                    c.final_outcome().is_failure(),
                    format!(
                        "child {i}: escalated but final outcome {}",
                        c.final_outcome().name()
                    ),
                );
            } else if c.restart_aborted {
                // A cancellation that lands during the backoff leaves
                // the child down with its failure exit on record; the
                // abort event accounts for the missing restart.
                check(
                    c.final_outcome().is_failure(),
                    format!(
                        "child {i}: restart aborted but final outcome {}",
                        c.final_outcome().name()
                    ),
                );
            } else {
                check(
                    matches!(
                        c.final_outcome(),
                        ChildOutcome::Completed | ChildOutcome::Cancelled
                    ),
                    format!(
                        "child {i}: not escalated yet final outcome {}",
                        c.final_outcome().name()
                    ),
                );
            }
        }
        check(
            self.restarts_total == self.children.iter().map(|c| c.restarts).sum::<u32>(),
            "restarts_total drifted from per-child records".to_string(),
        );
        check(
            self.escalations == self.children.iter().filter(|c| c.escalated).count() as u32,
            "escalations drifted from per-child records".to_string(),
        );
        check(
            self.threads_spawned == incarnations_total,
            format!(
                "threads_spawned {} != incarnations {}",
                self.threads_spawned, incarnations_total
            ),
        );
        check(
            self.threads_joined == self.threads_spawned,
            format!(
                "thread leak: spawned {} joined {}",
                self.threads_spawned, self.threads_joined
            ),
        );
        // The event log must mirror the per-child records exactly.
        for (i, c) in self.children.iter().enumerate() {
            let child = i as u32;
            let starts = self
                .events
                .iter()
                .filter(|e| e.child == child && matches!(e.kind, SupEventKind::Start { .. }))
                .count();
            let exits = self
                .events
                .iter()
                .filter(|e| e.child == child && matches!(e.kind, SupEventKind::Exit { .. }))
                .count();
            check(
                starts == c.incarnations as usize && exits == c.incarnations as usize,
                format!(
                    "child {i}: event log has {starts} starts / {exits} exits for {} incarnations",
                    c.incarnations
                ),
            );
        }
        bad
    }
}

/// Configures and runs a [`Supervisor`].
#[derive(Clone)]
pub struct SupervisorBuilder {
    pub(crate) name: String,
    policy: RestartPolicy,
    restart: RetryPolicy,
    backoff_seed: u64,
    backoff_time_scale: f64,
    child_deadline: Option<Duration>,
    trace: TraceHandle,
    children: Vec<ChildSpec>,
}

/// A supervisor ready to run; see the module docs. Obtain one through
/// [`Supervisor::builder`].
pub struct Supervisor;

impl Supervisor {
    /// Start configuring a supervisor.
    #[must_use]
    pub fn builder(name: &str) -> SupervisorBuilder {
        SupervisorBuilder {
            name: name.to_string(),
            policy: RestartPolicy::OneForOne,
            // Budget: max_attempts - 1 restarts; backoff from the same
            // policy's deterministic jitter schedule.
            restart: RetryPolicy::fixed(Duration::from_millis(1)).with_max_attempts(3),
            backoff_seed: 0,
            backoff_time_scale: 1.0,
            child_deadline: None,
            trace: TraceHandle::default(),
            children: Vec::new(),
        }
    }
}

impl SupervisorBuilder {
    /// The restart policy (default one-for-one).
    #[must_use]
    pub fn policy(mut self, policy: RestartPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Restart budget and backoff, expressed as a [`RetryPolicy`]: a
    /// child may be restarted `max_attempts - 1` times, waiting
    /// `delay_after(k, seed)` before restart `k` — the exact same
    /// deterministic schedule retries use.
    #[must_use]
    pub fn restart_policy(mut self, policy: RetryPolicy) -> Self {
        self.restart = policy;
        self
    }

    /// Seed for the backoff jitter stream (mixed per child).
    #[must_use]
    pub fn backoff_seed(mut self, seed: u64) -> Self {
        self.backoff_seed = seed;
        self
    }

    /// Scale factor applied to backoff sleeps (tests and simulations
    /// use small factors to run fast; the schedule itself — and thus
    /// the report — is unaffected).
    #[must_use]
    pub fn backoff_time_scale(mut self, scale: f64) -> Self {
        assert!(scale >= 0.0, "time scale must be non-negative");
        self.backoff_time_scale = scale;
        self
    }

    /// Give every child incarnation this execution budget: its token's
    /// deadline is set, and an incarnation that stops because the
    /// budget elapsed is classified [`ChildOutcome::TimedOut`] (a
    /// failure, charged against the restart budget).
    #[must_use]
    pub fn child_deadline(mut self, deadline: Duration) -> Self {
        self.child_deadline = Some(deadline);
        self
    }

    /// Emit supervision events through `trace` on a track named after
    /// the supervisor.
    #[must_use]
    pub fn trace(mut self, trace: &TraceHandle) -> Self {
        self.trace = trace.clone();
        self
    }

    /// Add a supervised child. The body is re-invoked on every
    /// restart with a fresh [`ChildCtx`].
    #[must_use]
    pub fn child(
        mut self,
        name: &str,
        body: impl Fn(&ChildCtx) -> Result<(), ChildError> + Send + Sync + 'static,
    ) -> Self {
        self.children.push(ChildSpec {
            name: name.to_string(),
            body: Arc::new(body),
        });
        self
    }

    /// Add a whole supervisor as a child subtree: the nested
    /// supervisor runs under the child's token, and any escalation
    /// inside it surfaces here as a child failure — the parent then
    /// restarts the subtree (up to its own budget) or escalates
    /// further. This is how failures travel *up the tree*.
    #[must_use]
    pub fn child_tree(self, name: &str, subtree: SupervisorBuilder) -> Self {
        let subtree = Arc::new(subtree);
        self.child(name, move |ctx| {
            let report = subtree.as_ref().clone().run_under(&ctx.token);
            if report.escalations > 0 {
                let names: Vec<&str> = report
                    .children
                    .iter()
                    .filter(|c| c.escalated)
                    .map(|c| c.name.as_str())
                    .collect();
                return Err(ChildError::Failed(format!(
                    "subtree escalated: {}",
                    names.join(", ")
                )));
            }
            if report
                .children
                .iter()
                .any(|c| c.final_outcome() == ChildOutcome::Cancelled)
            {
                return Err(ChildError::Cancelled);
            }
            Ok(())
        })
    }

    /// Run the supervision tree to completion under a fresh root token
    /// and return the full report.
    #[must_use]
    pub fn run(self) -> SupervisionReport {
        let root = CancelToken::new();
        self.run_under(&root)
    }

    /// Run under `parent`: cancelling `parent` cancels the supervisor
    /// and (transitively) every child incarnation.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn run_under(self, parent: &CancelToken) -> SupervisionReport {
        assert!(
            !self.children.is_empty(),
            "a supervisor needs at least one child"
        );
        let sup_token = parent.child();
        let pid = self.trace.register_track(&self.name);
        let budget = self.restart.max_attempts().saturating_sub(1);
        let (tx, rx) = mpsc::channel::<(usize, ChildOutcome)>();

        struct ChildState {
            incarnation: u32,
            restarts: u32,
            budget_used: u32,
            exits: Vec<ChildOutcome>,
            events: Vec<SupEventKind>,
            escalated: bool,
            restart_aborted: bool,
            running: bool,
            token: CancelToken,
            handle: Option<thread::JoinHandle<()>>,
        }
        let mut states: Vec<ChildState> = (0..self.children.len())
            .map(|_| ChildState {
                incarnation: 0,
                restarts: 0,
                budget_used: 0,
                exits: Vec::new(),
                events: Vec::new(),
                escalated: false,
                restart_aborted: false,
                running: false,
                token: sup_token.child(),
                handle: None,
            })
            .collect();
        let mut threads_spawned = 0u32;
        let mut threads_joined = 0u32;

        let spawn_child = |idx: usize, st: &mut ChildState, threads_spawned: &mut u32| {
            st.incarnation += 1;
            let token = match self.child_deadline {
                Some(d) => sup_token.child_with_deadline(d),
                None => sup_token.child(),
            };
            st.token = token.clone();
            st.running = true;
            st.events.push(SupEventKind::Start {
                incarnation: st.incarnation,
            });
            self.trace.mark(
                pid,
                MarkKind::ChildStart {
                    child: idx as u64,
                    incarnation: st.incarnation,
                },
            );
            let ctx = ChildCtx {
                token,
                child: idx as u32,
                incarnation: st.incarnation,
            };
            let body = Arc::clone(&self.children[idx].body);
            let tx = tx.clone();
            let thread_name = format!(
                "{}-{}-{}",
                self.name, self.children[idx].name, st.incarnation
            );
            *threads_spawned += 1;
            st.handle = Some(
                thread::Builder::new()
                    .name(thread_name)
                    .spawn(move || {
                        let result = catch_unwind(AssertUnwindSafe(|| body(&ctx)));
                        let outcome = match result {
                            Ok(Ok(())) => ChildOutcome::Completed,
                            Ok(Err(ChildError::Failed(_))) => ChildOutcome::Failed,
                            Ok(Err(ChildError::Cancelled)) => {
                                // Deadline expiry and cooperative stop
                                // both surface as `Cancelled` from the
                                // body; the token's deadline tells the
                                // supervisor which one it was.
                                if ctx.token.remaining() == Some(Duration::ZERO) {
                                    ChildOutcome::TimedOut
                                } else {
                                    ChildOutcome::Cancelled
                                }
                            }
                            Err(_) => ChildOutcome::Panicked,
                        };
                        // The supervisor may already be gone on
                        // teardown races; a dead receiver is fine.
                        let _ = tx.send((idx, outcome));
                    })
                    .expect("failed to spawn supervised child"),
            );
        };

        // Start every child once.
        for (idx, st) in states.iter_mut().enumerate() {
            spawn_child(idx, st, &mut threads_spawned);
        }

        let record_exit =
            |idx: usize, st: &mut ChildState, outcome: ChildOutcome, threads_joined: &mut u32| {
                st.running = false;
                st.exits.push(outcome);
                st.events.push(SupEventKind::Exit {
                    incarnation: st.incarnation,
                    outcome,
                });
                self.trace.mark(
                    pid,
                    MarkKind::ChildExit {
                        child: idx as u64,
                        incarnation: st.incarnation,
                        outcome: outcome.tag(),
                    },
                );
                if let Some(handle) = st.handle.take() {
                    let _ = handle.join();
                    *threads_joined += 1;
                }
            };

        while states.iter().any(|s| s.running) {
            let (idx, outcome) = rx.recv().expect("children hold a sender while running");
            record_exit(idx, &mut states[idx], outcome, &mut threads_joined);

            if !outcome.is_failure() {
                continue;
            }
            if states[idx].budget_used >= budget {
                // Budget exhausted: escalate. Under all-for-one the
                // whole team is torn down with the escalating child.
                states[idx].escalated = true;
                states[idx].events.push(SupEventKind::Escalate);
                self.trace
                    .mark(pid, MarkKind::ChildEscalate { child: idx as u64 });
                if self.policy == RestartPolicy::AllForOne {
                    sup_token.cancel();
                }
                continue;
            }
            // Deterministic backoff before the restart, from the retry
            // policy's seeded schedule (pure in (seed, child, k)).
            let k = states[idx].budget_used + 1;
            let child_seed = SplitMix64::mix(
                self.backoff_seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let delay = self.restart.delay_after(k, child_seed);
            if self.backoff_time_scale > 0.0 && delay > Duration::ZERO {
                // Sleep in short slices polling the supervisor token,
                // so a cancellation — or the token's deadline expiring
                // — interrupts a long backoff promptly instead of
                // holding the tree hostage for the full delay.
                let scaled = Duration::from_secs_f64(delay.as_secs_f64() * self.backoff_time_scale);
                let wake = std::time::Instant::now() + scaled;
                while !sup_token.is_cancelled() {
                    let now = std::time::Instant::now();
                    if now >= wake {
                        break;
                    }
                    thread::sleep((wake - now).min(Duration::from_millis(5)));
                }
            }
            if sup_token.is_cancelled() {
                // Shut down while backing off: do not restart into a
                // cancelled tree; the child stays down with its
                // failure exit on record (not an escalation). The
                // abort is recorded so the report stays
                // conservation-clean.
                states[idx].restart_aborted = true;
                states[idx].events.push(SupEventKind::RestartAborted);
                continue;
            }

            match self.policy {
                RestartPolicy::OneForOne => {
                    states[idx].restarts += 1;
                    states[idx].budget_used += 1;
                    let next = states[idx].incarnation + 1;
                    states[idx]
                        .events
                        .push(SupEventKind::Restart { incarnation: next });
                    self.trace.mark(
                        pid,
                        MarkKind::ChildRestart {
                            child: idx as u64,
                            incarnation: next,
                        },
                    );
                    spawn_child(idx, &mut states[idx], &mut threads_spawned);
                }
                RestartPolicy::AllForOne => {
                    // Take down every running sibling, drain their
                    // exits, then restart the failed child plus every
                    // sibling that was stopped (completed children
                    // stay done). Only the triggering child's budget
                    // is charged.
                    let mut to_restart = vec![idx];
                    for (s_idx, st) in states.iter().enumerate() {
                        if s_idx != idx && st.running {
                            st.token.cancel();
                        }
                    }
                    while states
                        .iter()
                        .enumerate()
                        .any(|(s, st)| s != idx && st.running)
                    {
                        let (s_idx, s_outcome) =
                            rx.recv().expect("siblings hold senders while running");
                        record_exit(s_idx, &mut states[s_idx], s_outcome, &mut threads_joined);
                        if s_outcome != ChildOutcome::Completed {
                            to_restart.push(s_idx);
                        }
                    }
                    to_restart.sort_unstable();
                    states[idx].budget_used += 1;
                    for r_idx in to_restart {
                        states[r_idx].restarts += 1;
                        let next = states[r_idx].incarnation + 1;
                        states[r_idx]
                            .events
                            .push(SupEventKind::Restart { incarnation: next });
                        self.trace.mark(
                            pid,
                            MarkKind::ChildRestart {
                                child: r_idx as u64,
                                incarnation: next,
                            },
                        );
                        spawn_child(r_idx, &mut states[r_idx], &mut threads_spawned);
                    }
                }
            }
        }
        drop(tx);

        // Assemble the canonical report: per-child sequences flattened
        // in (child, seq) order.
        let mut events = Vec::new();
        for (idx, st) in states.iter().enumerate() {
            for (seq, kind) in st.events.iter().enumerate() {
                events.push(SupEvent {
                    child: idx as u32,
                    seq: seq as u32,
                    kind: *kind,
                });
            }
        }
        let children: Vec<ChildReport> = self
            .children
            .iter()
            .zip(&states)
            .map(|(spec, st)| ChildReport {
                name: spec.name.clone(),
                incarnations: st.incarnation,
                restarts: st.restarts,
                budget_used: st.budget_used,
                exits: st.exits.clone(),
                escalated: st.escalated,
                restart_aborted: st.restart_aborted,
            })
            .collect();
        let restarts_total = children.iter().map(|c| c.restarts).sum();
        let escalations = children.iter().filter(|c| c.escalated).count() as u32;
        SupervisionReport {
            name: self.name,
            policy: self.policy,
            children,
            events,
            restarts_total,
            escalations,
            threads_spawned,
            threads_joined,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn fast_restarts(max_attempts: u32) -> RetryPolicy {
        RetryPolicy::fixed(Duration::from_millis(1)).with_max_attempts(max_attempts)
    }

    #[test]
    fn completing_children_need_no_restarts() {
        let report = Supervisor::builder("sup")
            .restart_policy(fast_restarts(3))
            .child("a", |_| Ok(()))
            .child("b", |_| Ok(()))
            .run();
        assert!(report.all_completed());
        assert_eq!(report.restarts_total, 0);
        assert_eq!(report.escalations, 0);
        assert_eq!(report.threads_spawned, 2);
        assert!(report.conservation_violations().is_empty());
    }

    #[test]
    fn failing_child_restarts_then_completes() {
        let fails = Arc::new(AtomicU32::new(0));
        let report = Supervisor::builder("sup")
            .restart_policy(fast_restarts(4))
            .child("flaky", {
                let fails = Arc::clone(&fails);
                move |_ctx| {
                    if fails.fetch_add(1, Ordering::SeqCst) < 2 {
                        Err(ChildError::Failed("boom".into()))
                    } else {
                        Ok(())
                    }
                }
            })
            .run();
        let c = &report.children[0];
        assert_eq!(c.restarts, 2);
        assert_eq!(c.incarnations, 3);
        assert_eq!(c.final_outcome(), ChildOutcome::Completed);
        assert!(!c.escalated);
        assert!(report.conservation_violations().is_empty());
    }

    #[test]
    fn budget_exhaustion_escalates() {
        let report = Supervisor::builder("sup")
            .restart_policy(fast_restarts(3))
            .child("doomed", |_| Err(ChildError::Failed("always".into())))
            .run();
        let c = &report.children[0];
        assert!(c.escalated);
        assert_eq!(c.incarnations, 3, "initial + 2 restarts");
        assert_eq!(c.final_outcome(), ChildOutcome::Failed);
        assert_eq!(report.escalations, 1);
        assert!(report.conservation_violations().is_empty());
    }

    #[test]
    fn escalation_accessors_name_the_exhausted_children() {
        let report = Supervisor::builder("sup")
            .restart_policy(fast_restarts(2))
            .child("doomed", |_| Err(ChildError::Failed("always".into())))
            .child("fine", |_| Ok(()))
            .run();
        assert!(report.has_escalations());
        let escalated = report.escalated_children();
        assert_eq!(escalated.len(), 1);
        assert_eq!(escalated[0].name, "doomed");
        assert!(escalated[0].escalated);

        let clean = Supervisor::builder("sup")
            .restart_policy(fast_restarts(2))
            .child("fine", |_| Ok(()))
            .run();
        assert!(!clean.has_escalations());
        assert!(clean.escalated_children().is_empty());
    }

    #[test]
    fn panicking_child_is_contained_and_restarted() {
        faultsim::silence_injected_panics();
        let tries = Arc::new(AtomicU32::new(0));
        let report = Supervisor::builder("sup")
            .restart_policy(fast_restarts(3))
            .child("bomber", {
                let tries = Arc::clone(&tries);
                move |_ctx| {
                    if tries.fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("{} in child", faultsim::INJECTED_PANIC_PREFIX);
                    }
                    Ok(())
                }
            })
            .run();
        let c = &report.children[0];
        assert_eq!(c.exits[0], ChildOutcome::Panicked);
        assert_eq!(c.final_outcome(), ChildOutcome::Completed);
        assert_eq!(c.restarts, 1);
        assert!(report.conservation_violations().is_empty());
    }

    #[test]
    fn deadline_expiry_counts_as_timeout_failure() {
        let slow_once = Arc::new(AtomicU32::new(0));
        let report = Supervisor::builder("sup")
            .restart_policy(fast_restarts(3))
            .child_deadline(Duration::from_millis(20))
            .child("sluggish", {
                let slow_once = Arc::clone(&slow_once);
                move |ctx| {
                    if slow_once.fetch_add(1, Ordering::SeqCst) == 0 {
                        // First incarnation dawdles past its deadline,
                        // polling the token as a well-behaved child.
                        for _ in 0..100 {
                            thread::sleep(Duration::from_millis(2));
                            if ctx.token.is_cancelled() {
                                return Err(ChildError::Cancelled);
                            }
                        }
                    }
                    Ok(())
                }
            })
            .run();
        let c = &report.children[0];
        assert_eq!(c.exits[0], ChildOutcome::TimedOut);
        assert_eq!(c.final_outcome(), ChildOutcome::Completed);
        assert!(report.conservation_violations().is_empty());
    }

    #[test]
    fn all_for_one_restarts_running_siblings() {
        let a_runs = Arc::new(AtomicU32::new(0));
        let b_runs = Arc::new(AtomicU32::new(0));
        let report = Supervisor::builder("sup")
            .policy(RestartPolicy::AllForOne)
            .restart_policy(fast_restarts(3))
            .child("failer", {
                let a_runs = Arc::clone(&a_runs);
                move |_ctx| {
                    if a_runs.fetch_add(1, Ordering::SeqCst) == 0 {
                        thread::sleep(Duration::from_millis(5));
                        Err(ChildError::Failed("first run fails".into()))
                    } else {
                        Ok(())
                    }
                }
            })
            .child("bystander", {
                let b_runs = Arc::clone(&b_runs);
                move |ctx| {
                    b_runs.fetch_add(1, Ordering::SeqCst);
                    // Long-lived sibling: waits on its token.
                    for _ in 0..2000 {
                        if ctx.token.is_cancelled() {
                            return Err(ChildError::Cancelled);
                        }
                        thread::sleep(Duration::from_millis(1));
                    }
                    Ok(())
                }
            })
            .run();
        assert_eq!(report.children[0].budget_used, 1, "trigger charged");
        assert_eq!(report.children[1].budget_used, 0, "sibling not charged");
        assert!(report.children[1].restarts >= 1, "sibling was restarted");
        assert!(
            report.children[1].incarnations >= 2,
            "sibling was taken down and restarted"
        );
        assert!(b_runs.load(Ordering::SeqCst) >= 2);
        assert!(report.conservation_violations().is_empty());
    }

    #[test]
    fn external_cancel_stops_children_cooperatively() {
        let root = CancelToken::new();
        let trigger = root.clone();
        let canceller = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            trigger.cancel();
        });
        let report = Supervisor::builder("sup")
            .restart_policy(fast_restarts(3))
            .child("waiter", |ctx| {
                for _ in 0..2000 {
                    if ctx.token.is_cancelled() {
                        return Err(ChildError::Cancelled);
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                Ok(())
            })
            .run_under(&root);
        canceller.join().unwrap();
        assert_eq!(report.children[0].final_outcome(), ChildOutcome::Cancelled);
        assert_eq!(report.restarts_total, 0, "cancellation is not a failure");
        assert!(report.conservation_violations().is_empty());
    }

    #[test]
    fn nested_tree_escalation_surfaces_as_parent_failure() {
        let inner = Supervisor::builder("inner")
            .restart_policy(fast_restarts(2))
            .child("doomed", |_| Err(ChildError::Failed("always".into())));
        let report = Supervisor::builder("outer")
            .restart_policy(fast_restarts(2))
            .child_tree("subtree", inner)
            .run();
        let c = &report.children[0];
        assert!(c.escalated, "subtree escalation must climb the tree");
        assert_eq!(c.incarnations, 2, "parent retried the whole subtree once");
        assert!(c.exits.iter().all(|e| *e == ChildOutcome::Failed));
        assert!(report.conservation_violations().is_empty());
    }

    #[test]
    fn supervision_events_are_traced() {
        let col = parc_trace::Collector::new();
        let report = Supervisor::builder("sup")
            .trace(&col.handle())
            .restart_policy(fast_restarts(2))
            .child("doomed", |_| Err(ChildError::Failed("always".into())))
            .run();
        assert!(report.children[0].escalated);
        let counts = col.snapshot().counts_by_name();
        assert_eq!(counts["sup.child_start"], 2);
        assert_eq!(counts["sup.child_exit"], 2);
        assert_eq!(counts["sup.restart"], 1);
        assert_eq!(counts["sup.escalate"], 1);
    }

    #[test]
    fn event_log_is_canonical_and_deterministic() {
        let run = || {
            Supervisor::builder("sup")
                .restart_policy(fast_restarts(3))
                .backoff_seed(42)
                .backoff_time_scale(0.001)
                .child("doomed", |_| Err(ChildError::Failed("always".into())))
                .child("fine", |_| Ok(()))
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.event_log(), b.event_log());
        assert!(a.event_log().contains("doomed[0] #3 exit failed"));
        assert!(a.event_log().contains("doomed[0] escalate"));
        assert!(a.event_log().contains("fine[1] #1 exit completed"));
    }
}
