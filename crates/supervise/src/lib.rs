//! `parc-supervise` — structured cancellation and supervision trees.
//!
//! Three pieces, all deterministic under a fixed seed:
//!
//! * [`CancelToken`] — hierarchical cancellation with deadline
//!   propagation. Tokens form a tree: cancelling a parent cancels the
//!   whole subtree; a child inherits (and can only tighten) its
//!   parent's deadline. A child points at its parent and nothing
//!   points at a child, so making a child takes no lock, `cancel` is
//!   one store and `is_cancelled` reads one flag per ancestor.
//!   Tokens are cheap to clone and poll, and
//!   `partask` / `pyjama` accept them so task bodies and parallel
//!   regions can stop cooperatively.
//! * [`Supervisor`] — Erlang-style restart supervision. Children run
//!   on dedicated threads under child tokens; a failed, panicked, or
//!   timed-out child is restarted with a deterministic seeded backoff
//!   (the same [`faultsim::RetryPolicy`] schedule retries use) until
//!   its budget is exhausted, at which point the failure *escalates* —
//!   observable from the parent when the supervisor is nested as a
//!   subtree. Every lifecycle step is recorded both in trace marks and
//!   in a canonical [`SupervisionReport`] whose event log is
//!   bit-identical across same-seed reruns (for one-for-one trees).
//! * [`Guards`] — one supervised child per simulated worker, so a
//!   tick-driven model (the auto-marking pipeline, the sharded web
//!   tier) can kill a worker and block until the supervisor restarts
//!   it, or see the kill escalate once the budget is spent.
//!
//! The teaching goal (see the course material in `softeng751`): the
//! same determinism discipline the workspace applies to *speedup*
//! experiments extends to *robustness* experiments — a fault storm with
//! a fixed seed produces the same restarts, the same escalations, and
//! the same supervision event log every run, so resilience behaviour
//! can be asserted in CI rather than eyeballed.

#![warn(missing_docs)]

mod guard;
mod supervisor;
mod token;

pub use guard::Guards;
pub use supervisor::{
    ChildCtx, ChildError, ChildOutcome, ChildReport, RestartPolicy, SupEvent, SupEventKind,
    SupervisionReport, Supervisor, SupervisorBuilder,
};
pub use token::{CancelToken, Cancelled};
