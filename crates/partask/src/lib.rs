//! # partask — a GUI-aware task-parallel runtime
//!
//! This crate is the Rust analogue of **Parallel Task** (Giacaman &
//! Sinnen, *Parallel Task for parallelizing object-oriented desktop
//! applications*, IJPP 2013), the PARC lab tool at the centre of the
//! SoftEng 751 course reproduced by this workspace. Parallel Task
//! extends Java with a handful of keywords (`TASK`, `dependsOn`,
//! `notify`, …) that its compiler lowers onto a runtime with the
//! following semantics — all of which this crate implements as a
//! library API:
//!
//! * **Task futures** — [`TaskRuntime::spawn`] returns a
//!   [`TaskHandle<T>`]; [`TaskHandle::join`] waits for and returns the
//!   result (the `TaskID.getResult()` analogue).
//! * **Task dependences** — [`TaskRuntime::spawn_after`] delays a task
//!   until a set of predecessor tasks have completed (`dependsOn`).
//! * **Multi-tasks** — [`TaskRuntime::spawn_batch`] launches `n`
//!   copies of a task as one group (`TASK(n)`);
//!   `spawn_batch(rt.workers(), f)` launches one per worker
//!   (`TASK(*)`). [`BatchHandle::join`] returns the results in index
//!   order.
//! * **Interim results** — [`interim::channel`] streams intermediate
//!   values out of a running task, optionally marshalled onto the GUI
//!   event-dispatch thread (the `notifyInter` analogue).
//! * **GUI-aware completion** — [`TaskHandle::deliver`] hands the
//!   task's result to a closure running on the [`guievent`] dispatch
//!   thread, so interactive applications never block (the paper's
//!   "concurrency for user-perceived performance").
//! * **Exceptions** — a panicking task resolves its future to
//!   [`TaskError::Panicked`] instead of tearing down the process
//!   (the `asyncCatch` analogue).
//! * **Cancellation** — cooperative and *hierarchical*, via
//!   [`CancelToken`] (re-exported from `parc-supervise`): every task's
//!   token is a child of the runtime's root token, tokens form trees
//!   with deadline propagation (a child points at its parent, so a
//!   spawn takes no shared lock), and
//!   [`TaskRuntime::shutdown_graceful`] cancels the root then drains
//!   in-flight work within a bounded budget.
//!
//! Two schedulers are provided, mirroring the scheduling options the
//! PARC runtime exposed and providing the ablation in experiment A1:
//! a **work-stealing** scheduler (per-worker Chase–Lev deques with a
//! global injector) and a **work-sharing** scheduler (one global
//! queue). Threads that block in [`TaskHandle::join`] *help*: they
//! execute other queued tasks while waiting, so nested fork/join
//! (e.g. recursive quicksort) cannot deadlock the fixed-size pool. A
//! waiting worker runs its own newest jobs first and steals only while
//! its nesting is shallow ([`HELP_STEAL_CAP`]), so a tree nests about
//! as deep as it is tall; see [`RuntimeHandle::help_once`].
//!
//! ```
//! use partask::TaskRuntime;
//!
//! let rt = TaskRuntime::builder().workers(2).build();
//! let task = rt.spawn(|| (1..=10u64).product::<u64>());
//! assert_eq!(task.join().unwrap(), 3_628_800);
//! rt.shutdown();
//! ```

pub mod batch;
pub mod interim;
mod job;
pub mod runtime;
pub mod sched;
pub mod scope;
pub mod task;

pub use batch::BatchHandle;
pub use interim::{channel as interim_channel, InterimReceiver, InterimSender};
pub use runtime::{
    Builder, DrainReport, ProgressSnapshot, RuntimeHandle, RuntimeLatencies, RuntimeStats,
    TaskRuntime, HELP_STEAL_CAP,
};
pub use sched::SchedulerKind;
pub use scope::Scope;
pub use task::{CancelToken, Cancelled, TaskError, TaskHandle, TaskId, TaskWatcher};
