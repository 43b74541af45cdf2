//! Task futures: the `TaskID` analogue.
//!
//! A spawned task is represented by an `Arc<Core<T>>` shared between
//! the scheduler job (producer side) and the [`TaskHandle`] /
//! [`TaskWatcher`] (consumer side). The state machine is
//! `Pending → finished`, with the result either stored for a later
//! `join` or forwarded to a registered continuation (GUI delivery),
//! guarded by one mutex per task plus a condvar for blocking waiters.
//! A waiter counts itself under that mutex before it parks, and
//! completion notifies the condvar only when one is counted, so a task
//! whose joiner helped instead of parking finishes without a wake-up
//! syscall.
//!
//! The job that runs a task holds no reference to the runtime: the
//! worker or help step running it passes the runtime in. A
//! [`TaskHandle`] keeps a non-owning reference to it for
//! [`TaskHandle::wait`]'s help steps. A handle spawned on one of the
//! runtime's workers shares that worker's reference, so making and
//! dropping it writes no count the other workers share, and a worker
//! of that runtime waits through the `Arc` its thread already holds.
//! Any other thread upgrades the reference's `Weak` to wait.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use guievent::GuiHandle;
use parking_lot::{Condvar, Mutex};

use crate::runtime::{with_rt, RtRef};

pub use parc_supervise::{CancelToken, Cancelled};

/// Unique identity of a spawned task within a process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) u64);

static NEXT_TASK_ID: AtomicU64 = AtomicU64::new(1);

impl TaskId {
    pub(crate) fn fresh() -> Self {
        TaskId(NEXT_TASK_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// Reserve a contiguous block of `n` ids with one atomic op (batch
    /// spawn gives member `i` the id `base + i`); returns the base.
    pub(crate) fn fresh_block(n: u64) -> u64 {
        NEXT_TASK_ID.fetch_add(n.max(1), Ordering::Relaxed)
    }

    /// The raw numeric id.
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// Why a task failed to produce a value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskError {
    /// The task body panicked; the payload's string rendering is
    /// preserved. This is the `asyncCatch` analogue — the panic is
    /// contained in the future rather than unwinding a worker.
    Panicked(String),
    /// The task was cancelled before it started running.
    Cancelled,
    /// A join deadline elapsed before the task finished. The task has
    /// been asked to cancel cooperatively, but the joiner stopped
    /// waiting; the body may still be running.
    TimedOut,
    /// The result was already taken or was routed to a continuation.
    ResultTaken,
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::Panicked(msg) => write!(f, "task panicked: {msg}"),
            TaskError::Cancelled => write!(f, "task was cancelled before running"),
            TaskError::TimedOut => write!(f, "join deadline elapsed before the task finished"),
            TaskError::ResultTaken => write!(f, "task result already taken"),
        }
    }
}

impl std::error::Error for TaskError {}

type Continuation<T> = Box<dyn FnOnce(Result<T, TaskError>) + Send>;
pub(crate) type DoneHook = Box<dyn FnOnce() + Send>;

struct CoreState<T> {
    finished: bool,
    /// Threads parked on `done_cv`: [`Core::complete`] notifies only
    /// when this is non-zero.
    waiters: u32,
    /// Present between completion and the (single) take.
    result: Option<Result<T, TaskError>>,
    /// If set before completion, receives the result instead of it
    /// being stored (used by [`TaskHandle::deliver`]).
    continuation: Option<Continuation<T>>,
    /// Zero-payload completion hooks (dependence edges, `on_done`).
    hooks: Vec<DoneHook>,
}

pub(crate) struct Core<T> {
    pub(crate) id: TaskId,
    state: Mutex<CoreState<T>>,
    done_cv: Condvar,
    cancel: CancelToken,
}

impl<T: Send + 'static> Core<T> {
    pub(crate) fn new() -> Arc<Self> {
        Self::with_token(CancelToken::new())
    }

    /// A core whose cancellation token is supplied by the caller —
    /// the runtime passes a child of its root token (or of a
    /// user-provided parent) so cancellation cascades down the tree.
    pub(crate) fn with_token(token: CancelToken) -> Arc<Self> {
        Arc::new(Core {
            id: TaskId::fresh(),
            state: Mutex::new(CoreState {
                finished: false,
                waiters: 0,
                result: None,
                continuation: None,
                hooks: Vec::new(),
            }),
            done_cv: Condvar::new(),
            cancel: token,
        })
    }

    pub(crate) fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Execute the task body (worker side). Checks the cancellation
    /// flag first, contains panics, calls `settle` once the body has
    /// returned or been skipped, then completes the future, so whatever
    /// `settle` records is visible to every joiner. Returns `true` when
    /// the task resolved to `Cancelled` without running (so the runtime
    /// can count skipped bodies).
    pub(crate) fn run(
        self: &Arc<Self>,
        body: impl FnOnce(&CancelToken) -> T,
        settle: impl FnOnce(),
    ) -> bool {
        if self.cancel.is_cancelled() {
            settle();
            self.complete(Err(TaskError::Cancelled));
            return true;
        }
        let token = self.cancel.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| body(&token)));
        settle();
        let result =
            outcome.map_err(|payload| TaskError::Panicked(parc_util::panic_message(&*payload)));
        self.complete(result);
        false
    }

    /// Resolve the future: route the result to a pre-registered
    /// continuation or store it, then wake parked waiters (if any) and
    /// fire hooks. A waiter counts itself under the state lock before
    /// it parks, so reading zero here under the same lock means no
    /// thread can be parked, and the notify (a syscall) is skipped.
    /// Each hook and the continuation run under `catch_unwind`: a
    /// panic in one is printed by the panic hook and then dropped, so
    /// the thread completing the task goes on to its epilogue.
    pub(crate) fn complete(&self, result: Result<T, TaskError>) {
        let mut st = self.state.lock();
        debug_assert!(!st.finished, "task completed twice");
        st.finished = true;
        let parked = st.waiters > 0;
        let hooks = std::mem::take(&mut st.hooks);
        let delivery = match st.continuation.take() {
            Some(cont) => Some((cont, result)),
            None => {
                st.result = Some(result);
                None
            }
        };
        drop(st);
        if parked {
            self.done_cv.notify_all();
        }
        for hook in hooks {
            let _ = catch_unwind(AssertUnwindSafe(hook));
        }
        if let Some((cont, result)) = delivery {
            let _ = catch_unwind(AssertUnwindSafe(move || cont(result)));
        }
    }

    pub(crate) fn is_finished(&self) -> bool {
        self.state.lock().finished
    }

    /// Block until finished. Does *not* take the result.
    pub(crate) fn wait_blocking(&self) {
        let mut st = self.state.lock();
        st.waiters += 1;
        while !st.finished {
            self.done_cv.wait(&mut st);
        }
        st.waiters -= 1;
    }

    /// Wait with a timeout; true when finished.
    pub(crate) fn wait_timeout(&self, dur: std::time::Duration) -> bool {
        let mut st = self.state.lock();
        if st.finished {
            return true;
        }
        st.waiters += 1;
        let _ = self.done_cv.wait_for(&mut st, dur);
        st.waiters -= 1;
        st.finished
    }

    /// Take the stored result (once). Caller must know it finished.
    pub(crate) fn take_result(&self) -> Result<T, TaskError> {
        let mut st = self.state.lock();
        debug_assert!(st.finished, "take_result before completion");
        st.result.take().unwrap_or(Err(TaskError::ResultTaken))
    }

    /// Register a zero-payload hook to run at completion; runs
    /// immediately (on the calling thread) if already complete.
    pub(crate) fn add_hook(&self, hook: DoneHook) {
        let mut st = self.state.lock();
        if st.finished {
            drop(st);
            hook();
        } else {
            st.hooks.push(hook);
        }
    }

    /// Register a continuation receiving the owned result; called
    /// immediately (on the calling thread) if already complete.
    pub(crate) fn set_continuation(&self, cont: Continuation<T>) {
        let mut st = self.state.lock();
        if st.finished {
            let result = st.result.take().unwrap_or(Err(TaskError::ResultTaken));
            drop(st);
            cont(result);
        } else {
            assert!(
                st.continuation.is_none(),
                "a task can have at most one delivery continuation"
            );
            st.continuation = Some(cont);
        }
    }
}

/// Owned future for a spawned task; yields the result exactly once.
pub struct TaskHandle<T> {
    pub(crate) core: Arc<Core<T>>,
    /// The runtime a wait helps; dangling for a task that ran inline.
    pub(crate) rt: RtRef,
}

impl<T: Send + 'static> TaskHandle<T> {
    /// The task's unique id.
    #[must_use]
    pub fn id(&self) -> TaskId {
        self.core.id
    }

    /// True once the task has completed (successfully or not).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.core.is_finished()
    }

    /// Request cooperative cancellation. A task that has not started
    /// yet resolves to [`TaskError::Cancelled`]; a running task sees
    /// [`CancelToken::is_cancelled`] flip if it observes its token
    /// (see [`crate::TaskRuntime::spawn_cancellable`]).
    pub fn cancel(&self) {
        self.core.cancel_token().cancel();
    }

    /// The task's cancellation token.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.core.cancel_token()
    }

    /// Block until the task completes and return its result.
    ///
    /// While it waits, the calling thread *helps*: it runs other queued
    /// tasks of the task's runtime, which keeps nested fork/join
    /// deadlock-free on a bounded pool. A worker of that runtime runs
    /// its own newest jobs first, then injector jobs, and steals from
    /// other workers only while fewer than
    /// [`crate::HELP_STEAL_CAP`] helped bodies are nested on
    /// its stack. Any other thread helps only when no helped body is
    /// already on its stack, so it nests at most one. See
    /// [`crate::RuntimeHandle::help_once`].
    pub fn join(self) -> Result<T, TaskError> {
        self.wait();
        self.core.take_result()
    }

    /// Block until complete without taking the result. Helps while it
    /// waits, on the same terms as [`TaskHandle::join`].
    pub fn wait(&self) {
        if self.core.is_finished() {
            return;
        }
        with_rt(&self.rt, |rt| match rt {
            // Alternate between help steps and short waits so we
            // neither spin hot nor sleep through work.
            Some(rt) => {
                while !self.core.is_finished() {
                    if !rt.help_once() {
                        let _ = self.core.wait_timeout(Duration::from_micros(200));
                    }
                }
            }
            None => self.core.wait_blocking(),
        });
    }

    /// Block until the task completes or `timeout` elapses.
    ///
    /// On completion the result is returned as with
    /// [`TaskHandle::join`]. On expiry the task is asked to cancel
    /// cooperatively (its [`CancelToken`] flips) and
    /// [`TaskError::TimedOut`] is returned — a body that never checks
    /// its token keeps running detached, but the joiner is free.
    ///
    /// Unlike [`TaskHandle::join`], a bounded join never *helps* (runs
    /// queued tasks while waiting): a helped job of arbitrary length
    /// would blow the deadline — and helping can even pull in the
    /// joined task itself, whose body may be waiting on this very
    /// timeout to cancel it. The timeout alone keeps a bounded pool
    /// deadlock-free: every such join returns by its deadline.
    pub fn join_timeout(self, timeout: std::time::Duration) -> Result<T, TaskError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if self.core.is_finished() {
                return self.core.take_result();
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                self.cancel();
                return Err(TaskError::TimedOut);
            }
            let _ = self.core.wait_timeout(deadline - now);
        }
    }

    /// Non-blocking: the result if finished, otherwise the handle back.
    pub fn try_join(self) -> Result<Result<T, TaskError>, TaskHandle<T>> {
        if self.core.is_finished() {
            Ok(self.core.take_result())
        } else {
            Err(self)
        }
    }

    /// Register a zero-payload completion callback. It runs on the
    /// thread that completes the task, where a panic in it is caught
    /// and dropped: the task's result, its join and that thread are
    /// unaffected. If the task is already done, it runs immediately on
    /// the calling thread.
    pub fn on_done(&self, hook: impl FnOnce() + Send + 'static) {
        self.core.add_hook(Box::new(hook));
    }

    /// Consume the handle; when the task completes, send the owned
    /// result to `f` **on the GUI event-dispatch thread**. This is the
    /// Parallel Task GUI-notify: the EDT receives the value without
    /// ever blocking on the computation.
    pub fn deliver(self, gui: &GuiHandle, f: impl FnOnce(Result<T, TaskError>) + Send + 'static) {
        let gui = gui.clone();
        self.core.set_continuation(Box::new(move |result| {
            gui.invoke_later(move || f(result));
        }));
    }

    /// A cloneable watcher for dependence lists and progress queries.
    #[must_use]
    pub fn watcher(&self) -> TaskWatcher {
        let done_core = Arc::clone(&self.core);
        let hook_core = Arc::clone(&self.core);
        TaskWatcher {
            id: self.core.id,
            cancel: self.core.cancel_token(),
            is_done: Arc::new(move || done_core.is_finished()),
            add_hook: Arc::new(move |hook| hook_core.add_hook(hook)),
        }
    }
}

impl<T> fmt::Debug for TaskHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskHandle")
            .field("id", &self.core.id)
            .finish()
    }
}

/// A cloneable, resultless view of a task: completion status, identity
/// and cancellation, but no access to the value. This is what goes in
/// [`crate::TaskRuntime::spawn_after`] dependence lists.
#[derive(Clone)]
pub struct TaskWatcher {
    id: TaskId,
    is_done: Arc<dyn Fn() -> bool + Send + Sync>,
    add_hook: Arc<dyn Fn(DoneHook) + Send + Sync>,
    cancel: CancelToken,
}

impl TaskWatcher {
    /// The watched task's id.
    #[must_use]
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// True once the watched task has completed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        (self.is_done)()
    }

    /// Request cooperative cancellation of the watched task.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    pub(crate) fn on_done_boxed(&self, hook: DoneHook) {
        (self.add_hook)(hook);
    }
}

impl fmt::Debug for TaskWatcher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskWatcher")
            .field("id", &self.id)
            .field("done", &self.is_done())
            .finish()
    }
}
