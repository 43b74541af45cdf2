//! The task runtime: worker pool, spawning, dependences, quiescence
//! and shutdown.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread;
use std::time::{Duration, Instant};

use parc_trace::{Counter, LatencyHistogram, MarkKind, Outcome, SpanKind, TraceHandle};
use parking_lot::{Condvar, Mutex};

use crate::batch::{BatchCore, BatchHandle};
use crate::job::SmallJob;
use crate::sched::{Job, LocalQueue, SchedCounters, SchedulerKind, SharedSched};
use crate::task::{CancelToken, Core, TaskHandle, TaskId, TaskWatcher};

/// Snapshot of runtime activity counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Tasks submitted (including dependence-delayed and multi-task
    /// members).
    pub spawned: u64,
    /// Task bodies executed to completion (including cancelled ones,
    /// which "execute" by resolving to `Cancelled`).
    pub executed: u64,
    /// Jobs a worker popped from its own deque, in its loop or in a
    /// help step while it waits (those also count in `helped`).
    pub local_pops: u64,
    /// Jobs taken from the global injector / shared queue.
    pub global_pops: u64,
    /// Jobs stolen from another worker.
    pub steals: u64,
    /// Jobs run by a help step: a thread waiting in a join, a scope or
    /// a quiescence wait, or calling [`RuntimeHandle::help_once`], ran
    /// them instead of a worker's loop. A worker's own-deque pop inside
    /// a join counts here and in `local_pops`.
    pub helped: u64,
    /// Tasks that resolved to [`crate::TaskError::Cancelled`] without
    /// running their body.
    pub cancelled: u64,
    /// Deadline expirations: tasks whose [`TaskRuntime::spawn_deadline`]
    /// budget elapsed before they finished (each also requests
    /// cooperative cancellation).
    pub timed_out: u64,
}

/// Latency distributions the runtime records alongside its counters
/// (log-bucketed, milliseconds; query with `p50()`/`p99()`/`p999()`).
///
/// Kept separate from [`RuntimeStats`] on purpose: stats are compared
/// with `==` across reruns and pool sizes in the determinism suites,
/// while latencies are wall-clock measurements that legitimately vary.
///
/// Task run durations are not recorded here: a runtime built with
/// [`Builder::trace`] records every executed body as one `task.run`
/// span, which carries its duration, and an untraced runtime pays
/// nothing per task.
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeLatencies {
    /// Steal latency: elapsed time from a worker's failed local pop to
    /// the successful steal *episode* that ended its search for work
    /// (one sample per episode — a batch steal claiming several jobs
    /// records once; searches resolved locally or via the injector do
    /// not record).
    pub steal_wait_ms: LatencyHistogram,
}

/// An exactly-consistent snapshot of task progress, from one atomic
/// load of the runtime's packed progress word:
/// `spawned == finished + pending` holds by construction, even while
/// workers are mid-steal or mid-completion (the old accounting summed
/// queue lengths under separate locks, so a job in flight between
/// queues could be double-counted or missed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Tasks submitted, as of this snapshot.
    pub spawned: u64,
    /// Tasks finished (body executed or resolved cancelled).
    pub finished: u64,
    /// Tasks submitted but not yet finished — queued, mid-steal, or
    /// currently running.
    pub pending: usize,
}

/// Packed progress word: low 32 bits = pending jobs, high 32 bits =
/// finished jobs (mod 2³²). Spawning adds `1`; finishing adds
/// `(1 << 32) - 1`, atomically moving one unit from pending to
/// finished. A single load therefore yields a consistent
/// (pending, finished) pair. Pending is bounded by live jobs (never
/// wraps); the finished half wraps only after 2³² completions per
/// runtime instance, far beyond any bench here, and quiescence checks
/// only the pending half regardless.
const FINISH_DELTA: u64 = (1u64 << 32) - 1;

fn unpack_pending(progress: u64) -> usize {
    (progress & 0xFFFF_FFFF) as usize
}

pub(crate) struct RtInner {
    pub(crate) sched: SharedSched,
    pub(crate) counters: SchedCounters,
    pub(crate) n_workers: usize,
    /// Root of the runtime's cancellation tree: every spawned task's
    /// token is a child, so cancelling this cancels all of them.
    root_token: CancelToken,
    stop: AtomicBool,
    /// Packed (finished, pending) accounting word; see [`FINISH_DELTA`].
    progress: AtomicU64,
    idle: Mutex<()>,
    idle_cv: Condvar,
    quiescent_cv: Condvar,
    /// Workers currently inside the idle-parking protocol (announced
    /// *before* their final re-check for work, so a producer that
    /// reads 0 after pushing knows the worker's re-check will see its
    /// job — a Dekker-style handshake with [`RtInner::wake_after_push`]).
    idle_workers: AtomicUsize,
    /// Diagnostic: how many times a worker entered the idle-parking
    /// path (each entry is one lock + at most one 100 ms parked wait).
    /// Deliberately *not* part of [`RuntimeStats`], which determinism
    /// suites compare bit-for-bit across reruns and pool sizes.
    idle_probes: AtomicU64,
    /// Diagnostic: the most helped bodies ever nested on one thread's
    /// stack by this runtime's help steps (a high-water mark).
    max_help_depth: AtomicUsize,
    spawned: Arc<Counter>,
    executed: Arc<Counter>,
    helped: Arc<Counter>,
    cancelled: Arc<Counter>,
    timed_out: Arc<Counter>,
    pub(crate) trace: TraceHandle,
    pub(crate) pid: u32,
    deadlines: DeadlineWatch,
}

/// One task registered with the deadline watchdog.
struct DeadlineEntry {
    expiry: Arc<Expiry>,
    token: CancelToken,
    finished: Arc<dyn Fn() -> bool + Send + Sync>,
}

/// The expiry of one [`TaskRuntime::spawn_deadline`] task. Whichever
/// side observes the deadline first counts it: the watchdog, finding
/// the task unfinished at `due`, or the task itself, settling at or
/// after `due` (a body that stopped on its expired token or overran
/// it, or a queued task skipped for it).
struct Expiry {
    /// The token's effective deadline: the instant its
    /// `is_cancelled` turns true.
    due: Instant,
    task: u64,
    /// Held while counting, so a count one side has begun is complete
    /// before the other side sees `true` and lets a joiner in.
    counted: Mutex<bool>,
}

impl Expiry {
    /// Count the expiry in `inner`'s stats unless it already is.
    fn count(&self, inner: &RtInner) {
        let mut counted = self.counted.lock();
        if !*counted {
            *counted = true;
            inner.timed_out.inc();
            inner.trace.mark(
                inner.pid,
                MarkKind::TaskOutcome { task: self.task, outcome: Outcome::TimedOut },
            );
        }
    }
}

#[derive(Default)]
struct DeadlineState {
    entries: Vec<DeadlineEntry>,
    watcher_running: bool,
    shutdown: bool,
}

/// Shared state of the lazily-started watchdog thread that enforces
/// [`TaskRuntime::spawn_deadline`] budgets by cancelling overdue tasks.
#[derive(Default)]
struct DeadlineWatch {
    state: Mutex<DeadlineState>,
    cv: Condvar,
}

thread_local! {
    /// Set for the lifetime of a worker thread: (runtime, local queue,
    /// worker index).
    static WORKER_CTX: RefCell<Option<(Weak<RtInner>, LocalQueue, usize)>> =
        const { RefCell::new(None) };
    /// Helped job bodies currently nested on this thread's stack.
    static HELP_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// A waiting worker steals from other workers only while fewer than
/// this many helped bodies are nested on its stack; its own deque and
/// the injector stay open at any depth. See DESIGN.md, "Helping joins".
pub const HELP_STEAL_CAP: usize = 8;

/// Configures and builds a [`TaskRuntime`].
#[derive(Clone, Debug)]
pub struct Builder {
    workers: usize,
    kind: SchedulerKind,
    name: String,
    trace: TraceHandle,
}

impl Default for Builder {
    fn default() -> Self {
        Self {
            workers: thread::available_parallelism().map_or(1, usize::from),
            kind: SchedulerKind::default(),
            name: "partask".to_string(),
            trace: TraceHandle::default(),
        }
    }
}

impl Builder {
    /// Number of worker threads (≥ 1).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        assert!(n >= 1, "a runtime needs at least one worker");
        self.workers = n;
        self
    }

    /// Scheduling policy.
    #[must_use]
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.kind = kind;
        self
    }

    /// Thread-name prefix for the workers.
    #[must_use]
    pub fn name(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Record this runtime's events and counters through `trace`
    /// (spawn/run/steal/outcome events on a track named after the
    /// runtime, counters registered as `<name>.<counter>`).
    #[must_use]
    pub fn trace(mut self, trace: &TraceHandle) -> Self {
        self.trace = trace.clone();
        self
    }

    /// Start the worker pool.
    #[must_use]
    pub fn build(self) -> TaskRuntime {
        let (sched, locals) = SharedSched::new(self.kind, self.workers);
        let pid = self.trace.register_track(&self.name);
        let counters = SchedCounters {
            trace: self.trace.clone(),
            pid,
            ..SchedCounters::for_workers(self.workers)
        };
        let spawned = Arc::new(Counter::new());
        let executed = Arc::new(Counter::new());
        let helped = Arc::new(Counter::new());
        let cancelled = Arc::new(Counter::new());
        let timed_out = Arc::new(Counter::new());
        if let Some(reg) = self.trace.metrics() {
            for (suffix, counter) in [
                ("spawned", &spawned),
                ("executed", &executed),
                ("helped", &helped),
                ("cancelled", &cancelled),
                ("timed_out", &timed_out),
                ("local_pops", &counters.local_pops),
                ("global_pops", &counters.global_pops),
                ("steals", &counters.steals),
            ] {
                reg.register_counter(&format!("{}.{suffix}", self.name), counter);
            }
        }
        let inner = Arc::new(RtInner {
            sched,
            counters,
            n_workers: self.workers,
            root_token: CancelToken::new(),
            stop: AtomicBool::new(false),
            progress: AtomicU64::new(0),
            idle: Mutex::new(()),
            idle_cv: Condvar::new(),
            quiescent_cv: Condvar::new(),
            idle_workers: AtomicUsize::new(0),
            idle_probes: AtomicU64::new(0),
            max_help_depth: AtomicUsize::new(0),
            spawned,
            executed,
            helped,
            cancelled,
            timed_out,
            trace: self.trace,
            pid,
            deadlines: DeadlineWatch::default(),
        });
        let mut joiners = Vec::with_capacity(self.workers);
        for (index, local) in locals.into_iter().enumerate() {
            let inner_weak = Arc::downgrade(&inner);
            let inner_strong = Arc::clone(&inner);
            joiners.push(
                thread::Builder::new()
                    .name(format!("{}-{index}", self.name))
                    .spawn(move || {
                        WORKER_CTX.with(|ctx| {
                            *ctx.borrow_mut() = Some((inner_weak, local, index));
                        });
                        worker_loop(&inner_strong);
                        WORKER_CTX.with(|ctx| ctx.borrow_mut().take());
                    })
                    .expect("failed to spawn worker"),
            );
        }
        TaskRuntime {
            inner,
            joiners: Mutex::new(joiners),
        }
    }
}

/// Insurance timeout for parked idle workers. Submissions wake workers
/// explicitly (see [`RtInner::wake_after_push`]), so this bound is
/// never what delivers work — it only caps the damage if a wakeup were
/// ever lost. Long enough that an idle pool is genuinely parked
/// (compare the 1 ms poll it replaced: ~1000 spurious wakeups per
/// worker-second), short enough that a bug degrades to latency, not a
/// hang.
const IDLE_PARK: Duration = Duration::from_millis(100);

fn worker_loop(inner: &Arc<RtInner>) {
    let pop = || {
        inner
            .with_worker(|local, index| inner.sched.pop_for(local, index, &inner.counters, true))
            .expect("worker ctx set")
    };
    loop {
        match pop() {
            Some(job) => job.run(),
            None => {
                if inner.stop.load(Ordering::Acquire) {
                    // Double-check nothing arrived between the failed
                    // pop and the stop check.
                    match pop() {
                        Some(job) => {
                            job.run();
                            continue;
                        }
                        None => break,
                    }
                }
                // Park until work arrives. The handshake with
                // `wake_after_push`: announce idleness (SeqCst), then
                // re-check for work while holding the idle lock. A
                // producer pushes, fences, and reads `idle_workers` —
                // either it sees our announcement (and its notify
                // cannot run until we release the lock into the wait,
                // so the wakeup is not lost), or its push is ordered
                // before our re-check (so the re-check finds the job).
                inner.idle_probes.fetch_add(1, Ordering::Relaxed);
                let mut guard = inner.idle.lock();
                inner.idle_workers.fetch_add(1, Ordering::SeqCst);
                match pop() {
                    Some(job) => {
                        inner.idle_workers.fetch_sub(1, Ordering::SeqCst);
                        drop(guard);
                        job.run();
                    }
                    None => {
                        if inner.stop.load(Ordering::Acquire) {
                            inner.idle_workers.fetch_sub(1, Ordering::SeqCst);
                            continue; // loop re-pops, then exits
                        }
                        let _ = inner.idle_cv.wait_for(&mut guard, IDLE_PARK);
                        inner.idle_workers.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
        }
    }
}

impl RtInner {
    /// Wake workers after `pushed` jobs were made visible. The `SeqCst`
    /// fence pairs with the idle announcement in [`worker_loop`]: if we
    /// read `idle_workers == 0`, every worker's parked-path re-check is
    /// ordered after our push and will find the work, so skipping the
    /// notify (and its lock + syscall — the old path paid one
    /// `notify_one` per spawn unconditionally) is safe.
    fn wake_after_push(&self, pushed: usize) {
        fence(Ordering::SeqCst);
        if self.idle_workers.load(Ordering::SeqCst) > 0 {
            let _guard = self.idle.lock();
            if pushed > 1 {
                self.idle_cv.notify_all();
            } else {
                self.idle_cv.notify_one();
            }
        }
    }

    fn wake_all(&self) {
        let _guard = self.idle.lock();
        self.idle_cv.notify_all();
    }

    /// Run `f` on the calling thread's local queue and worker index
    /// when it is one of this runtime's workers; `None` on any other
    /// thread.
    fn with_worker<R>(self: &Arc<Self>, f: impl FnOnce(&LocalQueue, usize) -> R) -> Option<R> {
        WORKER_CTX.with(|ctx| {
            let borrow = ctx.borrow();
            let (weak, local, index) = borrow.as_ref()?;
            std::ptr::eq(weak.as_ptr(), Arc::as_ptr(self)).then(|| f(local, *index))
        })
    }

    /// Push a job, preferring the current worker's local deque when the
    /// caller is one of this runtime's workers.
    pub(crate) fn push_job(self: &Arc<Self>, job: Job) {
        let mut job = Some(job);
        self.with_worker(|local, _| self.sched.push_local(local, job.take().expect("unpushed")));
        if let Some(job) = job {
            self.sched.push_external(job);
        }
        self.wake_after_push(1);
    }

    /// Push a whole batch: one shared-queue episode from external
    /// threads, or straight into the local deque (no lock at all) when
    /// called from one of this runtime's workers.
    pub(crate) fn push_job_batch(self: &Arc<Self>, jobs: Vec<Job>) {
        let pushed = jobs.len();
        if pushed == 0 {
            return;
        }
        let mut jobs = Some(jobs);
        self.with_worker(|local, _| {
            for job in jobs.take().expect("unpushed") {
                self.sched.push_local(local, job);
            }
        });
        if let Some(jobs) = jobs {
            self.sched.push_external_batch(jobs);
        }
        self.wake_after_push(pushed);
    }

    /// One help step for a thread waiting on this runtime: run at most
    /// one queued job nested on the caller's stack, and return `true`
    /// when one ran. A worker of this runtime takes its loop's order
    /// (own deque, injector, steal) but steals only below
    /// [`HELP_STEAL_CAP`] nested bodies; any other thread takes the
    /// oldest queued job, and only when no helped body is on its stack.
    pub(crate) fn help_once(self: &Arc<Self>) -> bool {
        let depth = HELP_DEPTH.with(Cell::get);
        let steal = depth < HELP_STEAL_CAP;
        let job = match self.with_worker(|local, index| {
            self.sched.pop_for(local, index, &self.counters, steal)
        }) {
            Some(popped) => popped,
            None if depth == 0 => self.sched.pop_shared(&self.counters),
            None => None,
        };
        let Some(job) = job else { return false };
        self.helped.inc();
        let nested = depth + 1;
        if nested > self.max_help_depth.load(Ordering::Relaxed) {
            self.max_help_depth.fetch_max(nested, Ordering::Relaxed);
        }
        HELP_DEPTH.with(|d| d.set(nested));
        job.run();
        HELP_DEPTH.with(|d| d.set(depth));
        true
    }

    /// Help until no job is pending, or until `deadline` passes: the
    /// one help-while-waiting loop of quiescence waits and drains.
    fn help_until_quiescent(self: &Arc<Self>, deadline: Option<Instant>) {
        while self.pending() != 0 && deadline.is_none_or(|at| Instant::now() < at) {
            if !self.help_once() {
                let mut guard = self.idle.lock();
                if self.pending() == 0 {
                    break;
                }
                let _ = self
                    .quiescent_cv
                    .wait_for(&mut guard, Duration::from_micros(500));
            }
        }
    }

    /// Count one submitted job in the packed progress word.
    fn job_spawned(&self) {
        self.progress.fetch_add(1, Ordering::AcqRel);
    }

    /// Count a batch of submitted jobs (one atomic op for the batch).
    fn jobs_spawned(&self, n: usize) {
        self.progress.fetch_add(n as u64, Ordering::AcqRel);
    }

    /// Jobs submitted but not yet finished, from one consistent load.
    fn pending(&self) -> usize {
        unpack_pending(self.progress.load(Ordering::Acquire))
    }

    /// The epilogue of every job that ran on this runtime, task or
    /// batch member: count it executed (and cancelled, when its body
    /// was skipped), mark its outcome, and move it from pending to
    /// finished in the progress word.
    fn job_ran(&self, task: u64, cancelled: bool) {
        self.executed.inc();
        let outcome = if cancelled {
            self.cancelled.inc();
            Outcome::Cancelled
        } else {
            Outcome::Completed
        };
        self.trace
            .mark(self.pid, MarkKind::TaskOutcome { task, outcome });
        let prev = self.progress.fetch_add(FINISH_DELTA, Ordering::AcqRel);
        debug_assert!(unpack_pending(prev) > 0);
        if unpack_pending(prev) == 1 {
            let _guard = self.idle.lock();
            self.quiescent_cv.notify_all();
        }
    }

    /// Register a task with the deadline watchdog, starting the
    /// watchdog thread on first use.
    fn register_deadline(self: &Arc<Self>, entry: DeadlineEntry) {
        let mut st = self.deadlines.state.lock();
        st.entries.push(entry);
        if !st.watcher_running {
            st.watcher_running = true;
            let weak = Arc::downgrade(self);
            // Detached: exits on shutdown (or when the runtime drops)
            // via the shutdown flag set in `stop_deadline_watch`.
            let _ = thread::Builder::new()
                .name("partask-deadline".to_string())
                .spawn(move || deadline_watch_loop(&weak));
        }
        drop(st);
        self.deadlines.cv.notify_all();
    }

    /// Tell the watchdog to exit (idempotent).
    fn stop_deadline_watch(&self) {
        let mut st = self.deadlines.state.lock();
        st.shutdown = true;
        drop(st);
        self.deadlines.cv.notify_all();
    }
}

/// Watchdog body: sleep until the earliest registered deadline, then
/// cancel every overdue, unfinished task and count it as timed out.
fn deadline_watch_loop(weak: &Weak<RtInner>) {
    loop {
        let Some(inner) = weak.upgrade() else { return };
        let mut st = inner.deadlines.state.lock();
        if st.shutdown {
            st.watcher_running = false;
            return;
        }
        let now = Instant::now();
        let mut due = Vec::new();
        let mut i = 0;
        while i < st.entries.len() {
            if st.entries[i].finished.as_ref()() {
                // Completed in time: forget the deadline.
                st.entries.swap_remove(i);
            } else if st.entries[i].expiry.due <= now {
                due.push(st.entries.swap_remove(i));
            } else {
                i += 1;
            }
        }
        if due.is_empty() {
            let next = st.entries.iter().map(|e| e.expiry.due).min();
            match next {
                Some(at) => {
                    let _ = inner.deadlines.cv.wait_until(&mut st, at);
                }
                None => {
                    // Nothing registered: park until a new entry or
                    // shutdown arrives (bounded for robustness).
                    let _ = inner
                        .deadlines
                        .cv
                        .wait_for(&mut st, Duration::from_millis(50));
                }
            }
            drop(st);
            // Drop the strong ref before looping so a dropped runtime
            // is noticed promptly.
            drop(inner);
            continue;
        }
        drop(st);
        for entry in due {
            // Count before cancelling: the cancel flag's release store is what
            // publishes this increment to a task body that observes cancellation,
            // finishes, and lets a joiner read the stats.
            entry.expiry.count(&inner);
            entry.token.cancel();
        }
    }
}

/// What [`TaskRuntime::shutdown_graceful`] accomplished.
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// True when the runtime reached quiescence within the budget.
    pub drained: bool,
    /// Live jobs still in flight when the budget expired (0 when
    /// `drained`). These were bodies that had not yet observed their
    /// cancelled token; they still ran to completion before the pool's
    /// threads were joined.
    pub leftover: usize,
    /// Final activity counters, taken after every worker joined.
    pub stats: RuntimeStats,
}

/// The Parallel Task worker pool. See the crate docs for an overview.
pub struct TaskRuntime {
    inner: Arc<RtInner>,
    joiners: Mutex<Vec<thread::JoinHandle<()>>>,
}

/// Cheap, cloneable spawner that does not keep the pool alive. Task
/// bodies capture one of these to spawn subtasks. If the runtime has
/// shut down, spawns degrade to inline execution on the caller.
#[derive(Clone)]
pub struct RuntimeHandle {
    inner: Weak<RtInner>,
}

impl TaskRuntime {
    /// Start configuring a runtime.
    #[must_use]
    pub fn builder() -> Builder {
        Builder::default()
    }

    /// A runtime with default settings (one worker per CPU).
    #[must_use]
    pub fn new() -> Self {
        Builder::default().build()
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.inner.n_workers
    }

    /// A detached spawner usable from inside task bodies.
    #[must_use]
    pub fn handle(&self) -> RuntimeHandle {
        RuntimeHandle {
            inner: Arc::downgrade(&self.inner),
        }
    }

    /// Spawn a task; the `TASK` analogue.
    pub fn spawn<T: Send + 'static>(
        &self,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> TaskHandle<T> {
        spawn_on(&self.inner, move |_t| f())
    }

    /// Spawn a task whose body can observe its own [`CancelToken`].
    /// The token is a child of the runtime's root token, so it also
    /// flips on [`TaskRuntime::shutdown_graceful`].
    pub fn spawn_cancellable<T: Send + 'static>(
        &self,
        f: impl FnOnce(&CancelToken) -> T + Send + 'static,
    ) -> TaskHandle<T> {
        spawn_on(&self.inner, f)
    }

    /// Spawn a cancellable task whose token is a child of `parent`
    /// (rather than of the runtime's root): cancelling `parent`
    /// cancels this task along with the rest of its subtree, and the
    /// task inherits `parent`'s deadline, if any.
    pub fn spawn_cancellable_under<T: Send + 'static>(
        &self,
        parent: &CancelToken,
        f: impl FnOnce(&CancelToken) -> T + Send + 'static,
    ) -> TaskHandle<T> {
        spawn_on_with_token(&self.inner, parent.child(), f)
    }

    /// Spawn a task with an execution budget: when `deadline` elapses
    /// before the task finishes, its [`CancelToken`] reports
    /// cancellation and the expiry is counted once in
    /// [`RuntimeStats::timed_out`], before a join can return, whether
    /// a watchdog thread or the task itself sees the deadline first.
    ///
    /// Cancellation is cooperative, exactly as with
    /// [`TaskRuntime::spawn_cancellable`]: a body that polls its token
    /// stops early and decides its own result; a queued task that has
    /// not started resolves to [`crate::TaskError::Cancelled`]; a body
    /// that ignores its token runs to completion regardless, and only
    /// the counter records the overrun.
    pub fn spawn_deadline<T: Send + 'static>(
        &self,
        deadline: Duration,
        f: impl FnOnce(&CancelToken) -> T + Send + 'static,
    ) -> TaskHandle<T> {
        self.spawn_deadline_under(&self.inner.root_token, deadline, f)
    }

    /// [`TaskRuntime::spawn_deadline`] with an explicit parent token:
    /// the task's token is a child of `parent` carrying the deadline
    /// (clamped to `parent`'s own deadline, which a child can tighten
    /// but never extend).
    pub fn spawn_deadline_under<T: Send + 'static>(
        &self,
        parent: &CancelToken,
        deadline: Duration,
        f: impl FnOnce(&CancelToken) -> T + Send + 'static,
    ) -> TaskHandle<T> {
        let token = parent.child_with_deadline(deadline);
        let core = Core::with_token(token.clone());
        let expiry = Arc::new(Expiry {
            due: token.deadline().expect("a deadline token has a deadline"),
            task: core.id.as_u64(),
            counted: Mutex::new(false),
        });
        let settle = {
            let (expiry, inner) = (Arc::clone(&expiry), Arc::downgrade(&self.inner));
            move || {
                if let Some(inner) = inner.upgrade().filter(|_| Instant::now() >= expiry.due) {
                    expiry.count(&inner);
                }
            }
        };
        self.inner.push_job(make_traced_job(&self.inner, &core, f, settle));
        let finished = Arc::clone(&core);
        self.inner.register_deadline(DeadlineEntry {
            expiry,
            token,
            finished: Arc::new(move || finished.is_finished()),
        });
        TaskHandle { core, rt: Arc::downgrade(&self.inner) }
    }

    /// The root of this runtime's cancellation tree. Derive subtree
    /// tokens from it (`root.child()`) to group tasks for collective
    /// cancellation; [`TaskRuntime::shutdown_graceful`] cancels it.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.inner.root_token.clone()
    }

    /// Spawn a task that starts only after every watcher in `deps`
    /// has completed; the `dependsOn` analogue.
    pub fn spawn_after<T: Send + 'static>(
        &self,
        deps: &[TaskWatcher],
        f: impl FnOnce() -> T + Send + 'static,
    ) -> TaskHandle<T> {
        spawn_after_on(&self.inner, deps, move |_t| f())
    }

    /// Spawn `n` copies of a task; the `TASK(n)` multi-task analogue.
    /// Each copy receives its index in `0..n`.
    pub fn spawn_multi<T: Send + 'static>(
        &self,
        n: usize,
        f: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> crate::multi::MultiHandle<T> {
        crate::multi::spawn_multi(&self.inner, n, f)
    }

    /// Spawn one copy per worker; the `TASK(*)` analogue.
    pub fn spawn_per_worker<T: Send + 'static>(
        &self,
        f: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> crate::multi::MultiHandle<T> {
        crate::multi::spawn_multi(&self.inner, self.inner.n_workers, f)
    }

    /// Spawn `n` copies of a task as one *batch*: a single completion
    /// structure, a single shared-queue submission episode, and no
    /// per-task allocation — the fast path for fine-grained fan-outs
    /// of thousands of tasks (websim cluster ticks, marking
    /// pipelines). Each copy receives its index in `0..n`; results
    /// come back from [`BatchHandle::join`] in index order.
    ///
    /// Compared to [`TaskRuntime::spawn_multi`], a batch has no
    /// per-member [`TaskHandle`]/watcher machinery (and therefore no
    /// per-member dependence edges or GUI delivery) — it trades that
    /// generality for a spawn→run→join path that touches the
    /// allocator a constant number of times regardless of `n`.
    pub fn spawn_batch<T: Send + 'static>(
        &self,
        n: usize,
        f: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> BatchHandle<T> {
        spawn_batch_on(&self.inner, n, f)
    }

    /// Join a batch spawned with [`TaskRuntime::spawn_batch`]:
    /// equivalent to [`BatchHandle::join`], provided for symmetry.
    pub fn join_batch<T: Send + 'static>(
        &self,
        batch: BatchHandle<T>,
    ) -> Vec<Result<T, crate::task::TaskError>> {
        batch.join()
    }

    /// Block until every submitted task (including dependence-pending
    /// ones) has finished, running help steps while waiting (see
    /// [`RuntimeHandle::help_once`] for which jobs a thread may take).
    pub fn wait_quiescent(&self) {
        self.inner.help_until_quiescent(None);
    }

    /// An exactly-consistent progress snapshot, from a single atomic
    /// load: `spawned == finished + pending` always holds within one
    /// snapshot, under any concurrent load. (`spawned` here is derived
    /// as `finished + pending`; it equals [`RuntimeStats::spawned`]
    /// once submission racing the snapshot has settled.)
    #[must_use]
    pub fn progress(&self) -> ProgressSnapshot {
        let word = self.inner.progress.load(Ordering::Acquire);
        let pending = unpack_pending(word);
        let finished = word >> 32;
        ProgressSnapshot {
            spawned: finished + pending as u64,
            finished,
            pending,
        }
    }

    /// Number of submitted-but-unfinished jobs (queued, mid-steal, or
    /// running), from one consistent snapshot.
    ///
    /// This *defines* the snapshot semantics the old implementation
    /// lacked: it used to sum the injector and deque lengths under
    /// separate locks, so a job in flight between queues (mid-steal)
    /// or on a worker's stack (running) was double-counted or missed.
    /// Counting at the accounting layer instead of the queue layer
    /// makes the value exact: 0 if and only if the runtime is
    /// quiescent.
    #[must_use]
    pub fn queued_hint(&self) -> usize {
        self.inner.pending()
    }

    /// Diagnostic: how many times a worker entered the idle-parking
    /// path (lock + parked wait) since the pool started. An idle pool
    /// accrues at most one probe per worker per 100 ms — the
    /// regression test for the old busy-spin pins this bound. Not part
    /// of [`RuntimeStats`].
    #[must_use]
    pub fn idle_probes(&self) -> u64 {
        self.inner.idle_probes.load(Ordering::Relaxed)
    }

    /// Diagnostic: the deepest nesting of helped job bodies on any one
    /// thread since the pool started (a high-water mark; 0 when no
    /// help step has run a job). A tree whose only injector job is its
    /// root stays within [`HELP_STEAL_CAP`] plus its levels. Not part
    /// of [`RuntimeStats`].
    #[must_use]
    pub fn max_help_depth(&self) -> usize {
        self.inner.max_help_depth.load(Ordering::Relaxed)
    }

    /// Current activity counters.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        let inner = &self.inner;
        RuntimeStats {
            spawned: inner.spawned.get(),
            executed: inner.executed.get(),
            local_pops: inner.counters.local_pops.get(),
            global_pops: inner.counters.global_pops.get(),
            steals: inner.counters.steals.get(),
            helped: inner.helped.get(),
            cancelled: inner.cancelled.get(),
            timed_out: inner.timed_out.get(),
        }
    }

    /// Latency distributions recorded so far (steal-search latency).
    /// A snapshot: the histograms keep growing in the runtime after
    /// this returns.
    #[must_use]
    pub fn latencies(&self) -> RuntimeLatencies {
        RuntimeLatencies {
            steal_wait_ms: self.inner.counters.merged_steal_wait(),
        }
    }

    /// Wait for quiescence, then stop and join all workers (what
    /// dropping the runtime does).
    pub fn shutdown(self) {
        drop(self);
    }

    /// Cancel every outstanding task, then drain in-flight work with a
    /// bounded budget before stopping the pool.
    ///
    /// The sequence is deterministic in its *accounting*: the root
    /// token is cancelled first (so every queued task resolves to
    /// [`crate::TaskError::Cancelled`] without running its body, and
    /// every cooperative running body observes its token), then this
    /// thread helps drain until the runtime is quiescent or `budget`
    /// elapses, then workers are stopped and joined. Queued jobs left
    /// at expiry still resolve — workers drain the queue before
    /// exiting — so `spawned == executed` holds in the final stats
    /// regardless of the budget; the budget only bounds how long we
    /// wait for *running* bodies to notice their token.
    pub fn shutdown_graceful(self, budget: Duration) -> DrainReport {
        let deadline = Instant::now() + budget;
        self.inner.root_token.cancel();
        self.inner.wake_all();
        self.inner.help_until_quiescent(Some(deadline));
        let leftover = self.inner.pending();
        self.stop_and_join();
        DrainReport {
            drained: leftover == 0,
            leftover,
            stats: self.stats(),
        }
    }

    /// Stop the workers and the deadline watchdog, then join every
    /// worker (idempotent: a second call finds no workers to join).
    fn stop_and_join(&self) {
        self.inner.stop.store(true, Ordering::Release);
        self.inner.stop_deadline_watch();
        self.inner.wake_all();
        let joiners = std::mem::take(&mut *self.joiners.lock());
        let self_id = thread::current().id();
        for j in joiners {
            // Never join the current thread (shutdown from a worker).
            if j.thread().id() != self_id {
                let _ = j.join();
            }
        }
    }
}

impl Default for TaskRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for TaskRuntime {
    fn drop(&mut self) {
        self.wait_quiescent();
        self.stop_and_join();
    }
}

impl RuntimeHandle {
    /// Spawn a task, or run `f` inline if the runtime is gone.
    pub fn spawn<T: Send + 'static>(
        &self,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> TaskHandle<T> {
        match self.inner.upgrade() {
            Some(inner) => spawn_on(&inner, move |_t| f()),
            None => run_inline(move |_t| f()),
        }
    }

    /// Spawn a cancellable task, or run inline if the runtime is gone.
    pub fn spawn_cancellable<T: Send + 'static>(
        &self,
        f: impl FnOnce(&CancelToken) -> T + Send + 'static,
    ) -> TaskHandle<T> {
        match self.inner.upgrade() {
            Some(inner) => spawn_on(&inner, f),
            None => run_inline(f),
        }
    }

    /// Spawn after dependences, or run inline if the runtime is gone
    /// (dependences are then waited for by polling).
    pub fn spawn_after<T: Send + 'static>(
        &self,
        deps: &[TaskWatcher],
        f: impl FnOnce() -> T + Send + 'static,
    ) -> TaskHandle<T> {
        match self.inner.upgrade() {
            Some(inner) => spawn_after_on(&inner, deps, move |_t| f()),
            None => {
                while deps.iter().any(|d| !d.is_done()) {
                    thread::yield_now();
                }
                run_inline(move |_t| f())
            }
        }
    }

    /// Spawn a batch (see [`TaskRuntime::spawn_batch`]), or run every
    /// member inline in index order if the runtime is gone.
    pub fn spawn_batch<T: Send + 'static>(
        &self,
        n: usize,
        f: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> BatchHandle<T> {
        match self.inner.upgrade() {
            Some(inner) => spawn_batch_on(&inner, n, f),
            None => {
                let core = BatchCore::new(n, TaskId::fresh_block(n as u64), CancelToken::new());
                for i in 0..n {
                    run_batch_member(&core, &f, &Weak::new(), i);
                }
                BatchHandle { core, rt: Weak::new() }
            }
        }
    }

    /// Is the underlying pool still alive?
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.inner.strong_count() > 0
    }

    /// Execute one queued task on the calling thread, if any is
    /// available. Returns `true` when a task ran.
    ///
    /// This is the building block for *task-aware* blocking: code that
    /// must wait inside a task should alternate its condition check
    /// with `help_once`, so the bounded worker pool keeps making
    /// progress instead of deadlocking (SoftEng 751 project 6).
    ///
    /// Every wait in this crate helps through the same step. On one of
    /// this runtime's workers it pops the worker's own deque (newest
    /// first), then the injector, and steals from other workers only
    /// while fewer than [`HELP_STEAL_CAP`] helped bodies are nested on
    /// its stack. Any other thread takes the oldest queued job, and
    /// only when no helped body is already on its stack, so it never
    /// nests a second one. Work-sharing workers help from the shared
    /// queue at any depth.
    pub fn help_once(&self) -> bool {
        match self.inner.upgrade() {
            Some(inner) => inner.help_once(),
            None => false,
        }
    }
}

fn run_inline<T: Send + 'static>(f: impl FnOnce(&CancelToken) -> T) -> TaskHandle<T> {
    let core = Core::new();
    core.run(f, || ());
    TaskHandle { core, rt: Weak::new() }
}

/// The shared tail of every spawn path: count the submission, emit the
/// spawn mark (linked to the spawning thread's current span), and
/// build the worker-side job closure that runs the body inside a
/// `task.run` span, calls `settle` before the result is published (a
/// no-op except for deadline tasks), and records its outcome.
fn make_traced_job<T: Send + 'static>(
    inner: &Arc<RtInner>,
    core: &Arc<Core<T>>,
    f: impl FnOnce(&CancelToken) -> T + Send + 'static,
    settle: impl FnOnce() + Send + 'static,
) -> Job {
    let task = core.id.as_u64();
    inner.spawned.inc();
    inner.trace.mark(
        inner.pid,
        MarkKind::TaskSpawn { task, parent_span: inner.trace.current_span() },
    );
    inner.job_spawned();
    let job_core = Arc::clone(core);
    let job_inner = Arc::downgrade(inner);
    // 16 bytes of bookkeeping captures + `f`: fits SmallJob's inline
    // slot (no allocation) whenever `f` captures ≤ 48 bytes.
    SmallJob::new(move || {
        let rt = job_inner.upgrade();
        let was_cancelled = {
            let _span = rt.as_ref().map(|i| i.trace.span(i.pid, SpanKind::TaskRun { task }));
            job_core.run(f, settle)
        };
        if let Some(inner) = rt {
            inner.job_ran(task, was_cancelled);
        }
    })
}

/// Build and submit the member jobs of a [`BatchHandle`] batch: ids
/// from one block allocation, pending counted in one atomic add, and
/// all jobs submitted in one shared-queue episode. Each member job is
/// 32 bytes (stored inline in its [`SmallJob`]) and writes its result
/// into the batch's preallocated slot — the whole fan-out performs a
/// constant number of allocations regardless of `n`.
fn spawn_batch_on<T: Send + 'static>(
    inner: &Arc<RtInner>,
    n: usize,
    f: impl Fn(usize) -> T + Send + Sync + 'static,
) -> BatchHandle<T> {
    let base_id = TaskId::fresh_block(n as u64);
    let core = BatchCore::new(n, base_id, inner.root_token.child());
    inner.spawned.add(n as u64);
    if inner.trace.enabled() {
        let parent_span = inner.trace.current_span();
        for i in 0..n as u64 {
            inner
                .trace
                .mark(inner.pid, MarkKind::TaskSpawn { task: base_id + i, parent_span });
        }
    }
    inner.jobs_spawned(n);
    let shared_f = Arc::new(f);
    let jobs: Vec<Job> = (0..n)
        .map(|index| {
            let core = Arc::clone(&core);
            let f = Arc::clone(&shared_f);
            let weak = Arc::downgrade(inner);
            SmallJob::new(move || run_batch_member(&core, &*f, &weak, index))
        })
        .collect();
    inner.push_job_batch(jobs);
    BatchHandle {
        core,
        rt: Arc::downgrade(inner),
    }
}

/// Body of one batch member: the [`Core::run`] analogue against a
/// batch slot (cancellation check, panic containment, outcome
/// accounting), with no per-task completion structure. With the
/// runtime gone (`weak` dangling) it runs untraced and uncounted, as
/// the inline fallback of [`RuntimeHandle::spawn_batch`].
fn run_batch_member<T: Send + 'static>(
    core: &BatchCore<T>,
    f: &impl Fn(usize) -> T,
    weak: &Weak<RtInner>,
    index: usize,
) {
    let rt = weak.upgrade();
    let task = core.base_id() + index as u64;
    let token = core.cancel_token();
    let result = {
        let _span = rt.as_ref().map(|i| i.trace.span(i.pid, SpanKind::TaskRun { task }));
        if token.is_cancelled() {
            Err(crate::task::TaskError::Cancelled)
        } else {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(index)))
                .map_err(|payload| crate::task::TaskError::Panicked(crate::task::panic_message(&*payload)))
        }
    };
    let was_cancelled = matches!(result, Err(crate::task::TaskError::Cancelled));
    core.store(index, result);
    if let Some(inner) = rt {
        inner.job_ran(task, was_cancelled);
    }
}

pub(crate) fn spawn_on<T: Send + 'static>(
    inner: &Arc<RtInner>,
    f: impl FnOnce(&CancelToken) -> T + Send + 'static,
) -> TaskHandle<T> {
    spawn_on_with_token(inner, inner.root_token.child(), f)
}

pub(crate) fn spawn_on_with_token<T: Send + 'static>(
    inner: &Arc<RtInner>,
    token: CancelToken,
    f: impl FnOnce(&CancelToken) -> T + Send + 'static,
) -> TaskHandle<T> {
    let core = Core::with_token(token);
    let job = make_traced_job(inner, &core, f, || ());
    inner.push_job(job);
    TaskHandle {
        core,
        rt: Arc::downgrade(inner),
    }
}

pub(crate) fn spawn_after_on<T: Send + 'static>(
    inner: &Arc<RtInner>,
    deps: &[TaskWatcher],
    f: impl FnOnce(&CancelToken) -> T + Send + 'static,
) -> TaskHandle<T> {
    let core = Core::with_token(inner.root_token.child());
    let job = make_traced_job(inner, &core, f, || ());
    if deps.is_empty() {
        inner.push_job(job);
    } else {
        // Gate: schedule the job once `remaining` reaches zero. The
        // +1 guard prevents firing while hooks are still being added.
        struct Gate {
            remaining: AtomicUsize,
            job: Mutex<Option<Job>>,
            rt: Weak<RtInner>,
        }
        impl Gate {
            fn arm(&self) {
                if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    if let Some(job) = self.job.lock().take() {
                        if let Some(rt) = self.rt.upgrade() {
                            rt.push_job(job);
                        } else {
                            job.run();
                        }
                    }
                }
            }
        }
        let gate = Arc::new(Gate {
            remaining: AtomicUsize::new(deps.len() + 1),
            job: Mutex::new(Some(job)),
            rt: Arc::downgrade(inner),
        });
        for dep in deps {
            let gate = Arc::clone(&gate);
            dep.on_done_boxed(Box::new(move || gate.arm()));
        }
        gate.arm();
    }
    TaskHandle {
        core,
        rt: Arc::downgrade(inner),
    }
}
