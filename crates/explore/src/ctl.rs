//! The controlled scheduler: one OS thread per simulated thread,
//! exactly one running at a time.
//!
//! Every shim operation calls [`sched_point`] *before* performing its
//! effect: the thread records what it is about to do, parks on the
//! controller's condvar and waits to be granted the step. The
//! controller (driving on the `explore()` caller's thread) waits for
//! all simulated threads to be parked or finished, computes the
//! enabled set (a pending `Lock` is disabled while the mutex is held;
//! a pending `Join` is disabled until the target finishes), asks the
//! active strategy to choose, applies the happens-before pass for the
//! chosen operation, and wakes exactly that thread. Executions are
//! therefore sequentialised and — given the same choice sequence —
//! bit-for-bit reproducible.
//!
//! Abandoning an execution (pruned by the DFS, step bound hit, or a
//! deadlock) sets an abort flag; parked threads wake, unwind with a
//! private token panic, and the controller joins their OS threads, so
//! no state leaks between executions.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex as StdMutex, Once};

use crate::op::{Op, OpKind};
use crate::race::{Detector, RawRace};

/// Token panic used to unwind simulated threads of an abandoned
/// execution. Never observed outside the crate.
struct AbortToken;

/// The abort unwind is routine control flow here, but the default
/// panic hook would print a "thread panicked" backtrace for every
/// abandoned execution. Wrap the hook once to keep those silent while
/// leaving real panics (assertion failures in litmus bodies) as loud
/// as ever.
fn silence_abort_token_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<AbortToken>() {
                previous(info);
            }
        }));
    });
}

/// Lifecycle of one simulated thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Status {
    /// Registered; its OS thread starts when `Start` is granted.
    Unstarted,
    /// Parked at a yield point with a pending operation.
    Ready,
    /// Granted a step; running until its next yield point.
    Running,
    /// Its closure returned (or unwound).
    Finished,
}

struct ThreadRec {
    status: Status,
    pending: Option<Op>,
    main: Option<Box<dyn FnOnce() + Send>>,
    os: Option<std::thread::JoinHandle<()>>,
}

/// One recorded step of the trace.
#[derive(Clone, Debug)]
pub(crate) struct EventRec {
    pub tid: usize,
    pub op: Op,
}

/// Scheduler-side state of one shim barrier (keyed by its location).
#[derive(Debug, Default)]
struct BarrierCtl {
    /// Completed episodes so far.
    generation: u64,
    /// Threads arrived in the current (incomplete) episode.
    arrived: std::collections::BTreeSet<usize>,
    /// For each thread parked at a `BarrierWait`: the generation it
    /// arrived in. Its wait is enabled once `generation` moves past.
    waiting_gen: BTreeMap<usize, u64>,
}

pub(crate) struct State {
    threads: Vec<ThreadRec>,
    active: Option<usize>,
    abort: bool,
    loc_names: Vec<String>,
    lock_held: BTreeMap<usize, usize>,
    barriers: BTreeMap<usize, BarrierCtl>,
    pub detector: Detector,
    pub events: Vec<EventRec>,
    pub schedule: Vec<usize>,
    pub observations: BTreeMap<String, i64>,
    pub panic: Option<String>,
}

pub(crate) struct Controller {
    state: StdMutex<State>,
    cv: Condvar,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Controller>, usize)>> = const { RefCell::new(None) };
}

fn with_ctx<R>(f: impl FnOnce(&Arc<Controller>, usize) -> R) -> R {
    CTX.with(|c| {
        let borrow = c.borrow();
        let (ctl, tid) = borrow
            .as_ref()
            .expect("parc-explore shim used outside an explorer execution");
        f(ctl, *tid)
    })
}

/// Announce the pending operation and park until the controller
/// grants the step. Called by every shim primitive.
pub(crate) fn sched_point(op: Op) {
    if std::thread::panicking() {
        // Unwinding (an abort token or a real assertion failure):
        // guards may still run Drop glue — never re-enter the
        // scheduler from a panic.
        return;
    }
    with_ctx(|ctl, tid| ctl.yield_op(tid, op));
}

/// Register a shared-memory location (atomic, plain cell or mutex).
pub(crate) fn register_loc(name: &str) -> usize {
    with_ctx(|ctl, _| {
        let mut st = ctl.state.lock().unwrap();
        st.loc_names.push(name.to_string());
        st.loc_names.len() - 1
    })
}

/// Register a child simulated thread (no yield — the child only
/// becomes schedulable, via its pending `Start`).
pub(crate) fn register_thread(main: Box<dyn FnOnce() + Send>) -> usize {
    with_ctx(|ctl, parent| {
        let mut st = ctl.state.lock().unwrap();
        st.register(Some(parent), main)
    })
}

/// Record a named observation for the current execution (e.g. the
/// final counter value). Aggregated across schedules by the explorer.
pub fn record(key: &str, value: i64) {
    with_ctx(|ctl, _| {
        let mut st = ctl.state.lock().unwrap();
        st.observations.insert(key.to_string(), value);
    });
}

impl State {
    fn register(&mut self, parent: Option<usize>, main: Box<dyn FnOnce() + Send>) -> usize {
        let tid = self.threads.len();
        self.detector.on_spawn(parent, tid);
        self.threads.push(ThreadRec {
            status: Status::Unstarted,
            pending: Some(Op::start()),
            main: Some(main),
            os: None,
        });
        tid
    }

    fn enabled(&self) -> Vec<(usize, Op)> {
        self.threads
            .iter()
            .enumerate()
            .filter_map(|(tid, rec)| {
                if !matches!(rec.status, Status::Unstarted | Status::Ready) {
                    return None;
                }
                let op = rec.pending.as_ref()?;
                let runnable = match op.kind {
                    OpKind::Lock => {
                        !self.lock_held.contains_key(&op.loc.expect("lock loc"))
                    }
                    OpKind::Join { target } => {
                        matches!(self.threads[target].status, Status::Finished)
                    }
                    OpKind::BarrierWait => {
                        // Enabled once the episode this thread arrived
                        // in has completed (the generation moved on).
                        let loc = op.loc.expect("barrier loc");
                        self.barriers.get(&loc).is_some_and(|b| {
                            b.waiting_gen.get(&tid).is_none_or(|g| b.generation > *g)
                        })
                    }
                    _ => true,
                };
                runnable.then(|| (tid, op.clone()))
            })
            .collect()
    }

    /// Human description of who is stuck on what (deadlock reports).
    fn describe_blocked(&self) -> String {
        let mut parts = Vec::new();
        for (tid, rec) in self.threads.iter().enumerate() {
            if matches!(rec.status, Status::Ready | Status::Unstarted) {
                if let Some(op) = &rec.pending {
                    let name = op
                        .loc
                        .map(|l| self.loc_names[l].clone())
                        .unwrap_or_default();
                    parts.push(format!("T{tid} blocked at {}", op.describe(&name)));
                }
            }
        }
        parts.join("; ")
    }

}

/// Everything the explorer needs from one finished execution.
pub(crate) struct ExecOutcome {
    /// All threads ran to completion.
    pub completed: bool,
    /// Abandoned by the strategy (sleep-set prune).
    pub pruned: bool,
    /// Abandoned by the step bound.
    pub truncated: bool,
    /// No enabled thread while some were unfinished.
    pub deadlock: Option<String>,
    /// A simulated thread's real panic (assertion failure, …).
    pub panic: Option<String>,
    pub schedule: Vec<usize>,
    pub events: Vec<EventRec>,
    pub races: Vec<RawRace>,
    pub observations: BTreeMap<String, i64>,
    pub loc_names: Vec<String>,
}

/// The per-step choice made by a strategy: which enabled thread runs,
/// or abandon the execution (sleep-set prune).
pub(crate) type Choice = Option<usize>;

impl Controller {
    fn new() -> Arc<Self> {
        Arc::new(Controller {
            state: StdMutex::new(State {
                threads: Vec::new(),
                active: None,
                abort: false,
                loc_names: Vec::new(),
                lock_held: BTreeMap::new(),
                barriers: BTreeMap::new(),
                detector: Detector::default(),
                events: Vec::new(),
                schedule: Vec::new(),
                observations: BTreeMap::new(),
                panic: None,
            }),
            cv: Condvar::new(),
        })
    }

    fn yield_op(self: &Arc<Self>, tid: usize, op: Op) {
        let mut st = self.state.lock().unwrap();
        if st.abort {
            drop(st);
            std::panic::panic_any(AbortToken);
        }
        st.threads[tid].pending = Some(op);
        st.threads[tid].status = Status::Ready;
        st.active = None;
        self.cv.notify_all();
        loop {
            if st.abort {
                drop(st);
                std::panic::panic_any(AbortToken);
            }
            if st.active == Some(tid) {
                return;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    fn thread_main(self: Arc<Self>, tid: usize, main: Box<dyn FnOnce() + Send>) {
        CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&self), tid)));
        let result = catch_unwind(AssertUnwindSafe(main));
        let mut st = self.state.lock().unwrap();
        st.threads[tid].status = Status::Finished;
        st.threads[tid].pending = None;
        st.active = None;
        if let Err(payload) = result {
            if !payload.is::<AbortToken>() {
                let msg = parc_util::panic_message(&*payload);
                st.panic.get_or_insert(format!("T{tid} panicked: {msg}"));
                st.abort = true;
            }
        }
        self.cv.notify_all();
    }

    /// Grant the chosen thread its pending step: record it, apply the
    /// happens-before pass, update lock state, start the OS thread if
    /// this is its `Start`.
    fn grant(self: &Arc<Self>, st: &mut State, tid: usize) {
        let op = st.threads[tid].pending.take().expect("granted thread has a pending op");
        let mut barrier_completed = None;
        match op.kind {
            OpKind::Lock => {
                let loc = op.loc.expect("lock loc");
                let prev = st.lock_held.insert(loc, tid);
                debug_assert!(prev.is_none(), "granted a held lock");
            }
            OpKind::Unlock => {
                let loc = op.loc.expect("unlock loc");
                let owner = st.lock_held.remove(&loc);
                debug_assert_eq!(owner, Some(tid), "unlock by non-owner");
            }
            OpKind::BarrierArrive { participants } => {
                let loc = op.loc.expect("barrier loc");
                let bar = st.barriers.entry(loc).or_default();
                bar.waiting_gen.insert(tid, bar.generation);
                bar.arrived.insert(tid);
                if bar.arrived.len() >= participants {
                    bar.arrived.clear();
                    bar.generation += 1;
                    barrier_completed = Some(loc);
                }
            }
            OpKind::BarrierWait => {
                let loc = op.loc.expect("barrier loc");
                if let Some(bar) = st.barriers.get_mut(&loc) {
                    bar.waiting_gen.remove(&tid);
                }
            }
            _ => {}
        }
        let event = st.events.len();
        st.detector.on_op(tid, &op, event);
        if let Some(loc) = barrier_completed {
            st.detector.on_barrier_complete(loc);
        }
        st.events.push(EventRec { tid, op });
        st.schedule.push(tid);
        if matches!(st.threads[tid].status, Status::Unstarted) {
            let main = st.threads[tid].main.take().expect("unstarted thread has a main");
            let ctl = Arc::clone(self);
            st.threads[tid].os = Some(std::thread::spawn(move || ctl.thread_main(tid, main)));
        }
        st.threads[tid].status = Status::Running;
        st.active = Some(tid);
        self.cv.notify_all();
    }

    fn abort_and_join(self: &Arc<Self>) {
        let handles: Vec<std::thread::JoinHandle<()>> = {
            let mut st = self.state.lock().unwrap();
            st.abort = true;
            self.cv.notify_all();
            st.threads.iter_mut().filter_map(|t| t.os.take()).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }

    fn take_outcome(self: &Arc<Self>, completed: bool, pruned: bool, truncated: bool, deadlock: Option<String>) -> ExecOutcome {
        let mut st = self.state.lock().unwrap();
        ExecOutcome {
            completed,
            pruned,
            truncated,
            deadlock,
            panic: st.panic.take(),
            schedule: std::mem::take(&mut st.schedule),
            events: std::mem::take(&mut st.events),
            races: std::mem::take(&mut st.detector.races),
            observations: std::mem::take(&mut st.observations),
            loc_names: std::mem::take(&mut st.loc_names),
        }
    }
}

/// Run one execution of `body` under the control of `chooser`, which
/// is called with `(step, enabled)` — `enabled` sorted by thread id —
/// and returns the chosen tid, or `None` to abandon the execution.
pub(crate) fn run_one(
    body: Arc<dyn Fn() + Send + Sync>,
    max_steps: usize,
    mut chooser: impl FnMut(usize, &[(usize, Op)]) -> Choice,
) -> ExecOutcome {
    silence_abort_token_panics();
    let ctl = Controller::new();
    {
        let mut st = ctl.state.lock().unwrap();
        let b = Arc::clone(&body);
        st.register(None, Box::new(move || b()));
    }
    let mut step = 0usize;
    let (completed, pruned, truncated, deadlock) = loop {
        let mut st = ctl.state.lock().unwrap();
        // Wait for the running thread (if any) to park or finish.
        while st.active.is_some()
            && !st.abort
            && st.threads.iter().any(|t| matches!(t.status, Status::Running))
        {
            st = ctl.cv.wait(st).unwrap();
        }
        if st.panic.is_some() || st.abort {
            break (false, false, false, None);
        }
        if st.threads.iter().all(|t| matches!(t.status, Status::Finished)) {
            break (true, false, false, None);
        }
        let enabled = st.enabled();
        if enabled.is_empty() {
            let msg = st.describe_blocked();
            break (false, false, false, Some(msg));
        }
        if step >= max_steps {
            break (false, false, true, None);
        }
        match chooser(step, &enabled) {
            None => break (false, true, false, None),
            Some(tid) => {
                debug_assert!(enabled.iter().any(|(t, _)| *t == tid), "chose a disabled thread");
                ctl.grant(&mut st, tid);
                step += 1;
            }
        }
    };
    ctl.abort_and_join();
    ctl.take_outcome(completed, pruned, truncated, deadlock)
}
