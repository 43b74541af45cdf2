//! The persistent thread team and parallel-region execution.

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use parc_supervise::CancelToken;
use parc_trace::{LatencyHistogram, MarkKind, SchedTag, SpanKind, TraceHandle};
use parking_lot::{Condvar, Mutex};

use crate::reduction::Reduction;
use crate::region::RegionState;
use crate::schedule::{ChunkStream, LoopShared, Schedule};

/// The trace tag for a worksharing schedule.
fn sched_tag(schedule: Schedule) -> SchedTag {
    match schedule {
        Schedule::Static => SchedTag::Static,
        Schedule::StaticChunk(_) => SchedTag::StaticChunk,
        Schedule::Dynamic(_) => SchedTag::Dynamic,
        Schedule::Guided(_) => SchedTag::Guided,
    }
}

/// Why a parallel region failed. Returned by [`Team::try_parallel`];
/// the analogue of Parallel Task's `asyncCatch` handler observing an
/// exception that escaped a task body — here the "task" is one team
/// member's execution of the region closure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TeamError {
    /// A team member's region body panicked. The panic poisoned the
    /// region barrier, so every sibling blocked on a barrier (explicit
    /// or implied by a worksharing construct) unblocked and abandoned
    /// the region instead of deadlocking.
    MemberPanicked {
        /// Thread index (`omp_get_thread_num`) of the first panicker.
        member: usize,
        /// Stringified panic payload of that member.
        payload: String,
    },
    /// The region's [`CancelToken`] (see
    /// [`Team::try_parallel_cancellable`]) was cancelled: the team
    /// observed it at a barrier, abandoned the region there, and the
    /// team itself survives for subsequent regions.
    Cancelled,
}

impl std::fmt::Display for TeamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MemberPanicked { member, payload } => {
                write!(f, "team member {member} panicked: {payload}")
            }
            Self::Cancelled => write!(f, "parallel region was cancelled"),
        }
    }
}

impl std::error::Error for TeamError {}

/// Marker payload used when a *sibling* of a panicked member unwinds
/// out of a poisoned barrier. Wrappers recognise it and do not record
/// it as a fresh panic — the root cause is already in `RegionState`.
struct PoisonUnwind;

/// Unwind the current thread out of a poisoned region. The payload is
/// recognised (and swallowed) by the per-member `catch_unwind` wrapper.
/// `resume_unwind` (rather than `panic_any`) keeps the panic hook out
/// of it: this is control flow, not a fresh failure, and the hook
/// would otherwise print a bogus backtrace per cascading member.
fn poison_unwind() -> ! {
    std::panic::resume_unwind(Box::new(PoisonUnwind));
}

/// Route one member's unwind into the region's panic record, unless it
/// is the poison-cascade marker (already recorded by the root cause).
fn note_region_panic(region: &RegionState, member: usize, payload: Box<dyn Any + Send>) {
    if payload.downcast_ref::<PoisonUnwind>().is_some() {
        return;
    }
    region.record_panic(member, parc_util::panic_message(&*payload));
}

thread_local! {
    /// Set while the current thread executes a parallel region; makes
    /// nested `parallel` calls serialise (the OpenMP non-nested
    /// default).
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// The closure pointer shipped to workers. Lifetime is erased; safety
/// rests on `parallel` not returning until every worker has finished
/// with it (enforced by the completion latch).
struct JobMsg {
    f: *const (dyn Fn(&Ctx) + Sync),
    region: Arc<RegionState>,
    latch: Arc<Latch>,
    /// Threads with tid >= active skip this region.
    active: usize,
}

// SAFETY: the pointee is `Sync` (shared-callable from any thread) and
// outlives all uses — `Team::parallel` blocks on the latch until every
// worker has dropped its copy of the pointer.
unsafe impl Send for JobMsg {}

impl Clone for JobMsg {
    fn clone(&self) -> Self {
        Self {
            f: self.f,
            region: Arc::clone(&self.region),
            latch: Arc::clone(&self.latch),
            active: self.active,
        }
    }
}

/// Count-down latch: `parallel` waits for the helpers of one region.
struct Latch {
    remaining: Mutex<usize>,
    cv: Condvar,
}

impl Latch {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(Self {
            remaining: Mutex::new(n),
            cv: Condvar::new(),
        })
    }

    fn count_down(&self) {
        let mut rem = self.remaining.lock();
        *rem -= 1;
        if *rem == 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut rem = self.remaining.lock();
        while *rem > 0 {
            self.cv.wait(&mut rem);
        }
    }
}

struct DispatchSlot {
    generation: u64,
    msg: Option<JobMsg>,
    stop: bool,
}

struct TeamInner {
    n: usize,
    slot: Mutex<DispatchSlot>,
    slot_cv: Condvar,
    /// Serialises region launches from different threads.
    region_lock: Mutex<()>,
    criticals: Mutex<std::collections::HashMap<String, Arc<Mutex<()>>>>,
    joiners: Mutex<Vec<thread::JoinHandle<()>>>,
    /// Where region/barrier/chunk events are recorded (disabled by
    /// default).
    trace: TraceHandle,
    /// The team's trace track.
    pid: u32,
    /// Per-member barrier wait times, registered with the collector's
    /// metrics registry when tracing is attached.
    barrier_hist: Option<Arc<Mutex<LatencyHistogram>>>,
}

/// A persistent team of threads executing parallel regions; the
/// OpenMP/Pyjama thread-team analogue. The creating (or calling)
/// thread participates as thread 0. Cloning is cheap and shares the
/// team.
#[derive(Clone)]
pub struct Team {
    inner: Arc<TeamInner>,
}

impl Team {
    /// Create a team of `n` threads total (`n - 1` helpers are
    /// spawned; the caller of [`Team::parallel`] acts as thread 0).
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_trace(n, &TraceHandle::default())
    }

    /// [`Team::new`], recording region, barrier and chunk-dispatch
    /// events through `trace` on a track named `pyjama`. Per-member
    /// barrier wait times are also registered as the
    /// `pyjama.barrier_wait_ms` histogram.
    #[must_use]
    pub fn with_trace(n: usize, trace: &TraceHandle) -> Self {
        assert!(n >= 1, "a team needs at least one thread");
        let pid = trace.register_track("pyjama");
        let barrier_hist = trace
            .metrics()
            .map(|reg| reg.histogram("pyjama.barrier_wait_ms", 1e-3, 1e4, 12));
        let inner = Arc::new(TeamInner {
            n,
            slot: Mutex::new(DispatchSlot {
                generation: 0,
                msg: None,
                stop: false,
            }),
            slot_cv: Condvar::new(),
            region_lock: Mutex::new(()),
            criticals: Mutex::new(std::collections::HashMap::new()),
            joiners: Mutex::new(Vec::new()),
            trace: trace.clone(),
            pid,
            barrier_hist,
        });
        let mut joiners = Vec::with_capacity(n.saturating_sub(1));
        for tid in 1..n {
            let worker_inner = Arc::clone(&inner);
            joiners.push(
                thread::Builder::new()
                    .name(format!("pyjama-{tid}"))
                    .spawn(move || worker_loop(&worker_inner, tid))
                    .expect("failed to spawn team thread"),
            );
        }
        *inner.joiners.lock() = joiners;
        Self { inner }
    }

    /// Team size (including the calling thread).
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.inner.n
    }

    /// Execute a parallel region on a sub-team of `n` threads
    /// (OpenMP's `num_threads(n)` clause). `n` is clamped to the team
    /// size; threads beyond the sub-team sit the region out.
    ///
    /// Panics if a member's region body panicked (see
    /// [`Team::try_parallel_with`] for the non-panicking form).
    pub fn parallel_with<F: Fn(&Ctx) + Sync>(&self, n: usize, f: F) {
        if let Err(e) = self.try_parallel_with(n, f) {
            panic!("pyjama {e}");
        }
    }

    /// Execute a parallel region: `f` runs once on every team thread,
    /// each receiving its own [`Ctx`]. Blocks until all threads have
    /// finished the region. Nested calls (from inside a region)
    /// serialise onto the calling thread with a team of one.
    ///
    /// Panics if a member's region body panicked (see
    /// [`Team::try_parallel`] for the non-panicking form).
    pub fn parallel<F: Fn(&Ctx) + Sync>(&self, f: F) {
        if let Err(e) = self.try_parallel(f) {
            panic!("pyjama {e}");
        }
    }

    /// Like [`Team::parallel`], but a panicking member yields
    /// `Err(TeamError::MemberPanicked)` instead of propagating the
    /// panic. The region **never deadlocks on a dead member**: the
    /// panic poisons the region barrier, siblings blocked on any
    /// barrier unwind and abandon the region, and the team itself
    /// survives for subsequent regions.
    pub fn try_parallel<F: Fn(&Ctx) + Sync>(&self, f: F) -> Result<(), TeamError> {
        self.try_parallel_impl(self.inner.n, None, f)
    }

    /// [`Team::parallel_with`] with [`Team::try_parallel`]'s error
    /// handling.
    pub fn try_parallel_with<F: Fn(&Ctx) + Sync>(&self, n: usize, f: F) -> Result<(), TeamError> {
        self.try_parallel_impl(n.clamp(1, self.inner.n), None, f)
    }

    /// [`Team::try_parallel`] under a [`CancelToken`]: every barrier
    /// (explicit or implied by a worksharing construct) observes the
    /// token, and once it flips the whole team abandons the region at
    /// that barrier — via the same poisoning machinery that contains
    /// member panics — yielding `Err(TeamError::Cancelled)`. Bodies
    /// can also poll [`Ctx::is_cancelled`] to skip work early.
    ///
    /// The region runs under a *child* of `token`, so cancelling the
    /// caller's token cancels the region without being affected by it.
    /// A member panic still takes precedence over cancellation in the
    /// returned error (it is the root cause worth reporting).
    pub fn try_parallel_cancellable<F: Fn(&Ctx) + Sync>(
        &self,
        token: &CancelToken,
        f: F,
    ) -> Result<(), TeamError> {
        self.try_parallel_impl(self.inner.n, Some(token.child()), f)
    }

    fn try_parallel_impl<F: Fn(&Ctx) + Sync>(
        &self,
        active: usize,
        cancel: Option<CancelToken>,
        f: F,
    ) -> Result<(), TeamError> {
        if IN_REGION.with(Cell::get) {
            // Nested region: serial execution, own single-thread state.
            let region = RegionState::new(1);
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                let ctx = Ctx {
                    team: &self.inner,
                    region: &region,
                    tid: 0,
                    n_threads: 1,
                    construct_counter: AtomicUsize::new(0),
                };
                f(&ctx);
            }));
            return match unwound {
                Ok(()) => Ok(()),
                // A poison cascade from the *outer* region must keep
                // unwinding to the outer member wrapper.
                Err(p) if p.downcast_ref::<PoisonUnwind>().is_some() => {
                    std::panic::resume_unwind(p)
                }
                Err(p) => Err(TeamError::MemberPanicked {
                    member: 0,
                    payload: parc_util::panic_message(&*p),
                }),
            };
        }
        // A token already cancelled at launch: skip the region wholesale
        // rather than starting work that would be abandoned at the
        // first barrier.
        if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(TeamError::Cancelled);
        }
        let _region_guard = self.inner.region_lock.lock();
        let region = RegionState::with_cancel(active, cancel);
        let latch = Latch::new(active - 1);
        let f_ref: &(dyn Fn(&Ctx) + Sync) = &f;
        // SAFETY: see `JobMsg` — we block on `latch` before returning,
        // so the erased borrow cannot dangle.
        let f_static: *const (dyn Fn(&Ctx) + Sync) =
            unsafe { std::mem::transmute::<_, &'static (dyn Fn(&Ctx) + Sync)>(f_ref) };
        if self.inner.n > 1 {
            let mut slot = self.inner.slot.lock();
            slot.generation += 1;
            slot.msg = Some(JobMsg {
                f: f_static,
                region: Arc::clone(&region),
                latch: Arc::clone(&latch),
                active,
            });
            drop(slot);
            self.inner.slot_cv.notify_all();
        }
        // The caller is thread 0. Its body is caught exactly like a
        // worker's so a thread-0 panic also poisons (rather than
        // unwinding past) the region — we still must wait on the
        // latch, or the erased closure pointer would dangle.
        IN_REGION.with(|c| c.set(true));
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            // The guard's Drop emits the span end even when the body
            // unwinds, keeping begin/end pairs balanced.
            let _span = self
                .inner
                .trace
                .span(self.inner.pid, SpanKind::Region { member: 0 });
            let ctx = Ctx {
                team: &self.inner,
                region: &region,
                tid: 0,
                n_threads: active,
                construct_counter: AtomicUsize::new(0),
            };
            f(&ctx);
        }));
        IN_REGION.with(|c| c.set(false));
        if let Err(payload) = unwound {
            note_region_panic(&region, 0, payload);
        }
        latch.wait();
        match region.take_panic() {
            Some((member, payload)) => Err(TeamError::MemberPanicked { member, payload }),
            None if region.was_cancelled() => Err(TeamError::Cancelled),
            None => Ok(()),
        }
    }

    /// Convenience: `parallel` + `pfor` in one call (the
    /// `parallel for` combined construct).
    pub fn for_each<F: Fn(usize) + Sync>(&self, range: Range<usize>, schedule: Schedule, body: F) {
        self.parallel(|ctx| {
            ctx.pfor(range.clone(), schedule, &body);
        });
    }

    /// Convenience: combined `parallel for reduction`.
    pub fn par_reduce<T, R, M>(&self, range: Range<usize>, schedule: Schedule, red: &R, map: M) -> T
    where
        T: Send + Clone + 'static,
        R: Reduction<T> + Sync,
        M: Fn(usize) -> T + Sync,
    {
        let result: Mutex<Option<T>> = Mutex::new(None);
        self.parallel(|ctx| {
            let local = ctx.pfor_reduce(range.clone(), schedule, red, &map);
            if ctx.thread_num() == 0 {
                *result.lock() = Some(local);
            }
        });
        result.into_inner().expect("thread 0 stored the reduction")
    }

    /// Convenience: parallel sum (the most common reduction).
    pub fn par_sum<M>(&self, range: Range<usize>, schedule: Schedule, map: M) -> u64
    where
        M: Fn(usize) -> u64 + Sync,
    {
        self.par_reduce(range, schedule, &crate::reduction::SumRed, map)
    }
}

impl Drop for TeamInner {
    fn drop(&mut self) {
        {
            let mut slot = self.slot.lock();
            slot.stop = true;
        }
        self.slot_cv.notify_all();
        for j in std::mem::take(&mut *self.joiners.lock()) {
            let _ = j.join();
        }
    }
}

fn worker_loop(inner: &Arc<TeamInner>, tid: usize) {
    let mut last_gen = 0u64;
    loop {
        let msg = {
            let mut slot = inner.slot.lock();
            loop {
                if slot.stop {
                    return;
                }
                if slot.generation != last_gen {
                    last_gen = slot.generation;
                    break slot.msg.clone().expect("message published");
                }
                inner.slot_cv.wait(&mut slot);
            }
        };
        if tid >= msg.active {
            // Sitting this region out (num_threads clause).
            continue;
        }
        IN_REGION.with(|c| c.set(true));
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _span = inner
                .trace
                .span(inner.pid, SpanKind::Region { member: tid as u32 });
            let ctx = Ctx {
                team: inner,
                region: &msg.region,
                tid,
                n_threads: msg.active,
                construct_counter: AtomicUsize::new(0),
            };
            // SAFETY: pointer valid until we count the latch down.
            let f = unsafe { &*msg.f };
            f(&ctx);
        }));
        IN_REGION.with(|c| c.set(false));
        if let Err(payload) = unwound {
            // A member panic must not kill the team thread: record it
            // (poisoning the region so siblings unblock) and keep the
            // worker alive for future regions. The latch is counted
            // down on every path so the launcher never deadlocks.
            note_region_panic(&msg.region, tid, payload);
        }
        msg.latch.count_down();
    }
}

/// Per-thread view of an executing parallel region; the receiver for
/// every OpenMP-style construct.
pub struct Ctx<'r> {
    team: &'r TeamInner,
    region: &'r Arc<RegionState>,
    tid: usize,
    n_threads: usize,
    construct_counter: AtomicUsize,
}

impl<'r> Ctx<'r> {
    /// This thread's index within the team (`omp_get_thread_num`).
    #[must_use]
    pub fn thread_num(&self) -> usize {
        self.tid
    }

    /// Team size for this region (`omp_get_num_threads`).
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.n_threads
    }

    /// In a cancellable region (see
    /// [`Team::try_parallel_cancellable`]): has cancellation been
    /// requested? Bodies can poll this to skip remaining work between
    /// barriers; always `false` in a plain region.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.region.was_cancelled()
            || self
                .region
                .cancel_token()
                .is_some_and(parc_supervise::CancelToken::is_cancelled)
    }

    fn next_construct(&self) -> usize {
        // Per-thread counter (each thread has its own `Ctx`), atomic
        // only so that `Ctx` is `Sync` and can be referenced from
        // worksharing bodies.
        self.construct_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Record one dealt chunk of a worksharing construct.
    fn mark_chunk(&self, construct: usize, chunk: &Range<usize>, schedule: SchedTag) {
        self.team.trace.mark(
            self.team.pid,
            MarkKind::ChunkDispatch {
                construct: construct as u32,
                lo: chunk.start as u64,
                len: chunk.len() as u64,
                schedule,
            },
        );
    }

    /// Block until every team thread reaches this barrier.
    ///
    /// If a sibling's region body panics, the barrier is poisoned and
    /// this call *unwinds* (instead of blocking forever on a member
    /// that will never arrive); the unwind is absorbed by the team's
    /// per-member wrapper and surfaces as
    /// [`TeamError::MemberPanicked`] from [`Team::try_parallel`].
    pub fn barrier(&self) {
        let trace = &self.team.trace;
        // Cancellation checkpoint: in a cancellable region, a flipped
        // token is observed here — the first observer poisons the
        // barrier so the whole team unblocks and abandons the region.
        if self.region.check_cancelled() {
            if trace.enabled() {
                trace.mark(
                    self.team.pid,
                    MarkKind::BarrierPoison {
                        member: self.tid as u32,
                    },
                );
            }
            poison_unwind();
        }
        if !trace.enabled() {
            if self.region.barrier.try_wait().is_err() {
                poison_unwind();
            }
            return;
        }
        let member = self.tid as u32;
        let start = std::time::Instant::now();
        let arrived = {
            let _span = trace.span(self.team.pid, SpanKind::BarrierWait { member });
            self.region.barrier.try_wait()
        };
        let waited = start.elapsed();
        if arrived.is_err() {
            trace.mark(self.team.pid, MarkKind::BarrierPoison { member });
            poison_unwind();
        }
        trace.mark(
            self.team.pid,
            MarkKind::BarrierRelease {
                member,
                waited_ns: u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX),
            },
        );
        if let Some(hist) = &self.team.barrier_hist {
            hist.lock().record(waited.as_secs_f64() * 1e3);
        }
    }

    /// Run `f` only on thread 0. No implied barrier (OpenMP `master`).
    pub fn master(&self, f: impl FnOnce()) {
        if self.tid == 0 {
            f();
        }
    }

    /// Run `f` on exactly one (the first-arriving) thread, then
    /// barrier (OpenMP `single`).
    pub fn single(&self, f: impl FnOnce()) {
        self.single_nowait(f);
        self.barrier();
    }

    /// `single` without the trailing barrier (`single nowait`).
    pub fn single_nowait(&self, f: impl FnOnce()) {
        let id = self.next_construct();
        if self.region.claim_single(id) {
            f();
        }
    }

    /// Named critical section (OpenMP `critical(name)`). Sections with
    /// the same name are mutually exclusive *across regions* on the
    /// same team. Not reentrant.
    pub fn critical<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let lock = {
            let mut map = self.team.criticals.lock();
            Arc::clone(
                map.entry(name.to_string())
                    .or_insert_with(|| Arc::new(Mutex::new(()))),
            )
        };
        let _guard = lock.lock();
        f()
    }

    /// Worksharing loop with an implicit trailing barrier (OpenMP
    /// `for`). Every iteration in `range` is executed exactly once by
    /// some team thread, per `schedule`.
    pub fn pfor(&self, range: Range<usize>, schedule: Schedule, body: impl Fn(usize) + Sync) {
        self.pfor_nowait(range, schedule, body);
        self.barrier();
    }

    /// Worksharing loop without the trailing barrier (`for nowait`).
    pub fn pfor_nowait(
        &self,
        range: Range<usize>,
        schedule: Schedule,
        body: impl Fn(usize) + Sync,
    ) {
        let id = self.next_construct();
        let shared = if schedule.needs_shared_counter() {
            Some(self.region.construct(id, LoopShared::default))
        } else {
            None
        };
        let mut stream = ChunkStream::new(
            schedule,
            self.tid,
            self.n_threads,
            &range,
            shared.as_deref(),
        );
        while let Some(chunk) = stream.next_chunk() {
            self.mark_chunk(id, &chunk, sched_tag(schedule));
            for i in chunk {
                body(i);
            }
        }
    }

    /// Worksharing loop with reduction (OpenMP `for reduction(op)`).
    /// Every thread receives the combined value. `T: Clone` because
    /// the combined result is distributed to the whole team, matching
    /// the shared reduction variable after an OpenMP region.
    pub fn pfor_reduce<T, R, M>(
        &self,
        range: Range<usize>,
        schedule: Schedule,
        red: &R,
        map: M,
    ) -> T
    where
        T: Send + Clone + 'static,
        R: Reduction<T>,
        M: Fn(usize) -> T,
    {
        let id = self.next_construct();
        let shared = if schedule.needs_shared_counter() {
            Some(self.region.construct(id, LoopShared::default))
        } else {
            None
        };
        // Slot table for partials + the combined result.
        let slots = self.region.construct(self.next_construct(), || {
            ReduceSlots::<T>::new(self.n_threads)
        });
        let mut acc = red.identity();
        let mut stream = ChunkStream::new(
            schedule,
            self.tid,
            self.n_threads,
            &range,
            shared.as_deref(),
        );
        while let Some(chunk) = stream.next_chunk() {
            self.mark_chunk(id, &chunk, sched_tag(schedule));
            for i in chunk {
                acc = red.fold(acc, map(i));
            }
        }
        *slots.partials[self.tid].lock() = Some(acc);
        self.barrier();
        if self.tid == 0 {
            let mut combined = red.identity();
            for slot in &slots.partials {
                // A panicked member never stores its partial; skipping
                // it keeps the combine well-defined (the region still
                // reports the failure via barrier poisoning — this
                // combine only runs when all members arrived, but stays
                // defensive so a poisoned region can never turn a
                // missing partial into a second panic).
                if let Some(part) = slot.lock().take() {
                    combined = red.combine(combined, part);
                }
            }
            *slots.combined.lock() = Some(combined);
        }
        self.barrier();
        let out = slots
            .combined
            .lock()
            .clone()
            .expect("thread 0 combined the partials");
        // Final barrier so the slots cannot be torn down while a
        // straggler still reads `combined`.
        self.barrier();
        out
    }

    /// Worksharing loop with an **ordered** region (OpenMP
    /// `for ordered`): `body` receives the iteration index and an
    /// [`OrderedGate`]; whatever it runs through
    /// [`OrderedGate::run`] executes in strict iteration order across
    /// the team, while the rest of the body runs in parallel.
    ///
    /// As in OpenMP, each iteration must pass through the gate exactly
    /// once (skipping an iteration would stall its successors), and
    /// schedules must assign each thread's iterations in increasing
    /// order — all schedules in this crate do.
    pub fn pfor_ordered(
        &self,
        range: Range<usize>,
        schedule: Schedule,
        body: impl Fn(usize, &OrderedGate) + Sync,
    ) {
        let id = self.next_construct();
        let shared = if schedule.needs_shared_counter() {
            Some(self.region.construct(id, LoopShared::default))
        } else {
            None
        };
        let gate_state = self
            .region
            .construct(self.next_construct(), || OrderedState {
                next: AtomicUsize::new(range.start),
            });
        let gate = OrderedGate {
            state: gate_state,
            region: Arc::clone(self.region),
        };
        let mut stream = ChunkStream::new(
            schedule,
            self.tid,
            self.n_threads,
            &range,
            shared.as_deref(),
        );
        while let Some(chunk) = stream.next_chunk() {
            self.mark_chunk(id, &chunk, sched_tag(schedule));
            for i in chunk {
                body(i, &gate);
            }
        }
        self.barrier();
    }

    /// Execute each closure in `sections` exactly once, distributed
    /// on demand across the team, then barrier (OpenMP `sections`).
    pub fn sections(&self, sections: &[&(dyn Fn() + Sync)]) {
        let id = self.next_construct();
        let shared = self.region.construct(id, LoopShared::default);
        loop {
            let k = shared.take_index();
            if k >= sections.len() {
                break;
            }
            self.mark_chunk(id, &(k..k + 1), SchedTag::Sections);
            sections[k]();
        }
        self.barrier();
    }
}

struct OrderedState {
    next: AtomicUsize,
}

/// Sequencing gate for [`Ctx::pfor_ordered`].
pub struct OrderedGate {
    state: Arc<OrderedState>,
    region: Arc<RegionState>,
}

impl OrderedGate {
    /// Run `f` for iteration `i`, after every earlier iteration's
    /// ordered region has completed and before any later one starts.
    ///
    /// If a sibling panics while holding an earlier turn, its turn
    /// never completes; the spin loop observes the poisoned region and
    /// unwinds instead of spinning forever.
    pub fn run<T>(&self, i: usize, f: impl FnOnce() -> T) -> T {
        while self.state.next.load(Ordering::Acquire) != i {
            if self.region.is_poisoned() {
                poison_unwind();
            }
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        let out = f();
        self.state.next.store(i + 1, Ordering::Release);
        out
    }
}

struct ReduceSlots<T> {
    partials: Vec<Mutex<Option<T>>>,
    combined: Mutex<Option<T>>,
}

impl<T> ReduceSlots<T> {
    fn new(n: usize) -> Self {
        Self {
            partials: (0..n).map(|_| Mutex::new(None)).collect(),
            combined: Mutex::new(None),
        }
    }
}
