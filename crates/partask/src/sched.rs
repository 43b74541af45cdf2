//! The task schedulers: work-stealing (lock-free and locked) and
//! work-sharing.
//!
//! The PARC runtime exposed interchangeable scheduling policies and
//! one SoftEng 751 project compared "different ways to schedule the
//! workload"; experiment A1 reproduces that comparison. All policies
//! present the same interface to the runtime:
//!
//! * [`SchedulerKind::WorkStealing`] — per-worker lock-free Chase–Lev
//!   deques (LIFO for the owner, FIFO for thieves, CAS-based steal)
//!   plus a global injector queue for tasks submitted from outside the
//!   pool. This is the classic Cilk/rayon design: good locality,
//!   distributed contention, and no lock on the owner's hot path.
//! * [`SchedulerKind::WorkStealingLocked`] — the same policy on the
//!   previous `Mutex<VecDeque>` deque substrate, kept as the measured
//!   baseline for the E-SCHED ablation (`examples/sched_bench.rs`).
//!   The policy is one function over both substrates, which differ
//!   only in what the substrate does: the locked one steals one job at
//!   a time, takes one lock per injected job, and refills at most 16
//!   jobs from the injector (31 on the lock-free one).
//! * [`SchedulerKind::WorkSharing`] — one global FIFO protected by a
//!   mutex. Trivially fair, but every push and pop contends on a
//!   single lock; the A1 benchmark shows the overhead gap grow with
//!   task count.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::deque::{locked, Injector, Steal, Stealer, Worker};
use parc_trace::{Counter, LatencyHistogram, MarkKind, TraceHandle};
use parc_util::stripe::CachePadded;
use parking_lot::Mutex;

/// A unit of scheduled work (small-closure storage, see `job.rs`).
pub(crate) type Job = crate::job::SmallJob;

/// Which scheduling policy a [`crate::TaskRuntime`] uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Per-worker lock-free Chase–Lev deques with stealing (default).
    #[default]
    WorkStealing,
    /// The stealing policy on mutex-protected deques: the pre-overhaul
    /// substrate, selectable as the scheduler-bench baseline.
    WorkStealingLocked,
    /// Single shared FIFO queue.
    WorkSharing,
}

/// Bounds of the steal-wait histograms: 100 ns to 100 s in
/// milliseconds, 12 geometric buckets per decade (~21% relative
/// bucket width — fine enough for p99/p99.9 reporting).
fn new_latency_hist() -> LatencyHistogram {
    LatencyHistogram::new(1e-4, 1e5, 12)
}

/// Counters describing where jobs were found, shared with the metrics
/// registry when tracing is attached, plus the trace handle steal
/// marks are emitted through.
pub(crate) struct SchedCounters {
    /// Jobs popped from the owner's local deque.
    pub local_pops: Arc<Counter>,
    /// Jobs taken from the global injector / shared queue.
    pub global_pops: Arc<Counter>,
    /// Jobs stolen from another worker's deque (counted per *item*:
    /// a batch steal of n items adds n, and emits n steal marks, so
    /// `sched.steal` marks always equal this counter).
    pub steals: Arc<Counter>,
    /// Per-worker steal-latency histograms: elapsed time from a failed
    /// local pop to the successful steal episode that ended the
    /// search, in milliseconds (one sample per episode, not per stolen
    /// item). Slot `i` belongs to worker `i`; the last slot serves
    /// threads outside the pool. Merged on demand by
    /// [`SchedCounters::merged_steal_wait`] — the hot path never takes
    /// a shared lock (the old single `Mutex<LatencyHistogram>`
    /// serialized every thief it was measuring). Each slot is padded to
    /// a line of its own, and its mutex is uncontended: only its worker
    /// writes it, and other threads touch it only to merge.
    pub steal_wait_ms: Box<[CachePadded<Mutex<LatencyHistogram>>]>,
    /// Where scheduling events are recorded (disabled by default).
    pub trace: TraceHandle,
    /// The runtime's trace track.
    pub pid: u32,
}

impl Default for SchedCounters {
    fn default() -> Self {
        Self::for_workers(1)
    }
}

impl SchedCounters {
    /// Counters with one steal-wait histogram slot per worker (plus
    /// the shared slot).
    pub(crate) fn for_workers(workers: usize) -> Self {
        Self {
            local_pops: Arc::default(),
            global_pops: Arc::default(),
            steals: Arc::default(),
            // One slot per worker plus the shared slot.
            steal_wait_ms: (0..=workers)
                .map(|_| CachePadded::new(Mutex::new(new_latency_hist())))
                .collect(),
            trace: TraceHandle::default(),
            pid: 0,
        }
    }

    /// The histogram slot for `thief` (`None` = not a pool worker).
    fn slot(&self, thief: Option<usize>) -> usize {
        let shared = self.steal_wait_ms.len() - 1;
        match thief {
            Some(i) if i < shared => i,
            _ => shared,
        }
    }

    /// Book-keeping for one successful steal episode claiming `items`
    /// jobs: count every item, record the search latency once, and
    /// emit one trace mark per item (keeping `sched.steal` marks equal
    /// to the `steals` counter).
    fn record_steal(&self, thief: Option<usize>, victim: usize, items: u64, search_start: Instant) {
        self.steals.add(items);
        self.steal_wait_ms[self.slot(thief)]
            .lock()
            .record(search_start.elapsed().as_secs_f64() * 1e3);
        for _ in 0..items {
            self.trace.mark(
                self.pid,
                MarkKind::Steal {
                    victim: victim as u32,
                },
            );
        }
    }

    /// All per-thread steal-wait histograms merged into one (snapshot;
    /// exact totals once the runtime is quiescent).
    pub(crate) fn merged_steal_wait(&self) -> LatencyHistogram {
        let mut merged = new_latency_hist();
        for slot in self.steal_wait_ms.iter() {
            merged.merge(&slot.lock());
        }
        merged
    }
}

/// The shared (thread-safe) half of a scheduler.
pub(crate) enum SharedSched {
    Stealing {
        injector: Injector<Job>,
        stealers: Vec<Stealer<Job>>,
    },
    StealingLocked {
        injector: locked::Injector<Job>,
        stealers: Vec<locked::Stealer<Job>>,
    },
    Sharing {
        queue: Mutex<VecDeque<Job>>,
    },
}

/// The per-worker (thread-local) half of a scheduler.
pub(crate) enum LocalQueue {
    Stealing(Worker<Job>),
    StealingLocked(locked::Worker<Job>),
    Sharing,
}

impl SharedSched {
    /// Build the shared scheduler plus one local queue per worker.
    pub(crate) fn new(kind: SchedulerKind, workers: usize) -> (Self, Vec<LocalQueue>) {
        match kind {
            SchedulerKind::WorkStealing => {
                let locals: Vec<Worker<Job>> = (0..workers).map(|_| Worker::new_lifo()).collect();
                let stealers = locals.iter().map(Worker::stealer).collect();
                (
                    SharedSched::Stealing {
                        injector: Injector::new(),
                        stealers,
                    },
                    locals.into_iter().map(LocalQueue::Stealing).collect(),
                )
            }
            SchedulerKind::WorkStealingLocked => {
                let locals: Vec<locked::Worker<Job>> =
                    (0..workers).map(|_| locked::Worker::new_lifo()).collect();
                let stealers = locals.iter().map(locked::Worker::stealer).collect();
                (
                    SharedSched::StealingLocked {
                        injector: locked::Injector::new(),
                        stealers,
                    },
                    locals.into_iter().map(LocalQueue::StealingLocked).collect(),
                )
            }
            SchedulerKind::WorkSharing => (
                SharedSched::Sharing {
                    queue: Mutex::new(VecDeque::new()),
                },
                (0..workers).map(|_| LocalQueue::Sharing).collect(),
            ),
        }
    }

    /// Submit a job from outside the worker pool.
    pub(crate) fn push_external(&self, job: Job) {
        match self {
            SharedSched::Stealing { injector, .. } => injector.push(job),
            SharedSched::StealingLocked { injector, .. } => injector.push(job),
            SharedSched::Sharing { queue } => queue.lock().push_back(job),
        }
    }

    /// Submit a whole batch in one shared-queue episode: a single lock
    /// acquisition regardless of batch size (except on the locked
    /// baseline, which deliberately keeps its historical one-lock-per-
    /// task behaviour for the ablation).
    pub(crate) fn push_external_batch(&self, jobs: Vec<Job>) {
        match self {
            SharedSched::Stealing { injector, .. } => injector.push_batch(jobs),
            SharedSched::StealingLocked { injector, .. } => {
                for job in jobs {
                    injector.push(job);
                }
            }
            SharedSched::Sharing { queue } => queue.lock().extend(jobs),
        }
    }

    /// Submit a job from worker `local` (its own deque when stealing).
    pub(crate) fn push_local(&self, local: &LocalQueue, job: Job) {
        match (self, local) {
            (SharedSched::Stealing { .. }, LocalQueue::Stealing(w)) => w.push(job),
            (SharedSched::StealingLocked { .. }, LocalQueue::StealingLocked(w)) => w.push(job),
            (SharedSched::Sharing { queue }, LocalQueue::Sharing) => {
                queue.lock().push_back(job);
            }
            _ => unreachable!("scheduler kind mismatch"),
        }
    }

    /// Find a job for worker `index` owning `local`: its own deque's
    /// newest job, else a refill from the injector, else (only when
    /// `steal` is set) the oldest jobs of another worker's deque. The
    /// work-sharing queue has no owner, so `steal` does not apply to it.
    pub(crate) fn pop_for(
        &self,
        local: &LocalQueue,
        index: usize,
        counters: &SchedCounters,
        steal: bool,
    ) -> Option<Job> {
        let thief = Some(index);
        match (self, local) {
            (SharedSched::Stealing { injector, stealers }, LocalQueue::Stealing(w)) => find_job(
                w.pop(),
                || injector.steal_batch_and_pop(w),
                stealers,
                // Batch steal: one walk of the victim's ring claims a
                // run of jobs (a CAS per job — the victim may be
                // popping the other end); the surplus lands in our own
                // deque for subsequent local pops.
                |stealer| stealer.steal_batch_and_pop_with_count(w),
                thief,
                steal,
                counters,
            ),
            (SharedSched::StealingLocked { injector, stealers }, LocalQueue::StealingLocked(w)) => {
                find_job(
                    w.pop(),
                    || injector.steal_batch_and_pop(w),
                    stealers,
                    |stealer| one_item(stealer.steal()),
                    thief,
                    steal,
                    counters,
                )
            }
            (SharedSched::Sharing { .. }, LocalQueue::Sharing) => self.pop_shared(counters),
            _ => unreachable!("scheduler kind mismatch"),
        }
    }

    /// Take the oldest job from the injector, else from the top of any
    /// worker's deque, as a thief would. Safe to call from *any* thread;
    /// the help step of a thread that is not one of the pool's workers.
    pub(crate) fn pop_shared(&self, counters: &SchedCounters) -> Option<Job> {
        match self {
            SharedSched::Stealing { injector, stealers } => find_job(
                None,
                || injector.steal(),
                stealers,
                |stealer| one_item(stealer.steal()),
                None,
                true,
                counters,
            ),
            SharedSched::StealingLocked { injector, stealers } => find_job(
                None,
                || injector.steal(),
                stealers,
                |stealer| one_item(stealer.steal()),
                None,
                true,
                counters,
            ),
            SharedSched::Sharing { queue } => {
                let job = queue.lock().pop_front();
                if job.is_some() {
                    counters.global_pops.inc();
                }
                job
            }
        }
    }
}

/// The work-stealing policy, written once for both deque substrates
/// and for helpers outside the pool. `own` is the searching worker's
/// pop of its own deque (`None` without one). On a miss the search
/// starts: `refill` drains the injector, then — only when steals are
/// allowed — `claim` takes jobs from each other worker's deque in
/// index order. `thief` is the searching worker (`None` outside the
/// pool): it is never its own victim, and it picks the steal-latency
/// slot. A claim reports how many jobs it took; all of them count as
/// steals.
fn find_job<S>(
    own: Option<Job>,
    mut refill: impl FnMut() -> Steal<Job>,
    stealers: &[S],
    mut claim: impl FnMut(&S) -> Steal<(Job, usize)>,
    thief: Option<usize>,
    steal: bool,
    counters: &SchedCounters,
) -> Option<Job> {
    if let Some(job) = own {
        counters.local_pops.inc();
        return Some(job);
    }
    // The own deque missed: a successful *steal* records how long the
    // search took from here.
    let search_start = Instant::now();
    loop {
        match refill() {
            Steal::Success(job) => {
                counters.global_pops.inc();
                return Some(job);
            }
            Steal::Empty => break,
            Steal::Retry => {}
        }
    }
    if !steal {
        return None;
    }
    for (victim, stealer) in stealers.iter().enumerate() {
        if thief == Some(victim) {
            continue;
        }
        loop {
            match claim(stealer) {
                Steal::Success((job, items)) => {
                    counters.record_steal(thief, victim, items as u64, search_start);
                    return Some(job);
                }
                Steal::Empty => break,
                Steal::Retry => {}
            }
        }
    }
    None
}

/// A single-item steal as a one-job claim.
fn one_item(steal: Steal<Job>) -> Steal<(Job, usize)> {
    match steal {
        Steal::Success(job) => Steal::Success((job, 1)),
        Steal::Empty => Steal::Empty,
        Steal::Retry => Steal::Retry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn job(f: impl FnOnce() + Send + 'static) -> Job {
        Job::new(move |_| f())
    }

    fn run_all(shared: &SharedSched, local: &LocalQueue, counters: &SchedCounters) -> usize {
        let mut n = 0;
        while let Some(job) = shared.pop_for(local, 0, counters, true) {
            job.run(None);
            n += 1;
        }
        n
    }

    #[test]
    fn stealing_local_lifo_order() {
        let (shared, mut locals) = SharedSched::new(SchedulerKind::WorkStealing, 1);
        let local = locals.remove(0);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let log = Arc::clone(&log);
            shared.push_local(&local, job(move || log.lock().push(i)));
        }
        let counters = SchedCounters::default();
        assert_eq!(run_all(&shared, &local, &counters), 3);
        // Owner pops LIFO.
        assert_eq!(*log.lock(), vec![2, 1, 0]);
        assert_eq!(counters.local_pops.get(), 3);
    }

    #[test]
    fn sharing_fifo_order() {
        let (shared, mut locals) = SharedSched::new(SchedulerKind::WorkSharing, 1);
        let local = locals.remove(0);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let log = Arc::clone(&log);
            shared.push_external(job(move || log.lock().push(i)));
        }
        let counters = SchedCounters::default();
        assert_eq!(run_all(&shared, &local, &counters), 3);
        assert_eq!(*log.lock(), vec![0, 1, 2]);
    }

    #[test]
    fn stealing_worker_takes_from_injector() {
        let (shared, mut locals) = SharedSched::new(SchedulerKind::WorkStealing, 1);
        let local = locals.remove(0);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&count);
            shared.push_external(job(move || {
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        let counters = SchedCounters::default();
        assert_eq!(run_all(&shared, &local, &counters), 10);
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn thief_steals_from_victim_deque() {
        let (shared, locals) = SharedSched::new(SchedulerKind::WorkStealing, 2);
        let count = Arc::new(AtomicUsize::new(0));
        // Worker 0 queues work locally; worker 1 must steal it.
        for _ in 0..5 {
            let c = Arc::clone(&count);
            shared.push_local(
                &locals[0],
                job(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        let counters = SchedCounters::for_workers(2);
        let mut stolen = 0;
        while let Some(job) = shared.pop_for(&locals[1], 1, &counters, true) {
            job.run(None);
            stolen += 1;
        }
        assert_eq!(stolen, 5);
        // The steals counter counts *items*: every job left worker 0's
        // deque via a steal (worker 0 never popped), whether it arrived
        // one at a time or inside a claimed batch. Batch surplus that
        // the thief later pops from its own deque shows up in
        // local_pops *in addition* to steals.
        assert_eq!(counters.steals.get(), 5);
        assert!(counters.local_pops.get() <= counters.steals.get());
        assert_eq!(count.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn locked_baseline_same_policy() {
        let (shared, locals) = SharedSched::new(SchedulerKind::WorkStealingLocked, 2);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            let c = Arc::clone(&count);
            shared.push_local(
                &locals[0],
                job(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        let counters = SchedCounters::for_workers(2);
        let mut stolen = 0;
        while let Some(job) = shared.pop_for(&locals[1], 1, &counters, true) {
            job.run(None);
            stolen += 1;
        }
        assert_eq!(stolen, 5);
        assert_eq!(counters.steals.get(), 5);
        // Single-item steals: nothing is banked in the thief's deque.
        assert_eq!(counters.local_pops.get(), 0);
        assert_eq!(count.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn pop_without_steal_takes_own_then_injector_never_another_worker() {
        for kind in [
            SchedulerKind::WorkStealing,
            SchedulerKind::WorkStealingLocked,
        ] {
            let (shared, locals) = SharedSched::new(kind, 2);
            let log = Arc::new(Mutex::new(Vec::new()));
            let logged = |i: u32| {
                let log = Arc::clone(&log);
                job(move || log.lock().push(i))
            };
            for i in 0..3 {
                shared.push_local(&locals[0], logged(i));
                shared.push_local(&locals[1], logged(100 + i));
            }
            for i in 10..13 {
                shared.push_external(logged(i));
            }
            let counters = SchedCounters::for_workers(2);
            while let Some(job) = shared.pop_for(&locals[0], 0, &counters, false) {
                job.run(None);
            }
            assert_eq!(*log.lock(), vec![2, 1, 0, 10, 11, 12], "{kind:?}");
            assert_eq!(counters.steals.get(), 0, "{kind:?}");
            // Worker 1's jobs are still all there, newest first.
            log.lock().clear();
            while let Some(job) = shared.pop_for(&locals[1], 1, &counters, false) {
                job.run(None);
            }
            assert_eq!(*log.lock(), vec![102, 101, 100], "{kind:?}");
        }
    }

    #[test]
    fn pop_shared_sees_injector_and_deques() {
        let (shared, locals) = SharedSched::new(SchedulerKind::WorkStealing, 1);
        shared.push_external(job(|| {}));
        shared.push_local(&locals[0], job(|| {}));
        let counters = SchedCounters::default();
        assert!(shared.pop_shared(&counters).is_some());
        assert!(shared.pop_shared(&counters).is_some());
        assert!(shared.pop_shared(&counters).is_none());
    }

    #[test]
    fn batch_submit_is_one_episode_and_fifo() {
        let (shared, mut locals) = SharedSched::new(SchedulerKind::WorkStealing, 1);
        let local = locals.remove(0);
        let log = Arc::new(Mutex::new(Vec::new()));
        let jobs: Vec<Job> = (0..8)
            .map(|i| {
                let log = Arc::clone(&log);
                job(move || log.lock().push(i))
            })
            .collect();
        shared.push_external_batch(jobs);
        let counters = SchedCounters::default();
        assert_eq!(run_all(&shared, &local, &counters), 8);
        // Injector batches preserve FIFO across the refill boundary.
        assert_eq!(*log.lock(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn steal_wait_merges_per_worker_slots() {
        let counters = SchedCounters::for_workers(2);
        let t0 = Instant::now();
        counters.record_steal(Some(0), 1, 1, t0);
        counters.record_steal(Some(1), 0, 1, t0);
        counters.record_steal(None, 0, 1, t0); // helper thread slot
        assert_eq!(counters.steal_wait_ms[0].lock().total(), 1);
        assert_eq!(counters.steal_wait_ms[1].lock().total(), 1);
        assert_eq!(counters.steal_wait_ms[2].lock().total(), 1);
        assert_eq!(counters.merged_steal_wait().total(), 3);
        assert_eq!(counters.steals.get(), 3);
    }
}
