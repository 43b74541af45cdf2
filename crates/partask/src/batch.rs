//! Batch spawn: many homogeneous tasks, one completion structure.
//!
//! [`crate::TaskRuntime::spawn_batch`] runs `f(0..n)` across the pool
//! with *none* of the per-task machinery of [`crate::TaskHandle`]: no
//! per-task `Core` (mutex + condvar), no per-task `Arc`, no per-task
//! boxed closure, and one shared-queue episode for the whole
//! submission instead of one lock per task. Each member job captures
//! only `(Arc<BatchCore>, Arc<F>, Weak<runtime>, index)` — 32 bytes,
//! stored inline in a `SmallJob` — and writes its result
//! into a preallocated slot.
//!
//! Results come back in index order regardless of execution order, so
//! `join` output is deterministic across pool sizes and schedules.

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::runtime::RtInner;
use crate::task::{CancelToken, TaskError, TaskId};

/// A member's result slot: written once by the member running that
/// index, read only after the batch countdown reaches zero.
type ResultSlot<T> = UnsafeCell<Option<Result<T, TaskError>>>;

/// Shared completion state of one batch: result slots, the countdown,
/// and the wait machinery. One allocation per *batch*.
pub(crate) struct BatchCore<T> {
    base_id: u64,
    /// One result slot per member; slot `i` is written exactly once,
    /// by the member job running index `i`.
    slots: Box<[ResultSlot<T>]>,
    /// Members that have not stored a result yet. The final `AcqRel`
    /// decrement is what publishes every slot write to a joiner that
    /// observes zero.
    remaining: AtomicUsize,
    /// Blocking-wait support; `true` once `remaining` hit zero.
    finished: Mutex<bool>,
    done_cv: Condvar,
    cancel: CancelToken,
}

// SAFETY: slot `i` is written by exactly one member job and read only
// after `remaining` reaches zero (Acquire), so no two threads touch a
// slot concurrently; `T: Send` carries the values across threads.
unsafe impl<T: Send> Send for BatchCore<T> {}
unsafe impl<T: Send> Sync for BatchCore<T> {}

impl<T: Send + 'static> BatchCore<T> {
    pub(crate) fn new(n: usize, base_id: u64, cancel: CancelToken) -> Arc<Self> {
        Arc::new(Self {
            base_id,
            slots: (0..n).map(|_| UnsafeCell::new(None)).collect(),
            remaining: AtomicUsize::new(n),
            finished: Mutex::new(n == 0),
            done_cv: Condvar::new(),
            cancel,
        })
    }

    pub(crate) fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    pub(crate) fn base_id(&self) -> u64 {
        self.base_id
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// True once every member has stored its result. An `Acquire`
    /// load: observing zero also makes every slot write visible.
    pub(crate) fn is_finished(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// Store member `index`'s result; called exactly once per index.
    pub(crate) fn store(&self, index: usize, result: Result<T, TaskError>) {
        // SAFETY: single writer per slot (the member job for `index`),
        // and readers wait for `remaining == 0`.
        unsafe { *self.slots[index].get() = Some(result) };
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut done = self.finished.lock();
            *done = true;
            drop(done);
            self.done_cv.notify_all();
        }
    }

    /// Block until finished, running help steps on `rt` while it is
    /// alive.
    pub(crate) fn wait(&self, rt: &Weak<RtInner>) {
        if self.is_finished() {
            return;
        }
        if let Some(rt) = rt.upgrade() {
            while !self.is_finished() {
                if !rt.help_once() {
                    let mut done = self.finished.lock();
                    if !*done {
                        let _ = self.done_cv.wait_for(&mut done, Duration::from_micros(200));
                    }
                }
            }
        } else {
            let mut done = self.finished.lock();
            while !*done {
                self.done_cv.wait(&mut done);
            }
        }
    }

    /// Move every result out, in index order. Caller must have
    /// observed [`BatchCore::is_finished`].
    pub(crate) fn take_results(&self) -> Vec<Result<T, TaskError>> {
        debug_assert!(self.is_finished());
        self.slots
            .iter()
            // SAFETY: all writers are done (remaining == 0 observed
            // with Acquire) and `take_results` is called at most once
            // (`BatchHandle::join` consumes the handle).
            .map(|slot| unsafe { (*slot.get()).take() }.unwrap_or(Err(TaskError::ResultTaken)))
            .collect()
    }
}

/// Owned future for a whole spawned batch; yields all results at once.
///
/// Created by [`crate::TaskRuntime::spawn_batch`]. Compared to holding
/// `n` [`crate::TaskHandle`]s, a batch handle has one completion
/// structure for the entire fan-out and its `join` returns results in
/// index order (deterministic across pool sizes).
pub struct BatchHandle<T> {
    pub(crate) core: Arc<BatchCore<T>>,
    /// The runtime a wait helps; dangling for a batch that ran inline.
    pub(crate) rt: Weak<RtInner>,
}

impl<T: Send + 'static> BatchHandle<T> {
    /// Number of member tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.core.len()
    }

    /// True for an empty batch (already complete at spawn).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.core.len() == 0
    }

    /// True once every member has completed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.core.is_finished()
    }

    /// The id of member `index` (batch members take a contiguous id
    /// block, so traces and inspect reports can attribute them).
    #[must_use]
    pub fn task_id(&self, index: usize) -> TaskId {
        assert!(index < self.core.len(), "batch member index out of range");
        TaskId(self.core.base_id() + index as u64)
    }

    /// Request cooperative cancellation of every member that has not
    /// started; members already running observe the shared token.
    pub fn cancel(&self) {
        self.core.cancel_token().cancel();
    }

    /// The batch's shared cancellation token (one token for all
    /// members — cancelling it cancels the whole batch).
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.core.cancel_token()
    }

    /// Block until every member completes, without taking results.
    /// The calling thread *helps* while it waits, on the same terms as
    /// [`crate::TaskHandle::join`]: a worker of the batch's runtime
    /// runs its own deque and the injector at any depth and steals
    /// only below [`crate::HELP_STEAL_CAP`] nested helped
    /// bodies; any other thread helps only at nesting depth 0.
    pub fn wait(&self) {
        self.core.wait(&self.rt);
    }

    /// Block until every member completes and return all results in
    /// index order. Helps while it waits, as [`BatchHandle::wait`].
    pub fn join(self) -> Vec<Result<T, TaskError>> {
        self.core.wait(&self.rt);
        self.core.take_results()
    }
}

impl<T> fmt::Debug for BatchHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchHandle")
            .field("base_id", &self.core.base_id)
            .field("len", &self.core.slots.len())
            .finish()
    }
}
