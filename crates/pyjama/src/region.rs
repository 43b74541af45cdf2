//! Per-region shared state.
//!
//! Each `parallel` region gets a fresh `RegionState` holding the
//! region barrier and an anonymous *construct table*. Worksharing
//! constructs (`pfor`, `single`, `sections`, reductions) encountered
//! inside the region are numbered in program order — every team thread
//! executes the same region body, so thread-local construct counters
//! stay in lockstep, exactly the assumption OpenMP makes — and the
//! first thread to reach construct `k` materialises its shared state
//! in the table.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parc_supervise::CancelToken;
use parking_lot::Mutex;

use crate::barrier::Barrier;

/// Shared state for one execution of a parallel region.
pub(crate) struct RegionState {
    pub(crate) barrier: Barrier,
    constructs: Mutex<HashMap<usize, Arc<dyn Any + Send + Sync>>>,
    /// `single` construct ids already claimed by a thread.
    singles_claimed: Mutex<HashMap<usize, ()>>,
    /// First team member whose region body panicked: `(tid, payload)`.
    /// Recording a panic also poisons the region barrier so siblings
    /// unblock instead of waiting forever for the dead member.
    panic_info: Mutex<Option<(usize, String)>>,
    /// Cancellation token observed by this region's barriers, when the
    /// region was launched through `try_parallel_cancellable`.
    cancel: Option<CancelToken>,
    /// Set once a member has observed the token at a barrier (and
    /// poisoned the barrier so the whole team abandons the region).
    cancelled: AtomicBool,
}

impl RegionState {
    pub(crate) fn new(n_threads: usize) -> Arc<Self> {
        Self::with_cancel(n_threads, None)
    }

    pub(crate) fn with_cancel(n_threads: usize, cancel: Option<CancelToken>) -> Arc<Self> {
        Arc::new(Self {
            barrier: Barrier::new(n_threads),
            constructs: Mutex::new(HashMap::new()),
            singles_claimed: Mutex::new(HashMap::new()),
            panic_info: Mutex::new(None),
            cancel,
            cancelled: AtomicBool::new(false),
        })
    }

    /// The region's cancellation token, if it runs cancellably.
    pub(crate) fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Observe the token (barrier entry points call this): when
    /// cancellation has been requested, record it and poison the
    /// barrier so every member unblocks and abandons the region.
    /// Returns true when the region is (now) cancelled.
    pub(crate) fn check_cancelled(&self) -> bool {
        if self.cancelled.load(Ordering::Acquire) {
            return true;
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.cancelled.store(true, Ordering::Release);
            self.barrier.poison();
            return true;
        }
        false
    }

    /// Did a member observe cancellation during this region?
    pub(crate) fn was_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Record that team member `member` panicked with `payload` and
    /// poison the region barrier. Only the first panic is kept (it is
    /// the root cause; later ones are usually cascade failures).
    pub(crate) fn record_panic(&self, member: usize, payload: String) {
        {
            let mut info = self.panic_info.lock();
            if info.is_none() {
                *info = Some((member, payload));
            }
        }
        self.barrier.poison();
    }

    /// Take the recorded panic, if any (called once, by the region
    /// launcher, after all members have finished).
    pub(crate) fn take_panic(&self) -> Option<(usize, String)> {
        self.panic_info.lock().take()
    }

    /// Whether a member panic has poisoned this region.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.barrier.is_poisoned()
    }

    /// Get or create the shared state for construct `id`.
    pub(crate) fn construct<T: Any + Send + Sync>(
        &self,
        id: usize,
        init: impl FnOnce() -> T,
    ) -> Arc<T> {
        let mut table = self.constructs.lock();
        let entry = table
            .entry(id)
            .or_insert_with(|| Arc::new(init()) as Arc<dyn Any + Send + Sync>);
        Arc::clone(entry)
            .downcast::<T>()
            .expect("construct id reused with a different state type")
    }

    /// True when the calling thread is the first to claim `single`
    /// construct `id`.
    pub(crate) fn claim_single(&self, id: usize) -> bool {
        self.singles_claimed.lock().insert(id, ()).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn construct_state_shared_between_callers() {
        let region = RegionState::new(2);
        let a = region.construct(0, || AtomicUsize::new(7));
        let b = region.construct(0, || AtomicUsize::new(999));
        // Second caller gets the first caller's instance.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.load(std::sync::atomic::Ordering::Relaxed), 7);
    }

    #[test]
    fn distinct_constructs_have_distinct_state() {
        let region = RegionState::new(2);
        let a = region.construct(0, || AtomicUsize::new(1));
        let b = region.construct(1, || AtomicUsize::new(2));
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn single_claim_granted_once() {
        let region = RegionState::new(4);
        assert!(region.claim_single(3));
        assert!(!region.claim_single(3));
        assert!(region.claim_single(4));
    }

    #[test]
    fn first_panic_wins_and_poisons_barrier() {
        let region = RegionState::new(2);
        assert!(!region.is_poisoned());
        region.record_panic(1, "boom".to_string());
        region.record_panic(0, "cascade".to_string());
        assert!(region.is_poisoned());
        assert_eq!(region.take_panic(), Some((1, "boom".to_string())));
        assert_eq!(region.take_panic(), None);
    }

    #[test]
    #[should_panic(expected = "construct id reused")]
    fn construct_type_mismatch_panics() {
        let region = RegionState::new(1);
        let _ = region.construct(0, || AtomicUsize::new(0));
        let _ = region.construct(0, || Mutex::new(0u8));
    }
}
