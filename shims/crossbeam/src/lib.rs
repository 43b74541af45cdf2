//! Vendored shim for the subset of `crossbeam` this workspace uses.
//!
//! The build container has no network and an empty registry, so the
//! real crate cannot be fetched. Three modules are provided with the
//! same API shape and the same correctness semantics:
//!
//! * [`deque`] — `Worker`/`Stealer`/`Injector` work-stealing deques.
//!   The worker deque is a real lock-free Chase–Lev deque (atomic
//!   `top`/`bottom`, CAS-based steal); the previous mutex-based
//!   substrate survives as [`deque::locked`], kept selectable by the
//!   scheduler as the measured baseline for the E-SCHED ablation.
//! * [`queue`] — `SegQueue`, an unbounded MPMC queue. Unlike upstream's
//!   it is **not** lock-free: it is this crate's one mutex FIFO.
//! * [`epoch`] — pointer-based protected reclamation for the Treiber
//!   stack: guards count active pins and retired garbage is freed only
//!   when no guard is live (a coarse but sound epoch scheme). Note the
//!   deque does *not* use it — pinning takes a global lock, so the
//!   deque parks retired ring buffers until drop instead.
//!
//! One `Mutex<VecDeque>` backs every queue that is not the Chase–Lev
//! ring: `deque::Injector`, `deque::locked::{Worker, Stealer,
//! Injector}` and `queue::SegQueue` all wrap the crate-private `Fifo`,
//! and each of their operations is one critical section over it.

pub mod deque;

mod fifo {
    use std::collections::VecDeque;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// The crate's one mutex-protected FIFO.
    pub(crate) struct Fifo<T> {
        items: Mutex<VecDeque<T>>,
    }

    impl<T> Default for Fifo<T> {
        fn default() -> Self {
            Self {
                items: Mutex::new(VecDeque::new()),
            }
        }
    }

    impl<T> Fifo<T> {
        /// Take the lock. Every update leaves the `VecDeque` valid at
        /// each step, so a poisoned lock still guards a sound queue.
        pub(crate) fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
            self.items.lock().unwrap_or_else(PoisonError::into_inner)
        }

        pub(crate) fn push(&self, item: T) {
            self.lock().push_back(item);
        }

        pub(crate) fn pop(&self) -> Option<T> {
            self.lock().pop_front()
        }

        pub(crate) fn len(&self) -> usize {
            self.lock().len()
        }

        /// Under one lock: take the oldest item, plus half of what is
        /// left (at most `cap` more), oldest first.
        pub(crate) fn pop_with_batch(&self, cap: usize) -> Option<(T, Vec<T>)> {
            let mut items = self.lock();
            let first = items.pop_front()?;
            let extra = (items.len() / 2).min(cap);
            Some((first, items.drain(..extra).collect()))
        }
    }
}

pub mod queue {
    //! Unbounded MPMC queue with the `SegQueue` API.

    use crate::fifo::Fifo;

    /// An unbounded FIFO queue safe for any number of producers and
    /// consumers. A mutex FIFO, not upstream's lock-free segmented
    /// queue: every operation takes one lock.
    pub struct SegQueue<T> {
        fifo: Fifo<T>,
    }

    impl<T> Default for SegQueue<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> SegQueue<T> {
        /// A new empty queue.
        #[must_use]
        pub fn new() -> Self {
            Self {
                fifo: Fifo::default(),
            }
        }

        /// Enqueue at the back.
        pub fn push(&self, item: T) {
            self.fifo.push(item);
        }

        /// Dequeue from the front.
        pub fn pop(&self) -> Option<T> {
            self.fifo.pop()
        }

        /// Number of queued items.
        #[must_use]
        pub fn len(&self) -> usize {
            self.fifo.len()
        }

        /// True when no items are queued.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }
}

pub mod epoch {
    //! Protected reclamation for lock-free structures.
    //!
    //! A coarse, provably sound variant of epoch-based reclamation:
    //! a global collector counts live [`Guard`]s; `defer_destroy`
    //! retires garbage into the collector; garbage is reclaimed only
    //! when the live-guard count reaches zero. Between pin and unpin,
    //! all shared-pointer operations are plain atomics — the data
    //! structure itself stays non-blocking; only pin/unpin touch the
    //! collector lock.

    use std::marker::PhantomData;
    use std::sync::atomic::{AtomicPtr, Ordering};
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// A deferred destructor: the address of a retired allocation plus
    /// a monomorphised drop thunk. Storing `(usize, fn)` instead of a
    /// boxed closure keeps `defer_destroy` free of `'static`/`Send`
    /// bounds, matching real crossbeam's signature (safety is the
    /// caller's contract, as upstream).
    type Deferred = (usize, unsafe fn(usize));

    #[derive(Default)]
    struct Collector {
        active_guards: usize,
        garbage: Vec<Deferred>,
    }

    fn collector() -> &'static Mutex<Collector> {
        static COLLECTOR: OnceLock<Mutex<Collector>> = OnceLock::new();
        COLLECTOR.get_or_init(|| Mutex::new(Collector::default()))
    }

    /// Pin the current thread: while the returned [`Guard`] lives, no
    /// retired garbage is reclaimed, so loaded [`Shared`] pointers stay
    /// valid.
    #[must_use]
    pub fn pin() -> Guard {
        collector()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .active_guards += 1;
        Guard { pinned: true }
    }

    /// A guard usable when the caller has exclusive access to the data
    /// structure (e.g. in `Drop`); deferred destruction runs
    /// immediately.
    ///
    /// # Safety
    /// The caller must guarantee no other thread accesses the
    /// structure concurrently.
    #[must_use]
    pub unsafe fn unprotected() -> &'static Guard {
        static UNPROTECTED: Guard = Guard { pinned: false };
        &UNPROTECTED
    }

    /// An RAII pin on the global collector.
    pub struct Guard {
        pinned: bool,
    }

    impl Guard {
        /// Retire `shared` for destruction once no guards are live.
        ///
        /// # Safety
        /// The pointer must have been unlinked from the data structure
        /// so no *new* references can be created, and must not be
        /// retired twice.
        pub unsafe fn defer_destroy<T>(&self, shared: Shared<'_, T>) {
            unsafe fn drop_thunk<T>(addr: usize) {
                // SAFETY: per `defer_destroy`'s contract, the address
                // came from `Owned::new` (a `Box`) and has been
                // unlinked; the collector runs this only when no guard
                // is live.
                drop(unsafe { Box::from_raw(addr as *mut T) });
            }
            let ptr = shared.ptr as *mut T;
            if ptr.is_null() {
                return;
            }
            let destroy: Deferred = (ptr as usize, drop_thunk::<T>);
            if self.pinned {
                collector()
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .garbage
                    .push(destroy);
            } else {
                let (addr, thunk) = destroy;
                // SAFETY: unprotected use — caller guarantees exclusive
                // access, so immediate destruction is sound.
                unsafe { thunk(addr) };
            }
        }
    }

    impl Drop for Guard {
        fn drop(&mut self) {
            if !self.pinned {
                return;
            }
            let garbage = {
                let mut c = collector().lock().unwrap_or_else(PoisonError::into_inner);
                c.active_guards -= 1;
                if c.active_guards == 0 {
                    std::mem::take(&mut c.garbage)
                } else {
                    Vec::new()
                }
            };
            // Run destructors outside the collector lock.
            for (addr, thunk) in garbage {
                // SAFETY: retired per `defer_destroy`'s contract and no
                // guard was live when this batch was taken.
                unsafe { thunk(addr) };
            }
        }
    }

    /// Conversion into a raw pointer, for [`Atomic`] operations that
    /// accept either [`Owned`] or [`Shared`] values.
    pub trait Pointer<T> {
        /// Surrender ownership (if any) and yield the raw pointer.
        fn into_ptr(self) -> *mut T;
        /// Rebuild from a raw pointer previously produced by
        /// [`Pointer::into_ptr`].
        ///
        /// # Safety
        /// `ptr` must come from `into_ptr` of the same impl.
        unsafe fn from_ptr(ptr: *mut T) -> Self;
    }

    /// An owned, heap-allocated value not yet published.
    pub struct Owned<T> {
        ptr: *mut T,
    }

    impl<T> Owned<T> {
        /// Allocate a new owned value.
        pub fn new(value: T) -> Self {
            Self {
                ptr: Box::into_raw(Box::new(value)),
            }
        }
    }

    impl<T> std::ops::Deref for Owned<T> {
        type Target = T;
        fn deref(&self) -> &T {
            // SAFETY: `ptr` is a live Box allocation owned by self.
            unsafe { &*self.ptr }
        }
    }

    impl<T> std::ops::DerefMut for Owned<T> {
        fn deref_mut(&mut self) -> &mut T {
            // SAFETY: exclusive ownership.
            unsafe { &mut *self.ptr }
        }
    }

    impl<T> Drop for Owned<T> {
        fn drop(&mut self) {
            if !self.ptr.is_null() {
                // SAFETY: still owned (never published).
                drop(unsafe { Box::from_raw(self.ptr) });
            }
        }
    }

    impl<T> Pointer<T> for Owned<T> {
        fn into_ptr(self) -> *mut T {
            let ptr = self.ptr;
            std::mem::forget(self);
            ptr
        }
        unsafe fn from_ptr(ptr: *mut T) -> Self {
            Self { ptr }
        }
    }

    /// A shared pointer loaded from an [`Atomic`], valid for the
    /// lifetime of the guard it was loaded under.
    pub struct Shared<'g, T> {
        ptr: *const T,
        _guard: PhantomData<&'g Guard>,
    }

    impl<T> Clone for Shared<'_, T> {
        fn clone(&self) -> Self {
            *self
        }
    }

    impl<T> Copy for Shared<'_, T> {}

    impl<'g, T> Shared<'g, T> {
        /// The null shared pointer.
        #[must_use]
        pub fn null() -> Self {
            Self {
                ptr: std::ptr::null(),
                _guard: PhantomData,
            }
        }

        /// Is this the null pointer?
        #[must_use]
        pub fn is_null(&self) -> bool {
            self.ptr.is_null()
        }

        /// The raw pointer value.
        #[must_use]
        pub fn as_raw(&self) -> *const T {
            self.ptr
        }

        /// Dereference, if non-null.
        ///
        /// # Safety
        /// The pointee must not have been reclaimed; guaranteed while
        /// the guard this was loaded under is live.
        #[must_use]
        pub unsafe fn as_ref(&self) -> Option<&'g T> {
            self.ptr.as_ref()
        }

        /// Reclaim ownership of the pointee.
        ///
        /// # Safety
        /// Caller must have exclusive access to the pointee.
        #[must_use]
        pub unsafe fn into_owned(self) -> Owned<T> {
            Owned {
                ptr: self.ptr as *mut T,
            }
        }
    }

    impl<T> Pointer<T> for Shared<'_, T> {
        fn into_ptr(self) -> *mut T {
            self.ptr as *mut T
        }
        unsafe fn from_ptr(ptr: *mut T) -> Self {
            Self {
                ptr,
                _guard: PhantomData,
            }
        }
    }

    /// A failed compare-exchange: the current value and the rejected
    /// new value, returned so the caller can retry without
    /// reallocating.
    pub struct CompareExchangeError<'g, T, P: Pointer<T>> {
        /// The value found in the atomic.
        pub current: Shared<'g, T>,
        /// The value that failed to install.
        pub new: P,
    }

    /// An atomic nullable pointer to a heap value, operated on under
    /// guards.
    pub struct Atomic<T> {
        ptr: AtomicPtr<T>,
    }

    impl<T> Atomic<T> {
        /// The null atomic pointer.
        #[must_use]
        pub fn null() -> Self {
            Self {
                ptr: AtomicPtr::new(std::ptr::null_mut()),
            }
        }

        /// Allocate `value` and point at it.
        pub fn new(value: T) -> Self {
            Self {
                ptr: AtomicPtr::new(Box::into_raw(Box::new(value))),
            }
        }

        /// Load the current pointer under `_guard`.
        pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
            Shared {
                ptr: self.ptr.load(ord),
                _guard: PhantomData,
            }
        }

        /// Store a pointer (owned or shared).
        pub fn store<P: Pointer<T>>(&self, new: P, ord: Ordering) {
            self.ptr.store(new.into_ptr(), ord);
        }

        /// Compare-exchange: install `new` if the current value is
        /// `current`, returning the failing value and `new` otherwise.
        pub fn compare_exchange<'g, P: Pointer<T>>(
            &self,
            current: Shared<'_, T>,
            new: P,
            success: Ordering,
            failure: Ordering,
            _guard: &'g Guard,
        ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, P>> {
            let new_ptr = new.into_ptr();
            match self
                .ptr
                .compare_exchange(current.ptr as *mut T, new_ptr, success, failure)
            {
                Ok(prev) => Ok(Shared {
                    ptr: prev,
                    _guard: PhantomData,
                }),
                Err(found) => Err(CompareExchangeError {
                    current: Shared {
                        ptr: found,
                        _guard: PhantomData,
                    },
                    // SAFETY: `new_ptr` came from `new.into_ptr()`
                    // above and was not installed.
                    new: unsafe { P::from_ptr(new_ptr) },
                }),
            }
        }
    }

    // SAFETY: the pointee is only accessed under guard discipline; T
    // crossing threads requires the usual bounds at use sites.
    unsafe impl<T: Send + Sync> Send for Atomic<T> {}
    unsafe impl<T: Send + Sync> Sync for Atomic<T> {}
}

#[cfg(test)]
mod tests {
    use super::epoch::{self, Atomic, Owned};
    use super::queue::SegQueue;
    use std::sync::atomic::Ordering;

    #[test]
    fn segqueue_fifo() {
        let q = SegQueue::new();
        q.push("a");
        q.push("b");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn epoch_defer_runs_after_unpin() {
        struct Probe(std::sync::Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let atomic = Atomic::new(Probe(std::sync::Arc::clone(&drops)));
        {
            let guard = epoch::pin();
            let shared = atomic.load(Ordering::Acquire, &guard);
            atomic.store(crate::epoch::Shared::null(), Ordering::Release);
            // SAFETY: unlinked above, retired once.
            unsafe { guard.defer_destroy(shared) };
            assert_eq!(drops.load(Ordering::SeqCst), 0, "still pinned");
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1, "freed after unpin");
    }

    #[test]
    fn epoch_cas_loop_owned_recovery() {
        let atomic: Atomic<u32> = Atomic::null();
        let guard = epoch::pin();
        let head = atomic.load(Ordering::Acquire, &guard);
        let node = Owned::new(5u32);
        assert!(atomic
            .compare_exchange(head, node, Ordering::Release, Ordering::Relaxed, &guard)
            .is_ok());
        let now = atomic.load(Ordering::Acquire, &guard);
        // SAFETY: just installed, still pinned.
        assert_eq!(unsafe { now.as_ref() }, Some(&5));
        // Clean up: take it back out.
        atomic.store(crate::epoch::Shared::null(), Ordering::Release);
        // SAFETY: unlinked, exclusive in this test.
        drop(unsafe { now.into_owned() });
    }
}
