//! Work-stealing deques: owner pops LIFO, thieves steal FIFO.
//!
//! Two substrates live here behind the same API shape:
//!
//! * The default [`Worker`]/[`Stealer`] pair is a real **Chase–Lev
//!   deque** (Chase & Lev, SPAA 2005, with the C11 orderings of Lê,
//!   Pop, Cohen & Zappa Nardelli, PPoPP 2013): a growable power-of-two
//!   ring buffer indexed by an atomic `top`/`bottom` pair. The owner's
//!   `push`/`pop` touch only its own end and are lock-free; thieves
//!   claim elements with a CAS on `top`. `steal_batch_and_pop` claims
//!   a run of elements one CAS at a time (re-validating `bottom`
//!   between claims), amortising the *cache traffic* of stealing —
//!   one victim-ring walk, one destination publish — for fine-grained
//!   tasks. The claims themselves cannot be batched into one CAS: the
//!   owner's `pop` removes bottom-end elements *without* a CAS
//!   whenever it sees more than one element, so a multi-element claim
//!   could win elements the owner already popped (double delivery).
//! * [`locked`] preserves the previous `Mutex<VecDeque>` substrate.
//!   The scheduler keeps it selectable (`WorkStealingLocked`) as the
//!   measured baseline for the E-SCHED ablation: identical policy
//!   (one implementation in `partask::sched`), different queue
//!   substrate.
//!
//! # Memory ordering (why each fence is where it is)
//!
//! * `push` writes the slot, then publishes with `bottom.store(b+1,
//!   Release)`. A thief that observes the new `bottom` via an
//!   `Acquire` load therefore also observes the slot write.
//! * `pop` *reserves* the bottom element by storing `bottom - 1`, then
//!   issues a `SeqCst` fence before reading `top`. The fence pairs
//!   with the `SeqCst` CAS in `steal`: either the thief sees the
//!   reservation (and backs off the last element) or the owner sees
//!   the advanced `top` (and backs off itself, racing the CAS only on
//!   the final element).
//! * `steal` reads `top` (`Acquire`), fences `SeqCst`, reads `bottom`
//!   (`Acquire`), copies the candidate element, then claims it with a
//!   `SeqCst` CAS on `top`. The copy happens *before* the claim; on a
//!   lost race the copy is discarded without being dropped, so
//!   ownership is transferred exactly once. `top` is monotonically
//!   increasing, which is what makes the claim ABA-free even when the
//!   ring index (`top & mask`) wraps — a stale thief's CAS must fail
//!   because the *unwrapped* counter moved on. The explorer litmus
//!   family `chase-lev/*` (crates/explore) model-checks exactly these
//!   properties.
//!
//! Buffer growth: only the owner replaces the ring (on a full `push`),
//! publishing the new buffer with a `Release` store. Concurrent
//! thieves may still hold the previous buffer pointer, so retired
//! buffers are parked (a mutex touched only on growth — never on the
//! hot path) and freed when the deque drops. Total parked memory is
//! bounded by twice the final buffer size.

use std::marker::PhantomData;
use std::mem::{self, MaybeUninit};
use std::ptr;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::fifo::Fifo;

/// Result of a steal attempt.
pub enum Steal<T> {
    /// Nothing to steal.
    Empty,
    /// A stolen item.
    Success(T),
    /// Lost a race; try again.
    Retry,
}

/// Initial ring capacity (power of two).
const MIN_CAP: usize = 64;
/// Upper bound on elements moved by one batch steal.
const MAX_BATCH: usize = 32;

/// A heap ring of `cap` (power-of-two) slots. Slots in `[top,
/// bottom)` are initialised; everything else is spare capacity. The
/// struct itself is plain data — all synchronisation lives in
/// [`Inner`]'s atomics.
struct Buffer<T> {
    ptr: *mut MaybeUninit<T>,
    cap: usize,
}

impl<T> Buffer<T> {
    fn alloc(cap: usize) -> *mut Buffer<T> {
        debug_assert!(cap.is_power_of_two());
        let mut slots = Vec::<MaybeUninit<T>>::with_capacity(cap);
        let ptr = slots.as_mut_ptr();
        mem::forget(slots);
        Box::into_raw(Box::new(Buffer { ptr, cap }))
    }

    /// Free a buffer previously returned by [`Buffer::alloc`]. Does
    /// not drop any slot contents.
    ///
    /// # Safety
    /// `buf` must come from `alloc` and not be freed twice.
    unsafe fn free(buf: *mut Buffer<T>) {
        let b = Box::from_raw(buf);
        drop(Vec::from_raw_parts(b.ptr, 0, b.cap));
    }

    /// Pointer to the slot for ring index `index`.
    unsafe fn slot(&self, index: isize) -> *mut MaybeUninit<T> {
        self.ptr.offset(index & (self.cap as isize - 1))
    }

    /// Bitwise-copy the element at `index` out of the ring.
    unsafe fn read(&self, index: isize) -> T {
        ptr::read(self.slot(index)).assume_init()
    }

    /// Write `value` into the slot for `index`.
    unsafe fn write(&self, index: isize, value: T) {
        ptr::write(self.slot(index), MaybeUninit::new(value));
    }
}

struct Inner<T> {
    /// Thieves' end; monotonically increasing (never decremented).
    top: AtomicIsize,
    /// Owner's end.
    bottom: AtomicIsize,
    /// Current ring; replaced (owner-only) on growth.
    buffer: AtomicPtr<Buffer<T>>,
    /// Rings replaced by growth, parked until drop because a thief may
    /// still hold a pointer into them. Locked only on growth and drop.
    retired: Mutex<Vec<*mut Buffer<T>>>,
}

// SAFETY: elements are transferred across threads by value; the
// top/bottom protocol guarantees each element is read by exactly one
// side. `T: Send` is exactly the bound that transfer needs.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Exclusive access: drop the live range, then free all rings.
        let top = *self.top.get_mut();
        let bottom = *self.bottom.get_mut();
        let buf = *self.buffer.get_mut();
        unsafe {
            let mut i = top;
            while i < bottom {
                ptr::drop_in_place((*buf).slot(i).cast::<T>());
                i += 1;
            }
            Buffer::free(buf);
        }
        let retired = mem::take(&mut *self.retired.lock().unwrap_or_else(PoisonError::into_inner));
        for old in retired {
            // SAFETY: parked by `grow`, freed exactly once here.
            unsafe { Buffer::free(old) };
        }
    }
}

/// The owner's handle: push and pop at the back (LIFO). One owner at
/// a time — the type is `Send` but not `Sync`, matching upstream
/// crossbeam's single-owner contract.
pub struct Worker<T> {
    inner: Arc<Inner<T>>,
    /// Owner ops are not thread-safe against each other: keep the
    /// handle out of `&`-shared cross-thread use.
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

// SAFETY: moving the owner handle to another thread is fine (the
// algorithm never assumes a particular owner thread, only *one*
// owner); `Cell<()>` in the marker suppresses `Sync` only.
unsafe impl<T: Send> Send for Worker<T> {}

impl<T> Default for Worker<T> {
    fn default() -> Self {
        Self::new_lifo()
    }
}

impl<T> Worker<T> {
    /// A new LIFO worker deque.
    #[must_use]
    pub fn new_lifo() -> Self {
        Self {
            inner: Arc::new(Inner {
                top: AtomicIsize::new(0),
                bottom: AtomicIsize::new(0),
                buffer: AtomicPtr::new(Buffer::alloc(MIN_CAP)),
                retired: Mutex::new(Vec::new()),
            }),
            _not_sync: PhantomData,
        }
    }

    /// A thief's handle onto this deque.
    #[must_use]
    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Replace the ring with one of at least `need` capacity, copying
    /// the live range `[top, bottom)` and parking the old ring.
    /// Owner-only.
    fn grow(&self, top: isize, bottom: isize, need: usize) {
        let old_ptr = self.inner.buffer.load(Ordering::Relaxed);
        // SAFETY: the owner is the only thread that replaces the
        // buffer, so the pointer is the live ring.
        let old = unsafe { &*old_ptr };
        let mut cap = old.cap;
        while cap < need {
            cap *= 2;
        }
        let new_ptr = Buffer::alloc(cap);
        // SAFETY: slots [top, bottom) are initialised in the old ring
        // and their destinations in the fresh ring are spare capacity.
        unsafe {
            let new = &*new_ptr;
            let mut i = top;
            while i < bottom {
                ptr::copy_nonoverlapping(old.slot(i), new.slot(i), 1);
                i += 1;
            }
        }
        self.inner.buffer.store(new_ptr, Ordering::Release);
        self.inner
            .retired
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(old_ptr);
    }

    /// Push onto the owner's end. Lock-free; grows the ring when full.
    pub fn push(&self, item: T) {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Acquire);
        let mut buf = self.inner.buffer.load(Ordering::Relaxed);
        // SAFETY: owner-only load of the live ring.
        if b.wrapping_sub(t) >= unsafe { (*buf).cap } as isize {
            self.grow(t, b, (b.wrapping_sub(t) as usize) + 1);
            buf = self.inner.buffer.load(Ordering::Relaxed);
        }
        // SAFETY: slot `b` is spare capacity (b - top < cap); the
        // Release store below publishes the write to thieves.
        unsafe { (*buf).write(b, item) };
        self.inner
            .bottom
            .store(b.wrapping_add(1), Ordering::Release);
    }

    /// Pop from the owner's end (most recently pushed first).
    pub fn pop(&self) -> Option<T> {
        let b = self.inner.bottom.load(Ordering::Relaxed).wrapping_sub(1);
        let buf = self.inner.buffer.load(Ordering::Relaxed);
        // Reserve the bottom element before inspecting `top`; the
        // SeqCst fence orders this store against the thieves' CAS.
        self.inner.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = self.inner.top.load(Ordering::Relaxed);
        if t <= b {
            if t == b {
                // Single element left: race thieves for it on `top`.
                let won = self
                    .inner
                    .top
                    .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.inner
                    .bottom
                    .store(b.wrapping_add(1), Ordering::Relaxed);
                if won {
                    // SAFETY: the CAS claimed index `b` exclusively.
                    Some(unsafe { (*buf).read(b) })
                } else {
                    None
                }
            } else {
                // More than one element: the reservation alone is
                // enough, no thief can reach index `b`.
                // SAFETY: `b` is inside the live range and reserved.
                Some(unsafe { (*buf).read(b) })
            }
        } else {
            // Empty: restore `bottom`.
            self.inner
                .bottom
                .store(b.wrapping_add(1), Ordering::Relaxed);
            None
        }
    }

    /// Number of items currently visible (owner's view).
    #[must_use]
    pub fn len(&self) -> usize {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Acquire);
        usize::try_from(b.wrapping_sub(t)).unwrap_or(0)
    }

    /// True when no items are visible.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A thief's handle: steals from the front (FIFO).
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Stealer<T> {
    /// Steal the oldest item. Lock-free: one CAS on `top`.
    pub fn steal(&self) -> Steal<T> {
        let t = self.inner.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.inner.bottom.load(Ordering::Acquire);
        if b.wrapping_sub(t) <= 0 {
            return Steal::Empty;
        }
        let buf = self.inner.buffer.load(Ordering::Acquire);
        // Speculative copy: claimed (and thereby owned) only if the
        // CAS below wins; discarded without dropping otherwise.
        // SAFETY: with `top == t` still true at the CAS, slot `t` was
        // not reclaimed or overwritten between this read and the
        // claim (`top` is monotone, overwrite requires `top > t`).
        let item = unsafe { (*buf).read(t) };
        match self.inner.top.compare_exchange(
            t,
            t.wrapping_add(1),
            Ordering::SeqCst,
            Ordering::Relaxed,
        ) {
            Ok(_) => Steal::Success(item),
            Err(_) => {
                // Lost the race: the copy is not ours to drop.
                mem::forget(item);
                Steal::Retry
            }
        }
    }

    /// Steal a run of elements: move up to half of the visible items
    /// (capped) into `dest` and return the oldest immediately. `dest`
    /// must belong to the calling thread.
    pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
        match self.steal_batch_and_pop_with_count(dest) {
            Steal::Success((item, _)) => Steal::Success(item),
            Steal::Empty => Steal::Empty,
            Steal::Retry => Steal::Retry,
        }
    }

    /// [`Stealer::steal_batch_and_pop`], also reporting how many items
    /// were claimed (the returned one plus those moved into
    /// `dest`). Not part of upstream crossbeam's API — the scheduler
    /// uses the count to keep its per-item steal accounting exact.
    pub fn steal_batch_and_pop_with_count(&self, dest: &Worker<T>) -> Steal<(T, usize)> {
        if Arc::ptr_eq(&self.inner, &dest.inner) {
            // Stealing into the same deque would just rotate it.
            return match self.steal() {
                Steal::Success(item) => Steal::Success((item, 1)),
                Steal::Empty => Steal::Empty,
                Steal::Retry => Steal::Retry,
            };
        }
        let mut t = self.inner.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.inner.bottom.load(Ordering::Acquire);
        let len = b.wrapping_sub(t);
        if len <= 0 {
            return Steal::Empty;
        }
        // Upper bound only: the owner may pop the tail out from under
        // us, so every element is re-validated and claimed
        // individually below.
        let n = ((len + 1) / 2).min(MAX_BATCH as isize);
        let buf = self.inner.buffer.load(Ordering::Acquire);

        // Make room in `dest` up front (owner-side op: the caller owns
        // `dest`), so its ring never grows while unpublished slots are
        // in flight — growth copies only the published range.
        let db = dest.inner.bottom.load(Ordering::Relaxed);
        let dt = dest.inner.top.load(Ordering::Acquire);
        let mut dbuf = dest.inner.buffer.load(Ordering::Relaxed);
        let dest_used = db.wrapping_sub(dt);
        // SAFETY: owner-only load of dest's live ring.
        if dest_used + n - 1 > unsafe { (*dbuf).cap } as isize {
            dest.grow(dt, db, (dest_used + n - 1) as usize);
            dbuf = dest.inner.buffer.load(Ordering::Relaxed);
        }

        // Claim elements ONE CAS AT A TIME (as upstream
        // crossbeam-deque does for the LIFO flavor). A single CAS over
        // the whole range would be unsound: `pop` removes bottom-end
        // elements without touching `top` whenever it sees more than
        // one element, so a multi-element claim can win elements the
        // owner already popped — double delivery. Claimed one by one,
        // each claim is exactly the `steal` protocol, whose
        // exclusivity against `pop` the explorer proves
        // (`chase-lev/batch-steal-vs-pop`; the single-CAS algorithm is
        // kept there as the broken twin that double-delivers).
        //
        // SAFETY: as in `steal`, each successful CAS at value `t`
        // proves the slot for unwrapped index `t` was neither
        // reclaimed nor overwritten while we copied it (`top` is
        // monotone; an overwrite of that slot requires `top > t`); a
        // failed CAS abandons the copy as raw bytes — never dropped,
        // never published.
        let first = unsafe { (*buf).read(t) };
        if self
            .inner
            .top
            .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            mem::forget(first);
            return Steal::Retry;
        }
        t = t.wrapping_add(1);
        let mut moved: isize = 0;
        while 1 + moved < n {
            // Re-validate the owner's end before each further claim:
            // the fence/Acquire pair is `steal`'s preamble, so either
            // this thief sees the owner's `bottom` reservation (and
            // stops) or its claim is ordered before the reservation
            // (and the element is exclusively ours).
            fence(Ordering::SeqCst);
            let b = self.inner.bottom.load(Ordering::Acquire);
            if b.wrapping_sub(t) <= 0 {
                break;
            }
            let item = unsafe { (*buf).read(t) };
            if self
                .inner
                .top
                .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                mem::forget(item);
                break;
            }
            // Ours now: bank it in dest's ring, unpublished until the
            // whole batch is done.
            unsafe { (*dbuf).write(db.wrapping_add(moved), item) };
            moved += 1;
            t = t.wrapping_add(1);
        }
        if moved > 0 {
            dest.inner
                .bottom
                .store(db.wrapping_add(moved), Ordering::Release);
        }
        #[allow(clippy::cast_sign_loss)]
        Steal::Success((first, (1 + moved) as usize))
    }

    /// Number of items currently visible. A racy snapshot: exact only
    /// in quiescence (see `TaskRuntime::queued_hint` for the exact
    /// in-flight accounting).
    #[must_use]
    pub fn len(&self) -> usize {
        let t = self.inner.top.load(Ordering::Acquire);
        let b = self.inner.bottom.load(Ordering::Acquire);
        usize::try_from(b.wrapping_sub(t)).unwrap_or(0)
    }

    /// True when no items are visible.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Global FIFO injector for work submitted from outside the pool.
///
/// The injector is *not* lock-free: it is the crate's mutex FIFO with
/// a batch-oriented API, so the scheduler takes one lock per
/// *episode* (a [`Injector::push_batch`] of spawned jobs, a
/// [`Injector::steal_batch_and_pop`] refill) rather than one lock per
/// task. Workers refill from it only when their own deque runs dry.
pub struct Injector<T> {
    fifo: Fifo<T>,
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Injector<T> {
    /// A new empty injector.
    #[must_use]
    pub fn new() -> Self {
        Self {
            fifo: Fifo::default(),
        }
    }

    /// Submit an item.
    pub fn push(&self, item: T) {
        self.fifo.push(item);
    }

    /// Submit a batch under a single lock acquisition (one injector
    /// episode regardless of batch size).
    pub fn push_batch(&self, batch: impl IntoIterator<Item = T>) {
        self.fifo.lock().extend(batch);
    }

    /// Steal the oldest item.
    pub fn steal(&self) -> Steal<T> {
        steal_of(self.fifo.pop())
    }

    /// Move a batch into `dest` and return one item immediately.
    /// Takes the oldest item plus half of the rest, at most
    /// `MAX_BATCH - 1` more, amortising injector contention; the batch
    /// is pushed after the lock is released.
    pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
        let Some((first, batch)) = self.fifo.pop_with_batch(MAX_BATCH - 1) else {
            return Steal::Empty;
        };
        // Preserve FIFO order for the batch: the worker pops LIFO, so
        // push the batch in reverse.
        for item in batch.into_iter().rev() {
            dest.push(item);
        }
        Steal::Success(first)
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

/// A mutex FIFO's pop as a steal: it never loses a race.
fn steal_of<T>(item: Option<T>) -> Steal<T> {
    item.map_or(Steal::Empty, Steal::Success)
}

pub mod locked {
    //! The previous `Mutex<VecDeque>` deque substrate, preserved as
    //! the measured baseline for the scheduler ablation (E-SCHED).
    //! Same API shape and correctness semantics as the lock-free
    //! deque above; every operation takes the deque's mutex (the
    //! crate's one mutex FIFO). Thieves steal one item at a time, and
    //! an injector refill moves at most 16 items after the first.

    use std::sync::Arc;

    use super::steal_of;
    use crate::fifo::Fifo;

    pub use super::Steal;

    /// Items an injector refill moves into the worker's deque beyond
    /// the one it returns.
    const REFILL_CAP: usize = 16;

    /// The owner's handle: push and pop at the back (LIFO).
    pub struct Worker<T> {
        fifo: Arc<Fifo<T>>,
    }

    impl<T> Worker<T> {
        /// A new LIFO worker deque.
        #[must_use]
        pub fn new_lifo() -> Self {
            Self {
                fifo: Arc::default(),
            }
        }

        /// Push onto the owner's end.
        pub fn push(&self, item: T) {
            self.fifo.push(item);
        }

        /// Pop from the owner's end (most recently pushed first).
        pub fn pop(&self) -> Option<T> {
            self.fifo.lock().pop_back()
        }

        /// A thief's handle onto this deque.
        #[must_use]
        pub fn stealer(&self) -> Stealer<T> {
            Stealer {
                fifo: Arc::clone(&self.fifo),
            }
        }
    }

    /// A thief's handle: steals from the front (FIFO).
    pub struct Stealer<T> {
        fifo: Arc<Fifo<T>>,
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Self {
                fifo: Arc::clone(&self.fifo),
            }
        }
    }

    impl<T> Stealer<T> {
        /// Steal the oldest item.
        pub fn steal(&self) -> Steal<T> {
            steal_of(self.fifo.pop())
        }

        /// Number of items currently visible.
        #[must_use]
        pub fn len(&self) -> usize {
            self.fifo.len()
        }

        /// True when no items are visible.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// Global FIFO injector protected by one mutex (the baseline's
    /// per-task lock).
    pub struct Injector<T> {
        fifo: Fifo<T>,
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> Injector<T> {
        /// A new empty injector.
        #[must_use]
        pub fn new() -> Self {
            Self {
                fifo: Fifo::default(),
            }
        }

        /// Submit an item.
        pub fn push(&self, item: T) {
            self.fifo.push(item);
        }

        /// Steal the oldest item.
        pub fn steal(&self) -> Steal<T> {
            steal_of(self.fifo.pop())
        }

        /// Move a batch into `dest` and return one item immediately.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            let Some((first, batch)) = self.fifo.pop_with_batch(REFILL_CAP) else {
                return Steal::Empty;
            };
            if !batch.is_empty() {
                // Preserve FIFO order for the LIFO owner, under one
                // lock of its deque.
                dest.fifo.lock().extend(batch.into_iter().rev());
            }
            Steal::Success(first)
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as AOrd};
    use std::thread;

    #[test]
    fn worker_lifo_stealer_fifo() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(w.pop(), Some(3));
        match s.steal() {
            Steal::Success(v) => assert_eq!(v, 1),
            _ => panic!("steal failed"),
        }
        assert_eq!(s.len(), 1);
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn growth_past_initial_capacity_preserves_order() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        let n = 10 * MIN_CAP;
        for i in 0..n {
            w.push(i);
        }
        assert_eq!(w.len(), n);
        // Thief drains FIFO: 0, 1, 2, ...
        for want in 0..n / 2 {
            loop {
                match s.steal() {
                    Steal::Success(v) => {
                        assert_eq!(v, want);
                        break;
                    }
                    Steal::Retry => {}
                    Steal::Empty => panic!("empty at {want}"),
                }
            }
        }
        // Owner drains LIFO: n-1, n-2, ...
        for want in (n / 2..n).rev() {
            assert_eq!(w.pop(), Some(want));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn batch_steal_moves_a_run_fifo() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        for i in 0..10 {
            w.push(i);
        }
        let thief = Worker::new_lifo();
        match s.steal_batch_and_pop(&thief) {
            Steal::Success(v) => assert_eq!(v, 0),
            _ => panic!("batch steal failed"),
        }
        // Half of 10 = 5 claimed: item 0 returned, 1..=4 in dest. The
        // dest owner pops LIFO, so the *newest* batched item is first.
        assert_eq!(thief.len(), 4);
        assert_eq!(thief.pop(), Some(4));
        assert_eq!(thief.pop(), Some(3));
        // Victim keeps 5..=9.
        assert_eq!(s.len(), 5);
        assert_eq!(w.pop(), Some(9));
    }

    #[test]
    fn batch_steal_into_same_deque_degrades_to_steal() {
        let w = Worker::new_lifo();
        w.push(7);
        let s = w.stealer();
        match s.steal_batch_and_pop(&w) {
            Steal::Success(v) => assert_eq!(v, 7),
            _ => panic!("self-steal failed"),
        }
        assert!(w.pop().is_none());
    }

    #[test]
    fn drop_nonempty_deque_drops_items_exactly_once() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, AOrd::SeqCst);
            }
        }
        DROPS.store(0, AOrd::SeqCst);
        {
            let w = Worker::new_lifo();
            for _ in 0..200 {
                w.push(Probe); // crosses one growth boundary
            }
            drop(w.pop()); // one dropped by hand
        }
        assert_eq!(DROPS.load(AOrd::SeqCst), 200);
    }

    #[test]
    fn concurrent_thieves_take_every_item_exactly_once() {
        const ITEMS: usize = 20_000;
        const THIEVES: usize = 4;
        let w = Worker::new_lifo();
        let sum = Arc::new(AtomicUsize::new(0));
        let taken = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..THIEVES {
            let s = w.stealer();
            let sum = Arc::clone(&sum);
            let taken = Arc::clone(&taken);
            handles.push(thread::spawn(move || {
                let local = Worker::new_lifo();
                loop {
                    match s.steal_batch_and_pop(&local) {
                        Steal::Success(v) => {
                            let mut got = v;
                            loop {
                                sum.fetch_add(got, AOrd::Relaxed);
                                taken.fetch_add(1, AOrd::Relaxed);
                                match local.pop() {
                                    Some(next) => got = next,
                                    None => break,
                                }
                            }
                        }
                        Steal::Retry => {}
                        Steal::Empty => {
                            if taken.load(AOrd::Acquire) >= ITEMS {
                                break;
                            }
                            thread::yield_now();
                        }
                    }
                }
            }));
        }
        // Owner interleaves pushes with occasional pops.
        let mut owner_sum = 0usize;
        let mut owner_taken = 0usize;
        for i in 1..=ITEMS {
            w.push(i);
            if i % 7 == 0 {
                if let Some(v) = w.pop() {
                    owner_sum += v;
                    owner_taken += 1;
                }
            }
        }
        // Owner stops taking; thieves drain the rest.
        sum.fetch_add(owner_sum, AOrd::Relaxed);
        taken.fetch_add(owner_taken, AOrd::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(taken.load(AOrd::SeqCst), ITEMS, "every item taken once");
        assert_eq!(
            sum.load(AOrd::SeqCst),
            ITEMS * (ITEMS + 1) / 2,
            "no duplicated or lost items"
        );
    }

    #[test]
    fn owner_pop_vs_thief_on_last_element() {
        // Many rounds of the 1-element race; exactly one side wins it.
        for round in 0..2_000 {
            let w = Worker::new_lifo();
            w.push(round);
            let s = w.stealer();
            let thief = thread::spawn(move || loop {
                match s.steal() {
                    Steal::Success(v) => break Some(v),
                    Steal::Retry => {}
                    Steal::Empty => break None,
                }
            });
            let mine = w.pop();
            let theirs = thief.join().unwrap();
            match (mine, theirs) {
                (Some(v), None) | (None, Some(v)) => assert_eq!(v, round),
                other => panic!("round {round}: both or neither won: {other:?}"),
            }
        }
    }

    #[test]
    fn batch_steal_vs_owner_pop_delivers_exactly_once() {
        // Regression for the single-CAS batch steal: the owner pops
        // the bottom end CAS-free (it sees top < bottom) while a
        // thief batch-steals from the top; a multi-element claim made
        // with one CAS can win an element the owner already popped
        // and deliver it twice. Small deques maximise the overlap of
        // the thief's claim range and the owner's pops.
        for round in 0..4_000u64 {
            let w = Worker::new_lifo();
            for i in 0..5 {
                w.push(round * 8 + i);
            }
            let s = w.stealer();
            let thief = thread::spawn(move || {
                let local = Worker::new_lifo();
                let mut got = Vec::new();
                loop {
                    match s.steal_batch_and_pop(&local) {
                        Steal::Success(v) => got.push(v),
                        Steal::Retry => {}
                        Steal::Empty => break,
                    }
                }
                while let Some(v) = local.pop() {
                    got.push(v);
                }
                got
            });
            let mut got = Vec::new();
            while let Some(v) = w.pop() {
                got.push(v);
            }
            got.extend(thief.join().unwrap());
            got.sort_unstable();
            let want: Vec<u64> = (0..5).map(|i| round * 8 + i).collect();
            assert_eq!(got, want, "round {round}: lost or duplicated element");
        }
    }

    #[test]
    fn injector_batch_refill() {
        let inj = Injector::new();
        let w = Worker::new_lifo();
        for i in 0..10 {
            inj.push(i);
        }
        match inj.steal_batch_and_pop(&w) {
            Steal::Success(v) => assert_eq!(v, 0),
            _ => panic!("batch pop failed"),
        }
        // The batch moved to the worker preserves FIFO order for its
        // LIFO owner: next owner pop is the oldest batched item.
        assert_eq!(w.pop(), Some(1));
    }

    #[test]
    fn injector_push_batch_is_fifo() {
        let inj = Injector::new();
        inj.push_batch(0..5);
        inj.push(5);
        for want in 0..=5 {
            match inj.steal() {
                Steal::Success(v) => assert_eq!(v, want),
                _ => panic!("steal failed at {want}"),
            }
        }
        assert!(inj.is_empty());
    }

    #[test]
    fn locked_baseline_matches_semantics() {
        let w = locked::Worker::new_lifo();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        assert_eq!(w.pop(), Some(2));
        match s.steal() {
            locked::Steal::Success(v) => assert_eq!(v, 1),
            _ => panic!("locked steal failed"),
        }
        let inj = locked::Injector::new();
        for i in 0..10 {
            inj.push(i);
        }
        match inj.steal_batch_and_pop(&w) {
            locked::Steal::Success(v) => assert_eq!(v, 0),
            _ => panic!("locked batch pop failed"),
        }
        assert_eq!(w.pop(), Some(1));
    }
}
