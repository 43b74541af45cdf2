//! Small-closure job storage: the scheduler's unit of work without a
//! mandatory heap allocation.
//!
//! The previous `type Job = Box<dyn FnOnce() + Send>` put one
//! allocation on the spawn path of *every* task. [`SmallJob`] stores
//! closures up to [`INLINE_BYTES`] inline, falling back to a box only
//! for oversized captures. The deque then moves jobs by value:
//! spawn→run for a fine-grained task touches the allocator zero times.
//!
//! A job captures no reference to its runtime. Whoever runs it passes
//! the runtime it already holds: the worker loop and a help step pass
//! `Some`, and only a dependence gate whose runtime is gone runs a job
//! with `None`. So the spawn path's traced-job closure is the task's
//! `Arc` plus the user capture, and a batch member is
//! `(Arc<BatchCore>, Arc<F>, index)`, 24 bytes.
//!
//! The layout is a hand-rolled two-entry vtable: a `call` thunk that
//! consumes the closure and a `drop` thunk for jobs discarded without
//! running (e.g. a deque dropped with items still queued). Both are
//! monomorphised per closure type by [`SmallJob::new`].

use std::mem::{self, ManuallyDrop, MaybeUninit};
use std::ptr;

use crate::runtime::RtInner;

/// Inline capacity in machine words; 8 × 8 = 64 bytes on 64-bit.
const INLINE_WORDS: usize = 8;
/// Inline capacity in bytes — closures at most this large (and at most
/// word-aligned) are stored without allocating.
pub(crate) const INLINE_BYTES: usize = INLINE_WORDS * mem::size_of::<usize>();

type Slot = [MaybeUninit<usize>; INLINE_WORDS];

/// A `FnOnce(Option<&RtInner>) + Send` with inline small-closure
/// storage.
pub(crate) struct SmallJob {
    data: Slot,
    /// Consume the stored closure and run it.
    call: unsafe fn(*mut Slot, Option<&RtInner>),
    /// Drop the stored closure without running it.
    drop_fn: unsafe fn(*mut Slot),
}

// SAFETY: `new` requires `F: Send`, and the closure is owned by
// exactly one `SmallJob` at a time.
unsafe impl Send for SmallJob {}

/// Whether `F` fits the inline slot (size *and* alignment).
fn fits_inline<F>() -> bool {
    mem::size_of::<F>() <= INLINE_BYTES && mem::align_of::<F>() <= mem::align_of::<usize>()
}

unsafe fn call_inline<F: FnOnce(Option<&RtInner>)>(slot: *mut Slot, rt: Option<&RtInner>) {
    // SAFETY: `new` wrote an `F` at the slot start; calling consumes it.
    let f: F = ptr::read(slot.cast::<F>());
    f(rt);
}

unsafe fn drop_inline<F>(slot: *mut Slot) {
    // SAFETY: as above; dropping instead of calling.
    ptr::drop_in_place(slot.cast::<F>());
}

unsafe fn call_boxed<F: FnOnce(Option<&RtInner>)>(slot: *mut Slot, rt: Option<&RtInner>) {
    // SAFETY: `new` wrote a `Box<F>` pointer at the slot start.
    let b: Box<F> = Box::from_raw(ptr::read(slot.cast::<*mut F>()));
    (*b)(rt);
}

unsafe fn drop_boxed<F>(slot: *mut Slot) {
    // SAFETY: as above.
    drop(Box::from_raw(ptr::read(slot.cast::<*mut F>())));
}

impl SmallJob {
    /// Wrap a closure, storing it inline when it fits.
    pub(crate) fn new<F: FnOnce(Option<&RtInner>) + Send + 'static>(f: F) -> Self {
        let mut data: Slot = [MaybeUninit::uninit(); INLINE_WORDS];
        if fits_inline::<F>() {
            // SAFETY: size and alignment checked; the slot owns `f`
            // until `run` or drop.
            unsafe { ptr::write(data.as_mut_ptr().cast::<F>(), f) };
            Self {
                data,
                call: call_inline::<F>,
                drop_fn: drop_inline::<F>,
            }
        } else {
            let boxed = Box::into_raw(Box::new(f));
            // SAFETY: a thin pointer always fits the first word.
            unsafe { ptr::write(data.as_mut_ptr().cast::<*mut F>(), boxed) };
            Self {
                data,
                call: call_boxed::<F>,
                drop_fn: drop_boxed::<F>,
            }
        }
    }

    /// Run the stored closure on `rt`, the runtime whose queue the job
    /// came from, consuming the job.
    pub(crate) fn run(self, rt: Option<&RtInner>) {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: `call` matches how `new` stored the closure, and
        // `ManuallyDrop` prevents the drop thunk from double-freeing.
        unsafe { (this.call)(&mut this.data, rt) };
    }
}

impl Drop for SmallJob {
    fn drop(&mut self) {
        // SAFETY: only reached when the job was never run.
        unsafe { (self.drop_fn)(&mut self.data) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn small_closure_is_inline_and_runs() {
        let hit = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hit);
        assert!(fits_inline::<Box<dyn Fn()>>());
        let job = SmallJob::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        job.run(None);
        assert_eq!(hit.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn oversized_closure_falls_back_to_box() {
        let big = [7u64; 32]; // 256 bytes of capture
        let hit = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hit);
        let job = SmallJob::new(move |_| {
            h.fetch_add(big.iter().sum::<u64>() as usize, Ordering::SeqCst);
        });
        job.run(None);
        assert_eq!(hit.load(Ordering::SeqCst), 7 * 32);
    }

    #[test]
    fn unrun_jobs_drop_their_captures() {
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let small = Probe(Arc::clone(&drops));
        let big = (Probe(Arc::clone(&drops)), [0u8; 128]);
        drop(SmallJob::new(move |_| drop(small)));
        drop(SmallJob::new(move |_| drop(big)));
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }
}
