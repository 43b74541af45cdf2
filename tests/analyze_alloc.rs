//! The analyzer's allocation budget, counted on this test's thread.
//!
//! `analyze` over `genprog::generate(1, 2000)` made 164.43 heap
//! allocations per program (counting `alloc` and `realloc`) before the
//! byte lexer, per-program symbols and the structural walk replaced the
//! per-line `Vec<char>`, the `String` per token and name, and the
//! diagnostics formatted only to be dropped. The count is exact and
//! repeats on every host, so it guards what wall-clock lint timings
//! measure noisily: the budget is a third of that figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use parc_analyze::genprog;

/// Allocations per program with the per-line `Vec<char>` lexer and the
/// name-keyed engines, over the same corpus.
const BEFORE_PER_PROGRAM: f64 = 164.43;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's `alloc` and `realloc`
/// calls (`alloc_zeroed` goes through `alloc`).
struct Counting;

fn count() {
    // A thread being torn down has no counter left; its calls go
    // uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System` upholds the `GlobalAlloc` contract;
// the counter is a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn analyze_allocates_at_most_a_third_of_its_former_count() {
    let corpus = genprog::generate(1, 2000);
    let before = allocations();
    let mut diagnostics = 0;
    for gp in &corpus {
        diagnostics += parc_analyze::analyze(&gp.source).diagnostics.len();
    }
    let per_program = (allocations() - before) as f64 / corpus.len() as f64;
    assert!(diagnostics > 0, "the corpus must exercise the rules");
    assert!(
        per_program * 3.0 <= BEFORE_PER_PROGRAM,
        "analyze made {per_program:.2} allocations per program; the budget is {:.2}",
        BEFORE_PER_PROGRAM / 3.0
    );
}
