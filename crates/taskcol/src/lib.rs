//! # taskcol — thread-safe and *task-safe* collections
//!
//! Two SoftEng 751 projects live in this crate:
//!
//! * **Project 9 — parallel use of collections**: "when more than one
//!   thread accesses a collection in parallel, synchronisation
//!   mechanisms are necessary … students implemented test programs to
//!   read/write in parallel to/from a collection, comparing the
//!   performance of the different approaches", across locking flavours
//!   (`synchronized`-style coarse mutexes, reader/writer locks,
//!   fair/unfair, atomics) and collection families. The concrete
//!   strategies here:
//!   [`counter`] (mutex / atomic / sharded counters),
//!   [`stack`] (coarse-locked, spinlocked, lock-free Treiber),
//!   [`queue`] (coarse-locked, two-lock Michael–Scott, and the
//!   library `SegQueue`, a mutex FIFO in the vendored shim), and
//!   [`map`] (coarse mutex, `RwLock`, sharded).
//! * **Project 6 — task-aware libraries**: "using a 'thread-safe'
//!   class in a tasking environment does not necessarily equate to a
//!   correct solution" — a task that *blocks* on a collection wedges
//!   its worker, and with a bounded pool the producer it is waiting
//!   for may never be scheduled. [`task_safe`] provides blocking
//!   operations that **help** (run queued tasks) instead of parking
//!   the worker, plus tests demonstrating the deadlock they avoid.
//!
//! The workload driver used by experiment E9's benchmark lives in
//! [`workload`].

pub mod counter;
pub mod list;
pub mod map;
pub mod queue;
pub mod stack;
pub mod sync;
pub mod task_safe;
pub mod workload;

pub use counter::{AtomicCounter, MutexCounter, ShardedCounter, SharedCounter};
pub use list::{CoarseSet, ConcurrentSet, FineSet};
pub use map::{ConcurrentMap, MutexMap, RwLockMap, ShardedMap};
pub use queue::{ConcurrentQueue, LibraryQueue, MutexQueue, TwoLockQueue};
pub use stack::{ConcurrentStack, MutexStack, SpinStack, TreiberStack};
pub use sync::SpinLock;
pub use task_safe::{TaskAwareQueue, TaskCell};
