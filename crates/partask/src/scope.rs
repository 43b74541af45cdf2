//! Structured (scoped) tasks: spawn tasks that borrow from the
//! enclosing stack frame.
//!
//! Parallel Task programs routinely parallelise over local data; in
//! Rust that needs a *scope* that guarantees every spawned task
//! finishes before the borrowed data goes out of scope (the same
//! contract as `std::thread::scope` / rayon's `scope`). The
//! implementation erases the closure lifetimes and re-establishes
//! safety by keeping every task's [`TaskHandle`]: [`TaskRuntime::scope`]
//! joins them all before it returns, and before it unwinds when the
//! body panics. Each join helps and then parks, like every other join
//! ([`TaskHandle::join`]), so scopes nested inside tasks cannot
//! deadlock the pool.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use parking_lot::Mutex;

use crate::runtime::TaskRuntime;
use crate::task::{TaskError, TaskHandle};

/// Handle passed to the scope body for spawning borrowed tasks.
pub struct Scope<'scope, 'env: 'scope> {
    rt: &'scope TaskRuntime,
    /// Every task spawned through the scope, in spawn order.
    handles: Mutex<Vec<TaskHandle<()>>>,
    _marker: std::marker::PhantomData<&'scope mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a task that may borrow anything outliving the scope.
    /// Results are not returned directly — write into borrowed slots
    /// or use [`crate::interim::channel`]; this mirrors scoped-thread
    /// APIs. A panic inside any scoped task is re-thrown by
    /// [`TaskRuntime::scope`] after all tasks finish.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        // SAFETY: `scope()` joins this task's handle before it returns
        // or unwinds, so the closure (and everything it borrows,
        // bounded by 'scope) outlives its execution.
        let f_static: Box<dyn FnOnce() + Send + 'static> =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, _>(Box::new(f)) };
        let handle = self.rt.spawn(f_static);
        self.handles.lock().push(handle);
    }
}

impl TaskRuntime {
    /// Run `body` with a [`Scope`]; every task spawned through the
    /// scope completes before `scope` returns or unwinds. If the body
    /// panicked, its panic is resumed once the tasks are joined;
    /// otherwise, if a scoped task panicked, the first such panic in
    /// spawn order is resumed on the caller.
    pub fn scope<'env, F, R>(&self, body: F) -> R
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        let scope = Scope {
            rt: self,
            handles: Mutex::new(Vec::new()),
            _marker: std::marker::PhantomData,
        };
        let out = catch_unwind(AssertUnwindSafe(|| body(&scope)));
        let mut task_panic = None;
        for handle in scope.handles.into_inner() {
            if let Err(TaskError::Panicked(msg)) = handle.join() {
                task_panic.get_or_insert(msg);
            }
        }
        let out = out.unwrap_or_else(|payload| resume_unwind(payload));
        if let Some(msg) = task_panic {
            panic!("scoped task panicked: {msg}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn scoped_tasks_borrow_local_data() {
        let rt = TaskRuntime::builder().workers(2).build();
        let data: Vec<u64> = (0..1000).collect();
        let total = AtomicU64::new(0);
        rt.scope(|s| {
            for chunk in data.chunks(100) {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 499_500);
        rt.shutdown();
    }

    #[test]
    fn scope_returns_body_value() {
        let rt = TaskRuntime::builder().workers(1).build();
        let out = rt.scope(|s| {
            s.spawn(|| {});
            "body value"
        });
        assert_eq!(out, "body value");
        rt.shutdown();
    }

    #[test]
    fn scoped_writes_to_disjoint_slices() {
        let rt = TaskRuntime::builder().workers(2).build();
        let mut out = vec![0u64; 64];
        rt.scope(|s| {
            for (i, slot) in out.chunks_mut(16).enumerate() {
                s.spawn(move || {
                    for (j, x) in slot.iter_mut().enumerate() {
                        *x = (i * 16 + j) as u64;
                    }
                });
            }
        });
        assert_eq!(out, (0..64u64).collect::<Vec<_>>());
        rt.shutdown();
    }

    #[test]
    #[should_panic(expected = "scoped task panicked: kaboom")]
    fn scope_propagates_panics_after_completion() {
        let rt = TaskRuntime::builder().workers(2).build();
        let finished = Arc::new(AtomicU64::new(0));
        let f2 = Arc::clone(&finished);
        rt.scope(|s| {
            s.spawn(|| panic!("kaboom"));
            s.spawn(move || {
                f2.fetch_add(1, Ordering::Relaxed);
            });
        });
    }

    #[test]
    fn nested_scopes_inside_tasks() {
        let rt = TaskRuntime::builder().workers(2).build();
        let handle = rt.handle();
        let t = rt.spawn(move || {
            // A scope cannot be used inside a plain spawn (it borrows
            // the runtime), but help-based waiting means a task can
            // simply block on children; emulate a nested structured
            // join:
            let inner: Vec<_> = (0..4).map(|i| handle.spawn(move || i * 2)).collect();
            inner.into_iter().map(|h| h.join().unwrap()).sum::<i32>()
        });
        assert_eq!(t.join().unwrap(), 12);
        rt.shutdown();
    }

    #[test]
    fn empty_scope_is_fine() {
        let rt = TaskRuntime::builder().workers(1).build();
        let v = rt.scope(|_s| 42);
        assert_eq!(v, 42);
        rt.shutdown();
    }

    #[test]
    fn many_scoped_waves() {
        let rt = TaskRuntime::builder().workers(2).build();
        let counter = AtomicU64::new(0);
        for _ in 0..20 {
            rt.scope(|s| {
                for _ in 0..20 {
                    let counter = &counter;
                    s.spawn(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 400);
        rt.shutdown();
    }
}
