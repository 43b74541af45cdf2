//! Multi-tasks: the `TASK(n)` / `TASK(*)` analogue.
//!
//! A multi-task launches `n` instances of the same body, each knowing
//! its index, and exposes the group as one handle. Parallel Task uses
//! these for data-parallel loops inside an otherwise task-parallel
//! program — e.g. one sub-range of a gallery per instance.

use std::sync::Arc;

use crate::runtime::{spawn_on, RtInner};
use crate::task::{TaskError, TaskHandle, TaskWatcher};

/// Handle to a group of `n` task instances.
pub struct MultiHandle<T> {
    handles: Vec<TaskHandle<T>>,
}

pub(crate) fn spawn_multi<T: Send + 'static>(
    inner: &Arc<RtInner>,
    n: usize,
    f: impl Fn(usize) -> T + Send + Sync + 'static,
) -> MultiHandle<T> {
    assert!(n > 0, "a multi-task needs at least one instance");
    let f = Arc::new(f);
    let handles = (0..n)
        .map(|i| {
            let f = Arc::clone(&f);
            spawn_on(inner, move |_t| f(i))
        })
        .collect();
    MultiHandle { handles }
}

impl<T: Send + 'static> MultiHandle<T> {
    /// Number of instances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Never true: construction requires `n > 0`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Block until all instances complete.
    pub fn wait_all(&self) {
        for h in &self.handles {
            h.wait();
        }
    }

    /// Join all instances in index order. Returns the first error
    /// encountered (remaining instances are still waited for, so no
    /// work is left dangling).
    pub fn join_all(self) -> Result<Vec<T>, TaskError> {
        self.wait_all();
        let mut out = Vec::with_capacity(self.handles.len());
        let mut first_err = None;
        for h in self.handles {
            match h.join() {
                Ok(v) => out.push(v),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Join and fold the instance results in index order.
    pub fn join_reduce<A>(self, init: A, fold: impl FnMut(A, T) -> A) -> Result<A, TaskError> {
        let values = self.join_all()?;
        Ok(values.into_iter().fold(init, fold))
    }

    /// Watchers for every instance, e.g. to make another task depend
    /// on the whole group.
    #[must_use]
    pub fn watchers(&self) -> Vec<TaskWatcher> {
        self.handles.iter().map(TaskHandle::watcher).collect()
    }
}
