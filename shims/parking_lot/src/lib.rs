//! Vendored shim for the subset of `parking_lot` this workspace uses.
//!
//! The build container has no network and an empty registry, so the
//! real crate cannot be fetched. This shim wraps `std::sync` with the
//! `parking_lot` API shape: infallible `lock()`/`read()`/`write()`
//! (panic poisoning is *recovered from*, matching `parking_lot`'s
//! no-poisoning semantics, which the resilience layer relies on), and
//! `Condvar::wait(&mut guard)` taking the guard by mutable reference.
//!
//! Only the surface actually referenced in-tree is provided: `Mutex`,
//! `MutexGuard`, `Condvar`, `WaitTimeoutResult`, `RwLock` and its
//! guards. Semantics match `parking_lot` for that surface; performance
//! characteristics are those of `std::sync`.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

/// A mutex that does not poison: a panic while holding the lock leaves
/// the data accessible to other threads, exactly like `parking_lot`.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    #[must_use]
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available. Never fails:
    /// poisoning from a panicked holder is silently cleared.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            guard: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { guard: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                guard: Some(e.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

/// RAII guard for [`Mutex`]. The inner `Option` exists so a `Condvar`
/// can temporarily take the std guard during a wait.
pub struct MutexGuard<'a, T: ?Sized> {
    guard: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present")
    }
}

/// Result of a timed condition-variable wait.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Did the wait end because the timeout elapsed?
    #[must_use]
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Condition variable operating on [`MutexGuard`]s by `&mut`.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Create a new condition variable.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Block until notified. Spurious wakeups are possible.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.guard.take().expect("guard present");
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        guard.guard = Some(inner);
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.guard.take().expect("guard present");
        let (inner, res) = match self.inner.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(e) => {
                let (g, r) = e.into_inner();
                (g, r)
            }
        };
        guard.guard = Some(inner);
        WaitTimeoutResult {
            timed_out: res.timed_out(),
        }
    }

    /// Block until notified or the absolute `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: std::time::Instant,
    ) -> WaitTimeoutResult {
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        self.wait_for(guard, remaining)
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Condvar { .. }")
    }
}

/// A reader-writer lock that does not poison.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Create a new rwlock.
    #[must_use]
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            guard: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquire an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            guard: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// Shared-access guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Exclusive-access guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn mutex_survives_panicking_holder() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("die while holding");
        })
        .join();
        // parking_lot semantics: no poisoning, data still reachable.
        assert_eq!(*m.lock(), 0);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut ready = m.lock();
            *ready = true;
            drop(ready);
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut ready = m.lock();
        while !*ready {
            cv.wait(&mut ready);
        }
        drop(ready);
        t.join().unwrap();
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(res.timed_out());
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(7);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 14);
        }
        *l.write() = 9;
        assert_eq!(*l.read(), 9);
    }

    #[test]
    fn try_lock_contended() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }
}
