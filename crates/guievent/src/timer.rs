//! GUI timers: `invoke_after` (one-shot) and `repeat_every`
//! (periodic), the `javax.swing.Timer` analogue the interactive
//! projects use for animation ticks and polling UI state.
//!
//! Timers run on dedicated pacer threads and post their callbacks to
//! the event-dispatch thread, so callbacks observe the usual
//! single-threaded GUI discipline.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::GuiHandle;

/// Handle to a scheduled timer; cancel to stop future firings.
pub struct Timer {
    cancelled: Arc<AtomicBool>,
    fired: Arc<AtomicU64>,
    joiner: Option<thread::JoinHandle<()>>,
}

impl Timer {
    /// Stop the timer. Callbacks already posted to the EDT still run.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Number of times the timer has fired so far.
    #[must_use]
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Acquire)
    }

    /// Cancel and wait for the pacer thread to exit.
    pub fn stop(mut self) {
        self.cancel();
        if let Some(j) = self.joiner.take() {
            let _ = j.join();
        }
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.cancel();
        if let Some(j) = self.joiner.take() {
            let _ = j.join();
        }
    }
}

/// Post `f` to the dispatch thread once, after `delay`. Cancellable
/// until the delay elapses.
#[must_use]
pub fn invoke_after(gui: &GuiHandle, delay: Duration, f: impl FnOnce() + Send + 'static) -> Timer {
    let cancelled = Arc::new(AtomicBool::new(false));
    let fired = Arc::new(AtomicU64::new(0));
    let gui = gui.clone();
    let c2 = Arc::clone(&cancelled);
    let f2 = Arc::clone(&fired);
    let joiner = thread::Builder::new()
        .name("gui-timer-once".to_string())
        .spawn(move || {
            // Sleep in small slices so cancel() is responsive.
            let deadline = std::time::Instant::now() + delay;
            while std::time::Instant::now() < deadline {
                if c2.load(Ordering::Acquire) {
                    return;
                }
                thread::sleep(Duration::from_millis(1).min(delay));
            }
            if !c2.load(Ordering::Acquire) {
                f2.fetch_add(1, Ordering::AcqRel);
                gui.invoke_later(f);
            }
        })
        .expect("failed to spawn timer thread");
    Timer {
        cancelled,
        fired,
        joiner: Some(joiner),
    }
}

/// Post `f` to the dispatch thread every `period` until cancelled.
#[must_use]
pub fn repeat_every(
    gui: &GuiHandle,
    period: Duration,
    f: impl Fn() + Send + Sync + 'static,
) -> Timer {
    assert!(!period.is_zero(), "period must be positive");
    let cancelled = Arc::new(AtomicBool::new(false));
    let fired = Arc::new(AtomicU64::new(0));
    let gui = gui.clone();
    let c2 = Arc::clone(&cancelled);
    let f2 = Arc::clone(&fired);
    let f = Arc::new(f);
    let joiner = thread::Builder::new()
        .name("gui-timer-repeat".to_string())
        .spawn(move || {
            while !c2.load(Ordering::Acquire) {
                thread::sleep(period);
                if c2.load(Ordering::Acquire) {
                    break;
                }
                f2.fetch_add(1, Ordering::AcqRel);
                let f = Arc::clone(&f);
                gui.invoke_later(move || f());
            }
        })
        .expect("failed to spawn timer thread");
    Timer {
        cancelled,
        fired,
        joiner: Some(joiner),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventLoop;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn one_shot_fires_once_on_edt() {
        let gui = EventLoop::spawn();
        let count = Arc::new(AtomicUsize::new(0));
        let on_edt = Arc::new(AtomicBool::new(false));
        let c2 = Arc::clone(&count);
        let e2 = Arc::clone(&on_edt);
        let probe = gui.handle();
        let timer = invoke_after(&gui.handle(), Duration::from_millis(5), move || {
            c2.fetch_add(1, Ordering::Relaxed);
            e2.store(probe.is_dispatch_thread(), Ordering::Release);
        });
        thread::sleep(Duration::from_millis(40));
        gui.handle().drain();
        assert_eq!(count.load(Ordering::Relaxed), 1);
        assert!(on_edt.load(Ordering::Acquire));
        assert_eq!(timer.fired(), 1);
        timer.stop();
        gui.shutdown();
    }

    #[test]
    fn cancelled_one_shot_never_fires() {
        let gui = EventLoop::spawn();
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        let timer = invoke_after(&gui.handle(), Duration::from_millis(50), move || {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        timer.cancel();
        thread::sleep(Duration::from_millis(80));
        gui.handle().drain();
        assert_eq!(count.load(Ordering::Relaxed), 0);
        gui.shutdown();
    }

    #[test]
    fn repeating_timer_fires_multiple_times_then_stops() {
        let gui = EventLoop::spawn();
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        let timer = repeat_every(&gui.handle(), Duration::from_millis(3), move || {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        thread::sleep(Duration::from_millis(40));
        timer.stop();
        gui.handle().drain();
        let fired = count.load(Ordering::Relaxed);
        assert!(fired >= 3, "expected several firings, got {fired}");
        let frozen = count.load(Ordering::Relaxed);
        thread::sleep(Duration::from_millis(20));
        gui.handle().drain();
        assert_eq!(
            count.load(Ordering::Relaxed),
            frozen,
            "no firings after stop"
        );
        gui.shutdown();
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let gui = EventLoop::spawn();
        let _ = repeat_every(&gui.handle(), Duration::ZERO, || {});
    }
}
