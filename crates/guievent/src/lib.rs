//! # guievent — a headless event-dispatch-thread substrate
//!
//! The SoftEng 751 projects built *interactive* applications (Swing on
//! desktops, Android on devices) and the paper's recurring requirement
//! is that "the GUI remains fully responsive" while parallel work runs.
//! This container is headless, so instead of a real toolkit this crate
//! provides the part of a GUI toolkit that matters for that claim: a
//! single **event-dispatch thread** (EDT) draining a FIFO event queue,
//! with
//!
//! * [`EventLoop::invoke_later`] / [`EventLoop::invoke_and_wait`] —
//!   the `SwingUtilities.invokeLater`/`invokeAndWait` analogues that
//!   `partask` and `pyjama` use to marshal results back to the GUI;
//! * repaint **coalescing** ([`GuiHandle::request_repaint`]), like a
//!   real toolkit's dirty-region batching;
//! * a [`Probe`] that measures *event-dispatch latency* — the time an
//!   event sits in the queue before the EDT runs it. A responsive GUI
//!   is exactly one whose dispatch latency stays low while background
//!   work proceeds; a frozen GUI is one where a long computation runs
//!   *on* the EDT and latency spikes to the computation length.
//!
//! ```
//! use guievent::EventLoop;
//! let gui = EventLoop::spawn();
//! let answer = gui.invoke_and_wait(|| 21 * 2);
//! assert_eq!(answer, 42);
//! gui.shutdown();
//! ```

pub mod probe;
pub mod queue;
pub mod timer;

pub use probe::{Probe, ProbeReport};
pub use timer::{invoke_after, repeat_every, Timer};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, ThreadId};
use std::time::Instant;

use parc_trace::{Counter, TraceHandle};
use parking_lot::{Condvar, Mutex};
use queue::EventQueue;

/// An event processed by the dispatch thread.
pub(crate) enum Event {
    /// Run a closure on the dispatch thread.
    Invoke(Box<dyn FnOnce() + Send>),
    /// A coalesced repaint request.
    Repaint,
    /// Stop the dispatch thread after draining earlier events.
    Shutdown,
}

/// Counters describing what the dispatch thread has done.
#[derive(Clone, Debug, Default)]
pub struct GuiStats {
    /// Closures executed via `invoke_later`/`invoke_and_wait`.
    pub events_dispatched: u64,
    /// Repaints actually performed (post-coalescing).
    pub repaints_performed: u64,
    /// Repaint requests received (pre-coalescing).
    pub repaints_requested: u64,
    /// Largest queue depth observed when enqueuing.
    pub max_queue_depth: usize,
}

struct Shared {
    queue: EventQueue<Event>,
    dispatch_thread: Mutex<Option<ThreadId>>,
    started: Condvar,
    repaint_pending: AtomicBool,
    // Counters live on the parc-trace metrics registry when a
    // collector is attached. Either way they are striped: the
    // dispatch thread and the threads posting repaints add on
    // separate cache lines, and a stats read sums the stripes.
    events_dispatched: Arc<Counter>,
    repaints_performed: Arc<Counter>,
    repaints_requested: Arc<Counter>,
    pub(crate) trace: TraceHandle,
    pub(crate) pid: u32,
}

/// Handle for posting work to the event loop. Cloneable and `Send`.
#[derive(Clone)]
pub struct GuiHandle {
    shared: Arc<Shared>,
}

/// The owning side of the event loop; joins the dispatch thread on
/// [`EventLoop::shutdown`].
pub struct EventLoop {
    handle: GuiHandle,
    joiner: Option<thread::JoinHandle<()>>,
}

impl EventLoop {
    /// Start a dispatch thread and return the loop.
    #[must_use]
    pub fn spawn() -> Self {
        Self::spawn_traced(&TraceHandle::default())
    }

    /// [`EventLoop::spawn`], recording through `trace` on a track
    /// named `guievent`: dispatch counters are registered as
    /// `guievent.*` on the collector's metrics registry, and a
    /// [`Probe`] attached to this loop emits one `gui.probe` mark per
    /// latency sample.
    #[must_use]
    pub fn spawn_traced(trace: &TraceHandle) -> Self {
        let pid = trace.register_track("guievent");
        let events_dispatched = Arc::new(Counter::new());
        let repaints_performed = Arc::new(Counter::new());
        let repaints_requested = Arc::new(Counter::new());
        if let Some(reg) = trace.metrics() {
            for (name, counter) in [
                ("guievent.events_dispatched", &events_dispatched),
                ("guievent.repaints_performed", &repaints_performed),
                ("guievent.repaints_requested", &repaints_requested),
            ] {
                reg.register_counter(name, counter);
            }
        }
        let shared = Arc::new(Shared {
            queue: EventQueue::new(),
            dispatch_thread: Mutex::new(None),
            started: Condvar::new(),
            repaint_pending: AtomicBool::new(false),
            events_dispatched,
            repaints_performed,
            repaints_requested,
            trace: trace.clone(),
            pid,
        });
        let thread_shared = Arc::clone(&shared);
        let joiner = thread::Builder::new()
            .name("gui-edt".to_string())
            .spawn(move || dispatch_loop(&thread_shared))
            .expect("failed to spawn dispatch thread");
        // Wait until the dispatch thread has recorded its identity so
        // `is_dispatch_thread` is reliable from the first call.
        {
            let mut guard = shared.dispatch_thread.lock();
            while guard.is_none() {
                shared.started.wait(&mut guard);
            }
        }
        Self {
            handle: GuiHandle { shared },
            joiner: Some(joiner),
        }
    }

    /// A cloneable handle for worker threads.
    #[must_use]
    pub fn handle(&self) -> GuiHandle {
        self.handle.clone()
    }

    /// See [`GuiHandle::invoke_later`].
    pub fn invoke_later(&self, f: impl FnOnce() + Send + 'static) {
        self.handle.invoke_later(f);
    }

    /// See [`GuiHandle::invoke_and_wait`].
    pub fn invoke_and_wait<R: Send + 'static>(&self, f: impl FnOnce() -> R + Send + 'static) -> R {
        self.handle.invoke_and_wait(f)
    }

    /// See [`GuiHandle::request_repaint`].
    pub fn request_repaint(&self) {
        self.handle.request_repaint();
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> GuiStats {
        self.handle.stats()
    }

    /// Drain remaining events, stop the dispatch thread and join it.
    pub fn shutdown(mut self) {
        self.handle.shared.queue.push(Event::Shutdown);
        if let Some(j) = self.joiner.take() {
            let _ = j.join();
        }
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        if let Some(j) = self.joiner.take() {
            self.handle.shared.queue.push(Event::Shutdown);
            let _ = j.join();
        }
    }
}

impl GuiHandle {
    /// Post a closure to run asynchronously on the dispatch thread
    /// (the `invokeLater` analogue).
    pub fn invoke_later(&self, f: impl FnOnce() + Send + 'static) {
        let depth = self.shared.queue.push(Event::Invoke(Box::new(f)));
        self.note_depth(depth);
    }

    /// Run a closure on the dispatch thread and wait for its result
    /// (the `invokeAndWait` analogue). If called *from* the dispatch
    /// thread it runs inline, which both matches Swing semantics for
    /// re-entrant dispatch and avoids self-deadlock.
    pub fn invoke_and_wait<R: Send + 'static>(&self, f: impl FnOnce() -> R + Send + 'static) -> R {
        if self.is_dispatch_thread() {
            return f();
        }
        let cell: Arc<(Mutex<Option<R>>, Condvar)> = Arc::new((Mutex::new(None), Condvar::new()));
        let cell2 = Arc::clone(&cell);
        self.invoke_later(move || {
            let value = f();
            let (lock, cvar) = &*cell2;
            *lock.lock() = Some(value);
            cvar.notify_one();
        });
        let (lock, cvar) = &*cell;
        let mut guard = lock.lock();
        while guard.is_none() {
            cvar.wait(&mut guard);
        }
        guard.take().expect("result present")
    }

    /// Request a repaint. Multiple requests posted before the EDT gets
    /// to them are coalesced into a single repaint, like a real
    /// toolkit's dirty flag.
    pub fn request_repaint(&self) {
        self.shared.repaints_requested.inc();
        if !self.shared.repaint_pending.swap(true, Ordering::AcqRel) {
            let depth = self.shared.queue.push(Event::Repaint);
            self.note_depth(depth);
        }
    }

    /// True when the calling thread is the dispatch thread.
    #[must_use]
    pub fn is_dispatch_thread(&self) -> bool {
        *self.shared.dispatch_thread.lock() == Some(thread::current().id())
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> GuiStats {
        GuiStats {
            events_dispatched: self.shared.events_dispatched.get(),
            repaints_performed: self.shared.repaints_performed.get(),
            repaints_requested: self.shared.repaints_requested.get(),
            max_queue_depth: self.shared.queue.max_depth(),
        }
    }

    /// Block until every event posted before this call has been
    /// dispatched (a queue flush/sync point, like `invokeAndWait` with
    /// an empty body).
    pub fn drain(&self) {
        self.invoke_and_wait(|| {});
    }

    fn note_depth(&self, _depth: usize) {
        // Depth accounting lives inside the queue; hook retained for
        // future per-handle accounting.
    }
}

fn dispatch_loop(shared: &Arc<Shared>) {
    {
        let mut guard = shared.dispatch_thread.lock();
        *guard = Some(thread::current().id());
        shared.started.notify_all();
    }
    loop {
        match shared.queue.pop() {
            Event::Invoke(f) => {
                // Count before running: `invoke_and_wait` callers may
                // read the stats as soon as their closure completes.
                shared.events_dispatched.inc();
                f();
            }
            Event::Repaint => {
                shared.repaint_pending.store(false, Ordering::Release);
                shared.repaints_performed.inc();
            }
            Event::Shutdown => break,
        }
    }
}

/// Timestamped latency sample: when the event was posted and when the
/// dispatch thread got to it.
#[derive(Clone, Copy, Debug)]
pub struct LatencySample {
    /// When the event was enqueued.
    pub posted: Instant,
    /// Queue-to-dispatch latency in milliseconds.
    pub latency_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn invoke_and_wait_returns_value() {
        let gui = EventLoop::spawn();
        assert_eq!(gui.invoke_and_wait(|| "hello".len()), 5);
        gui.shutdown();
    }

    #[test]
    fn invoke_later_runs_in_order() {
        let gui = EventLoop::spawn();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..50 {
            let log = Arc::clone(&log);
            gui.invoke_later(move || log.lock().push(i));
        }
        gui.handle().drain();
        assert_eq!(*log.lock(), (0..50).collect::<Vec<_>>());
        gui.shutdown();
    }

    #[test]
    fn events_run_on_dispatch_thread() {
        let gui = EventLoop::spawn();
        let handle = gui.handle();
        let h2 = handle.clone();
        let on_edt = gui.invoke_and_wait(move || h2.is_dispatch_thread());
        assert!(on_edt);
        assert!(!handle.is_dispatch_thread());
        gui.shutdown();
    }

    #[test]
    fn invoke_and_wait_reentrant_from_edt() {
        let gui = EventLoop::spawn();
        let handle = gui.handle();
        let value = gui.invoke_and_wait(move || handle.invoke_and_wait(|| 7) + 1);
        assert_eq!(value, 8);
        gui.shutdown();
    }

    #[test]
    fn repaints_are_coalesced() {
        let gui = EventLoop::spawn();
        // Stall the EDT so repaint requests pile up behind one event.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let gate2 = Arc::clone(&gate);
        gui.invoke_later(move || {
            let (lock, cvar) = &*gate2;
            let mut open = lock.lock();
            while !*open {
                cvar.wait(&mut open);
            }
        });
        for _ in 0..100 {
            gui.request_repaint();
        }
        {
            let (lock, cvar) = &*gate;
            *lock.lock() = true;
            cvar.notify_one();
        }
        gui.handle().drain();
        let stats = gui.stats();
        assert_eq!(stats.repaints_requested, 100);
        assert!(
            stats.repaints_performed <= 2,
            "expected coalescing, got {} repaints",
            stats.repaints_performed
        );
        gui.shutdown();
    }

    #[test]
    fn stats_count_dispatches() {
        let gui = EventLoop::spawn();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            gui.invoke_later(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        gui.handle().drain();
        assert_eq!(counter.load(Ordering::Relaxed), 10);
        // 10 invokes + 1 drain
        assert_eq!(gui.stats().events_dispatched, 11);
        gui.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_events() {
        let gui = EventLoop::spawn();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let c = Arc::clone(&counter);
            gui.invoke_later(move || {
                std::thread::sleep(Duration::from_micros(100));
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        gui.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn drop_also_shuts_down() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let gui = EventLoop::spawn();
            let c = Arc::clone(&counter);
            gui.invoke_later(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
            // gui dropped here without explicit shutdown
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn handles_usable_from_many_threads() {
        let gui = EventLoop::spawn();
        let counter = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let handle = gui.handle();
            let c = Arc::clone(&counter);
            joins.push(thread::spawn(move || {
                for _ in 0..25 {
                    let c = Arc::clone(&c);
                    handle.invoke_later(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        gui.handle().drain();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        gui.shutdown();
    }
}
