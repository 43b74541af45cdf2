//! Responsiveness probing: the measurable meaning of "the GUI remains
//! fully responsive".
//!
//! A [`Probe`] runs a pacing thread that posts a tiny timestamped
//! event to the dispatch thread at a fixed interval. The EDT records
//! how long each event waited in the queue. While the application is
//! idle the latency is microseconds; if a computation hogs the EDT the
//! latency grows to the length of the computation — exactly the
//! "frozen UI" the SoftEng 751 projects were graded on avoiding.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parc_util::stats::Summary;
use parking_lot::Mutex;

use crate::GuiHandle;

/// Aggregated dispatch-latency measurements from a probe run.
#[derive(Clone, Debug)]
pub struct ProbeReport {
    /// One latency sample (milliseconds) per probe event dispatched.
    pub samples_ms: Vec<f64>,
}

impl ProbeReport {
    /// Summary statistics over the latency samples.
    #[must_use]
    pub fn summary(&self) -> Summary {
        Summary::from_samples(&self.samples_ms)
    }

    /// Worst observed dispatch latency, in milliseconds.
    #[must_use]
    pub fn worst_ms(&self) -> f64 {
        self.samples_ms.iter().copied().fold(0.0, f64::max)
    }

    /// Fraction of samples at or under `threshold_ms` — a
    /// "responsiveness score". Interactive-feel guidance commonly uses
    /// ~100 ms as the limit of "instantaneous".
    #[must_use]
    pub fn fraction_within(&self, threshold_ms: f64) -> f64 {
        if self.samples_ms.is_empty() {
            return 1.0;
        }
        let ok = self
            .samples_ms
            .iter()
            .filter(|&&s| s <= threshold_ms)
            .count();
        ok as f64 / self.samples_ms.len() as f64
    }

    /// Number of samples collected.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples_ms.len()
    }

    /// True when no samples were collected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples_ms.is_empty()
    }
}

/// A running responsiveness probe. Create with [`Probe::start`], stop
/// and collect with [`Probe::finish`].
pub struct Probe {
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<f64>>>,
    pacer: Option<thread::JoinHandle<()>>,
    handle: GuiHandle,
}

impl Probe {
    /// Start probing `gui` every `interval`.
    #[must_use]
    pub fn start(gui: GuiHandle, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let samples: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
        let pacer_stop = Arc::clone(&stop);
        let pacer_samples = Arc::clone(&samples);
        let pacer_gui = gui.clone();
        let pacer = thread::Builder::new()
            .name("gui-probe".to_string())
            .spawn(move || {
                let trace = pacer_gui.shared.trace.clone();
                let pid = pacer_gui.shared.pid;
                // Post before checking `stop`, so a probe finished at
                // once still takes one sample.
                loop {
                    let posted = Instant::now();
                    let samples = Arc::clone(&pacer_samples);
                    let trace = trace.clone();
                    pacer_gui.invoke_later(move || {
                        let latency = posted.elapsed();
                        samples.lock().push(latency.as_secs_f64() * 1e3);
                        // Marked on the EDT, so probe samples land on
                        // the dispatch thread's trace lane.
                        trace.mark(
                            pid,
                            parc_trace::MarkKind::GuiProbe {
                                latency_ns: u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX),
                            },
                        );
                    });
                    thread::sleep(interval);
                    if pacer_stop.load(Ordering::Acquire) {
                        break;
                    }
                }
            })
            .expect("failed to spawn probe pacer");
        Self {
            stop,
            samples,
            pacer: Some(pacer),
            handle: gui,
        }
    }

    /// Stop the pacer, flush the event queue and return the report.
    #[must_use]
    pub fn finish(mut self) -> ProbeReport {
        self.stop.store(true, Ordering::Release);
        if let Some(p) = self.pacer.take() {
            let _ = p.join();
        }
        // Make sure every posted probe event has been dispatched.
        self.handle.drain();
        let samples_ms = self.samples.lock().clone();
        ProbeReport { samples_ms }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(p) = self.pacer.take() {
            let _ = p.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventLoop;

    #[test]
    fn probe_on_idle_loop_has_low_latency() {
        let gui = EventLoop::spawn();
        let probe = Probe::start(gui.handle(), Duration::from_millis(1));
        thread::sleep(Duration::from_millis(50));
        let report = probe.finish();
        assert!(
            report.len() >= 10,
            "expected many samples, got {}",
            report.len()
        );
        // Idle EDT: median latency should be well under 5 ms even on a
        // loaded single-core machine.
        assert!(
            report.summary().median() < 5.0,
            "median {} ms too high for an idle EDT",
            report.summary().median()
        );
        gui.shutdown();
    }

    #[test]
    fn probe_detects_blocked_edt() {
        let gui = EventLoop::spawn();
        let probe = Probe::start(gui.handle(), Duration::from_millis(1));
        // Simulate the classic student mistake: run the computation on
        // the event thread.
        gui.invoke_and_wait(|| thread::sleep(Duration::from_millis(60)));
        let report = probe.finish();
        assert!(
            report.worst_ms() >= 40.0,
            "worst latency {} ms should reflect the 60 ms EDT stall",
            report.worst_ms()
        );
        gui.shutdown();
    }

    #[test]
    fn traced_probe_marks_match_samples() {
        let col = parc_trace::Collector::new();
        let gui = EventLoop::spawn_traced(&col.handle());
        let probe = Probe::start(gui.handle(), Duration::from_millis(1));
        thread::sleep(Duration::from_millis(20));
        let report = probe.finish();
        gui.shutdown();
        let trace = col.snapshot();
        assert_eq!(
            trace
                .counts_by_name()
                .get("gui.probe")
                .copied()
                .unwrap_or(0),
            report.len() as u64,
            "one gui.probe mark per latency sample"
        );
        // The dispatch counters rode along on the metrics registry.
        let counters = col.metrics().counter_values();
        assert!(counters["guievent.events_dispatched"] >= report.len() as u64);
    }

    #[test]
    fn probe_finished_at_once_still_samples() {
        let gui = EventLoop::spawn();
        let report = Probe::start(gui.handle(), Duration::from_millis(1)).finish();
        assert!(
            !report.is_empty(),
            "a started probe must take at least one sample"
        );
        gui.shutdown();
    }

    #[test]
    fn fraction_within_bounds() {
        let report = ProbeReport {
            samples_ms: vec![1.0, 2.0, 50.0, 200.0],
        };
        assert!((report.fraction_within(100.0) - 0.75).abs() < 1e-12);
        assert!((report.fraction_within(0.5) - 0.0).abs() < 1e-12);
        assert!((report.fraction_within(1000.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_fully_within() {
        let report = ProbeReport { samples_ms: vec![] };
        assert!(report.is_empty());
        assert_eq!(report.fraction_within(1.0), 1.0);
        assert_eq!(report.worst_ms(), 0.0);
    }
}
