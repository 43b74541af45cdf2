//! `parc-trace` — structured tracing and metrics for the parallel
//! runtimes.
//!
//! The paper's pedagogy hinges on students *seeing* parallel behaviour
//! — task graphs, barrier waits, GUI-thread marshalling. This crate is
//! the workspace's observability layer: every runtime (partask teams
//! of workers, pyjama regions, the websim crawler, faultsim's circuit
//! breaker) records typed events into per-thread lock-free buffers,
//! and a [`Collector`] drains them into a [`Trace`] that exports three
//! ways:
//!
//! * [`to_chrome_json`] — Chrome Trace Event Format for
//!   `chrome://tracing` / Perfetto (one process per runtime, one
//!   thread per worker);
//! * [`render_timeline`] — an ASCII Gantt chart for terminal teaching
//!   reports;
//! * [`MetricsRegistry::render`] — a flat metrics table for
//!   EXPERIMENTS.md regeneration.
//!
//! # Usage
//!
//! ```
//! use parc_trace::{Collector, SpanKind, MarkKind};
//!
//! let collector = Collector::new();
//! let trace_handle = collector.handle();
//! let pid = trace_handle.register_track("my-runtime");
//!
//! {
//!     let _span = trace_handle.span(pid, SpanKind::TaskRun { task: 1 });
//!     trace_handle.mark(pid, MarkKind::Steal { victim: 0 });
//! } // span ends here
//!
//! let trace = collector.snapshot();
//! assert_eq!(trace.counts_by_name()["task.run"], 1);
//! println!("{}", parc_trace::to_chrome_json(&trace));
//! ```
//!
//! # Zero cost when disabled
//!
//! Instrumented code stores a plain [`TraceHandle`] (never an
//! `Option`): the default handle holds no collector, and every
//! operation on it is an inlineable early-out — one branch on the hot
//! path, no allocation, no locking. Recording can also be toggled at
//! runtime with [`Collector::set_enabled`] without detaching anything.
//!
//! # Determinism
//!
//! Under a fixed seed the workspace's workloads make the same
//! decisions regardless of thread interleaving (see `faultsim`), so
//! traces are deterministic in event *counts* and per-key causal
//! order; timestamps and cross-thread interleaving may vary run to
//! run. `tests/tracing.rs` pins this contract.

#![warn(missing_docs)]

mod chrome;
mod collector;
mod event;
mod json;
mod metrics;
mod timeline;

pub use chrome::to_chrome_json;
pub use collector::{
    Collector, CompletedSpan, Lane, Span, Trace, TraceHandle, Track, DEFAULT_THREAD_CAPACITY,
};
pub use event::{
    BreakerPhase, ChildTag, Event, EventKind, FaultTag, FetchTag, MarkKind, MarkingTag, Outcome,
    SchedTag, SpanKind,
};
pub use json::{parse as parse_json, Json, JsonError};
pub use metrics::{Counter, LatencyHistogram, MetricsRegistry};
pub use timeline::{render_event_counts, render_timeline};
