//! The collector: per-thread lock-free event rings, thread and track
//! registration, span causality, and the drained [`Trace`].
//!
//! Design: every recording thread owns an append-only ring of
//! `Copy` events. The owner is the only writer; it stores the slot and
//! then publishes it with a `Release` bump of `head`. Readers take an
//! `Acquire` load of `head` and read only published slots, so the hot
//! path is a slot write plus one atomic store — no locks, no
//! allocation (the ring is allocated once, at the thread's first event
//! for a given collector). A full ring drops further events and counts
//! the drops rather than blocking or reallocating.

use std::cell::{RefCell, UnsafeCell};
use std::collections::BTreeMap;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

use parking_lot::Mutex;

use crate::event::{Event, EventKind, MarkKind, SpanKind};
use crate::metrics::MetricsRegistry;

/// Default per-thread ring capacity, in events.
pub const DEFAULT_THREAD_CAPACITY: usize = 1 << 15;

/// Collector-id allocator (process-global so thread-local caches can
/// key entries by collector across collector lifetimes).
static NEXT_COLLECTOR_ID: AtomicU64 = AtomicU64::new(1);

/// One thread's event ring. Owner-write, many-reader.
pub(crate) struct ThreadLog {
    tid: u32,
    name: String,
    /// Published event count; slots `[0, head)` are readable.
    head: AtomicUsize,
    dropped: AtomicU64,
    slots: Box<[UnsafeCell<MaybeUninit<Event>>]>,
}

// SAFETY: slots below `head` are written exactly once by the owning
// thread *before* the Release store that publishes them, and never
// written again; readers only touch slots below an Acquire load of
// `head`. Slots at or above `head` are accessed by nobody but the
// owner.
unsafe impl Sync for ThreadLog {}
unsafe impl Send for ThreadLog {}

impl ThreadLog {
    fn new(tid: u32, name: String, capacity: usize) -> Self {
        let slots: Vec<UnsafeCell<MaybeUninit<Event>>> = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        Self {
            tid,
            name,
            head: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    /// Append one event. Called only by the owning thread; lock- and
    /// allocation-free. A full ring drops the event.
    fn push(&self, ev: Event) {
        let h = self.head.load(Ordering::Relaxed);
        if h >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: slot `h` is unpublished (>= head), so no reader
        // touches it, and only the owner thread writes.
        unsafe { (*self.slots[h].get()).write(ev) };
        self.head.store(h + 1, Ordering::Release);
    }

    /// Copy out every published event, in recording order.
    fn read_published(&self, out: &mut Vec<Event>) {
        let h = self.head.load(Ordering::Acquire);
        for slot in &self.slots[..h] {
            // SAFETY: slots below an Acquire-loaded head are
            // initialised and never rewritten; `Event: Copy`.
            out.push(unsafe { (*slot.get()).assume_init_read() });
        }
    }
}

pub(crate) struct CollectorInner {
    id: u64,
    enabled: AtomicBool,
    thread_capacity: usize,
    epoch: Instant,
    /// Span-id allocator; 0 is reserved for "no span".
    next_span: AtomicU64,
    next_tid: AtomicU32,
    next_pid: AtomicU32,
    threads: Mutex<Vec<Arc<ThreadLog>>>,
    tracks: Mutex<Vec<(u32, String)>>,
    metrics: MetricsRegistry,
}

/// One thread's cached registration with one collector, plus its span
/// stack (for parent/child causality).
struct TlEntry {
    collector: u64,
    /// Liveness probe so dead collectors' entries can be pruned.
    alive: Weak<CollectorInner>,
    log: Arc<ThreadLog>,
    stack: Vec<u64>,
}

thread_local! {
    static TL: RefCell<Vec<TlEntry>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with the calling thread's entry for `inner`, registering
/// the thread (allocating its ring) on first use.
fn with_entry<R>(inner: &Arc<CollectorInner>, f: impl FnOnce(&mut TlEntry) -> R) -> R {
    TL.with(|tl| {
        let mut entries = tl.borrow_mut();
        let pos = entries.iter().position(|e| e.collector == inner.id);
        let pos = match pos {
            Some(p) => p,
            None => {
                // House-keeping: forget entries whose collector died.
                entries.retain(|e| e.alive.strong_count() > 0);
                let tid = inner.next_tid.fetch_add(1, Ordering::Relaxed);
                let name = std::thread::current()
                    .name()
                    .map_or_else(|| format!("thread-{tid}"), str::to_string);
                let log = Arc::new(ThreadLog::new(tid, name, inner.thread_capacity));
                inner.threads.lock().push(Arc::clone(&log));
                entries.push(TlEntry {
                    collector: inner.id,
                    alive: Arc::downgrade(inner),
                    log,
                    stack: Vec::new(),
                });
                entries.len() - 1
            }
        };
        f(&mut entries[pos])
    })
}

impl CollectorInner {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn emit_mark(self: &Arc<Self>, pid: u32, what: MarkKind) {
        let ts_ns = self.now_ns();
        with_entry(self, |e| {
            let tid = e.log.tid;
            e.log.push(Event {
                ts_ns,
                pid,
                tid,
                kind: EventKind::Mark { what },
            });
        });
    }

    fn begin_span(self: &Arc<Self>, pid: u32, what: SpanKind) -> u64 {
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        let ts_ns = self.now_ns();
        with_entry(self, |e| {
            let parent = e.stack.last().copied().unwrap_or(0);
            e.stack.push(id);
            let tid = e.log.tid;
            e.log.push(Event {
                ts_ns,
                pid,
                tid,
                kind: EventKind::SpanBegin { id, parent, what },
            });
        });
        id
    }

    fn end_span(self: &Arc<Self>, pid: u32, id: u64, what: SpanKind) {
        let ts_ns = self.now_ns();
        with_entry(self, |e| {
            // Truncate through `id` so a guard dropped out of order
            // cannot leave stale frames behind.
            if let Some(pos) = e.stack.iter().rposition(|&s| s == id) {
                e.stack.truncate(pos);
            }
            let tid = e.log.tid;
            e.log.push(Event {
                ts_ns,
                pid,
                tid,
                kind: EventKind::SpanEnd { id, what },
            });
        });
    }

    fn current_span(self: &Arc<Self>) -> u64 {
        with_entry(self, |e| e.stack.last().copied().unwrap_or(0))
    }
}

/// A cheap, cloneable recording handle. Instrumented code stores one
/// of these *unconditionally* — the disabled handle is a `None` inside
/// and every operation is an inlineable early-out, so tracing costs
/// nothing when no collector is attached.
#[derive(Clone, Default)]
pub struct TraceHandle {
    inner: Option<Arc<CollectorInner>>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("attached", &self.inner.is_some())
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl TraceHandle {
    /// A handle that records nothing. This is also the `Default`.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Is event recording currently on? Checks both the attachment and
    /// the collector's runtime toggle.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        match &self.inner {
            Some(c) => c.enabled.load(Ordering::Relaxed),
            None => false,
        }
    }

    #[inline]
    fn live(&self) -> Option<&Arc<CollectorInner>> {
        match &self.inner {
            Some(c) if c.enabled.load(Ordering::Relaxed) => Some(c),
            _ => None,
        }
    }

    /// Record an instantaneous event.
    #[inline]
    pub fn mark(&self, pid: u32, what: MarkKind) {
        if let Some(c) = self.live() {
            c.emit_mark(pid, what);
        }
    }

    /// Open a span; it ends (emitting the matching end event on the
    /// same thread) when the returned guard drops. Guards must stay on
    /// the thread that opened them.
    #[inline]
    #[must_use]
    pub fn span(&self, pid: u32, what: SpanKind) -> Span<'_> {
        let id = match self.live() {
            Some(c) => c.begin_span(pid, what),
            None => 0,
        };
        Span {
            trace: self,
            pid,
            id,
            what,
        }
    }

    /// The span currently open on the calling thread (0 = none).
    #[must_use]
    pub fn current_span(&self) -> u64 {
        match self.live() {
            Some(c) => c.current_span(),
            None => 0,
        }
    }

    /// Register a named track (one per instrumented runtime; becomes a
    /// Chrome `pid`). Returns 0 — the untracked id — when no collector
    /// is attached. Registration works even while recording is
    /// toggled off, so a runtime built against a disabled collector is
    /// fully wired the moment recording is enabled.
    #[must_use]
    pub fn register_track(&self, name: &str) -> u32 {
        match &self.inner {
            Some(c) => {
                let pid = c.next_pid.fetch_add(1, Ordering::Relaxed);
                c.tracks.lock().push((pid, name.to_string()));
                pid
            }
            None => 0,
        }
    }

    /// The collector's metrics registry, when one is attached.
    #[must_use]
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|c| &c.metrics)
    }

    /// True when a collector is attached (even if recording is
    /// currently toggled off).
    #[must_use]
    pub fn is_attached(&self) -> bool {
        self.inner.is_some()
    }
}

/// Guard for an open span; emits the end event on drop.
pub struct Span<'a> {
    trace: &'a TraceHandle,
    pid: u32,
    id: u64,
    what: SpanKind,
}

impl Span<'_> {
    /// The span's collector-unique id (0 when recording is off).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        // A span that began must end even if the collector was toggled
        // off mid-span, or B/E pairs would unbalance.
        if self.id != 0 {
            if let Some(c) = &self.trace.inner {
                c.end_span(self.pid, self.id, self.what);
            }
        }
    }
}

/// A named track (≙ Chrome process): one per instrumented runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Track {
    /// Track id, used as the Chrome `pid`.
    pub pid: u32,
    /// Runtime name, e.g. `partask` or `websim`.
    pub name: String,
}

/// A recording lane (≙ Chrome thread): one per OS thread that emitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lane {
    /// Lane id, used as the Chrome `tid`.
    pub tid: u32,
    /// The OS thread's name at registration.
    pub name: String,
    /// Events this lane lost to a full ring, as of the snapshot.
    pub dropped: u64,
}

/// One completed span reassembled from its begin/end events.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompletedSpan {
    /// Collector-unique span id.
    pub id: u64,
    /// Enclosing span on the same thread (0 = root).
    pub parent: u64,
    /// What the span is.
    pub what: SpanKind,
    /// Track id.
    pub pid: u32,
    /// Lane id.
    pub tid: u32,
    /// Start, nanoseconds since the collector epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the collector epoch.
    pub end_ns: u64,
    /// True when the span had no end event at snapshot time and
    /// `end_ns` is a synthetic, conservative stand-in (the last
    /// timestamp in the trace).
    pub open: bool,
}

impl CompletedSpan {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A drained snapshot of everything recorded so far.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// All events, sorted by timestamp (ties keep per-lane recording
    /// order, so same-lane span pairs stay correctly nested).
    pub events: Vec<Event>,
    /// Registered tracks, in registration order.
    pub tracks: Vec<Track>,
    /// Recording lanes, in registration order.
    pub lanes: Vec<Lane>,
    /// Events lost to full rings.
    pub dropped: u64,
}

impl Trace {
    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Per-event-name occurrence counts (span begin/end pairs count
    /// once). Deterministic for seeded workloads — this is the map the
    /// tracing tests compare across reruns and pool sizes.
    #[must_use]
    pub fn counts_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for ev in &self.events {
            if matches!(ev.kind, EventKind::SpanEnd { .. }) {
                continue;
            }
            *counts.entry(ev.name()).or_insert(0) += 1;
        }
        counts
    }

    /// Reassemble spans from begin/end pairs, ordered by start time.
    /// A span still open at snapshot time (begin without end — e.g. a
    /// mid-run snapshot) is emitted with a synthetic end at the
    /// trace's last timestamp and flagged [`CompletedSpan::open`], so
    /// downstream consumers (timelines, critical-path weights) see a
    /// conservative duration instead of silently losing the span.
    #[must_use]
    pub fn spans(&self) -> Vec<CompletedSpan> {
        let mut open: BTreeMap<u64, (u64, SpanKind, u32, u32, u64)> = BTreeMap::new();
        let mut out = Vec::new();
        let last_ts = self.events.last().map_or(0, |e| e.ts_ns);
        for ev in &self.events {
            match ev.kind {
                EventKind::SpanBegin { id, parent, what } => {
                    open.insert(id, (parent, what, ev.pid, ev.tid, ev.ts_ns));
                }
                EventKind::SpanEnd { id, .. } => {
                    if let Some((parent, what, pid, tid, start_ns)) = open.remove(&id) {
                        out.push(CompletedSpan {
                            id,
                            parent,
                            what,
                            pid,
                            tid,
                            start_ns,
                            end_ns: ev.ts_ns,
                            open: false,
                        });
                    }
                }
                EventKind::Mark { .. } => {}
            }
        }
        for (id, (parent, what, pid, tid, start_ns)) in open {
            out.push(CompletedSpan {
                id,
                parent,
                what,
                pid,
                tid,
                start_ns,
                end_ns: last_ts.max(start_ns),
                open: true,
            });
        }
        out.sort_by_key(|s| (s.start_ns, s.id));
        out
    }

    /// Name of track `pid` (`untracked` for 0 / unregistered ids).
    #[must_use]
    pub fn track_name(&self, pid: u32) -> &str {
        self.tracks
            .iter()
            .find(|t| t.pid == pid)
            .map_or("untracked", |t| t.name.as_str())
    }

    /// Name of lane `tid` (`?` if unknown).
    #[must_use]
    pub fn lane_name(&self, tid: u32) -> &str {
        self.lanes
            .iter()
            .find(|l| l.tid == tid)
            .map_or("?", |l| l.name.as_str())
    }
}

/// Owns the rings and the metrics registry; hand out [`TraceHandle`]s
/// with [`Collector::handle`] and read results with
/// [`Collector::snapshot`].
pub struct Collector {
    inner: Arc<CollectorInner>,
}

impl Collector {
    /// A collector with the default per-thread ring capacity,
    /// recording enabled.
    #[must_use]
    pub fn new() -> Self {
        Self::with_thread_capacity(DEFAULT_THREAD_CAPACITY)
    }

    /// A collector whose per-thread rings hold `capacity` events each.
    /// Overflowing threads drop further events (counted in
    /// [`Trace::dropped`]).
    #[must_use]
    pub fn with_thread_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "a ring needs at least one slot");
        Self {
            inner: Arc::new(CollectorInner {
                id: NEXT_COLLECTOR_ID.fetch_add(1, Ordering::Relaxed),
                enabled: AtomicBool::new(true),
                thread_capacity: capacity,
                epoch: Instant::now(),
                next_span: AtomicU64::new(1),
                next_tid: AtomicU32::new(1),
                next_pid: AtomicU32::new(1),
                threads: Mutex::new(Vec::new()),
                tracks: Mutex::new(Vec::new()),
                metrics: MetricsRegistry::new(),
            }),
        }
    }

    /// A recording handle for instrumented code.
    #[must_use]
    pub fn handle(&self) -> TraceHandle {
        TraceHandle {
            inner: Some(Arc::clone(&self.inner)),
        }
    }

    /// Toggle event recording at runtime. Registration (tracks,
    /// counters) is unaffected.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// The collector's metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Events lost to full rings so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner
            .threads
            .lock()
            .iter()
            .map(|t| t.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Drain everything published so far into a [`Trace`].
    /// Non-destructive: recording continues and a later snapshot
    /// includes these events again.
    #[must_use]
    pub fn snapshot(&self) -> Trace {
        let threads = self.inner.threads.lock();
        let mut events = Vec::new();
        let mut lanes = Vec::with_capacity(threads.len());
        let mut dropped = 0;
        for log in threads.iter() {
            log.read_published(&mut events);
            let lane_dropped = log.dropped.load(Ordering::Relaxed);
            dropped += lane_dropped;
            lanes.push(Lane {
                tid: log.tid,
                name: log.name.clone(),
                dropped: lane_dropped,
            });
        }
        drop(threads);
        // Stable sort: equal timestamps keep per-lane recording order
        // (events were appended lane by lane), so B/E nesting within a
        // lane survives the merge.
        events.sort_by_key(|e| e.ts_ns);
        let tracks = self
            .inner
            .tracks
            .lock()
            .iter()
            .map(|(pid, name)| Track {
                pid: *pid,
                name: name.clone(),
            })
            .collect();
        Trace {
            events,
            tracks,
            lanes,
            dropped,
        }
    }
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Outcome;

    #[test]
    fn disabled_handle_records_nothing() {
        let h = TraceHandle::disabled();
        assert!(!h.enabled());
        h.mark(0, MarkKind::Steal { victim: 1 });
        let s = h.span(0, SpanKind::TaskRun { task: 1 });
        assert_eq!(s.id(), 0);
        drop(s);
        assert_eq!(h.register_track("x"), 0);
        assert_eq!(h.current_span(), 0);
        assert!(h.metrics().is_none());
    }

    #[test]
    fn span_pairs_and_marks_round_trip() {
        let col = Collector::new();
        let h = col.handle();
        let pid = h.register_track("test");
        {
            let outer = h.span(pid, SpanKind::Crawl { pages: 2 });
            assert!(outer.id() > 0);
            {
                let _inner = h.span(
                    pid,
                    SpanKind::FetchAttempt {
                        page: 0,
                        attempt: 1,
                    },
                );
                h.mark(
                    pid,
                    MarkKind::TaskOutcome {
                        task: 7,
                        outcome: Outcome::Completed,
                    },
                );
            }
        }
        let trace = col.snapshot();
        assert_eq!(trace.len(), 5); // 2 begins + 2 ends + 1 mark
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        let crawl = spans.iter().find(|s| s.what.name() == "crawl").unwrap();
        let attempt = spans
            .iter()
            .find(|s| s.what.name() == "fetch.attempt")
            .unwrap();
        assert_eq!(attempt.parent, crawl.id, "nesting must set causality");
        assert_eq!(crawl.parent, 0);
        assert!(attempt.start_ns >= crawl.start_ns);
        assert!(attempt.end_ns <= crawl.end_ns);
        assert_eq!(trace.counts_by_name()["task.outcome"], 1);
        assert_eq!(trace.counts_by_name()["crawl"], 1);
    }

    #[test]
    fn runtime_toggle_stops_recording() {
        let col = Collector::new();
        let h = col.handle();
        let pid = h.register_track("t");
        h.mark(pid, MarkKind::Steal { victim: 0 });
        col.set_enabled(false);
        assert!(!h.enabled());
        assert!(h.is_attached());
        h.mark(pid, MarkKind::Steal { victim: 0 });
        col.set_enabled(true);
        h.mark(pid, MarkKind::Steal { victim: 0 });
        assert_eq!(col.snapshot().len(), 2);
    }

    #[test]
    fn toggling_off_mid_span_still_balances() {
        let col = Collector::new();
        let h = col.handle();
        let s = h.span(1, SpanKind::TaskRun { task: 3 });
        col.set_enabled(false);
        drop(s);
        let trace = col.snapshot();
        assert_eq!(trace.len(), 2, "begin and end must both be present");
        assert_eq!(trace.spans().len(), 1);
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let col = Collector::with_thread_capacity(4);
        let h = col.handle();
        for v in 0..10 {
            h.mark(0, MarkKind::Steal { victim: v });
        }
        let trace = col.snapshot();
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.dropped, 6);
        assert_eq!(col.dropped(), 6);
        // The loss is attributed to the overflowing lane, not just the
        // trace-wide total.
        assert_eq!(trace.lanes.len(), 1);
        assert_eq!(trace.lanes[0].dropped, 6);
    }

    #[test]
    fn open_span_at_snapshot_is_emitted_with_open_flag() {
        let col = Collector::new();
        let h = col.handle();
        let outer = h.span(1, SpanKind::Crawl { pages: 1 });
        drop(h.span(
            1,
            SpanKind::FetchAttempt {
                page: 0,
                attempt: 1,
            },
        ));
        // Snapshot while `outer` is still open: it must appear as a
        // synthetic-end span flagged `open`, covering the trace so far.
        let spans = col.snapshot().spans();
        assert_eq!(spans.len(), 2);
        let crawl = spans.iter().find(|s| s.what.name() == "crawl").unwrap();
        let attempt = spans
            .iter()
            .find(|s| s.what.name() == "fetch.attempt")
            .unwrap();
        assert!(crawl.open, "unfinished span must be flagged open");
        assert!(!attempt.open);
        assert!(
            crawl.end_ns >= attempt.end_ns,
            "synthetic end covers the trace"
        );
        drop(outer);
        let spans = col.snapshot().spans();
        assert!(spans.iter().all(|s| !s.open), "all spans closed after drop");
    }

    #[test]
    fn threads_get_distinct_lanes() {
        let col = Collector::new();
        let h = col.handle();
        h.mark(0, MarkKind::Steal { victim: 0 });
        let h2 = h.clone();
        std::thread::Builder::new()
            .name("lane-test".into())
            .spawn(move || h2.mark(0, MarkKind::Steal { victim: 1 }))
            .unwrap()
            .join()
            .unwrap();
        let trace = col.snapshot();
        assert_eq!(trace.lanes.len(), 2);
        assert!(trace.lanes.iter().any(|l| l.name == "lane-test"));
        let tids: std::collections::BTreeSet<u32> = trace.events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 2);
    }

    #[test]
    fn two_collectors_do_not_cross_talk() {
        let a = Collector::new();
        let b = Collector::new();
        a.handle().mark(0, MarkKind::Steal { victim: 0 });
        b.handle().mark(0, MarkKind::BarrierPoison { member: 1 });
        assert_eq!(a.snapshot().counts_by_name().get("barrier.poison"), None);
        assert_eq!(b.snapshot().counts_by_name().get("sched.steal"), None);
        assert_eq!(a.snapshot().len(), 1);
        assert_eq!(b.snapshot().len(), 1);
    }

    #[test]
    fn tracks_register_in_order() {
        let col = Collector::new();
        let h = col.handle();
        let p1 = h.register_track("alpha");
        let p2 = h.register_track("beta");
        assert_ne!(p1, 0);
        assert_ne!(p2, p1);
        let trace = col.snapshot();
        assert_eq!(trace.track_name(p1), "alpha");
        assert_eq!(trace.track_name(p2), "beta");
        assert_eq!(trace.track_name(0), "untracked");
    }
}
