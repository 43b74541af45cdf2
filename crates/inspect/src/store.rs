//! The queryable store: indexes over a drained [`Trace`].
//!
//! [`parc_trace::Collector::snapshot`] returns a flat, time-sorted
//! event vector — fine for export, clumsy for questions like "which
//! marks landed inside this span" or "what overlapped this window".
//! [`TraceStore`] promotes the snapshot into an in-memory store with
//! four indexes, all built in one pass:
//!
//! * **by kind** — event indices per stable event name, in time order;
//! * **by lane** — event indices per `(track, lane)`, in recording
//!   order (the stable sort in `snapshot` preserves it);
//! * **by span** — every span reassembled as a [`StoredSpan`]: its
//!   same-lane children, the marks attributed to it (innermost
//!   enclosing span on the emitting lane), and its begin/end event
//!   positions. Spans still open at snapshot time keep the synthetic
//!   end and `open` flag of [`Trace::spans`];
//! * **by interval** — spans sorted by start with a running-maximum
//!   end, so overlap queries prune instead of scanning.
//!
//! Time queries use half-open windows `[lo_ns, hi_ns)`. Span overlap
//! is `start_ns < hi && end_ns >= lo` (the `>=` keeps zero-width
//! spans findable at their own timestamp).

use std::collections::BTreeMap;

use parc_trace::{CompletedSpan, Event, EventKind, Trace};

/// One span with everything the store indexed about it.
#[derive(Clone, Debug)]
pub struct StoredSpan {
    /// The reassembled span. Spans still open at snapshot time carry a
    /// synthetic end (the trace's last timestamp) and `open == true`,
    /// exactly as [`Trace::spans`] reports them.
    pub span: CompletedSpan,
    /// Ids of spans nested directly inside this one (same lane), in
    /// begin order.
    pub children: Vec<u64>,
    /// Indices into [`TraceStore::events`] of the marks attributed to
    /// this span: each mark belongs to the innermost span open on its
    /// lane when it was recorded.
    pub marks: Vec<usize>,
    /// Index of the span's begin event.
    pub begin_idx: usize,
    /// Index of the span's end event; `None` while open.
    pub end_idx: Option<usize>,
}

/// The indexed, queryable form of one [`Trace`] snapshot.
#[derive(Debug, Default)]
pub struct TraceStore {
    trace: Trace,
    by_kind: BTreeMap<&'static str, Vec<usize>>,
    by_lane: BTreeMap<(u32, u32), Vec<usize>>,
    spans: BTreeMap<u64, StoredSpan>,
    /// Marks recorded while no span was open on their lane.
    unattributed_marks: Vec<usize>,
    /// `(start_ns, id)` for every span, sorted.
    starts: Vec<(u64, u64)>,
    /// `running_max_end[i]` = max `end_ns` over `starts[..=i]` — the
    /// classic interval-overlap pruning structure.
    running_max_end: Vec<u64>,
}

impl TraceStore {
    /// Index `trace`. One pass over the events plus two sorts; the
    /// `trace_inspect` example benchmarks this as events/second.
    #[must_use]
    pub fn new(trace: Trace) -> Self {
        let mut store = TraceStore {
            trace,
            ..TraceStore::default()
        };
        let last_ts = store.trace.events.last().map_or(0, |e| e.ts_ns);
        // Per-lane span stacks, mirroring the collector's discipline.
        let mut stacks: BTreeMap<(u32, u32), Vec<u64>> = BTreeMap::new();
        for (i, ev) in store.trace.events.iter().enumerate() {
            let lane = (ev.pid, ev.tid);
            store.by_kind.entry(ev.name()).or_default().push(i);
            store.by_lane.entry(lane).or_default().push(i);
            match ev.kind {
                EventKind::SpanBegin { id, parent, what } => {
                    store.spans.insert(
                        id,
                        StoredSpan {
                            span: CompletedSpan {
                                id,
                                parent,
                                what,
                                pid: ev.pid,
                                tid: ev.tid,
                                start_ns: ev.ts_ns,
                                end_ns: ev.ts_ns,
                                open: true,
                            },
                            children: Vec::new(),
                            marks: Vec::new(),
                            begin_idx: i,
                            end_idx: None,
                        },
                    );
                    if parent != 0 {
                        // The parent began earlier on the same lane, so
                        // it is already stored — unless its begin was
                        // lost to ring overflow, in which case the
                        // child is simply not linked.
                        if let Some(p) = store.spans.get_mut(&parent) {
                            p.children.push(id);
                        }
                    }
                    stacks.entry(lane).or_default().push(id);
                }
                EventKind::SpanEnd { id, .. } => {
                    // Truncate through `id`, mirroring the collector's
                    // out-of-order-guard handling.
                    if let Some(stack) = stacks.get_mut(&lane) {
                        if let Some(pos) = stack.iter().rposition(|&s| s == id) {
                            stack.truncate(pos);
                        }
                    }
                    if let Some(s) = store.spans.get_mut(&id) {
                        s.span.end_ns = ev.ts_ns;
                        s.span.open = false;
                        s.end_idx = Some(i);
                    }
                }
                EventKind::Mark { .. } => match stacks.get(&lane).and_then(|s| s.last()) {
                    Some(top) => {
                        store
                            .spans
                            .get_mut(top)
                            .expect("stacked span is stored")
                            .marks
                            .push(i);
                    }
                    None => store.unattributed_marks.push(i),
                },
            }
        }
        // Spans still open: synthetic, conservative end.
        for s in store.spans.values_mut().filter(|s| s.span.open) {
            s.span.end_ns = last_ts.max(s.span.start_ns);
        }
        store.starts = store
            .spans
            .values()
            .map(|s| (s.span.start_ns, s.span.id))
            .collect();
        store.starts.sort_unstable();
        let mut running = 0u64;
        store.running_max_end = store
            .starts
            .iter()
            .map(|(_, id)| {
                running = running.max(store.spans[id].span.end_ns);
                running
            })
            .collect();
        store
    }

    /// The underlying snapshot (events stay time-sorted).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// All events, time-sorted.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.trace.events
    }

    /// Number of indexed events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trace.events.len()
    }

    /// True when the snapshot recorded nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trace.events.is_empty()
    }

    /// Events with `lo_ns <= ts < hi_ns`, as a contiguous slice (the
    /// event vector is time-sorted, so a window is a range).
    #[must_use]
    pub fn events_in(&self, lo_ns: u64, hi_ns: u64) -> &[Event] {
        let ev = &self.trace.events;
        let a = ev.partition_point(|e| e.ts_ns < lo_ns);
        let b = ev.partition_point(|e| e.ts_ns < hi_ns);
        &ev[a..b.max(a)]
    }

    /// Indices of all events named `kind`, in time order.
    #[must_use]
    pub fn kind_indices(&self, kind: &str) -> &[usize] {
        self.by_kind.get(kind).map_or(&[][..], Vec::as_slice)
    }

    /// Indices of events named `kind` with `lo_ns <= ts < hi_ns`.
    /// Binary-searches within the kind index (whose entries are in
    /// time order) rather than scanning.
    #[must_use]
    pub fn kind_indices_in(&self, kind: &str, lo_ns: u64, hi_ns: u64) -> &[usize] {
        let idx = self.kind_indices(kind);
        let ts = |i: &usize| self.trace.events[*i].ts_ns;
        let a = idx.partition_point(|i| ts(i) < lo_ns);
        let b = idx.partition_point(|i| ts(i) < hi_ns);
        &idx[a..b.max(a)]
    }

    /// Indices of all events recorded on lane `(pid, tid)`, in
    /// recording order.
    #[must_use]
    pub fn lane_indices(&self, pid: u32, tid: u32) -> &[usize] {
        self.by_lane.get(&(pid, tid)).map_or(&[][..], Vec::as_slice)
    }

    /// The stored span with this collector-unique id.
    #[must_use]
    pub fn span(&self, id: u64) -> Option<&StoredSpan> {
        self.spans.get(&id)
    }

    /// All stored spans, in id order.
    pub fn spans(&self) -> impl Iterator<Item = &StoredSpan> {
        self.spans.values()
    }

    /// Marks recorded while no span was open on their lane.
    #[must_use]
    pub fn unattributed_marks(&self) -> &[usize] {
        &self.unattributed_marks
    }

    /// Spans overlapping `[lo_ns, hi_ns)` (`start < hi && end >= lo`),
    /// ordered by `(start_ns, id)`. Uses the sorted-starts +
    /// running-max-end index: the backward scan stops as soon as no
    /// earlier span can still reach `lo`.
    #[must_use]
    pub fn spans_overlapping(&self, lo_ns: u64, hi_ns: u64) -> Vec<&StoredSpan> {
        let cut = self.starts.partition_point(|(start, _)| *start < hi_ns);
        let mut hits: Vec<&StoredSpan> = Vec::new();
        for j in (0..cut).rev() {
            if self.running_max_end[j] < lo_ns {
                break;
            }
            let s = &self.spans[&self.starts[j].1];
            if s.span.end_ns >= lo_ns {
                hits.push(s);
            }
        }
        hits.reverse();
        hits
    }

    /// The span's *self time*: its duration minus the durations of the
    /// spans nested directly inside it (which are disjoint, by the
    /// per-lane stack discipline). Zero for unknown ids.
    #[must_use]
    pub fn self_time_ns(&self, id: u64) -> u64 {
        let Some(s) = self.spans.get(&id) else {
            return 0;
        };
        let nested: u64 = s
            .children
            .iter()
            .filter_map(|c| self.spans.get(c))
            .map(|c| c.span.duration_ns())
            .sum();
        s.span.duration_ns().saturating_sub(nested)
    }

    /// Total self time per span kind — the raw material of the
    /// critical-path attribution table ("`barrier.wait` = 42% of wall
    /// clock").
    #[must_use]
    pub fn kind_self_time(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in self.spans.values() {
            *out.entry(s.span.what.name()).or_insert(0) += self.self_time_ns(s.span.id);
        }
        out
    }

    /// Wall clock covered by the snapshot: last minus first event
    /// timestamp.
    #[must_use]
    pub fn wall_ns(&self) -> u64 {
        match (self.trace.events.first(), self.trace.events.last()) {
            (Some(first), Some(last)) => last.ts_ns.saturating_sub(first.ts_ns),
            _ => 0,
        }
    }

    /// Lanes that recorded at least one span — the denominator for
    /// "fraction of available compute" attributions.
    #[must_use]
    pub fn active_lanes(&self) -> usize {
        let lanes: std::collections::BTreeSet<(u32, u32)> = self
            .spans
            .values()
            .map(|s| (s.span.pid, s.span.tid))
            .collect();
        lanes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parc_trace::{Collector, FetchTag, MarkKind, SpanKind};

    /// A small two-lane trace: crawl > fetch.attempt (+ result mark)
    /// on the main lane, a task.run and steal mark on a second lane.
    fn sample() -> Trace {
        let col = Collector::new();
        let h = col.handle();
        let pid = h.register_track("demo");
        {
            let _crawl = h.span(pid, SpanKind::Crawl { pages: 2 });
            {
                let _a = h.span(
                    pid,
                    SpanKind::FetchAttempt {
                        page: 0,
                        attempt: 1,
                    },
                );
                h.mark(
                    pid,
                    MarkKind::FetchResult {
                        page: 0,
                        attempt: 1,
                        result: FetchTag::Ok,
                    },
                );
            }
        }
        let h2 = h.clone();
        std::thread::spawn(move || {
            h2.mark(pid, MarkKind::Steal { victim: 0 });
            let _run = h2.span(pid, SpanKind::TaskRun { task: 1 });
        })
        .join()
        .unwrap();
        col.snapshot()
    }

    #[test]
    fn interval_queries_match_naive_scan() {
        let trace = sample();
        let naive = trace.events.clone();
        let store = TraceStore::new(trace);
        let wall = store.events().last().unwrap().ts_ns + 1;
        // Probe a handful of windows, including empty and full ones.
        for (lo, hi) in [
            (0, wall),
            (wall / 3, 2 * wall / 3),
            (0, 0),
            (wall, wall + 10),
        ] {
            let fast: Vec<&Event> = store.events_in(lo, hi).iter().collect();
            let slow: Vec<&Event> = naive
                .iter()
                .filter(|e| e.ts_ns >= lo && e.ts_ns < hi)
                .collect();
            assert_eq!(fast.len(), slow.len(), "window [{lo}, {hi})");
            assert!(fast.iter().zip(&slow).all(|(a, b)| a == b));
        }
    }

    #[test]
    fn kind_index_matches_naive_scan() {
        let trace = sample();
        let naive = trace.events.clone();
        let store = TraceStore::new(trace);
        for kind in [
            "crawl",
            "fetch.result",
            "sched.steal",
            "task.run",
            "no.such",
        ] {
            let fast: Vec<usize> = store.kind_indices(kind).to_vec();
            let slow: Vec<usize> = naive
                .iter()
                .enumerate()
                .filter(|(_, e)| e.name() == kind)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(fast, slow, "kind {kind}");
        }
        // Windowed kind query agrees with filtering the full index.
        let wall = store.events().last().unwrap().ts_ns + 1;
        let windowed = store.kind_indices_in("crawl", 0, wall);
        assert_eq!(windowed, store.kind_indices("crawl"));
        assert!(store.kind_indices_in("crawl", wall, wall + 1).is_empty());
    }

    #[test]
    fn span_overlap_matches_naive_scan() {
        let trace = sample();
        let store = TraceStore::new(trace);
        let all: Vec<&StoredSpan> = store.spans().collect();
        let wall = store.events().last().unwrap().ts_ns + 1;
        for (lo, hi) in [(0, wall), (wall / 4, wall / 2), (0, 1), (wall - 1, wall)] {
            let fast = store.spans_overlapping(lo, hi);
            let mut slow: Vec<&StoredSpan> = all
                .iter()
                .copied()
                .filter(|s| s.span.start_ns < hi && s.span.end_ns >= lo)
                .collect();
            slow.sort_by_key(|s| (s.span.start_ns, s.span.id));
            assert_eq!(fast.len(), slow.len(), "window [{lo}, {hi})");
            assert!(fast.iter().zip(&slow).all(|(a, b)| a.span.id == b.span.id));
        }
    }

    #[test]
    fn marks_attribute_to_innermost_span() {
        let store = TraceStore::new(sample());
        let fetch = store
            .spans()
            .find(|s| s.span.what.name() == "fetch.attempt")
            .expect("fetch span stored");
        assert_eq!(fetch.marks.len(), 1, "result mark belongs to the attempt");
        assert_eq!(store.events()[fetch.marks[0]].name(), "fetch.result");
        let crawl = store
            .spans()
            .find(|s| s.span.what.name() == "crawl")
            .unwrap();
        assert!(
            crawl.marks.is_empty(),
            "nothing marked directly under crawl"
        );
        assert_eq!(crawl.children, vec![fetch.span.id]);
        // The steal mark fired before any span opened on its lane.
        assert_eq!(store.unattributed_marks().len(), 1);
        assert_eq!(
            store.events()[store.unattributed_marks()[0]].name(),
            "sched.steal"
        );
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let store = TraceStore::new(sample());
        let crawl = store
            .spans()
            .find(|s| s.span.what.name() == "crawl")
            .unwrap();
        let fetch = store
            .spans()
            .find(|s| s.span.what.name() == "fetch.attempt")
            .unwrap();
        let self_time = store.self_time_ns(crawl.span.id);
        assert_eq!(
            self_time,
            crawl.span.duration_ns() - fetch.span.duration_ns(),
            "crawl self time excludes the nested attempt"
        );
        let by_kind = store.kind_self_time();
        assert_eq!(by_kind["crawl"], self_time);
        assert_eq!(by_kind["fetch.attempt"], fetch.span.duration_ns());
    }

    #[test]
    fn open_spans_keep_synthetic_end_and_flag() {
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
        let store = TraceStore::new(col.snapshot());
        let crawl = store
            .spans()
            .find(|s| s.span.what.name() == "crawl")
            .unwrap();
        assert!(crawl.span.open);
        assert!(crawl.end_idx.is_none());
        let last_ts = store.events().last().unwrap().ts_ns;
        assert_eq!(crawl.span.end_ns, last_ts, "synthetic end covers the trace");
        // And the open span is still findable by overlap.
        assert!(store
            .spans_overlapping(last_ts, last_ts + 1)
            .iter()
            .any(|s| s.span.id == crawl.span.id));
        drop(outer);
    }

    #[test]
    fn store_spans_agree_with_trace_spans() {
        let trace = sample();
        let reference = trace.spans();
        let store = TraceStore::new(trace);
        assert_eq!(store.spans().count(), reference.len());
        for r in &reference {
            let s = store.span(r.id).expect("span indexed");
            assert_eq!(&s.span, r, "span {} must match Trace::spans()", r.id);
        }
    }

    #[test]
    fn lane_index_partitions_all_events() {
        let trace = sample();
        let total = trace.events.len();
        let store = TraceStore::new(trace);
        let lanes: Vec<(u32, u32)> = store
            .events()
            .iter()
            .map(|e| (e.pid, e.tid))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let sum: usize = lanes
            .iter()
            .map(|(p, t)| store.lane_indices(*p, *t).len())
            .sum();
        assert_eq!(sum, total);
        assert!(lanes.len() >= 2, "sample uses two lanes");
        assert!(store.active_lanes() >= 2);
        assert!(store.wall_ns() > 0);
    }
}
