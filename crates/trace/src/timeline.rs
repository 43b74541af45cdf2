//! ASCII Gantt/timeline renderer for terminal teaching reports.
//!
//! Each lane (one per recording thread, grouped by track) gets a row
//! whose bar shows *when that thread was inside a span*: `#` marks a
//! busy time bucket, `.` an idle one. A second glance-level table of
//! span counts and busy fractions rides along, rendered through
//! [`parc_util::table::Table`] so it matches every other report in the
//! workspace.

use std::collections::BTreeMap;

use parc_util::table::Table;

use crate::collector::{CompletedSpan, Trace};

/// Render the per-lane activity timeline. `width` is the number of
/// time buckets (bar characters) per lane. Returns a note when the
/// trace has no completed spans.
#[must_use]
pub fn render_timeline(trace: &Trace, width: usize) -> String {
    let width = width.max(8);
    let spans = trace.spans();
    if spans.is_empty() {
        return String::from("(timeline: no completed spans recorded)\n");
    }
    let t0 = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    // A span whose end precedes its start (clock skew, hand-built
    // traces) must not drag `t1` below `t0` — that underflows the
    // width computation. Treat such spans as instantaneous at their
    // start.
    let t1 = spans
        .iter()
        .map(|s| s.end_ns.max(s.start_ns))
        .max()
        .unwrap_or(t0)
        .max(t0);
    let total_ns = (t1 - t0).max(1);

    // Group spans per (pid, tid) lane, deterministically ordered.
    let mut by_lane: BTreeMap<(u32, u32), Vec<&CompletedSpan>> = BTreeMap::new();
    for s in &spans {
        by_lane.entry((s.pid, s.tid)).or_default().push(s);
    }

    let mut table = Table::new(
        &format!("timeline ({:.3} ms total)", total_ns as f64 / 1e6),
        &["lane", "spans", "busy", "activity"],
    );
    for ((pid, tid), lane_spans) in &by_lane {
        let mut buckets = vec![false; width];
        let mut busy_ns = 0u64;
        // Merge per-lane span intervals so nesting doesn't double-count.
        let mut intervals: Vec<(u64, u64)> = lane_spans
            .iter()
            .map(|s| (s.start_ns, s.end_ns.max(s.start_ns)))
            .collect();
        intervals.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
        for (lo, hi) in intervals {
            match merged.last_mut() {
                Some((_, mhi)) if lo <= *mhi => *mhi = (*mhi).max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        for (lo, hi) in &merged {
            busy_ns += hi.saturating_sub(*lo);
            // Bucket indices pinned to [0, width): an interval sitting
            // exactly at `t1` (lo == t1, e.g. an instantaneous span at
            // the trace's end) maps to the last bucket rather than one
            // past it.
            let bucket_of = |t: u64| {
                let off = t.saturating_sub(t0) as u128;
                usize::try_from(off * width as u128 / u128::from(total_ns))
                    .unwrap_or(width - 1)
                    .min(width - 1)
            };
            let (b0, b1) = (bucket_of(*lo), bucket_of(*hi));
            for b in buckets.iter_mut().take(b1 + 1).skip(b0) {
                *b = true;
            }
        }
        let bar: String = buckets.iter().map(|&b| if b { '#' } else { '.' }).collect();
        // Merged intervals are disjoint and within [t0, t1], so this
        // cannot exceed 100 — the clamp guards the degenerate
        // `total_ns = 1` stand-in for an all-instantaneous trace.
        let busy_pct = (busy_ns as f64 * 100.0 / total_ns as f64).min(100.0);
        table.row(&[
            format!("{}/{}", trace.track_name(*pid), trace.lane_name(*tid)),
            lane_spans.len().to_string(),
            format!("{busy_pct:.0}%"),
            bar,
        ]);
    }
    let mut out = table.render();
    if trace.dropped > 0 {
        let per_lane: Vec<String> = trace
            .lanes
            .iter()
            .filter(|l| l.dropped > 0)
            .map(|l| format!("{}:{}", l.name, l.dropped))
            .collect();
        out.push_str(&format!(
            "warning: {} events dropped (rings full: {}) — timeline is incomplete\n",
            trace.dropped,
            per_lane.join(", "),
        ));
    }
    out
}

/// Render per-event-name counts as a table — the "what happened, how
/// often" companion to the timeline.
#[must_use]
pub fn render_event_counts(trace: &Trace) -> String {
    let mut table = Table::new("event counts", &["event", "count"]);
    for (name, count) in trace.counts_by_name() {
        table.row(&[name.to_string(), count.to_string()]);
    }
    if trace.dropped > 0 {
        table.row(&[
            "(dropped: ring full)".to_string(),
            trace.dropped.to_string(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::event::SpanKind;

    #[test]
    fn timeline_renders_lane_rows() {
        let col = Collector::new();
        let h = col.handle();
        let pid = h.register_track("demo");
        {
            let _s = h.span(pid, SpanKind::Crawl { pages: 1 });
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let text = render_timeline(&col.snapshot(), 32);
        assert!(text.contains("timeline"));
        assert!(text.contains("demo/"));
        assert!(
            text.contains('#'),
            "a completed span must mark busy buckets"
        );
    }

    #[test]
    fn empty_trace_has_fallback() {
        let col = Collector::new();
        let text = render_timeline(&col.snapshot(), 32);
        assert!(text.contains("no completed spans"));
    }

    /// A hand-built trace whose spans have exactly the given
    /// `(tid, start_ns, end_ns)` intervals.
    fn synthetic(spans: &[(u32, u64, u64)]) -> Trace {
        use crate::event::{Event, EventKind};
        let mut events = Vec::new();
        for (i, &(tid, start, end)) in spans.iter().enumerate() {
            let id = i as u64 + 1;
            let what = SpanKind::TaskRun { task: id };
            events.push(Event {
                ts_ns: start,
                pid: 0,
                tid,
                kind: EventKind::SpanBegin {
                    id,
                    parent: 0,
                    what,
                },
            });
            events.push(Event {
                ts_ns: end,
                pid: 0,
                tid,
                kind: EventKind::SpanEnd { id, what },
            });
        }
        Trace {
            events,
            ..Trace::default()
        }
    }

    #[test]
    fn all_instantaneous_spans_render_without_panicking() {
        // Every span has zero width and they all share one timestamp,
        // so t0 == t1 — the degenerate case that exercises the
        // `total_ns = 1` stand-in.
        let trace = synthetic(&[(1, 500, 500), (2, 500, 500)]);
        let text = render_timeline(&trace, 16);
        assert!(text.contains("timeline"));
        for line in text.lines().filter(|l| l.contains('%')) {
            let pct: f64 = line
                .split_whitespace()
                .find(|w| w.ends_with('%'))
                .and_then(|w| w.trim_end_matches('%').parse().ok())
                .unwrap();
            assert!((0.0..=100.0).contains(&pct), "busy% out of range: {line}");
        }
    }

    #[test]
    fn single_lane_zero_width_interval_at_t1_marks_last_bucket() {
        // An instantaneous span at the very end of the window used to
        // map to bucket index == width; it must pin to the last bucket.
        let trace = synthetic(&[(1, 0, 1000), (2, 1000, 1000)]);
        let text = render_timeline(&trace, 8);
        let lane2 = text
            .lines()
            .find(|l| l.contains("/?") && l.ends_with('#'))
            .or_else(|| {
                text.lines()
                    .find(|l| l.trim_end().ends_with('#') && l.contains(". "))
            });
        // Lane 2's bar must be idle everywhere except the final bucket.
        let bars: Vec<&str> = text
            .lines()
            .filter_map(|l| l.split_whitespace().last())
            .filter(|w| w.chars().all(|c| c == '#' || c == '.'))
            .collect();
        assert_eq!(bars.len(), 2, "two lanes expected in:\n{text}");
        assert_eq!(
            bars[1], ".......#",
            "end-pinned span must hit the last bucket only"
        );
        assert!(lane2.is_some() || bars[1].ends_with('#'));
    }

    #[test]
    fn end_before_start_span_is_clamped_not_underflowed() {
        // end_ns < start_ns (skewed clocks / malformed input): the
        // renderer must treat it as instantaneous, never underflow.
        let trace = synthetic(&[(1, 1000, 400)]);
        let text = render_timeline(&trace, 8);
        assert!(text.contains("0%"), "zero-duration span busy%: \n{text}");
        // Mixed with a sane span on another lane, totals stay sane.
        let trace = synthetic(&[(1, 1000, 400), (2, 0, 2000)]);
        let text = render_timeline(&trace, 8);
        for line in text.lines().filter(|l| l.contains('%')) {
            let pct: f64 = line
                .split_whitespace()
                .find(|w| w.ends_with('%'))
                .and_then(|w| w.trim_end_matches('%').parse().ok())
                .unwrap();
            assert!((0.0..=100.0).contains(&pct), "busy% out of range: {line}");
        }
    }

    #[test]
    fn full_window_span_is_100_percent_and_all_busy() {
        let trace = synthetic(&[(1, 100, 1100)]);
        let text = render_timeline(&trace, 8);
        assert!(text.contains("100%"));
        assert!(text.contains("########"));
    }

    #[test]
    fn timeline_footer_warns_about_dropped_events() {
        use crate::collector::Lane;
        let mut trace = synthetic(&[(1, 0, 1000)]);
        trace.dropped = 7;
        trace.lanes = vec![Lane {
            tid: 1,
            name: "worker-0".into(),
            dropped: 7,
        }];
        let text = render_timeline(&trace, 8);
        assert!(text.contains("7 events dropped"), "footer missing: {text}");
        assert!(
            text.contains("worker-0:7"),
            "per-lane attribution missing: {text}"
        );
        // No footer when nothing was dropped.
        let clean = synthetic(&[(1, 0, 1000)]);
        assert!(!render_timeline(&clean, 8).contains("dropped"));
    }

    #[test]
    fn event_counts_table_lists_names() {
        let col = Collector::new();
        let h = col.handle();
        let pid = h.register_track("demo");
        drop(h.span(
            pid,
            SpanKind::FetchAttempt {
                page: 1,
                attempt: 1,
            },
        ));
        drop(h.span(
            pid,
            SpanKind::FetchAttempt {
                page: 2,
                attempt: 1,
            },
        ));
        let text = render_event_counts(&col.snapshot());
        assert!(text.contains("fetch.attempt"));
        assert!(text.contains('2'));
    }
}
