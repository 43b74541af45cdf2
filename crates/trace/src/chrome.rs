//! Chrome Trace Event Format exporter.
//!
//! Emits the `{"traceEvents": [...]}` JSON that `chrome://tracing` and
//! Perfetto load directly: one *process* per registered track (i.e.
//! per instrumented runtime), one *thread* per recording OS thread,
//! `B`/`E` duration pairs for spans and `i` instants for marks. Each
//! event is one [`Json`] object, written one line at a time.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::collector::Trace;
use crate::event::{EventKind, MarkKind, SpanKind};
use crate::json::Json;

/// Render `trace` as a Chrome Trace Event Format JSON document.
#[must_use]
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.events.len() * 96 + 256);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |event: Json| {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        let _ = write!(out, "{event}");
    };

    // Metadata: name every (pid) and (pid, tid) lane actually used, so
    // the viewer shows runtime/thread names instead of bare numbers.
    let mut pids: BTreeSet<u32> = BTreeSet::new();
    let mut lanes: BTreeSet<(u32, u32)> = BTreeSet::new();
    for ev in &trace.events {
        pids.insert(ev.pid);
        lanes.insert((ev.pid, ev.tid));
    }
    for &pid in &pids {
        let name = vec![("name", trace.track_name(pid).into())];
        push(event("process_name", "M", pid, 0, None, name));
    }
    for &(pid, tid) in &lanes {
        let name = vec![("name", trace.lane_name(tid).into())];
        push(event("thread_name", "M", pid, tid, None, name));
    }
    // Ring-overflow metadata: one entry per overflowing lane, so a
    // viewer shows *where* the trace is incomplete.
    for lane in trace.lanes.iter().filter(|l| l.dropped > 0) {
        let dropped = vec![("dropped", lane.dropped.into())];
        push(event(
            "trace_dropped_events",
            "M",
            0,
            lane.tid,
            None,
            dropped,
        ));
    }

    for ev in &trace.events {
        let (name, ph, args) = match ev.kind {
            EventKind::SpanBegin { id, parent, what } => {
                let mut args = span_args(what);
                args.push(("span", id.into()));
                args.push(("parent", parent.into()));
                (what.name(), "B", args)
            }
            EventKind::SpanEnd { id, what } => (what.name(), "E", vec![("span", id.into())]),
            EventKind::Mark { what } => (what.name(), "i", mark_args(what)),
        };
        push(event(name, ph, ev.pid, ev.tid, Some(ev.ts_ns), args));
    }
    // `otherData` is the Chrome-format slot for document-level
    // metadata; record the loss total so consumers need not sum lanes.
    let other: Json = [("dropped_events", trace.dropped)].into_iter().collect();
    let _ = writeln!(out, "\n],\"otherData\":{other}}}");
    out
}

/// The members of an event's `args` object.
type Args = Vec<(&'static str, Json)>;

/// One event object. Timestamped events (`ts_ns`) carry `ts` in
/// microseconds; instants are thread-scoped.
fn event(name: &str, ph: &str, pid: u32, tid: u32, ts_ns: Option<u64>, args: Args) -> Json {
    let mut members = vec![
        ("name", Json::from(name)),
        ("ph", ph.into()),
        ("pid", pid.into()),
        ("tid", tid.into()),
        ("args", args.into_iter().collect()),
    ];
    if let Some(ts_ns) = ts_ns {
        members.push(("ts", (ts_ns as f64 / 1000.0).into()));
    }
    if ph == "i" {
        members.push(("s", "t".into()));
    }
    members.into_iter().collect()
}

/// The `args` members a span kind adds to its begin event.
fn span_args(what: SpanKind) -> Args {
    match what {
        SpanKind::TaskRun { task } => vec![("task", task.into())],
        SpanKind::BarrierWait { member } | SpanKind::Region { member } => {
            vec![("member", member.into())]
        }
        SpanKind::FetchAttempt { page, attempt } => {
            vec![("page", page.into()), ("attempt", attempt.into())]
        }
        SpanKind::Crawl { pages } => vec![("pages", pages.into())],
        SpanKind::MarkingTick { tick } => vec![("tick", tick.into())],
    }
}

/// The `args` members of a mark.
fn mark_args(what: MarkKind) -> Args {
    match what {
        MarkKind::TaskSpawn { task, parent_span } => {
            vec![("task", task.into()), ("parent_span", parent_span.into())]
        }
        MarkKind::TaskOutcome { task, outcome } => {
            vec![("task", task.into()), ("outcome", outcome.name().into())]
        }
        MarkKind::Steal { victim } => vec![("victim", victim.into())],
        MarkKind::BarrierRelease { member, waited_ns } => {
            vec![("member", member.into()), ("waited_ns", waited_ns.into())]
        }
        MarkKind::BarrierPoison { member } => vec![("member", member.into())],
        MarkKind::ChunkDispatch {
            construct,
            lo,
            len,
            schedule,
        } => vec![
            ("construct", construct.into()),
            ("lo", lo.into()),
            ("len", len.into()),
            ("schedule", schedule.name().into()),
        ],
        MarkKind::FetchResult {
            page,
            attempt,
            result,
        } => vec![
            ("page", page.into()),
            ("attempt", attempt.into()),
            ("result", result.name().into()),
        ],
        MarkKind::BreakerTransition { from, to } => {
            vec![("from", from.name().into()), ("to", to.name().into())]
        }
        MarkKind::FaultInjected {
            key,
            attempt,
            fault,
        } => {
            vec![
                ("key", key.into()),
                ("attempt", attempt.into()),
                ("fault", fault.name().into()),
            ]
        }
        MarkKind::GuiProbe { latency_ns } => vec![("latency_ns", latency_ns.into())],
        MarkKind::ChildStart { child, incarnation }
        | MarkKind::ChildRestart { child, incarnation } => {
            vec![("child", child.into()), ("incarnation", incarnation.into())]
        }
        MarkKind::ChildExit {
            child,
            incarnation,
            outcome,
        } => vec![
            ("child", child.into()),
            ("incarnation", incarnation.into()),
            ("outcome", outcome.name().into()),
        ],
        MarkKind::ChildEscalate { child } => vec![("child", child.into())],
        MarkKind::MarkingStage { stage, lane, count } => {
            vec![
                ("stage", stage.name().into()),
                ("lane", lane.into()),
                ("count", count.into()),
            ]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::event::{FetchTag, Outcome};
    use crate::json::{parse, Json};

    fn sample_trace() -> Trace {
        let col = Collector::new();
        let h = col.handle();
        let pid = h.register_track("partask");
        {
            let _crawl = h.span(pid, SpanKind::Crawl { pages: 3 });
            {
                let _a = h.span(
                    pid,
                    SpanKind::FetchAttempt {
                        page: 1,
                        attempt: 1,
                    },
                );
                h.mark(
                    pid,
                    MarkKind::FetchResult {
                        page: 1,
                        attempt: 1,
                        result: FetchTag::Ok,
                    },
                );
            }
            h.mark(
                pid,
                MarkKind::TaskOutcome {
                    task: 5,
                    outcome: Outcome::Completed,
                },
            );
        }
        col.snapshot()
    }

    #[test]
    fn exporter_emits_valid_json() {
        let json = to_chrome_json(&sample_trace());
        let doc = parse(&json).expect("exporter output must parse");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 process_name + 1 thread_name + 2 B + 2 E + 2 i.
        assert_eq!(events.len(), 8);
        for ev in events {
            assert!(ev.get("name").unwrap().as_str().is_some());
            assert!(ev.get("ph").unwrap().as_str().is_some());
            assert!(ev.get("pid").unwrap().as_f64().is_some());
        }
    }

    #[test]
    fn span_pairs_balance_per_lane() {
        let json = to_chrome_json(&sample_trace());
        let doc = parse(&json).unwrap();
        let mut depth = 0i64;
        for ev in doc.get("traceEvents").unwrap().as_arr().unwrap() {
            match ev.get("ph").unwrap().as_str().unwrap() {
                "B" => depth += 1,
                "E" => {
                    depth -= 1;
                    assert!(depth >= 0, "E without matching B");
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "every B needs a matching E");
    }

    #[test]
    fn metadata_names_tracks_and_lanes() {
        let json = to_chrome_json(&sample_trace());
        let doc = parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let proc_meta = events
            .iter()
            .find(|e| e.get("name") == Some(&Json::Str("process_name".into())))
            .expect("process_name metadata present");
        assert_eq!(
            proc_meta.get("args").unwrap().get("name").unwrap().as_str(),
            Some("partask")
        );
        assert!(events
            .iter()
            .any(|e| e.get("name") == Some(&Json::Str("thread_name".into()))));
    }

    #[test]
    fn dropped_events_surface_in_metadata() {
        let col = Collector::with_thread_capacity(2);
        let h = col.handle();
        for v in 0..5 {
            h.mark(0, MarkKind::Steal { victim: v });
        }
        let json = to_chrome_json(&col.snapshot());
        let doc = parse(&json).expect("valid JSON with otherData");
        assert_eq!(
            doc.get("otherData")
                .unwrap()
                .get("dropped_events")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let meta = events
            .iter()
            .find(|e| e.get("name") == Some(&Json::Str("trace_dropped_events".into())))
            .expect("per-lane dropped metadata present");
        assert_eq!(
            meta.get("args").unwrap().get("dropped").unwrap().as_f64(),
            Some(3.0)
        );
        // A clean trace carries a zero total and no per-lane entries.
        let clean = to_chrome_json(&sample_trace());
        let doc = parse(&clean).unwrap();
        assert_eq!(
            doc.get("otherData")
                .unwrap()
                .get("dropped_events")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn timestamps_are_microseconds_nondecreasing() {
        let json = to_chrome_json(&sample_trace());
        let doc = parse(&json).unwrap();
        let mut last = f64::NEG_INFINITY;
        for ev in doc.get("traceEvents").unwrap().as_arr().unwrap() {
            if ev.get("ph").unwrap().as_str() == Some("M") {
                continue;
            }
            let ts = ev.get("ts").unwrap().as_f64().unwrap();
            assert!(ts >= last, "events must be time-ordered");
            last = ts;
        }
    }
}
