//! The traced run's layer table. Each chunk of operations runs on a
//! fresh runtime whose `parc_trace::Collector` also records the
//! pipeline (through `run_cell`'s trace parameter). The benchmark's own
//! spans are the operation windows around each library call; the
//! collector's spans (`task.run` on every lane, `mark.tick` on the tick
//! thread) split the call's wall time on the calling thread into layer
//! rows that, with `unattributed`, add up to the traced wall time.

use std::collections::BTreeMap;
use std::time::Instant;

use parc_trace::{SpanKind, Trace};

use crate::ops::Op;
use crate::stats::Intervals;

/// The benchmark's own spans for one operation, in nanoseconds since
/// the collector was created.
pub struct OpWindow {
    op: (u64, u64),
    call: (u64, u64),
}

impl OpWindow {
    pub fn new(base: Instant, op: &Op) -> Self {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(base).as_nanos()).unwrap_or(u64::MAX)
        };
        Self {
            op: (ns(op.start), ns(op.end)),
            call: (ns(op.call_start), ns(op.call_end)),
        }
    }
}

const MARK_ROWS: [&str; 4] = [
    "course::pipeline run_cell set-up, supervisor tree, report",
    "course::pipeline serial tick (generate_tick, admit, clone, ack walk)",
    "partask batch join wait (workers in stage closures)",
    "parc-analyze + course::assessment closures helped on tick thread",
];
const TREE_ROWS: [&str; 3] = [
    "partask task bodies helped on the caller",
    "partask join wait (workers in task bodies)",
    "partask scheduling gap (no task body running)",
];
const UNATTRIBUTED: &str = "unattributed (benchmark harness around calls)";

/// Wall-time attribution accumulated over traced chunks.
pub struct Attribution {
    marking: bool,
    rows: Vec<u64>,
    unattributed_ns: u64,
    /// Traced wall: the operations' windows.
    pub wall_ns: u64,
    /// Wall inside library calls.
    pub call_ns: u64,
    /// Task-body time summed over lanes (single-thread work).
    pub task_ns: u64,
    /// Task-body time on the pool's worker lanes.
    pub worker_busy_ns: u64,
    /// Calling-thread time while no task body ran anywhere, in cells.
    pub serial_ns: u64,
    pub tick_ms: Vec<f64>,
    pub events: u64,
    pub dropped: u64,
}

impl Attribution {
    pub fn new(marking: bool) -> Self {
        let rows = if marking {
            MARK_ROWS.len()
        } else {
            TREE_ROWS.len()
        };
        Self {
            marking,
            rows: vec![0; rows],
            unattributed_ns: 0,
            wall_ns: 0,
            call_ns: 0,
            task_ns: 0,
            worker_busy_ns: 0,
            serial_ns: 0,
            tick_ms: Vec::new(),
            events: 0,
            dropped: 0,
        }
    }

    /// Attribute one chunk: its trace and the benchmark's op windows.
    pub fn add(&mut self, trace: &Trace, windows: &[OpWindow]) {
        let ops = Intervals::from_unsorted(windows.iter().map(|w| w.op).collect());
        let calls = Intervals::from_unsorted(windows.iter().map(|w| w.call).collect());
        let mut caller = Vec::new();
        let mut workers: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        let mut ticks = Vec::new();
        for span in trace.spans() {
            let iv = (span.start_ns, span.end_ns);
            match span.what {
                SpanKind::TaskRun { .. } if trace.lane_name(span.tid) == "main" => caller.push(iv),
                SpanKind::TaskRun { .. } => workers.entry(span.tid).or_default().push(iv),
                SpanKind::MarkingTick { .. } => {
                    ticks.push(iv);
                    self.tick_ms.push(span.duration_ns() as f64 / 1e6);
                }
                _ => {}
            }
        }
        let caller = Intervals::from_unsorted(caller).intersect(&calls);
        let lanes: Vec<Intervals> = workers
            .into_values()
            .map(|v| Intervals::from_unsorted(v).intersect(&calls))
            .collect();
        let busy = lanes
            .iter()
            .fold(Intervals::default(), |acc, lane| acc.union(lane));
        let lane_ns: u64 = lanes.iter().map(Intervals::measure).sum();

        let helped = caller.measure();
        let rows: Vec<u64> = if self.marking {
            let ticks = Intervals::from_unsorted(ticks).intersect(&calls);
            let join_wait = ticks.intersect(&busy).measure_minus(&caller);
            let tick_serial = ticks.measure_minus(&caller) - join_wait;
            let cell_self = calls.measure_minus(&ticks.union(&caller));
            self.serial_ns += cell_self + tick_serial;
            vec![cell_self, tick_serial, join_wait, helped]
        } else {
            let join_wait = busy.measure_minus(&caller);
            let gap = calls.measure_minus(&busy.union(&caller));
            vec![helped, join_wait, gap]
        };
        for (acc, ns) in self.rows.iter_mut().zip(rows) {
            *acc += ns;
        }
        self.unattributed_ns += ops.measure() - calls.measure();
        self.wall_ns += ops.measure();
        self.call_ns += calls.measure();
        self.task_ns += helped + lane_ns;
        self.worker_busy_ns += lane_ns;
        self.events += trace.len() as u64;
        self.dropped += trace.dropped;
    }

    /// The layer self-time table; rows plus `unattributed` sum to the
    /// traced wall time.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let names: &[&str] = if self.marking { &MARK_ROWS } else { &TREE_ROWS };
        let wall_ms = self.wall_ns as f64 / 1e6;
        let mut out = format!("layer self-time table (traced wall {wall_ms:.3} ms)\n");
        let rows = names
            .iter()
            .zip(&self.rows)
            .chain([(&UNATTRIBUTED, &self.unattributed_ns)]);
        let mut sum = 0;
        for (name, &ns) in rows {
            sum += ns;
            let ms = ns as f64 / 1e6;
            let _ = writeln!(
                out,
                "  {name:<70} {ms:>12.3} ms {:>6.2} %",
                100.0 * ms / wall_ms
            );
        }
        let _ = writeln!(
            out,
            "  {:<70} {:>12.3} ms (= traced wall)",
            "sum of rows",
            sum as f64 / 1e6
        );
        out
    }
}
