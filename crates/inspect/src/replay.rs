//! Time-travel schedule replay and schedule diffing.
//!
//! Built on [`parc_explore::replay`]: an explored program runs under
//! virtual time with one logical scheduler decision per step, so a
//! recorded schedule can be re-executed to *any* prefix length — the
//! cooperative scheduler is deterministic, which makes "stepping
//! backward" simply "re-run a shorter prefix". [`TimeTravel`] wraps a
//! recording plus the program body into a cursor: `forward`, `back`
//! and `seek` reposition it, and every position exposes the executed
//! steps, the observations so far, and the *frontier* — the set of
//! operations that were runnable at the pause point, i.e. exactly the
//! choices the scheduler had.
//!
//! [`diff_schedules`] compares two recordings of the same program and
//! reports the first divergent decision (step index, what each run
//! did instead) plus the downstream consequences: step-count deltas,
//! verdict changes, and per-key observation deltas.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use parc_explore::replay::{replay_prefix, Recording, Step};
use parc_trace::Json;
use parc_util::table::Table;

/// A cursor over one recorded schedule: re-executes prefixes of the
/// schedule on demand to move "through time" in either direction.
pub struct TimeTravel {
    name: String,
    body: Arc<dyn Fn() + Send + Sync>,
    full: Recording,
    cursor: usize,
    view: Recording,
}

impl TimeTravel {
    /// Wrap `recording` (previously captured from `body` via
    /// [`parc_explore::replay`]) into a cursor positioned at the end
    /// of the schedule.
    pub fn new<F>(recording: Recording, body: F) -> TimeTravel
    where
        F: Fn() + Send + Sync + 'static,
    {
        let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
        let cursor = recording.len();
        let view = {
            let b = Arc::clone(&body);
            replay_prefix(&recording.name, move || b(), &recording.schedule, cursor)
        };
        TimeTravel {
            name: recording.name.clone(),
            body,
            full: recording,
            cursor,
            view,
        }
    }

    fn run_prefix(&self, prefix: usize) -> Recording {
        let body = Arc::clone(&self.body);
        replay_prefix(&self.name, move || body(), &self.full.schedule, prefix)
    }

    /// The recording this cursor replays.
    #[must_use]
    pub fn recording(&self) -> &Recording {
        &self.full
    }

    /// Total number of steps in the recorded schedule.
    #[must_use]
    pub fn len(&self) -> usize {
        self.full.len()
    }

    /// True when the recorded schedule is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.full.is_empty()
    }

    /// Current position: number of schedule steps applied.
    #[must_use]
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// True at position 0 (before the first decision).
    #[must_use]
    pub fn at_start(&self) -> bool {
        self.cursor == 0
    }

    /// True when the whole schedule has been applied.
    #[must_use]
    pub fn at_end(&self) -> bool {
        self.cursor >= self.full.len()
    }

    /// The replayed state at the current position: executed steps,
    /// observations so far, and the frontier of runnable operations.
    #[must_use]
    pub fn state(&self) -> &Recording {
        &self.view
    }

    /// Move to absolute position `pos` (clamped to the schedule
    /// length) by re-executing that prefix. Returns the state there.
    pub fn seek(&mut self, pos: usize) -> &Recording {
        let pos = pos.min(self.full.len());
        if pos != self.cursor {
            self.view = self.run_prefix(pos);
            self.cursor = pos;
        }
        &self.view
    }

    /// Advance one scheduler decision. Saturates at the end.
    pub fn forward(&mut self) -> &Recording {
        self.seek(self.cursor.saturating_add(1))
    }

    /// Step one scheduler decision backward (re-runs the shorter
    /// prefix). Saturates at the start.
    pub fn back(&mut self) -> &Recording {
        self.seek(self.cursor.saturating_sub(1))
    }

    /// The decision the recorded schedule takes *next* from the
    /// current position, if any.
    #[must_use]
    pub fn next_step(&self) -> Option<&Step> {
        self.full.steps.get(self.cursor)
    }

    /// Render the current position: one line per executed step with a
    /// `>` cursor marker, then the frontier of runnable operations.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "time-travel {} @ step {}/{}",
            self.name,
            self.cursor,
            self.full.len()
        );
        let mut t = Table::new("executed prefix", &["", "#", "thread", "op"]);
        for (i, s) in self.view.steps.iter().enumerate() {
            let marker = if i + 1 == self.cursor { ">" } else { " " };
            t.row(&[
                marker.to_string(),
                i.to_string(),
                format!("t{}", s.tid),
                s.what.clone(),
            ]);
        }
        out.push_str(&t.render());
        if !self.view.frontier.is_empty() {
            let _ = writeln!(out, "runnable now:");
            for s in &self.view.frontier {
                let _ = writeln!(out, "  t{}: {}", s.tid, s.what);
            }
        }
        if self.at_end() {
            let _ = writeln!(out, "verdict: {}", self.full.verdict());
        }
        out
    }
}

impl std::fmt::Debug for TimeTravel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimeTravel")
            .field("name", &self.name)
            .field("cursor", &self.cursor)
            .field("len", &self.full.len())
            .finish_non_exhaustive()
    }
}

/// The comparison of two recordings of the same program.
#[derive(Clone, Debug, Default)]
pub struct ScheduleDiff {
    /// First step index where the two schedules made different
    /// decisions (`None` when one is a prefix of the other or they
    /// are identical).
    pub first_divergence: Option<usize>,
    /// What recording `a` did at the divergence point.
    pub a_step: Option<Step>,
    /// What recording `b` did at the divergence point.
    pub b_step: Option<Step>,
    /// Steps each run executed beyond the common prefix.
    pub tail_a: usize,
    /// Steps `b` executed beyond the common prefix.
    pub tail_b: usize,
    /// Verdicts of the two runs (`completed`, `deadlocked`, …).
    pub verdicts: (String, String),
    /// Observation keys whose values differ: key → `(a, b)`, with 0
    /// standing in for "not observed".
    pub observation_deltas: BTreeMap<String, (i64, i64)>,
}

impl ScheduleDiff {
    /// True when the runs took identical decisions, reached the same
    /// verdict, and observed the same values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.first_divergence.is_none()
            && self.tail_a == 0
            && self.tail_b == 0
            && self.verdicts.0 == self.verdicts.1
            && self.observation_deltas.is_empty()
    }

    /// Human-readable summary of the divergence.
    #[must_use]
    pub fn render(&self) -> String {
        if self.is_empty() {
            return "schedules are identical\n".to_string();
        }
        let mut out = String::new();
        match self.first_divergence {
            Some(at) => {
                let _ = writeln!(out, "first divergent decision at step {at}:");
                if let Some(s) = &self.a_step {
                    let _ = writeln!(out, "  a: t{} {}", s.tid, s.what);
                }
                if let Some(s) = &self.b_step {
                    let _ = writeln!(out, "  b: t{} {}", s.tid, s.what);
                }
            }
            None => {
                let _ = writeln!(out, "one schedule is a prefix of the other");
            }
        }
        let _ = writeln!(
            out,
            "downstream: a ran {} more step(s), b ran {} more",
            self.tail_a, self.tail_b
        );
        let _ = writeln!(out, "verdicts: a={} b={}", self.verdicts.0, self.verdicts.1);
        for (key, (va, vb)) in &self.observation_deltas {
            let _ = writeln!(out, "observed {key}: a={va} b={vb} (delta {})", vb - va);
        }
        out
    }

    /// The diff as JSON.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let step = |s: &Option<Step>| {
            s.as_ref().map_or(Json::Null, |s| {
                [
                    ("tid", Json::from(s.tid)),
                    ("what", Json::from(s.what.as_str())),
                ]
                .into_iter()
                .collect()
            })
        };
        let deltas: Vec<Json> = self
            .observation_deltas
            .iter()
            .map(|(key, &(a, b))| {
                [
                    ("key", Json::from(key.as_str())),
                    ("a", Json::Num(a as f64)),
                    ("b", Json::Num(b as f64)),
                ]
                .into_iter()
                .collect()
            })
            .collect();
        [
            ("identical", Json::from(self.is_empty())),
            (
                "first_divergence",
                self.first_divergence.map_or(Json::Null, Json::from),
            ),
            ("a_step", step(&self.a_step)),
            ("b_step", step(&self.b_step)),
            ("tail_a", Json::from(self.tail_a)),
            ("tail_b", Json::from(self.tail_b)),
            ("verdict_a", Json::from(self.verdicts.0.as_str())),
            ("verdict_b", Json::from(self.verdicts.1.as_str())),
            ("observation_deltas", Json::Arr(deltas)),
        ]
        .into_iter()
        .collect()
    }
}

/// Compare two recordings of the same program: find the first step
/// where their decisions differ and summarise the downstream event
/// and metric deltas. Deterministic given deterministic inputs —
/// diffing a recording against itself is always empty.
#[must_use]
pub fn diff_schedules(a: &Recording, b: &Recording) -> ScheduleDiff {
    let common = a
        .steps
        .iter()
        .zip(&b.steps)
        .take_while(|(x, y)| x.tid == y.tid && x.what == y.what)
        .count();
    let diverged = common < a.len() && common < b.len();
    let mut observation_deltas = BTreeMap::new();
    for key in a.observations.keys().chain(b.observations.keys()) {
        let va = a.observations.get(key).copied().unwrap_or(0);
        let vb = b.observations.get(key).copied().unwrap_or(0);
        if va != vb {
            observation_deltas.insert(key.clone(), (va, vb));
        }
    }
    ScheduleDiff {
        first_divergence: diverged.then_some(common),
        a_step: diverged.then(|| a.steps[common].clone()),
        b_step: diverged.then(|| b.steps[common].clone()),
        tail_a: a.len() - common,
        tail_b: b.len() - common,
        verdicts: (a.verdict().to_string(), b.verdict().to_string()),
        observation_deltas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parc_explore::replay::{record_first, record_seeded};
    use parc_explore::sync::PlainCell;
    use parc_explore::{record, thread};

    /// Two threads racing plain increments on a shared cell — the
    /// smallest body with schedule-dependent outcomes.
    fn racy_body() {
        let cell = Arc::new(PlainCell::new("count", 0i64));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let cell = Arc::clone(&cell);
            handles.push(thread::spawn(move || {
                let v = cell.get();
                cell.set(v + 1);
            }));
        }
        for h in handles {
            h.join();
        }
        record("final", cell.get());
    }

    #[test]
    fn cursor_moves_forward_and_backward() {
        let rec = record_first("tt", 10_000, racy_body);
        assert!(rec.completed);
        let n = rec.len();
        let mut tt = TimeTravel::new(rec, racy_body);
        assert!(tt.at_end());
        assert_eq!(tt.state().steps.len(), n);

        tt.seek(0);
        assert!(tt.at_start());
        assert!(tt.state().steps.is_empty());
        assert!(
            !tt.state().frontier.is_empty(),
            "something is runnable at t=0"
        );

        tt.forward();
        assert_eq!(tt.cursor(), 1);
        assert_eq!(tt.state().steps.len(), 1);
        let next = tt
            .next_step()
            .expect("mid-schedule has a next step")
            .clone();
        tt.forward();
        assert_eq!(tt.state().steps.last().map(|s| s.tid), Some(next.tid));

        tt.back();
        assert_eq!(tt.cursor(), 1);
        assert_eq!(tt.state().steps.len(), 1);

        // Saturation at both ends.
        tt.seek(0);
        tt.back();
        assert!(tt.at_start());
        tt.seek(usize::MAX);
        assert!(tt.at_end());
        assert_eq!(tt.cursor(), n);
    }

    #[test]
    fn render_marks_cursor_and_frontier() {
        let rec = record_first("tt-render", 10_000, racy_body);
        let mut tt = TimeTravel::new(rec, racy_body);
        tt.seek(2);
        let text = tt.render();
        assert!(text.contains("@ step 2/"));
        assert!(
            text.contains("runnable now:"),
            "mid-run must show the frontier:\n{text}"
        );
        tt.seek(usize::MAX);
        assert!(tt.render().contains("verdict: completed"));
    }

    #[test]
    fn diff_of_identical_recordings_is_empty() {
        let a = record_seeded("a", 7, 10_000, racy_body);
        let b = record_seeded("b", 7, 10_000, racy_body);
        let d = diff_schedules(&a, &b);
        assert!(d.is_empty(), "same seed must diff empty: {}", d.render());
        assert!(d.render().contains("identical"));
    }

    #[test]
    fn diff_pinpoints_first_divergent_decision() {
        // Hunt a pair of seeds whose schedules differ; the racy body
        // has interleavings with different step orders.
        let base = record_seeded("base", 1, 10_000, racy_body);
        let mut other = None;
        for seed in 2..64 {
            let r = record_seeded("other", seed, 10_000, racy_body);
            if r.schedule != base.schedule {
                other = Some(r);
                break;
            }
        }
        let other = other.expect("some seed diverges from seed 1");
        let d = diff_schedules(&base, &other);
        assert!(!d.is_empty());
        let at = d.first_divergence.expect("divergence point found");
        assert_eq!(
            base.steps[..at],
            other.steps[..at],
            "prefix up to divergence matches"
        );
        assert!(d.a_step.is_some() && d.b_step.is_some());
        assert_ne!(
            d.a_step.as_ref().map(|s| (s.tid, s.what.clone())),
            d.b_step.as_ref().map(|s| (s.tid, s.what.clone())),
        );
        let json = parc_trace::parse_json(&d.to_json().to_string()).expect("diff JSON parses");
        assert!(json.get("first_divergence").is_some());
    }

    #[test]
    fn diff_reports_observation_deltas() {
        let mut a = record_first("a", 10_000, racy_body);
        let mut b = a.clone();
        a.observations.insert("final".to_string(), 1);
        b.observations.insert("final".to_string(), 2);
        b.observations.insert("extra".to_string(), 9);
        let d = diff_schedules(&a, &b);
        assert_eq!(d.observation_deltas["final"], (1, 2));
        assert_eq!(d.observation_deltas["extra"], (0, 9));
        assert!(d.render().contains("delta 1"));
    }
}
