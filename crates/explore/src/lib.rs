//! # parc-explore — deterministic schedule exploration + race detection
//!
//! The workspace's first *analysis* layer: a model-checking executor
//! for the concurrency demos. `memmodel`'s own docs used to concede
//! that a demo "allows a race \[but\] cannot force the scheduler to
//! exhibit it" — this crate removes the scheduler from the equation.
//! Programs are written against shim primitives
//! ([`sync::AtomicU64`], [`sync::PlainCell`], [`sync::Mutex`],
//! [`sync::thread::spawn`]) whose every load/store/RMW/lock is a
//! yield point driven by a controlled scheduler, and each explored
//! execution is swept by a FastTrack-style vector-clock pass that
//! reports concrete racing access pairs.
//!
//! Two strategies:
//!
//! * [`Strategy::Dfs`] — exhaustive depth-first enumeration of
//!   interleavings with sleep-set partial-order reduction (redundant
//!   orders of commuting operations are pruned; every Mazurkiewicz
//!   trace is still visited, so race verdicts are exact). For small
//!   litmus tests this *proves* "this code races" / "this fix is
//!   race-free over the whole space".
//! * [`Strategy::Pct`] — a seeded PCT-style randomised scheduler
//!   (random thread priorities with a few priority-change points per
//!   execution) for workloads whose interleaving space is too large
//!   to enumerate. Seeding follows the `faultsim` convention: same
//!   seed ⇒ bit-identical schedule sequence and identical reports.
//!
//! The ported litmus catalogue lives in [`litmus`]; verdicts feed the
//! `memmodel`/`taskcol` test suites, experiment E-RACE and the CI
//! `explore` job.
//!
//! Interleaving exploration is sequentially consistent: it proves or
//! refutes *data-race freedom* (the license hardware and compilers
//! need for reordering), not weak-memory outcomes themselves — the
//! store-buffer litmus is reported through its race, not through an
//! impossible-under-SC `r1 = r2 = 0` observation.

pub mod clock;
mod ctl;
pub mod litmus;
pub mod op;
mod race;
pub mod replay;
pub mod sync;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use parc_util::rng::{SplitMix64, Xoshiro256};
use parc_util::table::Table;

pub use ctl::record;
pub use op::{Op, OpKind};
pub use sync::thread;

/// How the explorer walks the interleaving space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Exhaustive DFS with sleep-set partial-order reduction.
    Dfs,
    /// Seeded PCT-style random scheduling.
    Pct {
        /// RNG seed (same seed ⇒ identical exploration).
        seed: u64,
        /// Number of schedules to run.
        iterations: usize,
        /// Priority-change points per schedule (PCT depth − 1).
        depth: usize,
    },
}

/// Exploration configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Name used in reports.
    pub name: String,
    /// The exploration strategy.
    pub strategy: Strategy,
    /// Abort any single execution beyond this many steps.
    pub max_steps: usize,
    /// Stop the whole exploration after this many executions.
    pub max_schedules: usize,
    /// Return as soon as one racing schedule has been found.
    pub stop_at_first_race: bool,
}

impl Config {
    /// Exhaustive DFS configuration with litmus-friendly bounds.
    #[must_use]
    pub fn dfs(name: &str) -> Self {
        Config {
            name: name.to_string(),
            strategy: Strategy::Dfs,
            max_steps: 10_000,
            max_schedules: 100_000,
            stop_at_first_race: false,
        }
    }

    /// DFS configuration tuned for fuzzing corpora: tight bounds (the
    /// generated programs are tiny) and early exit on the first
    /// witnessed race, so thousands of programs stay affordable.
    #[must_use]
    pub fn fuzz(name: &str) -> Self {
        Config {
            name: name.to_string(),
            strategy: Strategy::Dfs,
            max_steps: 2_000,
            max_schedules: 4_000,
            stop_at_first_race: true,
        }
    }

    /// Seeded PCT configuration.
    #[must_use]
    pub fn pct(name: &str, seed: u64, iterations: usize, depth: usize) -> Self {
        Config {
            name: name.to_string(),
            strategy: Strategy::Pct { seed, iterations, depth },
            max_steps: 10_000,
            max_schedules: iterations,
            stop_at_first_race: false,
        }
    }

    /// Builder-style override of the per-execution step bound.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Builder-style override of the schedule budget.
    #[must_use]
    pub fn with_max_schedules(mut self, max_schedules: usize) -> Self {
        self.max_schedules = max_schedules;
        self
    }

    /// Builder-style early exit on the first racing schedule.
    #[must_use]
    pub fn stop_at_first_race(mut self, stop: bool) -> Self {
        self.stop_at_first_race = stop;
        self
    }
}

/// One access of a racing pair, resolved to human terms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceAccess {
    /// Simulated thread id.
    pub tid: usize,
    /// Step index within the witnessing schedule.
    pub step: usize,
    /// Operation description, e.g. `count.write()`.
    pub what: String,
}

/// A data race proven by a concrete schedule.
#[derive(Clone, Debug)]
pub struct RaceReport {
    /// The shared location the pair touches.
    pub location: String,
    /// The earlier access of the pair.
    pub first: RaceAccess,
    /// The later access of the pair.
    pub second: RaceAccess,
    /// The witnessing schedule (chosen thread per step).
    pub schedule: Vec<usize>,
    /// The full event trace of the witnessing execution:
    /// `(tid, description)` per step.
    pub trace: Vec<(usize, String)>,
}

impl RaceReport {
    /// Render the witnessing interleaving as a one-column-per-thread
    /// diagram with the racing pair marked — the classic litmus-table
    /// layout from the memory-model handout.
    #[must_use]
    pub fn render(&self) -> String {
        let n_threads = self.trace.iter().map(|(t, _)| t + 1).max().unwrap_or(1);
        let mut header: Vec<String> = vec!["step".to_string()];
        header.extend((0..n_threads).map(|t| format!("T{t}")));
        header.push(String::new());
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = Table::new(
            &format!("racing schedule for `{}`", self.location),
            &header_refs,
        );
        for (step, (tid, what)) in self.trace.iter().enumerate() {
            let mut row: Vec<String> = vec![step.to_string()];
            for t in 0..n_threads {
                row.push(if t == *tid { what.clone() } else { "·".to_string() });
            }
            row.push(if step == self.first.step {
                "← race (first)".to_string()
            } else if step == self.second.step {
                "← race (second)".to_string()
            } else {
                String::new()
            });
            table.row(&row);
        }
        table.render()
    }
}

/// Everything one exploration produced.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Configuration name.
    pub name: String,
    /// Executions that ran to completion.
    pub schedules: usize,
    /// Executions abandoned by sleep-set pruning (redundant orders).
    pub pruned: usize,
    /// Executions abandoned by the step bound.
    pub truncated: usize,
    /// Total granted steps across all executions.
    pub steps_total: usize,
    /// DFS only: the whole interleaving space was enumerated within
    /// the budgets (race-freedom below is then a proof, not a sample).
    pub exhausted: bool,
    /// Distinct racing pairs found, with witnessing schedules.
    pub races: Vec<RaceReport>,
    /// Deadlocked schedules found.
    pub deadlocks: usize,
    /// Blocked-thread description of the first deadlock.
    pub first_deadlock: Option<String>,
    /// Schedule index (0-based execution number) of the first race.
    pub first_race_schedule: Option<usize>,
    /// Step index of the racing (second) access in that schedule.
    pub first_race_depth: Option<usize>,
    /// Fingerprint per executed schedule, in exploration order — the
    /// determinism tests compare these across reruns.
    pub schedule_log: Vec<u64>,
    /// Values recorded via [`record`], aggregated across schedules.
    pub observations: BTreeMap<String, BTreeSet<i64>>,
}

impl ExploreReport {
    /// No race was found anywhere in the explored space.
    #[must_use]
    pub fn race_free(&self) -> bool {
        self.races.is_empty()
    }

    /// One-word verdict for tables.
    #[must_use]
    pub fn verdict(&self) -> &'static str {
        if !self.races.is_empty() {
            "race found"
        } else if self.exhausted {
            "race-free (proved)"
        } else {
            "race-free (explored)"
        }
    }

    /// Render the summary plus every racing schedule.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = Table::new(
            &format!("explore `{}`", self.name),
            &["metric", "value"],
        );
        table.row(&["schedules".to_string(), self.schedules.to_string()]);
        table.row(&["pruned (POR)".to_string(), self.pruned.to_string()]);
        table.row(&["truncated".to_string(), self.truncated.to_string()]);
        table.row(&["steps".to_string(), self.steps_total.to_string()]);
        table.row(&["deadlocks".to_string(), self.deadlocks.to_string()]);
        table.row(&["races".to_string(), self.races.len().to_string()]);
        table.row(&["verdict".to_string(), self.verdict().to_string()]);
        for (key, values) in &self.observations {
            let rendered: Vec<String> = values.iter().map(ToString::to_string).collect();
            table.row(&[format!("observed {key}"), format!("{{{}}}", rendered.join(", "))]);
        }
        let mut out = table.render();
        for race in &self.races {
            out.push('\n');
            out.push_str(&race.render());
        }
        if let Some(d) = &self.first_deadlock {
            out.push('\n');
            out.push_str(&format!("first deadlock: {d}\n"));
        }
        out
    }

    /// Deterministic digest of the whole exploration (schedule
    /// sequence + race pairs) for rerun comparisons.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xE_A75_u64;
        for s in &self.schedule_log {
            h = SplitMix64::mix(h ^ s);
        }
        for r in &self.races {
            h = SplitMix64::mix(h ^ r.first.step as u64 ^ (r.second.step as u64) << 16);
            for b in r.location.bytes() {
                h = SplitMix64::mix(h ^ u64::from(b));
            }
        }
        h
    }
}

/// A DFS stack frame: one scheduling decision plus the bookkeeping
/// needed to enumerate alternatives (tried/sleep sets) and to derive
/// child sleep sets (the enabled threads' pending operations).
struct Frame {
    chosen: usize,
    enabled: BTreeMap<usize, Op>,
    sleep: BTreeSet<usize>,
}

fn schedule_fingerprint(schedule: &[usize]) -> u64 {
    let mut h = 0x5EED_u64;
    for &tid in schedule {
        h = SplitMix64::mix(h ^ (tid as u64 + 1));
    }
    h
}

/// Explore every interleaving of `body` under `config` and report.
///
/// `body` is the litmus program's "main": it creates shim state,
/// spawns simulated threads via [`thread::spawn`], joins them, and
/// may [`record`] observations. It is re-run once per explored
/// schedule, so it must be a `Fn` closure. A panic inside a simulated
/// thread (e.g. a failed assertion) aborts the exploration and is
/// re-raised on the caller's thread.
pub fn explore<F>(config: Config, body: F) -> ExploreReport
where
    F: Fn() + Send + Sync + 'static,
{
    let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
    let mut report = ExploreReport {
        name: config.name.clone(),
        exhausted: false,
        ..ExploreReport::default()
    };
    let mut race_keys: BTreeSet<(String, String, String)> = BTreeSet::new();
    let mut executions = 0usize;

    let absorb = |report: &mut ExploreReport,
                      race_keys: &mut BTreeSet<(String, String, String)>,
                      outcome: &ctl::ExecOutcome| {
        report.steps_total += outcome.schedule.len();
        report.schedule_log.push(schedule_fingerprint(&outcome.schedule));
        if outcome.pruned {
            report.pruned += 1;
            return;
        }
        if outcome.truncated {
            report.truncated += 1;
            return;
        }
        if let Some(d) = &outcome.deadlock {
            report.deadlocks += 1;
            if report.first_deadlock.is_none() {
                report.first_deadlock = Some(d.clone());
            }
        }
        if outcome.completed {
            report.schedules += 1;
            for (key, value) in &outcome.observations {
                report.observations.entry(key.clone()).or_default().insert(*value);
            }
        }
        let describe = |event: usize| {
            let ev = &outcome.events[event];
            let name = ev.op.loc.map(|l| outcome.loc_names[l].as_str()).unwrap_or("");
            (ev.tid, ev.op.describe(name))
        };
        for raw in &outcome.races {
            let location = outcome.loc_names[raw.loc].clone();
            let (tid1, what1) = describe(raw.first_event);
            let (tid2, what2) = describe(raw.second_event);
            let key = (location.clone(), what1.clone(), what2.clone());
            if !race_keys.insert(key) {
                continue;
            }
            if report.first_race_schedule.is_none() {
                report.first_race_schedule = Some(report.schedule_log.len() - 1);
                report.first_race_depth = Some(raw.second_event);
            }
            report.races.push(RaceReport {
                location,
                first: RaceAccess { tid: tid1, step: raw.first_event, what: what1 },
                second: RaceAccess { tid: tid2, step: raw.second_event, what: what2 },
                schedule: outcome.schedule.clone(),
                trace: outcome
                    .events
                    .iter()
                    .map(|ev| {
                        let name =
                            ev.op.loc.map(|l| outcome.loc_names[l].as_str()).unwrap_or("");
                        (ev.tid, ev.op.describe(name))
                    })
                    .collect(),
            });
        }
    };

    match config.strategy {
        Strategy::Dfs => {
            let mut frames: Vec<Frame> = Vec::new();
            let mut space_exhausted = false;
            loop {
                if executions >= config.max_schedules {
                    break;
                }
                // Run one execution, replaying the frame prefix and
                // extending it by first-untried choices.
                let outcome = {
                    let frames = &mut frames;
                    ctl::run_one(Arc::clone(&body), config.max_steps, move |step, enabled| {
                        if step < frames.len() {
                            return Some(frames[step].chosen);
                        }
                        let enabled_map: BTreeMap<usize, Op> =
                            enabled.iter().map(|(t, op)| (*t, op.clone())).collect();
                        let sleep: BTreeSet<usize> = match frames.last() {
                            None => BTreeSet::new(),
                            Some(parent) => {
                                let chosen_op = &parent.enabled[&parent.chosen];
                                parent
                                    .sleep
                                    .iter()
                                    .filter(|u| {
                                        parent
                                            .enabled
                                            .get(u)
                                            .is_some_and(|op| op.independent(chosen_op))
                                    })
                                    .copied()
                                    .collect()
                            }
                        };
                        let choice = enabled_map.keys().find(|t| !sleep.contains(t)).copied();
                        match choice {
                            Some(tid) => {
                                frames.push(Frame { chosen: tid, enabled: enabled_map, sleep });
                                Some(tid)
                            }
                            // Every enabled thread is asleep: this
                            // whole subtree is covered elsewhere.
                            None => None,
                        }
                    })
                };
                executions += 1;
                if let Some(p) = outcome.panic {
                    panic!("explore `{}`: {p}", config.name);
                }
                absorb(&mut report, &mut race_keys, &outcome);
                if config.stop_at_first_race && !report.races.is_empty() {
                    break;
                }
                // Backtrack: mark the deepest choice as slept and move
                // to the next untried-awake sibling.
                loop {
                    let Some(frame) = frames.last_mut() else {
                        space_exhausted = true;
                        break;
                    };
                    frame.sleep.insert(frame.chosen);
                    let next = frame
                        .enabled
                        .keys()
                        .find(|t| !frame.sleep.contains(t))
                        .copied();
                    match next {
                        Some(tid) => {
                            frame.chosen = tid;
                            break;
                        }
                        None => {
                            frames.pop();
                        }
                    }
                }
                if space_exhausted {
                    report.exhausted = true;
                    break;
                }
            }
        }
        Strategy::Pct { seed, iterations, depth } => {
            let base = Xoshiro256::seed_from_u64(seed);
            for iteration in 0..iterations.min(config.max_schedules) {
                let mut rng = base.stream(iteration);
                let change_points: BTreeSet<usize> = (0..depth.saturating_sub(1))
                    .map(|_| rng.gen_range_usize(0..config.max_steps.clamp(1, 128)))
                    .collect();
                let mut priorities: BTreeMap<usize, i128> = BTreeMap::new();
                let mut demote_floor: i128 = -1;
                let outcome = {
                    let rng = &mut rng;
                    let priorities = &mut priorities;
                    let demote_floor = &mut demote_floor;
                    let change_points = &change_points;
                    ctl::run_one(Arc::clone(&body), config.max_steps, move |step, enabled| {
                        for (tid, _) in enabled {
                            priorities
                                .entry(*tid)
                                .or_insert_with(|| i128::from(rng.next_u64()));
                        }
                        let top = |prio: &BTreeMap<usize, i128>| {
                            enabled
                                .iter()
                                .map(|(t, _)| *t)
                                .max_by_key(|t| (prio[t], usize::MAX - *t))
                        };
                        if change_points.contains(&step) {
                            if let Some(t) = top(priorities) {
                                priorities.insert(t, *demote_floor);
                                *demote_floor -= 1;
                            }
                        }
                        top(priorities)
                    })
                };
                if let Some(p) = outcome.panic {
                    panic!("explore `{}`: {p}", config.name);
                }
                absorb(&mut report, &mut race_keys, &outcome);
                if config.stop_at_first_race && !report.races.is_empty() {
                    break;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use sync::{Mutex, PlainCell};

    fn two_plain_increments() -> impl Fn() + Send + Sync + 'static {
        || {
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
    }

    #[test]
    fn dfs_finds_lost_update_and_both_outcomes() {
        let report = explore(Config::dfs("2-increments"), two_plain_increments());
        assert!(report.exhausted, "tiny space must be fully enumerated");
        assert!(!report.race_free(), "plain increments race");
        let outcomes = &report.observations["final"];
        assert!(outcomes.contains(&1), "a lost update must be witnessed: {outcomes:?}");
        assert!(outcomes.contains(&2), "the correct outcome must also appear");
        let race = &report.races[0];
        assert_eq!(race.location, "count");
        assert!(race.render().contains("race"));
    }

    #[test]
    fn dfs_proves_mutex_counter_race_free() {
        let report = explore(Config::dfs("mutex-counter"), || {
            let cell = Arc::new(PlainCell::new("count", 0i64));
            let lock = Arc::new(Mutex::new("lock", ()));
            let mut handles = Vec::new();
            for _ in 0..2 {
                let cell = Arc::clone(&cell);
                let lock = Arc::clone(&lock);
                handles.push(thread::spawn(move || {
                    let guard = lock.lock();
                    let v = cell.get();
                    cell.set(v + 1);
                    drop(guard);
                }));
            }
            for h in handles {
                h.join();
            }
            record("final", cell.get());
        });
        assert!(report.exhausted);
        assert!(report.race_free(), "races: {:?}", report.races);
        assert_eq!(report.observations["final"], BTreeSet::from([2]));
        assert_eq!(report.verdict(), "race-free (proved)");
    }

    #[test]
    fn dfs_detects_lock_order_deadlock() {
        let report = explore(Config::dfs("ab-ba"), || {
            let a = Arc::new(Mutex::new("a", ()));
            let b = Arc::new(Mutex::new("b", ()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t1 = thread::spawn(move || {
                let ga = a2.lock();
                let gb = b2.lock();
                drop(gb);
                drop(ga);
            });
            let (a3, b3) = (Arc::clone(&a), Arc::clone(&b));
            let t2 = thread::spawn(move || {
                let gb = b3.lock();
                let ga = a3.lock();
                drop(ga);
                drop(gb);
            });
            t1.join();
            t2.join();
        });
        assert!(report.deadlocks > 0, "AB-BA must deadlock in some schedule");
        assert!(report.first_deadlock.as_deref().unwrap_or("").contains("lock"));
    }

    #[test]
    fn sleep_sets_prune_redundant_orders() {
        // Two threads touching *different* locations commute: with
        // sleep sets the explorer must visit strictly fewer complete
        // schedules than the naive interleaving count.
        let report = explore(Config::dfs("independent"), || {
            let x = Arc::new(PlainCell::new("x", 0i64));
            let y = Arc::new(PlainCell::new("y", 0i64));
            let xs = Arc::clone(&x);
            let t1 = thread::spawn(move || xs.set(1));
            let ys = Arc::clone(&y);
            let t2 = thread::spawn(move || ys.set(1));
            t1.join();
            t2.join();
        });
        assert!(report.exhausted);
        assert!(report.race_free());
        // The two stores commute, so at least one redundant order
        // must be cut by the sleep sets.
        assert!(
            report.pruned > 0,
            "expected pruning, got {} complete schedules and {} pruned",
            report.schedules,
            report.pruned
        );
    }

    #[test]
    fn pct_same_seed_is_bit_identical() {
        let run = |seed| {
            explore(
                Config::pct("pct-determinism", seed, 24, 3),
                two_plain_increments(),
            )
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.schedule_log, b.schedule_log);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = run(8);
        assert_ne!(
            a.schedule_log, c.schedule_log,
            "different seeds should explore differently"
        );
    }

    #[test]
    fn pct_finds_the_race_with_a_fixed_seed() {
        let report = explore(
            Config::pct("pct-race", 42, 32, 3),
            two_plain_increments(),
        );
        assert!(!report.race_free(), "seeded PCT should witness the racy pair");
    }

    #[test]
    fn stop_at_first_race_short_circuits() {
        let full = explore(Config::dfs("full"), two_plain_increments());
        let early = explore(
            Config::dfs("early").stop_at_first_race(true),
            two_plain_increments(),
        );
        assert!(!early.race_free());
        assert!(
            early.schedule_log.len() <= full.schedule_log.len(),
            "early stop must not explore more than the full run"
        );
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn simulated_panics_propagate() {
        let _ = explore(Config::dfs("panics"), || {
            let t = thread::spawn(|| panic!("boom"));
            t.join();
        });
    }

    #[test]
    fn barrier_orders_publication_race_free() {
        // T0 writes plain data, both wait at a 2-party barrier, T1
        // reads: the barrier's HB edge must cover the plain accesses
        // in every schedule.
        let report = explore(Config::dfs("barrier-mp"), || {
            let data = Arc::new(PlainCell::new("data", 0i64));
            let bar = Arc::new(sync::Barrier::new("bar", 2));
            let (d, b) = (Arc::clone(&data), Arc::clone(&bar));
            let writer = thread::spawn(move || {
                d.set(42);
                b.wait();
            });
            let (d, b) = (Arc::clone(&data), Arc::clone(&bar));
            let reader = thread::spawn(move || {
                b.wait();
                record("read", d.get());
            });
            writer.join();
            reader.join();
        });
        assert!(report.exhausted);
        assert!(report.race_free(), "races: {:?}", report.races);
        assert_eq!(report.deadlocks, 0);
        assert_eq!(report.observations["read"], BTreeSet::from([42]));
    }

    #[test]
    fn barrier_episodes_are_reusable() {
        // Two phases through the same barrier object: phase-1 write,
        // barrier, phase-2 write by the other thread, barrier, read.
        let report = explore(Config::dfs("barrier-phases"), || {
            let x = Arc::new(PlainCell::new("x", 0i64));
            let bar = Arc::new(sync::Barrier::new("bar", 2));
            let (xs, b) = (Arc::clone(&x), Arc::clone(&bar));
            let t0 = thread::spawn(move || {
                xs.set(1);
                b.wait();
                b.wait();
                record("after", xs.get());
            });
            let (xs, b) = (Arc::clone(&x), Arc::clone(&bar));
            let t1 = thread::spawn(move || {
                b.wait();
                let v = xs.get();
                xs.set(v + 10);
                b.wait();
            });
            t0.join();
            t1.join();
        });
        assert!(report.exhausted);
        assert!(report.race_free(), "races: {:?}", report.races);
        assert_eq!(report.observations["after"], BTreeSet::from([11]));
    }

    #[test]
    fn mismatched_barrier_counts_deadlock() {
        // T0 waits twice, T1 once: the second episode can never
        // complete, so every schedule deadlocks with T0 parked at the
        // barrier.
        let report = explore(Config::dfs("barrier-mismatch"), || {
            let bar = Arc::new(sync::Barrier::new("bar", 2));
            let b = Arc::clone(&bar);
            let t0 = thread::spawn(move || {
                b.wait();
                b.wait();
            });
            let b = Arc::clone(&bar);
            let t1 = thread::spawn(move || {
                b.wait();
            });
            t0.join();
            t1.join();
        });
        assert!(report.exhausted);
        assert!(report.deadlocks > 0, "mismatched barrier must deadlock");
        assert_eq!(report.schedules, 0, "no schedule can complete");
        assert!(report.first_deadlock.as_deref().unwrap_or("").contains("barrier_wait"));
    }

    #[test]
    fn barrier_does_not_synchronise_unrelated_writes() {
        // Both threads write the same plain cell *after* the barrier:
        // the barrier must not invent an ordering between them.
        let report = explore(Config::dfs("barrier-after"), || {
            let x = Arc::new(PlainCell::new("x", 0i64));
            let bar = Arc::new(sync::Barrier::new("bar", 2));
            let mut handles = Vec::new();
            for _ in 0..2 {
                let (xs, b) = (Arc::clone(&x), Arc::clone(&bar));
                handles.push(thread::spawn(move || {
                    b.wait();
                    let v = xs.get();
                    xs.set(v + 1);
                }));
            }
            for h in handles {
                h.join();
            }
        });
        assert!(report.exhausted);
        assert!(!report.race_free(), "post-barrier plain increments still race");
    }

    #[test]
    fn atomic_rmw_is_race_free_and_exact() {
        let report = explore(Config::dfs("rmw"), || {
            let c = Arc::new(sync::AtomicU64::new("count", 0));
            let mut handles = Vec::new();
            for _ in 0..2 {
                let c = Arc::clone(&c);
                handles.push(thread::spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }));
            }
            for h in handles {
                h.join();
            }
            record("final", c.load(Ordering::Relaxed) as i64);
        });
        assert!(report.exhausted);
        assert!(report.race_free());
        assert_eq!(report.observations["final"], BTreeSet::from([2]));
    }
}
