//! The lowering bridge: runs an analyzed directive program on three
//! executable back ends so static verdicts can be checked against real
//! behaviour. All three run the crate's one lowering interpreter, which
//! decides how directives map onto team threads, locks and barriers
//! (cyclic worksharing splits, thread 0 for `single`/`master`/`gui`,
//! one team barrier per parallel region serving every barrier point,
//! reduction folds under `red:<var>`); a back end supplies only shared
//! cells, teams, barriers and locks. `mhp::model` is the fourth back
//! end, so the static engine walks the same lowering.
//!
//! * [`explore_program`] runs on the `parc-explore` shim runtime
//!   (plain cells, shim mutexes, the episode-counting shim barrier)
//!   under the interleaving explorer. This is the cross-validation
//!   engine: a fixture flagged `E001`/`E004` must produce
//!   explorer-witnessed deadlocks, a flagged race must show a racing
//!   schedule, and a clean fixture must be *proved* race-free over the
//!   exhausted interleaving space.
//! * [`run_on_pyjama`] runs on the real [`pyjama`] runtime (`SeqCst`
//!   atomics for the shared scalars, so racy programs stay UB-free;
//!   `single` is claim-based, which is observably equivalent for clean
//!   programs). Never call it for deadlocking programs — real threads
//!   really hang.
//! * [`interpret_seq`] is the sequential reference: it runs the team
//!   one thread at a time (barriers become no-ops). For clean programs
//!   the pyjama result and every explored final must equal it.
//!
//! `schedule(...)` clauses are accepted but do not change the cyclic
//! split. Structurally invalid programs (`E005`) should not be
//! lowered; a stray `section` outside `sections` runs as a plain block
//! on every thread.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicI64, Ordering};

use parc_explore::sync as xsync;
use parc_explore::sync::Arc;
use parc_explore::{explore, record, Config, ExploreReport};
use pyjama::{Ctx, Team};

use crate::ast::{Clause, Item, Program, Region, RegionKind, Span};
use crate::lower::{self, Backend, Frame, Lock, Thread};

/// Every variable name a program can touch: assignment targets,
/// expression reads, firstprivate captures and reduction folds.
/// Private variables keep cells too — they are simply never accessed,
/// because frame lookups shadow them.
fn var_names(items: &[Item], out: &mut BTreeSet<String>) {
    for item in items {
        match item {
            Item::Assign(a) => {
                out.insert(a.target.name.clone());
                a.expr.each_var(&mut |id| {
                    out.insert(id.name.clone());
                });
            }
            Item::Loop(l) => var_names(&l.body, out),
            Item::Region(r) => {
                for clause in &r.clauses {
                    match clause {
                        Clause::FirstPrivate(ids) => {
                            out.extend(ids.iter().map(|id| id.name.clone()));
                        }
                        Clause::Reduction { var, .. } => {
                            out.insert(var.name.clone());
                        }
                        _ => {}
                    }
                }
                var_names(&r.body, out);
            }
        }
    }
}

/// Every lock key a program needs: its criticals' and its reduction
/// folds'.
fn lock_keys(items: &[Item], out: &mut BTreeSet<String>) {
    for item in items {
        match item {
            Item::Region(r) => {
                if r.kind == RegionKind::Critical {
                    out.insert(Lock::Critical(r).key());
                }
                for (_, var) in r.reductions() {
                    out.insert(Lock::Fold(r, &var.name).key());
                }
                lock_keys(&r.body, out);
            }
            Item::Loop(l) => lock_keys(&l.body, out),
            Item::Assign(_) => {}
        }
    }
}

// =====================================================================
// Back end 1: the interleaving explorer
// =====================================================================

/// Shared simulation state: one plain cell per program variable, one
/// shim mutex per lock key.
struct SimShared {
    cells: BTreeMap<String, xsync::PlainCell<i64>>,
    locks: BTreeMap<String, xsync::Mutex<()>>,
}

/// One simulated thread: the shared state and its team's barrier.
struct Sim {
    shared: Arc<SimShared>,
    barrier: Option<Arc<xsync::Barrier>>,
}

impl Backend for Sim {
    fn load(&mut self, var: &str, _: Span) -> i64 {
        self.shared.cells[var].get()
    }

    fn store(&mut self, var: &str, value: i64, _: Span) {
        self.shared.cells[var].set(value);
    }

    fn team(t: &mut Thread<Self>, r: &Region, n: usize, frame: Frame) {
        let barrier = Arc::new(xsync::Barrier::new(&format!("team@{}", r.span.line), n));
        let body = Arc::new(r.body.clone());
        let handles: Vec<_> = (0..n)
            .map(|tid| {
                let sim = Sim {
                    shared: Arc::clone(&t.b.shared),
                    barrier: Some(Arc::clone(&barrier)),
                };
                let (frame, body) = (frame.clone(), Arc::clone(&body));
                xsync::thread::spawn(move || lower::member(sim, tid, n, frame, &body))
            })
            .collect();
        for handle in handles {
            handle.join();
        }
    }

    fn barrier(&mut self, _: Span) {
        if let Some(b) = &self.barrier {
            b.wait();
        }
    }

    fn locked(t: &mut Thread<Self>, lock: Lock<'_>, body: impl FnOnce(&mut Thread<Self>)) {
        let shared = Arc::clone(&t.b.shared);
        let guard = shared.locks[&lock.key()].lock();
        body(t);
        drop(guard);
    }
}

/// One full simulated execution of the program (the explorer re-runs
/// this once per schedule).
fn run_sim(program: &Program) {
    let mut vars = BTreeSet::new();
    var_names(&program.items, &mut vars);
    let mut locks = BTreeSet::new();
    lock_keys(&program.items, &mut locks);
    let shared = Arc::new(SimShared {
        cells: vars
            .iter()
            .map(|name| (name.clone(), xsync::PlainCell::new(name, 0)))
            .collect(),
        locks: locks.iter().map(|key| (key.clone(), xsync::Mutex::new(key, ()))).collect(),
    });
    lower::run(Sim { shared: Arc::clone(&shared), barrier: None }, &program.items);
    for (name, cell) in &shared.cells {
        record(name, cell.get());
    }
}

/// Lower the program onto the shim runtime and explore its
/// interleavings. Final shared-cell values are recorded per variable
/// in the report's observations.
#[must_use]
pub fn explore_program(program: &Program, config: Config) -> ExploreReport {
    let program = Arc::new(program.clone());
    explore(config, move || run_sim(&program))
}

// =====================================================================
// Back end 2: the real pyjama runtime
// =====================================================================

/// One pyjama thread (`ctx` is `None` outside any region). Shared
/// scalars are `SeqCst` atomics so even statically-racy fixtures
/// execute without UB.
struct Pj<'a, 'r> {
    ctx: Option<&'a Ctx<'r>>,
    cells: &'a BTreeMap<String, AtomicI64>,
    team: &'a Team,
}

impl Backend for Pj<'_, '_> {
    fn load(&mut self, var: &str, _: Span) -> i64 {
        self.cells[var].load(Ordering::SeqCst)
    }

    fn store(&mut self, var: &str, value: i64, _: Span) {
        self.cells[var].store(value, Ordering::SeqCst);
    }

    fn team(t: &mut Thread<Self>, r: &Region, n: usize, frame: Frame) {
        let Pj { cells, team, .. } = t.b;
        team.parallel_with(n, |ctx| {
            let pj = Pj { ctx: Some(ctx), cells, team };
            lower::member(pj, ctx.thread_num(), ctx.num_threads(), frame.clone(), &r.body);
        });
    }

    fn barrier(&mut self, _: Span) {
        if let Some(ctx) = self.ctx {
            ctx.barrier();
        }
    }

    fn locked(t: &mut Thread<Self>, lock: Lock<'_>, body: impl FnOnce(&mut Thread<Self>)) {
        match t.b.ctx {
            Some(ctx) => ctx.critical(&lock.key(), || body(t)),
            None => body(t),
        }
    }

    fn claims_single(&mut self, _: usize) -> bool {
        let Some(ctx) = self.ctx else { return true };
        let mut claimed = false;
        ctx.single_nowait(|| claimed = true);
        claimed
    }
}

/// Run the program on the real pyjama runtime and return the final
/// value of every program variable's shared cell.
///
/// Do **not** call this for programs whose static verdict is a
/// guaranteed deadlock (`E001`) or whose lock cycle you intend to
/// trigger — real threads really block.
#[must_use]
pub fn run_on_pyjama(program: &Program, team: &Team) -> BTreeMap<String, i64> {
    let mut vars = BTreeSet::new();
    var_names(&program.items, &mut vars);
    let cells: BTreeMap<String, AtomicI64> =
        vars.iter().map(|name| (name.clone(), AtomicI64::new(0))).collect();
    lower::run(Pj { ctx: None, cells: &cells, team }, &program.items);
    cells
        .iter()
        .map(|(name, cell)| (name.clone(), cell.load(Ordering::SeqCst)))
        .collect()
}

// =====================================================================
// Back end 3: the sequential reference
// =====================================================================

/// The shared cells of the sequential reference, one team thread at a
/// time.
struct Seq<'a>(&'a mut BTreeMap<String, i64>);

impl Backend for Seq<'_> {
    fn load(&mut self, var: &str, _: Span) -> i64 {
        self.0.get(var).copied().unwrap_or(0)
    }

    fn store(&mut self, var: &str, value: i64, _: Span) {
        self.0.insert(var.to_string(), value);
    }

    fn team(t: &mut Thread<Self>, r: &Region, n: usize, frame: Frame) {
        // One legal serialisation: each team thread in turn.
        for tid in 0..n {
            lower::member(Seq(&mut *t.b.0), tid, n, frame.clone(), &r.body);
        }
    }

    fn barrier(&mut self, _: Span) {}

    fn locked(t: &mut Thread<Self>, _: Lock<'_>, body: impl FnOnce(&mut Thread<Self>)) {
        body(t);
    }
}

/// Interpret the program sequentially (one team thread at a time;
/// barriers are no-ops) and return every variable's final value. The
/// reference result clean programs must reproduce on pyjama and under
/// the explorer.
#[must_use]
pub fn interpret_seq(program: &Program) -> BTreeMap<String, i64> {
    let mut vars = BTreeSet::new();
    var_names(&program.items, &mut vars);
    let mut cells = vars.into_iter().map(|name| (name, 0)).collect();
    lower::run(Seq(&mut cells), &program.items);
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    #[test]
    fn seq_reference_computes_the_reduction() {
        let prog = parse(
            "sum = 0;\n//#omp parallel num_threads(2)\n{\n    //#omp for reduction(+:sum)\n    for i in 0..4 {\n        sum = sum + i;\n    }\n}\n",
        )
        .unwrap();
        let out = interpret_seq(&prog);
        assert_eq!(out["sum"], 6);
    }

    #[test]
    fn seq_reference_firstprivate_captures() {
        let prog = parse(
            "seed = 3;\n//#omp parallel num_threads(2) firstprivate(seed)\n{\n    seed = seed + 1;\n    //#omp critical acc\n    {\n        out = out + seed;\n    }\n}\n",
        )
        .unwrap();
        let out = interpret_seq(&prog);
        assert_eq!(out["out"], 8);
        assert_eq!(out["seed"], 3, "the shared seed is untouched");
    }

    #[test]
    fn pyjama_matches_seq_on_a_clean_program() {
        let prog = parse(
            "//#omp parallel num_threads(2)\n{\n    //#omp critical tally\n    {\n        count = count + 1;\n    }\n}\n",
        )
        .unwrap();
        let team = Team::new(2);
        let pj = run_on_pyjama(&prog, &team);
        let seq = interpret_seq(&prog);
        assert_eq!(pj, seq);
        assert_eq!(pj["count"], 2);
    }

    #[test]
    fn explorer_witnesses_the_counter_race() {
        let prog = parse("//#omp parallel num_threads(2)\n{\n    count = count + 1;\n}\n").unwrap();
        let report = explore_program(&prog, Config::dfs("counter/racy"));
        assert!(!report.race_free(), "the unprotected counter must race");
        assert_eq!(report.deadlocks, 0);
        // Lost updates are visible: both 1 and 2 are observed finals.
        let observed = &report.observations["count"];
        assert!(observed.contains(&1) && observed.contains(&2), "observed: {observed:?}");
    }

    #[test]
    fn explorer_proves_the_critical_counter_clean() {
        let prog = parse(
            "//#omp parallel num_threads(2)\n{\n    //#omp critical tally\n    {\n        count = count + 1;\n    }\n}\n",
        )
        .unwrap();
        let report = explore_program(&prog, Config::dfs("counter/critical"));
        assert!(report.exhausted, "the space must be fully enumerated");
        assert!(report.race_free());
        assert_eq!(report.deadlocks, 0);
        assert_eq!(
            report.observations["count"].iter().copied().collect::<Vec<_>>(),
            vec![2]
        );
    }

    #[test]
    fn explorer_witnesses_the_barrier_in_single_deadlock() {
        let prog = parse(
            "//#omp parallel num_threads(2)\n{\n    //#omp single\n    {\n        x = 1;\n        //#omp barrier\n    }\n}\n",
        )
        .unwrap();
        let report = explore_program(&prog, Config::dfs("barrier/in-single"));
        assert!(report.deadlocks > 0, "mismatched barrier counts must deadlock");
        assert_eq!(report.schedules, 0, "no schedule completes");
    }
}
