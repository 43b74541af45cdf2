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

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};

use parc_explore::sync as xsync;
use parc_explore::sync::Arc;
use parc_explore::{explore, record, Config, ExploreReport};
use pyjama::{Ctx, Team};

use crate::ast::{Clause, Item, Program, Region, RegionKind, Span};
use crate::lockset::{KeySet, LockKey};
use crate::lower::{self, Backend, Frame, Lock, Thread};
use crate::sym::{NameSet, Sym, Symbols};

/// Every variable a program can touch: assignment targets, expression
/// reads, firstprivate captures and reduction folds. Private variables
/// keep cells too — they are simply never accessed, because frame
/// lookups shadow them.
fn var_names(items: &[Item], syms: &Symbols, out: &mut NameSet) {
    for item in items {
        match item {
            Item::Assign(a) => {
                out.insert(syms.sym(&a.target.name));
                a.expr.each_var(&mut |id| {
                    out.insert(syms.sym(&id.name));
                });
            }
            Item::Loop(l) => var_names(&l.body, syms, out),
            Item::Region(r) => {
                for clause in &r.clauses {
                    match clause {
                        Clause::FirstPrivate(ids) => {
                            for id in ids {
                                out.insert(syms.sym(&id.name));
                            }
                        }
                        Clause::Reduction { var, .. } => {
                            out.insert(syms.sym(&var.name));
                        }
                        _ => {}
                    }
                }
                var_names(&r.body, syms, out);
            }
        }
    }
}

/// Every lock key a program needs: its criticals' and its reduction
/// folds'.
fn lock_keys(items: &[Item], syms: &Symbols, out: &mut KeySet) {
    for item in items {
        match item {
            Item::Region(r) => {
                if r.kind == RegionKind::Critical {
                    out.insert(Lock::critical(r, syms).key);
                }
                for (_, var) in r.reductions() {
                    out.insert(Lock::fold(r, syms.sym(&var.name)).key);
                }
                lock_keys(&r.body, syms, out);
            }
            Item::Loop(l) => lock_keys(&l.body, syms, out),
            Item::Assign(_) => {}
        }
    }
}

/// A program's symbols, the variables that have shared cells and the
/// locks it takes.
struct Names {
    syms: Symbols,
    vars: NameSet,
    locks: KeySet,
}

impl Names {
    fn of(program: &Program) -> Self {
        let syms = Symbols::of(program);
        let (mut vars, mut locks) = (NameSet::default(), KeySet::default());
        var_names(&program.items, &syms, &mut vars);
        lock_keys(&program.items, &syms, &mut locks);
        Self { syms, vars, locks }
    }

    /// One value per symbol, `Some` for the variables with a cell.
    fn cells<T>(&self, mut cell: impl FnMut(&str) -> T) -> Vec<Option<T>> {
        self.syms.iter().map(|s| self.vars.contains(s).then(|| cell(self.syms.name(s)))).collect()
    }

    /// The final value of every variable, by name.
    fn finals(&self, value: impl Fn(Sym) -> i64) -> BTreeMap<String, i64> {
        self.vars.iter().map(|s| (self.syms.name(s).to_string(), value(s))).collect()
    }
}

// =====================================================================
// Back end 1: the interleaving explorer
// =====================================================================

/// Shared simulation state: one plain cell per program variable, one
/// shim mutex per lock key (sorted by key).
struct SimShared {
    names: Arc<Names>,
    cells: Vec<Option<xsync::PlainCell<i64>>>,
    locks: Vec<(LockKey, xsync::Mutex<()>)>,
}

impl SimShared {
    fn cell(&self, var: Sym) -> &xsync::PlainCell<i64> {
        self.cells[var.index()].as_ref().expect("every accessed variable has a cell")
    }
}

/// One simulated thread: the shared state and its team's barrier.
struct Sim {
    shared: Arc<SimShared>,
    barrier: Option<Arc<xsync::Barrier>>,
}

impl Backend for Sim {
    fn load(&mut self, var: Sym, _: Span) -> i64 {
        self.shared.cell(var).get()
    }

    fn store(&mut self, var: Sym, value: i64, _: Span) {
        self.shared.cell(var).set(value);
    }

    fn team(t: &mut Thread<'_, Self>, r: &Region, n: usize, frame: Frame) {
        let barrier = Arc::new(xsync::Barrier::new(&format!("team@{}", r.span.line), n));
        let body = Arc::new(r.body.clone());
        let handles: Vec<_> = (0..n)
            .map(|tid| {
                let sim = Sim {
                    shared: Arc::clone(&t.b.shared),
                    barrier: Some(Arc::clone(&barrier)),
                };
                let (frame, body) = (frame.clone(), Arc::clone(&body));
                let names = Arc::clone(&sim.shared.names);
                xsync::thread::spawn(move || lower::member(sim, &names.syms, tid, n, frame, &body))
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

    fn locked<'s>(t: &mut Thread<'s, Self>, lock: Lock, body: impl FnOnce(&mut Thread<'s, Self>)) {
        let shared = Arc::clone(&t.b.shared);
        let at = shared.locks.binary_search_by_key(&lock.key, |(key, _)| *key);
        let guard = shared.locks[at.expect("every lock key has a mutex")].1.lock();
        body(t);
        drop(guard);
    }
}

/// One full simulated execution of the program (the explorer re-runs
/// this once per schedule).
fn run_sim(program: &Program, names: &Arc<Names>) {
    let syms = &names.syms;
    let shared = Arc::new(SimShared {
        names: Arc::clone(names),
        cells: names.cells(|name| xsync::PlainCell::new(name, 0)),
        locks: names
            .locks
            .iter()
            .map(|key| (key, xsync::Mutex::new(&key.spell(syms).to_string(), ())))
            .collect(),
    });
    lower::run(Sim { shared: Arc::clone(&shared), barrier: None }, syms, &program.items);
    for var in names.vars.iter() {
        record(syms.name(var), shared.cell(var).get());
    }
}

/// Lower the program onto the shim runtime and explore its
/// interleavings. Final shared-cell values are recorded per variable
/// in the report's observations.
#[must_use]
pub fn explore_program(program: &Program, config: Config) -> ExploreReport {
    let program = Arc::new(program.clone());
    let names = Arc::new(Names::of(&program));
    explore(config, move || run_sim(&program, &names))
}

// =====================================================================
// Back end 2: the real pyjama runtime
// =====================================================================

/// One pyjama thread (`ctx` is `None` outside any region). Shared
/// scalars are `SeqCst` atomics so even statically-racy fixtures
/// execute without UB.
struct Pj<'a, 'r> {
    ctx: Option<&'a Ctx<'r>>,
    cells: &'a [Option<AtomicI64>],
    team: &'a Team,
}

impl Pj<'_, '_> {
    fn cell(&self, var: Sym) -> &AtomicI64 {
        self.cells[var.index()].as_ref().expect("every accessed variable has a cell")
    }
}

impl Backend for Pj<'_, '_> {
    fn load(&mut self, var: Sym, _: Span) -> i64 {
        self.cell(var).load(Ordering::SeqCst)
    }

    fn store(&mut self, var: Sym, value: i64, _: Span) {
        self.cell(var).store(value, Ordering::SeqCst);
    }

    fn team(t: &mut Thread<'_, Self>, r: &Region, n: usize, frame: Frame) {
        let Pj { cells, team, .. } = t.b;
        let syms = t.syms;
        team.parallel_with(n, |ctx| {
            let pj = Pj { ctx: Some(ctx), cells, team };
            lower::member(pj, syms, ctx.thread_num(), ctx.num_threads(), frame.clone(), &r.body);
        });
    }

    fn barrier(&mut self, _: Span) {
        if let Some(ctx) = self.ctx {
            ctx.barrier();
        }
    }

    fn locked<'s>(t: &mut Thread<'s, Self>, lock: Lock, body: impl FnOnce(&mut Thread<'s, Self>)) {
        match t.b.ctx {
            Some(ctx) => ctx.critical(&lock.key.spell(t.syms).to_string(), || body(t)),
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
    let names = Names::of(program);
    let cells = names.cells(|_| AtomicI64::new(0));
    lower::run(Pj { ctx: None, cells: &cells, team }, &names.syms, &program.items);
    names.finals(|var| cells[var.index()].as_ref().map_or(0, |c| c.load(Ordering::SeqCst)))
}

// =====================================================================
// Back end 3: the sequential reference
// =====================================================================

/// The shared cells of the sequential reference, one value per symbol,
/// one team thread at a time.
struct Seq<'a>(&'a mut [i64]);

impl Backend for Seq<'_> {
    fn load(&mut self, var: Sym, _: Span) -> i64 {
        self.0[var.index()]
    }

    fn store(&mut self, var: Sym, value: i64, _: Span) {
        self.0[var.index()] = value;
    }

    fn team(t: &mut Thread<'_, Self>, r: &Region, n: usize, frame: Frame) {
        // One legal serialisation: each team thread in turn.
        for tid in 0..n {
            lower::member(Seq(&mut *t.b.0), t.syms, tid, n, frame.clone(), &r.body);
        }
    }

    fn barrier(&mut self, _: Span) {}

    fn locked<'s>(t: &mut Thread<'s, Self>, _: Lock, body: impl FnOnce(&mut Thread<'s, Self>)) {
        body(t);
    }
}

/// Interpret the program sequentially (one team thread at a time;
/// barriers are no-ops) and return every variable's final value. The
/// reference result clean programs must reproduce on pyjama and under
/// the explorer.
#[must_use]
pub fn interpret_seq(program: &Program) -> BTreeMap<String, i64> {
    let names = Names::of(program);
    let mut cells = vec![0; names.syms.len()];
    lower::run(Seq(&mut cells), &names.syms, &program.items);
    names.finals(|var| cells[var.index()])
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
