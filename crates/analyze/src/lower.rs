//! The lowering, written once: how a directive program maps onto team
//! threads, locks and barriers.
//!
//! [`run`] interprets a program on one [`Backend`]. The interpreter
//! makes every lowering decision:
//!
//! * a parallel region runs a team of `num_threads` threads
//!   ([`DEFAULT_TEAM`] without the clause); each member starts from a
//!   fresh frame holding the region's privates (zero) and
//!   firstprivates (read by the spawning thread), so outer privates
//!   and loop variables never shadow inside a team;
//! * a `for` loop gives iteration `k` to thread `(k − lo) % n`, and a
//!   `sections` body gives item `k` to thread `k % n`; `schedule(...)`
//!   does not change the split;
//! * thread 0 runs `single`, `master` and `gui` bodies (a back end may
//!   claim `single` otherwise);
//! * `for`, `sections` and `single` end in a barrier unless `nowait`;
//! * a reduction accumulates into an identity-initialised private, which
//!   is folded into the shared cell under the lock `red:<var>`;
//! * a `critical` holds `lock:<name>` (`lock:` when unnamed);
//! * names are the program's [`Symbols`], interned once per program and
//!   shared by every back end: thread-local values, shared scalars and
//!   lock keys are keyed by [`Sym`];
//! * a stray `section` outside `sections` (statically `E005`) runs as a
//!   plain block.
//!
//! A back end supplies only how a shared scalar is read and written,
//! how a team runs, how a barrier waits and how a lock is held around a
//! body. The MHP back end also keeps its bookkeeping around constructs
//! and counts steps against a budget. The language has no branches and
//! only literal loop bounds, so values never steer control flow: a back
//! end that reads zeros still sees every access the others execute.

use crate::ast::{Clause, Expr, Item, Loop, Region, RegionKind, Span};
use crate::lockset::LockKey;
use crate::sym::{Sym, Symbols};

/// Team size of a parallel region without `num_threads`.
pub(crate) const DEFAULT_TEAM: usize = 2;

/// A thread's local values, innermost last: a team member's privates,
/// loop variables, a `for` region's reduction accumulators. A lookup
/// takes the last entry of its symbol, so an inner scope shadows an
/// outer one.
pub(crate) type Frame = Vec<(Sym, i64)>;

/// A lock the lowering holds around a body.
#[derive(Clone, Copy)]
pub(crate) struct Lock {
    /// The runtime key: `lock:<name>` or `red:<var>`.
    pub(crate) key: LockKey,
    /// The directive that takes the lock.
    pub(crate) span: Span,
}

impl Lock {
    /// A `critical` region's lock.
    pub(crate) fn critical(r: &Region, syms: &Symbols) -> Self {
        let name = r.name.as_ref().map_or("", |n| n.name.as_str());
        Self { key: LockKey::Critical(syms.sym(name)), span: r.span }
    }

    /// The combiner lock of reduction variable `var` of `for` region `r`.
    pub(crate) fn fold(r: &Region, var: Sym) -> Self {
        Self { key: LockKey::Fold(var), span: r.span }
    }
}

/// What a back end supplies to the interpreter.
pub(crate) trait Backend: Sized {
    /// Read a shared scalar (`span`: the reading identifier, or the
    /// `for` directive of a reduction fold).
    fn load(&mut self, var: Sym, span: Span) -> i64;

    /// Write a shared scalar (`span`: the statement, or the `for`
    /// directive of a reduction fold).
    fn store(&mut self, var: Sym, value: i64, span: Span);

    /// Run parallel region `r` on a team of `n` threads: each member
    /// runs [`member`] over `r.body`, starting from a copy of `frame`.
    fn team(t: &mut Thread<'_, Self>, r: &Region, n: usize, frame: Frame);

    /// Wait at the team barrier (`span`: the barrier point).
    fn barrier(&mut self, span: Span);

    /// Hold `lock` around `body`.
    fn locked<'s>(t: &mut Thread<'s, Self>, lock: Lock, body: impl FnOnce(&mut Thread<'s, Self>));

    /// Does thread `tid` run a `single` body?
    fn claims_single(&mut self, tid: usize) -> bool {
        tid == 0
    }

    /// Run `body`, the part of construct `r` this thread executes.
    fn within<'s>(t: &mut Thread<'s, Self>, _r: &Region, body: impl FnOnce(&mut Thread<'s, Self>)) {
        body(t);
    }

    /// Count one step (each item, each executed loop iteration); false
    /// once the budget is spent, which unwinds the walk.
    fn step(&mut self) -> bool {
        true
    }
}

/// One thread of the lowered program: its back end, the program's
/// symbols, its place in the team and its thread-local values.
pub(crate) struct Thread<'s, B> {
    /// The back end's per-thread state.
    pub(crate) b: B,
    /// The program's symbols.
    pub(crate) syms: &'s Symbols,
    tid: usize,
    n: usize,
    frame: Frame,
}

/// Run a whole program on the serial thread (outside any team).
pub(crate) fn run<B: Backend>(b: B, syms: &Symbols, items: &[Item]) {
    member(b, syms, 0, 1, Frame::new(), items);
}

/// Run thread `tid` of a team of `n` over a parallel region's body.
pub(crate) fn member<B: Backend>(b: B, syms: &Symbols, tid: usize, n: usize, frame: Frame, body: &[Item]) {
    Thread { b, syms, tid, n, frame }.items(body);
}

/// The last value `frame` holds for `var`.
fn local(frame: &mut [(Sym, i64)], var: Sym) -> Option<&mut i64> {
    frame.iter_mut().rev().find(|(s, _)| *s == var).map(|(_, v)| v)
}

impl<B: Backend> Thread<'_, B> {
    fn read(&mut self, var: Sym, span: Span) -> i64 {
        match local(&mut self.frame, var) {
            Some(v) => *v,
            None => self.b.load(var, span),
        }
    }

    fn write(&mut self, var: Sym, value: i64, span: Span) {
        match local(&mut self.frame, var) {
            Some(slot) => *slot = value,
            None => self.b.store(var, value, span),
        }
    }

    fn eval(&mut self, expr: &Expr) -> i64 {
        match expr {
            Expr::Num(n, _) => *n,
            Expr::Var(id) => self.read(self.syms.sym(&id.name), id.span),
            Expr::Bin(a, op, b) => {
                let left = self.eval(a);
                let right = self.eval(b);
                op.apply(left, right)
            }
        }
    }

    fn items(&mut self, items: &[Item]) {
        for item in items {
            if !self.b.step() {
                return;
            }
            match item {
                Item::Assign(a) => {
                    let value = self.eval(&a.expr);
                    self.write(self.syms.sym(&a.target.name), value, a.span);
                }
                Item::Loop(l) => self.run_loop(l, 1, 0),
                Item::Region(r) => self.region(r),
            }
        }
    }

    /// Run the iterations `k` of `l` with `(k − lo) % stride == offset`.
    fn run_loop(&mut self, l: &Loop, stride: usize, offset: usize) {
        let at = self.frame.len();
        self.frame.push((self.syms.sym(&l.var.name), l.lo));
        for k in l.lo..l.hi {
            if (k - l.lo) as usize % stride != offset {
                continue;
            }
            if !self.b.step() {
                break;
            }
            self.frame[at].1 = k;
            self.items(&l.body);
        }
        self.frame.truncate(at);
    }

    fn region(&mut self, r: &Region) {
        match r.kind {
            RegionKind::Parallel => {
                let n = r.num_threads().unwrap_or(DEFAULT_TEAM);
                let frame = self.team_frame(r);
                B::team(self, r, n, frame);
            }
            RegionKind::For => {
                B::within(self, r, |t| t.worksharing_loop(r));
                self.implied_barrier(r);
            }
            RegionKind::Sections => {
                B::within(self, r, |t| {
                    for (k, item) in r.body.iter().enumerate() {
                        if k % t.n != t.tid {
                            continue;
                        }
                        match item {
                            Item::Region(sec) if sec.kind == RegionKind::Section => {
                                B::within(t, sec, |t| t.items(&sec.body));
                            }
                            _ => t.items(std::slice::from_ref(item)),
                        }
                    }
                });
                self.implied_barrier(r);
            }
            RegionKind::Section => B::within(self, r, |t| t.items(&r.body)),
            RegionKind::Single => {
                if self.b.claims_single(self.tid) {
                    B::within(self, r, |t| t.items(&r.body));
                }
                self.implied_barrier(r);
            }
            RegionKind::Master | RegionKind::Gui => {
                if self.tid == 0 {
                    B::within(self, r, |t| t.items(&r.body));
                }
            }
            RegionKind::Critical => {
                let lock = Lock::critical(r, self.syms);
                B::locked(self, lock, |t| B::within(t, r, |t| t.items(&r.body)));
            }
            RegionKind::Barrier => self.b.barrier(r.span),
        }
    }

    /// The frame a team member starts from: privates are zero
    /// (default-initialised locals), firstprivates hold the value the
    /// spawning thread reads.
    fn team_frame(&mut self, r: &Region) -> Frame {
        let mut frame = Frame::new();
        for clause in &r.clauses {
            match clause {
                Clause::Private(ids) => {
                    frame.extend(ids.iter().map(|id| (self.syms.sym(&id.name), 0)));
                }
                Clause::FirstPrivate(ids) => {
                    for id in ids {
                        let var = self.syms.sym(&id.name);
                        let value = self.read(var, id.span);
                        frame.push((var, value));
                    }
                }
                _ => {}
            }
        }
        frame
    }

    /// This thread's share of a `for` region's loop, then each
    /// reduction accumulator folded into its shared cell.
    fn worksharing_loop(&mut self, r: &Region) {
        let at = self.frame.len();
        for (op, var) in r.reductions() {
            self.frame.push((self.syms.sym(&var.name), op.identity()));
        }
        if let Some(Item::Loop(l)) = r.body.first() {
            self.run_loop(l, self.n, self.tid);
        }
        for (op, var) in r.reductions() {
            let var = self.syms.sym(&var.name);
            let acc = *local(&mut self.frame[at..], var).expect("reduction accumulator pushed");
            B::locked(self, Lock::fold(r, var), |t| {
                let cur = t.b.load(var, r.span);
                t.b.store(var, op.fold(cur, acc), r.span);
            });
        }
        self.frame.truncate(at);
    }

    fn implied_barrier(&mut self, r: &Region) {
        if !r.nowait() {
            self.b.barrier(r.span);
        }
    }
}
