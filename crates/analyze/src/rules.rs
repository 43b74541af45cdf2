//! The static rule engine.
//!
//! Two engines live here:
//!
//! * [`check`] — the **MHP∩lockset engine**. Structural rules (E002,
//!   E003, E005, W103) come from one walk over the program's symbols,
//!   which the syntactic engine runs too; everything
//!   schedule-dependent is decided on the [`crate::mhp`] event model:
//!   W101/W102 fire only for pairs of accesses that *may happen in
//!   parallel* with disjoint [`crate::lockset::Lockset`]s, E001/E006
//!   come from proved barrier-arrival mismatches (E001 when a classic
//!   construct encloses the anchor, E006 otherwise), E004 from
//!   lock-nesting edge instances on concurrent threads, and W104
//!   flags a `critical` whose body has no concurrent conflicting
//!   access at all. Because the directive language is branch-free the
//!   model is exact, which buys precision the old engine cannot have:
//!   an evenly-split barrier-in-for, a single-iteration `for` write, or
//!   any construct under `num_threads(1)` is provably safe and stays
//!   silent.
//! * [`check_syntactic`] — the original pattern-matching engine: the
//!   shared structural walk plus E001, W101, W102 and E004 matched on
//!   the syntax alone. It is the false-positive baseline the E-FUZZ
//!   harness measures the new engine against, and [`check`]'s fallback
//!   when the MHP model runs out of budget.
//!
//! The codes themselves are documented on [`crate::diag::Code`]; the
//! recurring student mistakes they encode (and their Pyjama/OpenMP
//! semantics) are:
//!
//! * `E001` — a barrier only part of the team reaches, under a
//!   worksharing/`single`/`master`/`critical` construct: barrier
//!   counts mismatch and the program deadlocks in *every* schedule.
//!   The explorer witnesses this (see `tests/analyze.rs`).
//! * `E002` — worksharing nested in worksharing bound to the same
//!   parallel region (each thread re-divides its own share).
//! * `E003` — a reduction variable assigned as an ordinary shared
//!   variable outside its reduction construct, bypassing the combiner.
//! * `E004` — named `critical` regions nested in inconsistent order
//!   (or self-nested): a lock-order cycle, so some schedule deadlocks.
//! * `E005` — structural misuse that parses but cannot lower
//!   (`section` outside `sections`, loose items inside `sections`).
//! * `E006` — a proved barrier-arrival mismatch outside the classic
//!   E001 construct family (e.g. a barrier under `gui`).
//! * `W101` — two MHP accesses to one shared variable, at least one a
//!   write, with disjoint locksets: a data race the explorer can show.
//! * `W102` — `master` initialisation read by sibling code with no
//!   intervening barrier (`master` has no implied barrier — the
//!   classic "why is it sometimes zero" bug; `single` would have one).
//! * `W103` — a `private` variable read before its first write
//!   (privates start uninitialised; `firstprivate` copies in).
//! * `W104` — a `critical` whose body conflicts with nothing
//!   concurrent: the lock is pure overhead.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Assign, Clause, Ident, Item, Program, Region, RegionKind, Span};
use crate::diag::{sort_and_dedup, sort_diagnostics, Code, Diagnostic};
use crate::lockset::LockKey;
use crate::lower::DEFAULT_TEAM;
use crate::mhp;
use crate::sym::{NameSet, Sym, Symbols};

/// How a variable name resolves at some program point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sharing {
    /// Thread-local (private/firstprivate clause or loop variable).
    Private,
    /// The live accumulator of an enclosing `reduction` construct.
    Reduction,
    /// Shared across the team (the default).
    Shared,
}

/// One lexical scope on a walk's stack: a loop variable, or a region
/// with the names its clauses privatise, share and reduce. A parallel
/// region also holds the reduction variables of its `for` constructs
/// (not crossing nested parallel regions), which E003 guards.
enum Scope {
    Loop(Sym),
    Region {
        kind: RegionKind,
        privates: NameSet,
        shareds: NameSet,
        reductions: NameSet,
        num_threads: Option<usize>,
        team_reductions: NameSet,
    },
}

impl Scope {
    /// The scope region `r` opens.
    fn region(r: &Region, syms: &Symbols) -> Self {
        let (mut privates, mut shareds, mut reductions) = Default::default();
        for clause in &r.clauses {
            let (set, ids): (&mut NameSet, &[Ident]) = match clause {
                Clause::Private(ids) | Clause::FirstPrivate(ids) => (&mut privates, ids),
                Clause::Shared(ids) => (&mut shareds, ids),
                Clause::Reduction { var, .. } => (&mut reductions, std::slice::from_ref(var)),
                _ => continue,
            };
            for id in ids {
                set.insert(syms.sym(&id.name));
            }
        }
        let mut team_reductions = NameSet::default();
        if r.kind == RegionKind::Parallel {
            reduction_vars(&r.body, syms, &mut team_reductions);
        }
        Self::Region {
            kind: r.kind,
            privates,
            shareds,
            reductions,
            num_threads: r.num_threads(),
            team_reductions,
        }
    }
}

/// How `var` resolves under `scopes` (outermost first): the innermost
/// scope that names it decides.
fn resolve(scopes: &[Scope], var: Sym) -> Sharing {
    for scope in scopes.iter().rev() {
        match scope {
            Scope::Loop(v) if *v == var => return Sharing::Private,
            Scope::Loop(_) => {}
            Scope::Region { privates, shareds, reductions, .. } => {
                if privates.contains(var) {
                    return Sharing::Private;
                }
                if reductions.contains(var) {
                    return Sharing::Reduction;
                }
                if shareds.contains(var) {
                    return Sharing::Shared;
                }
            }
        }
    }
    Sharing::Shared
}

/// The effective team size of the innermost parallel region, with the
/// reduction variables of its `for` constructs: `None` outside any
/// parallel region.
fn team(scopes: &[Scope]) -> Option<(usize, &NameSet)> {
    scopes.iter().rev().find_map(|s| match s {
        Scope::Region { kind: RegionKind::Parallel, num_threads, team_reductions, .. } => {
            Some((num_threads.unwrap_or(DEFAULT_TEAM), team_reductions))
        }
        _ => None,
    })
}

/// The constructs between the current point and the nearest enclosing
/// parallel region, innermost first.
fn kinds_below_parallel(scopes: &[Scope]) -> impl Iterator<Item = RegionKind> + '_ {
    scopes
        .iter()
        .rev()
        .filter_map(|s| match s {
            Scope::Region { kind, .. } => Some(*kind),
            Scope::Loop(_) => None,
        })
        .take_while(|k| *k != RegionKind::Parallel)
}

/// Run every rule over a parsed program with the MHP∩lockset engine.
/// The result is sorted deterministically (span, then code) and
/// deduplicated.
#[must_use]
pub fn check(program: &Program) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if diagnose(program, &mut diags) {
        sort_and_dedup(&mut diags);
    }
    diags
}

/// Append every rule's diagnostics for `program` to `diags`, unsorted.
/// Returns false when the MHP model ran out of budget: the event model
/// is incomplete, so the conservative syntactic verdicts are appended
/// instead (sorted, as [`check_syntactic`] returns them) rather than
/// claim silence we cannot prove.
pub(crate) fn diagnose(program: &Program, diags: &mut Vec<Diagnostic>) -> bool {
    let model = mhp::model(program);
    if model.truncated {
        diags.extend(check_syntactic(program));
        return false;
    }
    // E003 suppresses the race warning at the same span.
    let e003_spans = structural(program, &model.symbols, diags);
    engine_deadlocks(&model, diags);
    engine_lock_cycles(&model, diags);
    engine_races(&model, &e003_spans, diags);
    engine_redundant_criticals(&model, diags);
    true
}

/// A lock key as shown to students: criticals lose their `lock:`
/// prefix (the empty name prints `<unnamed>`), internal reduction
/// combiner locks keep their `red:` spelling.
fn display_lock(key: LockKey, syms: &Symbols) -> String {
    match key {
        LockKey::Critical(name) if syms.name(name).is_empty() => "<unnamed>".to_string(),
        LockKey::Critical(name) => syms.name(name).to_string(),
        LockKey::Fold(_) => key.spell(syms).to_string(),
    }
}

/// E001/E006 from proved barrier-arrival mismatches.
fn engine_deadlocks(model: &mhp::Model, diags: &mut Vec<Diagnostic>) {
    for dl in mhp::barrier_deadlocks(model) {
        let mut d = if let Some(blocker) = mhp::classic_blocker(&dl.blockers) {
            e001(blocker, dl.span)
        } else {
            Diagnostic::new(
                Code::E006,
                dl.span,
                format!(
                    "barrier is reached by only {} of {} team threads: deterministic \
                     phase-ordering deadlock",
                    dl.arriving, dl.team
                ),
            )
            .with_note(
                "every thread must arrive at the team barrier the same number of \
                 times; the missing threads wait at the region join forever",
            )
        };
        if let Some(key) = dl.lock {
            d = d.with_note(format!(
                "while waiting here the thread holds `{}`, which the rest of the \
                 team must acquire before they can arrive",
                display_lock(key, &model.symbols)
            ));
        }
        diags.push(d);
    }
}

/// E004 from lock-nesting edge instances: a pair of locks acquired in
/// both orders by concurrent (MHP) threads, a re-entered critical, or
/// a longer cycle over the nesting graph.
fn engine_lock_cycles(model: &mhp::Model, diags: &mut Vec<Diagnostic>) {
    let syms = &model.symbols;
    let mut seen_self = BTreeSet::new();
    for sn in &model.self_nests {
        if seen_self.insert(sn.span) {
            diags.push(e004_reentered(&display_lock(sn.key, syms), sn.span));
        }
    }
    if model.lock_edges.is_empty() {
        return;
    }

    let mut by_pair: BTreeMap<(LockKey, LockKey), Vec<&mhp::LockEdge>> = BTreeMap::new();
    for e in &model.lock_edges {
        by_pair.entry((e.outer, e.inner)).or_default().push(e);
    }
    let report = |a: LockKey, b: LockKey, anchor: Span, diags: &mut Vec<Diagnostic>| {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        diags.push(e004_cycle(&display_lock(lo, syms), &display_lock(hi, syms), anchor));
    };
    let mut reported: BTreeSet<(LockKey, LockKey)> = BTreeSet::new();
    // Direct 2-cycles: the reverse edge must exist on an instance that
    // may happen in parallel with a forward instance (this is what
    // silences both-order nesting under num_threads(1)).
    for (&(a, b), fwd) in &by_pair {
        if a >= b {
            continue;
        }
        let Some(rev) = by_pair.get(&(b, a)) else { continue };
        let feasible = fwd.iter().any(|e1| {
            rev.iter().any(|e2| mhp::may_happen_in_parallel(&e1.frames, &e2.frames))
        });
        if !feasible {
            continue;
        }
        let anchor = fwd.iter().chain(rev.iter()).map(|e| e.span).min().unwrap();
        reported.insert((a, b));
        report(a, b, anchor, diags);
    }
    // Longer cycles (a→b→…→a): reachability over the nesting graph,
    // feasible when any two distinct edges of the cycle's component
    // can run concurrently.
    let edges: BTreeSet<(LockKey, LockKey)> = by_pair.keys().copied().collect();
    for &(a, b) in &edges {
        if a == b {
            continue;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if reported.contains(&(lo, hi)) {
            continue;
        }
        if !reaches_over(&edges, b, a) {
            continue;
        }
        let component: Vec<&mhp::LockEdge> = model
            .lock_edges
            .iter()
            .filter(|e| reaches_over(&edges, a, e.outer) && reaches_over(&edges, e.inner, a))
            .collect();
        let feasible = component.iter().enumerate().any(|(i, e1)| {
            component[i + 1..]
                .iter()
                .any(|e2| mhp::may_happen_in_parallel(&e1.frames, &e2.frames))
        });
        if !feasible {
            continue;
        }
        reported.insert((lo, hi));
        let anchor = component.iter().map(|e| e.span).min().unwrap_or(Span::new(1, 1, 1));
        report(lo, hi, anchor, diags);
    }
}

/// Is `to` reachable from `from` over the nesting edges?
fn reaches_over(edges: &BTreeSet<(LockKey, LockKey)>, from: LockKey, to: LockKey) -> bool {
    if from == to {
        return true;
    }
    let mut seen = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(node) = stack.pop() {
        if node == to {
            return true;
        }
        if !seen.insert(node) {
            continue;
        }
        for &(a, b) in edges {
            if a == node && !seen.contains(&b) {
                stack.push(b);
            }
        }
    }
    false
}

/// Cap on per-variable access events considered for pairing; beyond
/// this the engine has already seen every lexical site many times
/// over (the cap exists for pathological hand-written loops — the
/// step budget keeps the total well below it in practice).
const MAX_PAIR_EVENTS: usize = 2_000;

/// W101/W102 from MHP access pairs with disjoint locksets.
fn engine_races(model: &mhp::Model, e003_spans: &[Span], diags: &mut Vec<Diagnostic>) {
    // Accesses grouped by variable (in name order), each group in
    // execution order.
    let mut order: Vec<&mhp::Access> = model.accesses.iter().collect();
    order.sort_by_key(|a| a.var);
    // Racing write sites: (statement span, var) → did the write itself
    // hold any lock (picks the message wording).
    let mut w101: BTreeMap<(Span, Sym), bool> = BTreeMap::new();
    let mut w102: BTreeSet<(Span, Sym)> = BTreeSet::new();
    for events in order.chunk_by(|a, b| a.var == b.var) {
        let events = &events[..events.len().min(MAX_PAIR_EVENTS)];
        for (i, a) in events.iter().enumerate() {
            for b in &events[i + 1..] {
                if !a.write && !b.write {
                    continue;
                }
                if !mhp::accesses_mhp(a, b) {
                    continue;
                }
                if a.locks.excludes(&b.locks) {
                    continue;
                }
                for (w, other) in [(a, b), (b, a)] {
                    if !w.write {
                        continue;
                    }
                    if let (Some(mspan), false) = (w.master, other.write) {
                        // A master-side write racing with a read is the
                        // classic missing-barrier idiom: report W102 at
                        // the master directive.
                        w102.insert((mspan, w.var));
                    } else if !e003_spans.contains(&w.span) {
                        let locked = !w.locks.is_empty();
                        w101.entry((w.span, w.var)).and_modify(|l| *l |= locked).or_insert(locked);
                    }
                }
            }
        }
    }
    for ((span, var), locked) in w101 {
        let var = model.symbols.name(var);
        let d = if locked {
            Diagnostic::new(
                Code::W101,
                span,
                format!(
                    "write to shared variable `{var}` races despite `critical`: a \
                     concurrent access shares no lock with it"
                ),
            )
            .with_note(
                "the conflicting access runs under a disjoint lockset; both \
                 accesses must agree on one named critical",
            )
        } else {
            w101_unprotected(var, span)
        };
        diags.push(d);
    }
    for (span, var) in w102 {
        diags.push(w102_master(model.symbols.name(var), span));
    }
}

/// W104: a `critical` region whose body contains shared accesses, none
/// of which has *any* concurrent conflicting access — with or without
/// locks, nothing can race with it, so the lock is pure overhead.
/// Criticals with no shared accesses at all stay silent (they usually
/// guard something else, like a barrier misuse already reported).
fn engine_redundant_criticals(model: &mhp::Model, diags: &mut Vec<Diagnostic>) {
    let mut sites: BTreeMap<Span, LockKey> = BTreeMap::new();
    for s in &model.critical_sites {
        sites.entry(s.span).or_insert(s.key);
    }
    for (span, key) in sites {
        let mut inside = model.accesses.iter().filter(|a| a.criticals.contains(&span)).peekable();
        if inside.peek().is_none() {
            continue;
        }
        let conflict = inside.any(|a| {
            model.accesses.iter().any(|b| {
                b.seq != a.seq
                    && b.var == a.var
                    && (a.write || b.write)
                    && mhp::accesses_mhp(a, b)
            })
        });
        if !conflict {
            let shown = display_lock(key, &model.symbols);
            diags.push(
                Diagnostic::new(
                    Code::W104,
                    span,
                    format!(
                        "critical region `{shown}` is redundant: no concurrent access \
                         conflicts with its body"
                    ),
                )
                .with_note(
                    "MHP analysis proves every access in this block is thread-local \
                     or ordered; the lock only adds overhead — remove it",
                ),
            );
        }
    }
}

// -- the structural rules, shared by both engines ---------------------

/// The structural rules — E002, E003, E005 and W103 — in one walk over
/// symbols. Both engines report them from here. Returns the spans of
/// the E003 writes, where neither engine also reports a race.
fn structural(program: &Program, syms: &Symbols, diags: &mut Vec<Diagnostic>) -> Vec<Span> {
    let mut walk = Structural { syms, diags, scopes: Vec::new(), e003: Vec::new() };
    walk.items(&program.items);
    walk.e003
}

struct Structural<'a> {
    syms: &'a Symbols,
    diags: &'a mut Vec<Diagnostic>,
    scopes: Vec<Scope>,
    e003: Vec<Span>,
}

impl Structural<'_> {
    fn items(&mut self, items: &[Item]) {
        for item in items {
            match item {
                Item::Assign(a) => self.assign(a),
                Item::Loop(l) => {
                    self.scopes.push(Scope::Loop(self.syms.sym(&l.var.name)));
                    self.items(&l.body);
                    self.scopes.pop();
                }
                Item::Region(r) => self.region(r),
            }
        }
    }

    fn region(&mut self, r: &Region) {
        self.entry(r);
        self.scopes.push(Scope::region(r, self.syms));
        // W103: private declared here, first lexical use is a read.
        for clause in &r.clauses {
            let Clause::Private(ids) = clause else { continue };
            for id in ids {
                if let Some((true, span)) = first_access(&r.body, &id.name) {
                    self.diags.push(w103(&id.name, span));
                }
            }
        }
        self.items(&r.body);
        self.scopes.pop();
    }

    /// E002 and E005 on seeing a directive, before entering it.
    fn entry(&mut self, r: &Region) {
        match r.kind {
            RegionKind::For | RegionKind::Sections => {
                // E002: worksharing nested in worksharing.
                let outer = kinds_below_parallel(&self.scopes).find(|k| {
                    matches!(k, RegionKind::For | RegionKind::Sections | RegionKind::Section)
                });
                if let Some(outer) = outer {
                    self.diags.push(e002(r.kind, outer, r.span));
                }
            }
            // E005: `section` must sit directly inside `sections`.
            RegionKind::Section
                if kinds_below_parallel(&self.scopes).next() != Some(RegionKind::Sections) =>
            {
                self.diags.push(stray_section(r.span));
            }
            _ => {}
        }
        // E005: `sections` may only contain `section` branches.
        if r.kind == RegionKind::Sections {
            for item in &r.body {
                if !matches!(item, Item::Region(s) if s.kind == RegionKind::Section) {
                    self.diags.push(loose_in_sections(item));
                }
            }
        }
    }

    /// E003: a shared write, in a team of more than one, to a variable
    /// some reduction of the innermost parallel region accumulates.
    fn assign(&mut self, a: &Assign) {
        let target = self.syms.sym(&a.target.name);
        if resolve(&self.scopes, target) != Sharing::Shared {
            return;
        }
        let Some((size, team_reductions)) = team(&self.scopes) else { return };
        if size > 1 && team_reductions.contains(target) {
            self.e003.push(a.span);
            self.diags.push(e003(&a.target.name, a.span));
        }
    }
}

/// Reduction variables declared by `for` constructs in this parallel
/// region (not crossing into nested parallel regions).
fn reduction_vars(items: &[Item], syms: &Symbols, out: &mut NameSet) {
    for item in items {
        match item {
            Item::Region(r) => {
                if r.kind == RegionKind::For {
                    for (_, var) in r.reductions() {
                        out.insert(syms.sym(&var.name));
                    }
                }
                if r.kind != RegionKind::Parallel {
                    reduction_vars(&r.body, syms, out);
                }
            }
            Item::Loop(l) => reduction_vars(&l.body, syms, out),
            Item::Assign(_) => {}
        }
    }
}

// -- diagnostics, each worded once for both engines --------------------

fn e001(blocker: RegionKind, span: Span) -> Diagnostic {
    Diagnostic::new(
        Code::E001,
        span,
        format!("barrier inside `{}`: only part of the team reaches it", blocker.keyword()),
    )
    .with_note(
        "threads that skip this construct wait at the region's end while \
         the thread inside waits here — a guaranteed deadlock",
    )
}

fn e004_reentered(lock: &str, span: Span) -> Diagnostic {
    Diagnostic::new(Code::E004, span, format!("critical region `{lock}` is nested inside itself"))
        .with_note("Pyjama criticals are not reentrant: re-entry deadlocks")
}

fn e004_cycle(lo: &str, hi: &str, span: Span) -> Diagnostic {
    Diagnostic::new(
        Code::E004,
        span,
        format!("critical regions `{lo}` and `{hi}` are nested in both orders (lock-order cycle)"),
    )
    .with_note(
        "two threads can each hold one lock while waiting for the other: \
         deadlock; acquire named criticals in one global order",
    )
}

fn w101_unprotected(var: &str, span: Span) -> Diagnostic {
    Diagnostic::new(
        Code::W101,
        span,
        format!("unprotected write to shared variable `{var}` in a parallel region"),
    )
    .with_note(
        "another thread can access it concurrently — protect it with \
         `critical`, make it a reduction, or privatise it",
    )
}

fn w102_master(var: &str, span: Span) -> Diagnostic {
    Diagnostic::new(
        Code::W102,
        span,
        format!("`master` writes `{var}` but sibling code reads it with no barrier in between"),
    )
    .with_note(
        "`master` has no implied barrier — non-master threads may read \
         before the write; use `single` or add `//#omp barrier`",
    )
}

fn e002(kind: RegionKind, outer: RegionKind, span: Span) -> Diagnostic {
    Diagnostic::new(
        Code::E002,
        span,
        format!(
            "worksharing `{}` nested inside `{}` bound to the same \
             parallel region",
            kind.keyword(),
            outer.keyword()
        ),
    )
    .with_note(
        "each thread re-divides only its own share; wrap the inner \
         construct in its own parallel region or restructure the loops",
    )
}

fn e003(var: &str, span: Span) -> Diagnostic {
    Diagnostic::new(
        Code::E003,
        span,
        format!(
            "reduction variable `{var}` is written as a shared variable outside \
             its reduction construct"
        ),
    )
    .with_note(
        "this write bypasses the per-thread accumulators and races with the \
         combiner; move it outside the parallel region",
    )
}

fn stray_section(span: Span) -> Diagnostic {
    Diagnostic::new(Code::E005, span, "`section` outside a `sections` construct")
        .with_note("wrap the section branches in `//#omp sections { ... }`")
}

fn loose_in_sections(item: &Item) -> Diagnostic {
    let span = match item {
        Item::Region(s) => s.span,
        Item::Loop(l) => l.span,
        Item::Assign(a) => a.span,
    };
    Diagnostic::new(Code::E005, span, "only `//#omp section` blocks may appear directly inside `sections`")
}

fn w103(var: &str, span: Span) -> Diagnostic {
    Diagnostic::new(Code::W103, span, format!("private variable `{var}` is read before its first write"))
        .with_note(
            "private copies start uninitialised; use `firstprivate` to \
             capture the outer value",
        )
}

/// Run the original syntactic rules over a parsed program: the
/// precision baseline the E-FUZZ harness compares the MHP∩lockset
/// engine against. The structural rules come from the walk [`check`]
/// also runs; E001, W101, W102 and E004 are matched on the syntax
/// alone. The result is sorted deterministically (span, then code).
#[must_use]
pub fn check_syntactic(program: &Program) -> Vec<Diagnostic> {
    let syms = Symbols::of(program);
    let mut diags = Vec::new();
    let e003 = structural(program, &syms, &mut diags);
    let mut ck = Checker {
        syms: &syms,
        e003: &e003,
        diags,
        scopes: Vec::new(),
        held: Vec::new(),
        lock_edges: BTreeMap::new(),
        section_siblings: Vec::new(),
    };
    ck.walk_items(&program.items);
    ck.report_lock_cycles();
    sort_diagnostics(&mut ck.diags);
    ck.diags
}

/// The pattern rules of [`check_syntactic`]: E001, W101, W102 and E004.
struct Checker<'a> {
    syms: &'a Symbols,
    /// The writes the structural walk reported as E003, which subsumes
    /// the race warning.
    e003: &'a [Span],
    diags: Vec<Diagnostic>,
    scopes: Vec<Scope>,
    /// Lock names currently held (entered criticals, outermost first).
    held: Vec<String>,
    /// Observed nesting edges between named criticals: outer → inner,
    /// with the span of the inner directive that recorded the edge.
    lock_edges: BTreeMap<(String, String), Span>,
    /// Sibling-section variable access sets and our index among them,
    /// for the `W101` disjointness refinement. Innermost last.
    section_siblings: Vec<(Vec<BTreeSet<String>>, usize)>,
}

impl Checker<'_> {
    fn resolve(&self, var: &str) -> Sharing {
        resolve(&self.scopes, self.syms.sym(var))
    }

    /// Is the current point protected by a mutual-exclusion or
    /// one-thread construct (below the nearest parallel region)?
    fn protected(&self) -> bool {
        kinds_below_parallel(&self.scopes).any(|k| {
            matches!(
                k,
                RegionKind::Critical | RegionKind::Single | RegionKind::Master | RegionKind::Gui
            )
        })
    }

    // -- the walk -----------------------------------------------------

    fn walk_items(&mut self, items: &[Item]) {
        for item in items {
            match item {
                Item::Assign(a) => self.check_assign(a),
                Item::Loop(l) => {
                    self.scopes.push(Scope::Loop(self.syms.sym(&l.var.name)));
                    self.walk_items(&l.body);
                    self.scopes.pop();
                }
                Item::Region(r) => self.walk_region(r),
            }
        }
    }

    fn walk_region(&mut self, r: &Region) {
        if r.kind == RegionKind::Barrier {
            // E001: a barrier only some of the team reaches.
            let blocker = kinds_below_parallel(&self.scopes).find(|k| {
                matches!(
                    k,
                    RegionKind::For
                        | RegionKind::Sections
                        | RegionKind::Section
                        | RegionKind::Single
                        | RegionKind::Master
                        | RegionKind::Critical
                )
            });
            if let Some(blocker) = blocker {
                self.diags.push(e001(blocker, r.span));
            }
        }
        self.scopes.push(Scope::region(r, self.syms));

        if r.kind == RegionKind::Parallel {
            self.check_master_without_barrier(r);
        }

        if r.kind == RegionKind::Critical {
            let lock = r.name.as_ref().map_or(String::new(), |n| n.name.clone());
            if self.held.iter().any(|h| h == &lock) {
                let shown = if lock.is_empty() { "<unnamed>" } else { &lock };
                self.diags.push(e004_reentered(shown, r.span));
            } else {
                for outer in &self.held {
                    self.lock_edges
                        .entry((outer.clone(), lock.clone()))
                        .or_insert(r.span);
                }
            }
            self.held.push(lock);
        }

        if r.kind == RegionKind::Sections {
            let sets: Vec<BTreeSet<String>> = r
                .body
                .iter()
                .map(|item| {
                    let mut set = BTreeSet::new();
                    if let Item::Region(sec) = item {
                        collect_accesses(&sec.body, &mut set);
                    }
                    set
                })
                .collect();
            for (idx, item) in r.body.iter().enumerate() {
                if let Item::Region(sec) = item {
                    if sec.kind == RegionKind::Section {
                        self.section_siblings.push((sets.clone(), idx));
                        self.walk_region(sec);
                        self.section_siblings.pop();
                        continue;
                    }
                }
                // A loose item (the structural walk's E005); still walk.
                self.walk_items(std::slice::from_ref(item));
            }
        } else {
            self.walk_items(&r.body);
        }

        if r.kind == RegionKind::Critical {
            self.held.pop();
        }
        self.scopes.pop();
    }

    /// W102: a `master` block initialises shared state that sibling
    /// code reads with no barrier in between (`master`, unlike
    /// `single`, has no implied barrier).
    fn check_master_without_barrier(&mut self, parallel: &Region) {
        for (i, item) in parallel.body.iter().enumerate() {
            let Item::Region(master) = item else { continue };
            if master.kind != RegionKind::Master {
                continue;
            }
            let mut writes = BTreeSet::new();
            collect_writes(&master.body, &mut writes);
            writes.retain(|v| self.resolve(v) == Sharing::Shared);
            if writes.is_empty() {
                continue;
            }
            'after: for later in &parallel.body[i + 1..] {
                if let Item::Region(r) = later {
                    if r.kind == RegionKind::Barrier {
                        break 'after; // subsequent reads are ordered
                    }
                }
                let mut reads = BTreeSet::new();
                collect_reads(std::slice::from_ref(later), &mut reads);
                if let Some(var) = writes.iter().find(|w| reads.contains(*w)) {
                    self.diags.push(w102_master(var, master.span));
                    break 'after;
                }
            }
        }
    }

    /// W101: an unprotected write to a shared variable in a team of
    /// more than one.
    fn check_assign(&mut self, a: &Assign) {
        if self.resolve(&a.target.name) != Sharing::Shared {
            return;
        }
        let Some((size, _)) = team(&self.scopes) else { return };
        if size <= 1 || self.e003.contains(&a.span) || self.protected() {
            return;
        }
        // Disjoint sections don't race: a write inside a `section` is
        // only a hazard if a sibling section touches the same variable.
        if let Some((siblings, me)) = self.section_siblings.last() {
            let contested = siblings
                .iter()
                .enumerate()
                .any(|(j, set)| j != *me && set.contains(&a.target.name));
            if !contested {
                return;
            }
        }
        self.diags.push(w101_unprotected(&a.target.name, a.span));
    }

    /// E004: report each pair of named criticals nested in both orders.
    fn report_lock_cycles(&mut self) {
        let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
        let edges: Vec<((String, String), Span)> = self
            .lock_edges
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        for ((a, b), span) in &edges {
            if a == b {
                continue;
            }
            let key = if a < b { (a.clone(), b.clone()) } else { (b.clone(), a.clone()) };
            if reported.contains(&key) {
                continue;
            }
            if self.reaches(b, a) {
                reported.insert(key.clone());
                // Anchor at the lexically first of the two edges.
                let other = self.lock_edges.get(&(b.clone(), a.clone())).copied();
                let anchor = other.map_or(*span, |o| (*span).min(o));
                self.diags.push(e004_cycle(&key.0, &key.1, anchor));
            }
        }
    }

    /// Is `to` reachable from `from` over the recorded nesting edges?
    fn reaches(&self, from: &str, to: &str) -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from.to_string()];
        while let Some(node) = stack.pop() {
            if node == to {
                return true;
            }
            if !seen.insert(node.clone()) {
                continue;
            }
            for (a, b) in self.lock_edges.keys() {
                if *a == node && !seen.contains(b) {
                    stack.push(b.clone());
                }
            }
        }
        false
    }
}

// -- subtree collectors ----------------------------------------------

/// All assignment targets in a subtree.
fn collect_writes(items: &[Item], out: &mut BTreeSet<String>) {
    for item in items {
        match item {
            Item::Assign(a) => {
                out.insert(a.target.name.clone());
            }
            Item::Loop(l) => collect_writes(&l.body, out),
            Item::Region(r) => collect_writes(&r.body, out),
        }
    }
}

/// All variables read (in expressions) in a subtree.
fn collect_reads(items: &[Item], out: &mut BTreeSet<String>) {
    for item in items {
        match item {
            Item::Assign(a) => a.expr.each_var(&mut |id| {
                out.insert(id.name.clone());
            }),
            Item::Loop(l) => collect_reads(&l.body, out),
            Item::Region(r) => collect_reads(&r.body, out),
        }
    }
}

/// All variables touched (read or written) in a subtree.
fn collect_accesses(items: &[Item], out: &mut BTreeSet<String>) {
    collect_writes(items, out);
    collect_reads(items, out);
}

/// The first lexical access to `var` in a subtree: `Some((true, span))`
/// for a read, `Some((false, span))` for a write. Within an
/// assignment the right-hand side reads precede the target write
/// (evaluation order). Subtrees that re-declare `var` (loop variable
/// or a privatising clause) are skipped.
fn first_access(items: &[Item], var: &str) -> Option<(bool, Span)> {
    for item in items {
        match item {
            Item::Assign(a) => {
                let mut read_span = None;
                a.expr.each_var(&mut |id| {
                    if read_span.is_none() && id.name == var {
                        read_span = Some(id.span);
                    }
                });
                if let Some(span) = read_span {
                    return Some((true, span));
                }
                if a.target.name == var {
                    return Some((false, a.target.span));
                }
            }
            Item::Loop(l) => {
                if l.var.name == var {
                    continue; // shadowed by the loop variable
                }
                if let Some(hit) = first_access(&l.body, var) {
                    return Some(hit);
                }
            }
            Item::Region(r) => {
                let redeclared = r.clauses.iter().any(|c| match c {
                    crate::ast::Clause::Private(ids) | crate::ast::Clause::FirstPrivate(ids) => {
                        ids.iter().any(|i| i.name == var)
                    }
                    crate::ast::Clause::Reduction { var: v, .. } => v.name == var,
                    _ => false,
                });
                if redeclared {
                    continue;
                }
                if let Some(hit) = first_access(&r.body, var) {
                    return Some(hit);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn codes(src: &str) -> Vec<Code> {
        let prog = parse(src).expect("test sources parse");
        check(&prog).into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn barrier_in_critical_is_e001() {
        let src = "\
//#omp parallel num_threads(2)
{
    //#omp critical
    {
        //#omp barrier
    }
}
";
        assert_eq!(codes(src), vec![Code::E001]);
    }

    #[test]
    fn barrier_directly_in_parallel_is_fine() {
        let src = "\
//#omp parallel num_threads(2)
{
    //#omp barrier
}
";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn nested_worksharing_is_e002() {
        let src = "\
//#omp parallel num_threads(2) private(x)
{
    //#omp for
    for i in 0..2 {
        //#omp for
        for j in 0..2 {
            x = j;
        }
    }
}
";
        assert_eq!(codes(src), vec![Code::E002]);
    }

    #[test]
    fn reduction_var_written_outside_is_e003_not_w101() {
        let src = "\
sum = 0;
//#omp parallel num_threads(2)
{
    //#omp for reduction(+:sum)
    for i in 0..4 {
        sum = sum + i;
    }
    sum = sum + 100;
}
";
        assert_eq!(codes(src), vec![Code::E003]);
    }

    #[test]
    fn inconsistent_critical_nesting_is_e004() {
        let src = "\
//#omp parallel num_threads(2)
{
    //#omp critical alpha
    {
        //#omp critical beta
        {
            a = 1;
        }
    }
    //#omp critical beta
    {
        //#omp critical alpha
        {
            b = 1;
        }
    }
}
";
        assert_eq!(codes(src), vec![Code::E004]);
    }

    #[test]
    fn self_nested_critical_is_e004() {
        let src = "\
//#omp parallel num_threads(2)
{
    //#omp critical lk
    {
        //#omp critical lk
        {
            a = 1;
        }
    }
}
";
        assert_eq!(codes(src), vec![Code::E004]);
    }

    #[test]
    fn consistent_nesting_is_clean() {
        let src = "\
//#omp parallel num_threads(2)
{
    //#omp critical alpha
    {
        //#omp critical beta
        {
            a = a + 1;
        }
    }
    //#omp critical alpha
    {
        //#omp critical beta
        {
            a = a + 2;
        }
    }
}
";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn unprotected_shared_write_is_w101() {
        let src = "\
//#omp parallel num_threads(2)
{
    count = count + 1;
}
";
        assert_eq!(codes(src), vec![Code::W101]);
    }

    #[test]
    fn critical_protects_the_write() {
        let src = "\
//#omp parallel num_threads(2)
{
    //#omp critical
    {
        count = count + 1;
    }
}
";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn num_threads_one_suppresses_w101() {
        let src = "\
//#omp parallel num_threads(1)
{
    count = count + 1;
}
";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn disjoint_sections_are_clean_but_conflicting_sections_warn() {
        let disjoint = "\
//#omp parallel num_threads(2)
{
    //#omp sections
    {
        //#omp section
        {
            head = 1;
        }
        //#omp section
        {
            tail = 2;
        }
    }
}
";
        assert!(codes(disjoint).is_empty());
        let conflicting = disjoint.replace("head", "log").replace("tail", "log");
        assert_eq!(codes(&conflicting), vec![Code::W101, Code::W101]);
    }

    #[test]
    fn master_without_barrier_is_w102_with_barrier_clean() {
        let racy = "\
//#omp parallel num_threads(2) private(local)
{
    //#omp master
    {
        config = 7;
    }
    local = config;
}
";
        assert_eq!(codes(racy), vec![Code::W102]);
        let fixed = racy.replace("    local = config;", "    //#omp barrier\n    local = config;");
        assert!(codes(&fixed).is_empty());
    }

    #[test]
    fn private_read_before_write_is_w103() {
        let src = "\
//#omp parallel num_threads(2) private(t)
{
    t = t + 1;
}
";
        assert_eq!(codes(src), vec![Code::W103]);
    }

    #[test]
    fn firstprivate_read_is_fine() {
        let src = "\
seed = 3;
//#omp parallel num_threads(2) firstprivate(seed)
{
    seed = seed + 1;
}
";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn stray_section_is_e005() {
        let src = "\
//#omp parallel num_threads(2)
{
    //#omp section
    {
        x = 1;
    }
}
";
        assert_eq!(codes(src), vec![Code::E005, Code::W101]);
    }

    // -- MHP∩lockset engine ------------------------------------------

    fn codes_syntactic(src: &str) -> Vec<Code> {
        let prog = parse(src).expect("test sources parse");
        check_syntactic(&prog).into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn barrier_in_gui_is_e006() {
        let src = "\
//#omp parallel num_threads(2)
{
    //#omp gui
    {
        done = 1;
        //#omp barrier
    }
}
";
        assert_eq!(codes(src), vec![Code::E006]);
        // The syntactic engine's E001 family never covered `gui`.
        assert!(codes_syntactic(src).is_empty());
    }

    #[test]
    fn redundant_critical_is_w104() {
        let src = "\
//#omp parallel num_threads(2)
{
    //#omp sections
    {
        //#omp section
        {
            //#omp critical stats
            {
                head = head + 1;
            }
        }
        //#omp section
        {
            tail = tail + 1;
        }
    }
}
";
        assert_eq!(codes(src), vec![Code::W104]);
    }

    #[test]
    fn contested_critical_is_not_w104() {
        let src = "\
//#omp parallel num_threads(2)
{
    //#omp critical tally
    {
        count = count + 1;
    }
}
";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn even_barrier_split_in_for_is_proved_clean() {
        // 4 iterations across 2 threads: each thread meets the barrier
        // twice. The syntactic engine flags E001; the MHP engine
        // proves the arrival counts balance.
        let src = "\
//#omp parallel num_threads(2)
{
    //#omp for
    for i in 0..4 {
        //#omp barrier
    }
}
";
        assert!(codes(src).is_empty());
        assert_eq!(codes_syntactic(src), vec![Code::E001]);
    }

    #[test]
    fn single_iteration_for_write_is_proved_clean() {
        // Only thread 0 ever executes the body: no MHP pair exists.
        let src = "\
//#omp parallel num_threads(2)
{
    //#omp for
    for i in 0..1 {
        x = x + 1;
    }
}
";
        assert!(codes(src).is_empty());
        assert_eq!(codes_syntactic(src), vec![Code::W101]);
    }

    #[test]
    fn team_of_one_lock_cycle_is_proved_clean() {
        let src = "\
//#omp parallel num_threads(1)
{
    //#omp critical alpha
    {
        //#omp critical beta
        {
            u = u + 1;
        }
    }
    //#omp critical beta
    {
        //#omp critical alpha
        {
            u = u + 2;
        }
    }
}
";
        // One thread acquires both orders sequentially: no deadlock is
        // reachable. The locks are also genuinely redundant on a team
        // of one, so W104 fires instead of the old false E004.
        let got = codes(src);
        assert!(!got.contains(&Code::E004));
        assert!(got.iter().all(|c| *c == Code::W104));
        assert_eq!(codes_syntactic(src), vec![Code::E004]);
    }

    #[test]
    fn disjoint_locks_still_race_w101() {
        let src = "\
//#omp parallel num_threads(2)
{
    //#omp critical alpha
    {
        x = x + 1;
    }
    //#omp critical beta
    {
        x = x + 2;
    }
}
";
        assert_eq!(codes(src), vec![Code::W101, Code::W101]);
    }

    #[test]
    fn lockset_message_mentions_the_disjoint_lock() {
        let src = "\
//#omp parallel num_threads(2)
{
    //#omp critical alpha
    {
        x = x + 1;
    }
    x = x + 2;
}
";
        let prog = parse(src).expect("parses");
        let diags = check(&prog);
        let locked: Vec<&Diagnostic> =
            diags.iter().filter(|d| d.message.contains("races despite")).collect();
        assert_eq!(locked.len(), 1, "the locked write gets the lockset wording: {diags:?}");
        assert!(diags.iter().any(|d| d.message.starts_with("unprotected write")));
    }
}
