//! May-Happen-in-Parallel analysis over the region tree.
//!
//! The directive language is branch-free and loop bounds are literals,
//! so the program has exactly one control-flow path per thread. That
//! lets the analysis be *exact* instead of a lattice approximation:
//! [`model`] runs every thread of every team, one after another, on
//! the lowering interpreter the [`crate::bridge`] back ends run
//! (cyclic `index % num_threads` worksharing splits, thread 0 for
//! `single`/`master`/`gui`, one team barrier per parallel region
//! serving every barrier point, reduction accumulation in a private
//! frame folded under an internal `red:` lock). Its back end reads
//! zeros — values never steer control flow — and records an event
//! stream:
//!
//! * **shared accesses** — variable, read/write, the span, the held
//!   [`Lockset`], and a stack of *context frames* `(par, tid, phase)`;
//! * **barrier arrivals** — per `(parallel instance, tid)`, with the
//!   locks held at the arrival and the locks acquired since the
//!   previous arrival;
//! * **lock-nesting edges** — `(outer, inner)` acquisitions with their
//!   context frames, feeding E004 cycle detection.
//!
//! Events name variables and locks by the program's symbols
//! ([`Model::symbols`]; a [`LockKey`] per lock), and a thread's events
//! share one copy of its context frames until a barrier or a team spawn
//! changes them. The model's `Display` spells every name out.
//!
//! `phase` counts barrier arrivals: because the whole team shares one
//! barrier object, episode `k` on one thread pairs with episode `k` on
//! every other, so **two events may happen in parallel iff, at the
//! first context frame where they diverge, they are in the same
//! parallel instance, on different threads, in the same phase** —
//! see [`may_happen_in_parallel`]. Everything else (same thread,
//! different phases, or sequentially-executed sibling instances) is
//! ordered.
//!
//! Barrier deadlocks fall out of the arrival records (see
//! [`barrier_deadlocks`]): a team deadlocks deterministically iff
//! per-thread arrival counts differ (someone waits at the region join
//! while the rest wait at the barrier), or some episode has one thread
//! arriving while *holding* a lock another thread still needs to
//! *acquire* before its own arrival.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::ast::{Program, Region, RegionKind, Span};
use crate::lockset::{KeySet, LockKey, Lockset};
use crate::lower::{self, Backend, Frame, Lock, Thread};
use crate::sym::{Sym, Symbols};

/// Symbolic-execution step budget. Loop bounds are literals, so this
/// only trips on pathological hand-written inputs; when it does, the
/// model is flagged [`Model::truncated`] and rule evaluation falls
/// back to the conservative syntactic engine.
pub const STEP_BUDGET: usize = 20_000;

/// One level of execution context: which dynamic parallel-region
/// instance, which thread of its team, and how many barrier episodes
/// that thread has completed at this level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadFrame {
    /// Dynamic parallel-region instance id (fresh per entry, so a
    /// parallel region inside a loop yields sequential instances).
    pub par: usize,
    /// Thread id within that instance's team.
    pub tid: usize,
    /// Barrier-arrival count at event time.
    pub phase: usize,
}

/// A shared-memory access event.
#[derive(Clone, Debug)]
pub struct Access {
    /// The variable (resolved shared — private accesses never emit).
    pub var: Sym,
    /// Write (`true`) or read.
    pub write: bool,
    /// Statement span for writes, identifier span for reads.
    pub span: Span,
    /// Context frames, outermost first (shared by the thread's events
    /// until its context changes).
    pub frames: Arc<[ThreadFrame]>,
    /// Locks held on the path to this access.
    pub locks: Lockset,
    /// Spans of the lexically enclosing `critical` regions.
    pub criticals: Vec<Span>,
    /// Span of the innermost enclosing `master` region, if any.
    pub master: Option<Span>,
    /// Global event sequence number (distinguishes instances).
    pub seq: usize,
}

/// One barrier arrival by one thread of one team instance.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Parallel instance id.
    pub par: usize,
    /// Arriving thread.
    pub tid: usize,
    /// Arrival index for this thread (0-based episode number).
    pub index: usize,
    /// Span of the barrier point (explicit `barrier` statement, or the
    /// worksharing/`single` directive for its implied join).
    pub span: Span,
    /// Locks held while waiting at this barrier.
    pub held: Lockset,
    /// Lock keys acquired (even if since released) between the
    /// previous arrival and this one.
    pub acquired: KeySet,
    /// Enclosing constructs below the parallel region at the arrival
    /// point, innermost first.
    pub blockers: Vec<RegionKind>,
}

/// A lock-nesting edge: `inner` acquired while `outer` was held.
#[derive(Clone, Debug)]
pub struct LockEdge {
    /// Already-held lock key.
    pub outer: LockKey,
    /// Newly-acquired lock key.
    pub inner: LockKey,
    /// Span of the inner acquisition site.
    pub span: Span,
    /// Context frames of the acquiring thread.
    pub frames: Arc<[ThreadFrame]>,
}

/// A `critical` region re-entered while its own lock was already held.
#[derive(Clone, Debug)]
pub struct SelfNest {
    /// The lock key.
    pub key: LockKey,
    /// Span of the inner (re-entrant) directive.
    pub span: Span,
}

/// One dynamic parallel-region instance.
#[derive(Clone, Debug)]
pub struct TeamInstance {
    /// Instance id.
    pub par: usize,
    /// Directive span.
    pub span: Span,
    /// Team size.
    pub team: usize,
}

/// A lexical `critical` region the execution reached.
#[derive(Clone, Debug)]
pub struct CriticalSite {
    /// Directive span (identifies the lexical region).
    pub span: Span,
    /// Its lock key.
    pub key: LockKey,
}

/// The full event model of one program.
#[derive(Clone, Debug, Default)]
pub struct Model {
    /// The program's names, which every event's symbols index.
    pub symbols: Symbols,
    /// Shared accesses in execution order.
    pub accesses: Vec<Access>,
    /// Barrier arrivals in execution order.
    pub arrivals: Vec<Arrival>,
    /// Lock-nesting edges.
    pub lock_edges: Vec<LockEdge>,
    /// Re-entrant critical acquisitions.
    pub self_nests: Vec<SelfNest>,
    /// Every dynamic parallel instance.
    pub teams: Vec<TeamInstance>,
    /// Every lexical critical reached (may repeat across instances).
    pub critical_sites: Vec<CriticalSite>,
    /// Step budget exhausted — the model is incomplete and rule
    /// evaluation must not trust it.
    pub truncated: bool,
}

/// One line per event, names and lock keys spelled out: teams, then
/// accesses, arrivals, lock-nesting edges, re-entries and critical
/// sites, each in execution order. A span prints as
/// `line:col+len`, a context frame as `par.tid.phase`, a held lock as
/// `key@acquisition`.
impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let syms = &self.symbols;
        for t in &self.teams {
            writeln!(f, "team {} {} x{}", t.par, At(t.span), t.team)?;
        }
        for a in &self.accesses {
            let rw = if a.write { "write" } else { "read" };
            write!(f, "access {} {rw} {} {} ", a.seq, syms.name(a.var), At(a.span))?;
            write!(f, "{} {} [", Frames(&a.frames), Held(&a.locks, syms))?;
            for (i, span) in a.criticals.iter().enumerate() {
                write!(f, "{}{}", if i == 0 { "" } else { " " }, At(*span))?;
            }
            match a.master {
                Some(span) => writeln!(f, "] master {}", At(span))?,
                None => writeln!(f, "]")?,
            }
        }
        for a in &self.arrivals {
            write!(f, "arrival {}.{}#{} {} {} {{", a.par, a.tid, a.index, At(a.span), Held(&a.held, syms))?;
            for (i, key) in a.acquired.iter().enumerate() {
                write!(f, "{}{}", if i == 0 { "" } else { " " }, key.spell(syms))?;
            }
            write!(f, "}}")?;
            for kind in &a.blockers {
                write!(f, " {}", kind.keyword())?;
            }
            writeln!(f)?;
        }
        for e in &self.lock_edges {
            let (outer, inner) = (e.outer.spell(syms), e.inner.spell(syms));
            writeln!(f, "edge {outer} -> {inner} {} {}", At(e.span), Frames(&e.frames))?;
        }
        for s in &self.self_nests {
            writeln!(f, "reenter {} {}", s.key.spell(syms), At(s.span))?;
        }
        for c in &self.critical_sites {
            writeln!(f, "critical {} {}", c.key.spell(syms), At(c.span))?;
        }
        if self.truncated {
            writeln!(f, "truncated")?;
        }
        Ok(())
    }
}

/// A span as `line:col+len`.
struct At(Span);

impl fmt::Display for At {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}+{}", self.0.line, self.0.col, self.0.len)
    }
}

/// Context frames as `[par.tid.phase ...]`, outermost first.
struct Frames<'a>(&'a [ThreadFrame]);

impl fmt::Display for Frames<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, t) in self.0.iter().enumerate() {
            write!(f, "{}{}.{}.{}", if i == 0 { "" } else { " " }, t.par, t.tid, t.phase)?;
        }
        write!(f, "]")
    }
}

/// A lockset as `{key@acquisition ...}`, sorted by key.
struct Held<'a>(&'a Lockset, &'a Symbols);

impl fmt::Display for Held<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (key, acq)) in self.0.entries().enumerate() {
            write!(f, "{}{}@{acq}", if i == 0 { "" } else { " " }, key.spell(self.1))?;
        }
        write!(f, "}}")
    }
}

/// May two events execute concurrently? Decided at the first context
/// frame where the stacks diverge: same parallel instance + different
/// thread + same barrier phase ⇒ yes; anything else (same thread,
/// phase skew on one thread, or distinct sequential instances) ⇒ the
/// events are ordered. A stack that is a prefix of the other belongs
/// to the spawning thread, which is ordered against its team by
/// spawn/join edges.
#[must_use]
pub fn may_happen_in_parallel(a: &[ThreadFrame], b: &[ThreadFrame]) -> bool {
    for (fa, fb) in a.iter().zip(b.iter()) {
        if fa.par != fb.par {
            return false;
        }
        if fa.tid != fb.tid {
            return fa.phase == fb.phase;
        }
        if fa.phase != fb.phase {
            return false;
        }
    }
    false
}

/// Convenience: MHP over two accesses.
#[must_use]
pub fn accesses_mhp(a: &Access, b: &Access) -> bool {
    may_happen_in_parallel(&a.frames, &b.frames)
}

/// The construct family the classic structural E001 covered. Returns
/// the innermost such construct among `blockers` (innermost-first);
/// `None` means the deadlock is outside the old rule's reach (e.g. a
/// barrier under `gui`) and reports as E006.
#[must_use]
pub fn classic_blocker(blockers: &[RegionKind]) -> Option<RegionKind> {
    blockers.iter().copied().find(|k| {
        matches!(
            k,
            RegionKind::For
                | RegionKind::Sections
                | RegionKind::Section
                | RegionKind::Single
                | RegionKind::Master
                | RegionKind::Critical
        )
    })
}

/// A proved deterministic barrier deadlock in one team instance.
#[derive(Clone, Debug)]
pub struct Deadlock {
    /// The team instance.
    pub par: usize,
    /// Anchor span: the unbalanced barrier point (count mismatch) or
    /// the arrival where a needed lock is held (lock witness).
    pub span: Span,
    /// Constructs enclosing the anchor, innermost first.
    pub blockers: Vec<RegionKind>,
    /// How many team threads reach the anchor span at all.
    pub arriving: usize,
    /// Team size.
    pub team: usize,
    /// For lock-at-barrier deadlocks: the witnessing lock key.
    pub lock: Option<LockKey>,
}

/// Detect deterministic barrier deadlocks per team instance.
///
/// * **Count mismatch** — threads arrive at the (single, shared) team
///   barrier different numbers of times: the low-count thread reaches
///   the region join while the rest wait forever. Anchored at the
///   first span (in source order) whose per-thread visit counts
///   disagree — that lexical barrier is the asymmetry.
/// * **Lock held at barrier** — counts match, but in some episode a
///   thread waits while holding a lock that another thread must still
///   acquire before its own arrival: the barrier can never fill.
#[must_use]
pub fn barrier_deadlocks(model: &Model) -> Vec<Deadlock> {
    let mut out = Vec::new();
    // One team's arrivals, by thread and each thread's in episode order
    // (the walk runs a team's members one after another, so execution
    // order already is).
    let mut arrivals: Vec<&Arrival> = Vec::new();
    for team in &model.teams {
        arrivals.clear();
        arrivals.extend(model.arrivals.iter().filter(|a| a.par == team.par));
        if arrivals.is_empty() {
            continue;
        }
        arrivals.sort_by_key(|a| a.tid);
        let n = team.team;
        let episodes = arrivals.len() / n;
        let balanced = arrivals.len().is_multiple_of(n)
            && arrivals.iter().enumerate().all(|(i, a)| a.tid == i / episodes);
        if !balanced {
            // Per-span visit counts: the first unbalanced span is the
            // culprit barrier (one always exists when totals differ).
            let mut per_span: BTreeMap<Span, Vec<usize>> = BTreeMap::new();
            let mut blockers_at: BTreeMap<Span, Vec<RegionKind>> = BTreeMap::new();
            for a in &arrivals {
                per_span.entry(a.span).or_insert_with(|| vec![0; n])[a.tid] += 1;
                blockers_at.entry(a.span).or_insert_with(|| a.blockers.clone());
            }
            for (span, visits) in &per_span {
                if visits.iter().any(|v| *v != visits[0]) {
                    out.push(Deadlock {
                        par: team.par,
                        span: *span,
                        blockers: blockers_at[span].clone(),
                        arriving: visits.iter().filter(|v| **v > 0).count(),
                        team: n,
                        lock: None,
                    });
                    break;
                }
            }
            continue;
        }
        // Counts agree: pair episodes positionally (thread `i`'s episode
        // `k` is `arrivals[i * episodes + k]`) and look for a lock held
        // across one thread's arrival that another thread still needs
        // on the way to its paired arrival.
        'episodes: for k in 0..episodes {
            for i in 0..n {
                let holder = arrivals[i * episodes + k];
                for j in (0..n).filter(|j| *j != i) {
                    let needer = arrivals[j * episodes + k];
                    if let Some(key) = needer.acquired.iter().find(|key| holder.held.contains(*key)) {
                        out.push(Deadlock {
                            par: team.par,
                            span: holder.span,
                            blockers: holder.blockers.clone(),
                            arriving: n,
                            team: n,
                            lock: Some(key),
                        });
                        break 'episodes;
                    }
                }
            }
        }
    }
    out
}

/// Build the event model by running `program` on the lowering's MHP
/// back end, over the program's symbols.
#[must_use]
pub fn model(program: &Program) -> Model {
    let symbols = Symbols::of(program);
    let mut state = State::default();
    lower::run(Walk::serial(&mut state), &symbols, &program.items);
    Model { symbols, ..state.model }
}

/// The model under construction, shared by every simulated thread.
#[derive(Default)]
struct State {
    model: Model,
    /// The running thread's context frames, outermost first. Team
    /// members run one after another, each on top of its spawner's
    /// frames, so one stack serves every thread.
    frames: Vec<ThreadFrame>,
    /// The constructs the running threads are inside, each thread's
    /// above its spawner's.
    constructs: Vec<RegionKind>,
    next_par: usize,
    next_acq: u64,
    next_seq: usize,
    steps: usize,
}

/// The MHP back end: one simulated thread's context over the shared
/// model. Shared reads yield zero; every shared access, barrier arrival
/// and lock acquisition becomes an event.
struct Walk<'m> {
    state: &'m mut State,
    /// The state's frames as the events since their last change share
    /// them.
    context: Option<Arc<[ThreadFrame]>>,
    locks: Lockset,
    acquired: KeySet,
    /// Where this thread's constructs start on the state's stack.
    constructs: usize,
    criticals: Vec<Span>,
    master: Option<Span>,
}

impl<'m> Walk<'m> {
    fn serial(state: &'m mut State) -> Self {
        Self {
            state,
            context: None,
            locks: Lockset::new(),
            acquired: KeySet::default(),
            constructs: 0,
            criticals: Vec::new(),
            master: None,
        }
    }

    /// The current context frames, shared with every event recorded in
    /// this context.
    fn context(&mut self) -> Arc<[ThreadFrame]> {
        let frames = &self.state.frames;
        Arc::clone(self.context.get_or_insert_with(|| Arc::from(frames.as_slice())))
    }

    fn record_access(&mut self, var: Sym, write: bool, span: Span) {
        let seq = self.state.next_seq;
        self.state.next_seq += 1;
        let frames = self.context();
        self.state.model.accesses.push(Access {
            var,
            write,
            span,
            frames,
            locks: self.locks.clone(),
            criticals: self.criticals.clone(),
            master: self.master,
            seq,
        });
    }

    /// Acquire `key`, recording nesting edges against everything held.
    fn lock_acquire(&mut self, key: LockKey, span: Span) {
        if !self.locks.is_empty() {
            let frames = self.context();
            for outer in self.locks.keys() {
                self.state.model.lock_edges.push(LockEdge {
                    outer,
                    inner: key,
                    span,
                    frames: Arc::clone(&frames),
                });
            }
        }
        self.locks.acquire(key, self.state.next_acq);
        self.state.next_acq += 1;
        self.acquired.insert(key);
    }
}

impl Backend for Walk<'_> {
    fn load(&mut self, var: Sym, span: Span) -> i64 {
        self.record_access(var, false, span);
        0
    }

    fn store(&mut self, var: Sym, _: i64, span: Span) {
        self.record_access(var, true, span);
    }

    fn team(t: &mut Thread<'_, Self>, r: &Region, n: usize, frame: Frame) {
        let syms = t.syms;
        let w = &mut t.b;
        let par = w.state.next_par;
        w.state.next_par += 1;
        w.state.model.teams.push(TeamInstance { par, span: r.span, team: n });
        for tid in 0..n {
            w.state.frames.push(ThreadFrame { par, tid, phase: 0 });
            let constructs = w.state.constructs.len();
            let member = Walk {
                state: &mut *w.state,
                context: None,
                // The spawner's held locks transfer (it holds them for
                // the team's whole lifetime) — with their original
                // acquisition ids, so siblings don't count them as
                // mutual exclusion against each other.
                locks: w.locks.clone(),
                acquired: KeySet::default(),
                constructs,
                criticals: w.criticals.clone(),
                master: None,
            };
            lower::member(member, syms, tid, n, frame.clone(), &r.body);
            w.state.frames.pop();
        }
    }

    fn barrier(&mut self, span: Span) {
        let State { frames, constructs, model, .. } = &mut *self.state;
        let Some(top) = frames.last_mut() else { return };
        model.arrivals.push(Arrival {
            par: top.par,
            tid: top.tid,
            index: top.phase,
            span,
            held: self.locks.clone(),
            acquired: std::mem::take(&mut self.acquired),
            blockers: constructs[self.constructs..].iter().rev().copied().collect(),
        });
        top.phase += 1;
        self.context = None;
    }

    fn locked<'s>(t: &mut Thread<'s, Self>, lock: Lock, body: impl FnOnce(&mut Thread<'s, Self>)) {
        let Lock { key, span } = lock;
        if matches!(key, LockKey::Critical(_)) {
            t.b.state.model.critical_sites.push(CriticalSite { span, key });
        }
        // A critical re-entered under its own lock is recorded, not
        // acquired again.
        let reentrant = t.b.locks.contains(key);
        if reentrant {
            t.b.state.model.self_nests.push(SelfNest { key, span });
        } else {
            t.b.lock_acquire(key, span);
        }
        body(t);
        if !reentrant {
            t.b.locks.release(key);
        }
    }

    fn within<'s>(t: &mut Thread<'s, Self>, r: &Region, body: impl FnOnce(&mut Thread<'s, Self>)) {
        t.b.state.constructs.push(r.kind);
        let master = t.b.master;
        match r.kind {
            RegionKind::Critical => t.b.criticals.push(r.span),
            RegionKind::Master => t.b.master = Some(r.span),
            _ => {}
        }
        body(t);
        if r.kind == RegionKind::Critical {
            t.b.criticals.pop();
        }
        t.b.master = master;
        t.b.state.constructs.pop();
    }

    fn step(&mut self) -> bool {
        self.state.steps += 1;
        if self.state.steps > STEP_BUDGET {
            self.state.model.truncated = true;
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn model_of(src: &str) -> Model {
        model(&parse(src).expect("test source parses"))
    }

    fn frames(spec: &[(usize, usize, usize)]) -> Vec<ThreadFrame> {
        spec.iter().map(|&(par, tid, phase)| ThreadFrame { par, tid, phase }).collect()
    }

    #[test]
    fn mhp_predicate_truth_table() {
        // Different threads, same instance, same phase: concurrent.
        assert!(may_happen_in_parallel(&frames(&[(0, 0, 1)]), &frames(&[(0, 1, 1)])));
        // Phase skew: ordered by the barrier.
        assert!(!may_happen_in_parallel(&frames(&[(0, 0, 0)]), &frames(&[(0, 1, 1)])));
        // Same thread: program order.
        assert!(!may_happen_in_parallel(&frames(&[(0, 0, 0)]), &frames(&[(0, 0, 0)])));
        // Sequential instances of the same lexical region.
        assert!(!may_happen_in_parallel(&frames(&[(0, 0, 0)]), &frames(&[(1, 1, 0)])));
        // Serial prefix vs team member: spawn/join ordered.
        assert!(!may_happen_in_parallel(&frames(&[]), &frames(&[(0, 1, 0)])));
        // Sibling thread vs a nested team under the other sibling.
        assert!(may_happen_in_parallel(
            &frames(&[(0, 1, 0)]),
            &frames(&[(0, 0, 0), (1, 0, 0)])
        ));
    }

    #[test]
    fn barrier_splits_accesses_into_phases() {
        let m = model_of(
            "//#omp parallel num_threads(2)\n{\n    x = 1;\n    //#omp barrier\n    y = x;\n}\n",
        );
        let x = m.symbols.sym("x");
        let writes: Vec<&Access> = m.accesses.iter().filter(|a| a.var == x && a.write).collect();
        assert_eq!(writes.len(), 2);
        assert!(accesses_mhp(writes[0], writes[1]), "same phase, different tids");
        let reads: Vec<&Access> = m.accesses.iter().filter(|a| a.var == x && !a.write).collect();
        assert_eq!(reads.len(), 2);
        for r in &reads {
            assert_eq!(r.frames.last().unwrap().phase, 1);
            for w in &writes {
                assert!(!accesses_mhp(r, w), "barrier orders phase 0 against phase 1");
            }
        }
    }

    #[test]
    fn worksharing_split_is_cyclic() {
        let m = model_of(
            "//#omp parallel num_threads(2)\n{\n    //#omp for\n    for i in 0..4 {\n        x = i;\n    }\n}\n",
        );
        let writes: Vec<&Access> = m.accesses.iter().filter(|a| a.write).collect();
        // 4 iterations split 2/2; the loop variable itself is private.
        assert_eq!(writes.len(), 4);
        let tid0 = writes.iter().filter(|a| a.frames.last().unwrap().tid == 0).count();
        assert_eq!(tid0, 2);
    }

    #[test]
    fn gui_barrier_is_a_non_classic_deadlock() {
        let m = model_of(
            "//#omp parallel num_threads(2)\n{\n    //#omp gui\n    {\n        //#omp barrier\n    }\n}\n",
        );
        let dls = barrier_deadlocks(&m);
        assert_eq!(dls.len(), 1);
        assert_eq!(dls[0].arriving, 1);
        assert_eq!(dls[0].team, 2);
        assert_eq!(classic_blocker(&dls[0].blockers), None, "gui is outside the E001 family");
    }

    #[test]
    fn lock_held_at_barrier_is_detected() {
        let m = model_of(
            "//#omp parallel num_threads(2)\n{\n    //#omp critical gate\n    {\n        //#omp barrier\n    }\n}\n",
        );
        let dls = barrier_deadlocks(&m);
        assert_eq!(dls.len(), 1);
        let lock = dls[0].lock.map(|key| key.spell(&m.symbols).to_string());
        assert_eq!(lock.as_deref(), Some("lock:gate"));
        assert_eq!(classic_blocker(&dls[0].blockers), Some(RegionKind::Critical));
    }

    #[test]
    fn even_split_barrier_in_for_is_deadlock_free() {
        // 4 iterations over 2 threads: every thread hits the barrier
        // twice — provably balanced, no deadlock (the old syntactic
        // engine flagged this E001).
        let m = model_of(
            "//#omp parallel num_threads(2)\n{\n    //#omp for\n    for i in 0..4 {\n        //#omp barrier\n    }\n}\n",
        );
        assert!(barrier_deadlocks(&m).is_empty());
    }

    #[test]
    fn team_of_one_never_deadlocks() {
        let m = model_of(
            "//#omp parallel num_threads(1)\n{\n    //#omp single\n    {\n        //#omp barrier\n    }\n}\n",
        );
        assert!(barrier_deadlocks(&m).is_empty());
    }

    #[test]
    fn critical_acquisitions_are_distinct_per_thread() {
        let m = model_of(
            "//#omp parallel num_threads(2)\n{\n    //#omp critical tally\n    {\n        count = count + 1;\n    }\n}\n",
        );
        let writes: Vec<&Access> = m.accesses.iter().filter(|a| a.write).collect();
        assert_eq!(writes.len(), 2);
        assert!(accesses_mhp(writes[0], writes[1]));
        assert!(
            writes[0].locks.excludes(&writes[1].locks),
            "different acquisitions of one lock mutually exclude"
        );
    }

    #[test]
    fn step_budget_marks_truncation() {
        let m = model_of("for i in 0..30000 {\n    x = i;\n}\n");
        assert!(m.truncated);
    }
}
