//! Integration tests for the supervision / cancellation / degradation
//! stack: parc-supervise tokens and supervisors wired through partask
//! and pyjama, and the chaos-soak cells built on top of all three.
//!
//! The headline claims pinned here:
//!
//! * same-seed supervision runs produce **bit-identical** event logs,
//!   and same-seed soak cells produce bit-identical fingerprints —
//!   across reruns *and* across worker-pool sizes;
//! * conservation identities (every incarnation accounted, every task
//!   executed, every thread joined) hold for every storm × policy cell;
//! * cancellation is cooperative and hierarchical end to end: tokens
//!   gate partask spawns, deadlines propagate, pyjama regions unwind
//!   cleanly at their barriers, and graceful shutdown drains to
//!   quiescence.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use faultsim::{FaultStorm, RetryPolicy};
use partask::{CancelToken, TaskError, TaskRuntime};
use pyjama::{Team, TeamError};
use softeng751::parc_supervise::{ChildError, RestartPolicy, Supervisor};
use softeng751::soak::{run_soak_cell, run_soak_matrix};

// ---------------------------------------------------------------- tokens

#[test]
fn cancellation_propagates_down_token_trees_into_partask() {
    let rt = TaskRuntime::builder().workers(2).build();
    let parent = CancelToken::new();

    // A cooperative task observes the cancel and returns early. The
    // cancel is held until the body has started, so the task cannot be
    // skipped outright by the pre-run token check.
    let started = Arc::new(AtomicUsize::new(0));
    let started_flag = Arc::clone(&started);
    let observed = rt.spawn_cancellable_under(&parent, move |token| {
        started_flag.store(1, Ordering::SeqCst);
        while !token.is_cancelled() {
            std::thread::yield_now();
        }
        "saw the cancel"
    });
    while started.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    parent.cancel();
    assert_eq!(observed.join().expect("body returns normally"), "saw the cancel");

    // A task spawned under an already-cancelled parent never runs:
    // its future resolves to `Cancelled` before the body is entered.
    let ran = Arc::new(AtomicUsize::new(0));
    let ran2 = Arc::clone(&ran);
    let skipped = rt.spawn_cancellable_under(&parent, move |_| {
        ran2.fetch_add(1, Ordering::SeqCst);
    });
    assert!(matches!(skipped.join(), Err(TaskError::Cancelled)));
    assert_eq!(ran.load(Ordering::SeqCst), 0, "cancelled body must not run");

    // Siblings under a *different* branch are unaffected.
    let other = CancelToken::new();
    let fine = rt.spawn_cancellable_under(&other, |_| 7);
    assert_eq!(fine.join().expect("unrelated branch unaffected"), 7);
    rt.shutdown();
}

#[test]
fn deadlines_cancel_cooperatively_and_children_cannot_extend_them() {
    let rt = TaskRuntime::builder().workers(2).build();
    let root = rt.cancel_token();

    // The deadline fires, the token trips, the body notices and
    // returns its own value — no result is lost.
    let h = rt.spawn_deadline_under(&root, Duration::from_millis(5), |token| {
        while !token.is_cancelled() {
            std::thread::yield_now();
        }
        42
    });
    assert_eq!(h.join().expect("deadline cancel is cooperative"), 42);

    // A child budget is clamped to the parent's: asking for 10 s under
    // a 5 ms parent yields a ≤ 5 ms effective deadline.
    let parent = CancelToken::with_deadline(Duration::from_millis(5));
    let child = parent.child_with_deadline(Duration::from_secs(10));
    let remaining = child.remaining().expect("child inherits a deadline");
    assert!(
        remaining <= Duration::from_millis(5),
        "child extended its parent's deadline to {remaining:?}"
    );
    rt.shutdown();
}

#[test]
fn deadline_expiries_are_counted_once_when_the_task_settles() {
    let rt = TaskRuntime::builder().workers(2).build();

    // A body that finishes well inside its budget is not counted.
    let fast = rt.spawn_deadline(Duration::from_secs(10), |_| 7);
    assert_eq!(fast.join().expect("a fast body returns its value"), 7);
    assert_eq!(rt.stats().timed_out, 0, "no deadline passed");

    // A body that ignores its token overruns its budget: it still
    // returns its value, and the expiry is counted once, when the
    // body finishes and before the join returns.
    let late = rt.spawn_deadline(Duration::from_millis(5), |_| {
        std::thread::sleep(Duration::from_millis(20));
        "finished late"
    });
    assert_eq!(late.join().expect("the overrun keeps its result"), "finished late");
    assert_eq!(rt.stats().timed_out, 1, "the overrun is counted once");
    rt.shutdown();
}

#[test]
fn cancelling_a_middle_token_reaches_its_descendants_only() {
    let root = CancelToken::new();
    let middle = root.child();
    let sibling = root.child();
    let child = middle.child();
    let grandchild = child.child();
    middle.cancel();
    let late_grandchild = child.child();
    assert!(child.is_cancelled(), "the cancel reaches the child");
    assert!(grandchild.is_cancelled(), "and the grandchild");
    assert!(late_grandchild.is_cancelled(), "and a grandchild created after it");
    assert!(!root.is_cancelled(), "a cancel never reaches the parent");
    assert!(!sibling.is_cancelled(), "nor a sibling");
    assert!(!sibling.child().is_cancelled(), "nor a sibling's children");
}

#[test]
fn cancelling_a_group_of_ten_thousand_live_tasks_accounts_for_each() {
    const TASKS: u64 = 10_000;
    let rt = TaskRuntime::builder().workers(2).build();
    let group = rt.cancel_token().child();

    // Every handle stays alive, so every task token is live at once
    // when the group is cancelled after the first body has started.
    let started = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..TASKS)
        .map(|i| {
            let started = Arc::clone(&started);
            rt.spawn_cancellable_under(&group, move |_| {
                started.store(true, Ordering::SeqCst);
                i
            })
        })
        .collect();
    while !started.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    group.cancel();

    let mut cancelled = 0;
    for (i, handle) in (0..TASKS).zip(handles) {
        match handle.join() {
            Ok(value) => assert_eq!(value, i, "a body that ran returns its own value"),
            Err(TaskError::Cancelled) => cancelled += 1,
            Err(other) => panic!("task {i} resolved to {other}"),
        }
    }
    rt.wait_quiescent();
    let stats = rt.stats();
    assert_eq!(stats.cancelled, cancelled, "each skipped body is counted once");
    assert_eq!(stats.spawned, TASKS);
    assert_eq!(stats.spawned, stats.executed, "task conservation at quiescence");
    rt.shutdown();
}

#[test]
fn a_hundred_thousand_deep_token_chain_cancels_and_drops_without_recursing() {
    let root = CancelToken::new();
    let mut leaf = root.child();
    for _ in 1..100_000 {
        leaf = leaf.child();
    }
    root.cancel();
    assert!(leaf.is_cancelled(), "the root's cancel reaches the deepest leaf");
    drop(root);
    assert!(leaf.is_cancelled(), "the leaf keeps its ancestors alive");
    // The leaf is now the last owner of all 100,000 nodes.
    drop(leaf);
}

#[test]
fn graceful_shutdown_drains_to_quiescence() {
    let rt = TaskRuntime::builder().workers(3).build();
    let done = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..64)
        .map(|_| {
            let done = Arc::clone(&done);
            rt.spawn(move || {
                done.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("plain task completes");
    }
    let report = rt.shutdown_graceful(Duration::from_secs(5));
    assert!(report.drained, "runtime must drain within the budget");
    assert_eq!(report.leftover, 0);
    assert_eq!(report.stats.spawned, report.stats.executed, "task conservation at quiescence");
    assert!(report.stats.executed >= 64);
}

// ---------------------------------------------------------------- pyjama

#[test]
fn pyjama_cancellable_regions_unwind_cleanly_at_the_barrier() {
    let team = Team::new(3);

    // An uncancelled token: the region runs like a plain parallel one.
    let token = CancelToken::new();
    let hits = AtomicUsize::new(0);
    team.try_parallel_cancellable(&token, |ctx| {
        hits.fetch_add(1, Ordering::SeqCst);
        ctx.barrier();
    })
    .expect("uncancelled region completes");
    assert_eq!(hits.load(Ordering::SeqCst), 3);

    // A pre-cancelled token: every member unwinds at the barrier and
    // the region reports Cancelled — and the team is still usable
    // afterwards (no poisoned leftover state).
    token.cancel();
    let err = team
        .try_parallel_cancellable(&token, |ctx| {
            ctx.barrier();
        })
        .expect_err("cancelled region must not complete");
    assert!(matches!(err, TeamError::Cancelled), "got {err:?}");

    let after = AtomicUsize::new(0);
    team.try_parallel_cancellable(&CancelToken::new(), |ctx| {
        after.fetch_add(1, Ordering::SeqCst);
        ctx.barrier();
    })
    .expect("team survives a cancelled region");
    assert_eq!(after.load(Ordering::SeqCst), 3);
}

// ------------------------------------------------------------ supervisor

/// A small supervisor with a scripted failure mix: one child within
/// budget, one escalating, one clean.
fn scripted_supervisor(seed: u64) -> softeng751::parc_supervise::SupervisionReport {
    Supervisor::builder("itest")
        .policy(RestartPolicy::OneForOne)
        .restart_policy(RetryPolicy::fixed(Duration::from_millis(1)).with_max_attempts(3))
        .backoff_seed(seed)
        .backoff_time_scale(0.05)
        .child("flaky", |ctx| {
            if ctx.incarnation <= 2 {
                Err(ChildError::Failed(format!("scripted #{}", ctx.incarnation)))
            } else {
                Ok(())
            }
        })
        .child("doomed", |ctx| {
            Err(ChildError::Failed(format!("always #{}", ctx.incarnation)))
        })
        .child("clean", |_| Ok(()))
        .run()
}

#[test]
fn same_seed_supervision_event_logs_are_bit_identical() {
    faultsim::silence_injected_panics();
    let a = scripted_supervisor(0xABCD);
    let b = scripted_supervisor(0xABCD);
    assert_eq!(a.event_log(), b.event_log(), "same-seed event logs must match byte for byte");
    assert_eq!(a.restarts_total, b.restarts_total);
    assert_eq!(a.escalations, b.escalations);
    assert!(a.conservation_violations().is_empty(), "{:?}", a.conservation_violations());

    // And the log reflects the script: flaky restarts twice then
    // completes, doomed exhausts its budget and escalates.
    let flaky = &a.children[0];
    assert_eq!((flaky.incarnations, flaky.restarts, flaky.escalated), (3, 2, false));
    let doomed = &a.children[1];
    assert_eq!((doomed.incarnations, doomed.escalated), (3, true));
    let clean = &a.children[2];
    assert_eq!((clean.incarnations, clean.restarts), (1, 0));
}

// ------------------------------------------------------------- soak cells

#[test]
fn deadline_expiring_during_restart_backoff_interrupts_it_promptly() {
    // The root deadline expires while the supervisor is sleeping off a
    // 2-second restart backoff. The sliced backoff must notice the
    // expiry within milliseconds — not hold the tree for the full
    // delay — and the report must record the aborted restart so the
    // conservation identities still close.
    let root = CancelToken::with_deadline(Duration::from_millis(60));
    let started = std::time::Instant::now();
    let report = Supervisor::builder("sup")
        .restart_policy(RetryPolicy::fixed(Duration::from_secs(2)).with_max_attempts(5))
        .backoff_time_scale(1.0)
        .child("fails-once", |_| Err(ChildError::Failed("boom".into())))
        .run_under(&root);
    let elapsed = started.elapsed();

    assert!(
        elapsed < Duration::from_secs(1),
        "backoff was not interrupted: took {elapsed:?} against a 60ms deadline"
    );
    let c = &report.children[0];
    assert_eq!(c.incarnations, 1, "no restart into a dead tree");
    assert_eq!(c.restarts, 0);
    assert!(c.restart_aborted, "the skipped restart must be on record");
    assert!(!c.escalated, "a cancelled backoff is not an escalation");
    assert!(!report.has_escalations());
    assert!(
        report.conservation_violations().is_empty(),
        "violations: {:?}",
        report.conservation_violations()
    );
    assert!(report.event_log().contains("fails-once[0] restart aborted (cancelled)"));
}

#[test]
fn soak_fingerprints_are_identical_across_reruns_and_pool_sizes() {
    faultsim::silence_injected_panics();
    let storm = FaultStorm::burst(0xB0B0);
    let base = run_soak_cell(&storm, RestartPolicy::OneForOne, 0xB0B0, 2);
    assert!(base.invariants_ok(), "violations: {:?}", base.violations());

    let rerun = run_soak_cell(&storm, RestartPolicy::OneForOne, 0xB0B0, 2);
    assert_eq!(base.fingerprint(), rerun.fingerprint(), "rerun diverged");

    let wider = run_soak_cell(&storm, RestartPolicy::OneForOne, 0xB0B0, 5);
    assert_eq!(base.fingerprint(), wider.fingerprint(), "pool size leaked into the fingerprint");

    // The one-for-one fingerprint embeds the full event log, so the
    // assertions above pin the supervision sequence itself.
    assert!(base.fingerprint().contains("events:"));
}

#[test]
fn soak_matrix_conserves_under_every_storm_and_policy() {
    faultsim::silence_injected_panics();
    let cells = run_soak_matrix(0x50AC_200E, 2);
    assert_eq!(cells.len(), 6, "3 storm shapes × 2 policies");
    for cell in &cells {
        assert!(
            cell.invariants_ok(),
            "[{} {}] violations: {:?}",
            cell.storm_name,
            cell.policy.name(),
            cell.violations()
        );
    }
    // Both policies and at least three distinct storm shapes ran.
    let storms: std::collections::BTreeSet<_> = cells.iter().map(|c| c.storm_name).collect();
    assert!(storms.len() >= 3);
    assert!(cells.iter().any(|c| c.policy == RestartPolicy::OneForOne));
    assert!(cells.iter().any(|c| c.policy == RestartPolicy::AllForOne));
    // The chosen seed exercises escalation somewhere in the matrix.
    assert!(cells.iter().any(|c| c.supervision.escalations > 0));
}
