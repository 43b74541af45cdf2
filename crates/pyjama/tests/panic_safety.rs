//! Regression tests for panic-safe teams (barrier poisoning).
//!
//! The failure mode these guard against: a team member panics before
//! reaching a barrier, and every sibling waits forever for an arrival
//! that cannot happen. With poisoning, the siblings unblock, the
//! region reports `TeamError::MemberPanicked`, and the team survives
//! for subsequent regions.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use pyjama::{Schedule, SumRed, Team, TeamError};

/// Run `f` on a fresh thread and require it to finish within
/// `timeout` — turns a would-be deadlock into a test failure.
fn within<T: Send + 'static>(timeout: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let join = thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(timeout)
        .expect("operation deadlocked: did not finish within the timeout");
    join.join().expect("driver thread panicked");
    out
}

#[test]
fn panicking_member_unblocks_barrier_waiters() {
    let err = within(Duration::from_secs(10), || {
        let team = Team::new(4);
        team.try_parallel(|ctx| {
            if ctx.thread_num() == 2 {
                panic!("member 2 exploded");
            }
            // Without poisoning, the three survivors would block here
            // forever waiting for member 2.
            ctx.barrier();
        })
    });
    assert_eq!(
        err,
        Err(TeamError::MemberPanicked {
            member: 2,
            payload: "member 2 exploded".to_string(),
        })
    );
}

#[test]
fn team_survives_a_poisoned_region() {
    within(Duration::from_secs(10), || {
        let team = Team::new(3);
        let err = team.try_parallel(|ctx| {
            if ctx.thread_num() == 1 {
                panic!("transient");
            }
            ctx.barrier();
        });
        assert!(matches!(
            err,
            Err(TeamError::MemberPanicked { member: 1, .. })
        ));
        // The worker that panicked is still alive and the next region
        // runs on the full team.
        let hits = AtomicUsize::new(0);
        team.parallel(|_ctx| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
        let sum = team.par_sum(0..100, Schedule::Static, |i| i as u64);
        assert_eq!(sum, 4950);
    });
}

#[test]
fn reduction_region_with_panicking_member_errors_cleanly() {
    within(Duration::from_secs(10), || {
        let team = Team::new(4);
        let err = team.try_parallel(|ctx| {
            let _ = ctx.pfor_reduce(0..1000, Schedule::Static, &SumRed, |i| {
                assert!(i != 500, "poisoned element");
                i as u64
            });
        });
        // The panicking member's partial is dropped (never combined);
        // the survivors unblock at the reduction barrier and the
        // region reports the root cause instead of deadlocking or
        // double-panicking on the missing partial.
        assert!(matches!(err, Err(TeamError::MemberPanicked { .. })));
    });
}

#[test]
fn ordered_gate_unblocks_when_predecessor_panics() {
    within(Duration::from_secs(10), || {
        let team = Team::new(3);
        let err = team.try_parallel(|ctx| {
            ctx.pfor_ordered(0..30, Schedule::Static, |i, gate| {
                assert!(i != 0, "iteration 0 dies before its turn completes");
                gate.run(i, || {});
            });
        });
        // Successors spin on iteration 0's turn; the poison check in
        // the gate's spin loop converts that into a clean unwind.
        assert!(matches!(err, Err(TeamError::MemberPanicked { .. })));
    });
}

#[test]
fn thread_zero_panic_is_reported_not_propagated() {
    let err = within(Duration::from_secs(10), || {
        let team = Team::new(2);
        team.try_parallel(|ctx| {
            if ctx.thread_num() == 0 {
                panic!("caller-side failure");
            }
            ctx.barrier();
        })
    });
    assert_eq!(
        err,
        Err(TeamError::MemberPanicked {
            member: 0,
            payload: "caller-side failure".to_string(),
        })
    );
}

#[test]
fn first_panic_is_the_reported_root_cause() {
    within(Duration::from_secs(10), || {
        let team = Team::new(4);
        let err = team.try_parallel(|ctx| {
            if ctx.thread_num() == 3 {
                panic!("root cause");
            }
            // Everyone else reaches the barrier and unwinds via the
            // poison cascade — none of those unwinds may overwrite the
            // recorded root cause.
            ctx.barrier();
        });
        assert_eq!(
            err,
            Err(TeamError::MemberPanicked {
                member: 3,
                payload: "root cause".to_string(),
            })
        );
    });
}

#[test]
#[should_panic(expected = "team member")]
fn parallel_propagates_member_panic() {
    let team = Team::new(2);
    team.parallel(|ctx| {
        if ctx.thread_num() == 1 {
            panic!("worker failure");
        }
        ctx.barrier();
    });
}

#[test]
fn single_threaded_team_reports_its_own_panic() {
    let team = Team::new(1);
    let err = team.try_parallel(|_ctx| {
        panic!("solo failure");
    });
    assert_eq!(
        err,
        Err(TeamError::MemberPanicked {
            member: 0,
            payload: "solo failure".to_string(),
        })
    );
    // And the team still works afterwards.
    assert_eq!(team.par_sum(0..10, Schedule::Static, |i| i as u64), 45);
}

#[test]
fn nested_serial_region_reports_panic_without_poisoning_outer() {
    within(Duration::from_secs(10), || {
        let team = Team::new(2);
        let nested_errs = AtomicUsize::new(0);
        let outer = team.try_parallel(|ctx| {
            // Nested regions serialise; a panic inside one is contained
            // by the nested try_parallel and the outer region proceeds.
            let nested = ctx.thread_num(); // silence unused ctx warning paths
            let team2 = Team::new(1);
            let err = team2.try_parallel(|_| panic!("inner failure {nested}"));
            if err.is_err() {
                nested_errs.fetch_add(1, Ordering::Relaxed);
            }
            ctx.barrier();
        });
        assert_eq!(outer, Ok(()));
        assert_eq!(nested_errs.load(Ordering::Relaxed), 2);
    });
}
