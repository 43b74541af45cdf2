//! End-to-end tests of the partask runtime: spawning, joining,
//! dependences, multi-tasks (batches), cancellation, panics, helping
//! joins and GUI delivery.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use guievent::EventLoop;
use partask::{interim, SchedulerKind, TaskError, TaskRuntime};

fn runtimes() -> Vec<TaskRuntime> {
    vec![
        TaskRuntime::builder()
            .workers(2)
            .scheduler(SchedulerKind::WorkStealing)
            .build(),
        TaskRuntime::builder()
            .workers(2)
            .scheduler(SchedulerKind::WorkSharing)
            .build(),
    ]
}

#[test]
fn spawn_and_join_value() {
    for rt in runtimes() {
        let t = rt.spawn(|| 2 + 2);
        assert_eq!(t.join().unwrap(), 4);
        rt.shutdown();
    }
}

#[test]
fn join_from_main_thread_many_tasks() {
    for rt in runtimes() {
        let handles: Vec<_> = (0..100).map(|i| rt.spawn(move || i * i)).collect();
        let total: i64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, (0..100).map(|i| i * i).sum::<i64>());
        rt.shutdown();
    }
}

#[test]
fn nested_fork_join_does_not_deadlock() {
    // Recursive fib with more live joins than workers: only works
    // because joining workers help.
    fn fib(rt: &partask::runtime::RuntimeHandle, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let rt2 = rt.clone();
        let left = rt.spawn(move || fib(&rt2, n - 1));
        let right = fib(rt, n - 2);
        left.join().unwrap() + right
    }
    let rt = TaskRuntime::builder().workers(2).build();
    let h = rt.handle();
    let result = fib(&h, 15);
    assert_eq!(result, 610);
    rt.shutdown();
}

#[test]
fn task_panic_is_contained() {
    let rt = TaskRuntime::builder().workers(1).build();
    let bad = rt.spawn(|| -> u32 { panic!("boom {}", 42) });
    let good = rt.spawn(|| 7u32);
    match bad.join() {
        Err(TaskError::Panicked(msg)) => assert!(msg.contains("boom 42")),
        other => panic!("expected panic error, got {other:?}"),
    }
    assert_eq!(good.join().unwrap(), 7);
    rt.shutdown();
}

#[test]
fn cancellation_before_start() {
    // One busy worker; the second task can be cancelled before it runs.
    let rt = TaskRuntime::builder().workers(1).build();
    let gate = Arc::new(AtomicUsize::new(0));
    let gate2 = Arc::clone(&gate);
    let blocker = rt.spawn(move || {
        while gate2.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
    });
    let doomed = rt.spawn(|| 1);
    doomed.cancel();
    gate.store(1, Ordering::Release);
    blocker.join().unwrap();
    assert_eq!(doomed.join(), Err(TaskError::Cancelled));
    rt.shutdown();
}

#[test]
fn cooperative_cancellation_mid_task() {
    let rt = TaskRuntime::builder().workers(1).build();
    let t = rt.spawn_cancellable(|token| {
        let mut i: u64 = 0;
        while !token.is_cancelled() {
            i += 1;
            if i > 50_000_000 {
                return Err("never cancelled");
            }
            if i == 1000 {
                // Cancel ourselves to keep the test deterministic.
                token.cancel();
            }
        }
        Ok(i)
    });
    assert_eq!(t.join().unwrap(), Ok(1000));
    rt.shutdown();
}

#[test]
fn dependences_run_after_predecessors() {
    for rt in runtimes() {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let l1 = Arc::clone(&log);
        let a = rt.spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            l1.lock().push("a");
            1u32
        });
        let l2 = Arc::clone(&log);
        let b = rt.spawn(move || {
            std::thread::sleep(Duration::from_millis(3));
            l2.lock().push("b");
            2u32
        });
        let l3 = Arc::clone(&log);
        let c = rt.spawn_after(&[a.watcher(), b.watcher()], move || {
            l3.lock().push("c");
            3u32
        });
        assert_eq!(c.join().unwrap(), 3);
        let order = log.lock().clone();
        assert_eq!(order.len(), 3);
        assert_eq!(*order.last().unwrap(), "c");
        assert_eq!(a.join().unwrap(), 1);
        assert_eq!(b.join().unwrap(), 2);
        rt.shutdown();
    }
}

#[test]
fn dependence_on_completed_task_fires_immediately() {
    let rt = TaskRuntime::builder().workers(2).build();
    let a = rt.spawn(|| 10u32);
    a.wait();
    let b = rt.spawn_after(&[a.watcher()], || 20u32);
    assert_eq!(b.join().unwrap(), 20);
    rt.shutdown();
}

#[test]
fn dependence_chain_executes_in_order() {
    let rt = TaskRuntime::builder().workers(2).build();
    let counter = Arc::new(AtomicUsize::new(0));
    let c0 = Arc::clone(&counter);
    let t0 = rt.spawn(move || {
        c0.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    });
    let c1 = Arc::clone(&counter);
    let t1 = rt.spawn_after(&[t0.watcher()], move || {
        c1.compare_exchange(1, 2, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    });
    let c2 = Arc::clone(&counter);
    let t2 = rt.spawn_after(&[t1.watcher()], move || {
        c2.compare_exchange(2, 3, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    });
    assert!(t2.join().unwrap());
    assert!(t1.join().unwrap());
    assert!(t0.join().unwrap());
    assert_eq!(counter.load(Ordering::SeqCst), 3);
    rt.shutdown();
}

#[test]
fn multi_task_reduce() {
    let rt = TaskRuntime::builder().workers(2).build();
    let m = rt.spawn_batch(10, |i| i as u64 + 1);
    let sum: u64 = m.join().into_iter().map(Result::unwrap).sum();
    assert_eq!(sum, 55);
    rt.shutdown();
}

#[test]
fn per_worker_task_count_matches_workers() {
    // `TASK(*)`: one batch member per worker.
    let rt = TaskRuntime::builder().workers(3).build();
    let m = rt.spawn_batch(rt.workers(), |i| i);
    assert_eq!(m.len(), 3);
    let ids = m.join().into_iter().collect::<Result<Vec<_>, _>>();
    assert_eq!(ids, Ok(vec![0, 1, 2]));
    rt.shutdown();
}

#[test]
fn multi_task_error_reported_but_all_joined() {
    // Collecting a batch's results reports the first error in index
    // order, and only after every member has finished.
    let rt = TaskRuntime::builder().workers(2).build();
    let finished = Arc::new(AtomicUsize::new(0));
    let f2 = Arc::clone(&finished);
    let m = rt.spawn_batch(4, move |i| {
        f2.fetch_add(1, Ordering::SeqCst);
        if i == 1 || i == 2 {
            panic!("instance {i} failed");
        }
        i
    });
    match m.join().into_iter().collect::<Result<Vec<_>, _>>() {
        Err(TaskError::Panicked(msg)) => assert!(msg.contains("instance 1"), "{msg}"),
        other => panic!("expected panic, got {other:?}"),
    }
    assert_eq!(finished.load(Ordering::SeqCst), 4);
    rt.shutdown();
}

#[test]
fn wait_quiescent_sees_all_tasks() {
    let rt = TaskRuntime::builder().workers(2).build();
    let counter = Arc::new(AtomicUsize::new(0));
    for _ in 0..200 {
        let c = Arc::clone(&counter);
        let _detached = rt.spawn(move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
    }
    rt.wait_quiescent();
    assert_eq!(counter.load(Ordering::Relaxed), 200);
    rt.shutdown();
}

#[test]
fn shutdown_runs_pending_tasks() {
    let rt = TaskRuntime::builder().workers(1).build();
    let counter = Arc::new(AtomicUsize::new(0));
    for _ in 0..50 {
        let c = Arc::clone(&counter);
        let _ = rt.spawn(move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
    }
    rt.shutdown();
    assert_eq!(counter.load(Ordering::Relaxed), 50);
}

#[test]
fn stats_account_spawned_and_executed() {
    let rt = TaskRuntime::builder().workers(2).build();
    for _ in 0..25 {
        let _ = rt.spawn(|| ());
    }
    rt.wait_quiescent();
    let stats = rt.stats();
    assert_eq!(stats.spawned, 25);
    assert_eq!(stats.executed, 25);
    assert!(stats.local_pops + stats.global_pops + stats.steals + stats.helped >= 25);
    rt.shutdown();
}

#[test]
fn runtime_handle_spawns_from_task_bodies() {
    let rt = TaskRuntime::builder().workers(2).build();
    let h = rt.handle();
    let t = rt.spawn(move || {
        let inner = h.spawn(|| 21);
        inner.join().unwrap() * 2
    });
    assert_eq!(t.join().unwrap(), 42);
    rt.shutdown();
}

#[test]
fn runtime_handle_degrades_to_inline_after_shutdown() {
    let rt = TaskRuntime::builder().workers(1).build();
    let h = rt.handle();
    rt.shutdown();
    assert!(!h.is_alive());
    let t = h.spawn(|| 5);
    assert_eq!(t.join().unwrap(), 5);
}

#[test]
fn deliver_runs_on_gui_thread_with_result() {
    let gui = EventLoop::spawn();
    let rt = TaskRuntime::builder().workers(2).build();
    let received = Arc::new(parking_lot::Mutex::new(None));
    let received2 = Arc::clone(&received);
    let probe = gui.handle();
    let t = rt.spawn(|| 99u64);
    t.deliver(&gui.handle(), move |result| {
        assert!(probe.is_dispatch_thread());
        *received2.lock() = Some(result);
    });
    rt.wait_quiescent();
    gui.handle().drain();
    assert_eq!(*received.lock(), Some(Ok(99)));
    rt.shutdown();
    gui.shutdown();
}

#[test]
fn deliver_after_completion_still_fires() {
    let gui = EventLoop::spawn();
    let rt = TaskRuntime::builder().workers(1).build();
    let t = rt.spawn(|| "late");
    t.wait();
    let received = Arc::new(parking_lot::Mutex::new(None));
    let received2 = Arc::clone(&received);
    t.deliver(&gui.handle(), move |r| {
        *received2.lock() = Some(r.unwrap());
    });
    gui.handle().drain();
    assert_eq!(*received.lock(), Some("late"));
    rt.shutdown();
    gui.shutdown();
}

#[test]
fn on_done_hook_fires_once() {
    let rt = TaskRuntime::builder().workers(1).build();
    let fired = Arc::new(AtomicUsize::new(0));
    let f2 = Arc::clone(&fired);
    let t = rt.spawn(|| 1);
    t.on_done(move || {
        f2.fetch_add(1, Ordering::Relaxed);
    });
    t.wait();
    // Hook registered after completion also runs (immediately).
    let f3 = Arc::clone(&fired);
    t.on_done(move || {
        f3.fetch_add(10, Ordering::Relaxed);
    });
    assert_eq!(t.join().unwrap(), 1);
    assert_eq!(fired.load(Ordering::Relaxed), 11);
    rt.shutdown();
}

#[test]
fn interim_results_stream_while_task_runs() {
    let rt = TaskRuntime::builder().workers(1).build();
    let (tx, rx) = interim::channel::<usize>();
    let t = rt.spawn(move || {
        for i in 0..10 {
            tx.send(i);
        }
        "done"
    });
    assert_eq!(t.join().unwrap(), "done");
    let drained = rx.try_drain();
    assert_eq!(drained, (0..10).collect::<Vec<_>>());
    rt.shutdown();
}

#[test]
fn try_join_nonblocking() {
    let rt = TaskRuntime::builder().workers(1).build();
    let gate = Arc::new(AtomicUsize::new(0));
    let g = Arc::clone(&gate);
    let t = rt.spawn(move || {
        while g.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        8
    });
    let t = match t.try_join() {
        Ok(_) => panic!("task should still be running"),
        Err(handle) => handle,
    };
    gate.store(1, Ordering::Release);
    assert_eq!(t.join().unwrap(), 8);
    rt.shutdown();
}

#[test]
fn task_ids_are_unique() {
    let rt = TaskRuntime::builder().workers(2).build();
    let handles: Vec<_> = (0..50).map(|_| rt.spawn(|| ())).collect();
    let mut ids: Vec<_> = handles.iter().map(|h| h.id().as_u64()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 50);
    for h in handles {
        h.join().unwrap();
    }
    rt.shutdown();
}

#[test]
fn work_sharing_and_stealing_produce_identical_results() {
    let input: Vec<u64> = (0..500).collect();
    let mut outputs = Vec::new();
    for kind in [SchedulerKind::WorkStealing, SchedulerKind::WorkSharing] {
        let rt = TaskRuntime::builder().workers(2).scheduler(kind).build();
        let data = input.clone();
        let m = rt.spawn_batch(8, move |i| {
            data.iter().skip(i).step_by(8).map(|x| x * x).sum::<u64>()
        });
        outputs.push(m.join().into_iter().map(Result::unwrap).sum::<u64>());
        rt.shutdown();
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], input.iter().map(|x| x * x).sum::<u64>());
}

#[test]
fn heavy_spawn_storm_completes() {
    let rt = TaskRuntime::builder().workers(4).build();
    let counter = Arc::new(AtomicUsize::new(0));
    let h = rt.handle();
    let roots: Vec<_> = (0..20)
        .map(|_| {
            let h = h.clone();
            let c = Arc::clone(&counter);
            rt.spawn(move || {
                let children: Vec<_> = (0..20)
                    .map(|_| {
                        let c = Arc::clone(&c);
                        h.spawn(move || {
                            c.fetch_add(1, Ordering::Relaxed);
                        })
                    })
                    .collect();
                for ch in children {
                    ch.join().unwrap();
                }
            })
        })
        .collect();
    for r in roots {
        r.join().unwrap();
    }
    assert_eq!(counter.load(Ordering::Relaxed), 400);
    rt.shutdown();
}

#[test]
fn join_timeout_returns_value_when_fast_enough() {
    let rt = TaskRuntime::builder().workers(2).build();
    let t = rt.spawn(|| 6 * 7);
    assert_eq!(t.join_timeout(Duration::from_secs(5)).unwrap(), 42);
    rt.shutdown();
}

#[test]
fn join_timeout_expires_and_cancels() {
    let rt = TaskRuntime::builder().workers(2).build();
    let released = Arc::new(AtomicUsize::new(0));
    let t = rt.spawn_cancellable({
        let released = Arc::clone(&released);
        move |token| {
            // Cooperative slow loop: spins until cancelled.
            while !token.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            released.fetch_add(1, Ordering::SeqCst);
        }
    });
    let token = t.cancel_token();
    assert_eq!(
        t.join_timeout(Duration::from_millis(20)),
        Err(TaskError::TimedOut)
    );
    assert!(token.is_cancelled(), "expiry must request cancellation");
    rt.shutdown(); // waits for the (now-released) body to finish
    assert_eq!(released.load(Ordering::SeqCst), 1);
}

#[test]
fn spawn_deadline_cancels_overdue_task() {
    let rt = TaskRuntime::builder().workers(2).build();
    let t = rt.spawn_deadline(Duration::from_millis(15), |token| {
        let mut polls = 0u64;
        while !token.is_cancelled() {
            std::thread::sleep(Duration::from_millis(1));
            polls += 1;
            assert!(polls < 10_000, "deadline never fired");
        }
        "stopped early"
    });
    assert_eq!(t.join().unwrap(), "stopped early");
    let stats = rt.stats();
    assert_eq!(
        stats.timed_out, 1,
        "the task counts the expiry as it settles"
    );
    rt.shutdown();
}

#[test]
fn every_deadline_expiry_is_counted_before_its_join_returns() {
    // Bodies stop as soon as their token reports the deadline; queued
    // tasks whose deadline passes before they start are skipped.
    // Either way the task counts the expiry as it settles, so it is
    // already counted when the join returns.
    let rt = TaskRuntime::builder().workers(2).build();
    let handles: Vec<_> = (0..20)
        .map(|_| {
            rt.spawn_deadline(Duration::from_millis(5), |token| {
                while !token.is_cancelled() {
                    std::thread::yield_now();
                }
            })
        })
        .collect();
    for h in handles {
        let _ = h.join();
    }
    assert_eq!(
        rt.stats().timed_out,
        20,
        "each expiry counted once, before its join returned"
    );
    rt.shutdown();
}

#[test]
fn spawn_deadline_is_free_for_fast_tasks() {
    let rt = TaskRuntime::builder().workers(2).build();
    for i in 0..20 {
        let t = rt.spawn_deadline(Duration::from_secs(10), move |_| i * 2);
        assert_eq!(t.join().unwrap(), i * 2);
    }
    let stats = rt.stats();
    assert_eq!(stats.timed_out, 0);
    rt.shutdown();
}

#[test]
fn stats_count_cancelled_tasks() {
    let rt = TaskRuntime::builder().workers(1).build();
    // Occupy the single worker so queued tasks can be cancelled
    // before starting.
    let gate = Arc::new(AtomicUsize::new(0));
    let blocker = rt.spawn({
        let gate = Arc::clone(&gate);
        move || {
            while gate.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    });
    let doomed: Vec<_> = (0..5).map(|_| rt.spawn(|| ())).collect();
    for t in &doomed {
        t.cancel();
    }
    gate.store(1, Ordering::SeqCst);
    blocker.join().unwrap();
    let mut cancelled = 0;
    for t in doomed {
        if t.join() == Err(TaskError::Cancelled) {
            cancelled += 1;
        }
    }
    rt.wait_quiescent();
    assert_eq!(rt.stats().cancelled, cancelled);
    assert!(cancelled > 0, "at least one queued task must be cancelled");
    rt.shutdown();
}
