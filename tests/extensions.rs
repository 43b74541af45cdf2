//! Integration tests for the extension features: scoped tasks,
//! sub-team regions, the ordered construct, image filters, the
//! inverted index, GUI timers and the teaching-report generators —
//! exercised *together* rather than per-crate.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use softeng751::prelude::*;

#[test]
fn scoped_tasks_feed_a_pyjama_reduction() {
    // Scope produces per-chunk partial results into a borrowed Vec;
    // a pyjama reduction then folds them — two runtimes, one dataset,
    // no 'static anywhere.
    let rt = TaskRuntime::builder().workers(2).build();
    let team = Team::new(2);
    let data: Vec<u64> = (0..10_000).collect();
    let mut partials = [0u64; 8];
    rt.scope(|s| {
        for (k, slot) in partials.iter_mut().enumerate() {
            let data = &data;
            s.spawn(move || {
                *slot = data.iter().skip(k).step_by(8).sum();
            });
        }
    });
    let total = team.par_sum(0..partials.len(), Schedule::Static, |i| partials[i]);
    assert_eq!(total, data.iter().sum::<u64>());
    rt.shutdown();
}

#[test]
fn a_panicking_scope_body_still_joins_its_tasks() {
    // The body spawns tasks that borrow a local counter, then panics.
    // The scope must not unwind past those borrows while the tasks
    // still run: every task has finished by the time the panic reaches
    // the caller, and the payload is the body's own.
    let rt = TaskRuntime::builder().workers(2).build();
    let finished = AtomicUsize::new(0);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.scope(|s| {
            for _ in 0..4 {
                let finished = &finished;
                s.spawn(move || {
                    std::thread::sleep(Duration::from_millis(50));
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }
            panic!("scope body failed");
        })
    }));
    let done = finished.load(Ordering::SeqCst);
    // Waits for any task the scope left running, so the counter
    // outlives them even when the scope does not wait.
    rt.shutdown();
    assert_eq!(done, 4, "tasks still running when the scope unwound");
    let payload = outcome.expect_err("the body's panic must reach the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"scope body failed"));
}

/// Run `probe` on a helper thread and fail unless it returns within
/// 10 s: a runtime that a stray panic has broken never finishes
/// dropping, so the probe would otherwise hang the test.
fn within_ten_seconds<R: Send + 'static>(probe: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || tx.send(probe()).unwrap());
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(out) => out,
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(helper.join().expect_err("the probe panicked"))
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("the probe hung for 10 s"),
    }
}

/// Wait up to 2 s for `rt` to go quiescent, then return its pending
/// count and stats. A quiescence wait would hang on a job that never
/// finishes; this returns it as a pending count instead.
fn settle(rt: &TaskRuntime) -> (usize, (u64, u64)) {
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while rt.queued_hint() != 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = rt.stats();
    (rt.queued_hint(), (stats.spawned, stats.executed))
}

#[test]
fn a_panicking_completion_hook_spares_the_helping_joiner() {
    // Both workers are held, so the join below helps: it runs the
    // task on this thread, hook and all. The hook's panic must not
    // unwind into the join, which returns the task's own result, and
    // the task must still be counted, so the runtime drops.
    let (result, hook_ran, pending, (spawned, executed)) = within_ten_seconds(|| {
        let rt = TaskRuntime::builder().workers(2).build();
        let started = Arc::new(std::sync::Barrier::new(3));
        let release = Arc::new(std::sync::Barrier::new(3));
        for _ in 0..2 {
            let (started, release) = (Arc::clone(&started), Arc::clone(&release));
            rt.spawn(move || {
                started.wait();
                release.wait();
            });
        }
        started.wait();
        let hook_ran = Arc::new(AtomicUsize::new(0));
        let task = rt.spawn(|| {
            std::thread::sleep(Duration::from_millis(50));
            1
        });
        let ran = Arc::clone(&hook_ran);
        task.on_done(move || {
            ran.fetch_add(1, Ordering::SeqCst);
            panic!("completion hook failed");
        });
        let result = task.join();
        release.wait();
        assert_eq!(rt.spawn(|| 2).join(), Ok(2));
        let (pending, counts) = settle(&rt);
        drop(rt);
        (result, hook_ran.load(Ordering::SeqCst), pending, counts)
    });
    assert_eq!(result, Ok(1));
    assert_eq!(hook_ran, 1);
    assert_eq!(pending, 0, "queued_hint after the later task");
    assert_eq!((spawned, executed), (4, 4), "(spawned, executed)");
}

#[test]
fn a_panicking_completion_hook_spares_the_worker() {
    // One worker runs the hooked task: `join_timeout` never helps. The
    // worker must survive the hook's panic, which the second task's
    // join shows, since only that worker can run it.
    let (first, second, pending, (spawned, executed)) = within_ten_seconds(|| {
        let rt = TaskRuntime::builder().workers(1).build();
        let task = rt.spawn(|| {
            std::thread::sleep(Duration::from_millis(50));
            1
        });
        task.on_done(|| panic!("completion hook failed"));
        let first = task.join_timeout(Duration::from_secs(3));
        let second = rt.spawn(|| 2).join_timeout(Duration::from_secs(3));
        let (pending, counts) = settle(&rt);
        drop(rt);
        (first, second, pending, counts)
    });
    assert_eq!(first, Ok(1));
    assert_eq!(second, Ok(2), "the worker died with the hook");
    assert_eq!(pending, 0, "queued_hint after the second task");
    assert_eq!((spawned, executed), (2, 2), "(spawned, executed)");
}

#[test]
fn ordered_pfor_builds_a_deterministic_transcript() {
    // The ordered construct writing into a shared Vec produces the
    // sequential transcript even with a dynamic schedule.
    let team = Team::new(4);
    let log = std::sync::Mutex::new(String::new());
    team.parallel(|ctx| {
        ctx.pfor_ordered(0..26, Schedule::Dynamic(3), |i, gate| {
            let ch = (b'a' + i as u8) as char;
            // Parallel part: compute; ordered part: append.
            gate.run(i, || log.lock().unwrap().push(ch));
        });
    });
    assert_eq!(*log.lock().unwrap(), "abcdefghijklmnopqrstuvwxyz");
}

#[test]
fn subteam_region_while_rest_of_team_sleeps() {
    let team = Team::new(4);
    let participants = AtomicUsize::new(0);
    team.parallel_with(2, |ctx| {
        participants.fetch_add(1, Ordering::Relaxed);
        // Constructs work at sub-team size.
        let sum = ctx.pfor_reduce(0..100, Schedule::Static, &SumRed, |i| i as u64);
        assert_eq!(sum, 4950);
    });
    assert_eq!(participants.load(Ordering::Relaxed), 2);
}

#[test]
fn filter_pipeline_then_thumbnail() {
    // Project 1 extension: preprocess with filters, then thumbnail —
    // parallel at both stages, bit-identical to sequential.
    use imaging::filter::{apply_par, apply_seq, Filter2D};
    use imaging::{resize, Filter};
    let team = Team::new(3);
    let src = imaging::gen::generate(imaging::gen::Pattern::Plasma, 96, 72, 9);
    let pre_seq = apply_seq(&apply_seq(&src, Filter2D::Grayscale), Filter2D::BoxBlur(1));
    let pre_par = apply_par(&team, &apply_par(&team, &src, Filter2D::Grayscale), Filter2D::BoxBlur(1));
    assert_eq!(pre_seq.content_hash(), pre_par.content_hash());
    let thumb = resize(&pre_par, 16, 12, Filter::BoxAverage);
    assert_eq!((thumb.width(), thumb.height()), (16, 12));
    // Grayscale survives the whole pipeline.
    let p = thumb.get(8, 6);
    assert_eq!(p[0], p[1]);
    assert_eq!(p[1], p[2]);
}

#[test]
fn index_and_scan_agree_on_hit_files() {
    use docsearch::corpus::{generate_tree, CorpusConfig};
    use docsearch::{search_folder, InvertedIndex, Query};
    let rt = TaskRuntime::builder().workers(2).build();
    let cfg = CorpusConfig {
        needle: "thread".into(), // a vocabulary word: appears naturally
        needle_rate: 0.0,
        ..CorpusConfig::default()
    };
    let (tree, _) = generate_tree(&cfg);
    let index = InvertedIndex::build_par(&rt, &tree);
    // Files found by direct scan == files in the index postings.
    let report = search_folder(&rt, &tree, &Query::literal("thread"), None, None);
    let mut scan_files: Vec<&str> = report.matches.iter().map(|m| m.path.as_str()).collect();
    scan_files.sort_unstable();
    scan_files.dedup();
    let mut index_files: Vec<&str> = index
        .lookup("thread")
        .iter()
        .map(|p| index.files[p.file as usize].as_str())
        .collect();
    index_files.sort_unstable();
    index_files.dedup();
    // The scan finds substrings; "thread" also matches inside
    // "threads" etc. — but the corpus vocabulary contains exactly the
    // word "thread", so token and substring hits coincide here.
    assert_eq!(scan_files, index_files);
    rt.shutdown();
}

#[test]
fn gui_timer_drives_progress_polling() {
    // The classic GUI pattern: a repeating timer polls a multi-task's
    // progress on the EDT while workers grind. Each member bumps a
    // shared counter as it finishes, and the timer reads it.
    let rt = TaskRuntime::builder().workers(2).build();
    let gui = EventLoop::spawn();
    let finished = Arc::new(AtomicUsize::new(0));
    let multi = rt.spawn_batch(6, {
        let finished = Arc::clone(&finished);
        move |i| {
            std::thread::sleep(Duration::from_millis(3 + i as u64));
            finished.fetch_add(1, Ordering::SeqCst);
            i
        }
    });
    let observations = Arc::new(std::sync::Mutex::new(Vec::new()));
    let obs2 = Arc::clone(&observations);
    let timer = guievent::repeat_every(&gui.handle(), Duration::from_millis(2), move || {
        obs2.lock().unwrap().push(finished.load(Ordering::SeqCst));
    });
    let results = multi.join().into_iter().collect::<Result<Vec<_>, _>>().unwrap();
    assert_eq!(results, vec![0, 1, 2, 3, 4, 5]);
    // Give the timer a few more ticks to observe completion.
    std::thread::sleep(Duration::from_millis(10));
    timer.stop();
    gui.handle().drain();
    let obs = observations.lock().unwrap();
    assert!(!obs.is_empty(), "timer must have polled");
    assert!(obs.windows(2).all(|w| w[0] <= w[1]), "progress is monotone");
    assert_eq!(*obs.last().unwrap(), 6, "final poll sees everything done");
    rt.shutdown();
    gui.shutdown();
}

#[test]
fn teaching_report_generates_with_live_evidence() {
    let topics = memmodel::build_report();
    assert_eq!(topics.len(), 4);
    let full: String = topics.iter().map(|t| t.render()).collect();
    assert!(full.contains("Lost updates"));
    assert!(full.contains("0 stale reads"));
    assert!(memmodel::cost_appendix().contains("Mutex"));
}

#[test]
fn contribution_marking_end_to_end() {
    use course::repo::{decide_marks, synth_log, MarkDecision, PeerEvaluation};
    // Balanced commits + good peers -> equal (the common case).
    let balanced = synth_log(3, 90, true, 1);
    let good_peers = PeerEvaluation::new(vec![vec![0, 5, 5], vec![5, 0, 4], vec![4, 5, 0]]);
    assert_eq!(
        decide_marks(&balanced, &good_peers, 0.3, 3.0),
        MarkDecision::Equal
    );
    // Skewed commits + bad peers for the slacker -> adjusted.
    let skewed = synth_log(3, 90, false, 1);
    if skewed.gini() > 0.3 {
        let peers = PeerEvaluation::new(vec![vec![0, 2, 2], vec![2, 0, 2], vec![2, 2, 0]]);
        match decide_marks(&skewed, &peers, 0.3, 3.0) {
            MarkDecision::Adjusted(m) => assert_eq!(m.len(), 3),
            MarkDecision::Equal => panic!("double evidence should adjust"),
        }
    }
}

#[test]
fn stencil_inside_gui_async_region() {
    // A compute-heavy kernel dispatched as a Pyjama GUI region: the
    // EDT receives the converged field without blocking.
    use kernels::stencil::{relax_par, Grid};
    let team = Team::new(2);
    let gui = EventLoop::spawn();
    let received = Arc::new(std::sync::Mutex::new(None));
    let r2 = Arc::clone(&received);
    let region = pyjama::gui::gui_async(
        &team,
        &gui.handle(),
        |team| relax_par(team, Grid::hot_top(24, 24), 1e-6, 2000),
        move |(grid, sweeps)| {
            *r2.lock().unwrap() = Some((grid.get(12, 1), sweeps));
        },
    );
    region.wait();
    gui.handle().drain();
    let (near_hot, sweeps) = received.lock().unwrap().take().expect("delivered");
    assert!(near_hot > 50.0, "cell next to the hot edge is hot");
    assert!(sweeps > 1);
    gui.shutdown();
}
