//! Quickstart: the three pillars of the reproduction in one tour —
//! task parallelism (partask), OpenMP-style worksharing (pyjama) and
//! GUI-aware concurrency (guievent).
//!
//! Run with: `cargo run --release --example quickstart`

use softeng751::prelude::*;

fn main() {
    println!("== SoftEng 751 reproduction: quickstart ==\n");

    // --- Parallel Task analogue: futures, dependences, multi-tasks.
    let rt = TaskRuntime::builder().workers(4).build();
    let a = rt.spawn(|| (1..=20u64).sum::<u64>());
    let b = rt.spawn(|| (1..=10u64).product::<u64>());
    let after = rt.spawn_after(&[a.watcher(), b.watcher()], || "both predecessors done");
    println!("task a (sum 1..=20)      = {}", a.join().unwrap());
    println!("task b (10!)             = {}", b.join().unwrap());
    println!("dependent task           = {}", after.join().unwrap());

    let multi = rt.spawn_batch(8, |i| i * i);
    let squares = multi.join().into_iter().collect::<Result<Vec<_>, _>>().unwrap();
    println!("multi-task squares       = {squares:?}");

    // --- Pyjama analogue: parallel regions, schedules, reductions.
    let team = Team::new(4);
    let data: Vec<f64> = (0..100_000).map(|i| f64::from(i as u32).sqrt()).collect();
    let total = team.par_reduce(0..data.len(), Schedule::Static, &SumRed, |i| data[i]);
    println!("pyjama sum of sqrt       = {total:.2}");
    let maxv = team.par_reduce(0..data.len(), Schedule::Dynamic(1024), &MaxRed, |i| data[i]);
    println!("pyjama max (dynamic)     = {maxv:.3}");

    // Object-oriented reduction: merge per-iteration maps.
    let red = MapMerge::new(|x: u64, y: u64| x + y);
    let histogram: std::collections::HashMap<u64, u64> =
        team.par_reduce(0..10_000, Schedule::Guided(64), &red, |i| {
            let mut m = std::collections::HashMap::new();
            m.insert((i % 7) as u64, 1);
            m
        });
    println!("OO reduction histogram   = {histogram:?}");

    // --- GUI awareness: deliver a result to the event-dispatch thread.
    let gui = EventLoop::spawn();
    let handle = gui.handle();
    let task = rt.spawn(|| {
        // pretend this is a long computation
        (0..1_000_000u64).sum::<u64>()
    });
    let edt_probe = handle.clone();
    task.deliver(&handle, move |result| {
        assert!(edt_probe.is_dispatch_thread());
        println!("delivered on the EDT     = {}", result.unwrap());
    });
    rt.wait_quiescent();
    gui.handle().drain();

    println!("\nruntime stats: {:?}", rt.stats());
    rt.shutdown();
    gui.shutdown();
    println!("done.");
}
