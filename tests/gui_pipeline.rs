//! End-to-end GUI pipelines: background work, the event-dispatch
//! thread and interim results, composed across crates — the
//! interactive application shape every "(also available for Android)"
//! project in the paper shares.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use softeng751::prelude::*;

#[test]
fn gallery_streams_thumbnails_to_edt_while_responsive() {
    use imaging::{gen, render_gallery, GalleryConfig, Strategy};
    let rt = TaskRuntime::builder().workers(2).build();
    let team = Team::new(2);
    let gui = EventLoop::spawn();

    let images = Arc::new(gen::generate_folder(10, 32, 64, 3));
    let displayed = Arc::new(AtomicUsize::new(0));
    let on_edt = Arc::new(AtomicUsize::new(0));

    let (tx, rx) = interim_channel::<(usize, imaging::Image)>();
    {
        let displayed = Arc::clone(&displayed);
        let on_edt = Arc::clone(&on_edt);
        let probe = gui.handle();
        rx.forward_to_gui(&gui.handle(), move |(_, thumb)| {
            assert_eq!((thumb.width(), thumb.height()), (8, 8));
            displayed.fetch_add(1, Ordering::Relaxed);
            if probe.is_dispatch_thread() {
                on_edt.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    let probe = Probe::start(gui.handle(), Duration::from_millis(1));
    let report = render_gallery(
        &images,
        &GalleryConfig {
            thumb_w: 8,
            thumb_h: 8,
            strategy: Strategy::TaskPerImage,
            ..GalleryConfig::default()
        },
        &rt,
        &team,
        Some(&tx),
    );
    gui.handle().drain();
    let resp = probe.finish();

    assert_eq!(report.thumbnails.len(), 10);
    assert_eq!(displayed.load(Ordering::Relaxed), 10);
    assert_eq!(on_edt.load(Ordering::Relaxed), 10, "every update on the EDT");
    assert!(
        resp.summary().median() < 20.0,
        "EDT must stay responsive during the render"
    );
    rt.shutdown();
    gui.shutdown();
}

#[test]
fn search_hits_appear_on_edt_in_flight() {
    use docsearch::corpus::{generate_tree, CorpusConfig};
    use docsearch::{search_folder, Match, Query};
    let rt = TaskRuntime::builder().workers(2).build();
    let gui = EventLoop::spawn();
    let cfg = CorpusConfig {
        needle_rate: 0.04,
        ..CorpusConfig::default()
    };
    let (tree, planted) = generate_tree(&cfg);

    let displayed = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = interim_channel::<Match>();
    {
        let displayed = Arc::clone(&displayed);
        rx.forward_to_gui(&gui.handle(), move |m| {
            assert!(m.line_no >= 1);
            displayed.fetch_add(1, Ordering::Relaxed);
        });
    }
    let report = search_folder(&rt, &tree, &Query::literal(&cfg.needle), Some(&tx), None);
    gui.handle().drain();
    assert_eq!(report.matches.len(), planted);
    assert_eq!(displayed.load(Ordering::Relaxed), planted);
    rt.shutdown();
    gui.shutdown();
}

#[test]
fn pyjama_gui_region_keeps_edt_free_and_delivers() {
    let team = Team::new(2);
    let gui = EventLoop::spawn();
    let delivered = Arc::new(AtomicUsize::new(0));
    let d2 = Arc::clone(&delivered);
    let probe_handle = gui.handle();
    let region = pyjama::gui::gui_async(
        &team,
        &gui.handle(),
        |team| team.par_sum(0..50_000, Schedule::Static, |i| i as u64),
        move |sum| {
            assert!(probe_handle.is_dispatch_thread());
            assert_eq!(sum, 49_999 * 50_000 / 2);
            d2.fetch_add(1, Ordering::Relaxed);
        },
    );
    region.wait();
    gui.handle().drain();
    assert_eq!(delivered.load(Ordering::Relaxed), 1);
    gui.shutdown();
}

#[test]
fn long_computation_on_edt_vs_off_edt_latency_contrast() {
    // The central pedagogical contrast of the GUI projects: the same
    // computation frozen vs fluid, measured.
    let gui = EventLoop::spawn();
    let rt = TaskRuntime::builder().workers(2).build();

    // `black_box` keeps release builds from folding the loop into a
    // closed-form sum, which would leave nothing to block the EDT.
    let busy = || {
        let mut acc = 0u64;
        for i in 0..20_000_000u64 {
            acc = std::hint::black_box(acc.wrapping_add(i));
        }
        acc
    };

    // Off the EDT.
    let probe = Probe::start(gui.handle(), Duration::from_millis(1));
    let t = rt.spawn(busy);
    let _ = t.join().unwrap();
    let off_edt = probe.finish();

    // On the EDT (the student mistake).
    let probe = Probe::start(gui.handle(), Duration::from_millis(1));
    gui.invoke_and_wait(busy);
    let on_edt = probe.finish();

    assert!(
        on_edt.worst_ms() > off_edt.worst_ms() * 3.0,
        "blocking the EDT must visibly spike dispatch latency ({} vs {})",
        on_edt.worst_ms(),
        off_edt.worst_ms()
    );
    rt.shutdown();
    gui.shutdown();
}

#[test]
fn cancel_mid_search_from_the_gui_side() {
    use docsearch::corpus::{generate_tree, CorpusConfig};
    use docsearch::{search_folder, Query};
    // A bigger corpus and a 1-worker pool so cancellation lands while
    // files are still queued.
    let rt = TaskRuntime::builder().workers(1).build();
    let (tree, _) = generate_tree(&CorpusConfig {
        files_per_dir: 30,
        dirs_per_level: 3,
        depth: 2,
        lines_per_file: 120,
        ..CorpusConfig::default()
    });
    let cancel = CancelToken::new();
    // "User typed a new query" after 2 ms.
    let cancel2 = cancel.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(2));
        cancel2.cancel();
    });
    let report = search_folder(&rt, &tree, &Query::literal("the"), None, Some(&cancel));
    canceller.join().unwrap();
    // Either it finished very fast or some files were skipped; both
    // are valid — but a cancelled run must be flagged as such.
    if report.cancelled {
        assert!(report.files_searched > 0);
    }
    rt.shutdown();
}
