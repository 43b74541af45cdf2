//! Cross-runtime agreement: the same computation expressed on
//! partask, on pyjama and sequentially must produce identical results.
//! This is the load-bearing invariant behind every project comparison
//! in the paper — different parallelisation strategies, same answer.

use std::sync::Arc;

use softeng751::prelude::*;

#[test]
fn matmul_three_ways_agrees() {
    use kernels::linalg::{matmul_par, matmul_partask, matmul_seq, Matrix};
    let rt = TaskRuntime::builder().workers(3).build();
    let team = Team::new(3);
    let a = Matrix::random(40, 56, 0xAB);
    let b = Matrix::random(56, 32, 0xCD);
    let seq = matmul_seq(&a, &b);
    assert!(matmul_par(&team, &a, &b).max_diff(&seq) < 1e-12);
    assert!(matmul_partask(&rt, &a, &b, 7).max_diff(&seq) < 1e-12);
    rt.shutdown();
}

#[test]
fn sorting_five_ways_agrees() {
    use parsort::{data, mergesort, quicksort_partask, quicksort_pyjama, quicksort_seq, samplesort};
    let rt = TaskRuntime::builder().workers(3).build();
    let team = Team::new(3);
    let input = data::few_unique(30_000, 257, 0x31);
    let mut expected = input.clone();
    expected.sort_unstable();

    let mut v1 = input.clone();
    quicksort_seq(&mut v1);
    let mut v2 = input.clone();
    quicksort_partask(&rt, &mut v2);
    let mut v3 = input.clone();
    quicksort_pyjama(&team, &mut v3);
    let mut v4 = input.clone();
    mergesort::mergesort_partask(&rt, &mut v4);
    let mut v5 = input.clone();
    samplesort::samplesort(&rt, &mut v5, 8);

    assert_eq!(v1, expected);
    assert_eq!(v2, expected);
    assert_eq!(v3, expected);
    assert_eq!(v4, expected);
    assert_eq!(v5, expected);
    rt.shutdown();
}

#[test]
fn pi_three_estimators_converge_to_pi() {
    use kernels::montecarlo::{pi_monte_carlo_par, pi_quadrature_par, pi_quadrature_seq};
    let team = Team::new(2);
    let q_seq = pi_quadrature_seq(200_000);
    let q_par = pi_quadrature_par(&team, 200_000, Schedule::Guided(256));
    let mc = pi_monte_carlo_par(&team, 400_000, 0x99, 16);
    assert!((q_seq - std::f64::consts::PI).abs() < 1e-8);
    assert!((q_par - q_seq).abs() < 1e-9);
    assert!((mc - std::f64::consts::PI).abs() < 0.02);
}

#[test]
fn pyjama_team_shared_by_partask_tasks() {
    // A pyjama team used from inside partask tasks: regions from
    // different tasks serialise on the team's region lock, results
    // stay correct.
    let rt = TaskRuntime::builder().workers(2).build();
    let team = Team::new(2);
    let handles: Vec<_> = (0..6)
        .map(|k| {
            let team = team.clone();
            rt.spawn(move || team.par_sum(0..1000, Schedule::Static, move |i| (i as u64) + k))
        })
        .collect();
    for (k, h) in handles.into_iter().enumerate() {
        let expected = (0..1000u64).sum::<u64>() + 1000 * k as u64;
        assert_eq!(h.join().unwrap(), expected);
    }
    rt.shutdown();
}

#[test]
fn gallery_pixels_identical_between_engines() {
    use imaging::{gen, render_gallery, GalleryConfig, Strategy};
    let rt = TaskRuntime::builder().workers(2).build();
    let team = Team::new(2);
    let images = Arc::new(gen::generate_folder(6, 16, 40, 7));
    let reference = render_gallery(
        &images,
        &GalleryConfig {
            thumb_w: 10,
            thumb_h: 10,
            strategy: Strategy::Sequential,
            ..GalleryConfig::default()
        },
        &rt,
        &team,
        None,
    );
    for strategy in [Strategy::TaskPerImage, Strategy::PyjamaDynamic(1)] {
        let other = render_gallery(
            &images,
            &GalleryConfig {
                thumb_w: 10,
                thumb_h: 10,
                strategy,
                ..GalleryConfig::default()
            },
            &rt,
            &team,
            None,
        );
        for (a, b) in reference.thumbnails.iter().zip(&other.thumbnails) {
            assert_eq!(a.content_hash(), b.content_hash());
        }
    }
    rt.shutdown();
}

#[test]
fn search_results_independent_of_worker_count() {
    use docsearch::corpus::{generate_tree, CorpusConfig};
    use docsearch::{search_folder, Query};
    let cfg = CorpusConfig {
        needle_rate: 0.05,
        ..CorpusConfig::default()
    };
    let (tree, planted) = generate_tree(&cfg);
    let mut results = Vec::new();
    for workers in [1, 2, 4] {
        let rt = TaskRuntime::builder().workers(workers).build();
        let report = search_folder(&rt, &tree, &Query::literal(&cfg.needle), None, None);
        results.push(report.matches);
        rt.shutdown();
    }
    assert_eq!(results[0].len(), planted);
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
}

#[test]
fn scheduler_kinds_equivalent_for_every_subsystem_sample() {
    // One sample workload per scheduler kind must agree.
    for kind in [SchedulerKind::WorkStealing, SchedulerKind::WorkSharing] {
        let rt = TaskRuntime::builder().workers(2).scheduler(kind).build();
        let m = rt.spawn_batch(16, |i| (i as u64 + 1) * 3);
        assert_eq!(m.join().into_iter().sum::<Result<u64, _>>(), Ok(3 * 136));
        rt.shutdown();
    }
}
