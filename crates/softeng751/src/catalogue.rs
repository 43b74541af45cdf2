//! The ten SoftEng 751 projects (Section IV-C) as runnable scenarios.
//!
//! Each driver exercises its subsystem end to end at a laptop-friendly
//! scale, self-checks its results, and returns a [`ProjectReport`]:
//! pool-independent facts, timings, and the checks that failed. The
//! `projects` experiment program records each report as the first part
//! of the project's cell.

use std::sync::Arc;

use guievent::EventLoop;
use parc_util::Stopwatch;
use partask::TaskRuntime;
use pyjama::{Schedule, Team};

/// The ten project topics of Section IV-C, in the paper's order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProjectId {
    /// 1: Thumbnails of images in a folder.
    Thumbnails,
    /// 2: Parallel quicksort.
    ParallelQuicksort,
    /// 3: Parallelisation of simple computational kernels.
    ComputationalKernels,
    /// 4: Search for a string in text files of a folder.
    TextSearch,
    /// 5: Reductions in Pyjama.
    Reductions,
    /// 6: Task-aware libraries for Parallel Task.
    TaskAwareLibraries,
    /// 7: PDF searching.
    PdfSearch,
    /// 8: Understanding and coping with the memory model.
    MemoryModel,
    /// 9: Parallel use of collections.
    ParallelCollections,
    /// 10: Fast web access through concurrent connections.
    ConcurrentWebAccess,
}

impl ProjectId {
    /// All ten projects, paper order.
    #[must_use]
    pub fn all() -> [ProjectId; 10] {
        [
            ProjectId::Thumbnails,
            ProjectId::ParallelQuicksort,
            ProjectId::ComputationalKernels,
            ProjectId::TextSearch,
            ProjectId::Reductions,
            ProjectId::TaskAwareLibraries,
            ProjectId::PdfSearch,
            ProjectId::MemoryModel,
            ProjectId::ParallelCollections,
            ProjectId::ConcurrentWebAccess,
        ]
    }

    /// The paper's project title.
    #[must_use]
    pub fn title(self) -> &'static str {
        match self {
            ProjectId::Thumbnails => "Thumbnails of images in a folder",
            ProjectId::ParallelQuicksort => "Parallel quicksort",
            ProjectId::ComputationalKernels => "Parallelisation of simple computational kernels",
            ProjectId::TextSearch => "Search for a string in text files of a folder",
            ProjectId::Reductions => "Reductions in Pyjama",
            ProjectId::TaskAwareLibraries => "Task-aware libraries for Parallel Task",
            ProjectId::PdfSearch => "PDF searching",
            ProjectId::MemoryModel => "Understanding and coping with the memory model",
            ProjectId::ParallelCollections => "Parallel use of collections",
            ProjectId::ConcurrentWebAccess => "Fast web access through concurrent connections",
        }
    }

    /// The experiment id in EXPERIMENTS.md.
    #[must_use]
    pub fn experiment_id(self) -> &'static str {
        match self {
            ProjectId::Thumbnails => "E1",
            ProjectId::ParallelQuicksort => "E2",
            ProjectId::ComputationalKernels => "E3",
            ProjectId::TextSearch => "E4",
            ProjectId::Reductions => "E5",
            ProjectId::TaskAwareLibraries => "E6",
            ProjectId::PdfSearch => "E7",
            ProjectId::MemoryModel => "E8",
            ProjectId::ParallelCollections => "E9",
            ProjectId::ConcurrentWebAccess => "E10",
        }
    }
}

/// The shared engines a project needs: a task runtime (Parallel Task
/// analogue), a team (Pyjama analogue) and an event loop (the GUI).
pub struct Engines {
    /// Parallel Task runtime.
    pub rt: TaskRuntime,
    /// Pyjama team.
    pub team: Team,
    /// The GUI event loop.
    pub gui: EventLoop,
}

impl Engines {
    /// Small engines for tests and quick runs (2 workers each).
    #[must_use]
    pub fn small() -> Self {
        Self::with_workers(2)
    }

    /// Engines with `n` workers per runtime.
    #[must_use]
    pub fn with_workers(n: usize) -> Self {
        Self {
            rt: TaskRuntime::builder().workers(n).build(),
            team: Team::new(n),
            gui: EventLoop::spawn(),
        }
    }

    /// Shut everything down cleanly.
    pub fn shutdown(self) {
        self.rt.shutdown();
        self.gui.shutdown();
    }
}

/// Outcome of one project run.
#[derive(Clone, Debug)]
pub struct ProjectReport {
    /// Which project ran.
    pub id: ProjectId,
    /// Facts that depend neither on the schedule nor on the pool size:
    /// planted-vs-found counts, task counts, reduction results, fault
    /// accounting.
    pub facts: Vec<(String, u64)>,
    /// Wall-clock timings, plus readings that vary with the schedule
    /// (floating-point error of a parallel sum, racy-demo anomalies).
    pub timings: Vec<(String, f64)>,
    /// Self-checks that failed, one line each; empty when the project
    /// passed.
    pub violations: Vec<String>,
}

impl ProjectReport {
    fn fact(&mut self, key: impl Into<String>, value: u64) {
        self.facts.push((key.into(), value));
    }

    fn timing(&mut self, key: impl Into<String>, value: f64) {
        self.timings.push((key.into(), value));
    }

    fn check(&mut self, ok: bool, violation: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(violation());
        }
    }
}

/// Run one project scenario.
#[must_use]
pub fn run_project(id: ProjectId, engines: &Engines) -> ProjectReport {
    let mut report =
        ProjectReport { id, facts: Vec::new(), timings: Vec::new(), violations: Vec::new() };
    let r = &mut report;
    match id {
        ProjectId::Thumbnails => thumbnails(engines, r),
        ProjectId::ParallelQuicksort => quicksort(engines, r),
        ProjectId::ComputationalKernels => kernels(&engines.team, r),
        ProjectId::TextSearch => folder_search(&engines.rt, r),
        ProjectId::Reductions => reductions(&engines.team, r),
        ProjectId::TaskAwareLibraries => task_aware(r),
        ProjectId::PdfSearch => paged_search(&engines.rt, r),
        ProjectId::MemoryModel => memory_model(r),
        ProjectId::ParallelCollections => collections(r),
        ProjectId::ConcurrentWebAccess => web(r),
    }
    report
}

fn thumbnails(engines: &Engines, r: &mut ProjectReport) {
    use imaging::{gen, render_gallery, GalleryConfig, Strategy};
    let images = Arc::new(gen::generate_folder(16, 32, 96, 0xA11));
    let mut hashes: Option<Vec<u64>> = None;
    // GUI responsiveness while the gallery renders off the EDT.
    let probe = guievent::Probe::start(engines.gui.handle(), std::time::Duration::from_millis(1));
    for strategy in [
        Strategy::Sequential,
        Strategy::TaskPerImage,
        Strategy::MultiTask(4),
        Strategy::PyjamaDynamic(2),
    ] {
        let cfg = GalleryConfig { thumb_w: 24, thumb_h: 24, strategy, ..GalleryConfig::default() };
        let sw = Stopwatch::start();
        let report = render_gallery(&images, &cfg, &engines.rt, &engines.team, None);
        r.timing(format!("render_ms[{}]", report.strategy), sw.elapsed_ms());
        let h: Vec<u64> = report.thumbnails.iter().map(imaging::Image::content_hash).collect();
        let reference = hashes.get_or_insert_with(|| h.clone());
        r.check(*reference == h, || {
            format!("strategy {} produced different pixels", report.strategy)
        });
    }
    let resp = probe.finish();
    r.fact("images", images.len() as u64);
    r.timing("gui_median_latency_ms", resp.summary().median());
    r.timing("gui_worst_latency_ms", resp.worst_ms());
}

fn quicksort(engines: &Engines, r: &mut ProjectReport) {
    use parsort::{data, quicksort_partask, quicksort_pyjama, quicksort_seq, quicksort_threads};
    let input = data::random(60_000, 0x50F7);
    let mut expected = input.clone();
    expected.sort_unstable();
    type Sort<'a> = &'a dyn Fn(&mut Vec<u64>);
    let variants: [(&str, Sort); 4] = [
        ("sequential", &|v| quicksort_seq(v)),
        ("partask", &|v| quicksort_partask(&engines.rt, v)),
        ("pyjama", &|v| quicksort_pyjama(&engines.team, v)),
        ("threads", &|v| quicksort_threads(v, 3)),
    ];
    for (name, sort) in variants {
        let mut v = input.clone();
        let sw = Stopwatch::start();
        sort(&mut v);
        r.timing(format!("sort_ms[{name}]"), sw.elapsed_ms());
        r.check(v == expected, || format!("{name} produced an incorrect ordering"));
    }
    r.fact("elements", input.len() as u64);
}

fn kernels(team: &Team, r: &mut ProjectReport) {
    use kernels::{fft, graph, linalg, montecarlo};
    let max_diff =
        |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max);

    let signal = fft::test_signal(1024, 3);
    let mut seq = signal.clone();
    fft::fft_seq(&mut seq);
    let mut par = signal;
    fft::fft_par(team, &mut par);
    let fft_err = seq.iter().zip(&par).map(|(a, b)| a.sub(*b).abs()).fold(0.0f64, f64::max);

    let g = graph::CsrGraph::random(400, 1600, 4);
    let pr_err =
        max_diff(&graph::pagerank_seq(&g, 0.85, 20), &graph::pagerank_par(team, &g, 0.85, 20));

    let a = linalg::Matrix::random(48, 48, 5);
    let b = linalg::Matrix::random(48, 48, 6);
    let mm_err = linalg::matmul_par(team, &a, &b).max_diff(&linalg::matmul_seq(&a, &b));

    let pi = montecarlo::pi_quadrature_par(team, 100_000, Schedule::Static);
    let pi_err = (pi - std::f64::consts::PI).abs();

    for (name, err, tolerance) in [
        ("fft_max_err", fft_err, 1e-9),
        ("pagerank_max_err", pr_err, 1e-10),
        ("matmul_max_err", mm_err, 1e-12),
        ("pi_quadrature_err", pi_err, 1e-8),
    ] {
        r.timing(name, err);
        r.check(err < tolerance, || format!("{name} {err:e} exceeds {tolerance:e}"));
    }
}

fn folder_search(rt: &TaskRuntime, r: &mut ProjectReport) {
    use docsearch::corpus::{generate_tree, CorpusConfig};
    use docsearch::{search_folder, Query};
    let cfg = CorpusConfig { needle_rate: 0.03, ..CorpusConfig::default() };
    let (tree, planted) = generate_tree(&cfg);
    let (tx, rx) = partask::interim_channel();
    let report = search_folder(rt, &tree, &Query::literal(&cfg.needle), Some(&tx), None);
    let streamed = rx.try_drain().len();
    r.check(report.matches.len() == planted && streamed == planted, || {
        format!("{planted} planted, {} found, {streamed} streamed", report.matches.len())
    });
    r.fact("planted", planted as u64);
    r.fact("matches", report.matches.len() as u64);
    r.fact("streamed", streamed as u64);
    r.fact("files", report.files_searched as u64);
}

fn reductions(team: &Team, r: &mut ProjectReport) {
    use pyjama::{MapMerge, SetUnion, SumRed, VecConcat};
    use std::collections::{HashMap, HashSet};
    let n = 20_000usize;

    let sum = team.par_reduce(0..n, Schedule::Static, &SumRed, |i| i as u64);
    r.check(sum == (n as u64 - 1) * n as u64 / 2, || format!("scalar sum {sum}"));

    let concat: Vec<u32> =
        team.par_reduce(0..1000, Schedule::Static, &VecConcat::new(), |i| vec![i as u32]);
    r.check(concat == (0..1000).collect::<Vec<_>>(), || "vec-concat lost the loop order".into());

    let set: HashSet<u64> = team.par_reduce(0..n, Schedule::Dynamic(64), &SetUnion::new(), |i| {
        HashSet::from([(i % 97) as u64])
    });
    r.check(set.len() == 97, || format!("set-union kept {} of 97 keys", set.len()));

    let merge = MapMerge::new(|a: u64, b: u64| a + b);
    let counts: HashMap<u64, u64> = team
        .par_reduce(0..n, Schedule::Guided(16), &merge, |i| HashMap::from([((i % 10) as u64, 1)]));
    let merged = counts.values().sum::<u64>();
    r.check(merged == n as u64, || format!("map-merge counted {merged} of {n}"));

    r.fact("scalar_sum", sum);
    r.fact("set_cardinality", set.len() as u64);
}

fn task_aware(r: &mut ProjectReport) {
    use taskcol::TaskCell;
    // The saturated-pool scenario on a dedicated single-worker pool:
    // the task-aware blocking get helps the producer run.
    let rt1 = TaskRuntime::builder().workers(1).build();
    let h = rt1.handle();
    let cell = Arc::new(TaskCell::new());
    let consumer = {
        let cell = Arc::clone(&cell);
        rt1.spawn(move || {
            let producer_cell = Arc::clone(&cell);
            let _producer = h.spawn(move || producer_cell.set(2014u32));
            cell.get_wait(&h)
        })
    };
    let got = consumer.join();
    rt1.shutdown();
    r.check(got == Ok(2014), || format!("blocking get on a 1-worker pool returned {got:?}"));
    r.fact("value", u64::from(got.unwrap_or(0)));
}

fn paged_search(rt: &TaskRuntime, r: &mut ProjectReport) {
    use docsearch::corpus::{generate_documents, CorpusConfig};
    use docsearch::{search_documents, Granularity, Query};
    let cfg = CorpusConfig { needle_rate: 0.02, ..CorpusConfig::default() };
    let (docs, planted) = generate_documents(20, 8, 10, &cfg);
    let docs = Arc::new(docs);
    let query = Query::literal(&cfg.needle);
    for g in [Granularity::PerDocument, Granularity::PerPage, Granularity::PerChunk(4)] {
        let report = search_documents(rt, &docs, &query, g, None);
        r.check(report.total_matches == planted, || {
            format!("{}: {} of {planted} matches", g.label(), report.total_matches)
        });
        r.fact(format!("tasks[{}]", g.label()), report.tasks_spawned as u64);
    }
    r.fact("planted", planted as u64);
}

fn memory_model(r: &mut ProjectReport) {
    use memmodel::demos;
    let racy = demos::lost_update(4, 20_000, true);
    let lazy_racy = demos::lazy_init(30, 4, false);
    r.check(racy.race_observed(), || "the racy counter lost no update".into());
    for fixed in [
        demos::lost_update_fixed(4, 20_000, demos::FixStrategy::AtomicRmw),
        demos::message_passing(100, true),
        demos::store_buffer(200, std::sync::atomic::Ordering::SeqCst),
        demos::lazy_init(30, 4, true),
    ] {
        r.check(fixed.anomalies == 0, || {
            format!("fixed {}: {} anomalies", fixed.name, fixed.anomalies)
        });
    }
    r.timing("lost_updates", racy.anomalies as f64);
    r.timing("lazy_double_constructions", lazy_racy.anomalies as f64);
}

fn collections(r: &mut ProjectReport) {
    use taskcol::workload::{run_map_workload, MapWorkload};
    use taskcol::{MutexMap, RwLockMap, ShardedMap};
    let cfg = MapWorkload { threads: 4, ops_per_thread: 5_000, ..MapWorkload::default() };
    for (name, result) in [
        ("mutex", run_map_workload(&Arc::new(MutexMap::new()), &cfg)),
        ("rwlock", run_map_workload(&Arc::new(RwLockMap::new()), &cfg)),
        ("sharded", run_map_workload(&Arc::new(ShardedMap::new(16)), &cfg)),
    ] {
        r.check(result.ops_per_sec() > 0.0, || format!("{name} map made no progress"));
        r.timing(format!("ops_per_sec[{name}]"), result.ops_per_sec());
    }
}

fn web(r: &mut ProjectReport) {
    use websim::{fetch_all, ServerConfig, SimServer};
    // A dedicated wide pool: connections sleep, they don't compute.
    let rt = TaskRuntime::builder().workers(16).build();
    let server = Arc::new(SimServer::new(ServerConfig {
        pages: 80,
        time_scale: 5e-6,
        ..ServerConfig::default()
    }));
    let serial = fetch_all(&rt, &server, 1);
    let pooled = fetch_all(&rt, &server, 16);
    let speedup = serial.elapsed.as_secs_f64() / pooled.elapsed.as_secs_f64().max(1e-9);
    r.check(speedup > 2.0, || format!("16 connections only {speedup:.2}x faster than 1"));
    r.check(server.requests_served() == 160, || {
        format!("served {} requests for 2 x 80 pages", server.requests_served())
    });
    r.timing("connection_speedup_16v1", speedup);

    // Variant: the fault-tolerant crawler against a flaky server.
    let chaos = fault_tolerant_crawl(&rt, 0xC4A0_17E5, 8);
    r.check(chaos.fully_succeeded() && chaos.retries > 0, || {
        format!(
            "crawler recovered {} pages, failed {:?}, with {} retries",
            chaos.succeeded, chaos.failed_pages, chaos.retries
        )
    });
    r.fact("crawler_pages", chaos.succeeded as u64);
    r.fact("crawler_failed_pages", chaos.failed_pages.len() as u64);
    r.fact("crawler_attempts", chaos.attempts_total);
    r.fact("crawler_retries", chaos.retries);
    r.fact("crawler_transient", chaos.transient_errors);
    r.fact("crawler_timeouts", chaos.timeouts);
    r.fact("crawler_panics", chaos.panics);
    rt.shutdown();
}

/// The E10 *fault-tolerant crawler* variant: download a page set from
/// a server that injects deterministic transient errors, timeouts and
/// panics (seeded by `seed`), retrying each page under an exponential
/// backoff policy. The returned [`websim::FetchOutcome`] is
/// reproducible — identical counts for identical seeds, whatever the
/// thread interleaving.
#[must_use]
pub fn fault_tolerant_crawl(
    rt: &TaskRuntime,
    seed: u64,
    connections: usize,
) -> websim::FetchOutcome {
    use faultsim::{FaultInjector, FaultPlan, RetryPolicy};
    use std::time::Duration;
    use websim::{try_fetch_all, ServerConfig, SimServer};
    let plan = FaultPlan::reliable(seed)
        .with_error_rate(0.15)
        .with_timeout_rate(0.05)
        .with_panic_rate(0.02)
        .with_latency_spikes(0.05, 40.0)
        .fail_key_n_times(7, 3);
    let server = Arc::new(SimServer::with_faults(
        ServerConfig { pages: 80, time_scale: 5e-6, ..ServerConfig::default() },
        FaultInjector::new(plan),
    ));
    let policy = RetryPolicy::exponential(Duration::from_millis(2), 2.0, Duration::from_millis(20))
        .with_jitter(0.2)
        .with_max_attempts(6);
    try_fetch_all(rt, &server, connections, &policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ten_projects_listed_in_order() {
        let all = ProjectId::all();
        assert_eq!(all.len(), 10);
        assert_eq!(all[0].experiment_id(), "E1");
        assert_eq!(all[9].experiment_id(), "E10");
        let titles: std::collections::HashSet<&str> = all.iter().map(|p| p.title()).collect();
        assert_eq!(titles.len(), 10, "titles must be distinct");
    }

    #[test]
    fn every_project_scenario_passes() {
        let engines = Engines::small();
        for id in ProjectId::all() {
            let report = run_project(id, &engines);
            assert!(report.violations.is_empty(), "project {id:?} failed: {:?}", report.violations);
            assert!(
                !report.facts.is_empty() || !report.timings.is_empty(),
                "{id:?} recorded nothing"
            );
        }
        engines.shutdown();
    }
}
