//! E1–E10 and the A1/A2 ablations: the ten student projects of
//! Section IV-C and two runtime ablations, one experiment cell each.
//! Each cell is the only definition of its project: it runs the
//! project's sweeps and checks what they compute.
//!
//! * `measured` keys shaped like `E2/quicksort/partask/10000` hold the
//!   median wall time of one iteration in ms over five runs after one
//!   warm-up run. Other `measured` keys name their unit. Counts that
//!   depend on the schedule (racy-demo anomalies) and floating-point
//!   errors of parallel kernels are `measured` too.
//! * `deterministic` holds pool-independent facts: planted-vs-found and
//!   streamed counts, task counts, content hashes, reduction results
//!   and the fault-tolerant crawler's accounting.
//! * `model` holds E10's analytic download-time predictions.
//! * Every disagreement a check finds is a violation: a wrong sort, a
//!   granularity that loses a match, a parallel kernel that drifts from
//!   its sequential version, a fixed memory-model demo that shows an
//!   anomaly, a crawl that gives up on a page.
//! * E8 writes the memory-model write-up next to the artifact, as
//!   `projects.memory_model.md`.
//!
//! The cell's pool sizes its engines (task runtime, pyjama team, GUI
//! loop): 4 workers canonically, 1, 3 and 8 in the pool gate. Sweeps
//! whose worker or connection count is the project's question keep
//! their fixed counts: E4's and E7's worker sweeps, E10's connection
//! sweeps, A1's 2-worker pools and E6's 1-worker pools; E8 and E9 run
//! on threads of their own. Input seeds are fixed constants XORed with
//! the run seed, so seed 0 reproduces the workloads EXPERIMENTS.md
//! reports.
//!
//! Run with: `cargo run --release --example projects -- [--seed N] [--out DIR]`

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use docsearch::corpus::{generate_documents, generate_tree, CorpusConfig};
use docsearch::{search_documents, search_folder, Granularity, InvertedIndex, Match, Query, Regex};
use faultsim::{FaultInjector, FaultPlan, RetryPolicy};
use guievent::{EventLoop, Probe};
use imaging::filter::{apply_par, apply_seq, Filter2D};
use imaging::{gen, render_gallery, GalleryConfig, Image, Strategy};
use kernels::sparse::{spmv_par, spmv_seq, CsrMatrix};
use kernels::{fft, graph, linalg, md, montecarlo};
use memmodel::cost::{cost_strategies, increment_cost_ns, plain_increment_cost_ns};
use memmodel::demos::{self, FixStrategy};
use memmodel::report::{build_report, cost_appendix};
use parc_util::{fnv1a, measure_n, Stopwatch};
use parsort::{data, quicksort_partask, quicksort_pyjama, quicksort_seq, quicksort_threads};
use partask::{interim_channel, CancelToken, RuntimeHandle, SchedulerKind, TaskRuntime};
use pyjama::{MapMerge, Schedule, SetUnion, SumRed, Team, TopK, VecConcat};
use softeng751_repro::experiment::{self, hex, Report, Spec};
use taskcol::workload::{run_map_workload, run_queue_workload, MapWorkload, WorkloadResult};
use taskcol::{
    AtomicCounter, CoarseSet, ConcurrentSet, ConcurrentStack, FineSet, LibraryQueue, MutexCounter,
    MutexMap, MutexQueue, MutexStack, RwLockMap, ShardedCounter, ShardedMap, SharedCounter,
    SpinStack, TaskAwareQueue, TaskCell, TreiberStack, TwoLockQueue,
};
use websim::{
    fetch_all, predict_fetch_sim_ms, try_fetch_all, FetchOutcome, ServerConfig, SimServer,
};

/// Timed runs per series, after one warm-up run.
const REPS: usize = 5;

const STRATEGIES: [Strategy; 5] = [
    Strategy::Sequential,
    Strategy::TaskPerImage,
    Strategy::MultiTask(4),
    Strategy::PyjamaDynamic(2),
    Strategy::PyjamaStatic,
];

const SCHEDULES: [(&str, Schedule); 4] = [
    ("static", Schedule::Static),
    ("static-16", Schedule::StaticChunk(16)),
    ("dynamic-16", Schedule::Dynamic(16)),
    ("guided-4", Schedule::Guided(4)),
];

type Cell = fn(u64, usize) -> Report;

/// A named series whose every run builds its own input.
type Series<T> = (&'static str, fn() -> T);

fn main() {
    // E10's crawler injects panics on purpose and contains them.
    faultsim::silence_injected_panics();
    let cells: Vec<(String, Cell)> = vec![
        ("E1 thumbnails".into(), thumbnails),
        ("E2 quicksort".into(), quicksort),
        ("E3 kernels".into(), kernels),
        ("E4 folder search".into(), folder_search),
        ("E5 reductions".into(), reductions),
        ("E6 task-aware libraries".into(), task_aware),
        ("E7 paged search".into(), paged_search),
        ("E8 memory model".into(), memory_model),
        ("E9 collections".into(), collections),
        ("E10 web access".into(), web),
        ("A1 partask runtime".into(), runtime),
        ("A2 pyjama schedules".into(), schedules),
    ];
    experiment::run(
        Spec { name: "projects", seed: 0, pool: Some(4), cells },
        |cell, seed, pool| cell(seed, pool),
        |_, _| Report::new(),
    );
}

/// Median wall time of one run of `f`, in ms.
fn ms<T>(f: impl FnMut() -> T) -> f64 {
    measure_n(REPS, 1, f).median()
}

/// The engines a project runs on, `workers` workers each: a task
/// runtime (Parallel Task), a pyjama team and a GUI event loop.
struct Engines {
    rt: TaskRuntime,
    team: Team,
    gui: EventLoop,
}

impl Engines {
    fn with_workers(workers: usize) -> Self {
        let rt = TaskRuntime::builder().workers(workers).build();
        Self { rt, team: Team::new(workers), gui: EventLoop::spawn() }
    }

    fn shutdown(self) {
        self.rt.shutdown();
        self.gui.shutdown();
    }
}

/// One 64-bit hash over a sequence of hashes.
fn hash_all(hashes: impl Iterator<Item = u64>) -> u64 {
    fnv1a(&hashes.flat_map(u64::to_le_bytes).collect::<Vec<u8>>())
}

/// Run `f` on a fresh `workers`-worker runtime.
fn with_workers<T>(workers: usize, f: impl FnOnce(&TaskRuntime) -> T) -> T {
    let rt = TaskRuntime::builder().workers(workers).build();
    let out = f(&rt);
    rt.shutdown();
    out
}

fn thumbnails(seed: u64, pool: usize) -> Report {
    let engines = Engines::with_workers(pool);
    let (rt, team) = (&engines.rt, &engines.team);
    let mut r = Report::new();
    let images = Arc::new(gen::generate_folder(8, 40, 80, 0xA11 ^ seed));
    for strategy in STRATEGIES {
        let cfg = GalleryConfig { thumb_w: 32, thumb_h: 32, strategy, ..GalleryConfig::default() };
        let key = format!("E1/strategies/{}", strategy.label());
        r = r.measured(&key, ms(|| render_gallery(&images, &cfg, rt, team, None)));
    }
    for side in [32u32, 64, 96] {
        let images = Arc::new(gen::generate_folder(8, side, side, 0xB22 ^ seed));
        let strategy = Strategy::PyjamaDynamic(1);
        let cfg = GalleryConfig { thumb_w: 24, thumb_h: 24, strategy, ..GalleryConfig::default() };
        let key = format!("E1/input-size/{side}");
        r = r.measured(&key, ms(|| render_gallery(&images, &cfg, rt, team, None)));
    }

    // The gallery: thumbnails stream to the EDT as they finish while a
    // probe samples GUI latency.
    let images = Arc::new(gen::generate_folder(24, 64, 192, 0xA11CE ^ seed));
    let mut reference = None;
    for strategy in STRATEGIES {
        let cfg =
            GalleryConfig { thumb_w: 128, thumb_h: 128, strategy, ..GalleryConfig::default() };
        let delivered = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = interim_channel::<(usize, Image)>();
        let counter = Arc::clone(&delivered);
        rx.forward_to_gui(&engines.gui.handle(), move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        let probe = Probe::start(engines.gui.handle(), Duration::from_millis(1));
        let sw = Stopwatch::start();
        let gallery = render_gallery(&images, &cfg, rt, team, Some(&tx));
        let render_ms = sw.elapsed_ms();
        engines.gui.handle().drain();
        let latency = probe.finish();
        let hash = hash_all(gallery.thumbnails.iter().map(Image::content_hash));
        let delivered = delivered.load(Ordering::Relaxed);
        let key = format!("gallery/{}", strategy.label());
        r = r
            .measured(&format!("{key}/render_ms"), render_ms)
            .measured(&format!("{key}/gui_p50_ms"), latency.summary().median())
            .measured(&format!("{key}/gui_worst_ms"), latency.worst_ms())
            .det(&format!("{key}/delivered"), delivered)
            .check(
                delivered == images.len(),
                format!("{key}: {delivered} thumbnails reached the EDT"),
            )
            .check(*reference.get_or_insert(hash) == hash, format!("{key}: different pixels"));
    }
    r = r.det("gallery/thumbnail_hash", hex(reference.unwrap_or_default()));

    // The filter pipeline over one large image: sequential vs pyjama.
    let plasma = gen::generate(gen::Pattern::Plasma, 512, 384, 0xF17 ^ seed);
    for f in [
        Filter2D::Grayscale,
        Filter2D::Brighten(30),
        Filter2D::BoxBlur(2),
        Filter2D::SobelEdges,
        Filter2D::Rotate90,
    ] {
        let (seq, par) =
            (apply_seq(&plasma, f).content_hash(), apply_par(team, &plasma, f).content_hash());
        let key = format!("filter/{}", f.label());
        r = r
            .measured(&format!("{key}/sequential_ms"), ms(|| apply_seq(&plasma, f)))
            .measured(&format!("{key}/pyjama_ms"), ms(|| apply_par(team, &plasma, f)))
            .det(&format!("{key}/hash"), hex(seq))
            .check(seq == par, format!("{key}: pyjama pixels differ from sequential"));
    }
    engines.shutdown();
    r
}

fn quicksort(seed: u64, pool: usize) -> Report {
    let engines = Engines::with_workers(pool);
    let mut r = Report::new();
    type Sort<'a> = &'a dyn Fn(&mut Vec<u64>);
    let variants: [(&str, Sort); 5] = [
        ("sequential", &|v| quicksort_seq(v)),
        ("partask", &|v| quicksort_partask(&engines.rt, v)),
        ("pyjama", &|v| quicksort_pyjama(&engines.team, v)),
        ("threads", &|v| quicksort_threads(v, 3)),
        ("std-sort", &|v| v.sort_unstable()),
    ];
    for n in [1_000usize, 10_000, 50_000, 100_000, 1_000_000] {
        let input = data::random(n, 0x5EED ^ n as u64 ^ seed);
        let mut expected = input.clone();
        expected.sort_unstable();
        for (name, sort) in variants {
            let mut sorted = Vec::new();
            let t = ms(|| {
                sorted = input.clone();
                sort(&mut sorted);
            });
            r = r
                .measured(&format!("E2/quicksort/{name}/{n}"), t)
                .check(sorted == expected, format!("{name} missorted {n} elements"));
        }
    }
    engines.shutdown();
    r
}

fn kernels(seed: u64, pool: usize) -> Report {
    let engines = Engines::with_workers(pool);
    let (rt, team) = (&engines.rt, &engines.team);
    let signal = fft::test_signal(2048, 3 ^ seed);
    let sys = md::System::new(96, 7 ^ seed);
    let fft_with = |transform: &dyn Fn(&mut Vec<fft::Complex>)| {
        let mut v = signal.clone();
        transform(&mut v);
        v
    };
    let forces = |compute: &dyn Fn(&mut md::System)| {
        let mut s = sys.clone();
        compute(&mut s);
        s
    };
    let (a, b) =
        (linalg::Matrix::random(96, 96, 5 ^ seed), linalg::Matrix::random(96, 96, 6 ^ seed));
    let g = graph::CsrGraph::random(1000, 5_000, 4 ^ seed);
    let mut r = Report::new()
        .measured("E3/fft-2048/sequential", ms(|| fft_with(&|v| fft::fft_seq(v))))
        .measured("E3/fft-2048/pyjama", ms(|| fft_with(&|v| fft::fft_par(team, v))))
        .measured("E3/matmul-96/sequential", ms(|| linalg::matmul_seq(&a, &b)))
        .measured("E3/matmul-96/pyjama", ms(|| linalg::matmul_par(team, &a, &b)))
        .measured("E3/matmul-96/partask", ms(|| linalg::matmul_partask(rt, &a, &b, 8)))
        .measured("E3/pagerank/sequential", ms(|| graph::pagerank_seq(&g, 0.85, 10)))
        .measured("E3/pagerank/pyjama", ms(|| graph::pagerank_par(team, &g, 0.85, 10)))
        .measured("E3/md-96/forces-sequential", ms(|| forces(&|s| s.compute_forces_seq())))
        .measured("E3/md-96/forces-pyjama", ms(|| forces(&|s| s.compute_forces_par(team))));

    // Each parallel kernel against its sequential version, and the
    // quadrature against pi.
    let max_diff =
        |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max);
    let (fft_seq, fft_par) = (fft_with(&|v| fft::fft_seq(v)), fft_with(&|v| fft::fft_par(team, v)));
    let fft_err = fft_seq.iter().zip(&fft_par).map(|(x, y)| x.sub(*y).abs()).fold(0.0, f64::max);
    let pagerank_err =
        max_diff(&graph::pagerank_seq(&g, 0.85, 10), &graph::pagerank_par(team, &g, 0.85, 10));
    let matmul_err = linalg::matmul_par(team, &a, &b).max_diff(&linalg::matmul_seq(&a, &b));
    let pi = montecarlo::pi_quadrature_par(team, 100_000, Schedule::Static);
    for (name, err, tolerance) in [
        ("fft_max", fft_err, 1e-9),
        ("pagerank_max", pagerank_err, 1e-10),
        ("matmul_max", matmul_err, 1e-12),
        ("pi_quadrature", (pi - std::f64::consts::PI).abs(), 1e-8),
    ] {
        r = r
            .measured(&format!("error/{name}"), err)
            .check(err < tolerance, format!("{name} error {err:e} exceeds {tolerance:e}"));
    }
    for n in [1_000usize, 5_000] {
        let g = graph::CsrGraph::random(n, n * 8, 11 ^ seed);
        let levels = graph::bfs_seq(&g, 0);
        r = r
            .measured(&format!("E3/bfs/sequential/{n}"), ms(|| graph::bfs_seq(&g, 0)))
            .measured(&format!("E3/bfs/pyjama/{n}"), ms(|| graph::bfs_par(team, &g, 0)))
            .det(
                &format!("E3/bfs/{n}/levels_hash"),
                hex(hash_all(levels.iter().map(|&l| u64::from(l)))),
            )
            .check(
                graph::bfs_par(team, &g, 0) == levels,
                format!("parallel BFS over {n} vertices disagrees"),
            );
    }
    engines.shutdown();
    r
}

fn folder_search(seed: u64, pool: usize) -> Report {
    let engines = Engines::with_workers(pool);
    let rt = &engines.rt;
    let mut r = Report::new();
    let cfg = CorpusConfig { seed: CorpusConfig::default().seed ^ seed, ..CorpusConfig::default() };
    let (tree, _) = generate_tree(&cfg);
    let regex = |pattern| Query::regex(Regex::new(pattern).expect("valid pattern"));
    let literal = Query::literal(&cfg.needle);
    for (kind, query) in [
        ("literal", literal.clone()),
        ("literal-ci", Query::literal_ci(&cfg.needle)),
        ("regex-alt", regex("concurrency (bug|task)")),
        ("regex-class", regex(r"\w+ncy b\w+")),
    ] {
        let found = search_folder(rt, &tree, &query, None, None).matches.len();
        r = r
            .measured(
                &format!("E4/query-kind/{kind}"),
                ms(|| search_folder(rt, &tree, &query, None, None)),
            )
            .det(&format!("E4/query-kind/{kind}/matches"), found);
    }
    for workers in [1usize, 2, 4] {
        let t = with_workers(workers, |rt| ms(|| search_folder(rt, &tree, &literal, None, None)));
        r = r.measured(&format!("E4/workers/{workers}"), t);
    }

    // The live search: hits stream to the EDT as they are found; then a
    // regex query and a search cancelled before it starts.
    let cfg = CorpusConfig { files_per_dir: 10, lines_per_file: 60, needle_rate: 0.01, ..cfg };
    let (tree, planted) = generate_tree(&cfg);
    r = r.det("live/files", tree.file_count()).det("live/planted", planted);
    let shown = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = interim_channel::<Match>();
    let counter = Arc::clone(&shown);
    rx.forward_to_gui(&engines.gui.handle(), move |_| {
        counter.fetch_add(1, Ordering::Relaxed);
    });
    let found = search_folder(rt, &tree, &Query::literal(&cfg.needle), Some(&tx), None);
    engines.gui.handle().drain();
    let streamed = shown.load(Ordering::Relaxed);
    let regex_found = search_folder(rt, &tree, &regex("parallel (task|core)"), None, None);
    let cancel = CancelToken::new();
    cancel.cancel();
    let cancelled = search_folder(rt, &tree, &Query::literal("x"), None, Some(&cancel));
    r = r
        .det("live/literal_matches", found.matches.len())
        .det("live/streamed", streamed)
        .det("live/regex_matches", regex_found.matches.len())
        .det("live/cancelled_matches", cancelled.matches.len())
        .check(
            found.matches.len() == planted && streamed == planted,
            format!(
                "live search: {planted} planted, {} found, {streamed} streamed",
                found.matches.len()
            ),
        )
        .check(
            cancelled.cancelled && cancelled.matches.is_empty(),
            "a cancelled search still matched",
        );

    // The inverted-index extension: build in parallel, then query.
    let cfg = CorpusConfig { files_per_dir: 12, lines_per_file: 80, needle_rate: 0.02, ..cfg };
    let (tree, _) = generate_tree(&cfg);
    let index = InvertedIndex::build_par(rt, &tree);
    r = r
        .measured("index/build_ms", ms(|| InvertedIndex::build_par(rt, &tree)))
        .det("index/files", index.files.len())
        .det("index/tokens", index.vocabulary_size())
        .det("index/parallel+task/files", index.query_and(&["parallel", "task"]).len());
    for term in ["parallel", "task", "water"] {
        r = r.det(&format!("index/{term}/postings"), index.lookup(term).len());
    }
    engines.shutdown();
    r
}

fn reductions(_seed: u64, pool: usize) -> Report {
    let team = Team::new(pool);
    let n = 20_000usize;
    // The naive phrasing: every update inside a critical section.
    let critical = || {
        let total = Mutex::new(0u64);
        team.parallel(|ctx| {
            ctx.pfor(0..n, Schedule::Static, |i| {
                ctx.critical("sum", || *total.lock().expect("no update panics") += i as u64);
            });
        });
        total.into_inner().expect("no update panics")
    };
    // The intermediate student solution: a local sum over the thread's
    // static share, then one critical section per thread.
    let per_thread = || {
        let total = Mutex::new(0u64);
        team.parallel(|ctx| {
            let (t, k) = (ctx.thread_num(), ctx.num_threads());
            let local: u64 = ((n * t / k)..(n * (t + 1) / k)).map(|i| i as u64).sum();
            ctx.critical("sum2", || *total.lock().expect("no update panics") += local);
            ctx.barrier();
        });
        total.into_inner().expect("no update panics")
    };
    // The object-oriented reductions over 10,000 iterations.
    let concat = || -> Vec<u32> {
        team.par_reduce(0..10_000, Schedule::Static, &VecConcat::new(), |i| vec![i as u32])
    };
    let union = || -> HashSet<u64> {
        team.par_reduce(0..10_000, Schedule::Dynamic(128), &SetUnion::new(), |i| {
            HashSet::from([(i % 512) as u64])
        })
    };
    let merge = MapMerge::new(|a: u64, b: u64| a + b);
    let counts = || -> HashMap<u64, u64> {
        team.par_reduce(0..10_000, Schedule::Dynamic(128), &merge, |i| {
            HashMap::from([((i % 64) as u64, 1)])
        })
    };
    let sum = team.par_reduce(0..n, Schedule::Static, &SumRed, |i| i as u64);
    let top = TopK::new(16);
    let r = Report::new()
        .measured(
            "E5/sum-vs-critical/reduction-clause",
            ms(|| team.par_reduce(0..n, Schedule::Static, &SumRed, |i| i as u64)),
        )
        .measured("E5/sum-vs-critical/critical-section", ms(critical))
        .measured("E5/sum-vs-critical/per-thread-then-critical", ms(per_thread))
        .measured("E5/oo-reductions/vec-concat", ms(concat))
        .measured("E5/oo-reductions/set-union", ms(union))
        .measured("E5/oo-reductions/map-merge", ms(counts))
        .measured(
            "E5/oo-reductions/top-16",
            ms(|| {
                team.par_reduce(0..10_000, Schedule::Static, &top, |i| {
                    vec![(i as u64).wrapping_mul(0x9E37_79B9) % 100_000]
                })
            }),
        );
    let (critical, per_thread) = (critical(), per_thread());
    let (keys, counted) = (union().len(), counts().values().sum::<u64>());
    r.det("E5/sum", sum)
        .check(sum == (n as u64 - 1) * n as u64 / 2, format!("scalar sum {sum}"))
        .check(
            critical == sum && per_thread == sum,
            format!("critical-section sums {critical} and {per_thread} != reduction {sum}"),
        )
        .check(concat() == (0..10_000).collect::<Vec<_>>(), "vec-concat lost the loop order")
        .check(keys == 512, format!("set-union kept {keys} of 512 keys"))
        .check(counted == 10_000, format!("map-merge counted {counted} of 10000"))
}

fn task_aware(_seed: u64, _pool: usize) -> Report {
    // A consumer blocks on an empty queue, or an unset cell, on a
    // 1-worker pool: the task-aware wait must run the queued producer
    // instead of deadlocking.
    let pop_wait = || {
        with_workers(1, |rt| {
            let h = rt.handle();
            let q: Arc<TaskAwareQueue<u32>> = Arc::new(TaskAwareQueue::new());
            let producer_q = Arc::clone(&q);
            rt.spawn(move || {
                let _producer = h.spawn(move || producer_q.push(1));
                q.pop_wait(&h)
            })
            .join()
            .unwrap_or(0)
        })
    };
    let get_wait = with_workers(1, |rt| {
        let h = rt.handle();
        let cell = Arc::new(TaskCell::new());
        let producer_cell = Arc::clone(&cell);
        rt.spawn(move || {
            let _producer = h.spawn(move || producer_cell.set(2014u32));
            cell.get_wait(&h)
        })
        .join()
        .unwrap_or(0)
    });
    let q = TaskAwareQueue::new();
    let churn = || {
        (0..100u32).for_each(|i| q.push(i));
        std::iter::from_fn(|| q.try_pop()).sum::<u32>()
    };
    let popped = pop_wait();
    Report::new()
        .measured("E6/task-aware/pop_wait-helping", ms(pop_wait))
        .measured("E6/task-aware/uncontended-push-pop", ms(churn))
        .det("E6/pop_wait", popped)
        .check(popped == 1, format!("pop_wait on a 1-worker pool returned {popped}"))
        .check(get_wait == 2014, format!("get_wait on a 1-worker pool returned {get_wait}"))
}

fn paged_search(seed: u64, pool: usize) -> Report {
    let engines = Engines::with_workers(pool);
    let mut r = Report::new();
    let corpus = |docs, pages, lines, needle_rate| {
        let base = CorpusConfig::default();
        let cfg = CorpusConfig { needle_rate, seed: base.seed ^ seed, ..base };
        let (documents, planted) = generate_documents(docs, pages, lines, &cfg);
        (Arc::new(documents), planted, Query::literal(&cfg.needle))
    };
    let (docs, _, query) = corpus(20, 8, 12, 0.01);
    for g in [
        Granularity::PerDocument,
        Granularity::PerChunk(4),
        Granularity::PerChunk(2),
        Granularity::PerPage,
    ] {
        let t = ms(|| search_documents(&engines.rt, &docs, &query, g, None));
        r = r.measured(&format!("E7/granularity/{}", g.label()), t);
    }
    engines.shutdown();
    for workers in [1usize, 2, 4] {
        let t = with_workers(workers, |rt| {
            ms(|| search_documents(rt, &docs, &query, Granularity::PerPage, None))
        });
        r = r.measured(&format!("E7/workers-per-page/{workers}"), t);
    }

    // Granularity x workers over a larger corpus: every pairing must
    // find every planted match.
    let (docs, planted, query) = corpus(60, 12, 24, 0.015);
    r = r.det("grid/planted", planted);
    for workers in [1usize, 2, 4] {
        r = with_workers(workers, |rt| {
            let mut r = r;
            for g in [Granularity::PerDocument, Granularity::PerChunk(4), Granularity::PerPage] {
                let sw = Stopwatch::start();
                let found = search_documents(rt, &docs, &query, g, None);
                let key = format!("grid/{}/{workers}", g.label());
                r = r
                    .measured(&format!("{key}/ms"), sw.elapsed_ms())
                    .det(&format!("{key}/tasks"), found.tasks_spawned)
                    .check(
                        found.total_matches == planted,
                        format!("{key}: {} of {planted} matches", found.total_matches),
                    );
            }
            r
        });
    }
    r
}

fn memory_model(_seed: u64, _pool: usize) -> Report {
    let (relaxed, seqcst, mutex) = (AtomicU64::new(0), AtomicU64::new(0), Mutex::new(0u64));
    let plain = || (0..10_000).fold(0u64, |x, _| black_box(x + 1));
    let mut r = Report::new()
        .measured("E8/increment-cost/plain", ms(plain))
        .measured(
            "E8/increment-cost/atomic-relaxed",
            ms(|| {
                (0..10_000).for_each(|_| {
                    relaxed.fetch_add(1, Ordering::Relaxed);
                })
            }),
        )
        .measured(
            "E8/increment-cost/atomic-seqcst",
            ms(|| {
                (0..10_000).for_each(|_| {
                    seqcst.fetch_add(1, Ordering::SeqCst);
                })
            }),
        )
        .measured(
            "E8/increment-cost/mutex",
            ms(|| (0..10_000).for_each(|_| *mutex.lock().expect("no increment panics") += 1)),
        )
        .measured("E8/store-buffer-round/relaxed", ms(|| demos::store_buffer(8, Ordering::Relaxed)))
        .measured("E8/store-buffer-round/seqcst", ms(|| demos::store_buffer(8, Ordering::SeqCst)));
    for fix in [FixStrategy::AtomicRmw, FixStrategy::SeqCst, FixStrategy::Mutex] {
        let t = ms(|| demos::lost_update_fixed(4, 3_000, fix));
        r = r.measured(&format!("E8/contended-counter/{fix:?}"), t);
    }

    // The demonstrations: a racy run may lose updates or read stale
    // values, a fixed run never does. The racy counter must lose some.
    let lost_update = demos::lost_update(4, 50_000, true);
    r = r.check(lost_update.race_observed(), "the racy counter lost no update");
    for (name, demo) in [
        ("lost-update", lost_update),
        ("message-passing", demos::message_passing(500, false)),
        ("store-buffer", demos::store_buffer(1000, Ordering::Relaxed)),
        ("lazy-init", demos::lazy_init(100, 4, false)),
    ] {
        r = r
            .det(&format!("demo/racy/{name}/expected"), demo.expected)
            .measured(&format!("demo/racy/{name}/observed"), demo.observed)
            .measured(&format!("demo/racy/{name}/anomalies"), demo.anomalies);
    }
    for (name, demo) in [
        ("lost-update/AtomicRmw", demos::lost_update_fixed(4, 50_000, FixStrategy::AtomicRmw)),
        ("lost-update/Mutex", demos::lost_update_fixed(4, 50_000, FixStrategy::Mutex)),
        ("lost-update/SeqCst", demos::lost_update_fixed(4, 50_000, FixStrategy::SeqCst)),
        ("message-passing", demos::message_passing(500, true)),
        ("store-buffer", demos::store_buffer(1000, Ordering::SeqCst)),
        ("lazy-init", demos::lazy_init(100, 4, true)),
    ] {
        r = r
            .det(&format!("demo/fixed/{name}/expected"), demo.expected)
            .det(&format!("demo/fixed/{name}/anomalies"), demo.anomalies)
            .check(demo.anomalies == 0, format!("fixed {name}: {} anomalies", demo.anomalies));
    }

    // What each fix costs, single-threaded.
    r = r.measured("cost/plain_ns_per_op", plain_increment_cost_ns(2_000_000));
    for fix in cost_strategies() {
        r = r.measured(&format!("cost/{fix:?}_ns_per_op"), increment_cost_ns(fix, 2_000_000));
    }

    // The project's deliverable: the write-up, with freshly executed
    // evidence.
    let mut writeup = String::from(
        "# Understanding and coping with the memory model\n\n\
         Every evidence line below was executed by this run.\n\n",
    );
    for topic in build_report() {
        writeup.push_str(&topic.render());
        writeup.push('\n');
    }
    writeup.push_str(&cost_appendix());
    r.file("projects.memory_model.md", writeup)
}

fn collections(_seed: u64, _pool: usize) -> Report {
    let mut r = Report::new();
    // Four threads add 5,000 each to a fresh counter.
    fn hammer(counter: impl SharedCounter) -> u64 {
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| (0..5_000).for_each(|_| counter.add(1)));
            }
        });
        counter.value()
    }
    let counters: [Series<u64>; 3] = [
        ("mutex", || hammer(MutexCounter::new())),
        ("atomic", || hammer(AtomicCounter::new())),
        ("sharded", || hammer(ShardedCounter::new(8))),
    ];
    for (name, run) in counters {
        let total = run();
        r = r
            .measured(&format!("E9/counter-4-threads/{name}"), ms(run))
            .det(&format!("E9/counter-4-threads/{name}/total"), total)
            .check(total == 20_000, format!("{name} counter reached {total} of 20000"));
    }
    let queues: [Series<WorkloadResult>; 3] = [
        ("mutex", || run_queue_workload(&Arc::new(MutexQueue::new()), 2, 1_500)),
        ("two-lock", || run_queue_workload(&Arc::new(TwoLockQueue::new()), 2, 1_500)),
        ("library", || run_queue_workload(&Arc::new(LibraryQueue::new()), 2, 1_500)),
    ];
    for (name, run) in queues {
        r = r.measured(&format!("E9/queue-2p2c/{name}"), ms(run));
    }
    for (label, read_fraction) in [("read-90", 0.9), ("read-50", 0.5)] {
        let cfg = MapWorkload {
            threads: 4,
            ops_per_thread: 3_000,
            read_fraction,
            ..MapWorkload::default()
        };
        r = r
            .measured(
                &format!("E9/map/mutex/{label}"),
                ms(|| run_map_workload(&Arc::new(MutexMap::new()), &cfg)),
            )
            .measured(
                &format!("E9/map/rwlock/{label}"),
                ms(|| run_map_workload(&Arc::new(RwLockMap::new()), &cfg)),
            )
            .measured(
                &format!("E9/map/sharded/{label}"),
                ms(|| run_map_workload(&Arc::new(ShardedMap::new(16)), &cfg)),
            );
    }
    // Single-threaded structure overhead: push 1000, pop until empty.
    fn churn(s: &dyn ConcurrentStack<u64>) {
        (0..1000).for_each(|i| s.push(i));
        while s.pop().is_some() {}
    }
    let (mutex, spin, treiber) =
        (MutexStack::<u64>::new(), SpinStack::<u64>::new(), TreiberStack::<u64>::new());
    r = r
        .measured("E9/stack-ops/mutex", ms(|| churn(&mutex)))
        .measured("E9/stack-ops/spin", ms(|| churn(&spin)))
        .measured("E9/stack-ops/treiber", ms(|| churn(&treiber)));
    // Sorted sets: coarse lock vs hand-over-hand lock coupling.
    let drive = |set: Arc<dyn ConcurrentSet<u64>>| {
        thread::scope(|s| {
            for t in 0..2u64 {
                let set = &set;
                s.spawn(move || {
                    for i in 0..600u64 {
                        let key = (i * 7 + t) % 512;
                        if i % 3 == 0 {
                            set.remove(&key);
                        } else {
                            set.insert(key);
                        }
                        set.contains(&key);
                    }
                });
            }
        });
        set.len()
    };
    r.measured("E9/set-mixed-ops/coarse", ms(|| drive(Arc::new(CoarseSet::<u64>::new()))))
        .measured("E9/set-mixed-ops/lock-coupling", ms(|| drive(Arc::new(FineSet::<u64>::new()))))
}

fn web(seed: u64, _pool: usize) -> Report {
    let server = |pages, time_scale| {
        let base = ServerConfig::default();
        Arc::new(SimServer::new(ServerConfig { pages, time_scale, seed: base.seed ^ seed, ..base }))
    };
    // Connections sleep rather than compute: one worker per connection.
    let r = with_workers(48, |rt| {
        let server = server(40, 2e-6);
        [1usize, 2, 4, 8, 16, 24, 32, 48].into_iter().fold(Report::new(), |r, k| {
            r.measured(&format!("E10/connections/{k}"), ms(|| fetch_all(rt, &server, k)))
        })
    });
    with_workers(64, |rt| {
        let mut r = r;
        // The download curve at 10 µs of wall time per simulated ms,
        // next to the analytic model's prediction.
        let server = server(200, 1e-5);
        let mut best = (0, f64::INFINITY);
        for k in [1usize, 2, 4, 8, 16, 24, 32, 48, 64] {
            let fetched = fetch_all(rt, &server, k);
            let wall_ms = fetched.elapsed.as_secs_f64() * 1e3;
            if wall_ms < best.1 {
                best = (k, wall_ms);
            }
            r = r
                .measured(&format!("curve/{k}/ms"), wall_ms)
                .measured(&format!("curve/{k}/kb_per_s"), fetched.kb_per_sec())
                .model(&format!("curve/{k}/sim_ms"), predict_fetch_sim_ms(&server, k))
                .check(
                    fetched.pages == 200,
                    format!("{k} connections fetched {} of 200 pages", fetched.pages),
                );
        }
        let speedup = r.number("curve/1/ms") / r.number("curve/16/ms");
        r = r
            .measured("curve/best_connections", best.0)
            .check(speedup > 2.0, format!("16 connections only {speedup:.2}x faster than 1"));

        // The fault-tolerant crawler on a flaky server: every count is a
        // function of (seed, page, attempt), whatever the interleaving.
        for chaos_seed in [0xC4A0_17E5u64, 0xDEAD_BEEF, 42] {
            let crawl = fault_tolerant_crawl(rt, chaos_seed ^ seed, 8);
            let key = format!("crawl/{:#x}", chaos_seed ^ seed);
            r = r
                .det(&format!("{key}/pages_ok"), crawl.succeeded)
                .det(&format!("{key}/failed"), crawl.failed_pages.len())
                .det(&format!("{key}/attempts"), crawl.attempts_total)
                .det(&format!("{key}/retries"), crawl.retries)
                .det(&format!("{key}/transient"), crawl.transient_errors)
                .det(&format!("{key}/timeouts"), crawl.timeouts)
                .det(&format!("{key}/panics"), crawl.panics)
                .check(
                    crawl.fully_succeeded() && crawl.retries > 0,
                    format!(
                        "{key}: recovered {} pages, failed {:?}, with {} retries",
                        crawl.succeeded, crawl.failed_pages, crawl.retries
                    ),
                );
        }
        r
    })
}

/// E10's fault-tolerant crawler: download 80 pages over `connections`
/// connections from a server that injects transient errors, timeouts
/// and panics seeded by `seed`, retrying each page under exponential
/// backoff. Every count is a function of the seed, whatever the
/// interleaving.
fn fault_tolerant_crawl(rt: &TaskRuntime, seed: u64, connections: usize) -> FetchOutcome {
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

fn fib(h: &RuntimeHandle, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let h2 = h.clone();
    let left = h.spawn(move || fib(&h2, n - 1));
    fib(h, n - 2) + left.join().unwrap_or(0)
}

fn runtime(_seed: u64, _pool: usize) -> Report {
    let mut r = Report::new();
    for (label, kind) in
        [("stealing", SchedulerKind::WorkStealing), ("sharing", SchedulerKind::WorkSharing)]
    {
        let rt = TaskRuntime::builder().workers(2).scheduler(kind).build();
        let storm = || {
            let handles: Vec<_> = (0..1000).map(|i| rt.spawn(move || i)).collect();
            handles.into_iter().map(|h| h.join().unwrap_or(0)).sum::<i32>()
        };
        r = r
            .measured(&format!("A1/spawn-join/{label}"), ms(|| rt.spawn(|| 1u64).join()))
            .measured(&format!("A1/task-storm-1000/{label}"), ms(storm));
        rt.shutdown();
    }
    with_workers(2, |rt| {
        let mut r = r;
        let chain = || {
            let mut last = rt.spawn(|| 0u64);
            for _ in 0..8 {
                last = rt.spawn_after(&[last.watcher()], || 1u64);
            }
            last.join()
        };
        r = r
            .measured("A1/dependences/free-task", ms(|| rt.spawn(|| 1u64).join()))
            .measured(
                "A1/dependences/after-one",
                ms(|| {
                    let a = rt.spawn(|| 1u64);
                    let b = rt.spawn_after(&[a.watcher()], || 2u64);
                    (a.join(), b.join())
                }),
            )
            .measured("A1/dependences/after-chain-8", ms(chain));
        for n in [8usize, 64] {
            let spawns = || (0..n).map(|i| rt.spawn(move || i as u64)).collect::<Vec<_>>();
            r = r
                .measured(
                    &format!("A1/multi-vs-spawns/multi-task/{n}"),
                    ms(|| rt.spawn_multi(n, |i| i as u64).join_reduce(0, |a, v| a + v)),
                )
                .measured(
                    &format!("A1/multi-vs-spawns/n-spawns/{n}"),
                    ms(|| spawns().into_iter().map(|h| h.join().unwrap_or(0)).sum::<u64>()),
                );
        }
        let h = rt.handle();
        let value = fib(&h, 12);
        r.measured("A1/nested-forkjoin/fib-12", ms(|| fib(&h, 12)))
            .det("A1/fib-12", value)
            .check(value == 144, format!("nested fork/join computed fib(12) = {value}"))
    })
}

fn schedules(seed: u64, pool: usize) -> Report {
    let team = Team::new(pool);
    let data: Vec<f64> = (0..100_000u32).map(f64::from).collect();
    // Skewed loop: iteration i costs i steps (triangular work).
    let skewed = |schedule| {
        team.par_reduce(0..1_200usize, schedule, &SumRed, |i| {
            let mut acc = 0u64;
            for k in 0..i {
                acc = acc.wrapping_add(k as u64);
            }
            acc
        })
    };
    let a = CsrMatrix::random_skewed(2_000, 1_000, 6, 6.0, 0xA2 ^ seed);
    let x: Vec<f64> = (0..1_000u32).map(|i| (f64::from(i) * 0.01).sin()).collect();
    let (sum, y) = (skewed(Schedule::Static), spmv_seq(&a, &x));
    let mut r = Report::new()
        .det("A2/skewed-loop/sum", sum)
        .det("A2/spmv-skewed/hash", hex(hash_all(y.iter().map(|v| v.to_bits()))))
        .measured("A2/spmv-skewed/sequential", ms(|| spmv_seq(&a, &x)));
    for (label, schedule) in SCHEDULES {
        r = r
            .measured(
                &format!("A2/uniform-loop/{label}"),
                ms(|| team.par_reduce(0..data.len(), schedule, &SumRed, |i| data[i].sqrt())),
            )
            .measured(&format!("A2/skewed-loop/{label}"), ms(|| skewed(schedule)))
            .measured(&format!("A2/spmv-skewed/{label}"), ms(|| spmv_par(&team, &a, &x, schedule)))
            .check(skewed(schedule) == sum, format!("{label}: skewed-loop sum differs"))
            .check(
                spmv_par(&team, &a, &x, schedule) == y,
                format!("{label}: SpMV differs from sequential"),
            );
    }
    r
}
