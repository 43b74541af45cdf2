//! Graph processing: CSR graphs, BFS and PageRank.
//!
//! The "graph processing" kernel family of project 3. Graphs are
//! stored in compressed-sparse-row form; synthetic generators provide
//! deterministic workloads (uniform random, ring lattice, 2-D grid).

use pyjama::{Schedule, SumRed, Team};

/// A directed graph in CSR (compressed sparse row) form.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl CsrGraph {
    /// Build from an edge list over `n` vertices. Parallel edges are
    /// kept; self-loops allowed.
    #[must_use]
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0usize; n];
        for &(u, _) in edges {
            degree[u as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        for &(u, v) in edges {
            targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
        }
        Self { offsets, targets }
    }

    /// Uniform random digraph: `n` vertices, `m` edges, deterministic
    /// per seed.
    #[must_use]
    pub fn random(n: usize, m: usize, seed: u64) -> Self {
        let mut rng = parc_util::rng::Xoshiro256::seed_from_u64(seed);
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| {
                (
                    rng.next_below(n as u64) as u32,
                    rng.next_below(n as u64) as u32,
                )
            })
            .collect();
        Self::from_edges(n, &edges)
    }

    /// Bidirectional ring over `n` vertices.
    #[must_use]
    pub fn ring(n: usize) -> Self {
        let mut edges = Vec::with_capacity(2 * n);
        for i in 0..n as u32 {
            let next = (i + 1) % n as u32;
            edges.push((i, next));
            edges.push((next, i));
        }
        Self::from_edges(n, &edges)
    }

    /// 4-connected `w × h` grid (undirected: both edge directions).
    #[must_use]
    pub fn grid(w: usize, h: usize) -> Self {
        let idx = |x: usize, y: usize| (y * w + x) as u32;
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((idx(x, y), idx(x + 1, y)));
                    edges.push((idx(x + 1, y), idx(x, y)));
                }
                if y + 1 < h {
                    edges.push((idx(x, y), idx(x, y + 1)));
                    edges.push((idx(x, y + 1), idx(x, y)));
                }
            }
        }
        Self::from_edges(w * h, &edges)
    }

    /// Vertex count.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Edge count.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbours of vertex `u`.
    #[must_use]
    pub fn neighbours(&self, u: usize) -> &[u32] {
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Out-degree of vertex `u`.
    #[must_use]
    pub fn degree(&self, u: usize) -> usize {
        self.offsets[u + 1] - self.offsets[u]
    }
}

/// Sequential BFS from `source`; returns per-vertex level
/// (`u32::MAX` = unreachable).
#[must_use]
pub fn bfs_seq(g: &CsrGraph, source: usize) -> Vec<u32> {
    let n = g.num_vertices();
    let mut level = vec![u32::MAX; n];
    level[source] = 0;
    let mut frontier = vec![source as u32];
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in g.neighbours(u as usize) {
                if level[v as usize] == u32::MAX {
                    level[v as usize] = depth;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    level
}

/// Level-synchronous parallel BFS: each frontier is expanded by a
/// pyjama worksharing loop; discovery uses atomic CAS on the level
/// array so each vertex joins exactly one next-frontier.
#[must_use]
pub fn bfs_par(team: &Team, g: &CsrGraph, source: usize) -> Vec<u32> {
    use std::sync::atomic::{AtomicU32, Ordering};
    let n = g.num_vertices();
    let level: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    level[source].store(0, Ordering::Relaxed);
    let mut frontier = vec![source as u32];
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        let frontier_ref = &frontier;
        let level_ref = &level;
        let next = team.par_reduce(
            0..frontier.len(),
            Schedule::Dynamic(64),
            &pyjama::VecConcat::new(),
            move |fi| {
                let u = frontier_ref[fi] as usize;
                let mut found = Vec::new();
                for &v in g.neighbours(u) {
                    if level_ref[v as usize]
                        .compare_exchange(u32::MAX, depth, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        found.push(v);
                    }
                }
                found
            },
        );
        frontier = next;
    }
    level.into_iter().map(AtomicU32::into_inner).collect()
}

/// Sequential PageRank with damping `d`; returns ranks summing ~1.
/// Dangling-vertex mass is redistributed uniformly.
#[must_use]
pub fn pagerank_seq(g: &CsrGraph, d: f64, iters: usize) -> Vec<f64> {
    let n = g.num_vertices();
    assert!(n > 0);
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0; n];
    for _ in 0..iters {
        let dangling: f64 = (0..n).filter(|&u| g.degree(u) == 0).map(|u| rank[u]).sum();
        let base = (1.0 - d) / n as f64 + d * dangling / n as f64;
        next.iter_mut().for_each(|x| *x = base);
        for (u, r) in rank.iter().enumerate() {
            let deg = g.degree(u);
            if deg > 0 {
                let share = d * r / deg as f64;
                for &v in g.neighbours(u) {
                    next[v as usize] += share;
                }
            }
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// Parallel PageRank in pull form: each vertex gathers from its
/// in-neighbours, so the update loop is write-disjoint and workshares
/// cleanly. Requires the transpose graph (in-edges), which the
/// function builds once.
#[must_use]
pub fn pagerank_par(team: &Team, g: &CsrGraph, d: f64, iters: usize) -> Vec<f64> {
    let n = g.num_vertices();
    assert!(n > 0);
    // Transpose: in-edges of each vertex.
    let mut edges_t = Vec::with_capacity(g.num_edges());
    for u in 0..n {
        for &v in g.neighbours(u) {
            edges_t.push((v, u as u32));
        }
    }
    let gt = CsrGraph::from_edges(n, &edges_t);
    let out_degree: Vec<usize> = (0..n).map(|u| g.degree(u)).collect();
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0; n];
    for _ in 0..iters {
        let rank_ref = &rank;
        let deg_ref = &out_degree;
        let dangling = team.par_reduce(0..n, Schedule::Static, &SumRed, move |u| {
            if deg_ref[u] == 0 {
                rank_ref[u]
            } else {
                0.0
            }
        });
        let base = (1.0 - d) / n as f64 + d * dangling / n as f64;
        struct OutPtr(*mut f64);
        unsafe impl Sync for OutPtr {}
        let out = OutPtr(next.as_mut_ptr());
        let out_ref = &out;
        let gt_ref = &gt;
        team.for_each(0..n, Schedule::Dynamic(128), move |v| {
            let mut acc = base;
            for &u in gt_ref.neighbours(v) {
                acc += d * rank_ref[u as usize] / deg_ref[u as usize] as f64;
            }
            // SAFETY: each v written by exactly one thread.
            unsafe {
                *out_ref.0.add(v) = acc;
            }
        });
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// Sequential connected components on the *undirected closure* of the
/// graph (edges treated as bidirectional): label propagation until a
/// fixpoint; returns per-vertex component label = smallest vertex id
/// in the component.
#[must_use]
pub fn components_seq(g: &CsrGraph) -> Vec<u32> {
    let n = g.num_vertices();
    let mut label: Vec<u32> = (0..n as u32).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for u in 0..n {
            for &v in g.neighbours(u) {
                let (lu, lv) = (label[u], label[v as usize]);
                if lu < lv {
                    label[v as usize] = lu;
                    changed = true;
                } else if lv < lu {
                    label[u] = lv;
                    changed = true;
                }
            }
        }
    }
    label
}

/// Parallel label propagation with pyjama: each sweep workshares the
/// vertex loop, propagating labels through atomic min-updates; sweeps
/// repeat until none changes. Produces the same labels as
/// [`components_seq`] (the fixpoint is unique).
#[must_use]
pub fn components_par(team: &Team, g: &CsrGraph) -> Vec<u32> {
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    let n = g.num_vertices();
    let label: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let changed = AtomicBool::new(true);
    while changed.swap(false, Ordering::AcqRel) {
        let label_ref = &label;
        let changed_ref = &changed;
        team.for_each(0..n, Schedule::Dynamic(256), move |u| {
            for &v in g.neighbours(u) {
                let v = v as usize;
                let lu = label_ref[u].load(Ordering::Relaxed);
                let lv = label_ref[v].load(Ordering::Relaxed);
                if lu < lv {
                    if label_ref[v].fetch_min(lu, Ordering::Relaxed) > lu {
                        changed_ref.store(true, Ordering::Relaxed);
                    }
                } else if lv < lu && label_ref[u].fetch_min(lv, Ordering::Relaxed) > lv {
                    changed_ref.store(true, Ordering::Relaxed);
                }
            }
        });
    }
    label
        .into_iter()
        .map(std::sync::atomic::AtomicU32::into_inner)
        .collect()
}

/// Number of distinct components given a label vector.
#[must_use]
pub fn component_count(labels: &[u32]) -> usize {
    let mut distinct: Vec<u32> = labels.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    distinct.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_structure_from_edges() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (2, 3), (3, 0)]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbours(0), &[1, 2]);
        assert_eq!(g.neighbours(1), &[] as &[u32]);
        assert_eq!(g.neighbours(2), &[3]);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn ring_levels_are_distances() {
        let g = CsrGraph::ring(10);
        let levels = bfs_seq(&g, 0);
        assert_eq!(levels[0], 0);
        assert_eq!(levels[1], 1);
        assert_eq!(levels[9], 1);
        assert_eq!(levels[5], 5);
        assert_eq!(levels[4], 4);
        assert_eq!(levels[6], 4);
    }

    #[test]
    fn grid_bfs_is_manhattan_distance() {
        let g = CsrGraph::grid(5, 4);
        let levels = bfs_seq(&g, 0);
        for y in 0..4 {
            for x in 0..5 {
                assert_eq!(levels[y * 5 + x] as usize, x + y);
            }
        }
    }

    #[test]
    fn unreachable_vertices_marked() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        let levels = bfs_seq(&g, 0);
        assert_eq!(levels, vec![0, 1, u32::MAX]);
    }

    #[test]
    fn parallel_bfs_matches_sequential() {
        let team = Team::new(3);
        for (name, g) in [
            ("random", CsrGraph::random(500, 2000, 3)),
            ("ring", CsrGraph::ring(101)),
            ("grid", CsrGraph::grid(17, 13)),
        ] {
            let seq = bfs_seq(&g, 0);
            let par = bfs_par(&team, &g, 0);
            assert_eq!(seq, par, "graph {name}");
        }
    }

    #[test]
    fn pagerank_sums_to_one() {
        let g = CsrGraph::random(200, 800, 4);
        let ranks = pagerank_seq(&g, 0.85, 30);
        let total: f64 = ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
        assert!(ranks.iter().all(|&r| r > 0.0));
    }

    #[test]
    fn pagerank_ring_is_uniform() {
        let g = CsrGraph::ring(20);
        let ranks = pagerank_seq(&g, 0.85, 50);
        for &r in &ranks {
            assert!((r - 1.0 / 20.0).abs() < 1e-9);
        }
    }

    #[test]
    fn pagerank_sink_hub_ranks_highest() {
        // Star: every vertex points at 0.
        let edges: Vec<(u32, u32)> = (1..10u32).map(|u| (u, 0)).collect();
        let g = CsrGraph::from_edges(10, &edges);
        let ranks = pagerank_seq(&g, 0.85, 60);
        let hub = ranks[0];
        for &r in &ranks[1..] {
            assert!(hub > 2.0 * r, "hub {hub} vs spoke {r}");
        }
    }

    #[test]
    fn parallel_pagerank_matches_sequential() {
        let team = Team::new(3);
        let g = CsrGraph::random(300, 1500, 5);
        let seq = pagerank_seq(&g, 0.85, 25);
        let par = pagerank_par(&team, &g, 0.85, 25);
        for (a, b) in seq.iter().zip(&par) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn pagerank_handles_dangling_vertices() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2)]); // 2 and 3 dangle
        let ranks = pagerank_seq(&g, 0.85, 50);
        let total: f64 = ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn components_on_disjoint_rings() {
        // Two rings of 5, plus two isolated vertices.
        let mut edges = Vec::new();
        for i in 0..5u32 {
            edges.push((i, (i + 1) % 5));
            edges.push(((i + 1) % 5, i));
            edges.push((5 + i, 5 + (i + 1) % 5));
            edges.push((5 + (i + 1) % 5, 5 + i));
        }
        let g = CsrGraph::from_edges(12, &edges);
        let labels = components_seq(&g);
        assert_eq!(component_count(&labels), 4);
        assert!(labels[0..5].iter().all(|&l| l == 0));
        assert!(labels[5..10].iter().all(|&l| l == 5));
        assert_eq!(labels[10], 10);
        assert_eq!(labels[11], 11);
    }

    #[test]
    fn parallel_components_match_sequential() {
        let team = Team::new(3);
        for (name, g) in [
            ("random-sparse", CsrGraph::random(300, 200, 7)),
            ("random-dense", CsrGraph::random(200, 2000, 8)),
            ("grid", CsrGraph::grid(12, 9)),
        ] {
            let seq = components_seq(&g);
            let par = components_par(&team, &g);
            assert_eq!(seq, par, "graph {name}");
        }
    }

    #[test]
    fn connected_graph_has_one_component() {
        let team = Team::new(2);
        let g = CsrGraph::ring(50);
        let labels = components_par(&team, &g);
        assert_eq!(component_count(&labels), 1);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn random_graph_deterministic() {
        let a = CsrGraph::random(100, 400, 9);
        let b = CsrGraph::random(100, 400, 9);
        assert_eq!(a.targets, b.targets);
        assert_eq!(a.offsets, b.offsets);
    }
}
