//! Critical-path analysis over the reconstructed task graph.
//!
//! The analysis runs twice over the same DAG with two weight
//! functions:
//!
//! * **logical** weights (`Node::logical`) are seed-determined, so
//!   the longest path, its total, and per-node slack are bit-identical
//!   across reruns and pool sizes — they feed the determinism gates
//!   and [`CriticalReport::deterministic_json`].
//! * **wall** weights (`Node::wall_ns`) are the human truth — where
//!   the nanoseconds actually went — and vary run to run. They feed
//!   the rendered report and the `wall_clock` JSON section.
//!
//! Join edges are excluded from the traversal (a spawn edge plus its
//! join back-edge would form a 2-cycle); they remain in the graph for
//! other consumers. The attribution table answers the classroom
//! question "what fraction of the run went to barrier waits?": each
//! span kind's *self* time (children subtracted) divided by total
//! capacity (wall clock × active lanes), so the shares of all kinds
//! sum to at most 100%.

use std::collections::BTreeSet;

use parc_trace::Json;
use parc_util::table::Table;

use crate::graph::{EdgeKind, TaskGraph};
use crate::store::TraceStore;

/// One node on a longest path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathEntry {
    /// Index into [`TaskGraph::nodes`].
    pub node: usize,
    /// The node's own weight under the analysed weight function.
    pub weight: u64,
    /// Longest-path distance *through* this node (inclusive).
    pub cumulative: u64,
}

/// A longest weighted path plus per-node slack, for one weight
/// function.
#[derive(Clone, Debug, Default)]
pub struct CriticalPath {
    /// Total weight of the longest path.
    pub total: u64,
    /// The path itself, source first.
    pub entries: Vec<PathEntry>,
    /// `slack[i]` = how much node `i`'s weight could grow without
    /// lengthening the critical path. Zero for on-path nodes.
    pub slack: Vec<u64>,
}

impl CriticalPath {
    /// Longest weighted path through `graph` under `weight`, ignoring
    /// [`EdgeKind::Join`] edges. Deterministic: ties are broken toward
    /// the smallest node index, and nodes are label-sorted.
    #[must_use]
    pub fn compute(graph: &TaskGraph, weight: impl Fn(usize) -> u64) -> CriticalPath {
        let n = graph.node_count();
        if n == 0 {
            return CriticalPath::default();
        }
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for e in &graph.edges {
            if e.kind == EdgeKind::Join {
                continue;
            }
            succs[e.from].push(e.to);
            preds[e.to].push(e.from);
            indeg[e.to] += 1;
        }

        // Forward pass: Kahn with an ordered ready set.
        let mut ready: BTreeSet<usize> = (0..n).filter(|i| indeg[*i] == 0).collect();
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        let mut dist = vec![0u64; n];
        let mut best_pred: Vec<Option<usize>> = vec![None; n];
        let mut remaining = indeg;
        while let Some(&u) = ready.iter().next() {
            ready.remove(&u);
            topo.push(u);
            dist[u] += weight(u);
            for &v in &succs[u] {
                if dist[u] > dist[v] || (dist[u] == dist[v] && best_pred[v].is_none()) {
                    dist[v] = dist[u];
                    best_pred[v] = Some(u);
                }
                remaining[v] -= 1;
                if remaining[v] == 0 {
                    ready.insert(v);
                }
            }
        }
        // A cycle through non-join edges cannot arise from the
        // reconstruction rules; if one ever did, the unprocessed nodes
        // simply keep dist = 0 and stay off the path.

        let mut end = 0usize;
        for i in 0..n {
            if dist[i] > dist[end] {
                end = i;
            }
        }
        let total = dist[end];

        // Backward pass for slack: longest tail starting at each node.
        let mut tail = vec![0u64; n];
        for &u in topo.iter().rev() {
            let best = succs[u].iter().map(|&v| tail[v]).max().unwrap_or(0);
            tail[u] = best + weight(u);
        }
        let slack: Vec<u64> = (0..n)
            .map(|i| total.saturating_sub(dist[i] + tail[i] - weight(i)))
            .collect();

        let mut rev = Vec::new();
        let mut cur = Some(end);
        while let Some(u) = cur {
            rev.push(PathEntry {
                node: u,
                weight: weight(u),
                cumulative: dist[u],
            });
            cur = best_pred[u];
        }
        rev.reverse();
        CriticalPath {
            total,
            entries: rev,
            slack,
        }
    }

    /// Number of nodes on the path.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the graph was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One row of the per-kind wall-clock attribution table.
#[derive(Clone, Debug)]
pub struct AttributionRow {
    /// Span kind (`task.run`, `barrier.wait`, …).
    pub kind: &'static str,
    /// Total self time across all spans of this kind, nanoseconds.
    pub self_ns: u64,
    /// Share of total capacity (wall clock × active lanes), percent.
    pub share_pct: f64,
}

/// The full critical-path analysis of one trace: deterministic
/// (logical) and wall-clock views plus the attribution table.
#[derive(Clone, Debug)]
pub struct CriticalReport {
    /// Longest path under logical weights — rerun-stable.
    pub logical: CriticalPath,
    /// Longest path under wall-clock self-time weights.
    pub wall: CriticalPath,
    /// Per-kind wall-clock attribution, heaviest first.
    pub attribution: Vec<AttributionRow>,
    /// Trace wall clock (first to last event), nanoseconds.
    pub wall_ns: u64,
    /// Lanes that owned at least one span.
    pub active_lanes: usize,
    /// The graph's structural fingerprint (see
    /// [`TaskGraph::fingerprint`]).
    pub fingerprint: u64,
    labels: Vec<(String, &'static str)>,
}

impl CriticalReport {
    /// Analyse `graph` (reconstructed from `store`) end to end.
    #[must_use]
    pub fn analyze(store: &TraceStore, graph: &TaskGraph) -> CriticalReport {
        let logical = CriticalPath::compute(graph, |i| graph.nodes[i].logical);
        let wall = CriticalPath::compute(graph, |i| graph.nodes[i].wall_ns);
        let wall_ns = store.wall_ns();
        let active_lanes = store.active_lanes().max(1);
        let capacity = (wall_ns as f64) * (active_lanes as f64);
        let mut attribution: Vec<AttributionRow> = store
            .kind_self_time()
            .into_iter()
            .map(|(kind, self_ns)| AttributionRow {
                kind,
                self_ns,
                share_pct: if capacity > 0.0 {
                    (self_ns as f64) / capacity * 100.0
                } else {
                    0.0
                },
            })
            .collect();
        attribution.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.kind.cmp(b.kind)));
        CriticalReport {
            logical,
            wall,
            attribution,
            wall_ns,
            active_lanes,
            fingerprint: graph.fingerprint(),
            labels: graph
                .nodes
                .iter()
                .map(|n| (n.label.clone(), n.kind.name()))
                .collect(),
        }
    }

    /// Sum of all attribution shares, percent. The disjointness of
    /// per-lane span nesting guarantees this stays at or below 100
    /// (up to float rounding).
    #[must_use]
    pub fn attribution_total_pct(&self) -> f64 {
        self.attribution.iter().map(|r| r.share_pct).sum()
    }

    /// Share of one span kind, percent (0 when the kind never ran).
    #[must_use]
    pub fn share_of(&self, kind: &str) -> f64 {
        self.attribution
            .iter()
            .find(|r| r.kind == kind)
            .map_or(0.0, |r| r.share_pct)
    }

    /// Render the human report: critical path (wall weights) and
    /// attribution tables via [`parc_util::table`].
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "critical path: fingerprint=0x{:016x} logical_total={} wall_total={:.3} ms over {} lanes\n",
            self.fingerprint,
            self.logical.total,
            self.wall.total as f64 / 1e6,
            self.active_lanes,
        ));
        let mut path = Table::new(
            "critical path (wall-clock weights)",
            &["#", "node", "kind", "self ms", "cum ms", "logical"],
        );
        for (rank, e) in self.wall.entries.iter().enumerate() {
            let (label, kind) = &self.labels[e.node];
            path.row(&[
                rank.to_string(),
                label.clone(),
                (*kind).to_string(),
                format!("{:.3}", e.weight as f64 / 1e6),
                format!("{:.3}", e.cumulative as f64 / 1e6),
                self.logical
                    .slack
                    .get(e.node)
                    .map_or_else(String::new, |s| {
                        if *s == 0 {
                            "on-path".to_string()
                        } else {
                            format!("slack {s}")
                        }
                    }),
            ]);
        }
        out.push_str(&path.render());
        out.push('\n');
        let mut attr = Table::new(
            "wall-clock attribution by span kind",
            &["kind", "self ms", "share"],
        );
        for r in &self.attribution {
            attr.row(&[
                r.kind.to_string(),
                format!("{:.3}", r.self_ns as f64 / 1e6),
                format!("{:5.1}%", r.share_pct),
            ]);
        }
        out.push_str(&attr.render());
        out.push_str(&format!(
            "\nattributed {:.1}% of {} lanes x {:.3} ms capacity\n",
            self.attribution_total_pct(),
            self.active_lanes,
            self.wall_ns as f64 / 1e6,
        ));
        out
    }

    /// The rerun-stable slice of the report as JSON: graph
    /// fingerprint, logical total, the logical critical path's labels,
    /// and the count of zero-slack nodes. Bit-identical across reruns
    /// and pool sizes for the same seeded workload.
    #[must_use]
    pub fn deterministic_json(&self) -> Json {
        let path: Vec<&str> = self
            .logical
            .entries
            .iter()
            .map(|e| self.labels[e.node].0.as_str())
            .collect();
        let zero_slack = self.logical.slack.iter().filter(|s| **s == 0).count();
        [
            (
                "fingerprint",
                Json::from(format!("{:#018x}", self.fingerprint)),
            ),
            ("logical_total", Json::from(self.logical.total)),
            ("node_count", Json::from(self.labels.len())),
            ("zero_slack_nodes", Json::from(zero_slack)),
            ("critical_path", Json::from(path)),
        ]
        .into_iter()
        .collect()
    }

    /// The full report as JSON: a `deterministic` section (see
    /// [`CriticalReport::deterministic_json`]) plus a `wall_clock`
    /// section with the wall path and attribution table.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let wall_path: Vec<Json> = self
            .wall
            .entries
            .iter()
            .map(|e| {
                let (node, kind) = &self.labels[e.node];
                [
                    ("node", Json::from(node.as_str())),
                    ("kind", Json::from(*kind)),
                    ("self_ns", Json::from(e.weight)),
                    ("cumulative_ns", Json::from(e.cumulative)),
                ]
                .into_iter()
                .collect()
            })
            .collect();
        let attribution: Vec<Json> = self
            .attribution
            .iter()
            .map(|r| {
                [
                    ("kind", Json::from(r.kind)),
                    ("self_ns", Json::from(r.self_ns)),
                    ("share_pct", Json::from(r.share_pct)),
                ]
                .into_iter()
                .collect()
            })
            .collect();
        let wall_clock: Json = [
            ("total_ns", Json::from(self.wall_ns)),
            ("active_lanes", Json::from(self.active_lanes)),
            ("wall_path", Json::Arr(wall_path)),
            ("attribution", Json::Arr(attribution)),
            ("attributed_pct", Json::from(self.attribution_total_pct())),
        ]
        .into_iter()
        .collect();
        [
            ("deterministic", self.deterministic_json()),
            ("wall_clock", wall_clock),
        ]
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Edge, EdgeKind, Node, NodeKind, TaskGraph};
    use parc_trace::{Collector, SpanKind};

    fn node(label: &str, logical: u64, wall_ns: u64) -> Node {
        Node {
            label: label.to_string(),
            kind: NodeKind::Task,
            span: 0,
            logical,
            wall_ns,
        }
    }

    fn graph(nodes: Vec<Node>, edges: Vec<(usize, usize, EdgeKind)>) -> TaskGraph {
        let mut g = TaskGraph::default();
        g.nodes = nodes;
        g.edges = edges
            .into_iter()
            .map(|(from, to, kind)| Edge { from, to, kind })
            .collect();
        g
    }

    #[test]
    fn chain_total_is_the_sum() {
        let g = graph(
            vec![node("a", 1, 10), node("b", 2, 20), node("c", 3, 30)],
            vec![(0, 1, EdgeKind::Spawn), (1, 2, EdgeKind::Spawn)],
        );
        let p = CriticalPath::compute(&g, |i| g.nodes[i].logical);
        assert_eq!(p.total, 6);
        assert_eq!(
            p.entries.iter().map(|e| e.node).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(p.slack.iter().all(|s| *s == 0), "everything is on a chain");
    }

    #[test]
    fn diamond_picks_the_heavy_branch_and_slacks_the_light_one() {
        // a -> {heavy, light} -> d
        let g = graph(
            vec![
                node("a", 1, 0),
                node("d", 1, 0),
                node("heavy", 10, 0),
                node("light", 4, 0),
            ],
            vec![
                (0, 2, EdgeKind::Spawn),
                (0, 3, EdgeKind::Spawn),
                (2, 1, EdgeKind::Arrive),
                (3, 1, EdgeKind::Arrive),
            ],
        );
        let p = CriticalPath::compute(&g, |i| g.nodes[i].logical);
        assert_eq!(p.total, 12);
        assert_eq!(
            p.entries.iter().map(|e| e.node).collect::<Vec<_>>(),
            vec![0, 2, 1]
        );
        assert_eq!(p.slack[3], 6, "light branch can grow by heavy - light");
        assert_eq!(p.slack[0], 0);
        assert_eq!(p.slack[2], 0);
    }

    #[test]
    fn join_edges_do_not_create_cycles() {
        // Spawn a -> b plus the join back-edge b -> a: traversal must
        // terminate and still count both nodes.
        let g = graph(
            vec![node("a", 2, 0), node("b", 3, 0)],
            vec![(0, 1, EdgeKind::Spawn), (1, 0, EdgeKind::Join)],
        );
        let p = CriticalPath::compute(&g, |i| g.nodes[i].logical);
        assert_eq!(p.total, 5);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn empty_graph_yields_an_empty_path() {
        let p = CriticalPath::compute(&TaskGraph::default(), |_| 1);
        assert!(p.is_empty());
        assert_eq!(p.total, 0);
    }

    fn demo_report() -> CriticalReport {
        let col = Collector::new();
        let h = col.handle();
        let pid = h.register_track("demo");
        {
            let _outer = h.span(pid, SpanKind::TaskRun { task: 1 });
            std::thread::sleep(std::time::Duration::from_millis(1));
            drop(h.span(pid, SpanKind::BarrierWait { member: 0 }));
        }
        let store = TraceStore::new(col.snapshot());
        let graph = TaskGraph::build(&store);
        CriticalReport::analyze(&store, &graph)
    }

    #[test]
    fn attribution_shares_sum_to_at_most_100() {
        let r = demo_report();
        let total = r.attribution_total_pct();
        assert!(
            total <= 100.0 + 1e-6,
            "shares must not exceed capacity: {total}"
        );
        assert!(r.share_of("barrier.wait") > 0.0);
        assert!(r.share_of("task.run") >= 0.0);
        assert_eq!(r.share_of("no.such.kind"), 0.0);
    }

    #[test]
    fn report_renders_and_exports_parseable_json() {
        let r = demo_report();
        let text = r.render();
        assert!(text.contains("critical path"));
        assert!(text.contains("attribution"));
        let full = parc_trace::parse_json(&r.to_json().to_string()).expect("full JSON parses");
        assert!(full.get("deterministic").is_some());
        assert!(full.get("wall_clock").is_some());
        let det =
            parc_trace::parse_json(&r.deterministic_json().to_string()).expect("det JSON parses");
        assert!(det.get("fingerprint").is_some());
        assert!(det.get("critical_path").is_some());
    }

    #[test]
    fn deterministic_json_is_stable_across_rebuilds() {
        // Two separate recordings of the same (timestamp-free)
        // structure must produce byte-identical deterministic JSON.
        let build = || {
            let col = Collector::new();
            let h = col.handle();
            let pid = h.register_track("demo");
            h.mark(
                pid,
                parc_trace::MarkKind::TaskSpawn {
                    task: 1,
                    parent_span: 0,
                },
            );
            {
                let run = h.span(pid, SpanKind::TaskRun { task: 1 });
                h.mark(
                    pid,
                    parc_trace::MarkKind::TaskSpawn {
                        task: 2,
                        parent_span: run.id(),
                    },
                );
            }
            drop(h.span(pid, SpanKind::TaskRun { task: 2 }));
            let store = TraceStore::new(col.snapshot());
            let graph = TaskGraph::build(&store);
            CriticalReport::analyze(&store, &graph).deterministic_json()
        };
        assert_eq!(build(), build());
    }
}
