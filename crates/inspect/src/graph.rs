//! Task-graph reconstruction: from recorded causality to a DAG.
//!
//! The trace records four causal facts: `task.spawn` marks carry the
//! span active on the spawning thread (`parent_span`), `task.run`
//! spans tie a task id to its execution, `region.member` spans nest
//! `barrier.wait` spans, and `barrier.release` marks close each wait.
//! [`TaskGraph::build`] turns those into a dependence DAG whose node
//! *labels* are canonical — derived from the spawn tree and per-member
//! barrier ordinals, never from runtime-assigned ids or timestamps —
//! so the same seeded workload yields a bit-identical graph across
//! reruns *and* across worker-pool sizes:
//!
//! * **tasks** — `task/<i>/<j>/...`: root ordinal, then child
//!   ordinals in spawn order. All spawns charged to one parent span
//!   are recorded on the lane executing that span, so their relative
//!   order survives the time-sorted merge deterministically.
//! * **sources** — `src:root` for spawns outside any span, and
//!   `src:<kind>#<n>` for non-task spans (a crawl, say) that spawned
//!   tasks.
//! * **segments** — `seg:m<member>#<r>.<s>`: the parts of member
//!   `m`'s `r`-th region span between its barrier waits.
//! * **barrier episodes** — `barrier:<r>.<w>`: member `m`'s `w`-th
//!   wait in region `r` belongs to episode `(r, w)`; segments
//!   *arrive* into the episode and the episode *releases* the next
//!   segments.
//!
//! Each node carries two weights. `wall_ns` is the human truth (self
//! time for tasks, window length for segments, the last-arriver wait
//! for episodes) and varies run to run. `logical` is the determinism
//! contract: `1 +` the number of *stable* marks charged to the node —
//! spawns (via `parent_span`), fetch results, injected faults and
//! barrier releases — all of which are seed-determined, while
//! interleaving-dependent marks (steals, dynamic chunk dispatches,
//! task outcomes) are excluded. Critical paths over
//! `logical` weights are therefore rerun-stable and feed the
//! fingerprint gates.
//!
//! Join edges (child → parent, the implicit dependence of fork/join)
//! are recorded for graph consumers but excluded from longest-path
//! traversal — together with their spawn edges they would form
//! 2-cycles.

use std::collections::BTreeMap;

use parc_trace::{EventKind, MarkKind, SpanKind};
use parc_util::rng::SplitMix64;

use crate::store::TraceStore;

/// What a graph node stands for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeKind {
    /// A non-task origin of spawns (`src:root`, `src:crawl#0`, …).
    Source,
    /// One spawned task (backed by its `task.run` span when present).
    Task,
    /// One member's region slice between two barrier waits.
    Segment,
    /// One completed barrier episode (all members of one wait round).
    Barrier,
}

impl NodeKind {
    /// Stable label for export and hashing.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            NodeKind::Source => "source",
            NodeKind::Task => "task",
            NodeKind::Segment => "segment",
            NodeKind::Barrier => "barrier",
        }
    }
}

/// One node of the reconstructed dependence graph.
#[derive(Clone, Debug)]
pub struct Node {
    /// Canonical label (see module docs) — the node's identity.
    pub label: String,
    /// What the node stands for.
    pub kind: NodeKind,
    /// Backing span id (0 for barrier episodes and `src:root`).
    pub span: u64,
    /// Deterministic weight: `1 +` stable marks charged to the node.
    pub logical: u64,
    /// Wall-clock weight in nanoseconds (varies run to run).
    pub wall_ns: u64,
}

/// How one recorded causality edge arose.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Parent (task/source/segment) spawned the child task.
    Spawn,
    /// Child task joins back into its spawner (fork/join implicit
    /// dependence). Excluded from longest-path traversal.
    Join,
    /// A segment arrived at a barrier episode.
    Arrive,
    /// A barrier episode released the member's next segment.
    Release,
}

impl EdgeKind {
    /// Stable label for export and hashing.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::Spawn => "spawn",
            EdgeKind::Join => "join",
            EdgeKind::Arrive => "arrive",
            EdgeKind::Release => "release",
        }
    }
}

/// One directed edge, by node index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Index of the origin node in [`TaskGraph::nodes`].
    pub from: usize,
    /// Index of the target node.
    pub to: usize,
    /// Why the edge exists.
    pub kind: EdgeKind,
}

/// The reconstructed task dependence graph. Nodes are sorted by
/// label; edges by `(from, kind, to)` — both orders are part of the
/// determinism contract.
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    /// All nodes, sorted by label.
    pub nodes: Vec<Node>,
    /// All edges, sorted by `(from, kind, to)`.
    pub edges: Vec<Edge>,
    index: BTreeMap<String, usize>,
}

/// Marks whose counts are seed-determined (not interleaving-
/// dependent) and may therefore contribute to `logical` weights.
/// `task.spawn` is handled separately via its explicit `parent_span`.
const STABLE_MARKS: [&str; 3] = ["fetch.result", "fault.injected", "barrier.release"];

/// Where a spawn (or stable mark) gets charged.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Charge {
    /// The root source node (spawns outside any span).
    Root,
    /// A task, by task id.
    Task(u64),
    /// Segment `seg_idx` of the region span `span_id`.
    Segment(u64, usize),
    /// A non-task, non-region source span.
    SourceSpan(u64),
}

/// Scratch describing one region span's barrier structure.
struct RegionInfo {
    member: u32,
    /// Per-member region ordinal.
    ordinal: usize,
    /// Optional track disambiguator (set when several tracks have
    /// regions).
    prefix: String,
    /// Segment windows `[start, end)` — `waits + 1` of them.
    segments: Vec<(u64, u64)>,
    /// Wait span ids, in order (wait `w` sits between segments `w`
    /// and `w + 1`).
    waits: Vec<u64>,
}

impl RegionInfo {
    fn segment_label(&self, s: usize) -> String {
        format!("{}seg:m{}#{}.{}", self.prefix, self.member, self.ordinal, s)
    }

    /// Which segment a timestamp inside the region falls in.
    fn segment_of_ts(&self, ts: u64) -> usize {
        let hit = self
            .segments
            .iter()
            .position(|(lo, hi)| *lo <= ts && (ts < *hi || lo == hi));
        hit.unwrap_or_else(|| {
            // Between a wait's start and end, or past the region end:
            // charge the following (resp. last) segment.
            self.segments
                .iter()
                .position(|(lo, _)| ts < *lo)
                .unwrap_or(self.segments.len() - 1)
        })
    }
}

impl TaskGraph {
    /// Reconstruct the dependence graph from an indexed trace. See the
    /// module docs for the node/edge/label derivation rules.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn build(store: &TraceStore) -> TaskGraph {
        // --- Task identity: task id <-> run span.
        let mut run_span_of_task: BTreeMap<u64, u64> = BTreeMap::new();
        let mut task_of_span: BTreeMap<u64, u64> = BTreeMap::new();
        for s in store.spans() {
            if let SpanKind::TaskRun { task } = s.span.what {
                run_span_of_task.entry(task).or_insert(s.span.id);
                task_of_span.insert(s.span.id, task);
            }
        }

        // --- Regions: per (track, member) ordinal, segment windows.
        let mut region_spans: Vec<&crate::store::StoredSpan> = store
            .spans()
            .filter(|s| matches!(s.span.what, SpanKind::Region { .. }))
            .collect();
        // Lane recording order = begin-event order.
        region_spans.sort_by_key(|s| s.begin_idx);
        let region_pids: std::collections::BTreeSet<u32> =
            region_spans.iter().map(|s| s.span.pid).collect();
        let multi_track = region_pids.len() > 1;
        let pid_ordinal: BTreeMap<u32, usize> = region_pids
            .iter()
            .enumerate()
            .map(|(i, p)| (*p, i))
            .collect();
        let mut per_member_count: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        let mut regions: BTreeMap<u64, RegionInfo> = BTreeMap::new();
        for r in &region_spans {
            let SpanKind::Region { member } = r.span.what else {
                unreachable!()
            };
            let ordinal_key = (r.span.pid, member);
            let ordinal = *per_member_count
                .entry(ordinal_key)
                .and_modify(|c| *c += 1)
                .or_insert(0);
            let prefix = if multi_track {
                format!("t{}.", pid_ordinal[&r.span.pid])
            } else {
                String::new()
            };
            let waits: Vec<u64> = r
                .children
                .iter()
                .copied()
                .filter(|c| {
                    store
                        .span(*c)
                        .is_some_and(|s| matches!(s.span.what, SpanKind::BarrierWait { .. }))
                })
                .collect();
            let mut segments = Vec::with_capacity(waits.len() + 1);
            let mut cursor = r.span.start_ns;
            for w in &waits {
                let wspan = &store.span(*w).expect("wait span stored").span;
                segments.push((cursor, wspan.start_ns.max(cursor)));
                cursor = wspan.end_ns.max(cursor);
            }
            segments.push((cursor, r.span.end_ns.max(cursor)));
            regions.insert(
                r.span.id,
                RegionInfo {
                    member,
                    ordinal,
                    prefix,
                    segments,
                    waits,
                },
            );
        }

        // --- Spawn records, in event order.
        struct Spawn {
            task: u64,
            charge: Charge,
        }
        let mut spawns: Vec<Spawn> = Vec::new();
        let mut source_spans: BTreeMap<u64, ()> = BTreeMap::new();
        for &i in store.kind_indices("task.spawn") {
            let EventKind::Mark {
                what: MarkKind::TaskSpawn { task, parent_span },
            } = store.events()[i].kind
            else {
                continue;
            };
            let ts = store.events()[i].ts_ns;
            let charge = charge_for_span(
                parent_span,
                ts,
                &task_of_span,
                &regions,
                store,
                &mut source_spans,
            );
            spawns.push(Spawn { task, charge });
        }

        // --- Canonical task labels from the spawn tree.
        let mut label_of_task: BTreeMap<u64, String> = BTreeMap::new();
        let mut spawner_of_task: BTreeMap<u64, Charge> = BTreeMap::new();
        let mut root_count = 0usize;
        let mut child_count: BTreeMap<u64, usize> = BTreeMap::new();
        for sp in &spawns {
            if spawner_of_task.contains_key(&sp.task) {
                continue; // duplicate spawn mark: keep the first
            }
            spawner_of_task.insert(sp.task, sp.charge.clone());
            let label = match &sp.charge {
                Charge::Task(parent) => {
                    let j = child_count
                        .entry(*parent)
                        .and_modify(|c| *c += 1)
                        .or_insert(0);
                    match label_of_task.get(parent) {
                        Some(pl) => format!("{pl}/{j}"),
                        // Parent task itself was never spawn-marked
                        // (e.g. its spawn dropped): treat as a root.
                        None => {
                            let i = root_count;
                            root_count += 1;
                            format!("task/{i}")
                        }
                    }
                }
                _ => {
                    let i = root_count;
                    root_count += 1;
                    format!("task/{i}")
                }
            };
            label_of_task.insert(sp.task, label);
        }
        // Tasks with a run span but no spawn mark (lost to ring
        // overflow): still representable, labelled by appearance.
        let mut orphans: Vec<u64> = run_span_of_task
            .keys()
            .filter(|t| !label_of_task.contains_key(t))
            .copied()
            .collect();
        orphans.sort_by_key(|t| store.span(run_span_of_task[t]).map_or(0, |s| s.begin_idx));
        for (orphan, t) in orphans.into_iter().enumerate() {
            label_of_task.insert(t, format!("task/orphan#{orphan}"));
        }

        // --- Stable-mark counts per charge target.
        let mut stable: BTreeMap<Charge, u64> = BTreeMap::new();
        for s in store.spans() {
            for &mi in &s.marks {
                let name = store.events()[mi].name();
                if !STABLE_MARKS.contains(&name) {
                    continue;
                }
                let ts = store.events()[mi].ts_ns;
                // Walk up from the attributed span to the nearest span
                // that is (or buckets into) a graph node.
                let mut cur = s.span.id;
                let charge = loop {
                    if cur == 0 {
                        break None;
                    }
                    if let Some(task) = task_of_span.get(&cur) {
                        break Some(Charge::Task(*task));
                    }
                    if let Some(info) = regions.get(&cur) {
                        break Some(Charge::Segment(cur, info.segment_of_ts(ts)));
                    }
                    if source_spans.contains_key(&cur) {
                        break Some(Charge::SourceSpan(cur));
                    }
                    match store.span(cur) {
                        Some(sp) => cur = sp.span.parent,
                        None => break None,
                    }
                };
                if let Some(c) = charge {
                    *stable.entry(c).or_insert(0) += 1;
                }
            }
        }
        // Spawn counts, charged via the explicit parent_span link.
        let mut spawn_count: BTreeMap<Charge, u64> = BTreeMap::new();
        for sp in &spawns {
            *spawn_count.entry(sp.charge.clone()).or_insert(0) += 1;
        }

        // --- Materialise nodes.
        let mut nodes: Vec<Node> = Vec::new();
        let logical_of = |charge: &Charge| {
            1 + stable.get(charge).copied().unwrap_or(0)
                + spawn_count.get(charge).copied().unwrap_or(0)
        };
        if spawns.iter().any(|s| s.charge == Charge::Root) {
            nodes.push(Node {
                label: "src:root".to_string(),
                kind: NodeKind::Source,
                span: 0,
                logical: logical_of(&Charge::Root),
                wall_ns: 0,
            });
        }
        // Source ordinals per kind, in first-spawn order.
        let mut source_ord: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut source_label: BTreeMap<u64, String> = BTreeMap::new();
        for sp in &spawns {
            if let Charge::SourceSpan(id) = sp.charge {
                if source_label.contains_key(&id) {
                    continue;
                }
                let kind = store.span(id).map_or("unknown", |s| s.span.what.name());
                let ord = *source_ord
                    .entry(store.span(id).map_or("unknown", |s| s.span.what.name()))
                    .and_modify(|c| *c += 1)
                    .or_insert(0);
                let label = format!("src:{kind}#{ord}");
                source_label.insert(id, label.clone());
                nodes.push(Node {
                    label,
                    kind: NodeKind::Source,
                    span: id,
                    logical: logical_of(&Charge::SourceSpan(id)),
                    wall_ns: store.self_time_ns(id),
                });
            }
        }
        for (task, label) in &label_of_task {
            let span = run_span_of_task.get(task).copied().unwrap_or(0);
            nodes.push(Node {
                label: label.clone(),
                kind: NodeKind::Task,
                span,
                logical: logical_of(&Charge::Task(*task)),
                wall_ns: store.self_time_ns(span),
            });
        }
        for (rid, info) in &regions {
            for (s, (lo, hi)) in info.segments.iter().enumerate() {
                nodes.push(Node {
                    label: info.segment_label(s),
                    kind: NodeKind::Segment,
                    span: *rid,
                    logical: logical_of(&Charge::Segment(*rid, s)),
                    wall_ns: hi.saturating_sub(*lo),
                });
            }
        }
        // Barrier episodes: member m's w-th wait in region r belongs
        // to episode (r, w). Wall weight = the shortest member wait
        // (the last arriver's — the serial cost of the episode).
        let mut episode_min_wait: BTreeMap<(String, usize, usize), u64> = BTreeMap::new();
        for info in regions.values() {
            for (w, wid) in info.waits.iter().enumerate() {
                let dur = store.span(*wid).map_or(0, |s| s.span.duration_ns());
                episode_min_wait
                    .entry((info.prefix.clone(), info.ordinal, w))
                    .and_modify(|m| *m = (*m).min(dur))
                    .or_insert(dur);
            }
        }
        for ((prefix, r, w), min_wait) in &episode_min_wait {
            nodes.push(Node {
                label: format!("{prefix}barrier:{r}.{w}"),
                kind: NodeKind::Barrier,
                span: 0,
                logical: 1,
                wall_ns: *min_wait,
            });
        }

        nodes.sort_by(|a, b| a.label.cmp(&b.label));
        let index: BTreeMap<String, usize> = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.label.clone(), i))
            .collect();

        // --- Edges, as label pairs first.
        let charge_label = |charge: &Charge| -> Option<String> {
            match charge {
                Charge::Root => Some("src:root".to_string()),
                Charge::Task(t) => label_of_task.get(t).cloned(),
                Charge::Segment(rid, s) => regions.get(rid).map(|i| i.segment_label(*s)),
                Charge::SourceSpan(id) => source_label.get(id).cloned(),
            }
        };
        let mut edge_labels: Vec<(String, String, EdgeKind)> = Vec::new();
        for (task, charge) in &spawner_of_task {
            let (Some(from), Some(to)) = (charge_label(charge), label_of_task.get(task)) else {
                continue;
            };
            edge_labels.push((from.clone(), to.clone(), EdgeKind::Spawn));
            edge_labels.push((to.clone(), from, EdgeKind::Join));
        }
        for info in regions.values() {
            for w in 0..info.waits.len() {
                let episode = format!("{}barrier:{}.{}", info.prefix, info.ordinal, w);
                edge_labels.push((info.segment_label(w), episode.clone(), EdgeKind::Arrive));
                edge_labels.push((episode, info.segment_label(w + 1), EdgeKind::Release));
            }
        }
        let mut edges: Vec<Edge> = edge_labels
            .into_iter()
            .filter_map(|(from, to, kind)| {
                Some(Edge {
                    from: *index.get(&from)?,
                    to: *index.get(&to)?,
                    kind,
                })
            })
            .collect();
        edges.sort_by_key(|e| (e.from, e.kind, e.to));
        edges.dedup();

        TaskGraph {
            nodes,
            edges,
            index,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// True when the trace produced no graph nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Index of the node with this canonical label.
    #[must_use]
    pub fn node_index(&self, label: &str) -> Option<usize> {
        self.index.get(label).copied()
    }

    /// Deterministic digest of the canonical structure: labels, kinds,
    /// logical weights and edges — everything except wall-clock
    /// weights. Bit-identical across reruns and pool sizes for the
    /// same seeded workload.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0x1A5B_u64;
        for n in &self.nodes {
            for b in n.label.bytes() {
                h = SplitMix64::mix(h ^ u64::from(b));
            }
            h = SplitMix64::mix(h ^ n.kind as u64);
            h = SplitMix64::mix(h ^ n.logical);
        }
        for e in &self.edges {
            h = SplitMix64::mix(
                h ^ (e.from as u64) ^ ((e.to as u64) << 20) ^ ((e.kind as u64) << 40),
            );
        }
        h
    }
}

/// Resolve the span a spawn/mark was charged to into a graph-level
/// charge target, registering new source spans on the way.
fn charge_for_span(
    span_id: u64,
    ts: u64,
    task_of_span: &BTreeMap<u64, u64>,
    regions: &BTreeMap<u64, RegionInfo>,
    store: &TraceStore,
    source_spans: &mut BTreeMap<u64, ()>,
) -> Charge {
    if span_id == 0 {
        return Charge::Root;
    }
    if let Some(task) = task_of_span.get(&span_id) {
        return Charge::Task(*task);
    }
    if let Some(info) = regions.get(&span_id) {
        return Charge::Segment(span_id, info.segment_of_ts(ts));
    }
    if store.span(span_id).is_some() {
        source_spans.insert(span_id, ());
        Charge::SourceSpan(span_id)
    } else {
        // The spawning span's begin event was dropped: fall back to
        // the root source rather than losing the task.
        Charge::Root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parc_trace::{Collector, MarkKind, SpanKind, Trace, TraceHandle};

    /// Emit a deterministic two-level task tree:
    /// `src:root → task/0 → {task/0/0, task/0/1}` with run spans.
    fn spawn_tree_trace() -> Trace {
        let col = Collector::new();
        let h = col.handle();
        let pid = h.register_track("demo");
        h.mark(
            pid,
            MarkKind::TaskSpawn {
                task: 10,
                parent_span: 0,
            },
        );
        {
            let run = h.span(pid, SpanKind::TaskRun { task: 10 });
            h.mark(
                pid,
                MarkKind::TaskSpawn {
                    task: 20,
                    parent_span: run.id(),
                },
            );
            h.mark(
                pid,
                MarkKind::TaskSpawn {
                    task: 30,
                    parent_span: run.id(),
                },
            );
        }
        drop(h.span(pid, SpanKind::TaskRun { task: 20 }));
        drop(h.span(pid, SpanKind::TaskRun { task: 30 }));
        col.snapshot()
    }

    /// One two-member region with two barrier waits per member,
    /// emitted sequentially on two lanes via scoped threads.
    fn barrier_trace() -> Trace {
        let col = Collector::new();
        let h = col.handle();
        let pid = h.register_track("pyjama");
        let emit_member = |h: &TraceHandle, member: u32| {
            let _region = h.span(pid, SpanKind::Region { member });
            for _ in 0..2 {
                drop(h.span(pid, SpanKind::BarrierWait { member }));
                h.mark(
                    pid,
                    MarkKind::BarrierRelease {
                        member,
                        waited_ns: 5,
                    },
                );
            }
        };
        std::thread::scope(|s| {
            for m in 0..2u32 {
                let h = h.clone();
                s.spawn(move || emit_member(&h, m));
            }
        });
        col.snapshot()
    }

    #[test]
    fn spawn_tree_gets_canonical_labels_and_edges() {
        let store = TraceStore::new(spawn_tree_trace());
        let g = TaskGraph::build(&store);
        for label in ["src:root", "task/0", "task/0/0", "task/0/1"] {
            assert!(
                g.node_index(label).is_some(),
                "missing {label} in {:?}",
                g.nodes.iter().map(|n| &n.label).collect::<Vec<_>>()
            );
        }
        assert_eq!(g.node_count(), 4);
        let spawn_edges = g.edges.iter().filter(|e| e.kind == EdgeKind::Spawn).count();
        let join_edges = g.edges.iter().filter(|e| e.kind == EdgeKind::Join).count();
        assert_eq!(spawn_edges, 3);
        assert_eq!(join_edges, 3, "every spawn has a fork/join back edge");
        // src:root -> task/0
        let root = g.node_index("src:root").unwrap();
        let t0 = g.node_index("task/0").unwrap();
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == root && e.to == t0 && e.kind == EdgeKind::Spawn));
        // Logical weights: task/0 spawned 2 children -> 3; leaves -> 1;
        // root spawned 1 -> 2.
        assert_eq!(g.nodes[t0].logical, 3);
        assert_eq!(g.nodes[root].logical, 2);
        assert_eq!(g.nodes[g.node_index("task/0/0").unwrap()].logical, 1);
    }

    #[test]
    fn barrier_waits_group_into_episodes_and_segments() {
        let store = TraceStore::new(barrier_trace());
        let g = TaskGraph::build(&store);
        // 2 members x 3 segments + 2 episodes = 8 nodes.
        for label in [
            "seg:m0#0.0",
            "seg:m0#0.1",
            "seg:m0#0.2",
            "seg:m1#0.0",
            "seg:m1#0.1",
            "seg:m1#0.2",
            "barrier:0.0",
            "barrier:0.1",
        ] {
            assert!(g.node_index(label).is_some(), "missing {label}");
        }
        assert_eq!(g.node_count(), 8);
        let arrives = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Arrive)
            .count();
        let releases = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Release)
            .count();
        assert_eq!(arrives, 4, "2 members x 2 waits arrive");
        assert_eq!(releases, 4, "each episode releases both next segments");
        // The release mark after each wait lands in the *next* segment:
        // segments 1 and 2 weigh 2, segment 0 weighs 1.
        assert_eq!(g.nodes[g.node_index("seg:m0#0.0").unwrap()].logical, 1);
        assert_eq!(g.nodes[g.node_index("seg:m0#0.1").unwrap()].logical, 2);
        assert_eq!(g.nodes[g.node_index("seg:m0#0.2").unwrap()].logical, 2);
    }

    #[test]
    fn fingerprint_is_stable_across_identical_builds() {
        let a = TaskGraph::build(&TraceStore::new(spawn_tree_trace()));
        let b = TaskGraph::build(&TraceStore::new(spawn_tree_trace()));
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "same structure, same digest"
        );
        let c = TaskGraph::build(&TraceStore::new(barrier_trace()));
        let d = TaskGraph::build(&TraceStore::new(barrier_trace()));
        assert_eq!(c.fingerprint(), d.fingerprint());
        assert_ne!(
            a.fingerprint(),
            c.fingerprint(),
            "different structure differs"
        );
    }

    #[test]
    fn non_task_spawning_span_becomes_a_source() {
        let col = Collector::new();
        let h = col.handle();
        let pid = h.register_track("websim");
        {
            let crawl = h.span(pid, SpanKind::Crawl { pages: 2 });
            h.mark(
                pid,
                MarkKind::TaskSpawn {
                    task: 1,
                    parent_span: crawl.id(),
                },
            );
            h.mark(
                pid,
                MarkKind::TaskSpawn {
                    task: 2,
                    parent_span: crawl.id(),
                },
            );
        }
        drop(h.span(pid, SpanKind::TaskRun { task: 1 }));
        drop(h.span(pid, SpanKind::TaskRun { task: 2 }));
        let g = TaskGraph::build(&TraceStore::new(col.snapshot()));
        let src = g.node_index("src:crawl#0").expect("crawl source node");
        assert_eq!(g.nodes[src].kind, NodeKind::Source);
        assert_eq!(g.nodes[src].logical, 3, "1 + two spawns");
        assert!(g.node_index("task/0").is_some());
        assert!(g.node_index("task/1").is_some());
        assert!(g.node_index("src:root").is_none(), "no root spawns here");
    }

    #[test]
    fn orphan_run_spans_survive_without_spawn_marks() {
        let col = Collector::new();
        let h = col.handle();
        drop(h.span(1, SpanKind::TaskRun { task: 77 }));
        let g = TaskGraph::build(&TraceStore::new(col.snapshot()));
        assert_eq!(g.node_count(), 1);
        assert!(g.nodes[0].label.starts_with("task/orphan#"));
    }

    #[test]
    fn empty_trace_builds_an_empty_graph() {
        let g = TaskGraph::build(&TraceStore::new(Trace::default()));
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
        // Still a defined digest (of nothing).
        assert_eq!(g.fingerprint(), TaskGraph::default().fingerprint());
    }
}
