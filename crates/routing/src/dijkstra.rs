//! Dijkstra shortest paths over a [`GraphView`].
//!
//! All recovery schemes in the paper reduce to shortest-path computations on
//! some view of the topology: the intact network (default routing), the
//! ground truth minus failures (the optimum a recovery scheme chases), or a
//! router's believed view (RTR phase 2, FCP recomputation). Ties are broken
//! deterministically by node id so that every router computes the same
//! paths, matching the consistent-view assumption of §II-A.

use crate::dial::DialQueue;
use crate::path::Path;
use rtr_topology::{GraphView, LinkId, NodeId, Topology};

/// The result of a single-source shortest-path computation.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    source: NodeId,
    dist: Vec<Option<u64>>,
    parent: Vec<Option<(NodeId, LinkId)>>,
}

impl ShortestPaths {
    /// The source this tree was computed from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Distance from the source to `n`, or `None` when unreachable (or when
    /// `n` is not a node of the topology this tree was computed over).
    pub fn distance(&self, n: NodeId) -> Option<u64> {
        self.dist.get(n.index()).copied().flatten()
    }

    /// Returns true when `n` is reachable from the source.
    pub fn is_reachable(&self, n: NodeId) -> bool {
        self.distance(n).is_some()
    }

    /// The parent hop of `n` in the shortest-path tree.
    pub fn parent(&self, n: NodeId) -> Option<(NodeId, LinkId)> {
        self.parent.get(n.index()).copied().flatten()
    }

    /// Reconstructs the shortest path from the source to `dest`.
    ///
    /// Returns `None` when `dest` is unreachable. The path to the source
    /// itself is the trivial zero-hop path.
    pub fn path_to(&self, dest: NodeId) -> Option<Path> {
        let total = self.distance(dest)?;
        Some(crate::path::from_parent_walk(
            self.source,
            dest,
            total,
            |n| self.parent(n),
        ))
    }

    /// First hop from the source toward `dest`: `(next_node, link)`.
    ///
    /// Returns `None` when `dest` is unreachable or equals the source.
    pub fn first_hop(&self, dest: NodeId) -> Option<(NodeId, LinkId)> {
        self.distance(dest)?;
        crate::path::first_hop_from_parent_walk(dest, |n| self.parent(n))
    }

    /// Number of reachable nodes, including the source.
    pub fn reachable_count(&self) -> usize {
        self.dist.iter().filter(|d| d.is_some()).count()
    }
}

/// Reusable buffers for repeated Dijkstra runs.
///
/// The evaluation hot loop performs thousands of shortest-path computations
/// per scenario sweep; allocating the dist/parent vectors and the queue
/// anew each time dominates small-topology runtimes. A scratch keeps
/// those buffers alive across calls: [`run`](Self::run) clears them while
/// retaining capacity, so repeated calls on same-sized topologies perform no
/// transient heap allocations once warmed up.
#[derive(Debug, Clone)]
pub struct DijkstraScratch {
    paths: ShortestPaths,
    queue: DialQueue,
}

impl DijkstraScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        DijkstraScratch {
            paths: ShortestPaths {
                source: NodeId(0),
                dist: Vec::new(),
                parent: Vec::new(),
            },
            queue: DialQueue::default(),
        }
    }

    /// Runs Dijkstra from `source` over the links usable in `view`, reusing
    /// this scratch's buffers.
    ///
    /// The returned tree borrows the scratch; clone it (or call the
    /// allocating [`dijkstra`] wrapper) if it must outlive the next `run`.
    pub fn run(
        &mut self,
        topo: &Topology,
        view: &impl GraphView,
        source: NodeId,
    ) -> &ShortestPaths {
        self.paths.source = source;
        run_raw(
            topo,
            view,
            source,
            None,
            &mut self.paths.dist,
            &mut self.paths.parent,
            &mut self.queue,
            None,
        );
        &self.paths
    }

    /// Like [`run`](Self::run), but also appends every settled node to
    /// `log` in pop order — the observation hook for the proptests that pin
    /// the settle order to a binary-heap reference. Not part of the stable
    /// API.
    #[doc(hidden)]
    pub fn run_with_settle_log(
        &mut self,
        topo: &Topology,
        view: &impl GraphView,
        source: NodeId,
        log: &mut Vec<NodeId>,
    ) -> &ShortestPaths {
        self.paths.source = source;
        run_raw(
            topo,
            view,
            source,
            None,
            &mut self.paths.dist,
            &mut self.paths.parent,
            &mut self.queue,
            Some(log),
        );
        &self.paths
    }

    /// Runs Dijkstra from `source` but stops as soon as `target` is
    /// settled. Only `target`'s distance, parent chain, and
    /// [`path_to(target)`](ShortestPaths::path_to) are guaranteed final in
    /// the returned tree; other nodes may be missing or carry provisional
    /// labels.
    ///
    /// For the settled target, the result is bit-for-bit identical to a
    /// full [`run`](Self::run): once the target pops with distance `d`,
    /// every remaining queue entry has key ≥ `d` and all positive link
    /// costs keep later relaxations strictly above `d`, so the target's
    /// label — and every ancestor on its parent chain, settled at smaller
    /// distances — can never change again.
    pub fn run_to(
        &mut self,
        topo: &Topology,
        view: &impl GraphView,
        source: NodeId,
        target: NodeId,
    ) -> &ShortestPaths {
        self.paths.source = source;
        run_raw(
            topo,
            view,
            source,
            Some(target),
            &mut self.paths.dist,
            &mut self.paths.parent,
            &mut self.queue,
            None,
        );
        &self.paths
    }

    /// The tree produced by the most recent [`run`](Self::run).
    pub fn paths(&self) -> &ShortestPaths {
        &self.paths
    }
}

impl Default for DijkstraScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The shared Dijkstra loop: relaxes into caller-owned buffers.
///
/// Buffers are cleared and resized to the topology (capacity is retained),
/// so callers that hold them across invocations allocate nothing after
/// warm-up. Also used by [`IncrementalSpt`](crate::IncrementalSpt) to
/// (re)build its tree without an intermediate `ShortestPaths`.
///
/// When `target` is set, the loop stops at the target's first non-stale
/// pop; see [`DijkstraScratch::run_to`] for why that leaves the target's
/// label and parent chain exactly as a full run would.
///
/// The frontier is Dial's bucket queue, which pops in ascending
/// `(dist, node)` order (see `dial.rs`), so ties settle by node id.
/// `settle_log`, when given, receives every settled node in pop order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_raw(
    topo: &Topology,
    view: &impl GraphView,
    source: NodeId,
    target: Option<NodeId>,
    dist: &mut Vec<Option<u64>>,
    parent: &mut Vec<Option<(NodeId, LinkId)>>,
    queue: &mut DialQueue,
    mut settle_log: Option<&mut Vec<NodeId>>,
) {
    let n = topo.node_count();
    dist.clear();
    dist.resize(n, None);
    parent.clear();
    parent.resize(n, None);
    if !view.is_node_live(source) {
        return;
    }
    queue.reset(topo.max_link_cost());
    if let Some(d0) = dist.get_mut(source.index()) {
        *d0 = Some(0);
    }
    queue.push(0, source.0);
    while let Some((d, u)) = queue.pop() {
        let u = NodeId(u);
        if dist.get(u.index()).copied().flatten() != Some(d) {
            continue; // stale entry
        }
        if let Some(log) = settle_log.as_deref_mut() {
            log.push(u);
        }
        if target == Some(u) {
            return; // settled: label and parent chain are final
        }
        for &(v, l) in topo.neighbors(u) {
            if !view.is_link_usable(topo, l) {
                continue;
            }
            let nd = d + u64::from(topo.cost_from(l, u));
            let prev_parent = parent.get(v.index()).copied().flatten();
            let better = match dist.get(v.index()).copied().flatten() {
                None => true,
                Some(old) => nd < old || (nd == old && breaks_tie(prev_parent, u, l)),
            };
            if better {
                if let (Some(dv), Some(pv)) = (dist.get_mut(v.index()), parent.get_mut(v.index())) {
                    *dv = Some(nd);
                    *pv = Some((u, l));
                    queue.push(nd, v.0);
                }
            }
        }
    }
}

/// Runs Dijkstra from `source` over the links usable in `view`.
///
/// Directed costs are respected (`cost_from` the tail of each traversal).
/// If `source` itself is dead in `view`, everything is unreachable.
///
/// Allocates fresh buffers per call; hot loops should hold a
/// [`DijkstraScratch`] instead.
pub fn dijkstra(topo: &Topology, view: &impl GraphView, source: NodeId) -> ShortestPaths {
    let mut scratch = DijkstraScratch::new();
    scratch.run(topo, view, source);
    scratch.paths
}

/// Deterministic tie-break: prefer the smaller (parent id, link id) pair so
/// equal-cost paths resolve identically on every router.
fn breaks_tie(current: Option<(NodeId, LinkId)>, candidate: NodeId, link: LinkId) -> bool {
    match current {
        None => true,
        Some((p, l)) => (candidate, link) < (p, l),
    }
}

/// Convenience: the shortest path from `s` to `t` in `view`, if any.
pub fn shortest_path(topo: &Topology, view: &impl GraphView, s: NodeId, t: NodeId) -> Option<Path> {
    dijkstra(topo, view, s).path_to(t)
}

/// Breadth-first hop counts from `source` (valid when all costs are 1).
///
/// Used as the cross-check oracle for Dijkstra in tests and as the fast
/// path in the hop-count ablation bench.
pub fn bfs_hops(topo: &Topology, view: &impl GraphView, source: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; topo.node_count()];
    if !view.is_node_live(source) {
        return dist;
    }
    if let Some(d0) = dist.get_mut(source.index()) {
        *d0 = Some(0);
    }
    let mut queue = std::collections::VecDeque::from([(source, 0u32)]);
    while let Some((u, d)) = queue.pop_front() {
        for &(v, l) in topo.neighbors(u) {
            let Some(dv) = dist.get_mut(v.index()) else {
                continue;
            };
            if dv.is_none() && view.is_link_usable(topo, l) {
                *dv = Some(d + 1);
                queue.push_back((v, d + 1));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_topology::{generate, FailureScenario, FullView, Point};

    fn diamond() -> Topology {
        // v0 -2- v1 -2- v3, v0 -1- v2 -1- v3 : bottom route is shorter.
        let mut b = Topology::builder();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 1.0));
        let v2 = b.add_node(Point::new(1.0, -1.0));
        let v3 = b.add_node(Point::new(2.0, 0.0));
        b.add_link(v0, v1, 2).unwrap();
        b.add_link(v1, v3, 2).unwrap();
        b.add_link(v0, v2, 1).unwrap();
        b.add_link(v2, v3, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn picks_cheaper_route() {
        let topo = diamond();
        let sp = dijkstra(&topo, &FullView, NodeId(0));
        assert_eq!(sp.distance(NodeId(3)), Some(2));
        let p = sp.path_to(NodeId(3)).unwrap();
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(2), NodeId(3)]);
        assert_eq!(p.cost(), 2);
    }

    #[test]
    fn reroutes_around_failure() {
        let topo = diamond();
        let l = topo.link_between(NodeId(0), NodeId(2)).unwrap();
        let s = FailureScenario::single_link(&topo, l);
        let sp = dijkstra(&topo, &s, NodeId(0));
        assert_eq!(sp.distance(NodeId(3)), Some(4));
        let p = sp.path_to(NodeId(3)).unwrap();
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn unreachable_destination() {
        let topo = diamond();
        let s = FailureScenario::from_parts(&topo, [NodeId(1), NodeId(2)], []);
        let sp = dijkstra(&topo, &s, NodeId(0));
        assert_eq!(sp.distance(NodeId(3)), None);
        assert!(sp.path_to(NodeId(3)).is_none());
        assert_eq!(sp.reachable_count(), 1);
    }

    #[test]
    fn dead_source_reaches_nothing() {
        let topo = diamond();
        let s = FailureScenario::from_parts(&topo, [NodeId(0)], []);
        let sp = dijkstra(&topo, &s, NodeId(0));
        assert_eq!(sp.reachable_count(), 0);
        assert!(!sp.is_reachable(NodeId(0)));
    }

    #[test]
    fn path_to_source_is_trivial() {
        let topo = diamond();
        let sp = dijkstra(&topo, &FullView, NodeId(0));
        let p = sp.path_to(NodeId(0)).unwrap();
        assert_eq!(p.hops(), 0);
        assert_eq!(sp.first_hop(NodeId(0)), None);
    }

    #[test]
    fn first_hop_matches_path() {
        let topo = diamond();
        let sp = dijkstra(&topo, &FullView, NodeId(0));
        let (nxt, l) = sp.first_hop(NodeId(3)).unwrap();
        assert_eq!(nxt, NodeId(2));
        assert_eq!(Some(l), topo.link_between(NodeId(0), NodeId(2)));
    }

    #[test]
    fn asymmetric_costs_respect_direction() {
        let mut b = Topology::builder();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        b.add_link_asymmetric(v0, v1, 1, 10).unwrap();
        let topo = b.build().unwrap();
        assert_eq!(dijkstra(&topo, &FullView, v0).distance(v1), Some(1));
        assert_eq!(dijkstra(&topo, &FullView, v1).distance(v0), Some(10));
    }

    #[test]
    fn ties_break_deterministically() {
        // Two equal-cost routes; the parent with the smaller id wins.
        let mut b = Topology::builder();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 1.0));
        let v2 = b.add_node(Point::new(1.0, -1.0));
        let v3 = b.add_node(Point::new(2.0, 0.0));
        b.add_link(v0, v1, 1).unwrap();
        b.add_link(v0, v2, 1).unwrap();
        b.add_link(v1, v3, 1).unwrap();
        b.add_link(v2, v3, 1).unwrap();
        let topo = b.build().unwrap();
        let sp = dijkstra(&topo, &FullView, v0);
        let p = sp.path_to(v3).unwrap();
        assert_eq!(p.nodes(), &[v0, v1, v3]);
    }

    #[test]
    fn bfs_matches_dijkstra_on_unit_costs() {
        let topo = generate::isp_like(40, 90, 2000.0, 17).unwrap();
        let bfs = bfs_hops(&topo, &FullView, NodeId(0));
        let sp = dijkstra(&topo, &FullView, NodeId(0));
        for n in topo.node_ids() {
            assert_eq!(bfs[n.index()].map(u64::from), sp.distance(n));
        }
    }

    #[test]
    fn paths_are_simple_and_consistent() {
        let topo = generate::isp_like(35, 80, 2000.0, 23).unwrap();
        let sp = dijkstra(&topo, &FullView, NodeId(5));
        for n in topo.node_ids() {
            let p = sp.path_to(n).unwrap();
            assert!(p.is_simple());
            assert_eq!(p.source(), NodeId(5));
            assert_eq!(p.dest(), n);
            // Re-validating through Path::new must agree.
            let re = Path::new(&topo, p.nodes().to_vec(), p.links().to_vec()).unwrap();
            assert_eq!(re.cost(), p.cost());
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let topo = generate::isp_like(40, 90, 2000.0, 17).unwrap();
        let mut scratch = DijkstraScratch::new();
        for src in [NodeId(0), NodeId(7), NodeId(39), NodeId(3)] {
            let fresh = dijkstra(&topo, &FullView, src);
            let reused = scratch.run(&topo, &FullView, src);
            assert_eq!(reused.source(), src);
            for n in topo.node_ids() {
                assert_eq!(reused.distance(n), fresh.distance(n));
                assert_eq!(reused.parent(n), fresh.parent(n));
            }
        }
    }

    #[test]
    fn scratch_reuse_across_views_and_sizes() {
        let big = generate::isp_like(40, 90, 2000.0, 17).unwrap();
        let small = diamond();
        let mut scratch = DijkstraScratch::new();
        scratch.run(&big, &FullView, NodeId(5));
        // Shrinking to a smaller topology must not leak stale labels.
        let l = small.link_between(NodeId(0), NodeId(2)).unwrap();
        let s = FailureScenario::single_link(&small, l);
        let reused = scratch.run(&small, &s, NodeId(0));
        let fresh = dijkstra(&small, &s, NodeId(0));
        for n in small.node_ids() {
            assert_eq!(reused.distance(n), fresh.distance(n));
            assert_eq!(reused.parent(n), fresh.parent(n));
        }
        assert_eq!(scratch.paths().distance(NodeId(3)), Some(4));
    }

    #[test]
    fn run_to_matches_full_run_for_target() {
        let topo = generate::isp_like(40, 90, 2000.0, 17).unwrap();
        let mut scratch = DijkstraScratch::new();
        for src in [NodeId(0), NodeId(7), NodeId(39)] {
            let full = dijkstra(&topo, &FullView, src);
            for t in topo.node_ids() {
                let early = scratch.run_to(&topo, &FullView, src, t);
                assert_eq!(early.distance(t), full.distance(t));
                assert_eq!(early.path_to(t), full.path_to(t), "{src:?}→{t:?}");
            }
        }
        // And under failures, including unreachable targets.
        let l = topo.link_ids().next().unwrap();
        let s = FailureScenario::single_link(&topo, l);
        let full = dijkstra(&topo, &s, NodeId(0));
        for t in topo.node_ids() {
            let early = scratch.run_to(&topo, &s, NodeId(0), t);
            assert_eq!(early.path_to(t), full.path_to(t));
        }
    }

    #[test]
    fn shortest_path_helper() {
        let topo = diamond();
        let p = shortest_path(&topo, &FullView, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.cost(), 2);
        let s = FailureScenario::from_parts(&topo, [NodeId(1), NodeId(2)], []);
        assert!(shortest_path(&topo, &s, NodeId(0), NodeId(3)).is_none());
    }
}
