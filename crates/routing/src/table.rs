//! Link-state routing tables.
//!
//! Every router in an intra-domain link-state network (OSPF/IS-IS) computes
//! its own shortest-path tree over the shared topology view and installs
//! the first hop toward each destination (§II-A). [`RoutingTable`] holds
//! those first hops for all routers at once — the pre-failure "default
//! routing" that RTR falls back on, plus the post-convergence state.

use crate::dijkstra::{DijkstraScratch, ShortestPaths};
use crate::path::Path;
use rtr_topology::{GraphView, LinkId, NodeId, Topology};

/// All-routers routing state over one consistent topology view.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    /// Per-source shortest-path trees, indexed by source node.
    trees: Vec<ShortestPaths>,
}

impl RoutingTable {
    /// Computes the routing table every router would hold given `view`.
    pub fn compute(topo: &Topology, view: &impl GraphView) -> Self {
        Self::from_trees(Self::compute_sources(topo, view, topo.node_ids()))
    }

    /// Computes the shortest-path trees for a subset of sources, in the
    /// order given, sharing one Dijkstra scratch across the runs.
    ///
    /// Each tree depends only on (`topo`, `view`, source), so callers may
    /// split `topo.node_ids()` into contiguous ranges, compute each range
    /// on its own thread, and concatenate the results with
    /// [`from_trees`](Self::from_trees) — byte-identical to the serial
    /// [`compute`](Self::compute) at any thread count.
    pub fn compute_sources(
        topo: &Topology,
        view: &impl GraphView,
        sources: impl IntoIterator<Item = NodeId>,
    ) -> Vec<ShortestPaths> {
        let mut scratch = DijkstraScratch::new();
        sources
            .into_iter()
            .map(|n| scratch.run(topo, view, n).clone())
            .collect()
    }

    /// Assembles a table from per-source trees, where `trees[i]` must be
    /// the tree rooted at `NodeId(i)` — the inverse of splitting
    /// `topo.node_ids()` across [`compute_sources`](Self::compute_sources)
    /// calls.
    pub fn from_trees(trees: Vec<ShortestPaths>) -> Self {
        RoutingTable { trees }
    }

    /// The default next hop at router `from` toward `dest`, with the link
    /// used. `None` when `dest` is unreachable in the table's view or
    /// `from == dest`.
    pub fn next_hop(&self, from: NodeId, dest: NodeId) -> Option<(NodeId, LinkId)> {
        self.trees.get(from.index())?.first_hop(dest)
    }

    /// Routing distance from `from` to `dest`.
    pub fn distance(&self, from: NodeId, dest: NodeId) -> Option<u64> {
        self.trees.get(from.index())?.distance(dest)
    }

    /// The full default routing path from `from` to `dest`.
    pub fn path(&self, from: NodeId, dest: NodeId) -> Option<Path> {
        self.trees.get(from.index())?.path_to(dest)
    }

    /// The shortest-path tree rooted at `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range for the table's topology.
    // Documented contract panic: the table holds one tree per router of the
    // topology it was computed on; an unknown router is a caller bug.
    #[allow(clippy::indexing_slicing)]
    pub fn tree(&self, from: NodeId) -> &ShortestPaths {
        &self.trees[from.index()]
    }

    /// Number of routers in the table.
    pub fn router_count(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_topology::{generate, FailureScenario, FullView};

    #[test]
    fn forwarding_via_next_hops_reaches_destination() {
        let topo = generate::isp_like(30, 60, 2000.0, 31).unwrap();
        let table = RoutingTable::compute(&topo, &FullView);
        for s in topo.node_ids() {
            for t in topo.node_ids() {
                if s == t {
                    assert_eq!(table.next_hop(s, t), None);
                    continue;
                }
                // Hop-by-hop forwarding must converge on t.
                let mut cur = s;
                let mut hops = 0u64;
                while cur != t {
                    let (nxt, _) = table.next_hop(cur, t).expect("connected topology");
                    cur = nxt;
                    hops += 1;
                    assert!(hops <= topo.node_count() as u64, "forwarding loop {s}->{t}");
                }
                assert_eq!(hops, table.distance(s, t).unwrap());
            }
        }
    }

    #[test]
    fn next_hop_agrees_with_path() {
        let topo = generate::grid(4, 4, 10.0);
        let table = RoutingTable::compute(&topo, &FullView);
        let p = table.path(NodeId(0), NodeId(15)).unwrap();
        let (first, l) = table.next_hop(NodeId(0), NodeId(15)).unwrap();
        assert_eq!(p.nodes()[1], first);
        assert_eq!(p.links()[0], l);
        assert_eq!(table.router_count(), 16);
    }

    #[test]
    fn table_over_failed_view_avoids_failures() {
        let topo = generate::grid(3, 3, 10.0);
        // Kill the center node.
        let s = FailureScenario::from_parts(&topo, [NodeId(4)], []);
        let table = RoutingTable::compute(&topo, &s);
        let p = table.path(NodeId(3), NodeId(5)).unwrap();
        assert!(!p.nodes().contains(&NodeId(4)));
        assert_eq!(p.hops(), 4); // around the ring of the grid
    }

    #[test]
    fn unreachable_destination_has_no_next_hop() {
        let topo = generate::path(3, 10.0).unwrap();
        let s = FailureScenario::from_parts(&topo, [NodeId(1)], []);
        let table = RoutingTable::compute(&topo, &s);
        assert_eq!(table.next_hop(NodeId(0), NodeId(2)), None);
        assert_eq!(table.distance(NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn routers_agree_on_subpaths() {
        // Consistency: if s routes to t via n, then n's path to t is the
        // suffix — guaranteed by the deterministic tie-break.
        let topo = generate::isp_like(25, 55, 2000.0, 13).unwrap();
        let table = RoutingTable::compute(&topo, &FullView);
        for s in topo.node_ids() {
            for t in topo.node_ids() {
                if let Some((n, _)) = table.next_hop(s, t) {
                    let ds = table.distance(s, t).unwrap();
                    let dn = table.distance(n, t).unwrap();
                    assert!(dn < ds, "next hop must strictly approach dest");
                }
            }
        }
    }
}
