//! Incremental shortest-path-tree recomputation.
//!
//! RTR's second phase "adopts incremental recomputation [Narvaez et al.] to
//! calculate the shortest path from the recovery initiator to the
//! destination, which can be achieved within a few milliseconds even for
//! graphs with a thousand nodes" (§III-D). This module implements the
//! branch-pruning dynamic SPT update: when links are removed, only the
//! subtree hanging below the removed tree edges is invalidated and repaired
//! from the intact frontier, instead of rerunning Dijkstra from scratch.
//!
//! [`IncrementalSpt::nodes_touched`] exposes how much work each update did,
//! backing the incremental-vs-full ablation bench.

use crate::dial::DialQueue;
use crate::path::Path;
use rtr_obs::{Event, TraceSink};
use rtr_topology::{GraphView, LinkId, NodeId, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Owned buffer bundle for building [`IncrementalSpt`]s without fresh
/// allocations.
///
/// An `IncrementalSpt` borrows its topology, so it cannot itself outlive a
/// per-topology loop; the scratch carries just the label and repair buffers
/// between trees. Build with [`IncrementalSpt::with_view_in`], recover the
/// buffers with [`IncrementalSpt::into_scratch`].
#[derive(Debug, Clone, Default)]
pub struct SptScratch {
    dist: Vec<Option<u64>>,
    parent: Vec<Option<(NodeId, LinkId)>>,
    removed: Vec<bool>,
    children: Vec<Vec<NodeId>>,
    affected: Vec<bool>,
    stack: Vec<NodeId>,
    // The repair loops seed their frontier with absolute distances spanning
    // more than `max_link_cost`, outside Dial's window, so they use a heap;
    // full rebuilds use the bucket queue.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    queue: DialQueue,
}

impl SptScratch {
    /// Distance label left behind by the tree that dissolved into this
    /// scratch (see [`IncrementalSpt::into_scratch`]), or `None` for an
    /// unreachable or out-of-range node. Lets a caller that parks many
    /// per-source trees as scratches (the eval layer's incrementally
    /// patched baseline) query labels without rehydrating the tree.
    pub fn distance(&self, n: NodeId) -> Option<u64> {
        self.dist.get(n.index()).copied().flatten()
    }

    /// Parent label left behind by the dissolved tree (see
    /// [`distance`](Self::distance)).
    pub fn parent(&self, n: NodeId) -> Option<(NodeId, LinkId)> {
        self.parent.get(n.index()).copied().flatten()
    }

    /// Returns true when the dissolved tree had removed link `l` from its
    /// view (out-of-range ids read as not removed).
    pub fn is_removed(&self, l: LinkId) -> bool {
        self.removed.get(l.index()).copied().unwrap_or(false)
    }
}

/// A shortest-path tree that supports removing links incrementally.
///
/// # Examples
///
/// ```
/// use rtr_topology::{generate, NodeId};
/// use rtr_routing::IncrementalSpt;
///
/// let topo = generate::isp_like(30, 60, 2000.0, 1).unwrap();
/// let mut spt = IncrementalSpt::new(&topo, NodeId(0));
/// let before = spt.distance(NodeId(10));
/// // Remove the tree link above node 10 (if any) and repair.
/// if let Some((_, link)) = spt.parent(NodeId(10)) {
///     spt.remove_links([link]);
/// }
/// assert!(spt.distance(NodeId(10)) >= before);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalSpt<'a> {
    topo: &'a Topology,
    source: NodeId,
    dist: Vec<Option<u64>>,
    parent: Vec<Option<(NodeId, LinkId)>>,
    removed: Vec<bool>,
    nodes_touched: usize,
    // Persistent repair scratch: cleared (capacity retained) by each
    // `remove_links`/`reset`, so steady-state updates allocate nothing.
    children: Vec<Vec<NodeId>>,
    affected: Vec<bool>,
    stack: Vec<NodeId>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    queue: DialQueue,
}

impl<'a> IncrementalSpt<'a> {
    /// Builds the initial tree on the intact topology.
    pub fn new(topo: &'a Topology, source: NodeId) -> Self {
        Self::with_view(topo, &rtr_topology::FullView, source)
    }

    /// Builds the initial tree on an arbitrary starting view. Links dead in
    /// `view` are treated as already removed.
    pub fn with_view(topo: &'a Topology, view: &impl GraphView, source: NodeId) -> Self {
        Self::with_view_in(topo, view, source, SptScratch::default())
    }

    /// Like [`with_view`](Self::with_view), but recycles the buffers of a
    /// previous tree (see [`into_scratch`](Self::into_scratch)) so repeated
    /// session construction allocates nothing after warm-up.
    pub fn with_view_in(
        topo: &'a Topology,
        view: &impl GraphView,
        source: NodeId,
        scratch: SptScratch,
    ) -> Self {
        let mut me = IncrementalSpt {
            topo,
            source,
            dist: scratch.dist,
            parent: scratch.parent,
            removed: scratch.removed,
            nodes_touched: 0,
            children: scratch.children,
            affected: scratch.affected,
            stack: scratch.stack,
            heap: scratch.heap,
            queue: scratch.queue,
        };
        me.reset(view, source);
        me
    }

    /// Rehydrates the tree a previous [`into_scratch`](Self::into_scratch)
    /// dissolved, **without recomputation**: the labels and removed-link
    /// state in `scratch` are adopted verbatim.
    ///
    /// This is the steady-state entry point of the incrementally patched
    /// baseline: one scratch per source is parked between churn events,
    /// resumed, patched with [`remove_links`](Self::remove_links) /
    /// [`restore_links`](Self::restore_links), and dissolved again —
    /// event cost proportional to the damage, not to the topology.
    ///
    /// The caller must hand back a scratch whose labels were produced for
    /// this same `topo` and `source`; a mismatched scratch yields a tree
    /// whose queries are garbage (though still panic-free). Labels sized
    /// for a different topology are detected and rebuilt from scratch
    /// against the intact view.
    pub fn resume_in(topo: &'a Topology, source: NodeId, scratch: SptScratch) -> Self {
        let sized_for_topo = scratch.dist.len() == topo.node_count()
            && scratch.parent.len() == topo.node_count()
            && scratch.removed.len() == topo.link_count();
        let mut me = IncrementalSpt {
            topo,
            source,
            dist: scratch.dist,
            parent: scratch.parent,
            removed: scratch.removed,
            nodes_touched: 0,
            children: scratch.children,
            affected: scratch.affected,
            stack: scratch.stack,
            heap: scratch.heap,
            queue: scratch.queue,
        };
        if !sized_for_topo {
            me.reset(&rtr_topology::FullView, source);
        }
        me
    }

    /// Dissolves the tree into its buffer bundle for reuse by the next one.
    pub fn into_scratch(self) -> SptScratch {
        SptScratch {
            dist: self.dist,
            parent: self.parent,
            removed: self.removed,
            children: self.children,
            affected: self.affected,
            stack: self.stack,
            heap: self.heap,
            queue: self.queue,
        }
    }

    /// Recomputes the tree from scratch over `view`, rooted at `source`,
    /// reusing every internal buffer.
    ///
    /// Equivalent to building a fresh tree with [`with_view`](Self::with_view)
    /// but without its allocations — the seed for chained multi-area
    /// recovery sessions, which re-root the same tree per initiator.
    pub fn reset(&mut self, view: &impl GraphView, source: NodeId) {
        self.source = source;
        crate::dijkstra::run_raw(
            self.topo,
            view,
            source,
            None,
            &mut self.dist,
            &mut self.parent,
            &mut self.queue,
            None,
        );
        self.removed.clear();
        self.removed.extend(
            self.topo
                .link_ids()
                .map(|l| !view.is_link_usable(self.topo, l)),
        );
        self.nodes_touched = 0;
    }

    /// The tree's source node.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Current distance to `n`, or `None` if unreachable.
    pub fn distance(&self, n: NodeId) -> Option<u64> {
        self.dist.get(n.index()).copied().flatten()
    }

    /// Current tree parent of `n`.
    pub fn parent(&self, n: NodeId) -> Option<(NodeId, LinkId)> {
        self.parent.get(n.index()).copied().flatten()
    }

    /// Returns true when `l` has been removed from this tree's view.
    pub fn is_removed(&self, l: LinkId) -> bool {
        self.removed.get(l.index()).copied().unwrap_or(false)
    }

    /// Overwrites `n`'s tree label (no-op when out of range).
    fn set_label(&mut self, n: NodeId, dist: Option<u64>, parent: Option<(NodeId, LinkId)>) {
        if let Some(d) = self.dist.get_mut(n.index()) {
            *d = dist;
        }
        if let Some(p) = self.parent.get_mut(n.index()) {
            *p = parent;
        }
    }

    /// Nodes whose labels the last `remove_links` call re-examined — the
    /// work metric for the incremental-vs-full ablation.
    pub fn nodes_touched(&self) -> usize {
        self.nodes_touched
    }

    /// Reconstructs the current shortest path to `dest`.
    pub fn path_to(&self, dest: NodeId) -> Option<Path> {
        let total = self.distance(dest)?;
        Some(crate::path::from_parent_walk(
            self.source,
            dest,
            total,
            |n| self.parent(n),
        ))
    }

    /// Removes a batch of links and repairs the tree.
    ///
    /// Removing a non-tree link costs nothing. Removing tree links
    /// invalidates exactly the hanging subtrees, then repairs them with a
    /// bounded Dijkstra seeded from the intact frontier (Narvaez
    /// branch-pruning update).
    pub fn remove_links(&mut self, links: impl IntoIterator<Item = LinkId>) {
        self.nodes_touched = 0;
        let mut tree_cut = false;
        for l in links {
            if !self.is_removed(l) {
                if let Some(r) = self.removed.get_mut(l.index()) {
                    *r = true;
                }
                // Is l a tree edge? (i.e. some node's parent link)
                let (a, b) = self.topo.link(l).endpoints();
                let is_tree = matches!(self.parent(a), Some((_, pl)) if pl == l)
                    || matches!(self.parent(b), Some((_, pl)) if pl == l);
                tree_cut |= is_tree;
            }
        }
        if !tree_cut {
            return;
        }

        let is_affected = |aff: &[bool], n: NodeId| aff.get(n.index()).copied().unwrap_or(false);
        let mark_affected = |aff: &mut [bool], n: NodeId| {
            if let Some(s) = aff.get_mut(n.index()) {
                *s = true;
            }
        };

        // 1. Collect the affected set: nodes whose tree path uses a removed
        //    link. Walk children lists derived from the parent array. The
        //    scratch buffers live on `self` (taken here, restored below) so
        //    only their first use allocates; clearing retains capacity.
        let n = self.topo.node_count();
        let mut children = std::mem::take(&mut self.children);
        let mut affected = std::mem::take(&mut self.affected);
        let mut stack = std::mem::take(&mut self.stack);
        let mut heap = std::mem::take(&mut self.heap);
        if children.len() < n {
            children.resize_with(n, Vec::new);
        }
        for list in children.iter_mut() {
            list.clear();
        }
        for node in self.topo.node_ids() {
            if let Some((p, _)) = self.parent(node) {
                if let Some(list) = children.get_mut(p.index()) {
                    list.push(node);
                }
            }
        }
        affected.clear();
        affected.resize(n, false);
        stack.clear();
        for node in self.topo.node_ids() {
            if let Some((_, pl)) = self.parent(node) {
                if self.is_removed(pl) && !is_affected(&affected, node) {
                    mark_affected(&mut affected, node);
                    stack.push(node);
                }
            }
        }
        while let Some(u) = stack.pop() {
            let kids: &[NodeId] = children.get(u.index()).map_or(&[], Vec::as_slice);
            for &c in kids {
                if !is_affected(&affected, c) {
                    mark_affected(&mut affected, c);
                    stack.push(c);
                }
            }
        }

        // 2. Invalidate affected labels and seed the repair heap from
        //    usable links crossing the frontier (intact -> affected).
        heap.clear();
        for node in self.topo.node_ids() {
            if is_affected(&affected, node) {
                self.set_label(node, None, None);
                self.nodes_touched += 1;
            }
        }
        for node in self.topo.node_ids() {
            if is_affected(&affected, node) {
                continue;
            }
            let Some(du) = self.distance(node) else {
                continue;
            };
            for &(v, l) in self.topo.neighbors(node) {
                if !is_affected(&affected, v) || self.is_removed(l) {
                    continue;
                }
                let nd = du + u64::from(self.topo.cost_from(l, node));
                if self.improves(v, nd, node, l) {
                    self.set_label(v, Some(nd), Some((node, l)));
                    heap.push(Reverse((nd, v.0)));
                }
            }
        }

        // 3. Bounded Dijkstra over the affected region only.
        while let Some(Reverse((d, u))) = heap.pop() {
            let u = NodeId(u);
            if self.distance(u) != Some(d) {
                continue;
            }
            self.nodes_touched += 1;
            for &(v, l) in self.topo.neighbors(u) {
                if !is_affected(&affected, v) || self.is_removed(l) {
                    continue;
                }
                let nd = d + u64::from(self.topo.cost_from(l, u));
                if self.improves(v, nd, u, l) {
                    self.set_label(v, Some(nd), Some((u, l)));
                    heap.push(Reverse((nd, v.0)));
                }
            }
        }

        self.children = children;
        self.affected = affected;
        self.stack = stack;
        self.heap = heap;
    }

    /// Like [`remove_links`](Self::remove_links), additionally emitting
    /// one [`Event::SptRecompute`](rtr_obs::Event::SptRecompute) into
    /// `sink` once the repair completes (one emission per shortest-path
    /// calculation — the Table IV `#SP` unit). With
    /// [`NoopSink`](rtr_obs::NoopSink) this monomorphizes to exactly
    /// `remove_links`.
    pub fn remove_links_traced<S: TraceSink>(
        &mut self,
        links: impl IntoIterator<Item = LinkId>,
        sink: &mut S,
    ) {
        self.remove_links(links);
        sink.emit(Event::SptRecompute {
            source: self.source,
            nodes_touched: self.nodes_touched,
        });
    }

    /// Restores a batch of previously removed links and repairs the tree
    /// incrementally — the `LinkUp` counterpart of
    /// [`remove_links`](Self::remove_links).
    ///
    /// Restoring a link can only shorten paths (or break equal-cost ties
    /// toward a smaller `(parent, link)` pair), so the repair seeds a
    /// label-correcting pass from the restored links' endpoints and
    /// propagates improvements outward; nodes whose labels cannot improve
    /// are never touched. Restoring a link that was never removed is a
    /// no-op. The result is the same canonical tree a fresh build over
    /// the patched view produces: distances are unique, and every node's
    /// parent is its minimum `(NodeId, LinkId)` tight predecessor — the
    /// invariant [`improves`](Self::remove_links) maintains everywhere,
    /// which is what makes incremental patches byte-identical to full
    /// rebuilds.
    pub fn restore_links(&mut self, links: impl IntoIterator<Item = LinkId>) {
        self.nodes_touched = 0;
        let mut heap = std::mem::take(&mut self.heap);
        heap.clear();
        for l in links {
            if !self.is_removed(l) {
                continue;
            }
            if let Some(r) = self.removed.get_mut(l.index()) {
                *r = false;
            }
            let (a, b) = self.topo.link(l).endpoints();
            for (from, to) in [(a, b), (b, a)] {
                let Some(df) = self.distance(from) else {
                    continue;
                };
                let nd = df + u64::from(self.topo.cost_from(l, from));
                if self.improves(to, nd, from, l) {
                    self.set_label(to, Some(nd), Some((from, l)));
                    heap.push(Reverse((nd, to.0)));
                }
            }
        }

        // Label-correcting pass: every improved node re-relaxes all its
        // usable out-links, so improvements (including newly reachable
        // regions behind a restored bridge) propagate to a fixpoint where
        // no usable link improves any label — the canonical tree.
        while let Some(Reverse((d, u))) = heap.pop() {
            let u = NodeId(u);
            if self.distance(u) != Some(d) {
                continue;
            }
            self.nodes_touched += 1;
            for &(v, l) in self.topo.neighbors(u) {
                if self.is_removed(l) {
                    continue;
                }
                let nd = d + u64::from(self.topo.cost_from(l, u));
                if self.improves(v, nd, u, l) {
                    self.set_label(v, Some(nd), Some((u, l)));
                    heap.push(Reverse((nd, v.0)));
                }
            }
        }
        self.heap = heap;
    }

    /// Like [`restore_links`](Self::restore_links), additionally emitting
    /// one [`Event::SptRecompute`](rtr_obs::Event::SptRecompute) with the
    /// repair's touched-node count. With [`NoopSink`](rtr_obs::NoopSink)
    /// this monomorphizes to exactly `restore_links`.
    pub fn restore_links_traced<S: TraceSink>(
        &mut self,
        links: impl IntoIterator<Item = LinkId>,
        sink: &mut S,
    ) {
        self.restore_links(links);
        sink.emit(Event::SptRecompute {
            source: self.source,
            nodes_touched: self.nodes_touched,
        });
    }

    fn improves(&self, v: NodeId, nd: u64, from: NodeId, l: LinkId) -> bool {
        match self.distance(v) {
            None => true,
            Some(old) => {
                nd < old
                    || (nd == old
                        && match self.parent(v) {
                            None => true,
                            Some((p, pl)) => (from, l) < (p, pl),
                        })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use rtr_topology::{generate, LinkMask};

    /// Oracle: distances after incremental removal must equal a fresh
    /// Dijkstra over the masked view.
    fn assert_matches_oracle(topo: &Topology, spt: &IncrementalSpt<'_>, removed: &[LinkId]) {
        let mask = LinkMask::from_links(topo, removed.iter().copied());
        let oracle = dijkstra(topo, &mask, spt.source());
        for n in topo.node_ids() {
            assert_eq!(
                spt.distance(n),
                oracle.distance(n),
                "distance mismatch at {n} after removing {removed:?}"
            );
        }
    }

    #[test]
    fn removing_non_tree_link_is_free() {
        let topo = generate::grid(4, 4, 10.0);
        let mut spt = IncrementalSpt::new(&topo, NodeId(0));
        // Find a link that is not any node's parent link.
        let non_tree = topo
            .link_ids()
            .find(|&l| {
                topo.node_ids()
                    .all(|n| !matches!(spt.parent(n), Some((_, pl)) if pl == l))
            })
            .expect("a 4x4 grid has non-tree links");
        let before: Vec<_> = topo.node_ids().map(|n| spt.distance(n)).collect();
        spt.remove_links([non_tree]);
        assert_eq!(spt.nodes_touched(), 0);
        let after: Vec<_> = topo.node_ids().map(|n| spt.distance(n)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn removing_tree_link_matches_full_recompute() {
        let topo = generate::grid(5, 5, 10.0);
        let mut spt = IncrementalSpt::new(&topo, NodeId(0));
        let (_, tree_link) = spt.parent(NodeId(24)).unwrap();
        spt.remove_links([tree_link]);
        assert_matches_oracle(&topo, &spt, &[tree_link]);
        assert!(spt.nodes_touched() > 0);
        assert!(spt.is_removed(tree_link));
    }

    #[test]
    fn traced_removal_emits_one_spt_recompute_event() {
        let topo = generate::grid(5, 5, 10.0);
        let mut spt = IncrementalSpt::new(&topo, NodeId(0));
        let (_, tree_link) = spt.parent(NodeId(24)).unwrap();
        let mut sink = rtr_obs::CollectingSink::new();
        spt.remove_links_traced([tree_link], &mut sink);
        assert_eq!(
            sink.events(),
            &[Event::SptRecompute {
                source: NodeId(0),
                nodes_touched: spt.nodes_touched(),
            }]
        );
        assert_matches_oracle(&topo, &spt, &[tree_link]);
    }

    #[test]
    fn batch_removal_matches_full_recompute() {
        let topo = generate::isp_like(40, 90, 2000.0, 77).unwrap();
        let mut spt = IncrementalSpt::new(&topo, NodeId(3));
        let removed: Vec<LinkId> = topo.link_ids().take(15).collect();
        spt.remove_links(removed.iter().copied());
        assert_matches_oracle(&topo, &spt, &removed);
    }

    #[test]
    fn repeated_removals_accumulate() {
        let topo = generate::isp_like(30, 70, 2000.0, 5).unwrap();
        let mut spt = IncrementalSpt::new(&topo, NodeId(0));
        let mut all_removed = Vec::new();
        for l in topo.link_ids().step_by(7) {
            all_removed.push(l);
            spt.remove_links([l]);
            assert_matches_oracle(&topo, &spt, &all_removed);
        }
    }

    #[test]
    fn disconnection_yields_none() {
        let topo = generate::path(4, 10.0).unwrap();
        let mut spt = IncrementalSpt::new(&topo, NodeId(0));
        let middle = topo.link_between(NodeId(1), NodeId(2)).unwrap();
        spt.remove_links([middle]);
        assert_eq!(spt.distance(NodeId(0)), Some(0));
        assert_eq!(spt.distance(NodeId(1)), Some(1));
        assert_eq!(spt.distance(NodeId(2)), None);
        assert_eq!(spt.distance(NodeId(3)), None);
        assert!(spt.path_to(NodeId(3)).is_none());
    }

    #[test]
    fn with_view_starts_from_failed_state() {
        let topo = generate::grid(3, 3, 10.0);
        let mask = LinkMask::from_links(&topo, [LinkId(0)]);
        let spt = IncrementalSpt::with_view(&topo, &mask, NodeId(0));
        let oracle = dijkstra(&topo, &mask, NodeId(0));
        for n in topo.node_ids() {
            assert_eq!(spt.distance(n), oracle.distance(n));
        }
        assert!(spt.is_removed(LinkId(0)));
    }

    #[test]
    fn path_reconstruction_after_update() {
        let topo = generate::grid(4, 4, 10.0);
        let mut spt = IncrementalSpt::new(&topo, NodeId(0));
        let (_, l) = spt.parent(NodeId(15)).unwrap();
        spt.remove_links([l]);
        let p = spt.path_to(NodeId(15)).unwrap();
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.dest(), NodeId(15));
        assert!(p.is_simple());
        assert!(!p.links().contains(&l));
        assert_eq!(Some(p.cost()), spt.distance(NodeId(15)));
    }

    #[test]
    fn double_removal_is_idempotent() {
        let topo = generate::grid(4, 4, 10.0);
        let mut spt = IncrementalSpt::new(&topo, NodeId(0));
        let (_, l) = spt.parent(NodeId(15)).unwrap();
        spt.remove_links([l]);
        let snapshot: Vec<_> = topo.node_ids().map(|n| spt.distance(n)).collect();
        spt.remove_links([l]);
        assert_eq!(spt.nodes_touched(), 0);
        let after: Vec<_> = topo.node_ids().map(|n| spt.distance(n)).collect();
        assert_eq!(snapshot, after);
    }

    #[test]
    fn reset_matches_fresh_with_view() {
        let topo = generate::isp_like(35, 80, 2000.0, 42).unwrap();
        let removed: Vec<LinkId> = topo.link_ids().step_by(5).collect();
        let mask = LinkMask::from_links(&topo, removed.iter().copied());
        // Dirty the tree first so reset has real state to clear.
        let mut spt = IncrementalSpt::new(&topo, NodeId(0));
        spt.remove_links(topo.link_ids().take(10));
        for src in [NodeId(2), NodeId(17), NodeId(34)] {
            spt.reset(&mask, src);
            let fresh = IncrementalSpt::with_view(&topo, &mask, src);
            assert_eq!(spt.source(), src);
            assert_eq!(spt.nodes_touched(), 0);
            for n in topo.node_ids() {
                assert_eq!(spt.distance(n), fresh.distance(n));
                assert_eq!(spt.parent(n), fresh.parent(n));
            }
            for l in topo.link_ids() {
                assert_eq!(spt.is_removed(l), fresh.is_removed(l));
            }
        }
    }

    #[test]
    fn reset_then_remove_links_matches_oracle() {
        let topo = generate::isp_like(30, 70, 2000.0, 9).unwrap();
        let mut spt = IncrementalSpt::new(&topo, NodeId(0));
        spt.remove_links(topo.link_ids().take(8));
        spt.reset(&rtr_topology::FullView, NodeId(4));
        let removed: Vec<LinkId> = topo.link_ids().skip(3).step_by(6).collect();
        spt.remove_links(removed.iter().copied());
        assert_matches_oracle(&topo, &spt, &removed);
    }

    /// Stronger oracle: distances *and* parents must equal a fresh
    /// Dijkstra over the masked view — the canonical-tree property that
    /// makes incremental patches byte-identical to rebuilds.
    fn assert_canonical(topo: &Topology, spt: &IncrementalSpt<'_>, removed: &[LinkId]) {
        let mask = LinkMask::from_links(topo, removed.iter().copied());
        let oracle = dijkstra(topo, &mask, spt.source());
        for n in topo.node_ids() {
            assert_eq!(spt.distance(n), oracle.distance(n), "distance at {n}");
            assert_eq!(spt.parent(n), oracle.parent(n), "parent at {n}");
        }
    }

    #[test]
    fn restore_never_removed_link_is_a_noop() {
        let topo = generate::grid(4, 4, 10.0);
        let mut spt = IncrementalSpt::new(&topo, NodeId(0));
        let before: Vec<_> = topo
            .node_ids()
            .map(|n| (spt.distance(n), spt.parent(n)))
            .collect();
        spt.restore_links(topo.link_ids());
        assert_eq!(spt.nodes_touched(), 0);
        let after: Vec<_> = topo
            .node_ids()
            .map(|n| (spt.distance(n), spt.parent(n)))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn remove_then_restore_returns_to_canonical_intact_tree() {
        let topo = generate::isp_like(40, 90, 2000.0, 11).unwrap();
        let mut spt = IncrementalSpt::new(&topo, NodeId(7));
        let fresh = IncrementalSpt::new(&topo, NodeId(7));
        let cut: Vec<LinkId> = topo.link_ids().step_by(4).collect();
        spt.remove_links(cut.iter().copied());
        spt.restore_links(cut.iter().copied());
        for n in topo.node_ids() {
            assert_eq!(spt.distance(n), fresh.distance(n), "distance at {n}");
            assert_eq!(spt.parent(n), fresh.parent(n), "parent at {n}");
        }
        for l in topo.link_ids() {
            assert!(!spt.is_removed(l));
        }
    }

    #[test]
    fn restore_reconnects_severed_component() {
        let topo = generate::path(5, 10.0).unwrap();
        let mut spt = IncrementalSpt::new(&topo, NodeId(0));
        let middle = topo.link_between(NodeId(1), NodeId(2)).unwrap();
        spt.remove_links([middle]);
        assert_eq!(spt.distance(NodeId(4)), None);
        spt.restore_links([middle]);
        assert_canonical(&topo, &spt, &[]);
        assert_eq!(spt.distance(NodeId(4)), Some(4));
    }

    #[test]
    fn interleaved_remove_restore_matches_oracle() {
        let topo = generate::isp_like(35, 85, 2000.0, 23).unwrap();
        let mut spt = IncrementalSpt::new(&topo, NodeId(2));
        let mut down: Vec<LinkId> = Vec::new();
        // A deterministic interleaving: fail three, repair one, repeat.
        for (i, l) in topo.link_ids().enumerate() {
            if i % 4 == 3 {
                if let Some(repaired) = down.pop() {
                    spt.restore_links([repaired]);
                }
            } else {
                down.push(l);
                spt.remove_links([l]);
            }
            assert_canonical(&topo, &spt, &down);
        }
        // Repair everything still down, in reverse order.
        while let Some(l) = down.pop() {
            spt.restore_links([l]);
            assert_canonical(&topo, &spt, &down);
        }
    }

    #[test]
    fn traced_restore_emits_one_spt_recompute_event() {
        let topo = generate::grid(5, 5, 10.0);
        let mut spt = IncrementalSpt::new(&topo, NodeId(0));
        let (_, tree_link) = spt.parent(NodeId(24)).unwrap();
        spt.remove_links([tree_link]);
        let mut sink = rtr_obs::CollectingSink::new();
        spt.restore_links_traced([tree_link], &mut sink);
        assert_eq!(
            sink.events(),
            &[Event::SptRecompute {
                source: NodeId(0),
                nodes_touched: spt.nodes_touched(),
            }]
        );
        assert_canonical(&topo, &spt, &[]);
    }

    #[test]
    fn resume_in_adopts_parked_labels_verbatim() {
        let topo = generate::isp_like(30, 70, 2000.0, 6).unwrap();
        let mut spt = IncrementalSpt::new(&topo, NodeId(5));
        let cut: Vec<LinkId> = topo.link_ids().take(9).collect();
        spt.remove_links(cut.iter().copied());
        let snapshot: Vec<_> = topo
            .node_ids()
            .map(|n| (spt.distance(n), spt.parent(n)))
            .collect();
        let scratch = spt.into_scratch();
        // The parked scratch answers label queries directly.
        for (n, &(d, p)) in topo.node_ids().zip(snapshot.iter()) {
            assert_eq!(scratch.distance(n), d);
            assert_eq!(scratch.parent(n), p);
        }
        assert!(scratch.is_removed(cut[0]));
        let mut resumed = IncrementalSpt::resume_in(&topo, NodeId(5), scratch);
        assert_eq!(resumed.nodes_touched(), 0, "resume never recomputes");
        for (n, &(d, p)) in topo.node_ids().zip(snapshot.iter()) {
            assert_eq!(resumed.distance(n), d);
            assert_eq!(resumed.parent(n), p);
        }
        // And the resumed tree keeps patching correctly.
        resumed.restore_links(cut.iter().copied());
        assert_canonical(&topo, &resumed, &[]);
    }

    #[test]
    fn resume_in_rebuilds_on_mismatched_scratch() {
        let topo = generate::grid(4, 4, 10.0);
        let spt = IncrementalSpt::resume_in(&topo, NodeId(3), SptScratch::default());
        let fresh = IncrementalSpt::new(&topo, NodeId(3));
        for n in topo.node_ids() {
            assert_eq!(spt.distance(n), fresh.distance(n));
            assert_eq!(spt.parent(n), fresh.parent(n));
        }
    }

    #[test]
    fn source_is_never_affected() {
        let topo = generate::star(6, 10.0).unwrap();
        let mut spt = IncrementalSpt::new(&topo, NodeId(0));
        spt.remove_links(topo.link_ids());
        assert_eq!(spt.distance(NodeId(0)), Some(0));
        for i in 1..6 {
            assert_eq!(spt.distance(NodeId(i)), None);
        }
        // Source reachable from itself even with the whole star cut.
        assert_eq!(spt.path_to(NodeId(0)).unwrap().hops(), 0);
    }
}
