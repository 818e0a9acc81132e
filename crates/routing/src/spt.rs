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
//! Every tree keeps a child index over its parent array
//! ([`SptLabels`]), so an update finds the hanging subtrees by walking
//! down from the cut links and never scans the whole topology: its cost
//! is proportional to the labels it changes and their neighbour lists.
//! [`IncrementalSpt::nodes_touched`] exposes how much work each update did,
//! backing the incremental-vs-full ablation bench.

use crate::dial::DialQueue;
use crate::path::Path;
use rtr_topology::{GraphView, LinkId, LinkMask, NodeId, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "no node" in parent and child-index fields.
const NIL: u32 = u32::MAX;

/// Sentinel distance of an unreachable node.
const UNREACHED: u64 = u64::MAX;

fn node(i: u32) -> Option<NodeId> {
    (i != NIL).then_some(NodeId(i))
}

/// One node's entry in a tree: its labels and its child-index links,
/// packed into 32 bytes so that reading or rewriting a node touches one
/// record instead of one slot in each of five arrays.
#[derive(Debug, Clone, Copy)]
struct Label {
    /// Distance from the source ([`UNREACHED`] when unreachable).
    dist: u64,
    /// Parent node ([`NIL`] for the source and unreachable nodes).
    parent: u32,
    /// Link to the parent (meaningless when `parent` is [`NIL`]).
    link: u32,
    /// Head of this node's child list.
    first_child: u32,
    /// Neighbours in the parent's child list.
    next_sibling: u32,
    prev_sibling: u32,
}

const UNREACHED_LABEL: Label = Label {
    dist: UNREACHED,
    parent: NIL,
    link: NIL,
    first_child: NIL,
    next_sibling: NIL,
    prev_sibling: NIL,
};

/// The persistent part of one shortest-path tree: every node's distance
/// and parent labels plus a child index over the parent links.
///
/// The child index is a set of doubly linked sibling lists (first child,
/// next and previous sibling), kept current by every label write, so the
/// subtree below any node is enumerable in time proportional to its size.
/// Everything else an update needs is working memory in [`SptScratch`],
/// which many trees can share: the eval layer's incrementally patched
/// baseline parks one `SptLabels` per source and swaps it into a single
/// scratch to patch it (see [`SptScratch::swap_labels`]).
#[derive(Debug, Clone, Default)]
pub struct SptLabels {
    nodes: Vec<Label>,
}

impl SptLabels {
    /// Distance label of `n`, or `None` for an unreachable or out-of-range
    /// node.
    pub fn distance(&self, n: NodeId) -> Option<u64> {
        let d = self.nodes.get(n.index())?.dist;
        (d != UNREACHED).then_some(d)
    }

    /// Parent label of `n`: the tree neighbour and link its path arrives
    /// over (`None` for the source, unreachable or out-of-range nodes).
    pub fn parent(&self, n: NodeId) -> Option<(NodeId, LinkId)> {
        let rec = self.nodes.get(n.index())?;
        node(rec.parent).map(|p| (p, LinkId(rec.link)))
    }

    fn first_child(&self, n: NodeId) -> Option<NodeId> {
        node(self.nodes.get(n.index())?.first_child)
    }

    fn next_sibling(&self, n: NodeId) -> Option<NodeId> {
        node(self.nodes.get(n.index())?.next_sibling)
    }

    fn at(&mut self, i: u32) -> Option<&mut Label> {
        self.nodes.get_mut(i as usize)
    }

    /// Replaces every label with a Dijkstra run's output and rebuilds the
    /// child index.
    fn load(&mut self, dist: &[Option<u64>], parent: &[Option<(NodeId, LinkId)>]) {
        self.nodes.clear();
        self.nodes
            .extend(dist.iter().zip(parent).map(|(&d, &p)| Label {
                dist: d.unwrap_or(UNREACHED),
                parent: p.map_or(NIL, |(p, _)| p.0),
                link: p.map_or(NIL, |(_, l)| l.0),
                ..UNREACHED_LABEL
            }));
        for v in (0..self.nodes.len()).rev() {
            if let Some(p) = self.nodes.get(v).map(|rec| rec.parent) {
                if p != NIL {
                    self.link_child(v as u32, p);
                }
            }
        }
    }

    /// Pushes `v` onto the front of `p`'s child list.
    fn link_child(&mut self, v: u32, p: u32) {
        let Some(head) = self
            .at(p)
            .map(|rec| std::mem::replace(&mut rec.first_child, v))
        else {
            return;
        };
        if let Some(rec) = self.at(v) {
            rec.next_sibling = head;
            rec.prev_sibling = NIL;
        }
        if let Some(rec) = self.at(head) {
            rec.prev_sibling = v;
        }
    }

    /// Unlinks `v` from `p`'s child list.
    fn unlink_child(&mut self, v: u32, p: u32) {
        let Some((prev, next)) = self.at(v).map(|rec| (rec.prev_sibling, rec.next_sibling)) else {
            return;
        };
        if prev == NIL {
            if let Some(rec) = self.at(p) {
                rec.first_child = next;
            }
        } else if let Some(rec) = self.at(prev) {
            rec.next_sibling = next;
        }
        if let Some(rec) = self.at(next) {
            rec.prev_sibling = prev;
        }
    }

    /// Overwrites `n`'s labels, moving it between child lists when its
    /// parent node changes (no-op when out of range).
    fn set(&mut self, n: NodeId, dist: Option<u64>, parent: Option<(NodeId, LinkId)>) {
        let new = parent.map_or(NIL, |(p, _)| p.0);
        let Some(rec) = self.at(n.0) else {
            return;
        };
        rec.dist = dist.unwrap_or(UNREACHED);
        rec.link = parent.map_or(NIL, |(_, l)| l.0);
        let old = std::mem::replace(&mut rec.parent, new);
        if old != new {
            if old != NIL {
                self.unlink_child(n.0, old);
            }
            if new != NIL {
                self.link_child(n.0, new);
            }
        }
    }

    /// Whether a path reaching `v` at distance `nd` over `(from, l)` beats
    /// `v`'s label: shorter, or equally short with a smaller
    /// `(parent, link)` pair — the order that makes the tree canonical.
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

/// Owned state of an [`IncrementalSpt`] apart from its topology borrow:
/// the tree's [`SptLabels`], its removed-link mask and the repair buffers.
///
/// An `IncrementalSpt` borrows its topology, so it cannot itself outlive a
/// per-topology loop; the scratch carries its buffers between trees. Build
/// with [`IncrementalSpt::with_view_in`], recover the buffers with
/// [`IncrementalSpt::into_scratch`]. One scratch can also serve many
/// parked trees in turn: [`swap_labels`](Self::swap_labels) exchanges the
/// tree it carries, and [`swap_removed`](Self::swap_removed) lends it a
/// mask the trees share.
#[derive(Debug, Clone, Default)]
pub struct SptScratch {
    labels: SptLabels,
    removed: LinkMask,
    // A full rebuild's Dijkstra output, packed into `labels` by `reset`.
    dist: Vec<Option<u64>>,
    parent: Vec<Option<(NodeId, LinkId)>>,
    // Repair working memory. `marked[v]` holds exactly while `v` is in
    // `rerouted` during an update; every update clears its marks by
    // walking `rerouted`, never by scanning all nodes.
    marked: Vec<bool>,
    rerouted: Vec<NodeId>,
    // The repair loops seed their frontier with absolute distances spanning
    // more than `max_link_cost`, outside Dial's window, so they use a heap;
    // full rebuilds use the bucket queue.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    queue: DialQueue,
}

impl SptScratch {
    /// Exchanges the tree labels this scratch carries with `parked`.
    pub fn swap_labels(&mut self, parked: &mut SptLabels) {
        std::mem::swap(&mut self.labels, parked);
    }

    /// Exchanges this scratch's removed-link mask with `mask`.
    pub fn swap_removed(&mut self, mask: &mut LinkMask) {
        std::mem::swap(&mut self.removed, mask);
    }

    fn is_marked(&self, n: NodeId) -> bool {
        self.marked.get(n.index()).copied().unwrap_or(false)
    }

    /// Marks `n` and appends it to `rerouted` unless already marked.
    fn mark(&mut self, n: NodeId) {
        if let Some(m) = self.marked.get_mut(n.index()) {
            if !*m {
                *m = true;
                self.rerouted.push(n);
            }
        }
    }

    /// Starts an update: empties `rerouted` and the heap, and sizes the
    /// marks for `n` nodes (all clear between updates).
    fn begin(&mut self, n: usize) {
        self.rerouted.clear();
        self.heap.clear();
        if self.marked.len() != n {
            self.marked.clear();
            self.marked.resize(n, false);
        }
    }

    /// Extends `rerouted` with every descendant of its members.
    fn close_subtrees(&mut self) {
        let mut i = 0;
        while let Some(&v) = self.rerouted.get(i) {
            i += 1;
            let mut c = self.labels.first_child(v);
            while let Some(child) = c {
                self.mark(child);
                c = self.labels.next_sibling(child);
            }
        }
    }

    /// Clears the marks of every `rerouted` node.
    fn unmark(&mut self) {
        for &n in &self.rerouted {
            if let Some(m) = self.marked.get_mut(n.index()) {
                *m = false;
            }
        }
    }

    /// Sets `v`'s labels and queues it for relaxation.
    fn settle(&mut self, v: NodeId, nd: u64, from: NodeId, l: LinkId) {
        self.labels.set(v, Some(nd), Some((from, l)));
        self.heap.push(Reverse((nd, v.0)));
    }

    /// The body of [`IncrementalSpt::remove_links`]; returns the labels
    /// re-examined.
    fn remove_links(&mut self, topo: &Topology, links: impl IntoIterator<Item = LinkId>) -> usize {
        self.begin(topo.node_count());
        // 1. Mark the links removed. A link already removed is never a
        //    tree link; a cut tree link roots an affected subtree at its
        //    child endpoint.
        for l in links {
            if l.index() >= topo.link_count() {
                continue;
            }
            self.removed.remove(l);
            let (a, b) = topo.link(l).endpoints();
            for x in [a, b] {
                if matches!(self.labels.parent(x), Some((_, pl)) if pl == l) {
                    self.mark(x);
                }
            }
        }
        if self.rerouted.is_empty() {
            return 0;
        }

        // 2. The affected set: the cut subtrees, found down the child
        //    index. Invalidate exactly those labels.
        self.close_subtrees();
        let affected = std::mem::take(&mut self.rerouted);
        for &v in &affected {
            self.labels.set(v, None, None);
        }
        let mut touched = affected.len();

        // 3. Seed each affected node from its own neighbour list: its best
        //    usable link from the intact frontier. (The minimum under
        //    `improves`' order is the label any scan order converges to,
        //    and queueing only it leaves the heap's live entries as a
        //    frontier-first scan would.)
        for &v in &affected {
            let mut best: Option<(u64, NodeId, LinkId)> = None;
            for &(u, l) in topo.neighbors(v) {
                if self.is_marked(u) || self.removed.is_removed(l) {
                    continue;
                }
                let Some(du) = self.labels.distance(u) else {
                    continue;
                };
                let cand = (du + u64::from(topo.cost_from(l, u)), u, l);
                if best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            }
            if let Some((nd, u, l)) = best {
                self.settle(v, nd, u, l);
            }
        }

        // 4. Bounded Dijkstra over the affected region only.
        while let Some(Reverse((d, u))) = self.heap.pop() {
            let u = NodeId(u);
            if self.labels.distance(u) != Some(d) {
                continue;
            }
            touched += 1;
            for &(v, l) in topo.neighbors(u) {
                if !self.is_marked(v) || self.removed.is_removed(l) {
                    continue;
                }
                let nd = d + u64::from(topo.cost_from(l, u));
                if self.labels.improves(v, nd, u, l) {
                    self.settle(v, nd, u, l);
                }
            }
        }
        self.rerouted = affected;
        self.unmark();
        touched
    }

    /// The body of [`IncrementalSpt::restore_links`]; returns the labels
    /// re-examined.
    fn restore_links(&mut self, topo: &Topology, links: impl IntoIterator<Item = LinkId>) -> usize {
        self.begin(topo.node_count());
        for l in links {
            if !self.removed.is_removed(l) {
                continue;
            }
            self.removed.restore(l);
            let (a, b) = topo.link(l).endpoints();
            for (from, to) in [(a, b), (b, a)] {
                if let Some(df) = self.labels.distance(from) {
                    self.relax(topo, from, df, to, l);
                }
            }
        }

        // Label-correcting pass: every improved node re-relaxes all its
        // usable out-links, so improvements (including newly reachable
        // regions behind a restored bridge) propagate to a fixpoint where
        // no usable link improves any label — the canonical tree.
        let mut touched = 0;
        while let Some(Reverse((d, u))) = self.heap.pop() {
            let u = NodeId(u);
            if self.labels.distance(u) != Some(d) {
                continue;
            }
            touched += 1;
            for &(v, l) in topo.neighbors(u) {
                if !self.removed.is_removed(l) {
                    self.relax(topo, u, d, v, l);
                }
            }
        }
        // A node's path changed only if it or an ancestor took a new
        // parent; a distance drop under the same parent always starts at
        // such an ancestor.
        self.close_subtrees();
        self.unmark();
        touched
    }

    /// Relaxes `from → to` over `l`, recording `to` in `rerouted` when it
    /// takes a new parent.
    fn relax(&mut self, topo: &Topology, from: NodeId, d_from: u64, to: NodeId, l: LinkId) {
        let nd = d_from + u64::from(topo.cost_from(l, from));
        if self.labels.improves(to, nd, from, l) {
            if self.labels.parent(to) != Some((from, l)) {
                self.mark(to);
            }
            self.settle(to, nd, from, l);
        }
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
    nodes_touched: usize,
    s: SptScratch,
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
            nodes_touched: 0,
            s: scratch,
        };
        me.reset(view, source);
        me
    }

    /// Rehydrates the tree a previous [`into_scratch`](Self::into_scratch)
    /// dissolved, **without recomputation**: the labels and removed-link
    /// mask in `scratch` are adopted verbatim.
    ///
    /// This is the steady-state entry point of the incrementally patched
    /// baseline: each source's labels are parked between churn events,
    /// swapped into a shared scratch, resumed, patched with
    /// [`remove_links`](Self::remove_links) /
    /// [`restore_links`](Self::restore_links), and dissolved again. Each
    /// patch costs the labels it changes and their neighbour lists (see
    /// [`nodes_touched`](Self::nodes_touched)), not the topology.
    ///
    /// The caller must hand back a scratch whose labels were produced for
    /// this same `topo` and `source`; a mismatched scratch yields a tree
    /// whose queries are garbage (though still panic-free). Labels or a
    /// mask sized for a different topology are detected and rebuilt from
    /// scratch against the intact view.
    pub fn resume_in(topo: &'a Topology, source: NodeId, scratch: SptScratch) -> Self {
        let sized_for_topo = scratch.labels.nodes.len() == topo.node_count()
            && scratch.removed.link_count() == topo.link_count();
        let mut me = IncrementalSpt {
            topo,
            source,
            nodes_touched: 0,
            s: scratch,
        };
        me.s.rerouted.clear();
        if !sized_for_topo {
            me.reset(&rtr_topology::FullView, source);
        }
        me
    }

    /// Dissolves the tree into its buffer bundle for reuse by the next one.
    pub fn into_scratch(self) -> SptScratch {
        self.s
    }

    /// Recomputes the tree from scratch over `view`, rooted at `source`,
    /// reusing every internal buffer.
    ///
    /// Equivalent to building a fresh tree with [`with_view`](Self::with_view)
    /// but without its allocations — the seed for chained multi-area
    /// recovery sessions, which re-root the same tree per initiator.
    pub fn reset(&mut self, view: &impl GraphView, source: NodeId) {
        self.source = source;
        let s = &mut self.s;
        crate::dijkstra::run_raw(
            self.topo,
            view,
            source,
            None,
            &mut s.dist,
            &mut s.parent,
            &mut s.queue,
            None,
        );
        s.labels.load(&s.dist, &s.parent);
        s.removed.reset(self.topo);
        for l in self.topo.link_ids() {
            if !view.is_link_usable(self.topo, l) {
                s.removed.remove(l);
            }
        }
        s.rerouted.clear();
        self.nodes_touched = 0;
    }

    /// The tree's source node.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Current distance to `n`, or `None` if unreachable.
    pub fn distance(&self, n: NodeId) -> Option<u64> {
        self.s.labels.distance(n)
    }

    /// Current tree parent of `n`.
    pub fn parent(&self, n: NodeId) -> Option<(NodeId, LinkId)> {
        self.s.labels.parent(n)
    }

    /// Returns true when `l` has been removed from this tree's view.
    pub fn is_removed(&self, l: LinkId) -> bool {
        self.s.removed.is_removed(l)
    }

    /// Nodes whose labels the last [`remove_links`](Self::remove_links) or
    /// [`restore_links`](Self::restore_links) call re-examined — the work
    /// metric for the incremental-vs-full ablation. A removal counts every
    /// invalidated label plus every repair settle; a restore counts every
    /// settle of an improved label.
    pub fn nodes_touched(&self) -> usize {
        self.nodes_touched
    }

    /// Nodes whose tree path from the source the last
    /// [`remove_links`](Self::remove_links) or
    /// [`restore_links`](Self::restore_links) call may have changed, in
    /// no particular order and without duplicates. Every other node kept
    /// its whole path, so its first hop is unchanged.
    ///
    /// A removal reports the invalidated subtrees; a restore reports the
    /// subtrees, in the repaired tree, of the nodes that took a new parent
    /// — which covers a tie-only parent change whose descendants keep
    /// every distance.
    pub fn rerouted(&self) -> &[NodeId] {
        &self.s.rerouted
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
    /// Removing a non-tree link (or one already removed) costs nothing.
    /// Removing tree links invalidates exactly the hanging subtrees, found
    /// by walking down the child index, then repairs them with a bounded
    /// Dijkstra seeded from the affected nodes' own links to the intact
    /// frontier (Narvaez branch-pruning update). Out-of-range links are
    /// ignored.
    pub fn remove_links(&mut self, links: impl IntoIterator<Item = LinkId>) {
        self.nodes_touched = self.s.remove_links(self.topo, links);
    }

    /// Restores a batch of previously removed links and repairs the tree
    /// incrementally — the `LinkUp` counterpart of
    /// [`remove_links`](Self::remove_links).
    ///
    /// Restoring a link can only shorten paths (or break equal-cost ties
    /// toward a smaller `(parent, link)` pair), so the repair seeds a
    /// label-correcting pass from the restored links' endpoints and
    /// propagates improvements outward; nodes whose labels cannot improve
    /// are never touched. Restoring a link that is not removed is a
    /// no-op. The result is the same canonical tree a fresh build over
    /// the patched view produces: distances are unique, and every node's
    /// parent is its minimum `(NodeId, LinkId)` tight predecessor — the
    /// invariant every label write maintains, which is what makes
    /// incremental patches byte-identical to full rebuilds.
    pub fn restore_links(&mut self, links: impl IntoIterator<Item = LinkId>) {
        self.nodes_touched = self.s.restore_links(self.topo, links);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use rtr_topology::generate;

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
    fn resume_in_adopts_parked_labels_verbatim() {
        let topo = generate::isp_like(30, 70, 2000.0, 6).unwrap();
        let mut spt = IncrementalSpt::new(&topo, NodeId(5));
        let cut: Vec<LinkId> = topo.link_ids().take(9).collect();
        spt.remove_links(cut.iter().copied());
        let snapshot: Vec<_> = topo
            .node_ids()
            .map(|n| (spt.distance(n), spt.parent(n)))
            .collect();
        let mut scratch = spt.into_scratch();
        let mut parked = SptLabels::default();
        scratch.swap_labels(&mut parked);
        // The parked labels answer queries directly.
        for (n, &(d, p)) in topo.node_ids().zip(snapshot.iter()) {
            assert_eq!(parked.distance(n), d);
            assert_eq!(parked.parent(n), p);
        }
        scratch.swap_labels(&mut parked);
        let mut resumed = IncrementalSpt::resume_in(&topo, NodeId(5), scratch);
        assert_eq!(resumed.nodes_touched(), 0, "resume never recomputes");
        assert!(resumed.rerouted().is_empty());
        assert!(resumed.is_removed(cut[0]));
        for (n, &(d, p)) in topo.node_ids().zip(snapshot.iter()) {
            assert_eq!(resumed.distance(n), d);
            assert_eq!(resumed.parent(n), p);
        }
        // And the resumed tree keeps patching correctly.
        resumed.restore_links(cut.iter().copied());
        assert_canonical(&topo, &resumed, &[]);
        assert_child_index_consistent(&topo, &resumed);
    }

    #[test]
    fn shared_scratch_patches_parked_trees_over_a_lent_mask() {
        // Two parked trees patched in turn through one scratch whose
        // removed-link mask is lent in, as the churn baseline does.
        let topo = generate::isp_like(30, 70, 2000.0, 8).unwrap();
        let cut: Vec<LinkId> = topo.link_ids().step_by(5).collect();
        let mut mask = LinkMask::from_links(&topo, cut.iter().copied());
        let mut parked: Vec<SptLabels> = [NodeId(1), NodeId(20)]
            .into_iter()
            .map(|u| {
                let mut s = IncrementalSpt::new(&topo, u).into_scratch();
                let mut labels = SptLabels::default();
                s.swap_labels(&mut labels);
                labels
            })
            .collect();
        let mut work = SptScratch::default();
        work.swap_removed(&mut mask);
        for (labels, u) in parked.iter_mut().zip([NodeId(1), NodeId(20)]) {
            work.swap_labels(labels);
            let mut tree = IncrementalSpt::resume_in(&topo, u, work);
            tree.remove_links(cut.iter().copied());
            assert_canonical(&topo, &tree, &cut);
            assert_child_index_consistent(&topo, &tree);
            work = tree.into_scratch();
            work.swap_labels(labels);
        }
        work.swap_removed(&mut mask);
        assert_eq!(mask, LinkMask::from_links(&topo, cut.iter().copied()));
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

    /// Every node sits in exactly its parent's child list, and every
    /// child list holds exactly the nodes naming that parent.
    fn assert_child_index_consistent(topo: &Topology, spt: &IncrementalSpt<'_>) {
        let labels = &spt.s.labels;
        assert_eq!(labels.nodes.len(), topo.node_count());
        for p in topo.node_ids() {
            let mut listed = Vec::new();
            let mut c = labels.first_child(p);
            while let Some(child) = c {
                listed.push(child);
                c = labels.next_sibling(child);
            }
            listed.sort_unstable();
            let expect: Vec<NodeId> = topo
                .node_ids()
                .filter(|&v| matches!(labels.parent(v), Some((q, _)) if q == p))
                .collect();
            assert_eq!(listed, expect, "children of {p}");
        }
    }

    /// The first link of the tree path from the source to `t`.
    fn first_hop(spt: &IncrementalSpt<'_>, t: NodeId) -> Option<LinkId> {
        let mut cur = t;
        let mut hop = None;
        while cur != spt.source() {
            let (p, l) = spt.parent(cur)?;
            hop = Some(l);
            cur = p;
        }
        hop
    }

    #[test]
    fn child_index_and_rerouted_track_every_update() {
        let topo = generate::isp_like(40, 95, 2000.0, 31).unwrap();
        let mut spt = IncrementalSpt::new(&topo, NodeId(4));
        assert_child_index_consistent(&topo, &spt);
        let mut down: Vec<LinkId> = Vec::new();
        for (i, l) in topo.link_ids().enumerate() {
            let before: Vec<_> = topo.node_ids().map(|t| first_hop(&spt, t)).collect();
            if i % 3 == 2 {
                let repaired: Vec<LinkId> = down.drain(..down.len() / 2).collect();
                spt.restore_links(repaired);
            } else {
                down.push(l);
                spt.remove_links([l]);
            }
            assert_canonical(&topo, &spt, &down);
            assert_child_index_consistent(&topo, &spt);
            let rerouted = spt.rerouted();
            let mut unique = rerouted.to_vec();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), rerouted.len(), "rerouted has duplicates");
            for t in topo.node_ids() {
                if first_hop(&spt, t) != before[t.index()] {
                    assert!(rerouted.contains(&t), "{t} changed first hop unreported");
                }
            }
            assert!(spt.s.marked.iter().all(|&m| !m), "marks left set");
        }
    }

    #[test]
    fn tie_only_restore_reroutes_the_whole_subtree() {
        // 0-2-3-4 with a bypass 0-1-3 of equal length: restoring 1-3 moves
        // node 3 to the smaller parent 1 at the same distance, so node 4
        // keeps its distance and parent yet changes first hop.
        let mut b = Topology::builder();
        for i in 0..5 {
            b.add_node((f64::from(i), 0.0));
        }
        let l02 = b.add_link(NodeId(0), NodeId(2), 1).unwrap();
        let _l23 = b.add_link(NodeId(2), NodeId(3), 1).unwrap();
        let l01 = b.add_link(NodeId(0), NodeId(1), 1).unwrap();
        let l13 = b.add_link(NodeId(1), NodeId(3), 1).unwrap();
        let _l34 = b.add_link(NodeId(3), NodeId(4), 1).unwrap();
        let topo = b.build().unwrap();
        let mut spt = IncrementalSpt::new(&topo, NodeId(0));
        spt.remove_links([l13]);
        assert_eq!(first_hop(&spt, NodeId(4)), Some(l02));
        spt.restore_links([l13]);
        assert_canonical(&topo, &spt, &[]);
        assert_eq!(spt.distance(NodeId(4)), Some(3));
        assert_eq!(first_hop(&spt, NodeId(4)), Some(l01));
        let mut rerouted = spt.rerouted().to_vec();
        rerouted.sort_unstable();
        assert_eq!(rerouted, vec![NodeId(3), NodeId(4)]);
    }

    #[test]
    fn out_of_range_links_are_ignored() {
        let topo = generate::grid(3, 3, 10.0);
        let mut spt = IncrementalSpt::new(&topo, NodeId(0));
        spt.remove_links([LinkId(999)]);
        assert_eq!(spt.nodes_touched(), 0);
        spt.restore_links([LinkId(999)]);
        assert_eq!(spt.nodes_touched(), 0);
        assert_canonical(&topo, &spt, &[]);
    }
}
