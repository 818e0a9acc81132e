//! RTR phase 2: recompute shortest paths on the initiator's repaired view
//! and source-route packets along them (§III-D).
//!
//! The recovery initiator removes from its topology view (a) every link in
//! the collected `failed_link` field and (b) its own links to unreachable
//! neighbors, then computes the shortest path to the destination with
//! incremental SPT recomputation. One SPT serves *all* destinations
//! affected by the failure, and computed paths are cached, so the
//! per-test-case computational overhead is exactly one shortest-path
//! calculation — the paper's Table III/IV "RTR = 1" column.

use rtr_obs::{DiscardReason, Event, NoopSink, TraceSink};
use rtr_routing::{IncrementalSpt, Path, SourceRoute, SptScratch, BYTES_PER_HOP};
use rtr_sim::{CollectionHeader, ForwardingTrace, LinkIdSet};
use rtr_topology::{FullView, GraphView, LinkId, NodeId, Topology};

/// Reusable buffers for building [`RecoveryComputer`]s without per-case
/// allocations: the SPT label/repair buffers plus the path cache.
///
/// The evaluation driver holds one per worker and recycles it through every
/// case of a topology sweep (see [`RecoveryComputer::recycle`]).
#[derive(Debug, Clone, Default)]
pub struct RecoveryScratch {
    spt: SptScratch,
    cache: Vec<Option<Option<Path>>>,
}

/// The recovery initiator's post-collection view and path cache.
#[derive(Debug)]
pub struct RecoveryComputer<'a> {
    spt: IncrementalSpt<'a>,
    /// Per-destination cached result (None = known unreachable in view).
    cache: Vec<Option<Option<Path>>>,
    sp_calculations: usize,
    removed: LinkIdSet,
}

impl<'a> RecoveryComputer<'a> {
    /// Builds the initiator's believed view from the phase-1 header plus
    /// its locally known failed incident links, and computes the SPT once.
    ///
    /// `local_view` is used only to enumerate the *initiator's own*
    /// unreachable neighbors — information a real router has locally.
    pub fn new(
        topo: &'a Topology,
        local_view: &impl GraphView,
        initiator: NodeId,
        header: &CollectionHeader,
    ) -> Self {
        Self::new_in(
            topo,
            local_view,
            initiator,
            header,
            &mut RecoveryScratch::default(),
        )
    }

    /// Like [`new`](Self::new), but takes the SPT and cache buffers out of
    /// `scratch` (leaving it empty) instead of allocating fresh ones.
    /// [`recycle`](Self::recycle) gives them back.
    pub fn new_in(
        topo: &'a Topology,
        local_view: &impl GraphView,
        initiator: NodeId,
        header: &CollectionHeader,
        scratch: &mut RecoveryScratch,
    ) -> Self {
        Self::new_traced_in(topo, local_view, initiator, header, scratch, &mut NoopSink)
    }

    /// [`new_in`](Self::new_in) with an observability [`TraceSink`]: emits
    /// one [`Event::SptRecompute`] for the shortest-path calculation the
    /// construction performs. With [`NoopSink`] this monomorphizes to
    /// `new_in`.
    pub fn new_traced_in<S: TraceSink>(
        topo: &'a Topology,
        local_view: &impl GraphView,
        initiator: NodeId,
        header: &CollectionHeader,
        scratch: &mut RecoveryScratch,
        sink: &mut S,
    ) -> Self {
        Self::new_based_traced_in(
            topo, &FullView, local_view, initiator, header, scratch, sink,
        )
    }

    /// Like [`new_traced_in`](Self::new_traced_in), but the initiator's
    /// believed topology starts from `believed_base` — its *converged*
    /// routing view — instead of the intact topology. Under a churn
    /// timeline the base is the (possibly stale) link view the IGP last
    /// converged to, so the recovery SPT excludes both the links the
    /// initiator already knew were down and the ones phase 1 just
    /// collected. With [`rtr_topology::FullView`] as the base this is
    /// exactly `new_traced_in`.
    pub fn new_based_traced_in<S: TraceSink>(
        topo: &'a Topology,
        believed_base: &impl GraphView,
        local_view: &impl GraphView,
        initiator: NodeId,
        header: &CollectionHeader,
        scratch: &mut RecoveryScratch,
        sink: &mut S,
    ) -> Self {
        let mut removed = LinkIdSet::new();
        for l in header.failed_links() {
            removed.insert(l);
        }
        for &(_, l) in topo.neighbors(initiator) {
            if !local_view.is_link_usable(topo, l) {
                removed.insert(l);
            }
        }
        let mut spt = IncrementalSpt::with_view_in(
            topo,
            believed_base,
            initiator,
            std::mem::take(&mut scratch.spt),
        );
        spt.remove_links_traced(removed.iter(), sink);
        let mut cache = std::mem::take(&mut scratch.cache);
        cache.clear();
        cache.resize(topo.node_count(), None);
        RecoveryComputer {
            spt,
            cache,
            sp_calculations: 1,
            removed,
        }
    }

    /// Returns this computer's buffers to `scratch` for the next case.
    pub fn recycle(self, scratch: &mut RecoveryScratch) {
        scratch.spt = self.spt.into_scratch();
        scratch.cache = self.cache;
    }

    /// The initiator this computer recovers for.
    pub fn initiator(&self) -> NodeId {
        self.spt.source()
    }

    /// Links the initiator believes are down (collected + local).
    pub fn removed_links(&self) -> &LinkIdSet {
        &self.removed
    }

    /// Number of shortest-path calculations performed (the computational-
    /// overhead metric of §IV-C). The SPT is computed once and shared by
    /// all destinations, so this stays 1.
    pub fn sp_calculations(&self) -> usize {
        self.sp_calculations
    }

    /// Nodes the incremental SPT re-examined while building this view —
    /// the per-case work proxy recorded by the driver bench.
    pub fn nodes_touched(&self) -> usize {
        self.spt.nodes_touched()
    }

    /// The believed shortest recovery path to `dest`, or `None` when the
    /// initiator's view has no route (the packet is discarded on arrival).
    /// Results are cached per destination (§III-D).
    pub fn recovery_path(&mut self, dest: NodeId) -> Option<Path> {
        self.recovery_path_ref(dest).cloned()
    }

    /// Borrowing form of [`Self::recovery_path`]: fills the per-destination
    /// cache on first use, then hands out `&Path` without cloning — the
    /// zero-allocation steady-state lookup used by
    /// [`crate::RtrSession::recover_reusing`].
    pub fn recovery_path_ref(&mut self, dest: NodeId) -> Option<&Path> {
        let not_yet_computed = self.cache.get(dest.index()).is_some_and(Option::is_none);
        if not_yet_computed {
            let path = self.spt.path_to(dest);
            if let Some(slot) = self.cache.get_mut(dest.index()) {
                *slot = Some(path);
            }
        }
        self.cache
            .get(dest.index())
            .and_then(Option::as_ref)
            .and_then(Option::as_ref)
    }

    /// The source route the initiator writes into recovered packets.
    pub fn source_route(&mut self, dest: NodeId) -> Option<SourceRoute> {
        self.recovery_path(dest).map(|p| SourceRoute::from_path(&p))
    }
}

/// The outcome of source-routing one packet along a believed recovery path
/// over the ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The packet reached the destination.
    Delivered,
    /// The believed path hit a failure missed by phase 1; the packet was
    /// discarded at the node before the dead link (§III-D).
    HitFailure {
        /// The dead link the packet ran into.
        at_link: LinkId,
    },
    /// The initiator's view had no path at all; discarded immediately.
    NoPath,
}

/// Walks a believed recovery path over the ground truth `view`, producing
/// the delivery outcome and the hop-by-hop trace (header bytes = remaining
/// source-route bytes, which shrink as hops are consumed).
pub fn source_route_walk(
    topo: &Topology,
    view: &impl GraphView,
    initiator: NodeId,
    path: Option<&Path>,
) -> (DeliveryOutcome, ForwardingTrace) {
    source_route_walk_traced(topo, view, initiator, path, &mut NoopSink)
}

/// [`source_route_walk`] with an observability [`TraceSink`]: emits
/// [`Event::SourceRouteInstalled`] when a believed path exists, and
/// [`Event::PacketDiscarded`] when the packet fails to reach `dest`
/// (immediately at the initiator for [`DeliveryOutcome::NoPath`], at the
/// node before the dead link for [`DeliveryOutcome::HitFailure`]). With
/// [`NoopSink`] this monomorphizes to `source_route_walk`.
pub fn source_route_walk_traced<S: TraceSink>(
    topo: &Topology,
    view: &impl GraphView,
    initiator: NodeId,
    path: Option<&Path>,
    sink: &mut S,
) -> (DeliveryOutcome, ForwardingTrace) {
    let mut trace = ForwardingTrace::default();
    let outcome = source_route_walk_reusing(topo, view, initiator, path, &mut trace, sink);
    (outcome, trace)
}

/// [`source_route_walk_traced`] writing into a caller-owned trace:
/// `trace` is restarted at `initiator` and then filled hop by hop, so a
/// warm trace re-used across recoveries never reallocates (the
/// steady-state contract checked by
/// `crates/core/tests/alloc_discipline.rs`).
pub fn source_route_walk_reusing<S: TraceSink>(
    topo: &Topology,
    view: &impl GraphView,
    initiator: NodeId,
    path: Option<&Path>,
    trace: &mut ForwardingTrace,
    sink: &mut S,
) -> DeliveryOutcome {
    let Some(path) = path else {
        sink.emit(Event::PacketDiscarded {
            at: initiator,
            reason: DiscardReason::NoPath,
        });
        trace.restart(initiator, 0);
        return DeliveryOutcome::NoPath;
    };
    debug_assert_eq!(path.source(), initiator);
    sink.emit(Event::SourceRouteInstalled {
        dest: path.dest(),
        cost: path.cost(),
        hops: path.hops(),
    });
    // Header bytes equal the serialized source route (2 per remaining hop,
    // consumed hops stripped); tracked as a counter so the walk itself
    // performs no allocation beyond the trace.
    let mut remaining = path.hops();
    trace.restart(initiator, remaining * BYTES_PER_HOP);
    let mut cur = initiator;
    for (&l, &next) in path.links().iter().zip(path.nodes().iter().skip(1)) {
        if !view.is_link_usable(topo, l) {
            sink.emit(Event::PacketDiscarded {
                at: cur,
                reason: DiscardReason::HitFailure { link: l },
            });
            return DeliveryOutcome::HitFailure { at_link: l };
        }
        remaining = remaining.saturating_sub(1);
        cur = next;
        trace.record_hop(cur, remaining * BYTES_PER_HOP);
    }
    debug_assert_eq!(cur, path.dest());
    DeliveryOutcome::Delivered
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_topology::{generate, FailureScenario, NodeId};

    // Grid fixture: kill the centre of a 3x3 grid; node 3 recovers to 5.
    fn fixture() -> (rtr_topology::Topology, FailureScenario) {
        let topo = generate::grid(3, 3, 10.0);
        let s = FailureScenario::from_parts(&topo, [NodeId(4)], []);
        (topo, s)
    }

    fn header_with(topo: &rtr_topology::Topology, links: &[(u32, u32)]) -> CollectionHeader {
        let mut h = CollectionHeader::new(NodeId(3));
        for &(a, b) in links {
            h.record_failed_link(topo.link_between(NodeId(a), NodeId(b)).unwrap());
        }
        h
    }

    #[test]
    fn computes_shortest_path_in_believed_view() {
        let (topo, s) = fixture();
        // Phase 1 collected the other spokes of the dead centre.
        let header = header_with(&topo, &[(1, 4), (4, 5), (4, 7)]);
        let mut rc = RecoveryComputer::new(&topo, &s, NodeId(3), &header);
        assert_eq!(rc.initiator(), NodeId(3));
        assert_eq!(rc.sp_calculations(), 1);
        let p = rc.recovery_path(NodeId(5)).unwrap();
        assert_eq!(p.hops(), 4);
        assert!(!p.nodes().contains(&NodeId(4)));
        // The initiator's own failed link was merged in from local view.
        let own = topo.link_between(NodeId(3), NodeId(4)).unwrap();
        assert!(rc.removed_links().contains(own));
    }

    #[test]
    fn cache_returns_identical_results_without_recomputation() {
        let (topo, s) = fixture();
        let header = header_with(&topo, &[(1, 4), (4, 5), (4, 7)]);
        let mut rc = RecoveryComputer::new(&topo, &s, NodeId(3), &header);
        let a = rc.recovery_path(NodeId(5));
        let b = rc.recovery_path(NodeId(5));
        assert_eq!(a, b);
        assert_eq!(rc.sp_calculations(), 1);
        // Several destinations, still one calculation.
        let _ = rc.recovery_path(NodeId(8));
        let _ = rc.recovery_path(NodeId(2));
        assert_eq!(rc.sp_calculations(), 1);
    }

    #[test]
    fn no_path_when_view_disconnects_destination() {
        let topo = generate::path(3, 10.0).unwrap();
        let s = FailureScenario::from_parts(&topo, [NodeId(1)], []);
        let header = CollectionHeader::new(NodeId(0));
        let mut rc = RecoveryComputer::new(&topo, &s, NodeId(0), &header);
        assert_eq!(rc.recovery_path(NodeId(2)), None);
        assert_eq!(rc.source_route(NodeId(2)), None);
    }

    #[test]
    fn delivery_on_live_path() {
        let (topo, s) = fixture();
        let header = header_with(&topo, &[(1, 4), (4, 5), (4, 7)]);
        let mut rc = RecoveryComputer::new(&topo, &s, NodeId(3), &header);
        let p = rc.recovery_path(NodeId(5));
        let (outcome, trace) = source_route_walk(&topo, &s, NodeId(3), p.as_ref());
        assert_eq!(outcome, DeliveryOutcome::Delivered);
        assert_eq!(trace.hops(), 4);
        assert_eq!(trace.current_node(), NodeId(5));
        // Source-route bytes shrink to zero on arrival.
        assert_eq!(trace.final_header_bytes(), 0);
        assert_eq!(trace.steps()[0].header_bytes, 8);
    }

    #[test]
    fn discard_on_missed_failure() {
        // 0-1-2-3 in a line plus a detour 1-4-2. Links 1-2 and 2-3 fail;
        // initiator 1 locally knows only 1-2. With an empty phase-1 header
        // its believed path 1->4->2->3 runs into the missed dead link 2-3.
        let mut b = rtr_topology::Topology::builder();
        let v0 = b.add_node(rtr_topology::Point::new(0.0, 0.0));
        let v1 = b.add_node(rtr_topology::Point::new(10.0, 0.0));
        let v2 = b.add_node(rtr_topology::Point::new(20.0, 0.0));
        let v3 = b.add_node(rtr_topology::Point::new(30.0, 0.0));
        let v4 = b.add_node(rtr_topology::Point::new(15.0, 8.0));
        b.add_link(v0, v1, 1).unwrap();
        let l12 = b.add_link(v1, v2, 1).unwrap();
        let l23 = b.add_link(v2, v3, 1).unwrap();
        b.add_link(v1, v4, 1).unwrap();
        b.add_link(v4, v2, 1).unwrap();
        let topo = b.build().unwrap();
        let s = FailureScenario::from_parts(&topo, [], [l12, l23]);

        let header = CollectionHeader::new(v1);
        let mut rc = RecoveryComputer::new(&topo, &s, v1, &header);
        assert!(rc.removed_links().contains(l12), "local knowledge merged");
        let p = rc.recovery_path(v3).unwrap();
        assert_eq!(p.nodes(), &[v1, v4, v2, v3]);
        let (outcome, trace) = source_route_walk(&topo, &s, v1, Some(&p));
        assert_eq!(outcome, DeliveryOutcome::HitFailure { at_link: l23 });
        assert_eq!(trace.hops(), 2);
        assert_eq!(trace.current_node(), v2);
    }

    #[test]
    fn no_path_walk_is_immediate_discard() {
        let topo = generate::path(3, 10.0).unwrap();
        let s = FailureScenario::from_parts(&topo, [NodeId(1)], []);
        let (outcome, trace) = source_route_walk(&topo, &s, NodeId(0), None);
        assert_eq!(outcome, DeliveryOutcome::NoPath);
        assert_eq!(trace.hops(), 0);
    }
}
