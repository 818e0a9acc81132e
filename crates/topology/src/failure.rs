//! Failure models: geographic failure regions and concrete failure
//! scenarios (which nodes and links are down).
//!
//! The paper models a large-scale failure as a *continuous area* of
//! arbitrary shape and location: routers inside the area fail, and links
//! whose embeddings cross the area fail (§II-A). The evaluation instantiates
//! the area as a random circle (§IV-A), but RTR never learns the shape, so
//! the region abstraction here supports circles, polygons, and unions
//! (multiple simultaneous failure areas).

use crate::bitset::LinkBitSet;
use crate::geometry::{Circle, Point, Polygon, Segment};
use crate::graph::{LinkId, NodeId, Topology};
use crate::grid::SegmentGrid;

/// A geographic region used as a failure area.
#[derive(Debug, Clone, PartialEq)]
pub enum Region {
    /// A circular area (the paper's evaluation shape).
    Circle(Circle),
    /// An arbitrary simple polygon.
    Polygon(Polygon),
    /// The union of several areas — simultaneous failure areas.
    Union(Vec<Region>),
}

impl Region {
    /// Convenience constructor for a circular region.
    pub fn circle(center: impl Into<Point>, radius: f64) -> Self {
        Region::Circle(Circle::new(center.into(), radius))
    }

    /// Returns true when the point lies inside (or on) the region.
    pub fn contains(&self, p: Point) -> bool {
        match self {
            Region::Circle(c) => c.contains(p),
            Region::Polygon(poly) => poly.contains(p),
            Region::Union(parts) => parts.iter().any(|r| r.contains(p)),
        }
    }

    /// Returns true when the segment touches the region anywhere.
    pub fn intersects_segment(&self, s: Segment) -> bool {
        match self {
            Region::Circle(c) => c.intersects_segment(s),
            Region::Polygon(poly) => poly.intersects_segment(s),
            Region::Union(parts) => parts.iter().any(|r| r.intersects_segment(s)),
        }
    }

    /// The axis-aligned bounding box `(min, max)` of the region. Anything
    /// the region touches lies inside it, so it is a sound prefilter for
    /// spatial-index queries. An empty union degenerates to a point box at
    /// the origin (it touches nothing).
    pub fn bounding_box(&self) -> (Point, Point) {
        match self {
            Region::Circle(c) => (
                Point::new(c.center.x - c.radius, c.center.y - c.radius),
                Point::new(c.center.x + c.radius, c.center.y + c.radius),
            ),
            Region::Polygon(poly) => {
                let mut min = Point::new(f64::INFINITY, f64::INFINITY);
                let mut max = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
                // Polygons have at least 3 vertices, so the fold is total.
                for v in poly.vertices() {
                    min = Point::new(min.x.min(v.x), min.y.min(v.y));
                    max = Point::new(max.x.max(v.x), max.y.max(v.y));
                }
                (min, max)
            }
            Region::Union(parts) => {
                let mut min = Point::new(f64::INFINITY, f64::INFINITY);
                let mut max = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
                for r in parts {
                    let (lo, hi) = r.bounding_box();
                    min = Point::new(min.x.min(lo.x), min.y.min(lo.y));
                    max = Point::new(max.x.max(hi.x), max.y.max(hi.y));
                }
                if min.x > max.x {
                    (Point::new(0.0, 0.0), Point::new(0.0, 0.0))
                } else {
                    (min, max)
                }
            }
        }
    }
}

impl From<Circle> for Region {
    fn from(c: Circle) -> Self {
        Region::Circle(c)
    }
}

impl From<Polygon> for Region {
    fn from(p: Polygon) -> Self {
        Region::Polygon(p)
    }
}

/// A *view* of which elements of a topology are currently usable.
///
/// Routing and recovery algorithms are written against this trait so they
/// can run on the ground-truth failure state ([`FailureScenario`]), on a
/// router's partial knowledge ([`LinkMask`]), or on the intact network
/// ([`FullView`]).
pub trait GraphView {
    /// Returns true when node `n` has not failed in this view.
    fn is_node_live(&self, n: NodeId) -> bool;

    /// Returns true when link `l` itself has not failed in this view
    /// (regardless of its endpoints).
    fn is_link_live(&self, l: LinkId) -> bool;

    /// A link is *usable* when it is live and both endpoints are live.
    fn is_link_usable(&self, topo: &Topology, l: LinkId) -> bool {
        let (a, b) = topo.link(l).endpoints();
        self.is_link_live(l) && self.is_node_live(a) && self.is_node_live(b)
    }
}

/// References delegate, so `&dyn GraphView` (and `&&V`) satisfy the same
/// generic bounds as the view itself — this is what lets an object-safe
/// scheme API hand a `&dyn GraphView` down into generic routing code.
impl<V: GraphView + ?Sized> GraphView for &V {
    fn is_node_live(&self, n: NodeId) -> bool {
        (**self).is_node_live(n)
    }
    fn is_link_live(&self, l: LinkId) -> bool {
        (**self).is_link_live(l)
    }
    fn is_link_usable(&self, topo: &Topology, l: LinkId) -> bool {
        (**self).is_link_usable(topo, l)
    }
}

/// The intact network: everything is live.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FullView;

impl GraphView for FullView {
    fn is_node_live(&self, _n: NodeId) -> bool {
        true
    }
    fn is_link_live(&self, _l: LinkId) -> bool {
        true
    }
}

/// Ground truth of a failure event: the sets of failed nodes and links.
///
/// This is what the *simulation* knows. No router ever sees it directly; a
/// router only observes that some neighbors are unreachable (it cannot tell
/// a node failure from a link failure — §I).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureScenario {
    failed_nodes: Vec<bool>,
    /// Failed links as a word-parallel bitset; `is_link_failed` is the
    /// single hottest query of the test-case harvest.
    failed_link_bits: LinkBitSet,
    /// Number of links in the topology this scenario was sized for; ids at
    /// or beyond it are rejected by [`fail_link`](Self::fail_link).
    link_count: usize,
}

impl FailureScenario {
    /// A scenario with no failures, sized for `topo`.
    pub fn none(topo: &Topology) -> Self {
        FailureScenario {
            failed_nodes: vec![false; topo.node_count()],
            failed_link_bits: LinkBitSet::with_link_capacity(topo.link_count()),
            link_count: topo.link_count(),
        }
    }

    /// Applies a geographic region to the topology: nodes inside the region
    /// fail; links whose segments touch the region fail.
    pub fn from_region(topo: &Topology, region: &Region) -> Self {
        let mut s = Self::none(topo);
        for n in topo.node_ids() {
            if region.contains(topo.position(n)) {
                s.fail_node(n);
            }
        }
        for l in topo.link_ids() {
            if region.intersects_segment(topo.segment(l)) {
                s.fail_link(l);
            }
        }
        s
    }

    /// Like [`from_region`](Self::from_region), but testing only the links
    /// a [`SegmentGrid`] nominates for the region's bounding box instead
    /// of every link — result-identical (every link touching the region
    /// has a bounding box overlapping the region's), and near-linear in
    /// scenario count at scale because the per-scenario work is
    /// proportional to the links *near* the region, not all of them.
    pub fn from_region_indexed(topo: &Topology, region: &Region, grid: &SegmentGrid) -> Self {
        let mut s = Self::none(topo);
        for n in topo.node_ids() {
            if region.contains(topo.position(n)) {
                s.fail_node(n);
            }
        }
        let (min, max) = region.bounding_box();
        let mut seen = LinkBitSet::with_link_capacity(topo.link_count());
        let mut failed: Vec<LinkId> = Vec::new();
        grid.for_candidates(min, max, &mut seen, |l| {
            if region.intersects_segment(topo.segment(l)) {
                failed.push(l);
            }
        });
        for l in failed {
            s.fail_link(l);
        }
        s
    }

    /// A scenario in which exactly one link fails (Theorem 3's setting).
    /// An out-of-range `l` fails nothing.
    pub fn single_link(topo: &Topology, l: LinkId) -> Self {
        let mut s = Self::none(topo);
        s.fail_link(l);
        s
    }

    /// Builds a scenario from explicit failed-node and failed-link sets.
    /// Out-of-range ids are ignored.
    pub fn from_parts(
        topo: &Topology,
        nodes: impl IntoIterator<Item = NodeId>,
        links: impl IntoIterator<Item = LinkId>,
    ) -> Self {
        let mut s = Self::none(topo);
        for n in nodes {
            s.fail_node(n);
        }
        for l in links {
            s.fail_link(l);
        }
        s
    }

    /// Marks node `n` as failed (no-op when out of range).
    fn fail_node(&mut self, n: NodeId) {
        if let Some(f) = self.failed_nodes.get_mut(n.index()) {
            *f = true;
        }
    }

    /// Marks link `l` as failed (no-op when out of range).
    fn fail_link(&mut self, l: LinkId) {
        if l.index() < self.link_count {
            self.failed_link_bits.insert(l);
        }
    }

    /// Merges another scenario into this one (union of failures).
    pub fn merge(&mut self, other: &FailureScenario) {
        assert_eq!(self.failed_nodes.len(), other.failed_nodes.len());
        assert_eq!(self.link_count, other.link_count);
        for (a, b) in self.failed_nodes.iter_mut().zip(&other.failed_nodes) {
            *a |= *b;
        }
        self.failed_link_bits.union_with(&other.failed_link_bits);
    }

    /// Returns true when node `n` failed.
    pub fn is_node_failed(&self, n: NodeId) -> bool {
        self.failed_nodes.get(n.index()).copied().unwrap_or(false)
    }

    /// Returns true when link `l` failed (the link itself, not its ends).
    #[inline]
    pub fn is_link_failed(&self, l: LinkId) -> bool {
        self.failed_link_bits.contains(l)
    }

    /// Ids of all failed nodes.
    pub fn failed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.failed_nodes
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Ids of all failed links, ascending.
    pub fn failed_links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.failed_link_bits.iter()
    }

    /// The failed-link set as a bitset (for word-parallel queries).
    pub fn failed_link_set(&self) -> &LinkBitSet {
        &self.failed_link_bits
    }

    /// Number of failed nodes.
    pub fn failed_node_count(&self) -> usize {
        self.failed_nodes.iter().filter(|&&f| f).count()
    }

    /// Number of failed links (not counting links with failed endpoints).
    pub fn failed_link_count(&self) -> usize {
        self.failed_link_bits.len()
    }

    /// The set of *ground-truth unusable* links: failed links plus links
    /// incident to failed nodes. This is `E2` in Theorem 2's notation.
    pub fn unusable_links<'a>(&'a self, topo: &'a Topology) -> impl Iterator<Item = LinkId> + 'a {
        topo.link_ids().filter(|&l| !self.is_link_usable(topo, l))
    }

    /// From `from`'s local point of view, is the neighbor across `l`
    /// reachable? A router only observes this boolean per neighbor; it
    /// cannot tell whether the link or the neighbor failed (§II-A).
    pub fn is_neighbor_reachable(&self, topo: &Topology, from: NodeId, l: LinkId) -> bool {
        debug_assert!(topo.link(l).is_incident_to(from));
        self.is_link_usable(topo, l)
    }
}

impl GraphView for FailureScenario {
    fn is_node_live(&self, n: NodeId) -> bool {
        !self.is_node_failed(n)
    }
    fn is_link_live(&self, l: LinkId) -> bool {
        !self.is_link_failed(l)
    }
}

/// A router's *believed* view: the full topology minus a set of links it has
/// learned (or assumes) to be dead. Nodes are never removed — a router
/// cannot distinguish node failures from link failures, so its recomputation
/// removes links only (§III-B, second phase).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkMask {
    removed: Vec<bool>,
}

impl LinkMask {
    /// A mask removing nothing, sized for `topo`.
    pub fn none(topo: &Topology) -> Self {
        LinkMask {
            removed: vec![false; topo.link_count()],
        }
    }

    /// Builds a mask removing the given links (out-of-range ids are ignored).
    pub fn from_links(topo: &Topology, links: impl IntoIterator<Item = LinkId>) -> Self {
        let mut m = Self::none(topo);
        for l in links {
            m.remove(l);
        }
        m
    }

    /// Clears the mask for reuse over `topo`: every link usable again.
    /// Retains capacity, so a mask held across iterations never reallocates
    /// on same-sized topologies.
    pub fn reset(&mut self, topo: &Topology) {
        self.removed.clear();
        self.removed.resize(topo.link_count(), false);
    }

    /// Marks link `l` as removed (no-op when out of range).
    pub fn remove(&mut self, l: LinkId) {
        if let Some(r) = self.removed.get_mut(l.index()) {
            *r = true;
        }
    }

    /// Marks link `l` as usable again — the repair counterpart of
    /// [`remove`](Self::remove), applied by timeline `LinkUp` events.
    /// No-op when out of range or when the link was never removed.
    pub fn restore(&mut self, l: LinkId) {
        if let Some(r) = self.removed.get_mut(l.index()) {
            *r = false;
        }
    }

    /// Iterates the removed links in ascending id order.
    pub fn removed_links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.removed
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r)
            .map(|(i, _)| LinkId(i as u32))
    }

    /// Returns true when link `l` is removed in this mask.
    pub fn is_removed(&self, l: LinkId) -> bool {
        self.removed.get(l.index()).copied().unwrap_or(false)
    }

    /// Number of links the mask is sized for (its topology's link count).
    pub fn link_count(&self) -> usize {
        self.removed.len()
    }

    /// Number of removed links.
    pub fn removed_count(&self) -> usize {
        self.removed.iter().filter(|&&r| r).count()
    }
}

impl GraphView for LinkMask {
    fn is_node_live(&self, _n: NodeId) -> bool {
        true
    }
    fn is_link_live(&self, l: LinkId) -> bool {
        !self.is_removed(l)
    }
}

/// Computes the set of nodes reachable from `from` using only usable links.
///
/// Returns a boolean vector indexed by node id. If `from` itself is not live
/// in the view, the result is all-false.
pub fn reachable_set(topo: &Topology, view: &impl GraphView, from: NodeId) -> Vec<bool> {
    let mut seen = vec![false; topo.node_count()];
    if !view.is_node_live(from) {
        return seen;
    }
    let mut stack = vec![from];
    if let Some(s) = seen.get_mut(from.index()) {
        *s = true;
    }
    while let Some(n) = stack.pop() {
        for &(nbr, l) in topo.neighbors(n) {
            if view.is_link_usable(topo, l) {
                if let Some(s) = seen.get_mut(nbr.index()) {
                    if !*s {
                        *s = true;
                        stack.push(nbr);
                    }
                }
            }
        }
    }
    seen
}

/// Returns true when `to` is reachable from `from` over usable links.
pub fn is_reachable(topo: &Topology, view: &impl GraphView, from: NodeId, to: NodeId) -> bool {
    reachable_set(topo, view, from)
        .get(to.index())
        .copied()
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Topology;

    /// A 3×3 grid with unit spacing; node (r, c) has id 3r + c.
    fn grid3() -> Topology {
        let mut b = Topology::builder();
        for r in 0..3 {
            for c in 0..3 {
                b.add_node(Point::new(c as f64, r as f64));
            }
        }
        for r in 0..3u32 {
            for c in 0..3u32 {
                let id = NodeId(3 * r + c);
                if c + 1 < 3 {
                    b.add_link(id, NodeId(3 * r + c + 1), 1).unwrap();
                }
                if r + 1 < 3 {
                    b.add_link(id, NodeId(3 * (r + 1) + c), 1).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn region_circle_contains() {
        let r = Region::circle((1.0, 1.0), 0.5);
        assert!(r.contains(Point::new(1.2, 1.2)));
        assert!(!r.contains(Point::new(2.0, 2.0)));
    }

    #[test]
    fn region_union_is_or() {
        let u = Region::Union(vec![
            Region::circle((0.0, 0.0), 0.4),
            Region::circle((2.0, 2.0), 0.4),
        ]);
        assert!(u.contains(Point::new(0.1, 0.1)));
        assert!(u.contains(Point::new(2.1, 2.1)));
        assert!(!u.contains(Point::new(1.0, 1.0)));
        assert!(u.intersects_segment(Segment::new(Point::new(-1.0, 0.0), Point::new(1.0, 0.0))));
    }

    #[test]
    fn scenario_from_region_kills_center_of_grid() {
        let topo = grid3();
        // Circle around the center node (1,1).
        let region = Region::circle((1.0, 1.0), 0.3);
        let s = FailureScenario::from_region(&topo, &region);
        assert!(s.is_node_failed(NodeId(4)));
        assert_eq!(s.failed_node_count(), 1);
        // All four links incident to the center cross the circle.
        for nbr in [1u32, 3, 5, 7] {
            let l = topo.link_between(NodeId(4), NodeId(nbr)).unwrap();
            assert!(s.is_link_failed(l));
        }
        // A border link does not.
        let border = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        assert!(!s.is_link_failed(border));
    }

    #[test]
    fn link_crossing_region_fails_even_with_live_endpoints() {
        let mut b = Topology::builder();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(10.0, 0.0));
        b.add_link(v0, v1, 1).unwrap();
        let topo = b.build().unwrap();
        let s = FailureScenario::from_region(&topo, &Region::circle((5.0, 0.0), 1.0));
        assert!(!s.is_node_failed(v0));
        assert!(!s.is_node_failed(v1));
        assert!(s.is_link_failed(LinkId(0)));
        assert!(!s.is_link_usable(&topo, LinkId(0)));
    }

    #[test]
    fn region_bounding_boxes_cover_their_shapes() {
        let (min, max) = Region::circle((3.0, 4.0), 2.0).bounding_box();
        assert_eq!((min.x, min.y, max.x, max.y), (1.0, 2.0, 5.0, 6.0));

        let poly = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 1.0),
            Point::new(2.0, 5.0),
        ])
        .unwrap();
        let (min, max) = Region::from(poly).bounding_box();
        assert_eq!((min.x, min.y, max.x, max.y), (0.0, 0.0, 4.0, 5.0));

        let union = Region::Union(vec![
            Region::circle((0.0, 0.0), 1.0),
            Region::circle((10.0, 10.0), 1.0),
        ]);
        let (min, max) = union.bounding_box();
        assert_eq!((min.x, min.y, max.x, max.y), (-1.0, -1.0, 11.0, 11.0));

        let (min, max) = Region::Union(Vec::new()).bounding_box();
        assert_eq!((min.x, min.y, max.x, max.y), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn from_region_indexed_matches_scan() {
        let topo = crate::generate::isp_like(60, 140, 2000.0, 44).unwrap();
        let grid = SegmentGrid::new(&topo);
        for (cx, cy, r) in [
            (1000.0, 1000.0, 250.0),
            (0.0, 0.0, 400.0),
            (1999.0, 40.0, 10.0),
            (1000.0, 1000.0, 5000.0), // swallows everything
        ] {
            let region = Region::circle((cx, cy), r);
            let scan = FailureScenario::from_region(&topo, &region);
            let indexed = FailureScenario::from_region_indexed(&topo, &region, &grid);
            assert_eq!(scan, indexed, "circle ({cx},{cy}) r={r}");
        }
        // A union region through the same path.
        let union = Region::Union(vec![
            Region::circle((200.0, 200.0), 150.0),
            Region::circle((1800.0, 1800.0), 150.0),
        ]);
        assert_eq!(
            FailureScenario::from_region(&topo, &union),
            FailureScenario::from_region_indexed(&topo, &union, &grid)
        );
    }

    #[test]
    fn single_link_scenario() {
        let topo = grid3();
        let l = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        let s = FailureScenario::single_link(&topo, l);
        assert_eq!(s.failed_link_count(), 1);
        assert_eq!(s.failed_node_count(), 0);
        assert!(s.is_link_failed(l));
    }

    #[test]
    fn unusable_links_include_failed_endpoints() {
        let topo = grid3();
        let s = FailureScenario::from_parts(&topo, [NodeId(4)], []);
        let unusable: Vec<LinkId> = s.unusable_links(&topo).collect();
        assert_eq!(unusable.len(), 4); // the 4 links incident to the center
        for l in unusable {
            assert!(topo.link(l).is_incident_to(NodeId(4)));
        }
    }

    #[test]
    fn merge_unions_failures() {
        let topo = grid3();
        let mut a = FailureScenario::from_parts(&topo, [NodeId(0)], []);
        let b = FailureScenario::from_parts(&topo, [NodeId(8)], [LinkId(0)]);
        a.merge(&b);
        assert!(a.is_node_failed(NodeId(0)));
        assert!(a.is_node_failed(NodeId(8)));
        assert!(a.is_link_failed(LinkId(0)));
    }

    #[test]
    fn neighbor_reachability_view() {
        let topo = grid3();
        let l = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        let s = FailureScenario::single_link(&topo, l);
        assert!(!s.is_neighbor_reachable(&topo, NodeId(0), l));
        let l2 = topo.link_between(NodeId(0), NodeId(3)).unwrap();
        assert!(s.is_neighbor_reachable(&topo, NodeId(0), l2));

        // Node failure makes the neighbor unreachable over a live link.
        let s2 = FailureScenario::from_parts(&topo, [NodeId(1)], []);
        assert!(!s2.is_neighbor_reachable(&topo, NodeId(0), l));
    }

    #[test]
    fn reachability_with_partition() {
        let topo = grid3();
        // Kill the entire middle column: nodes 1, 4, 7.
        let s = FailureScenario::from_parts(&topo, [NodeId(1), NodeId(4), NodeId(7)], []);
        assert!(is_reachable(&topo, &s, NodeId(0), NodeId(6)));
        assert!(!is_reachable(&topo, &s, NodeId(0), NodeId(2)));
        assert!(is_reachable(&topo, &s, NodeId(2), NodeId(8)));
    }

    #[test]
    fn reachability_from_failed_node_is_empty() {
        let topo = grid3();
        let s = FailureScenario::from_parts(&topo, [NodeId(0)], []);
        let seen = reachable_set(&topo, &s, NodeId(0));
        assert!(seen.iter().all(|&x| !x));
    }

    #[test]
    fn full_view_everything_live() {
        let topo = grid3();
        for n in topo.node_ids() {
            assert!(FullView.is_node_live(n));
        }
        for l in topo.link_ids() {
            assert!(FullView.is_link_usable(&topo, l));
        }
        assert!(is_reachable(&topo, &FullView, NodeId(0), NodeId(8)));
    }

    #[test]
    fn link_mask_removes_links_only() {
        let topo = grid3();
        let l = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        let mask = LinkMask::from_links(&topo, [l]);
        assert!(mask.is_removed(l));
        assert_eq!(mask.removed_count(), 1);
        assert!(!mask.is_link_usable(&topo, l));
        assert!(mask.is_node_live(NodeId(0)));
        // Still reachable around the grid.
        assert!(is_reachable(&topo, &mask, NodeId(0), NodeId(1)));
    }

    #[test]
    fn scenario_iterators() {
        let topo = grid3();
        let s = FailureScenario::from_parts(&topo, [NodeId(2), NodeId(5)], [LinkId(1)]);
        assert_eq!(
            s.failed_nodes().collect::<Vec<_>>(),
            vec![NodeId(2), NodeId(5)]
        );
        assert_eq!(s.failed_links().collect::<Vec<_>>(), vec![LinkId(1)]);
    }
}
