//! Precomputed cross-link table.
//!
//! RTR's first phase must avoid selecting a link that geometrically crosses
//! certain other links (Constraints 1 and 2 in §III-C). The paper states
//! that "for each link, routers precompute the set of links across it"; this
//! module is that precomputation.
//!
//! Two builders produce the identical table: a bbox-filtered all-pairs scan
//! ([`CrossLinkTable::new_all_pairs`], the O(m²) oracle, fine for the
//! paper's few-hundred-link topologies) and a uniform-grid spatial index
//! ([`CrossLinkTable::new_grid`], near-linear for the 100k-link scale
//! sweep). [`CrossLinkTable::new`] picks by link count. The pair sets are
//! proven identical by the `grid_index_matches_all_pairs` proptest.
//!
//! Storage is hybrid: per-link crossing *bitmask* rows (O(m²) bits, the
//! fastest exclusion probe) are materialized only up to
//! [`DENSE_MASK_MAX_LINKS`]; beyond that only the sorted crossing lists are
//! kept and [`CrossLinkTable::crosses_any`] walks the (short) list
//! with O(1) bitset membership per entry.

use crate::bitset::LinkBitSet;
use crate::geometry::segments_cross;
use crate::graph::{LinkId, Topology};
use crate::grid::{Bbox, SegmentGrid};

/// Bits per crossing-mask word (matches [`crate::bitset::LinkBitSet`]).
const WORD_BITS: usize = 64;

/// Largest link count for which [`CrossLinkTable::new`] uses the all-pairs
/// oracle builder; above it the grid index wins.
const ALL_PAIRS_MAX_LINKS: usize = 1024;

/// Largest link count for which dense per-link crossing-mask rows are
/// materialized (O(m²/8) bytes — 8 MiB at this cap). Larger tables keep
/// only the sorted crossing lists; the sweep's exclusion probe goes
/// through [`CrossLinkTable::crosses_any`], which handles both.
pub const DENSE_MASK_MAX_LINKS: usize = 8192;

/// For every link, the sorted list of links that properly cross it, plus —
/// in dense mode — a flat per-link crossing *bitmask* (one stride of `u64`
/// words per link) so `crosses` is a single shift and the sweep's exclusion
/// test is a word-parallel AND against the packet's `cross_link` bitset.
///
/// Crossing is symmetric: `a ∈ crossings(b)` iff `b ∈ crossings(a)`.
///
/// # Examples
///
/// ```
/// use rtr_topology::{Topology, Point, CrossLinkTable, LinkId};
/// # fn main() -> Result<(), rtr_topology::TopologyError> {
/// let mut b = Topology::builder();
/// let v0 = b.add_node(Point::new(0.0, 0.0));
/// let v1 = b.add_node(Point::new(2.0, 2.0));
/// let v2 = b.add_node(Point::new(0.0, 2.0));
/// let v3 = b.add_node(Point::new(2.0, 0.0));
/// let d1 = b.add_link(v0, v1, 1)?;
/// let d2 = b.add_link(v2, v3, 1)?;
/// let topo = b.build()?;
/// let table = CrossLinkTable::new(&topo);
/// assert!(table.crosses(d1, d2));
/// assert_eq!(table.crossings_of(d1), &[d2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossLinkTable {
    crossings: Vec<Vec<LinkId>>,
    /// Flat row-major bitmask matrix: row `l` spans
    /// `masks[l * stride .. (l + 1) * stride]`, bit `b` of word `w` set
    /// iff link `w * 64 + b` crosses `l`. Empty in sparse mode.
    masks: Vec<u64>,
    /// Words per mask row: `ceil(link_count / 64)` in dense mode, 0 in
    /// sparse mode.
    stride: usize,
    /// Whether dense mask rows were materialized (`link_count` at most
    /// [`DENSE_MASK_MAX_LINKS`]).
    dense: bool,
    total_pairs: usize,
}

impl CrossLinkTable {
    /// Builds the table for every link of `topo`: the all-pairs oracle for
    /// small topologies, the grid index beyond [`ALL_PAIRS_MAX_LINKS`]
    /// links. Both produce the identical table.
    pub fn new(topo: &Topology) -> Self {
        if topo.link_count() <= ALL_PAIRS_MAX_LINKS {
            Self::new_all_pairs(topo)
        } else {
            Self::new_grid(topo)
        }
    }

    /// The bbox-filtered all-pairs builder — O(m²) candidate pairs, kept
    /// as the oracle the grid builder is property-tested against.
    pub fn new_all_pairs(topo: &Topology) -> Self {
        let m = topo.link_count();
        let mut crossings: Vec<Vec<LinkId>> = vec![Vec::new(); m];
        let segs: Vec<_> = topo.link_ids().map(|l| topo.segment(l)).collect();
        let boxes: Vec<Bbox> = segs.iter().map(|s| Bbox::of_segment(*s)).collect();
        for (i, (si, bi)) in segs.iter().zip(&boxes).enumerate() {
            for (j, (sj, bj)) in segs.iter().zip(&boxes).enumerate().skip(i + 1) {
                if bi.overlaps(*bj) && segments_cross(*si, *sj) {
                    if let Some(list) = crossings.get_mut(i) {
                        list.push(LinkId(j as u32));
                    }
                    if let Some(list) = crossings.get_mut(j) {
                        list.push(LinkId(i as u32));
                    }
                }
            }
        }
        Self::finish(m, crossings)
    }

    /// The spatial-index builder: constructs a fresh [`SegmentGrid`] and
    /// delegates to [`with_grid`](Self::with_grid).
    pub fn new_grid(topo: &Topology) -> Self {
        Self::with_grid(topo, &SegmentGrid::new(topo))
    }

    /// Builds the table using an existing grid over `topo`'s segments
    /// (lets callers that already built one — e.g. for failure-scenario
    /// indexing — reuse it).
    pub fn with_grid(topo: &Topology, grid: &SegmentGrid) -> Self {
        let m = topo.link_count();
        debug_assert_eq!(grid.link_count(), m, "grid built over a different topology");
        let mut crossings: Vec<Vec<LinkId>> = vec![Vec::new(); m];
        let segs: Vec<_> = topo.link_ids().map(|l| topo.segment(l)).collect();
        grid.for_candidate_pairs(|i, j| {
            let crossed = match (segs.get(i), segs.get(j)) {
                (Some(si), Some(sj)) => segments_cross(*si, *sj),
                _ => false,
            };
            if crossed {
                if let Some(list) = crossings.get_mut(i) {
                    list.push(LinkId(j as u32));
                }
                if let Some(list) = crossings.get_mut(j) {
                    list.push(LinkId(i as u32));
                }
            }
        });
        Self::finish(m, crossings)
    }

    /// Shared finisher: sorts the per-link lists, derives the pair count,
    /// and materializes the dense mask rows when `m` is small enough.
    fn finish(m: usize, mut crossings: Vec<Vec<LinkId>>) -> Self {
        for list in &mut crossings {
            list.sort_unstable();
            debug_assert!(
                list.windows(2).all(|w| w.first() != w.last()),
                "builder reported a crossing pair twice"
            );
        }
        let total_pairs = crossings.iter().map(Vec::len).sum::<usize>() / 2;
        let dense = m <= DENSE_MASK_MAX_LINKS;
        let stride = if dense { m.div_ceil(WORD_BITS) } else { 0 };
        let mut masks = vec![0u64; if dense { m * stride } else { 0 }];
        if dense {
            for (i, list) in crossings.iter().enumerate() {
                for other in list {
                    if let Some(w) = masks.get_mut(i * stride + other.index() / WORD_BITS) {
                        *w |= 1u64 << (other.index() % WORD_BITS);
                    }
                }
            }
        }
        CrossLinkTable {
            crossings,
            masks,
            stride,
            dense,
            total_pairs,
        }
    }

    /// The links properly crossing `l`, sorted by id. An out-of-range `l`
    /// crosses nothing.
    pub fn crossings_of(&self, l: LinkId) -> &[LinkId] {
        self.crossings.get(l.index()).map_or(&[], Vec::as_slice)
    }

    /// The crossing bitmask row of `l`: bit `b` of word `w` is set iff
    /// link `w * 64 + b` properly crosses `l`. Empty for out-of-range `l`
    /// — and empty for *every* `l` when the table is in sparse mode
    /// (see [`has_dense_masks`](Self::has_dense_masks)); callers wanting a
    /// mode-independent probe use [`crosses_any`](Self::crosses_any).
    ///
    /// Intersecting this row with a
    /// [`LinkBitSet`](crate::bitset::LinkBitSet) answers "does `l` cross
    /// any link of the set?" in `stride` AND operations.
    pub fn crossing_mask(&self, l: LinkId) -> &[u64] {
        if !self.dense {
            return &[];
        }
        let start = l.index() * self.stride;
        self.masks
            .get(start..start + self.stride)
            .unwrap_or_default()
    }

    /// Whether dense per-link mask rows are materialized (tables over at
    /// most [`DENSE_MASK_MAX_LINKS`] links).
    pub fn has_dense_masks(&self) -> bool {
        self.dense
    }

    /// Returns true when links `a` and `b` properly cross: one bit test in
    /// dense mode, a binary search of `a`'s sorted crossing list otherwise.
    pub fn crosses(&self, a: LinkId, b: LinkId) -> bool {
        if self.dense {
            self.crossing_mask(a)
                .get(b.index() / WORD_BITS)
                .is_some_and(|w| w & (1u64 << (b.index() % WORD_BITS)) != 0)
        } else {
            self.crossings_of(a).binary_search(&b).is_ok()
        }
    }

    /// Returns true when `l` crosses any member of `set` — the phase-1
    /// exclusion probe (Constraints 1 and 2). In dense mode this is a
    /// word-parallel AND of `l`'s mask row against the set; in sparse mode
    /// it walks `l`'s sorted crossing list (short in realistic embeddings)
    /// with O(1) membership per entry.
    pub fn crosses_any(&self, l: LinkId, set: &LinkBitSet) -> bool {
        if self.dense {
            set.intersects_words(self.crossing_mask(l))
        } else {
            self.crossings_of(l).iter().any(|&o| set.contains(o))
        }
    }

    /// Returns true when `l` crosses no other link.
    pub fn is_cross_free(&self, l: LinkId) -> bool {
        self.crossings_of(l).is_empty()
    }

    /// Total number of crossing pairs in the topology. Zero means the
    /// embedding is planar as drawn.
    pub fn crossing_pair_count(&self) -> usize {
        self.total_pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::graph::Topology;

    #[test]
    fn planar_graph_has_no_crossings() {
        let mut b = Topology::builder();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(2.0, 0.0));
        let v2 = b.add_node(Point::new(1.0, 2.0));
        b.add_link(v0, v1, 1).unwrap();
        b.add_link(v1, v2, 1).unwrap();
        b.add_link(v2, v0, 1).unwrap();
        let topo = b.build().unwrap();
        let t = CrossLinkTable::new(&topo);
        assert_eq!(t.crossing_pair_count(), 0);
        for l in topo.link_ids() {
            assert!(t.is_cross_free(l));
        }
    }

    #[test]
    fn x_crossing_is_symmetric() {
        let mut b = Topology::builder();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(2.0, 2.0));
        let v2 = b.add_node(Point::new(0.0, 2.0));
        let v3 = b.add_node(Point::new(2.0, 0.0));
        let d1 = b.add_link(v0, v1, 1).unwrap();
        let d2 = b.add_link(v2, v3, 1).unwrap();
        // A non-crossing side link.
        let side = b.add_link(v0, v2, 1).unwrap();
        let topo = b.build().unwrap();
        let t = CrossLinkTable::new(&topo);
        assert!(t.crosses(d1, d2));
        assert!(t.crosses(d2, d1));
        assert!(!t.crosses(d1, side));
        assert_eq!(t.crossing_pair_count(), 1);
    }

    #[test]
    fn shared_endpoint_links_do_not_cross() {
        let mut b = Topology::builder();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(2.0, 0.0));
        let v2 = b.add_node(Point::new(1.0, 2.0));
        let l1 = b.add_link(v0, v1, 1).unwrap();
        let l2 = b.add_link(v0, v2, 1).unwrap();
        let topo = b.build().unwrap();
        let t = CrossLinkTable::new(&topo);
        assert!(!t.crosses(l1, l2));
    }

    #[test]
    fn mask_rows_agree_with_lists() {
        let mut b = Topology::builder();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(2.0, 2.0));
        let v2 = b.add_node(Point::new(0.0, 2.0));
        let v3 = b.add_node(Point::new(2.0, 0.0));
        let d1 = b.add_link(v0, v1, 1).unwrap();
        let d2 = b.add_link(v2, v3, 1).unwrap();
        let side = b.add_link(v0, v2, 1).unwrap();
        let topo = b.build().unwrap();
        let t = CrossLinkTable::new(&topo);
        assert!(t.has_dense_masks());
        for l in topo.link_ids() {
            let row = t.crossing_mask(l);
            assert_eq!(row.len(), 1, "3 links fit one word");
            let from_row: Vec<LinkId> = topo.link_ids().filter(|&o| t.crosses(l, o)).collect();
            assert_eq!(from_row, t.crossings_of(l));
        }
        assert_eq!(t.crossing_mask(d1), &[1u64 << d2.index()]);
        assert_eq!(t.crossing_mask(side), &[0]);
        assert!(t.crossing_mask(LinkId(99)).is_empty());
    }

    #[test]
    fn multiple_crossings_recorded_sorted() {
        // One long horizontal link crossed by two verticals.
        let mut b = Topology::builder();
        let w = b.add_node(Point::new(-5.0, 0.0));
        let e = b.add_node(Point::new(5.0, 0.0));
        let n1 = b.add_node(Point::new(-2.0, 2.0));
        let s1 = b.add_node(Point::new(-2.0, -2.0));
        let n2 = b.add_node(Point::new(2.0, 2.0));
        let s2 = b.add_node(Point::new(2.0, -2.0));
        let horizontal = b.add_link(w, e, 1).unwrap();
        let vert1 = b.add_link(n1, s1, 1).unwrap();
        let vert2 = b.add_link(n2, s2, 1).unwrap();
        let topo = b.build().unwrap();
        let t = CrossLinkTable::new(&topo);
        assert_eq!(t.crossings_of(horizontal), &[vert1, vert2]);
        assert_eq!(t.crossings_of(vert1), &[horizontal]);
        assert_eq!(t.crossing_pair_count(), 2);
    }

    #[test]
    fn grid_builder_matches_all_pairs_on_a_dense_mesh() {
        let topo = crate::generate::isp_like(40, 180, 500.0, 99).unwrap();
        let oracle = CrossLinkTable::new_all_pairs(&topo);
        let grid = CrossLinkTable::new_grid(&topo);
        assert_eq!(oracle, grid);
        assert!(oracle.crossing_pair_count() > 0, "mesh should self-cross");
    }

    /// A sparse-mode table built over a synthetic segment soup: verifies
    /// list/binary-search probes and `crosses_any` agree with a
    /// dense table over the same geometry.
    #[test]
    fn sparse_mode_probes_agree_with_dense() {
        let topo = crate::generate::isp_like(60, 200, 800.0, 7).unwrap();
        let dense = CrossLinkTable::new_all_pairs(&topo);
        assert!(dense.has_dense_masks());
        // Force a sparse finish over the identical crossing lists.
        let sparse = CrossLinkTable {
            masks: Vec::new(),
            stride: 0,
            dense: false,
            crossings: dense.crossings.clone(),
            total_pairs: dense.total_pairs,
        };
        assert!(sparse.crossing_mask(LinkId(0)).is_empty());
        let mut set = LinkBitSet::with_link_capacity(topo.link_count());
        for l in topo.link_ids().take(40) {
            set.insert(l);
        }
        for a in topo.link_ids() {
            assert_eq!(
                sparse.crosses_any(a, &set),
                dense.crosses_any(a, &set),
                "crosses_any diverges at {a}"
            );
            for b in topo.link_ids() {
                assert_eq!(sparse.crosses(a, b), dense.crosses(a, b));
            }
        }
    }
}
