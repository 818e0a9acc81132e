//! Word-parallel bitset over [`LinkId`]s.
//!
//! The hot paths of the reproduction test link membership constantly: the
//! phase-1 sweep asks "does this candidate cross any excluded link?" at
//! every step, and the test-case harvest asks "is this link failed?" for
//! every incident link of every node. Ids are dense (assigned from zero by
//! [`TopologyBuilder`](crate::TopologyBuilder)), so a flat `u64`
//! block array answers membership in one shift and intersection in a
//! handful of ANDs — the data-structure counterpart of the incremental-SPF
//! efficiency work this milestone follows.

use crate::graph::LinkId;

/// Bits per storage word.
const WORD_BITS: usize = 64;

/// Words per chunk of the batched intersection probe (one 256-bit lane).
const LANE_WORDS: usize = 4;

/// A set of [`LinkId`]s stored as `u64` blocks, indexed by id.
///
/// Inserts grow the block array on demand; membership and word-parallel
/// intersection never allocate. Equality is *semantic*: two sets with the
/// same members compare equal regardless of trailing capacity.
///
/// # Examples
///
/// ```
/// use rtr_topology::{LinkBitSet, LinkId};
///
/// let mut s = LinkBitSet::new();
/// assert!(s.insert(LinkId(3)));
/// assert!(!s.insert(LinkId(3)));
/// assert!(s.contains(LinkId(3)));
/// assert!(!s.contains(LinkId(200)));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![LinkId(3)]);
/// ```
#[derive(Clone, Default)]
pub struct LinkBitSet {
    words: Vec<u64>,
}

impl LinkBitSet {
    /// An empty set; blocks are allocated on first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set pre-sized for ids `0..nlinks`, so inserts within that
    /// range never reallocate.
    pub fn with_link_capacity(nlinks: usize) -> Self {
        LinkBitSet {
            words: vec![0; nlinks.div_ceil(WORD_BITS)],
        }
    }

    /// Inserts `l`, growing the block array if needed. Returns true when
    /// the id was not already present.
    pub fn insert(&mut self, l: LinkId) -> bool {
        let (w, bit) = (l.index() / WORD_BITS, 1u64 << (l.index() % WORD_BITS));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        match self.words.get_mut(w) {
            Some(word) if *word & bit == 0 => {
                *word |= bit;
                true
            }
            _ => false,
        }
    }

    /// Returns true when `l` is present. Ids beyond the allocated blocks
    /// are absent by definition.
    #[inline]
    pub fn contains(&self, l: LinkId) -> bool {
        self.words
            .get(l.index() / WORD_BITS)
            .is_some_and(|w| w & (1u64 << (l.index() % WORD_BITS)) != 0)
    }

    /// Removes every member, retaining capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns true when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            // Peel the lowest set bit each step; the closure is only ever
            // invoked on non-zero words.
            std::iter::successors((w != 0).then_some(w), |&rest| {
                let peeled = rest & (rest - 1);
                (peeled != 0).then_some(peeled)
            })
            .map(move |rest| LinkId((i * WORD_BITS + rest.trailing_zeros() as usize) as u32))
        })
    }

    /// Returns true when the two sets share any member: a word-parallel
    /// AND over the overlapping blocks.
    pub fn intersects(&self, other: &LinkBitSet) -> bool {
        self.intersects_words(&other.words)
    }

    /// Like [`intersects`](Self::intersects), against a raw block slice
    /// (e.g. one row of [`CrossLinkTable`](crate::CrossLinkTable)'s
    /// crossing-mask matrix). Trailing words of the longer side are
    /// ignored.
    ///
    /// The probe runs in 4×u64 chunks reduced as an OR of ANDs: the four
    /// ANDs of a chunk are independent, so the loop carries one early exit
    /// per chunk rather than per word, the shape LLVM vectorizes to 256-bit
    /// operations where available. The sub-chunk tail goes word by word.
    #[inline]
    pub fn intersects_words(&self, words: &[u64]) -> bool {
        let n = self.words.len().min(words.len());
        let (Some(a), Some(b)) = (self.words.get(..n), words.get(..n)) else {
            return false;
        };
        let mut ca = a.chunks_exact(LANE_WORDS);
        let mut cb = b.chunks_exact(LANE_WORDS);
        for (ax, bx) in ca.by_ref().zip(cb.by_ref()) {
            if let ([a0, a1, a2, a3], [b0, b1, b2, b3]) = (ax, bx) {
                if (a0 & b0) | (a1 & b1) | (a2 & b2) | (a3 & b3) != 0 {
                    return true;
                }
            }
        }
        ca.remainder()
            .iter()
            .zip(cb.remainder())
            .any(|(x, y)| x & y != 0)
    }

    /// Adds every member of `other` (word-parallel OR).
    pub fn union_with(&mut self, other: &LinkBitSet) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// The raw storage blocks (low ids in low bits of early words).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

impl PartialEq for LinkBitSet {
    fn eq(&self, other: &Self) -> bool {
        // Compare over the longer storage, reading absent words as 0, so
        // trailing capacity is never observable.
        let n = self.words.len().max(other.words.len());
        (0..n).all(|i| {
            self.words.get(i).copied().unwrap_or(0) == other.words.get(i).copied().unwrap_or(0)
        })
    }
}

impl Eq for LinkBitSet {}

impl std::fmt::Debug for LinkBitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<LinkId> for LinkBitSet {
    fn from_iter<T: IntoIterator<Item = LinkId>>(iter: T) -> Self {
        let mut s = LinkBitSet::new();
        for l in iter {
            s.insert(l);
        }
        s
    }
}

impl Extend<LinkId> for LinkBitSet {
    fn extend<T: IntoIterator<Item = LinkId>>(&mut self, iter: T) {
        for l in iter {
            self.insert(l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_roundtrip() {
        let mut s = LinkBitSet::new();
        assert!(s.is_empty());
        assert!(s.insert(LinkId(0)));
        assert!(s.insert(LinkId(63)));
        assert!(s.insert(LinkId(64)));
        assert!(s.insert(LinkId(1000)));
        assert!(!s.insert(LinkId(64)));
        assert_eq!(s.len(), 4);
        for id in [0u32, 63, 64, 1000] {
            assert!(s.contains(LinkId(id)));
        }
        assert!(!s.contains(LinkId(65)));
        assert!(!s.contains(LinkId(100_000)));
    }

    #[test]
    fn iteration_is_ascending() {
        let s: LinkBitSet = [LinkId(130), LinkId(2), LinkId(64), LinkId(3)]
            .into_iter()
            .collect();
        let ids: Vec<LinkId> = s.iter().collect();
        assert_eq!(ids, vec![LinkId(2), LinkId(3), LinkId(64), LinkId(130)]);
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut a = LinkBitSet::with_link_capacity(1000);
        let mut b = LinkBitSet::new();
        a.insert(LinkId(5));
        b.insert(LinkId(5));
        assert_eq!(a, b);
        b.insert(LinkId(900));
        assert_ne!(a, b);
        assert_eq!(LinkBitSet::with_link_capacity(500), LinkBitSet::new());
    }

    #[test]
    fn intersects_is_word_parallel_and_symmetric() {
        let a: LinkBitSet = [LinkId(1), LinkId(200)].into_iter().collect();
        let b: LinkBitSet = [LinkId(200)].into_iter().collect();
        let c: LinkBitSet = [LinkId(2), LinkId(199)].into_iter().collect();
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(!a.intersects(&LinkBitSet::new()));
        assert!(a.intersects_words(b.words()));
    }

    #[test]
    fn union_clear_and_debug() {
        let mut a: LinkBitSet = [LinkId(1)].into_iter().collect();
        let b: LinkBitSet = [LinkId(90)].into_iter().collect();
        a.union_with(&b);
        assert_eq!(a.len(), 2);
        assert!(a.contains(LinkId(90)));
        assert_eq!(format!("{a:?}"), "{LinkId(1), LinkId(90)}");
        a.clear();
        assert!(a.is_empty());
        assert!(!a.words().is_empty(), "clear retains capacity");
    }
}
