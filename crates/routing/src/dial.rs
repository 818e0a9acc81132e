//! Dial's monotone bucket queue for the shortest-path computations.
//!
//! Rocketfuel-derived link costs are small integers (the paper's
//! evaluation uses hop counts, i.e. all costs 1), so the Dijkstra
//! frontier's key span is tiny: while settling distance `d`, every queued
//! key lies in `[d, d + C]` where `C` is the topology's maximum link cost.
//! Dial's algorithm exploits that with `C + 1` circular buckets indexed by
//! `key mod (C + 1)` — pushes and pops are O(1) array operations instead
//! of heap sifts.
//!
//! # Pop order
//!
//! The queue pops entries in lexicographically ascending `(dist, node)`
//! order, exactly as a `BinaryHeap<Reverse<(dist, node)>>` would:
//!
//! * keys only grow, and all link costs are ≥ 1 (the topology builder
//!   rejects zero costs), so no relaxation performed while draining the
//!   bucket for distance `d` can push another key-`d` entry — a bucket's
//!   contents are frozen by the time its drain starts;
//! * sorting each bucket ascending by node id before draining therefore
//!   yields ascending `(dist, node)` across the whole run, duplicates
//!   included.
//!
//! That order (distances, parents, and settle order on ties) is pinned
//! against a binary-heap reference Dijkstra by the proptests in
//! `tests/dijkstra_proptest.rs`.
//!
//! Only the monotone runs (`dijkstra`, `DijkstraScratch::run`/`run_to`,
//! `IncrementalSpt` construction and `reset`) use this queue. The repair
//! loops of [`IncrementalSpt::remove_links`](crate::IncrementalSpt::remove_links)
//! and `restore_links` seed their
//! frontier with already-absolute distances spanning far more than `C`,
//! violating the circular-bucket invariant, so they run on a binary heap.

/// Dial's circular bucket queue over `span = max_link_cost + 1` buckets.
///
/// Entries are bare node ids; the key of every entry in a bucket is
/// implied by the drain cursor. Stale entries (the node was re-pushed at a
/// smaller key) are filtered by the caller's `dist[u] == Some(d)` check,
/// exactly as with the heap. All buffers retain capacity across
/// [`reset`](Self::reset), so steady-state runs allocate nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct DialQueue {
    /// `span` circular buckets; the bucket for key `k` is `k % span`.
    buckets: Vec<Vec<u32>>,
    /// Active bucket count for the current run (`max_link_cost + 1`).
    span: usize,
    /// Entries queued across all buckets (staleness not known here).
    pending: usize,
    /// Key of the next bucket to inspect (`cursor % span` indexes it).
    cursor: u64,
    /// The bucket currently being drained, sorted ascending by node id.
    drain: Vec<u32>,
    /// Next position in `drain`.
    drain_pos: usize,
    /// Absolute key of every entry in `drain`.
    drain_key: u64,
}

impl DialQueue {
    /// Prepares the queue for a run where all link costs are ≤
    /// `max_link_cost`, clearing prior state but retaining capacity.
    pub(crate) fn reset(&mut self, max_link_cost: u32) {
        let span = max_link_cost as usize + 1;
        if self.buckets.len() < span {
            self.buckets.resize_with(span, Vec::new);
        }
        for b in &mut self.buckets {
            b.clear();
        }
        self.span = span;
        self.pending = 0;
        self.cursor = 0;
        self.drain.clear();
        self.drain_pos = 0;
        self.drain_key = 0;
    }

    /// Enqueues `node` with key `dist`.
    #[inline]
    pub(crate) fn push(&mut self, dist: u64, node: u32) {
        // The monotonicity invariant guarantees `dist` is within `span` of
        // the drain cursor, so the modular index is unambiguous.
        debug_assert!(self.drain_pos >= self.drain.len() || dist > self.drain_key);
        debug_assert!(dist < self.drain_key + self.span as u64 || self.pending == 0);
        let idx = (dist % self.span as u64) as usize;
        if let Some(bucket) = self.buckets.get_mut(idx) {
            bucket.push(node);
            self.pending += 1;
        }
    }

    /// Removes and returns the minimum `(dist, node)` entry.
    pub(crate) fn pop(&mut self) -> Option<(u64, u32)> {
        if let Some(&node) = self.drain.get(self.drain_pos) {
            self.drain_pos += 1;
            self.pending -= 1;
            return Some((self.drain_key, node));
        }
        if self.pending == 0 {
            return None;
        }
        // Advance to the next non-empty bucket; `pending > 0` guarantees
        // one exists within the next `span` keys.
        loop {
            let idx = (self.cursor % self.span as u64) as usize;
            let Some(bucket) = self.buckets.get_mut(idx) else {
                return None; // unreachable: idx < span <= buckets.len()
            };
            if bucket.is_empty() {
                self.cursor += 1;
                continue;
            }
            // Swap the bucket out for draining (its contents are frozen:
            // all costs ≥ 1, so relaxations at this key push strictly
            // larger keys) and sort to reproduce the heap's id order.
            self.drain.clear();
            std::mem::swap(&mut self.drain, bucket);
            self.drain.sort_unstable();
            self.drain_pos = 1;
            self.drain_key = self.cursor;
            self.cursor += 1;
            self.pending -= 1;
            return self.drain.first().map(|&node| (self.drain_key, node));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(q: &mut DialQueue) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_key_then_id_order() {
        let mut q = DialQueue::default();
        q.reset(3);
        q.push(0, 7);
        let first = q.pop();
        assert_eq!(first, Some((0, 7)));
        q.push(2, 9);
        q.push(1, 4);
        q.push(2, 1);
        q.push(1, 11);
        assert_eq!(drain_all(&mut q), vec![(1, 4), (1, 11), (2, 1), (2, 9)]);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn duplicates_pop_adjacently() {
        let mut q = DialQueue::default();
        q.reset(1);
        q.push(0, 0);
        assert_eq!(q.pop(), Some((0, 0)));
        q.push(1, 5);
        q.push(1, 5);
        q.push(1, 2);
        assert_eq!(drain_all(&mut q), vec![(1, 2), (1, 5), (1, 5)]);
    }

    #[test]
    fn circular_reuse_across_long_runs() {
        // Span 2 (unit costs): keys wrap the two buckets many times.
        let mut q = DialQueue::default();
        q.reset(1);
        q.push(0, 0);
        for expect in 0..50u64 {
            let (d, n) = q.pop().expect("chain continues");
            assert_eq!((d, n), (expect, expect as u32));
            q.push(d + 1, n + 1);
        }
        // Unconsumed chain tail remains pending; reset clears it.
        q.reset(4);
        assert_eq!(q.pop(), None);
        q.push(0, 3);
        assert_eq!(q.pop(), Some((0, 3)));
    }

    #[test]
    fn reset_retains_capacity_but_not_entries() {
        let mut q = DialQueue::default();
        q.reset(2);
        q.push(0, 1);
        q.push(1, 2);
        q.reset(2);
        assert_eq!(q.pop(), None);
    }
}
