//! Byte-identity property for the incrementally maintained baseline (see
//! DESIGN.md §14): after folding an *arbitrary* sequence of fail/repair
//! events into a [`DynamicBaseline`] — overlapping batches, repairs of
//! links that never failed, repeated failures of already-dead links —
//! every observable (link mask, per-source distances and tree parents,
//! first-hop destination buckets) must be byte-identical to the state a
//! full from-scratch rebuild produces at the same point.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtr_eval::baseline::Baseline;
use rtr_eval::churn::{DynamicBaseline, PatchStats};
use rtr_topology::{generate, LinkId, Point, Timeline, TimelineEvent};
use std::sync::Arc;

/// An arbitrary event stream over `topo`'s links: each step downs and
/// repairs random link subsets with no consistency discipline at all —
/// repairs of never-failed links and re-downs of dead links included.
fn arbitrary_events(link_count: usize, steps: usize, seed: u64) -> Vec<TimelineEvent> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x71e3_55aa);
    (0..steps)
        .map(|i| {
            let pick = |rng: &mut StdRng, max: usize| -> Vec<LinkId> {
                let k = rng.gen_range(0..=max);
                (0..k)
                    .map(|_| LinkId(rng.gen_range(0..link_count as u32)))
                    .collect()
            };
            TimelineEvent {
                at_ms: (i as u64 + 1) * 10,
                down: pick(&mut rng, 4),
                up: pick(&mut rng, 4),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental patching is byte-identical to a full rebuild at every
    /// prefix of an arbitrary fail/repair interleaving.
    #[test]
    fn patched_baseline_matches_rebuild_at_every_prefix(
        n in 6..24usize,
        extra in 0..30usize,
        steps in 1..7usize,
        seed in 0..5_000u64,
    ) {
        let max = n * (n - 1) / 2;
        let m = (n - 1 + extra).min(max);
        let topo = generate::isp_like(n, m, 2000.0, seed).unwrap();
        let events = arbitrary_events(topo.link_count(), steps, seed);

        let base = Arc::new(Baseline::new(topo));
        let mut dynbase = DynamicBaseline::new(Arc::clone(&base));
        for ev in &events {
            dynbase.apply_event(ev);
            let oracle = dynbase.rebuilt();
            prop_assert_eq!(dynbase.divergence(&oracle), None);
        }
    }

    /// Unit-cost grids are tie-heavy: most nodes have several equal-length
    /// paths, so restores often change only a node's `(parent, link)` tie
    /// and, with it, the first hop of a whole subtree whose distances all
    /// stay put. A damage front sweeping across such a grid must still
    /// leave the patched state byte-identical to a rebuild at every prefix.
    #[test]
    fn moving_fronts_on_unit_grids_match_rebuild_at_every_prefix(
        rows in 2..9usize,
        cols in 2..9usize,
        y in 0.0..7.0f64,
        radius in 0.6..2.5f64,
        dx in 0.4..1.6f64,
        steps in 2..9usize,
    ) {
        let topo = generate::grid(rows, cols, 1.0);
        let timeline =
            Timeline::moving_front(&topo, Point::new(-1.0, y), (dx, 0.0), radius, steps, 10);
        let base = Arc::new(Baseline::new(topo));
        let mut dynbase = DynamicBaseline::new(Arc::clone(&base));
        for ev in timeline.events() {
            dynbase.apply_event(ev);
            let oracle = dynbase.rebuilt();
            prop_assert_eq!(dynbase.divergence(&oracle), None);
        }
    }

    /// Repairing links that never failed leaves the state untouched and
    /// reports zero patch work.
    #[test]
    fn repair_of_never_failed_links_is_a_noop(
        n in 6..20usize,
        seed in 0..5_000u64,
    ) {
        let topo = generate::isp_like(n, n + 4, 2000.0, seed).unwrap();
        let link_count = topo.link_count();
        let base = Arc::new(Baseline::new(topo));
        let pristine = DynamicBaseline::new(Arc::clone(&base));
        let mut dynbase = DynamicBaseline::new(Arc::clone(&base));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0be5);
        let ups: Vec<LinkId> = (0..4)
            .map(|_| LinkId(rng.gen_range(0..link_count as u32 + 8)))
            .collect();
        let stats = dynbase.apply_event(&TimelineEvent { at_ms: 1, down: vec![], up: ups });
        prop_assert_eq!(stats, PatchStats::default());
        prop_assert_eq!(dynbase.divergence(&pristine), None);
    }

    /// The generators' timelines (the streams the eval driver actually
    /// replays) preserve the identity too, and the believed mask tracks
    /// `Timeline::mask_after` exactly.
    #[test]
    fn generated_timelines_preserve_identity(
        seed in 0..2_000u64,
        fail_per_step in 1..4usize,
    ) {
        let topo = generate::grid(5, 5, 100.0);
        let timeline = Timeline::random_churn(&topo, 5, 20, fail_per_step, 0.4, seed);
        let expect_mask = timeline.mask_after(&topo, timeline.len());
        let base = Arc::new(Baseline::new(topo));
        let mut dynbase = DynamicBaseline::new(Arc::clone(&base));
        for ev in timeline.events() {
            dynbase.apply_event(ev);
        }
        prop_assert_eq!(dynbase.divergence(&dynbase.rebuilt()), None);
        for l in 0..dynbase.topo().link_count() {
            let l = LinkId(l as u32);
            prop_assert_eq!(dynbase.mask().is_removed(l), expect_mask.is_removed(l));
        }
    }
}
