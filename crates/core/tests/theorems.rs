//! Property-based tests encoding the paper's three theorems (§III-E) plus
//! the soundness invariant E1 ⊆ E2 used by Theorem 2's proof.

use proptest::prelude::*;
use rtr_core::{DeliveryOutcome, Phase1Termination, RtrSession, SessionPool};
use rtr_obs::NoopSink;
use rtr_routing::{shortest_path, RoutingTable};
use rtr_sim::{CaseKind, Network};
use rtr_topology::{
    generate, isp, CrossLinkTable, FailureScenario, FullView, GraphView, NodeId, Region, Topology,
};

/// Enumerates (initiator, failed_link) recovery entry points: every live
/// node with at least one live neighbor and at least one unreachable one.
fn entry_points(topo: &Topology, s: &FailureScenario) -> Vec<(NodeId, rtr_topology::LinkId)> {
    topo.node_ids()
        .filter(|&n| !s.is_node_failed(n))
        .filter_map(|n| {
            let dead = topo
                .neighbors(n)
                .iter()
                .find(|&&(_, l)| !s.is_neighbor_reachable(topo, n, l))?;
            let has_live = topo
                .neighbors(n)
                .iter()
                .any(|&(_, l)| s.is_neighbor_reachable(topo, n, l));
            has_live.then_some((n, dead.1))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 1: phase 1 terminates (no permanent loops). The defensive
    /// step budget of 4m+8 must never be the reason the walk stops.
    #[test]
    fn theorem1_phase1_always_terminates(
        n in 10..45usize,
        extra in 0..80usize,
        seed in 0..400u64,
        cx in 0.0..2000.0f64,
        cy in 0.0..2000.0f64,
        r in 50.0..400.0f64,
    ) {
        let max = n * (n - 1) / 2;
        let m = (n - 1 + extra).min(max);
        let topo = generate::isp_like(n, m, 2000.0, seed).unwrap();
        let crosslinks = CrossLinkTable::new(&topo);
        let pool = SessionPool::new();
        let s = FailureScenario::from_region(&topo, &Region::circle((cx, cy), r));
        for (initiator, failed) in entry_points(&topo, &s) {
            let session = pool.start_session(&topo, &crosslinks, &s, initiator, failed).unwrap();
            prop_assert_ne!(
                session.phase1().termination,
                Phase1Termination::StepBudgetExhausted,
                "phase 1 must terminate at initiator {} in topo seed {}",
                initiator,
                seed
            );
        }
    }

    /// Soundness: the collected failed-link set E1 contains only links that
    /// truly failed (E1 ⊆ E2), and never links incident to the initiator.
    #[test]
    fn collected_failures_are_sound(
        n in 10..40usize,
        seed in 0..300u64,
        cx in 0.0..2000.0f64,
        cy in 0.0..2000.0f64,
        r in 50.0..400.0f64,
    ) {
        let m = (2 * n).min(n * (n - 1) / 2);
        let topo = generate::isp_like(n, m, 2000.0, seed).unwrap();
        let crosslinks = CrossLinkTable::new(&topo);
        let pool = SessionPool::new();
        let s = FailureScenario::from_region(&topo, &Region::circle((cx, cy), r));
        for (initiator, failed) in entry_points(&topo, &s) {
            let session = pool.start_session(&topo, &crosslinks, &s, initiator, failed).unwrap();
            for l in session.phase1().header.failed_links() {
                prop_assert!(
                    !s.is_link_usable(&topo, l),
                    "live link {l} labelled as failed"
                );
                prop_assert!(
                    !topo.link(l).is_incident_to(initiator),
                    "initiator-incident link {l} must not be recorded"
                );
            }
        }
    }

    /// Theorem 2: every *delivered* recovery path is a shortest path in the
    /// ground-truth failed topology (stretch exactly 1).
    #[test]
    fn theorem2_delivered_paths_are_optimal(
        n in 10..40usize,
        seed in 0..300u64,
        cx in 0.0..2000.0f64,
        cy in 0.0..2000.0f64,
        r in 50.0..400.0f64,
    ) {
        let m = (2 * n).min(n * (n - 1) / 2);
        let topo = generate::isp_like(n, m, 2000.0, seed).unwrap();
        let crosslinks = CrossLinkTable::new(&topo);
        let pool = SessionPool::new();
        let s = FailureScenario::from_region(&topo, &Region::circle((cx, cy), r));
        for (initiator, failed) in entry_points(&topo, &s).into_iter().take(3) {
            let mut session = pool.start_session(&topo, &crosslinks, &s, initiator, failed).unwrap();
            for dest in topo.node_ids() {
                if dest == initiator {
                    continue;
                }
                let attempt = session.recover(dest);
                if attempt.is_delivered() {
                    let optimal = shortest_path(&topo, &s, initiator, dest)
                        .expect("delivered implies reachable")
                        .cost();
                    prop_assert_eq!(attempt.path.unwrap().cost(), optimal);
                }
            }
        }
    }

    /// Theorem 3: under any single link failure, every failed routing path
    /// with a reachable destination is recovered with a shortest path.
    #[test]
    fn theorem3_single_link_failure_full_recovery(
        n in 8..35usize,
        seed in 0..300u64,
        link_pick in 0..10000usize,
    ) {
        let m = (2 * n).min(n * (n - 1) / 2);
        let topo = generate::isp_like(n, m, 2000.0, seed).unwrap();
        let crosslinks = CrossLinkTable::new(&topo);
        let pool = SessionPool::new();
        let table = RoutingTable::compute(&topo, &FullView);
        let failed_link = rtr_topology::LinkId((link_pick % topo.link_count()) as u32);
        let s = FailureScenario::single_link(&topo, failed_link);
        let net = Network::new(&topo, &s, &table);

        for src in topo.node_ids() {
            for dest in topo.node_ids() {
                if src == dest {
                    continue;
                }
                match net.classify(src, dest) {
                    CaseKind::Recoverable { initiator, failed_link: fl } => {
                        let mut session = pool.start_session(&topo, &crosslinks, &s, initiator, fl).unwrap();
                        let attempt = session.recover(dest);
                        prop_assert!(
                            attempt.is_delivered(),
                            "single-link failure must always recover ({src}->{dest})"
                        );
                        let optimal = shortest_path(&topo, &s, initiator, dest).unwrap().cost();
                        prop_assert_eq!(attempt.path.unwrap().cost(), optimal);
                        prop_assert_eq!(session.sp_calculations(), 1);
                    }
                    CaseKind::Irrecoverable { .. } => {
                        // The failed link was a bridge: nothing to assert.
                    }
                    _ => {}
                }
            }
        }
    }

    /// Phase 1 never delivers a packet to a dead node and always walks over
    /// live links only.
    #[test]
    fn phase1_walk_uses_only_live_links(
        n in 10..35usize,
        seed in 0..200u64,
        cx in 0.0..2000.0f64,
        cy in 0.0..2000.0f64,
        r in 100.0..350.0f64,
    ) {
        let m = (2 * n).min(n * (n - 1) / 2);
        let topo = generate::isp_like(n, m, 2000.0, seed).unwrap();
        let crosslinks = CrossLinkTable::new(&topo);
        let pool = SessionPool::new();
        let s = FailureScenario::from_region(&topo, &Region::circle((cx, cy), r));
        for (initiator, failed) in entry_points(&topo, &s).into_iter().take(4) {
            let session = pool.start_session(&topo, &crosslinks, &s, initiator, failed).unwrap();
            let nodes: Vec<NodeId> = session.phase1().trace.nodes().collect();
            for w in nodes.windows(2) {
                let l = topo.link_between(w[0], w[1])
                    .expect("consecutive trace nodes are adjacent");
                prop_assert!(s.is_link_usable(&topo, l), "walk used dead link {l}");
            }
            if session.phase1().is_complete() {
                prop_assert_eq!(*nodes.last().unwrap(), initiator, "loop returns home");
            }
        }
    }

    /// Multiple failure areas: phase 1 still terminates and delivered
    /// recoveries are still optimal (§III-E's multi-area discussion).
    #[test]
    fn multi_area_termination_and_optimality(
        n in 12..35usize,
        seed in 0..200u64,
        c1 in (0.0..900.0f64, 0.0..900.0f64),
        c2 in (1100.0..2000.0f64, 1100.0..2000.0f64),
        r1 in 50.0..300.0f64,
        r2 in 50.0..300.0f64,
    ) {
        let m = (2 * n).min(n * (n - 1) / 2);
        let topo = generate::isp_like(n, m, 2000.0, seed).unwrap();
        let crosslinks = CrossLinkTable::new(&topo);
        let pool = SessionPool::new();
        let region = Region::Union(vec![
            Region::circle(c1, r1),
            Region::circle(c2, r2),
        ]);
        let s = FailureScenario::from_region(&topo, &region);
        for (initiator, failed) in entry_points(&topo, &s).into_iter().take(3) {
            let mut session = pool.start_session(&topo, &crosslinks, &s, initiator, failed).unwrap();
            prop_assert_ne!(
                session.phase1().termination,
                Phase1Termination::StepBudgetExhausted
            );
            for dest in topo.node_ids().step_by(3) {
                if dest == initiator {
                    continue;
                }
                let attempt = session.recover(dest);
                if attempt.is_delivered() {
                    let optimal = shortest_path(&topo, &s, initiator, dest).unwrap().cost();
                    prop_assert_eq!(attempt.path.unwrap().cost(), optimal);
                }
            }
        }
    }
}

/// Deterministic regression: the paper's headline property on all eight
/// Table II twins with one mid-plane failure circle each.
#[test]
fn all_isp_twins_recover_optimally() {
    for (profile, topo) in isp::all_twins() {
        let crosslinks = CrossLinkTable::new(&topo);
        let pool = SessionPool::new();
        let s = FailureScenario::from_region(&topo, &Region::circle((1000.0, 1000.0), 250.0));
        let mut tested = 0;
        for (initiator, failed) in entry_points(&topo, &s).into_iter().take(5) {
            let mut session = pool
                .start_session(&topo, &crosslinks, &s, initiator, failed)
                .unwrap();
            assert_ne!(
                session.phase1().termination,
                Phase1Termination::StepBudgetExhausted,
                "{}",
                profile.name
            );
            for dest in topo.node_ids() {
                if dest == initiator {
                    continue;
                }
                let attempt = session.recover(dest);
                match attempt.outcome {
                    DeliveryOutcome::Delivered => {
                        let optimal = shortest_path(&topo, &s, initiator, dest).unwrap().cost();
                        assert_eq!(
                            attempt.path.unwrap().cost(),
                            optimal,
                            "{}: suboptimal recovery {initiator}->{dest}",
                            profile.name
                        );
                        tested += 1;
                    }
                    DeliveryOutcome::NoPath | DeliveryOutcome::HitFailure { .. } => {}
                }
            }
        }
        assert!(tested > 0, "{}: no recovery was exercised", profile.name);
    }
}

/// The thorough collection variant preserves soundness (E1 ⊆ E2), never
/// collects less than the single sweep it extends, and recovered paths
/// remain optimal.
#[test]
fn thorough_collection_is_sound_and_dominant() {
    use rtr_core::phase1::collect_failure_info_thorough;
    for seed in [3u64, 17, 99] {
        let topo = generate::isp_like(35, 85, 2000.0, seed).unwrap();
        let crosslinks = CrossLinkTable::new(&topo);
        let s = FailureScenario::from_region(&topo, &Region::circle((1000.0, 1000.0), 300.0));
        for (initiator, failed) in entry_points(&topo, &s).into_iter().take(4) {
            let single = rtr_core::collect_failure_info(
                &topo,
                &crosslinks,
                &s,
                initiator,
                failed,
                &mut NoopSink,
            )
            .unwrap();
            let thorough =
                collect_failure_info_thorough(&topo, &crosslinks, &s, initiator).unwrap();
            // Soundness: only real failures.
            for l in thorough.header.failed_links() {
                assert!(!s.is_link_usable(&topo, l));
            }
            // Dominance: every link the single sweep found is still found.
            for l in single.header.failed_links() {
                assert!(thorough.header.failed_links().contains(l));
            }
            assert!(thorough.total_hops >= single.trace.hops());
            assert!(thorough.sweeps >= 1);

            // Recovery through the thorough session stays optimal.
            let (mut session, _) =
                RtrSession::start_thorough(&topo, &crosslinks, &s, initiator, failed).unwrap();
            for dest in topo.node_ids().step_by(4) {
                if dest == initiator {
                    continue;
                }
                let attempt = session.recover(dest);
                if attempt.is_delivered() {
                    let optimal = shortest_path(&topo, &s, initiator, dest).unwrap().cost();
                    assert_eq!(attempt.path.unwrap().cost(), optimal);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Theorems 1 and 2 under *weighted asymmetric* costs (§II-A allows
    /// c(i,j) ≠ c(j,i)): phase 1 is cost-agnostic and still terminates;
    /// delivered recovery paths equal the weighted ground-truth optimum.
    #[test]
    fn theorems_hold_under_asymmetric_costs(
        n in 10..35usize,
        seed in 0..200u64,
        cost_seed in 0..100u64,
        cx in 0.0..2000.0f64,
        cy in 0.0..2000.0f64,
        r in 80.0..350.0f64,
    ) {
        let m = (2 * n).min(n * (n - 1) / 2);
        let base = generate::isp_like(n, m, 2000.0, seed).unwrap();
        let topo = generate::with_random_costs(&base, 1, 10, cost_seed);
        let crosslinks = CrossLinkTable::new(&topo);
        let pool = SessionPool::new();
        let s = FailureScenario::from_region(&topo, &Region::circle((cx, cy), r));
        for (initiator, failed) in entry_points(&topo, &s).into_iter().take(3) {
            let mut session = pool.start_session(&topo, &crosslinks, &s, initiator, failed).unwrap();
            prop_assert_ne!(
                session.phase1().termination,
                Phase1Termination::StepBudgetExhausted
            );
            for dest in topo.node_ids().step_by(2) {
                if dest == initiator {
                    continue;
                }
                let attempt = session.recover(dest);
                if attempt.is_delivered() {
                    let optimal = shortest_path(&topo, &s, initiator, dest).unwrap().cost();
                    prop_assert_eq!(attempt.path.unwrap().cost(), optimal);
                }
            }
        }
    }
}
