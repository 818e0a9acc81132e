//! Multi-area recovery (§III-E): chaining RTR sessions across failure
//! areas.
//!
//! Base RTR discards a packet whose recovery path runs into a failure the
//! first phase missed. §III-E sketches the extension for multiple failure
//! areas: "the packet header needs to carry failure information of F1.
//! When it encounters another failure area F2, the recovery initiator
//! removes all failed links recorded in the packet header. Through it, the
//! computed recovery path can bypass both F1 and F2."
//!
//! [`recover_multi_area`] implements that chain: when the source-routed
//! packet hits a dead link, the router holding it becomes a *new* recovery
//! initiator, runs its own phase 1, merges the carried failure set with
//! what it collects, recomputes, and forwards again. Every encounter adds
//! at least one new link to the carried set, so the chain terminates.

use crate::error::Phase1Error;
use crate::phase1::collect_failure_info;
use crate::phase2::DeliveryOutcome;
use rtr_obs::NoopSink;
use rtr_routing::{IncrementalSpt, BYTES_PER_HOP};
use rtr_sim::{ForwardingTrace, LinkIdSet};
use rtr_topology::{CrossLinkTable, GraphView, LinkId, LinkMask, NodeId, Topology};

/// The result of a multi-area recovery chain.
#[derive(Debug, Clone)]
pub struct MultiAreaOutcome {
    /// Final fate of the packet.
    pub outcome: DeliveryOutcome,
    /// Number of chained recovery sessions (1 = plain RTR sufficed).
    pub sessions: usize,
    /// Concatenated hop-by-hop trace: every phase-1 loop and every
    /// source-routed segment, in order.
    pub trace: ForwardingTrace,
    /// All failed links the packet header accumulated.
    pub carried: LinkIdSet,
}

impl MultiAreaOutcome {
    /// Returns true when the destination was reached.
    pub fn is_delivered(&self) -> bool {
        self.outcome == DeliveryOutcome::Delivered
    }
}

/// Recovers `initiator` → `dest` across any number of failure areas by
/// chaining RTR sessions, carrying collected failure information in the
/// packet header (§III-E). `max_sessions` bounds the chain (the carried
/// set grows every round, so `topo.link_count()` is a safe upper bound;
/// pass a small number to model a hop-budget).
///
/// # Errors
///
/// Same contract as [`crate::phase1::collect_failure_info`]: the initial
/// `failed_link` must be a failed link incident to `initiator`, and every
/// chained initiator must have a live neighbor.
pub fn recover_multi_area(
    topo: &Topology,
    crosslinks: &CrossLinkTable,
    view: &impl GraphView,
    initiator: NodeId,
    failed_link: LinkId,
    dest: NodeId,
    max_sessions: usize,
) -> Result<MultiAreaOutcome, Phase1Error> {
    let mut carried = LinkIdSet::new();
    // Mirror of `carried` in mask form, so chained sessions can seed their
    // SPT directly from the carried view instead of replaying removals.
    let mut mask = LinkMask::none(topo);
    let mut trace = ForwardingTrace::start(initiator, 0);
    let mut cur_initiator = initiator;
    let mut cur_failed = failed_link;
    let mut sessions = 0usize;
    // One SPT reused (buffers and all) across the whole chain; re-rooted
    // per session via `reset` over the carried-link mask.
    let mut spt = IncrementalSpt::new(topo, initiator);

    while sessions < max_sessions {
        sessions += 1;

        // Phase 1 at the current initiator.
        let p1 = collect_failure_info(
            topo,
            crosslinks,
            view,
            cur_initiator,
            cur_failed,
            &mut NoopSink,
        )?;
        if p1.trace.hops() > 0 {
            trace.extend_with(&p1.trace);
        }
        for l in p1.header.failed_links() {
            carried.insert(l);
            mask.remove(l);
        }
        for &(_, l) in topo.neighbors(cur_initiator) {
            if !view.is_link_usable(topo, l) {
                carried.insert(l);
                mask.remove(l);
            }
        }

        // Phase 2 on the union of everything the packet knows. The first
        // session repairs the intact tree incrementally; chained sessions
        // re-root the same buffers over the accumulated carried mask.
        if sessions == 1 {
            spt.remove_links(carried.iter());
        } else {
            spt.reset(&mask, cur_initiator);
        }
        let Some(path) = spt.path_to(dest) else {
            return Ok(MultiAreaOutcome {
                outcome: DeliveryOutcome::NoPath,
                sessions,
                trace,
                carried,
            });
        };

        // Source-route along the believed path until delivery or the next
        // failure encounter. Header bytes are the carried failure set plus
        // the shrinking source route (2 per remaining hop).
        let mut remaining = path.hops();
        let mut encounter: Option<(NodeId, LinkId)> = None;
        for ((&l, &from), &to) in path
            .links()
            .iter()
            .zip(path.nodes())
            .zip(path.nodes().iter().skip(1))
        {
            if !view.is_link_usable(topo, l) {
                encounter = Some((from, l));
                break;
            }
            remaining = remaining.saturating_sub(1);
            trace.record_hop(to, carried.header_bytes() + remaining * BYTES_PER_HOP);
        }
        match encounter {
            None => {
                return Ok(MultiAreaOutcome {
                    outcome: DeliveryOutcome::Delivered,
                    sessions,
                    trace,
                    carried,
                });
            }
            Some((at, l)) => {
                // §III-E: the node that hit the next area becomes the new
                // recovery initiator; the carried header keeps growing.
                carried.insert(l);
                mask.remove(l);
                cur_initiator = at;
                cur_failed = l;
            }
        }
    }

    Ok(MultiAreaOutcome {
        outcome: DeliveryOutcome::HitFailure {
            at_link: cur_failed,
        },
        sessions,
        trace,
        carried,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SessionPool;
    use rtr_topology::{generate, FailureScenario, Region};

    fn entry_point(topo: &Topology, s: &FailureScenario) -> Option<(NodeId, LinkId)> {
        topo.node_ids().find_map(|n| {
            if s.is_node_failed(n) {
                return None;
            }
            let dead = topo
                .neighbors(n)
                .iter()
                .find(|&&(_, l)| !s.is_link_usable(topo, l))?;
            let live = topo
                .neighbors(n)
                .iter()
                .any(|&(_, l)| s.is_link_usable(topo, l));
            live.then_some((n, dead.1))
        })
    }

    /// Finds a (topology seed, scenario) pair with a usable entry point.
    fn scenario_with_entry(
        region: &Region,
        n: usize,
        m: usize,
    ) -> (Topology, FailureScenario, NodeId, LinkId) {
        for seed in 0..50u64 {
            let topo = generate::isp_like(n, m, 2000.0, seed).unwrap();
            let s = FailureScenario::from_region(&topo, region);
            if let Some((initiator, failed)) = entry_point(&topo, &s) {
                return (topo, s, initiator, failed);
            }
        }
        panic!("no seed produced an entry point for {region:?}");
    }

    #[test]
    fn single_area_behaves_like_plain_rtr() {
        let (topo, s, initiator, failed) =
            scenario_with_entry(&Region::circle((1000.0, 1000.0), 250.0), 30, 70);
        let xl = CrossLinkTable::new(&topo);
        let pool = SessionPool::new();
        let mut session = pool
            .start_session(&topo, &xl, &s, initiator, failed)
            .unwrap();
        for dest in topo.node_ids() {
            if dest == initiator {
                continue;
            }
            let plain = session.recover(dest);
            let multi = recover_multi_area(&topo, &xl, &s, initiator, failed, dest, 16).unwrap();
            // Multi-area recovery delivers at least whatever plain RTR does.
            if plain.is_delivered() {
                assert!(
                    multi.is_delivered(),
                    "multi-area must not regress at {dest}"
                );
                assert_eq!(multi.sessions, 1, "one area needs one session");
            }
        }
    }

    #[test]
    fn chains_across_two_areas() {
        let region = Region::Union(vec![
            Region::circle((600.0, 600.0), 250.0),
            Region::circle((1400.0, 1400.0), 250.0),
        ]);
        let (topo, s, initiator, failed) = scenario_with_entry(&region, 45, 110);
        let xl = CrossLinkTable::new(&topo);
        let pool = SessionPool::new();

        let mut plain_failures = 0;
        let mut multi_rescues = 0;
        let mut session = pool
            .start_session(&topo, &xl, &s, initiator, failed)
            .unwrap();
        for dest in topo.node_ids() {
            if dest == initiator || !rtr_topology::is_reachable(&topo, &s, initiator, dest) {
                continue;
            }
            let plain = session.recover(dest);
            let multi = recover_multi_area(&topo, &xl, &s, initiator, failed, dest, 32).unwrap();
            assert!(
                multi.is_delivered(),
                "reachable destination {dest} must be recovered by the chain"
            );
            if !plain.is_delivered() {
                plain_failures += 1;
                if multi.is_delivered() {
                    multi_rescues += 1;
                }
            }
        }
        assert_eq!(plain_failures, multi_rescues);
    }

    #[test]
    fn unreachable_destination_reports_no_path() {
        let topo = generate::path(4, 10.0).unwrap();
        let xl = CrossLinkTable::new(&topo);
        let s = FailureScenario::from_parts(&topo, [NodeId(2)], []);
        let failed = topo.link_between(NodeId(1), NodeId(2)).unwrap();
        let out = recover_multi_area(&topo, &xl, &s, NodeId(1), failed, NodeId(3), 8).unwrap();
        assert_eq!(out.outcome, DeliveryOutcome::NoPath);
        assert!(!out.is_delivered());
    }

    #[test]
    fn session_budget_is_respected() {
        let region = Region::Union(vec![
            Region::circle((500.0, 500.0), 300.0),
            Region::circle((1500.0, 1500.0), 300.0),
        ]);
        let (topo, s, initiator, failed) = scenario_with_entry(&region, 40, 100);
        let xl = CrossLinkTable::new(&topo);
        for dest in topo.node_ids() {
            if dest == initiator {
                continue;
            }
            let out = recover_multi_area(&topo, &xl, &s, initiator, failed, dest, 3).unwrap();
            assert!(out.sessions <= 3);
        }
    }

    /// Reference implementation of the chain loop that builds a fresh
    /// `IncrementalSpt::new` + bulk `remove_links` per session (the
    /// pre-scratch-reuse behavior). The production path seeds chained
    /// sessions via `reset` over the carried mask; outcomes must agree.
    fn reference_outcome(
        topo: &Topology,
        crosslinks: &CrossLinkTable,
        view: &impl GraphView,
        initiator: NodeId,
        failed_link: LinkId,
        dest: NodeId,
        max_sessions: usize,
    ) -> (DeliveryOutcome, usize, Vec<LinkId>) {
        let sorted = |c: &LinkIdSet| {
            let mut v: Vec<LinkId> = c.iter().collect();
            v.sort();
            v
        };
        let mut carried = LinkIdSet::new();
        let mut cur_initiator = initiator;
        let mut cur_failed = failed_link;
        let mut sessions = 0usize;
        while sessions < max_sessions {
            sessions += 1;
            let p1 = collect_failure_info(
                topo,
                crosslinks,
                view,
                cur_initiator,
                cur_failed,
                &mut NoopSink,
            )
            .unwrap();
            for l in p1.header.failed_links() {
                carried.insert(l);
            }
            for &(_, l) in topo.neighbors(cur_initiator) {
                if !view.is_link_usable(topo, l) {
                    carried.insert(l);
                }
            }
            let mut spt = IncrementalSpt::new(topo, cur_initiator);
            spt.remove_links(carried.iter());
            let Some(path) = spt.path_to(dest) else {
                return (DeliveryOutcome::NoPath, sessions, sorted(&carried));
            };
            let mut encounter = None;
            for (&l, &from) in path.links().iter().zip(path.nodes()) {
                if !view.is_link_usable(topo, l) {
                    encounter = Some((from, l));
                    break;
                }
            }
            match encounter {
                None => return (DeliveryOutcome::Delivered, sessions, sorted(&carried)),
                Some((at, l)) => {
                    carried.insert(l);
                    cur_initiator = at;
                    cur_failed = l;
                }
            }
        }
        (
            DeliveryOutcome::HitFailure {
                at_link: cur_failed,
            },
            sessions,
            sorted(&carried),
        )
    }

    #[test]
    fn spt_reuse_preserves_outcomes() {
        let region = Region::Union(vec![
            Region::circle((600.0, 600.0), 250.0),
            Region::circle((1400.0, 1400.0), 250.0),
        ]);
        let (topo, s, initiator, failed) = scenario_with_entry(&region, 45, 110);
        let xl = CrossLinkTable::new(&topo);
        for dest in topo.node_ids() {
            if dest == initiator {
                continue;
            }
            let got = recover_multi_area(&topo, &xl, &s, initiator, failed, dest, 16).unwrap();
            let (outcome, sessions, carried) =
                reference_outcome(&topo, &xl, &s, initiator, failed, dest, 16);
            assert_eq!(got.outcome, outcome, "outcome changed at {dest}");
            assert_eq!(got.sessions, sessions, "session count changed at {dest}");
            let mut got_carried: Vec<LinkId> = got.carried.iter().collect();
            got_carried.sort();
            assert_eq!(got_carried, carried, "carried set changed at {dest}");
        }
    }

    /// The carried set only ever contains genuinely failed links (the
    /// multi-area analogue of E1 ⊆ E2).
    #[test]
    fn carried_failures_are_sound() {
        let region = Region::Union(vec![
            Region::circle((700.0, 700.0), 250.0),
            Region::circle((1300.0, 1300.0), 200.0),
        ]);
        let (topo, s, initiator, failed) = scenario_with_entry(&region, 35, 85);
        let xl = CrossLinkTable::new(&topo);
        for dest in topo.node_ids().step_by(3) {
            if dest == initiator {
                continue;
            }
            let out = recover_multi_area(&topo, &xl, &s, initiator, failed, dest, 16).unwrap();
            for l in &out.carried {
                assert!(
                    !s.is_link_usable(&topo, l),
                    "live link {l} carried as failed"
                );
            }
        }
    }
}
