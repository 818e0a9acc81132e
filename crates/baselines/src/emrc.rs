//! eMRC — Enhanced Multiple Routing Configurations: backtracking-free
//! multi-failure configuration switching (PAPERS.md; Hansen et al.'s
//! multi-failure extension of Kvalbein's MRC).
//!
//! Plain MRC switches configuration once and drops the packet on any
//! *second* failure its backup path runs into — the collapse mode §IV-C
//! documents under large-scale failures. eMRC instead re-applies the MRC
//! switching rule at every newly encountered failure: the router holding
//! the packet switches to the configuration isolating the newly lost
//! element and forwards along that configuration's backup path. Switching
//! is *backtracking-free*: the packet records the configurations it has
//! already tried (a k-bit header field), and a re-switch into a visited
//! configuration drops the packet instead of looping. Each switch consumes
//! a fresh configuration, so a packet switches at most `k` times.
//!
//! On single-element failures the first switch isolates the only failed
//! element, the backup path is clean, and eMRC behaves *identically* to
//! MRC — the equivalence the degeneration test pins down.

use crate::mrc::{switching_config, Mrc, MrcError};
use crate::scheme::{
    config_walk_trace, RecoveryScheme, RouteOutcome, SchemeAttempt, SchemeCtx, SchemeId,
};
use rtr_core::SchemeScratch;
use rtr_topology::{GraphView, LinkId, NodeId, Topology};

/// The precomputed eMRC state: exactly MRC's configurations — the
/// enhancement is entirely in the forwarding rule.
#[derive(Debug, Clone)]
pub struct Emrc {
    mrc: Mrc,
}

impl Emrc {
    /// Builds `k` configurations for `topo` (identical construction to
    /// [`Mrc::build`]; eMRC differs only at forwarding time).
    ///
    /// # Errors
    ///
    /// Same contract as [`Mrc::build`].
    pub fn build(topo: &Topology, k: usize) -> Result<Self, MrcError> {
        Ok(Emrc {
            mrc: Mrc::build(topo, k)?,
        })
    }

    /// Wraps an already-built configuration set.
    pub fn from_mrc(mrc: Mrc) -> Self {
        Emrc { mrc }
    }

    /// The underlying configuration assignment.
    pub fn mrc(&self) -> &Mrc {
        &self.mrc
    }
}

/// A bitset over configuration indices; `k` beyond 64 falls back to
/// treating every configuration as fresh-visitable exactly once via the
/// saturating counter, which the `build` path never produces in practice
/// (reference deployments use k ≤ 10).
#[derive(Debug, Clone, Copy, Default)]
struct VisitedConfigs(u64);

impl VisitedConfigs {
    /// Marks `cfg` visited; returns true when it was new.
    fn insert(&mut self, cfg: usize) -> bool {
        let bit = 1u64 << (cfg % 64);
        let new = self.0 & bit == 0;
        self.0 |= bit;
        new
    }
}

impl RecoveryScheme for Emrc {
    fn id(&self) -> SchemeId {
        SchemeId::Emrc
    }

    fn route_in(
        &self,
        ctx: SchemeCtx<'_>,
        view: &dyn GraphView,
        initiator: NodeId,
        failed_link: LinkId,
        dest: NodeId,
        scratch: &mut SchemeScratch,
    ) -> SchemeAttempt {
        let topo = ctx.topo;
        let mut visited = VisitedConfigs::default();
        let mut cur = initiator;
        let mut trigger = failed_link;
        let mut cost = 0u64;
        let mut walked: Vec<NodeId> = Vec::new();

        // Each iteration consumes one previously unvisited configuration,
        // so the loop runs at most k times.
        loop {
            let Some(config) = switching_config(topo, &self.mrc, cur, trigger, dest) else {
                // The lost element has no isolating configuration
                // (articulation point / bridge): nothing to switch to.
                return SchemeAttempt {
                    outcome: RouteOutcome::NoRoute,
                    cost_traversed: cost,
                    sp_calculations: 0,
                    trace: config_walk_trace(initiator, &walked),
                };
            };
            if !visited.insert(config) {
                // Backtracking-free: re-entering a tried configuration
                // would loop, so the packet is dropped at the dead link.
                return SchemeAttempt {
                    outcome: RouteOutcome::Dropped { at_link: trigger },
                    cost_traversed: cost,
                    sp_calculations: 0,
                    trace: config_walk_trace(initiator, &walked),
                };
            }
            let Some(path) = self
                .mrc
                .backup_path(topo, config, cur, dest, &mut scratch.sp)
            else {
                return SchemeAttempt {
                    outcome: RouteOutcome::NoRoute,
                    cost_traversed: cost,
                    sp_calculations: 0,
                    trace: config_walk_trace(initiator, &walked),
                };
            };

            // Walk the backup path until delivery or the next encounter.
            let mut encountered = None;
            for ((&l, &from), &to) in path
                .links()
                .iter()
                .zip(path.nodes())
                .zip(path.nodes().iter().skip(1))
            {
                if !view.is_link_usable(topo, l) {
                    encountered = Some((from, l));
                    break;
                }
                cost += u64::from(topo.cost_from(l, from));
                cur = to;
                walked.push(to);
            }
            match encountered {
                None => {
                    debug_assert_eq!(cur, dest);
                    return SchemeAttempt {
                        outcome: RouteOutcome::Delivered,
                        cost_traversed: cost,
                        sp_calculations: 0,
                        trace: config_walk_trace(initiator, &walked),
                    };
                }
                Some((at, l)) => {
                    // Re-switch at the router that saw the new failure.
                    cur = at;
                    trigger = l;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrc::mrc_recover;
    use rtr_core::SchemeScratch;
    use rtr_routing::{DijkstraScratch, RoutingTable};
    use rtr_topology::{generate, CrossLinkTable, FailureScenario, FullView, Region};

    fn ctx_parts(topo: &Topology) -> (CrossLinkTable, RoutingTable) {
        (
            CrossLinkTable::new(topo),
            RoutingTable::compute(topo, &FullView),
        )
    }

    #[test]
    fn build_wraps_mrc_and_exposes_it() {
        let topo = generate::isp_like(25, 60, 2000.0, 7).unwrap();
        let emrc = Emrc::build(&topo, 4).unwrap();
        assert_eq!(emrc.mrc().configurations(), 4);
        assert_eq!(emrc.id(), SchemeId::Emrc);
        assert_eq!(emrc.name(), "eMRC");
        assert!(Emrc::build(&topo, 1).is_err());
    }

    #[test]
    fn degenerates_to_mrc_on_single_failures() {
        // On every single-element failure, eMRC's first switch already
        // isolates the only failed element, so outcome, cost, and hops
        // match plain MRC exactly.
        let topo = generate::isp_like(30, 80, 2000.0, 11).unwrap();
        let (crosslinks, table) = ctx_parts(&topo);
        let ctx = SchemeCtx {
            topo: &topo,
            crosslinks: &crosslinks,
            table: &table,
        };
        let mrc = Mrc::build(&topo, 5).unwrap();
        let emrc = Emrc::from_mrc(mrc.clone());
        let mut scratch = SchemeScratch::new();
        let mut compared = 0usize;

        // Single link failures: recover across each failed link.
        for l in topo.link_ids().step_by(3) {
            let s = FailureScenario::single_link(&topo, l);
            let mut sp = DijkstraScratch::new();
            let (a, b) = topo.link(l).endpoints();
            for (init, dest) in [(a, b), (b, a)] {
                let reference = mrc_recover(&topo, &mrc, &s, init, l, dest, &mut sp);
                let got = emrc.route_in(ctx, &s, init, l, dest, &mut scratch);
                assert_eq!(got.is_delivered(), reference.is_delivered(), "link {l:?}");
                assert_eq!(got.cost_traversed, reference.cost_traversed, "link {l:?}");
                assert_eq!(got.hops(), reference.hops_traversed, "link {l:?}");
                compared += 1;
            }
        }

        // Single node failures: neighbors recover toward live destinations.
        for victim in topo.node_ids().step_by(4) {
            let s = FailureScenario::from_parts(&topo, [victim], []);
            let mut sp = DijkstraScratch::new();
            for &(nbr, _) in topo.neighbors(victim).iter().take(2) {
                let Some(failed) = topo.link_between(nbr, victim) else {
                    continue;
                };
                for dest in topo.node_ids().step_by(7) {
                    if dest == nbr || dest == victim {
                        continue;
                    }
                    if !rtr_topology::is_reachable(&topo, &s, nbr, dest) {
                        continue;
                    }
                    let reference = mrc_recover(&topo, &mrc, &s, nbr, failed, dest, &mut sp);
                    let got = emrc.route_in(ctx, &s, nbr, failed, dest, &mut scratch);
                    assert_eq!(
                        got.is_delivered(),
                        reference.is_delivered(),
                        "node {victim:?} → {dest:?}"
                    );
                    assert_eq!(got.cost_traversed, reference.cost_traversed);
                    compared += 1;
                }
            }
        }
        assert!(compared > 20, "fixture too small: {compared} comparisons");
    }

    #[test]
    fn reswitches_past_failures_mrc_drops_on() {
        // Under area failures eMRC must recover strictly more cases than
        // MRC somewhere: every MRC delivery is an eMRC delivery (same
        // first switch), and re-switching rescues some MRC second-failure
        // drops.
        let topo = generate::isp_like(40, 100, 2000.0, 13).unwrap();
        let (crosslinks, table) = ctx_parts(&topo);
        let ctx = SchemeCtx {
            topo: &topo,
            crosslinks: &crosslinks,
            table: &table,
        };
        let mrc = Mrc::build(&topo, 5).unwrap();
        let emrc = Emrc::from_mrc(mrc.clone());
        let mut scratch = SchemeScratch::new();
        let s = FailureScenario::from_region(&topo, &Region::circle((1000.0, 1000.0), 400.0));
        let mut sp = DijkstraScratch::new();
        let (mut mrc_delivered, mut emrc_delivered, mut attempts) = (0usize, 0usize, 0usize);
        for n in topo.node_ids() {
            if s.is_node_failed(n) {
                continue;
            }
            let has_live = topo
                .neighbors(n)
                .iter()
                .any(|&(_, l)| s.is_link_usable(&topo, l));
            if !has_live {
                continue;
            }
            for &(_, l) in topo.neighbors(n) {
                if s.is_link_usable(&topo, l) {
                    continue;
                }
                for dest in topo.node_ids().step_by(5) {
                    if dest == n || !rtr_topology::is_reachable(&topo, &s, n, dest) {
                        continue;
                    }
                    attempts += 1;
                    let m = mrc_recover(&topo, &mrc, &s, n, l, dest, &mut sp);
                    let e = emrc.route_in(ctx, &s, n, l, dest, &mut scratch);
                    if m.is_delivered() {
                        mrc_delivered += 1;
                        assert!(
                            e.is_delivered(),
                            "eMRC must deliver wherever MRC does ({n:?} → {dest:?})"
                        );
                    }
                    if e.is_delivered() {
                        emrc_delivered += 1;
                    }
                }
            }
        }
        assert!(attempts > 0);
        assert!(
            emrc_delivered > mrc_delivered,
            "re-switching should rescue some MRC drops ({emrc_delivered} vs {mrc_delivered} of {attempts})"
        );
    }

    #[test]
    fn visited_configs_bitset() {
        let mut v = VisitedConfigs::default();
        assert!(v.insert(0));
        assert!(v.insert(3));
        assert!(!v.insert(0));
        assert!(!v.insert(3));
        assert!(v.insert(63));
        assert!(!v.insert(63));
    }
}
