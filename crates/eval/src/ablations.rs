//! Ablation experiments for the design choices DESIGN.md calls out:
//!
//! * **Collection thoroughness** — RTR's single first-phase sweep vs the
//!   thorough variant (one sweep per unreachable neighbor of the
//!   initiator), quantifying the §III-C trade-off between walk length and
//!   failure coverage.
//! * **Embedding correlation** — geometric twins (links join nearby
//!   routers) vs random-embedding twins (preferential-attachment adjacency,
//!   coordinates independent), quantifying how much RTR's boundary walk
//!   relies on geography matching topology.

use crate::baseline::Baseline;
use crate::config::ExperimentConfig;
use crate::metrics::percentage;
use crate::reports::TableReport;
use crate::testcase::{generate_workload_shared, Workload};
use rtr_core::{RtrSession, SessionPool};
use rtr_topology::isp;
use std::collections::BTreeSet;

/// Aggregate outcome of evaluating one RTR variant over a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariantStats {
    /// Recovery rate over recoverable cases (%).
    pub recovery_rate: f64,
    /// Mean fraction of ground-truth unusable links known to the initiator
    /// after collection (%).
    pub collection_rate: f64,
    /// Mean phase-1 hops walked per initiator.
    pub mean_walk_hops: f64,
}

/// Runs both phase-1 variants over a workload's recoverable cases.
pub fn collection_ablation(w: &Workload) -> (VariantStats, VariantStats) {
    let mut single_delivered = 0usize;
    let mut thorough_delivered = 0usize;
    let mut cases = 0usize;
    let mut single_cov = Vec::new();
    let mut thorough_cov = Vec::new();
    let mut single_hops = Vec::new();
    let mut thorough_hops = Vec::new();
    let pool = SessionPool::new();

    for sc in &w.scenarios {
        let truth: Vec<_> = sc.scenario.unusable_links(w.topo()).collect();
        let mut seen_initiators = BTreeSet::new();
        let mut by_initiator: std::collections::BTreeMap<_, Vec<_>> = Default::default();
        for c in &sc.recoverable {
            by_initiator.entry(c.initiator).or_default().push(c);
        }
        for (initiator, group) in by_initiator {
            let failed = group[0].failed_link;
            let mut single = pool
                .start_session(w.topo(), w.crosslinks(), &sc.scenario, initiator, failed)
                .expect("recoverable case: live initiator with a failed incident link");
            let (mut thorough, thorough_walk) = RtrSession::start_thorough(
                w.topo(),
                w.crosslinks(),
                &sc.scenario,
                initiator,
                failed,
            )
            .expect("recoverable case: live initiator with a failed incident link");
            if seen_initiators.insert(initiator) {
                let coverage = |session: &RtrSession<'_, _>| {
                    let known = session.computer().removed_links();
                    percentage(
                        truth.iter().filter(|&&l| known.contains(l)).count(),
                        truth.len().max(1),
                    )
                };
                single_cov.push(coverage(&single));
                thorough_cov.push(coverage(&thorough));
                single_hops.push(single.phase1().trace.hops() as f64);
                thorough_hops.push(thorough_walk as f64);
            }
            for case in group {
                cases += 1;
                if single.recover(case.dest).is_delivered() {
                    single_delivered += 1;
                }
                if thorough.recover(case.dest).is_delivered() {
                    thorough_delivered += 1;
                }
            }
        }
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    (
        VariantStats {
            recovery_rate: percentage(single_delivered, cases),
            collection_rate: mean(&single_cov),
            mean_walk_hops: mean(&single_hops),
        },
        VariantStats {
            recovery_rate: percentage(thorough_delivered, cases),
            collection_rate: mean(&thorough_cov),
            mean_walk_hops: mean(&thorough_hops),
        },
    )
}

/// Collection statistics of the plain single sweep on an arbitrary
/// topology (used by the embedding ablation): returns
/// `(recovery_rate, collection_rate)`.
fn single_sweep_stats(w: &Workload) -> (f64, f64) {
    let mut delivered = 0usize;
    let mut cases = 0usize;
    let mut coverage = Vec::new();
    let pool = SessionPool::new();
    for sc in &w.scenarios {
        let truth: Vec<_> = sc.scenario.unusable_links(w.topo()).collect();
        let mut by_initiator: std::collections::BTreeMap<_, Vec<_>> = Default::default();
        for c in &sc.recoverable {
            by_initiator.entry(c.initiator).or_default().push(c);
        }
        for (initiator, group) in by_initiator {
            let mut session = pool
                .start_session(
                    w.topo(),
                    w.crosslinks(),
                    &sc.scenario,
                    initiator,
                    group[0].failed_link,
                )
                .expect("recoverable case: live initiator with a failed incident link");
            let known = session.computer().removed_links();
            coverage.push(percentage(
                truth.iter().filter(|&&l| known.contains(l)).count(),
                truth.len().max(1),
            ));
            for case in group {
                cases += 1;
                if session.recover(case.dest).is_delivered() {
                    delivered += 1;
                }
            }
        }
    }
    (
        percentage(delivered, cases),
        coverage.iter().sum::<f64>() / coverage.len().max(1) as f64,
    )
}

/// The collection-thoroughness ablation over the given topologies.
pub fn thoroughness_report(names: &[String], cfg: &ExperimentConfig) -> TableReport {
    let profiles = resolve(names);
    let mut rows = Vec::new();
    for p in profiles {
        eprintln!("[rtr-eval] thoroughness ablation on {}...", p.name);
        let w = generate_workload_shared(
            p.name,
            Baseline::for_profile(&p),
            cfg,
            cfg.seed ^ u64::from(p.asn),
        );
        let (single, thorough) = collection_ablation(&w);
        rows.push(vec![
            p.name.to_string(),
            format!("{:.1}", single.recovery_rate),
            format!("{:.1}", thorough.recovery_rate),
            format!("{:.1}", single.collection_rate),
            format!("{:.1}", thorough.collection_rate),
            format!("{:.1}", single.mean_walk_hops),
            format!("{:.1}", thorough.mean_walk_hops),
        ]);
    }
    TableReport {
        id: "Ablation A".into(),
        title:
            "Single-sweep vs thorough first phase (recovery %, collected failed links %, walk hops)"
                .into(),
        headers: vec![
            "Topology".into(),
            "Rec% 1-sweep".into(),
            "Rec% thorough".into(),
            "Coll% 1-sweep".into(),
            "Coll% thorough".into(),
            "Hops 1-sweep".into(),
            "Hops thorough".into(),
        ],
        rows,
    }
}

/// The embedding-correlation ablation over the given topologies.
pub fn embedding_report(names: &[String], cfg: &ExperimentConfig) -> TableReport {
    let profiles = resolve(names);
    let mut rows = Vec::new();
    for p in profiles {
        eprintln!("[rtr-eval] embedding ablation on {}...", p.name);
        let run = |base: std::sync::Arc<Baseline>| {
            let w = generate_workload_shared(p.name, base, cfg, cfg.seed ^ u64::from(p.asn));
            single_sweep_stats(&w)
        };
        // The geometric twin reuses the process-wide cached baseline; the
        // random embedding is ablation-only, so its baseline stays fresh.
        let (geo_rec, geo_cov) = run(Baseline::for_profile(&p));
        let (rnd_rec, rnd_cov) = run(std::sync::Arc::new(Baseline::new(
            isp::synthetic_twin_random_embedding(p),
        )));
        rows.push(vec![
            p.name.to_string(),
            format!("{geo_rec:.1}"),
            format!("{rnd_rec:.1}"),
            format!("{geo_cov:.1}"),
            format!("{rnd_cov:.1}"),
        ]);
    }
    TableReport {
        id: "Ablation B".into(),
        title: "Geometric vs random embedding (RTR recovery %, collected failed links %)".into(),
        headers: vec![
            "Topology".into(),
            "Rec% geometric".into(),
            "Rec% random".into(),
            "Coll% geometric".into(),
            "Coll% random".into(),
        ],
        rows,
    }
}

fn resolve(names: &[String]) -> Vec<isp::IspProfile> {
    if names.is_empty() {
        isp::TABLE2.to_vec()
    } else {
        names
            .iter()
            .map(|n| isp::profile(n).unwrap_or_else(|| panic!("unknown topology {n}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testcase::generate_workload;

    #[test]
    fn thorough_never_collects_less_or_recovers_less() {
        let cfg = ExperimentConfig::quick().with_cases(60);
        let p = isp::profile("AS1239").unwrap();
        let w = generate_workload(p.name, p.synthesize(), &cfg, 5);
        let (single, thorough) = collection_ablation(&w);
        assert!(thorough.collection_rate >= single.collection_rate);
        assert!(thorough.recovery_rate >= single.recovery_rate - 1e-9);
        assert!(thorough.mean_walk_hops >= single.mean_walk_hops);
    }

    #[test]
    fn reports_render() {
        let cfg = ExperimentConfig::quick().with_cases(30);
        let names = vec!["AS1239".to_string()];
        let a = thoroughness_report(&names, &cfg);
        assert!(a.to_string().contains("AS1239"));
        let b = embedding_report(&names, &cfg);
        assert_eq!(b.rows.len(), 1);
        // Geometric embedding should collect at least as much as random.
        let geo: f64 = b.rows[0][3].parse().unwrap();
        let rnd: f64 = b.rows[0][4].parse().unwrap();
        assert!(geo >= rnd * 0.8, "geo {geo} vs rnd {rnd}");
    }
}
