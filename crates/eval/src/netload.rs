//! Network-wide load extension: the aggregate control-plane footprint when
//! *every* recovery initiator of a disaster runs RTR at once.
//!
//! Figures 7 and 10 are per-test-case; this extension replays all phase-1
//! walks and all first recovered packets of one failure scenario
//! concurrently (via [`rtr_sim::load::replay`]) and reports bytes on the
//! wire over time plus the hottest link.

use crate::baseline::Baseline;
use crate::config::ExperimentConfig;
use crate::reports::{FigureReport, Series};
use crate::testcase::{cases_for_scenario, random_region};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtr_core::SessionPool;
use rtr_sim::{load, DelayModel, SimTime, TimedTrace};
use rtr_topology::{isp, FailureScenario};

/// Replays one disaster on one topology; returns the network-wide byte
/// series (bin width 10 ms over the first second) and the hottest link's
/// share of all recovery traffic.
pub fn disaster_load(
    profile: isp::IspProfile,
    cfg: &ExperimentConfig,
    seed: u64,
) -> (load::LoadSeries, f64) {
    let baseline = Baseline::for_profile(&profile);
    let topo = baseline.topo();
    let crosslinks = baseline.crosslinks();
    let mut rng = StdRng::seed_from_u64(seed);

    // Draw regions until one actually breaks something.
    let cases = loop {
        let region = random_region(cfg, &mut rng);
        let scenario = FailureScenario::from_region(topo, &region);
        let cases = cases_for_scenario(&baseline, region, scenario);
        if !cases.recoverable.is_empty() {
            break cases;
        }
    };

    // One session per initiator: its phase-1 walk plus the first recovered
    // packet toward each destination it serves.
    let mut flows = Vec::new();
    let mut by_initiator: std::collections::BTreeMap<_, Vec<_>> = Default::default();
    for c in &cases.recoverable {
        by_initiator.entry(c.initiator).or_default().push(c);
    }
    let delay = DelayModel::PAPER;
    let pool = SessionPool::new();
    for (initiator, group) in by_initiator {
        let mut session = pool
            .start_session(
                topo,
                crosslinks,
                &cases.scenario,
                initiator,
                group[0].failed_link,
            )
            .expect("recoverable case: live initiator with a failed incident link");
        let p1_end = delay.for_hops(session.phase1().trace.hops());
        flows.push(TimedTrace {
            trace: session.phase1().trace.clone(),
            start: SimTime::ZERO,
            with_payload: true,
        });
        for case in group {
            let attempt = session.recover(case.dest);
            if attempt.trace.hops() > 0 {
                flows.push(TimedTrace {
                    trace: attempt.trace,
                    start: p1_end,
                    with_payload: true,
                });
            }
        }
    }

    let series = load::replay(
        topo,
        &delay,
        &flows,
        SimTime::from_millis(10),
        SimTime::from_millis(1_000),
    );
    let hottest_share = series
        .hottest_link()
        .map_or(0.0, |(_, b)| b as f64 / series.grand_total().max(1) as f64);
    (series, hottest_share)
}

/// Builds the concurrent-recovery load figure over the given topologies.
pub fn netload(names: &[String], cfg: &ExperimentConfig) -> FigureReport {
    let profiles: Vec<isp::IspProfile> = if names.is_empty() {
        isp::TABLE2.to_vec()
    } else {
        names
            .iter()
            .map(|n| isp::profile(n).unwrap_or_else(|| panic!("unknown topology {n}")))
            .collect()
    };
    let mut series = Vec::new();
    for p in profiles {
        eprintln!("[rtr-eval] disaster load on {}...", p.name);
        let (s, hottest) = disaster_load(p, cfg, cfg.seed ^ 0x10AD ^ u64::from(p.asn));
        eprintln!(
            "[rtr-eval]   hottest link carries {:.1}% of recovery traffic",
            100.0 * hottest
        );
        let pts = s
            .total_bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| (i as f64 * 0.01, b as f64))
            .collect();
        series.push(Series {
            label: p.name.to_string(),
            points: pts,
        });
    }
    FigureReport {
        id: "Extension L".into(),
        title: "Network-wide bytes on the wire while all initiators of one disaster recover concurrently"
            .into(),
        xlabel: "time (s)".into(),
        ylabel: "bytes per 10 ms".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disaster_load_is_finite_and_frontloaded() {
        let cfg = ExperimentConfig::quick();
        let p = isp::profile("AS1239").unwrap();
        let (series, hottest) = disaster_load(p, &cfg, 11);
        assert!(series.grand_total() > 0);
        assert!((0.0..=1.0).contains(&hottest));
        // Recovery traffic concentrates early: the first 200 ms carry more
        // than the last 200 ms.
        let head: u64 = series.total_bytes[..20].iter().sum();
        let tail: u64 = series.total_bytes[series.len() - 20..].iter().sum();
        assert!(head >= tail);
    }

    #[test]
    fn report_renders() {
        let cfg = ExperimentConfig::quick();
        let fig = netload(&["AS1239".to_string()], &cfg);
        assert_eq!(fig.series.len(), 1);
        assert!(fig.to_string().contains("AS1239"));
    }
}
