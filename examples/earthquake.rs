//! Earthquake scenario: a large disaster partitions an ISP network, many
//! destinations become unreachable, and the network must both recover what
//! is recoverable and stop wasting resources on what is not.
//!
//! Models the motivating events of the paper's introduction (Hurricane
//! Katrina, the 2006 Taiwan and 2008 Wenchuan earthquakes): a wide failure
//! area, every affected router reacting independently, and a comparison of
//! RTR against FCP on both recoverable and irrecoverable traffic. Run with:
//!
//! ```text
//! cargo run --release --example earthquake
//! ```

use rtr::baselines::{Fcp, RecoveryScheme, SchemeCtx};
use rtr::core::{Phase1Error, PooledSession, SchemeScratch, SessionPool};
use rtr::routing::RoutingTable;
use rtr::sim::{CaseKind, DelayModel, Network, PAYLOAD_BYTES};
use rtr::topology::{isp, CrossLinkTable, FailureScenario, FullView, NodeId, Region};
use std::collections::btree_map::Entry;

fn main() {
    // AS7018's twin: the sparsest Table II topology (115 routers, 148
    // links) — the one that partitions most easily.
    let topo = isp::profile("AS7018")
        .expect("AS7018 is in Table II")
        .synthesize();
    let table = RoutingTable::compute(&topo, &FullView);
    let crosslinks = CrossLinkTable::new(&topo);
    let pool = SessionPool::new();

    // The earthquake: a 420-radius hole off-centre (about 14% of the area).
    let epicentre = (700.0, 900.0);
    let region = Region::circle(epicentre, 420.0);
    let scenario = FailureScenario::from_region(&topo, &region);
    println!(
        "earthquake at {:?}: {} of {} routers destroyed, {} links cut",
        epicentre,
        scenario.failed_node_count(),
        topo.node_count(),
        scenario.failed_link_count()
    );

    // Classify every (source, destination) pair the way §IV-A does.
    let net = Network::new(&topo, &scenario, &table);
    let mut recoverable = Vec::new();
    let mut irrecoverable = Vec::new();
    for s in topo.node_ids() {
        for t in topo.node_ids() {
            if s == t {
                continue;
            }
            match net.classify(s, t) {
                CaseKind::Recoverable {
                    initiator,
                    failed_link,
                } => {
                    recoverable.push((initiator, failed_link, t));
                }
                CaseKind::Irrecoverable {
                    initiator,
                    failed_link,
                } => {
                    irrecoverable.push((initiator, failed_link, t));
                }
                _ => {}
            }
        }
    }
    println!(
        "failed routing paths: {} recoverable, {} irrecoverable\n",
        recoverable.len(),
        irrecoverable.len()
    );

    // Each distinct initiator runs phase 1 once; its session then serves
    // every destination. Count aggregate effort.
    let delay = DelayModel::PAPER;
    let mut sessions: std::collections::BTreeMap<(NodeId, u32), PooledSession<'_, '_, _>> =
        Default::default();
    let mut delivered = 0usize;
    let mut optimal = 0usize;
    for &(initiator, failed_link, dest) in &recoverable {
        let key = (initiator, 0u32);
        let session = sessions.entry(key).or_insert_with(|| {
            pool.start_session(&topo, &crosslinks, &scenario, initiator, failed_link)
                .expect("recoverable case: live initiator with a failed incident link")
        });
        let attempt = session.recover(dest);
        if attempt.is_delivered() {
            delivered += 1;
            let opt = rtr::routing::shortest_path(&topo, &scenario, initiator, dest)
                .expect("recoverable")
                .cost();
            if attempt.path.as_ref().map(|p| p.cost()) == Some(opt) {
                optimal += 1;
            }
        }
    }
    let phase1_ms: Vec<f64> = sessions
        .values()
        .map(|s| s.phase1().trace.duration(&delay).as_millis_f64())
        .collect();
    println!("RTR on recoverable traffic:");
    println!(
        "  {} initiators ran phase 1 (longest {:.1} ms)",
        sessions.len(),
        phase1_ms.iter().fold(0.0f64, |a, &b| a.max(b))
    );
    println!(
        "  delivered {delivered}/{} ({} of them provably optimal)",
        recoverable.len(),
        optimal
    );
    println!(
        "  shortest-path calculations: {} (one per initiator-destination pair)",
        sessions
            .values()
            .map(|s| s.sp_calculations())
            .sum::<usize>()
    );

    // Irrecoverable traffic: compare wasted work, RTR vs FCP.
    let ctx = SchemeCtx {
        topo: &topo,
        crosslinks: &crosslinks,
        table: &table,
    };
    let mut scratch = SchemeScratch::new();
    let mut rtr_wasted_bytes = 0u64;
    let mut fcp_wasted_bytes = 0u64;
    let mut fcp_wasted_calcs = 0usize;
    let mut rtr_wasted_calcs = 0usize;
    for &(initiator, failed_link, dest) in &irrecoverable {
        let key = (initiator, 0u32);
        let session = match sessions.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(slot) => {
                match pool.start_session(&topo, &crosslinks, &scenario, initiator, failed_link) {
                    Ok(session) => slot.insert(session),
                    // A fully isolated initiator cannot even emit a
                    // collection packet, so RTR wastes neither computation
                    // nor transmission on its traffic.
                    Err(Phase1Error::NoLiveNeighbor { .. }) => continue,
                    Err(e) => panic!("irrecoverable case could not start a session: {e}"),
                }
            }
        };
        let attempt = session.recover(dest);
        assert!(!attempt.is_delivered());
        rtr_wasted_calcs += 1;
        rtr_wasted_bytes += attempt
            .trace
            .steps()
            .iter()
            .take(attempt.trace.steps().len().saturating_sub(1))
            .map(|s| (PAYLOAD_BYTES + s.header_bytes) as u64)
            .sum::<u64>();

        let fcp = Fcp.route_in(ctx, &scenario, initiator, failed_link, dest, &mut scratch);
        assert!(!fcp.is_delivered());
        fcp_wasted_calcs += fcp.sp_calculations;
        fcp_wasted_bytes += fcp
            .trace
            .steps()
            .iter()
            .take(fcp.trace.steps().len().saturating_sub(1))
            .map(|s| (PAYLOAD_BYTES + s.header_bytes) as u64)
            .sum::<u64>();
    }
    println!("\nwasted effort on irrecoverable traffic (lower is better):");
    println!("  RTR: {rtr_wasted_calcs} SP calculations, {rtr_wasted_bytes} bytes forwarded");
    println!("  FCP: {fcp_wasted_calcs} SP calculations, {fcp_wasted_bytes} bytes forwarded");
    if fcp_wasted_calcs > 0 {
        println!(
            "  RTR saves {:.1}% computation and {:.1}% transmission",
            100.0 * (1.0 - rtr_wasted_calcs as f64 / fcp_wasted_calcs as f64),
            100.0 * (1.0 - rtr_wasted_bytes as f64 / fcp_wasted_bytes as f64),
        );
    }
}
