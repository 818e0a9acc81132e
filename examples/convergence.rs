//! The loss window RTR closes: packets dropped during IGP convergence with
//! and without reactive rerouting.
//!
//! §I of the paper motivates RTR with the cost of convergence: routers keep
//! forwarding into the failure until detection + flooding + SPF + FIB
//! update complete, and "disconnection of an OC-192 link for 10 seconds can
//! lead to about 12 million packets being dropped". This example quantifies
//! that window on a Table II twin under a disaster-scale failure. Run with:
//!
//! ```text
//! cargo run --release --example convergence
//! ```

use rtr::core::{PooledSession, SessionPool};
use rtr::routing::RoutingTable;
use rtr::sim::{packets_per_second, unprotected_loss, CaseKind, ConvergenceModel, Network};
use rtr::topology::{isp, CrossLinkTable, FailureScenario, FullView, Region};

fn main() {
    let topo = isp::profile("AS209")
        .expect("AS209 is in Table II")
        .synthesize();
    let table = RoutingTable::compute(&topo, &FullView);
    let crosslinks = CrossLinkTable::new(&topo);
    let pool = SessionPool::new();
    let scenario = FailureScenario::from_region(&topo, &Region::circle((1000.0, 900.0), 280.0));
    println!(
        "failure: {} routers dead, {} links cut",
        scenario.failed_node_count(),
        scenario.failed_link_count()
    );

    // Per-router convergence completion under two IGP tunings.
    for (label, model) in [
        ("classic IGP", ConvergenceModel::CLASSIC),
        ("tuned IGP", ConvergenceModel::TUNED),
    ] {
        let total = model
            .network_convergence_time(&topo, &scenario)
            .expect("the failure is detected");
        println!("\n{label}: network converges after {total}");

        // Every recoverable failed path bleeds packets until its recovery
        // initiator converges — unless a reactive scheme carries them.
        let net = Network::new(&topo, &scenario, &table);
        let times = model.convergence_times(&topo, &scenario);
        let pps = packets_per_second(10.0, 1000); // one OC-192-grade flow per path
        let mut unprotected = 0.0f64;
        let mut with_rtr = 0.0f64;
        let mut recoverable_paths = 0usize;
        let mut sessions: std::collections::BTreeMap<_, PooledSession<'_, '_, _>> =
            Default::default();
        for s in topo.node_ids() {
            for t in topo.node_ids() {
                if s == t {
                    continue;
                }
                let CaseKind::Recoverable {
                    initiator,
                    failed_link,
                } = net.classify(s, t)
                else {
                    continue;
                };
                recoverable_paths += 1;
                let window = times[initiator.index()].expect("initiator is a live detector");
                unprotected += unprotected_loss(window, pps);
                // With RTR, the flow survives if recovery delivers; packets
                // are only delayed by the first phase, not dropped (§III-A).
                let session = sessions.entry(initiator).or_insert_with(|| {
                    pool.start_session(&topo, &crosslinks, &scenario, initiator, failed_link)
                        .expect("recoverable case: live initiator with a failed incident link")
                });
                if !session.recover(t).is_delivered() {
                    with_rtr += unprotected_loss(window, pps);
                }
            }
        }
        println!("  recoverable failed paths: {recoverable_paths} (one 1.25 Mpps flow each)");
        println!(
            "  packets lost without protection: {:.1} M",
            unprotected / 1e6
        );
        println!("  packets lost with RTR:           {:.1} M", with_rtr / 1e6);
        if unprotected > 0.0 {
            println!(
                "  loss avoided: {:.1}%",
                100.0 * (1.0 - with_rtr / unprotected)
            );
        }
    }
}
