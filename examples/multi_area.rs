//! Multiple simultaneous failure areas (§III-E): two disasters strike at
//! once, and recovery initiators around each area independently collect
//! failure information and reroute.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example multi_area
//! ```

use rtr::core::{recover_multi_area, Phase1Termination, PooledSession, SessionPool};
use rtr::routing::{shortest_path, RoutingTable};
use rtr::sim::{CaseKind, Network};
use rtr::topology::{isp, CrossLinkTable, FailureScenario, FullView, Region};

fn main() {
    // A dense twin so two holes still leave plenty of alternate paths.
    let topo = isp::profile("AS3320")
        .expect("AS3320 is in Table II")
        .synthesize();
    let table = RoutingTable::compute(&topo, &FullView);
    let crosslinks = CrossLinkTable::new(&topo);
    let pool = SessionPool::new();

    // Two simultaneous failure areas in opposite corners.
    let region = Region::Union(vec![
        Region::circle((600.0, 600.0), 260.0),
        Region::circle((1450.0, 1450.0), 220.0),
    ]);
    let scenario = FailureScenario::from_region(&topo, &region);
    println!(
        "two failure areas: {} routers dead, {} links cut (of {}/{})",
        scenario.failed_node_count(),
        scenario.failed_link_count(),
        topo.node_count(),
        topo.link_count()
    );

    let net = Network::new(&topo, &scenario, &table);
    let mut stats = MultiAreaStats::default();
    let mut sessions: std::collections::BTreeMap<_, PooledSession<'_, '_, _>> = Default::default();

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
            let session = sessions.entry(initiator).or_insert_with(|| {
                pool.start_session(&topo, &crosslinks, &scenario, initiator, failed_link)
                    .expect("recoverable case: live initiator with a failed incident link")
            });
            assert_ne!(
                session.phase1().termination,
                Phase1Termination::StepBudgetExhausted,
                "Theorem 1 holds with multiple areas too"
            );
            stats.cases += 1;
            let attempt = session.recover(t);
            if attempt.is_delivered() {
                stats.delivered += 1;
                let optimal = shortest_path(&topo, &scenario, initiator, t)
                    .expect("recoverable")
                    .cost();
                if attempt.path.as_ref().map(rtr::routing::Path::cost) == Some(optimal) {
                    stats.optimal += 1;
                }
            }
        }
    }

    println!("\nrecoverable (source, destination) pairs: {}", stats.cases);
    println!(
        "RTR delivered {} ({:.1}%), every delivery optimal: {}",
        stats.delivered,
        100.0 * stats.delivered as f64 / stats.cases.max(1) as f64,
        stats.delivered == stats.optimal
    );
    println!(
        "{} distinct recovery initiators, each ran phase 1 exactly once",
        sessions.len()
    );

    // Show one initiator's view of the double disaster.
    if let Some((initiator, session)) = sessions.iter().next() {
        let h = &session.phase1().header;
        println!(
            "\ne.g. initiator {initiator}: walked {} hops, collected {} failed links, {} cross links",
            session.phase1().trace.hops(),
            h.failed_links().len(),
            h.cross_links().len()
        );
    }

    // §III-E extension: chain RTR sessions across areas, carrying collected
    // failure information in the packet header. Cases plain RTR discards
    // (recovery path ran into the *other* area) get rescued.
    let mut rescued = 0;
    let mut discarded = 0;
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
            let session = sessions.get_mut(&initiator).expect("seen above");
            if session.recover(t).is_delivered() {
                continue;
            }
            discarded += 1;
            let chained =
                recover_multi_area(&topo, &crosslinks, &scenario, initiator, failed_link, t, 32)
                    .expect("entry point is a valid initiator");
            if chained.is_delivered() {
                rescued += 1;
            }
        }
    }
    println!(
        "\nSec. III-E multi-area chaining: {rescued}/{discarded} discarded cases rescued by carrying failure info across areas"
    );
}

#[derive(Default)]
struct MultiAreaStats {
    cases: usize,
    delivered: usize,
    optimal: usize,
}
