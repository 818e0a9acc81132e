//! Quickstart: recover one failed routing path with RTR.
//!
//! A circular disaster knocks out the middle of an ISP topology; a router
//! next to the hole loses its default next hop and invokes RTR. Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rtr::core::SessionPool;
use rtr::routing::{shortest_path, RoutingTable};
use rtr::sim::{CaseKind, DelayModel, Network};
use rtr::topology::{isp, CrossLinkTable, FailureScenario, FullView, Region};

fn main() {
    // 1. An ISP topology: the paper's AS1239 twin (52 routers, 84 links,
    //    in a 2000 x 2000 plane).
    let topo = isp::profile("AS1239")
        .expect("AS1239 is in Table II")
        .synthesize();
    println!(
        "topology: {} routers, {} links, connected = {}",
        topo.node_count(),
        topo.link_count(),
        topo.is_connected()
    );

    // 2. Pre-failure routing state: every router's shortest-path tables,
    //    plus the cross-link table RTR's first phase needs.
    let table = RoutingTable::compute(&topo, &FullView);
    let crosslinks = CrossLinkTable::new(&topo);
    let pool = SessionPool::new();

    // 3. Disaster: a circular failure area of radius 250 in the middle of
    //    the plane. Routers inside die; links crossing the circle die.
    let region = Region::circle((1000.0, 1000.0), 250.0);
    let scenario = FailureScenario::from_region(&topo, &region);
    println!(
        "failure: {} routers and {} links destroyed",
        scenario.failed_node_count(),
        scenario.failed_link_count()
    );

    // 4. Find a failed routing path: walk default routes until one blocks.
    let net = Network::new(&topo, &scenario, &table);
    let (initiator, failed_link, dest) = topo
        .node_ids()
        .flat_map(|s| topo.node_ids().map(move |t| (s, t)))
        .find_map(|(s, t)| match net.classify(s, t) {
            CaseKind::Recoverable {
                initiator,
                failed_link,
            } => Some((initiator, failed_link, t)),
            _ => None,
        })
        .expect("a radius-250 hole breaks some recoverable path");
    println!("\nfailed routing path toward {dest}: router {initiator} lost its next hop over {failed_link}");

    // 5. RTR phase 1: forward a packet around the failure area, collecting
    //    failed-link ids in its header.
    let mut session = pool
        .start_session(&topo, &crosslinks, &scenario, initiator, failed_link)
        .expect("recoverable case: live initiator with a failed incident link");
    let phase1 = session.phase1();
    let delay = DelayModel::PAPER;
    println!(
        "phase 1: {} hops in {} ({} failed links collected, {} cross links recorded)",
        phase1.trace.hops(),
        phase1.trace.duration(&delay),
        phase1.header.failed_links().len(),
        phase1.header.cross_links().len(),
    );

    // 6. RTR phase 2: recompute the shortest path on the repaired view and
    //    source-route the packet along it.
    let attempt = session.recover(dest);
    match &attempt.path {
        Some(path) => println!("phase 2: recovery path {path}"),
        None => println!("phase 2: destination unreachable in the initiator's view"),
    }
    assert!(attempt.is_delivered(), "this case is recoverable");

    // 7. Theorem 2: the recovery path is optimal — compare against the
    //    ground-truth shortest path (which RTR never saw).
    let optimal = shortest_path(&topo, &scenario, initiator, dest).expect("recoverable");
    let got = attempt.path.expect("delivered implies a path");
    println!(
        "\noptimality: RTR cost = {}, ground-truth optimum = {} (stretch {:.2})",
        got.cost(),
        optimal.cost(),
        got.cost() as f64 / optimal.cost() as f64
    );
    assert_eq!(
        got.cost(),
        optimal.cost(),
        "Theorem 2: stretch is exactly 1"
    );
    println!(
        "shortest-path calculations spent: {}",
        session.sp_calculations()
    );
}
