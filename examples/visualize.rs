//! Renders a paper-style diagram (like the paper's Fig. 2/6) of a failure
//! area, RTR's phase-1 collection walk around it, and the recovery path.
//!
//! Writes `rtr_scene.svg` into the current directory. Run with:
//!
//! ```text
//! cargo run --release --example visualize -- AS1239
//! ```

use rtr::core::SessionPool;
use rtr::eval::viz::SvgScene;
use rtr::routing::RoutingTable;
use rtr::sim::{CaseKind, Network};
use rtr::topology::{isp, CrossLinkTable, FailureScenario, FullView, Region};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "AS1239".into());
    let topo = isp::profile(&name)
        .unwrap_or_else(|| {
            eprintln!("unknown topology {name}");
            std::process::exit(2);
        })
        .synthesize();
    let table = RoutingTable::compute(&topo, &FullView);
    let crosslinks = CrossLinkTable::new(&topo);
    let pool = SessionPool::new();
    let region = Region::circle((1000.0, 1000.0), 260.0);
    let scenario = FailureScenario::from_region(&topo, &region);

    // Find a recoverable case and run RTR.
    let net = Network::new(&topo, &scenario, &table);
    let Some((initiator, failed_link, dest)) = topo
        .node_ids()
        .flat_map(|s| topo.node_ids().map(move |t| (s, t)))
        .find_map(|(s, t)| match net.classify(s, t) {
            CaseKind::Recoverable {
                initiator,
                failed_link,
            } => Some((initiator, failed_link, t)),
            _ => None,
        })
    else {
        eprintln!("this failure broke nothing recoverable; try another topology");
        std::process::exit(1);
    };
    let mut session = pool
        .start_session(&topo, &crosslinks, &scenario, initiator, failed_link)
        .expect("recoverable case: live initiator with a failed incident link");
    let attempt = session.recover(dest);

    let mut scene = SvgScene::new(&topo).with_failure(&scenario, &region);
    scene = scene.with_walk(&session.phase1().trace);
    if let Some(path) = &attempt.path {
        scene = scene.with_path(path, "#1e8449");
    }
    let svg = scene.render();
    std::fs::write("rtr_scene.svg", &svg).expect("write rtr_scene.svg");
    println!(
        "wrote rtr_scene.svg: {name}, initiator {initiator}, destination {dest}, \
         phase-1 walk of {} hops (dotted blue), recovery path (green), delivered = {}",
        session.phase1().trace.hops(),
        attempt.is_delivered()
    );
}
