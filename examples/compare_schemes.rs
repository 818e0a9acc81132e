//! Head-to-head comparison of all five recovery schemes on one random
//! disaster — a miniature, human-readable version of the paper's
//! Table III, driven through the [`RecoveryScheme`] trait.
//!
//! Run with (topology name and radius optional):
//!
//! ```text
//! cargo run --release --example compare_schemes -- AS701 280
//! ```

use rtr::baselines::{Emrc, Fcp, Fep, Mrc, RecoveryScheme, SchemeCtx};
use rtr::core::{PooledSession, SchemeScratch, SessionPool};
use rtr::routing::{shortest_path, RoutingTable};
use rtr::sim::{CaseKind, Network};
use rtr::topology::{isp, CrossLinkTable, FailureScenario, FullView, Region};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "AS701".into());
    let radius: f64 = args
        .next()
        .map_or(280.0, |r| r.parse().expect("radius must be a number"));

    let profile = isp::profile(&name).unwrap_or_else(|| {
        eprintln!("unknown topology {name}; pick one of Table II (AS209, AS701, ...)");
        std::process::exit(2);
    });
    let topo = profile.synthesize();
    let table = RoutingTable::compute(&topo, &FullView);
    let crosslinks = CrossLinkTable::new(&topo);
    let pool = SessionPool::new();
    let ctx = SchemeCtx {
        topo: &topo,
        crosslinks: &crosslinks,
        table: &table,
    };
    let comparators: Vec<Box<dyn RecoveryScheme>> = vec![
        Box::new(Fcp),
        Box::new(Mrc::build(&topo, 5).expect("Table II twins are connected")),
        Box::new(Emrc::build(&topo, 5).expect("Table II twins are connected")),
        Box::new(Fep::build(&topo)),
    ];

    let region = Region::circle((1000.0, 1000.0), radius);
    let scenario = FailureScenario::from_region(&topo, &region);
    println!(
        "{name}: radius-{radius} failure kills {} routers, cuts {} links",
        scenario.failed_node_count(),
        scenario.failed_link_count()
    );

    let net = Network::new(&topo, &scenario, &table);
    let mut sessions: std::collections::BTreeMap<_, PooledSession<'_, '_, _>> = Default::default();
    let mut scratch = SchemeScratch::new();
    let mut rtr_stats = Stats::default();
    let mut stats = vec![Stats::default(); comparators.len()];
    let mut cases = 0usize;

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
            cases += 1;
            let optimal = shortest_path(&topo, &scenario, initiator, t)
                .expect("recoverable")
                .cost();

            // RTR keeps its session so one phase 1 serves every
            // destination of an initiator — the paper's deployment model.
            let session = sessions.entry(initiator).or_insert_with(|| {
                pool.start_session(&topo, &crosslinks, &scenario, initiator, failed_link)
                    .expect("recoverable case: live initiator with a failed incident link")
            });
            let rtr = session.recover(t);
            if rtr.is_delivered() {
                rtr_stats.delivered += 1;
                rtr_stats.stretch_sum += rtr.path.unwrap().cost() as f64 / optimal as f64;
            }

            for (scheme, st) in comparators.iter().zip(&mut stats) {
                let a = scheme.route_in(ctx, &scenario, initiator, failed_link, t, &mut scratch);
                if a.is_delivered() {
                    st.delivered += 1;
                    st.stretch_sum += a.cost_traversed as f64 / optimal as f64;
                }
                st.calcs += a.sp_calculations;
            }
        }
    }

    let pct = |n: usize| 100.0 * n as f64 / cases.max(1) as f64;
    println!("\nrecoverable cases: {cases}");
    println!("scheme  recovery%   avg stretch   SP calcs");
    println!(
        "RTR     {:8.1}   {:11.3}   {:>8}",
        pct(rtr_stats.delivered),
        rtr_stats.stretch_sum / rtr_stats.delivered.max(1) as f64,
        sessions.len() // one SPT per initiator serves every destination
    );
    for (scheme, st) in comparators.iter().zip(&stats) {
        println!(
            "{:<7} {:8.1}   {:11.3}   {:>8}",
            scheme.name(),
            pct(st.delivered),
            st.stretch_sum / st.delivered.max(1) as f64,
            if scheme.id().is_proactive() {
                "0 (precomputed)".to_string()
            } else {
                st.calcs.to_string()
            }
        );
    }
}

#[derive(Default, Clone)]
struct Stats {
    delivered: usize,
    stretch_sum: f64,
    calcs: usize,
}
