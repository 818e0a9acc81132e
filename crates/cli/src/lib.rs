//! Implementation of the `rtr` command-line tool.
//!
//! Subcommands:
//!
//! ```text
//! rtr topo gen --nodes N --links M [--seed S] [--out FILE]
//! rtr topo info <AS-name | FILE>
//! rtr topo render <AS-name | FILE> [--out FILE.svg]
//! rtr fail <AS-name | FILE> --circle X,Y,R
//! rtr recover <AS-name | FILE> --circle X,Y,R --from SRC --to DST [--scheme rtr|fcp|mrc|emrc|fep]
//! ```
//!
//! Topologies are referenced either by their Table II name (`AS1239`) or by
//! a file in the plain-text format of [`rtr_topology::isp::parse_topology`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use rtr_baselines::{RouteOutcome, SchemeCtx, SchemeId, SchemeMask};
use rtr_core::{Phase1Error, SchemeScratch, SessionPool};
use rtr_eval::schemes::build_comparators;
use rtr_routing::RoutingTable;
use rtr_sim::{CaseKind, DelayModel, Network};
use rtr_topology::{
    generate, isp, CrossLinkTable, FailureScenario, FullView, NodeId, Region, Topology,
};

/// Usage text shown on `--help` or argument errors.
pub const USAGE: &str = "\
usage:
  rtr topo gen --nodes N --links M [--seed S] [--out FILE]
  rtr topo info <AS-name | FILE>
  rtr topo render <AS-name | FILE> [--out FILE.svg]
  rtr fail <AS-name | FILE> --circle X,Y,R
  rtr recover <AS-name | FILE> --circle X,Y,R --from SRC --to DST [--scheme rtr|fcp|mrc|emrc|fep]

Table II names: AS209 AS701 AS1239 AS3320 AS3549 AS3561 AS4323 AS7018";

/// Runs the CLI against `args` (without the program name), writing human
/// output via `println!`. Returns the process exit code.
///
/// # Errors
///
/// Returns a message suitable for stderr on any usage or I/O problem.
pub fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("topo") => topo(&args[1..]),
        Some("fail") => fail(&args[1..]),
        Some("recover") => recover(&args[1..]),
        Some("--help" | "-h") | None => Err(USAGE.to_string()),
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn topo(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("gen") => topo_gen(&args[1..]),
        Some("info") => topo_info(&args[1..]),
        Some("render") => topo_render(&args[1..]),
        _ => Err(format!("usage: rtr topo <gen|info|render> ...\n{USAGE}")),
    }
}

/// Flag-value extraction from an argument list.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match flag(args, name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("bad value for {name}: {v}")),
    }
}

/// Loads a topology by Table II name or file path.
pub fn load_topology(spec: &str) -> Result<Topology, String> {
    if let Some(profile) = isp::profile(spec) {
        return Ok(profile.synthesize());
    }
    let text = std::fs::read_to_string(spec)
        .map_err(|e| format!("{spec} is neither a Table II name nor a readable file: {e}"))?;
    isp::parse_topology(&text).map_err(|e| format!("parsing {spec}: {e}"))
}

/// Parses `X,Y,R` into a circular failure region.
pub fn parse_circle(spec: &str) -> Result<Region, String> {
    let parts: Vec<&str> = spec.split(',').collect();
    let [x, y, r] = parts.as_slice() else {
        return Err(format!("--circle expects X,Y,R, got {spec}"));
    };
    let parse = |s: &str| -> Result<f64, String> {
        s.trim()
            .parse()
            .map_err(|_| format!("bad number in --circle: {s}"))
    };
    let radius = parse(r)?;
    if !(radius.is_finite() && radius >= 0.0) {
        return Err(format!("circle radius must be non-negative, got {radius}"));
    }
    Ok(Region::circle((parse(x)?, parse(y)?), radius))
}

fn parse_node(spec: &str, topo: &Topology) -> Result<NodeId, String> {
    let raw = spec.strip_prefix('v').unwrap_or(spec);
    let id: u32 = raw.parse().map_err(|_| format!("bad node id {spec}"))?;
    if (id as usize) < topo.node_count() {
        Ok(NodeId(id))
    } else {
        Err(format!(
            "node {spec} out of range (topology has {} nodes)",
            topo.node_count()
        ))
    }
}

fn topo_gen(args: &[String]) -> Result<(), String> {
    let nodes: usize = parse_flag(args, "--nodes")?.ok_or("--nodes is required")?;
    let links: usize = parse_flag(args, "--links")?.ok_or("--links is required")?;
    let seed: u64 = parse_flag(args, "--seed")?.unwrap_or(0);
    let topo =
        generate::isp_like(nodes, links, isp::AREA_EXTENT, seed).map_err(|e| e.to_string())?;
    let text = isp::to_text(&topo);
    match flag(args, "--out") {
        Some(path) => {
            std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote {nodes}-node, {links}-link topology to {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn topo_info(args: &[String]) -> Result<(), String> {
    let spec = args
        .first()
        .ok_or("usage: rtr topo info <AS-name | FILE>")?;
    let topo = load_topology(spec)?;
    let crosslinks = CrossLinkTable::new(&topo);
    let degrees: Vec<usize> = topo.node_ids().map(|n| topo.degree(n)).collect();
    println!("topology {spec}:");
    println!("  nodes            : {}", topo.node_count());
    println!("  links            : {}", topo.link_count());
    println!("  connected        : {}", topo.is_connected());
    println!(
        "  degree           : min {}, max {}, mean {:.2}",
        degrees.iter().min().unwrap_or(&0),
        degrees.iter().max().unwrap_or(&0),
        2.0 * topo.link_count() as f64 / topo.node_count().max(1) as f64
    );
    println!("  crossing pairs   : {}", crosslinks.crossing_pair_count());
    println!(
        "  planar embedding : {}",
        crosslinks.crossing_pair_count() == 0
    );
    Ok(())
}

fn topo_render(args: &[String]) -> Result<(), String> {
    let spec = args
        .first()
        .ok_or("usage: rtr topo render <AS-name | FILE> [--out FILE.svg]")?;
    let topo = load_topology(spec)?;
    let svg = rtr_eval::viz::SvgScene::new(&topo).render();
    let out = flag(args, "--out").unwrap_or_else(|| "topology.svg".into());
    std::fs::write(&out, svg).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn fail(args: &[String]) -> Result<(), String> {
    let spec = args
        .first()
        .ok_or("usage: rtr fail <AS-name | FILE> --circle X,Y,R")?;
    let topo = load_topology(spec)?;
    let region = parse_circle(&flag(args, "--circle").ok_or("--circle is required")?)?;
    let scenario = FailureScenario::from_region(&topo, &region);
    let table = RoutingTable::compute(&topo, &FullView);
    let net = Network::new(&topo, &scenario, &table);

    let (mut recoverable, mut irrecoverable, mut unaffected) = (0usize, 0usize, 0usize);
    for s in topo.node_ids() {
        for t in topo.node_ids() {
            if s == t {
                continue;
            }
            match net.classify(s, t) {
                CaseKind::Recoverable { .. } => recoverable += 1,
                CaseKind::Irrecoverable { .. } => irrecoverable += 1,
                CaseKind::NotAffected => unaffected += 1,
                CaseKind::SourceFailed => {}
            }
        }
    }
    println!("failure impact on {spec}:");
    println!("  routers destroyed : {}", scenario.failed_node_count());
    println!("  links cut         : {}", scenario.failed_link_count());
    println!("  paths unaffected  : {unaffected}");
    println!("  paths recoverable : {recoverable}");
    println!("  paths lost        : {irrecoverable}");
    Ok(())
}

fn recover(args: &[String]) -> Result<(), String> {
    let spec = args
        .first()
        .ok_or("usage: rtr recover <AS-name | FILE> --circle X,Y,R --from SRC --to DST")?;
    let topo = load_topology(spec)?;
    let region = parse_circle(&flag(args, "--circle").ok_or("--circle is required")?)?;
    let scenario = FailureScenario::from_region(&topo, &region);
    let table = RoutingTable::compute(&topo, &FullView);
    let net = Network::new(&topo, &scenario, &table);
    let src = parse_node(&flag(args, "--from").ok_or("--from is required")?, &topo)?;
    let dst = parse_node(&flag(args, "--to").ok_or("--to is required")?, &topo)?;
    let scheme = flag(args, "--scheme").unwrap_or_else(|| "rtr".into());

    let (initiator, failed_link) = match net.classify(src, dst) {
        CaseKind::NotAffected => {
            println!("the default path {src} -> {dst} is intact; nothing to recover");
            return Ok(());
        }
        CaseKind::SourceFailed => return Err(format!("source {src} was destroyed")),
        CaseKind::Recoverable {
            initiator,
            failed_link,
        } => {
            println!("path {src} -> {dst} is broken; destination still reachable");
            (initiator, failed_link)
        }
        CaseKind::Irrecoverable {
            initiator,
            failed_link,
        } => {
            println!("path {src} -> {dst} is broken; destination unreachable (it should be discarded early)");
            (initiator, failed_link)
        }
    };
    println!("recovery initiator: {initiator} (dead next hop over {failed_link})");

    match scheme.as_str() {
        "rtr" => {
            let crosslinks = CrossLinkTable::new(&topo);
            let pool = SessionPool::new();
            let mut session =
                match pool.start_session(&topo, &crosslinks, &scenario, initiator, failed_link) {
                    Ok(session) => session,
                    Err(Phase1Error::NoLiveNeighbor { .. }) => {
                        println!("phase 1: {initiator} has no live neighbor to sweep from");
                        println!("phase 2: packet discarded at the initiator");
                        return Ok(());
                    }
                    Err(e) => return Err(e.to_string()),
                };
            let p1 = session.phase1();
            println!(
                "phase 1: {} hops in {}, collected {} failed links, {} cross links",
                p1.trace.hops(),
                p1.trace.duration(&DelayModel::PAPER),
                p1.header.failed_links().len(),
                p1.header.cross_links().len()
            );
            let attempt = session.recover(dst);
            match (&attempt.path, attempt.is_delivered()) {
                (Some(path), true) => println!("phase 2: delivered along {path}"),
                (Some(path), false) => {
                    println!("phase 2: believed path {path} hit a missed failure; packet discarded")
                }
                (None, _) => println!(
                    "phase 2: no path in the repaired view; packet discarded at the initiator"
                ),
            }
        }
        other => {
            let id = match other {
                "fcp" => SchemeId::Fcp,
                "mrc" => SchemeId::Mrc,
                "emrc" => SchemeId::Emrc,
                "fep" => SchemeId::Fep,
                _ => {
                    return Err(format!(
                        "unknown scheme {other}; pick rtr, fcp, mrc, emrc, or fep"
                    ))
                }
            };
            let crosslinks = CrossLinkTable::new(&topo);
            let table = RoutingTable::compute(&topo, &FullView);
            let ctx = SchemeCtx {
                topo: &topo,
                crosslinks: &crosslinks,
                table: &table,
            };
            let backend = build_comparators(&topo, SchemeMask::none().with(id), 5)
                .map_err(|e| e.to_string())?
                .pop()
                .ok_or_else(|| format!("scheme {other} unavailable"))?;
            let mut scratch = SchemeScratch::new();
            let a = backend.route_in(ctx, &scenario, initiator, failed_link, dst, &mut scratch);
            let verdict = match a.outcome {
                RouteOutcome::Delivered => "delivered".to_string(),
                RouteOutcome::Dropped { at_link } => {
                    format!("dropped at dead link {at_link}")
                }
                RouteOutcome::NoRoute => "discarded (no route)".to_string(),
            };
            println!(
                "{}: {verdict} after {} hops and {} shortest-path calculations",
                backend.name(),
                a.hops(),
                a.sp_calculations
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_circle_accepts_and_rejects() {
        assert!(parse_circle("100,200,50").is_ok());
        assert!(parse_circle("100, 200, 50").is_ok());
        assert!(parse_circle("100,200").is_err());
        assert!(parse_circle("a,b,c").is_err());
        assert!(parse_circle("1,2,-3").is_err());
    }

    #[test]
    fn load_topology_by_name_and_failure() {
        let topo = load_topology("AS1239").unwrap();
        assert_eq!(topo.node_count(), 52);
        assert!(load_topology("ASnope").is_err());
    }

    #[test]
    fn node_parsing() {
        let topo = load_topology("AS1239").unwrap();
        assert_eq!(parse_node("v3", &topo).unwrap(), NodeId(3));
        assert_eq!(parse_node("7", &topo).unwrap(), NodeId(7));
        assert!(parse_node("v999", &topo).is_err());
        assert!(parse_node("xyz", &topo).is_err());
    }

    #[test]
    fn unknown_commands_error_with_usage() {
        assert!(run(&sv(&[])).unwrap_err().contains("usage"));
        assert!(run(&sv(&["frobnicate"]))
            .unwrap_err()
            .contains("unknown command"));
        assert!(run(&sv(&["topo"])).unwrap_err().contains("gen|info|render"));
    }

    #[test]
    fn gen_and_info_roundtrip() {
        let dir = std::env::temp_dir().join("rtr_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("t.topo");
        let file_s = file.to_str().unwrap().to_string();
        run(&sv(&[
            "topo", "gen", "--nodes", "12", "--links", "20", "--seed", "3", "--out", &file_s,
        ]))
        .unwrap();
        run(&sv(&["topo", "info", &file_s])).unwrap();
        let loaded = load_topology(&file_s).unwrap();
        assert_eq!(loaded.node_count(), 12);
        assert_eq!(loaded.link_count(), 20);
    }

    #[test]
    fn gen_rejects_impossible_graphs() {
        let err = run(&sv(&["topo", "gen", "--nodes", "10", "--links", "3"])).unwrap_err();
        assert!(err.contains("cannot connect"));
    }

    #[test]
    fn fail_and_recover_run_end_to_end() {
        run(&sv(&["fail", "AS1239", "--circle", "1000,1000,250"])).unwrap();
        // Find some broken pair via the library, then drive the CLI path.
        let topo = load_topology("AS1239").unwrap();
        let region = parse_circle("1000,1000,250").unwrap();
        let scenario = FailureScenario::from_region(&topo, &region);
        let table = RoutingTable::compute(&topo, &FullView);
        let net = Network::new(&topo, &scenario, &table);
        let Some((s, t)) = topo
            .node_ids()
            .flat_map(|s| topo.node_ids().map(move |t| (s, t)))
            .find(|&(s, t)| s != t && matches!(net.classify(s, t), CaseKind::Recoverable { .. }))
        else {
            panic!("fixture should contain a recoverable pair");
        };
        for scheme in ["rtr", "fcp", "mrc", "emrc", "fep"] {
            run(&sv(&[
                "recover",
                "AS1239",
                "--circle",
                "1000,1000,250",
                "--from",
                &s.to_string(),
                "--to",
                &t.to_string(),
                "--scheme",
                scheme,
            ]))
            .unwrap();
        }
        // Unknown scheme errors.
        assert!(run(&sv(&[
            "recover",
            "AS1239",
            "--circle",
            "1000,1000,250",
            "--from",
            "v0",
            "--to",
            "v1",
            "--scheme",
            "carrier-pigeon"
        ]))
        .is_err());
    }

    #[test]
    fn recover_from_isolated_initiator_discards_at_the_initiator() {
        // v0 hangs off v1 alone; the circle destroys v1, leaving v0 alive
        // with no live neighbor. The case is irrecoverable and phase 1
        // cannot start: RTR must report the discard, not panic.
        let dir = std::env::temp_dir().join("rtr_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("pendant.topo");
        std::fs::write(
            &file,
            "node 0 0\nnode 100 0\nnode 200 0\nnode 200 100\nnode 100 100\n\
             link 0 1\nlink 1 2\nlink 2 3\nlink 3 4\nlink 4 1\n",
        )
        .unwrap();
        let file_s = file.to_str().unwrap().to_string();
        let topo = load_topology(&file_s).unwrap();
        let region = parse_circle("100,0,10").unwrap();
        let scenario = FailureScenario::from_region(&topo, &region);
        let table = RoutingTable::compute(&topo, &FullView);
        let net = Network::new(&topo, &scenario, &table);
        assert!(matches!(
            net.classify(NodeId(0), NodeId(3)),
            CaseKind::Irrecoverable {
                initiator: NodeId(0),
                ..
            }
        ));
        for scheme in ["rtr", "fcp"] {
            run(&sv(&[
                "recover", &file_s, "--circle", "100,0,10", "--from", "v0", "--to", "v3",
                "--scheme", scheme,
            ]))
            .unwrap();
        }
    }

    #[test]
    fn render_writes_svg() {
        let dir = std::env::temp_dir().join("rtr_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("t.svg");
        let out_s = out.to_str().unwrap().to_string();
        run(&sv(&["topo", "render", "AS1239", "--out", &out_s])).unwrap();
        let svg = std::fs::read_to_string(&out).unwrap();
        assert!(svg.starts_with("<svg"));
    }
}
