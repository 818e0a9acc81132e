//! Records the substrate size sweep into `BENCH_scale.json`: synthetic
//! ISPs from 1k to 100k nodes across every scale generator, with wall
//! times for topology construction, grid-indexed cross-link table
//! construction, ground-truth scenario harvest, phase-1 boundary sweeps,
//! and per-destination recovery, plus the process peak RSS after each
//! point.
//!
//! The paper's §IV evaluation stops at Rocketfuel scale (hundreds of
//! routers); this sweep demonstrates that the geometry layer — the
//! spatial grid index replacing the all-pairs segment-intersection scan —
//! holds up three orders of magnitude further. Where the oracle is
//! affordable (`m <= ORACLE_MAX_LINKS`) the grid-built crossing table is
//! asserted equal to the all-pairs builder, so the recorded numbers are
//! of a verified-correct structure.
//!
//! Run through `cargo xtask bench-scale`, which places the artifact at
//! the repository root; `--smoke` sweeps only the 1k point per generator
//! (the CI scale-smoke job).

use rtr_bench::{peak_rss_mb, reset_peak_rss, Recorder};
use rtr_core::SessionPool;
use rtr_eval::baseline::Baseline;
use rtr_eval::json::Json;
use rtr_topology::{
    generate, CrossLinkTable, FailureScenario, NodeId, Region, SegmentGrid, Topology,
};
use std::time::Instant;

/// Node counts of the full sweep (smoke keeps only the first).
const SIZES: [usize; 5] = [1_000, 5_000, 10_000, 50_000, 100_000];

/// Largest point whose O(n²) all-pairs routing baseline is still built
/// and timed; above this only the sub-quadratic layers are swept.
const BASELINE_MAX_NODES: usize = 10_000;

/// Largest link count where the all-pairs cross-link oracle is affordable
/// enough to assert the grid builder produces the identical table.
const ORACLE_MAX_LINKS: usize = 20_000;

/// `isp_like` materializes all O(n²) candidate pairs, so the legacy
/// generator is swept only up to this size (the scale generators cover
/// the rest of the range).
const ISP_LIKE_MAX_NODES: usize = 5_000;

/// `barabasi_albert` draws its links independently of geometry, so link
/// segments span the whole plane and the *true* crossing count is
/// Θ(m²) — at 1k nodes already ~23% of all pairs cross. The crossing
/// table is inherently quadratic there (no index can shrink its output),
/// so the sweep keeps the heavy-tailed generator to sizes where that
/// output fits comfortably in memory.
const BARABASI_ALBERT_MAX_NODES: usize = 10_000;

/// Recovery sessions started per point (one per distinct initiator on
/// the failure boundary).
const SESSIONS: usize = 16;

/// Destinations recovered per session, spread across the id space.
const RECOVER_DESTS: usize = 8;

/// Fixed sweep seed; every generator point derives from it.
const SEED: u64 = 0x5ca1e;

/// Builds the named generator at `n` nodes. The extent grows with
/// `sqrt(n)` so the node density — and with it the local geometry the
/// grid index exploits — matches the paper's 2000×2000 setups.
fn build(generator: &str, n: usize) -> Topology {
    let extent = 2000.0 * (n as f64 / 1000.0).sqrt();
    let seed = SEED ^ n as u64;
    match generator {
        "isp_like" => generate::isp_like(n, 2 * n, extent, seed).expect("valid isp_like point"),
        "waxman" => generate::waxman(n, 2 * n, extent, 0.15, 0.6, seed).expect("valid waxman"),
        "barabasi_albert" => {
            generate::barabasi_albert(n, 2, extent, seed).expect("valid barabasi_albert")
        }
        "hierarchical_isp" => {
            // 2 cores + 8 access per PoP = 10 nodes per PoP; every sweep
            // size is divisible by 10, so the node count is exact.
            generate::hierarchical_isp(n / 10, 8, extent, seed).expect("valid hierarchical_isp")
        }
        other => panic!("unknown generator {other}"),
    }
}

/// Largest extent coordinate of the sweep point (recomputed from `n` the
/// same way `build` does).
fn extent_of(n: usize) -> f64 {
    2000.0 * (n as f64 / 1000.0).sqrt()
}

/// Runs one sweep point and returns its JSON row.
fn run_point(rec: &Recorder, generator: &str, n: usize) -> Json {
    reset_peak_rss();

    let t = Instant::now();
    let topo = build(generator, n);
    let build_secs = t.elapsed().as_secs_f64();
    assert!(topo.is_connected(), "{generator}@{n} must be connected");

    let t = Instant::now();
    let grid = SegmentGrid::new(&topo);
    let crosslinks = CrossLinkTable::with_grid(&topo, &grid);
    let crosslink_secs = t.elapsed().as_secs_f64();

    let oracle_checked = topo.link_count() <= ORACLE_MAX_LINKS;
    if oracle_checked {
        assert_eq!(
            CrossLinkTable::new_all_pairs(&topo),
            crosslinks,
            "{generator}@{n}: grid-built table diverges from the all-pairs oracle"
        );
    }

    let extent = extent_of(n);
    let region = Region::circle((extent / 2.0, extent / 2.0), extent / 8.0);
    let t = Instant::now();
    let scenario = FailureScenario::from_region_indexed(&topo, &region, &grid);
    let scenario_secs = t.elapsed().as_secs_f64();

    // One session per distinct live initiator on the failure boundary.
    let mut starts: Vec<(NodeId, rtr_topology::LinkId)> = Vec::new();
    for l in scenario.failed_links() {
        let (a, b) = topo.link(l).endpoints();
        for e in [a, b] {
            if !scenario.is_node_failed(e) && !starts.iter().any(|&(i, _)| i == e) {
                starts.push((e, l));
            }
        }
        if starts.len() >= SESSIONS {
            break;
        }
    }
    let step = (topo.node_count() / (RECOVER_DESTS + 1)).max(1);
    let dests: Vec<NodeId> = (1..=RECOVER_DESTS)
        .map(|i| NodeId((i * step) as u32 % topo.node_count() as u32))
        .filter(|&d| !scenario.is_node_failed(d))
        .collect();

    let pool = SessionPool::new();
    let t = Instant::now();
    let mut sessions: Vec<_> = starts
        .iter()
        .filter_map(|&(init, l)| {
            pool.start_session(&topo, &crosslinks, &scenario, init, l)
                .ok()
        })
        .collect();
    let sweep_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut recoveries = 0usize;
    for s in &mut sessions {
        for &d in &dests {
            if d == s.initiator() {
                continue;
            }
            std::hint::black_box(s.recover(d));
            recoveries += 1;
        }
    }
    let recover_secs = t.elapsed().as_secs_f64();
    let session_count = sessions.len();
    drop(sessions);

    let mut row = vec![
        ("generator", Json::Str(generator.to_string())),
        ("nodes", Json::Num(topo.node_count() as f64)),
        ("links", Json::Num(topo.link_count() as f64)),
        ("extent", Json::Num(extent)),
        ("build_secs", Json::Num(build_secs)),
        ("crosslink_secs", Json::Num(crosslink_secs)),
        (
            "crossing_pairs",
            Json::Num(crosslinks.crossing_pair_count() as f64),
        ),
        (
            "oracle_checked",
            Json::Num(f64::from(u8::from(oracle_checked))),
        ),
        ("scenario_secs", Json::Num(scenario_secs)),
        (
            "failed_links",
            Json::Num(scenario.failed_link_count() as f64),
        ),
        ("sessions", Json::Num(session_count as f64)),
        ("sweep_secs", Json::Num(sweep_secs)),
        ("recoveries", Json::Num(recoveries as f64)),
        ("recover_secs", Json::Num(recover_secs)),
    ];

    let mut baseline_note = String::new();
    if topo.node_count() <= BASELINE_MAX_NODES {
        let t = Instant::now();
        let baseline = Baseline::with_threads(topo.clone(), rec.host);
        let baseline_secs = t.elapsed().as_secs_f64();
        std::hint::black_box(&baseline);
        row.push(("baseline_secs", Json::Num(baseline_secs)));
        baseline_note = format!(", baseline {baseline_secs:.2}s");
    }
    row.push(("peak_rss_mb", Json::Num(peak_rss_mb())));

    rec.note(format_args!(
        "{generator:>16} n={n:>6}: build {build_secs:.2}s, crosslinks \
         {crosslink_secs:.3}s ({} pairs{}), scenario {scenario_secs:.3}s, {session_count} \
         sessions {sweep_secs:.3}s, {recoveries} recoveries {recover_secs:.3}s{baseline_note}, \
         peak {:.0} MiB",
        crosslinks.crossing_pair_count(),
        if oracle_checked { ", oracle ok" } else { "" },
        peak_rss_mb(),
    ));
    Json::Obj(row)
}

fn main() {
    let rec = Recorder::from_args("scale");
    let sizes: &[usize] = if rec.smoke { &SIZES[..1] } else { &SIZES[..] };
    rec.note(format_args!("sizes {sizes:?}"));

    let mut points = Vec::new();
    for &n in sizes {
        for generator in ["isp_like", "waxman", "barabasi_albert", "hierarchical_isp"] {
            if generator == "isp_like" && n > ISP_LIKE_MAX_NODES {
                continue;
            }
            if generator == "barabasi_albert" && n > BARABASI_ALBERT_MAX_NODES {
                continue;
            }
            points.push(run_point(&rec, generator, n));
        }
    }
    rec.write(
        vec![("baseline_threads", Json::Num(rec.host as f64))],
        points,
    );
}
