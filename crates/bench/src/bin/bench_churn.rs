//! Records per-event baseline maintenance cost under churn into
//! `BENCH_churn.json`: for every event of a failure timeline, the wall
//! time to fold the event into the believed state **incrementally**
//! (Narvaez remove/restore tree patches + touched-source rebucketing)
//! versus recomputing the whole per-source state **from scratch** at the
//! same point.
//!
//! Every event is oracle-checked: the patched state must be byte-identical
//! to the rebuild (`DynamicBaseline::divergence == None`) before its
//! timings are recorded, so the artifact only ever reports the cost of a
//! verified-correct structure. `cargo xtask bench-check` then gates the
//! committed file on *incremental median ≤ rebuild median* per workload.
//!
//! Run through `cargo xtask bench-churn`, which places the artifact at
//! the repository root; `--smoke` runs one small-grid workload (the CI
//! churn-smoke job). The full run takes under a minute on a 2-core host,
//! most of it the 2,000-node front's per-event rebuilds.

use rtr_bench::{median, Recorder};
use rtr_eval::baseline::Baseline;
use rtr_eval::churn::DynamicBaseline;
use rtr_eval::json::Json;
use rtr_topology::{generate, isp, Point, Timeline, Topology};
use std::sync::Arc;
use std::time::Instant;

/// Fixed seed for the churn-mode generators.
const SEED: u64 = 0xC42;

/// One workload: a topology plus the timeline replayed over it.
fn workloads(smoke: bool) -> Vec<(String, Topology, Timeline)> {
    if smoke {
        let topo = generate::grid(6, 6, 100.0);
        let tl = Timeline::random_churn(&topo, 4, 50, 2, 0.4, SEED);
        return vec![("grid6x6-churn".to_string(), topo, tl)];
    }
    let mut out = Vec::new();
    for name in ["AS1239", "AS3320"] {
        let profile = isp::profile(name).expect("Table II name");
        let topo = profile.synthesize();
        let tl = Timeline::random_churn(&topo, 10, 50, 3, 0.3, SEED);
        out.push((format!("{name}-churn"), topo, tl));
    }
    // A damage front sweeping west→east across the 2000 km extent,
    // repairs behind it (the correlated, area-shaped regime).
    let profile = isp::profile("AS3549").expect("Table II name");
    let topo = profile.synthesize();
    let steps = 8usize;
    let tl = Timeline::moving_front(
        &topo,
        Point::new(0.0, isp::AREA_EXTENT / 2.0),
        (isp::AREA_EXTENT / steps as f64, 0.0),
        isp::AREA_EXTENT / 6.0,
        steps,
        50,
    );
    out.push(("AS3549-front".to_string(), topo, tl));
    // The same kind of front over a 2,000-node topology, where a patch
    // that scanned every node or link per source would show.
    let topo = generate::isp_like(2_000, 4_000, 2_000.0, SEED).expect("isp_like parameters");
    let steps = 16usize;
    let tl = Timeline::moving_front(
        &topo,
        Point::new(0.0, 1_000.0),
        (2_000.0 / steps as f64, 0.0),
        250.0,
        steps,
        50,
    );
    out.push(("isp2000-front".to_string(), topo, tl));
    out
}

/// Replays one workload and returns its JSON point.
fn run_point(rec: &Recorder, name: &str, topo: Topology, timeline: &Timeline) -> Json {
    let nodes = topo.node_count();
    let links = topo.link_count();
    let base = Arc::new(Baseline::new(topo));
    let mut dynbase = DynamicBaseline::new(Arc::clone(&base));

    let mut rows = Vec::new();
    let mut inc_samples = Vec::new();
    let mut reb_samples = Vec::new();
    let mut labels_total = 0usize;
    for (i, ev) in timeline.events().iter().enumerate() {
        let t = Instant::now();
        let stats = dynbase.apply_event(ev);
        let incremental_secs = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let oracle = dynbase.rebuilt();
        let rebuild_secs = t.elapsed().as_secs_f64();

        if let Some(diff) = dynbase.divergence(&oracle) {
            panic!("{name} event {i}: incremental state diverged from rebuild: {diff}");
        }

        labels_total += stats.labels_touched;
        inc_samples.push(incremental_secs);
        reb_samples.push(rebuild_secs);
        rows.push(Json::Obj(vec![
            ("event", Json::Num(i as f64)),
            ("down", Json::Num(stats.down as f64)),
            ("up", Json::Num(stats.up as f64)),
            ("sources_touched", Json::Num(stats.sources_touched as f64)),
            ("labels_touched", Json::Num(stats.labels_touched as f64)),
            ("incremental_secs", Json::Num(incremental_secs)),
            ("rebuild_secs", Json::Num(rebuild_secs)),
        ]));
    }
    let inc_median = median(inc_samples);
    let reb_median = median(reb_samples);
    rec.note(format_args!(
        "{name:>14} n={nodes:>4} m={links:>5}: {} events, incremental median \
         {:.2} ms vs rebuild median {:.2} ms ({:.1}x), {labels_total} labels touched, oracle ok",
        timeline.len(),
        inc_median * 1e3,
        reb_median * 1e3,
        if inc_median > 0.0 {
            reb_median / inc_median
        } else {
            f64::INFINITY
        },
    ));
    Json::Obj(vec![
        ("name", Json::Str(name.to_string())),
        ("nodes", Json::Num(nodes as f64)),
        ("links", Json::Num(links as f64)),
        ("events", Json::Num(timeline.len() as f64)),
        ("incremental_median_secs", Json::Num(inc_median)),
        ("rebuild_median_secs", Json::Num(reb_median)),
        ("labels_touched_total", Json::Num(labels_total as f64)),
        ("oracle_checked", Json::Num(1.0)),
        ("per_event", Json::Arr(rows)),
    ])
}

fn main() {
    let rec = Recorder::from_args("churn");
    let points: Vec<Json> = workloads(rec.smoke)
        .into_iter()
        .map(|(name, topo, tl)| run_point(&rec, &name, topo, &tl))
        .collect();
    rec.write(Vec::new(), points);
}
