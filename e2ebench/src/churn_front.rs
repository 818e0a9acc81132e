//! `churn-front`: a damage front sweeping a 2,000-node ISP-like topology.
//!
//! `churn::run_timeline` with staleness K = 1 over a
//! `Timeline::moving_front` of 40 steps (radius 250, inside the paper's
//! 100–300 range) moving west to east, with repairs behind the front.
//! Patching the believed baseline (`DynamicBaseline::apply_event`)
//! dominates it, so it is the workload on which a baseline-maintenance
//! change shows and which comparator or transport changes leave alone.
//! Set-up holds the all-pairs `Baseline` on 2,000 nodes (the scale wall)
//! and `DynamicBaseline::new`.
//!
//! The operation is one timeline event folded in and recovered;
//! `ops_per_s` is events per second of whole `run_timeline` calls (which
//! build their own `DynamicBaseline` first). The traced run replays the
//! event loop from public entry points and must reproduce
//! `run_timeline`'s report event for event.

use crate::stats;
use crate::trace::{Kind, Tracer};
use crate::{repeat_setup, Args, Report};
use rtr_core::{DeliveryOutcome, SessionPool};
use rtr_eval::baseline::Baseline;
use rtr_eval::churn::{
    self, ChurnConfig, DynamicBaseline, EventOutcome, PatchStats, TimelineReport,
};
use rtr_routing::RoutingTable;
use rtr_topology::{
    generate, CrossLinkTable, FullView, LinkId, LinkMask, NodeId, Point, Timeline, Topology,
};
use std::sync::Arc;
use std::time::Instant;

const NODES: usize = 2_000;
const LINKS: usize = 4_000;
const EXTENT: f64 = 2_000.0;
const STEPS: usize = 40;
const RADIUS: f64 = 250.0;
const DT_MS: u64 = 50;
const STALENESS: usize = 1;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Setup {
    base: Arc<Baseline>,
    dynamic: DynamicBaseline,
    timeline: Timeline,
}

fn synth(seed: u64) -> Result<Topology, String> {
    generate::isp_like(NODES, LINKS, EXTENT, seed).map_err(|e| e.to_string())
}

fn front(topo: &Topology) -> Timeline {
    Timeline::moving_front(
        topo,
        Point::new(0.0, EXTENT / 2.0),
        (EXTENT / STEPS as f64, 0.0),
        RADIUS,
        STEPS,
        DT_MS,
    )
}

fn setup(seed: u64) -> Result<Setup, String> {
    let base = Arc::new(Baseline::new(synth(seed)?));
    let dynamic = DynamicBaseline::new(Arc::clone(&base));
    let timeline = front(base.topo());
    Ok(Setup {
        base,
        dynamic,
        timeline,
    })
}

/// Event-by-event differences between two reports of the same timeline.
fn differing_events(a: &[EventOutcome], b: &[EventOutcome]) -> u64 {
    let same = |x: &EventOutcome, y: &EventOutcome| {
        x.index == y.index
            && x.at_ms == y.at_ms
            && x.patch == y.patch
            && x.cases == y.cases
            && x.delivered == y.delivered
            && x.reachable == y.reachable
            && x.sp_calculations == y.sp_calculations
            && x.stretch_sum.to_bits() == y.stretch_sum.to_bits()
            && x.stretch_count == y.stretch_count
    };
    let paired = a.iter().zip(b).filter(|(x, y)| !same(x, y)).count();
    (paired + a.len().abs_diff(b.len())) as u64
}

/// Folds every event into `dynamic` and compares it with a from-scratch
/// rebuild halfway and at the end; returns the events whose checkpoint
/// diverged.
fn patch_check(dynamic: &mut DynamicBaseline, timeline: &Timeline, report: &mut Report) {
    let n = timeline.len();
    let checkpoints = [n / 2, n];
    let mut from = 0;
    for (i, ev) in timeline.events().iter().enumerate() {
        dynamic.apply_event(ev);
        if checkpoints.contains(&(i + 1)) {
            if let Some(d) = dynamic.divergence(&dynamic.rebuilt()) {
                report.fail(
                    (i + 1 - from) as u64,
                    format!("patched baseline after event {i}: {d}"),
                );
            }
            from = i + 1;
        }
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let cfg = ChurnConfig::default().with_staleness(STALENESS);

    let (mut s, setup_times) = repeat_setup(SETUP_REPS, || setup(args.seed))?;
    let events = s.timeline.len() as u64;
    report.line(format!(
        "workload: isp_like({NODES}, {LINKS}, {EXTENT}, seed) front of {STEPS} steps, radius {RADIUS}, \
         {events} events, staleness K={STALENESS}"
    ));
    report.line(format!(
        "setup_s {:.4} (median of {SETUP_REPS} set-ups: {setup_times:.4?})",
        stats::median(&setup_times)
    ));

    // Whole timelines until the next would overrun the budget.
    let t0 = Instant::now();
    let mut rep_times = Vec::new();
    let mut first: Option<TimelineReport> = None;
    loop {
        let t = Instant::now();
        let r = churn::run_timeline(&s.base, &s.timeline, "front", &cfg);
        let secs = t.elapsed().as_secs_f64();
        rep_times.push(secs);
        report.attempted += events;
        if r.events.is_empty() || r.total_cases() == 0 {
            report.fail(events.max(1), "the timeline recovered no cases");
        }
        match &first {
            None => first = Some(r),
            Some(f) => {
                let bad = differing_events(&f.events, &r.events);
                if bad > 0 {
                    report.fail(bad, "run_timeline is not deterministic");
                }
            }
        }
        if args.trace || t0.elapsed().as_secs_f64() + secs > args.seconds {
            break;
        }
    }
    let first = first.ok_or("no timeline ran")?;
    let rates: Vec<f64> = rep_times.iter().map(|t| events as f64 / t).collect();
    let rate = stats::median(&rates);
    report.line(format!(
        "churn_events_per_s {rate:.3} (median of {} timelines; times {rep_times:.3?}); \
         {} cases, {:.1}% delivered",
        rep_times.len(),
        first.total_cases(),
        first.overall_delivery_pct()
    ));

    if !args.trace {
        patch_check(&mut s.dynamic, &s.timeline, &mut report);
        report.metric("setup_s", stats::median(&setup_times));
        report.metric("ops_per_s", rate);
        return Ok(report);
    }
    traced(args, &s, &cfg, &first, rep_times[0], &mut report)?;
    Ok(report)
}

fn traced(
    args: &Args,
    s: &Setup,
    cfg: &ChurnConfig,
    want: &TimelineReport,
    untraced_s: f64,
    report: &mut Report,
) -> Result<(), String> {
    let mut tr = Tracer::new();
    let root = tr.name("bench.churn-front", Kind::Group);
    let standalone = tr.name("bench.standalone", Kind::Group);
    let replay = tr.name("bench.replay", Kind::Group);
    let n_synth = tr.name("topology.synth", Kind::Layer);
    let n_base = tr.name("eval.baseline", Kind::Layer);
    let n_table = tr.name("routing.table", Kind::Layer);
    let n_cross = tr.name("topology.crosslinks", Kind::Layer);
    let n_init = tr.name("eval.churn.init", Kind::Layer);
    let n_patch = tr.name("eval.churn.patch", Kind::Layer);
    let n_harvest = tr.name("eval.churn.harvest", Kind::Layer);
    let n_truth = tr.name("routing.truth", Kind::Layer);
    let n_session = tr.name("core.based_session", Kind::Layer);
    let n_recover = tr.name("core.recover", Kind::Layer);
    let n_rebuild = tr.name("eval.churn.rebuild", Kind::Layer);

    let root_span = tr.open(root, 0);
    // Standalone calls on the same topology, for each part's share of
    // set-up.
    tr.span(standalone, 0, |tr| -> Result<(), String> {
        let topo = tr.span(n_synth, 0, |_| synth(args.seed))?;
        let base = tr.span(n_base, 0, |_| Baseline::new(topo.clone()));
        let table = tr.span(n_table, 0, |_| RoutingTable::compute(&topo, &FullView));
        let cross = tr.span(n_cross, 0, |_| CrossLinkTable::new(&topo));
        if table.router_count() != base.topo().node_count() || cross != *base.crosslinks() {
            return Err(
                "standalone routing table or crossing table differs from the baseline's".into(),
            );
        }
        Ok(())
    })?;

    let replay_span = tr.open(replay, 0);
    let t0 = Instant::now();
    let base = &s.base;
    let topo = base.topo();
    let staleness = cfg.staleness.max(1);
    let mut believed = tr.span(n_init, 0, |_| DynamicBaseline::new(Arc::clone(base)));
    let pool = SessionPool::new();
    let mut truth = LinkMask::none(topo);
    let evs = s.timeline.events();
    let mut got = Vec::with_capacity(evs.len());
    let (mut labels, mut sources, mut sweep_hops, mut nodes_touched) = (0u64, 0u64, 0u64, 0u64);
    for (i, ev) in evs.iter().enumerate() {
        ev.apply_to(&mut truth);
        let patch = match i.checked_sub(staleness).and_then(|k| evs.get(k)) {
            Some(old) => tr.span(n_patch, i as u64, |_| believed.apply_event(old)),
            None => PatchStats::default(),
        };
        labels += patch.labels_touched as u64;
        sources += patch.sources_touched as u64;

        let cases = tr.span(n_harvest, i as u64, |_| {
            let mut cases: Vec<(NodeId, LinkId, NodeId)> = Vec::new();
            for u in topo.node_ids() {
                for (k, &(_, l)) in topo.neighbors(u).iter().enumerate() {
                    if truth.is_removed(l) && !believed.mask().is_removed(l) {
                        cases.extend(believed.dests_via(u, k).iter().map(|&t| (u, l, t)));
                    }
                }
            }
            cases
        });

        let mut out = EventOutcome {
            index: i,
            at_ms: ev.at_ms,
            patch,
            cases: cases.len(),
            delivered: 0,
            reachable: 0,
            sp_calculations: 0,
            stretch_sum: 0.0,
            stretch_count: 0,
        };
        // Every harvested case is recovered: the default `ChurnConfig` has
        // no per-event cap. One session per (initiator, dead link).
        for group in cases.chunk_by(|a, b| a.0 == b.0 && a.1 == b.1) {
            let (u, l, _) = group[0];
            let mut lease = pool.dijkstra();
            let span = tr.open(n_truth, i as u64);
            let optimal = lease.run(topo, &truth, u);
            tr.close(span);
            let span = tr.open(n_session, i as u64);
            let session =
                pool.start_based_session(topo, base.crosslinks(), &truth, believed.mask(), u, l);
            tr.close(span);
            let reachable = group
                .iter()
                .filter(|c| optimal.distance(c.2).is_some())
                .count();
            out.reachable += reachable;
            let Ok(mut session) = session else { continue };
            sweep_hops += session.phase1().trace.hops() as u64;
            nodes_touched += session.computer().nodes_touched() as u64;
            for &(_, _, t) in group {
                let attempt = tr.span(n_recover, i as u64, |_| session.recover(t));
                if attempt.outcome == DeliveryOutcome::Delivered {
                    out.delivered += 1;
                    if let (Some(p), Some(od)) = (attempt.path, optimal.distance(t)) {
                        if od > 0 {
                            out.stretch_sum += p.cost() as f64 / od as f64;
                            out.stretch_count += 1;
                        }
                    }
                }
            }
            out.sp_calculations += session.sp_calculations();
        }
        got.push(out);
    }
    let traced_s = t0.elapsed().as_secs_f64();
    let rebuilt = tr.span(n_rebuild, 0, |_| believed.rebuilt());
    tr.close(replay_span);
    tr.close(root_span);

    report.attempted += got.len() as u64;
    let bad = differing_events(&want.events, &got);
    if bad > 0 {
        report.fail(
            bad,
            format!("traced replica differs from run_timeline on {bad} events"),
        );
    }
    if let Some(d) = believed.divergence(&rebuilt) {
        report.fail(
            got.len() as u64,
            format!("patched baseline diverges from its rebuild: {d}"),
        );
    }

    report.lines.extend(tr.summary_lines());
    let totals = tr.totals_map();
    let get = |n: &str| totals.get(n).copied().unwrap_or_default();
    for (metric, span) in [
        ("topology.synth_s", "topology.synth"),
        ("eval.baseline_s", "eval.baseline"),
        ("routing.table_s", "routing.table"),
        ("topology.crosslinks_s", "topology.crosslinks"),
        ("eval.churn.init_s", "eval.churn.init"),
        ("eval.churn.patch_s", "eval.churn.patch"),
        ("eval.churn.harvest_s", "eval.churn.harvest"),
        ("eval.churn.rebuild_s", "eval.churn.rebuild"),
        ("core.based_session_s", "core.based_session"),
        ("core.recover_s", "core.recover"),
        ("routing.truth_s", "routing.truth"),
    ] {
        report.metric(metric, get(span).total_s);
    }
    let patch_ms: Vec<f64> = tr.durations(n_patch).iter().map(|s| s * 1e3).collect();
    let patch = stats::Summary::of(&patch_ms);
    let rebuild_s = get("eval.churn.rebuild").total_s;
    report.metric("eval.churn.patch_ms_p50", patch.p50);
    report.metric("eval.churn.patch_ms_max", patch.max);
    report.metric("eval.churn.patch_vs_rebuild", patch.p50 * 1e-3 / rebuild_s);
    report.metric("eval.churn.labels_touched", labels as f64);
    report.metric("eval.churn.sources_touched", sources as f64);
    report.metric("eval.churn.cases", got.iter().map(|e| e.cases as f64).sum());
    report.metric(
        "eval.churn.reachable",
        got.iter().map(|e| e.reachable as f64).sum(),
    );
    let delivered: f64 = got.iter().map(|e| e.delivered as f64).sum();
    report.metric("eval.churn.delivered", delivered);
    report.metric("core.sessions", get("core.based_session").count as f64);
    report.metric("core.sweep_hops", sweep_hops as f64);
    report.metric("core.nodes_touched", nodes_touched as f64);
    report.metric("core.recoveries", get("core.recover").count as f64);
    report.metric("core.delivered", delivered);
    report.metric("routing.truth_runs", get("routing.truth").count as f64);
    let total = get("bench.churn-front").total_s;
    report.metric("trace.total_s", total);
    report.metric("trace.unattributed_s", tr.unattributed_s());
    report.metric("trace.overhead_s", traced_s - untraced_s);
    report.metric("trace.overhead_share", traced_s / untraced_s - 1.0);
    report.metric("trace.spans", tr.span_count() as f64);
    report.line(format!(
        "patch per event {}; one rebuild {rebuild_s:.3} s",
        patch.describe("ms")
    ));
    report.line(format!(
        "traced replay {traced_s:.3} s vs untraced run_timeline {untraced_s:.3} s; \
         unattributed {:.3} s of {total:.3} s traced",
        tr.unattributed_s()
    ));
    let path = crate::out_dir().join("trace-churn-front.csv");
    tr.write_csv(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
}
