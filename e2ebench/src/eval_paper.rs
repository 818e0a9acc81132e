//! `eval-paper`: the paper's §IV evaluation at full scale.
//!
//! `driver::run_workload` over all eight Table II twins, 10,000
//! recoverable plus 10,000 irrecoverable cases per twin, all five
//! schemes, one thread — the run behind Tables III/IV and Figs. 7–13.
//! Comparators dominate it, so it is the workload on which a comparator
//! change shows and which a transport or churn change leaves alone.
//!
//! The operation is one case (both classes, all five schemes);
//! `ops_per_s` is cases per second of whole passes over the eight twins.
//! The traced run replays the driver's per-scenario loop from public
//! entry points with a span around every layer call, and must reproduce
//! the driver's rows and Fig. 10 series exactly.

use crate::stats;
use crate::trace::{maybe_span, Kind, Name, Tracer};
use crate::{repeat_setup, Args, Report};
use rtr_baselines::{RecoveryScheme, SchemeId};
use rtr_core::SessionPool;
use rtr_eval::baseline::Baseline;
use rtr_eval::driver::{self, TopologyResults, FIG10_POINTS, FIG10_STEP_MS};
use rtr_eval::schemes::{
    build_comparators, wasted_transmission, IrrecoverableRow, OverheadSeries, RecoverableRow,
    SchemeOutcome, WastedWork,
};
use rtr_eval::testcase::{generate_workload_shared, ScenarioCases, TestCase, Workload};
use rtr_eval::{json, reports, ExperimentConfig};
use rtr_sim::SimTime;
use rtr_topology::{isp, NodeId};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The seed the committed `results/` were generated with.
const DEFAULT_SEED: u64 = 0x5274_5221;

type Comparators = Vec<Box<dyn RecoveryScheme>>;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Setup {
    workloads: Vec<Workload>,
    comparators: Vec<Comparators>,
}

fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig::paper().with_seed(seed).with_threads(1)
}

/// Twin synthesis, baselines, harvest and comparator build for all eight
/// twins; with a tracer, each call gets its span.
fn setup(cfg: &ExperimentConfig, mut tr: Option<&mut Tracer>) -> Result<Setup, String> {
    let mut workloads = Vec::new();
    let mut comparators = Vec::new();
    for p in isp::TABLE2.iter() {
        let topo = maybe_span(&mut tr, "topology.synth", || p.synthesize());
        let base = Arc::new(maybe_span(&mut tr, "eval.baseline", || Baseline::new(topo)));
        let w = maybe_span(&mut tr, "eval.harvest", || {
            generate_workload_shared(p.name, base, cfg, cfg.seed ^ u64::from(p.asn))
        });
        let comps = maybe_span(&mut tr, "baselines.build", || {
            build_comparators(w.topo(), cfg.schemes, cfg.mrc_configurations)
        })
        .map_err(|e| format!("{}: {e}", p.name))?;
        workloads.push(w);
        comparators.push(comps);
    }
    Ok(Setup {
        workloads,
        comparators,
    })
}

fn case_count(w: &[Workload]) -> u64 {
    w.iter()
        .map(|w| (w.recoverable_count() + w.irrecoverable_count()) as u64)
        .sum()
}

/// One untraced pass: `run_workload` on every twin.
fn pass(s: &Setup, cfg: &ExperimentConfig) -> Result<(Vec<TopologyResults>, f64), String> {
    let t0 = Instant::now();
    let mut out = Vec::with_capacity(s.workloads.len());
    for w in &s.workloads {
        out.push(driver::run_workload(w, cfg).map_err(|e| e.to_string())?);
    }
    Ok((out, t0.elapsed().as_secs_f64()))
}

/// Checks one pass's results; returns the rendered Table III/IV JSON.
fn check_pass(
    s: &Setup,
    results: &[TopologyResults],
    seed: u64,
    report: &mut Report,
) -> (String, String) {
    for (w, r) in s.workloads.iter().zip(results) {
        let missing = (w.recoverable_count() + w.irrecoverable_count())
            .abs_diff(r.recoverable.len() + r.irrecoverable.len());
        if missing > 0 {
            report.fail(
                missing as u64,
                format!("{}: {missing} cases without a row", w.name),
            );
        }
        // Theorem 2: every RTR delivery on a recoverable case is optimal.
        let suboptimal = r
            .recoverable
            .iter()
            .filter(|row| {
                let o = row.rtr();
                o.delivered && !o.optimal
            })
            .count();
        if suboptimal > 0 {
            report.fail(
                suboptimal as u64,
                format!("{}: {suboptimal} RTR deliveries are not optimal", w.name),
            );
        }
    }
    let t3 = json::to_string_pretty(&reports::table3(results));
    let t4 = json::to_string_pretty(&reports::table4(results));
    if seed == DEFAULT_SEED {
        for (name, rendered) in [("table3", &t3), ("table4", &t4)] {
            let path = crate::repo_root()
                .join("results")
                .join(format!("{name}.json"));
            match std::fs::read_to_string(&path) {
                Ok(committed) if committed.trim_end() == rendered.trim_end() => {}
                Ok(_) => report.fail(
                    case_count(&s.workloads),
                    format!("{name} differs from results/{name}.json"),
                ),
                Err(e) => report.fail(
                    case_count(&s.workloads),
                    format!("cannot read {}: {e}", path.display()),
                ),
            }
        }
    }
    (t3, t4)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let cfg = config(args.seed);
    let mut report = Report::default();

    let (s, setup_times) = repeat_setup(SETUP_REPS, || setup(&cfg, None))?;
    let cases = case_count(&s.workloads);
    if cases == 0 {
        report.fail(1, "the workload has no cases");
    }
    let scenarios: usize = s.workloads.iter().map(|w| w.scenarios.len()).sum();
    report.line(format!(
        "workload: 8 Table II twins, {scenarios} scenarios, {cases} cases, 5 schemes, threads=1"
    ));
    report.line(format!(
        "setup_s {:.4} (median of {SETUP_REPS} set-ups: {setup_times:.4?})",
        stats::median(&setup_times)
    ));

    // Whole passes until the next one would overrun the budget (at least
    // one: the tables need a complete pass).
    let t0 = Instant::now();
    let mut pass_times = Vec::new();
    let mut tables: Option<(String, String)> = None;
    // Only the traced run keeps a pass's results (to replay against); the
    // untraced run drops each before the next, so peak memory holds one.
    let mut kept = None;
    loop {
        let (results, secs) = pass(&s, &cfg)?;
        pass_times.push(secs);
        report.attempted += cases;
        let rendered = check_pass(&s, &results, args.seed, &mut report);
        match &tables {
            None => tables = Some(rendered),
            Some(first) if *first != rendered => {
                report.fail(cases, "a later pass rendered different tables")
            }
            Some(_) => {}
        }
        if args.trace {
            kept = Some(results);
            break;
        }
        if t0.elapsed().as_secs_f64() + secs > args.seconds {
            break;
        }
    }
    let rates: Vec<f64> = pass_times.iter().map(|t| cases as f64 / t).collect();
    let rate = stats::median(&rates);
    report.line(format!(
        "eval_cases_per_s {rate:.1} (median of {} passes of {cases} cases; pass times {pass_times:.3?})",
        pass_times.len()
    ));
    if args.seed == DEFAULT_SEED {
        report.line("Table III/IV checked against results/table3.json and results/table4.json");
    }

    if !args.trace {
        report.metric("setup_s", stats::median(&setup_times));
        report.metric("ops_per_s", rate);
        return Ok(report);
    }

    // Traced run: a traced setup, then the traced replica of one pass.
    let mut tr = Tracer::new();
    let untraced_s = pass_times[0];
    let last = kept.ok_or("no untraced pass ran")?;
    let root = tr.name("bench.eval-paper", Kind::Group);
    let setup_name = tr.name("bench.setup", Kind::Group);
    let mut replica = Replica::new(&mut tr);
    let root_span = tr.open(root, 0);
    tr.span(setup_name, 0, |tr| setup(&cfg, Some(tr)))?;
    let t0 = Instant::now();
    for ((w, comps), want) in s.workloads.iter().zip(&s.comparators).zip(&last) {
        let mismatches = replica.topology(&mut tr, &cfg, w, comps, want);
        if mismatches > 0 {
            report.fail(
                mismatches,
                format!(
                    "{}: traced replica differs from run_workload on {mismatches} cases",
                    w.name
                ),
            );
        }
    }
    let traced_s = t0.elapsed().as_secs_f64();
    tr.close(root_span);
    report.attempted += cases;

    report.lines.extend(tr.summary_lines());
    let totals = tr.totals_map();
    let get = |n: &str| totals.get(n).copied().unwrap_or_default();
    for (metric, span) in [
        ("topology.synth_s", "topology.synth"),
        ("eval.baseline_s", "eval.baseline"),
        ("eval.harvest_s", "eval.harvest"),
        ("baselines.build_s", "baselines.build"),
        ("baselines.fcp_s", "baselines.fcp"),
        ("baselines.mrc_s", "baselines.mrc"),
        ("baselines.emrc_s", "baselines.emrc"),
        ("baselines.fep_s", "baselines.fep"),
        ("core.session_s", "core.session"),
        ("core.recover_s", "core.recover"),
        ("routing.truth_s", "routing.truth"),
        ("eval.fig10_s", "eval.fig10"),
    ] {
        report.metric(metric, get(span).total_s);
    }
    for p in isp::TABLE2.iter() {
        let t = get(&format!("eval.topo.{}", p.name));
        report.metric(&format!("eval.topo.{}_s", p.name), t.total_s);
    }
    let delivered = |id: SchemeId| replica.delivered[id.index()] as f64;
    report.metric("eval.scenarios", scenarios as f64);
    report.metric("eval.cases", cases as f64);
    report.metric("core.sessions", get("core.session").count as f64);
    report.metric("core.sweep_hops", replica.sweep_hops as f64);
    report.metric("core.nodes_touched", replica.nodes_touched as f64);
    report.metric("core.recoveries", get("core.recover").count as f64);
    report.metric("core.delivered", delivered(SchemeId::Rtr));
    report.metric("routing.truth_runs", get("routing.truth").count as f64);
    report.metric("baselines.fcp_sp", replica.fcp_sp as f64);
    report.metric("baselines.fcp_delivered", delivered(SchemeId::Fcp));
    report.metric("baselines.mrc_delivered", delivered(SchemeId::Mrc));
    report.metric("baselines.emrc_delivered", delivered(SchemeId::Emrc));
    report.metric("baselines.fep_delivered", delivered(SchemeId::Fep));
    let total = get("bench.eval-paper").total_s;
    report.metric("trace.total_s", total);
    report.metric("trace.unattributed_s", tr.unattributed_s());
    report.metric("trace.overhead_s", traced_s - untraced_s);
    report.metric("trace.overhead_share", traced_s / untraced_s - 1.0);
    report.metric("trace.spans", tr.span_count() as f64);
    report.line(format!(
        "traced replica pass {traced_s:.3} s vs untraced pass {untraced_s:.3} s; \
         unattributed {:.3} s of {total:.3} s traced",
        tr.unattributed_s()
    ));
    let path = crate::out_dir().join("trace-eval-paper.csv");
    tr.write_csv(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(report)
}

/// The driver's per-scenario loop rebuilt from public entry points, with
/// a span around each layer call.
struct Replica {
    session: Name,
    recover: Name,
    truth: Name,
    fig10: Name,
    schemes: [Name; SchemeId::COUNT],
    sweep_hops: u64,
    nodes_touched: u64,
    delivered: [u64; SchemeId::COUNT],
    fcp_sp: u64,
}

impl Replica {
    fn new(tr: &mut Tracer) -> Replica {
        let schemes = SchemeId::ALL.map(|id| {
            let name = format!("baselines.{}", id.name().to_ascii_lowercase());
            tr.name(&name, Kind::Layer)
        });
        Replica {
            session: tr.name("core.session", Kind::Layer),
            recover: tr.name("core.recover", Kind::Layer),
            truth: tr.name("routing.truth", Kind::Layer),
            fig10: tr.name("eval.fig10", Kind::Layer),
            schemes,
            sweep_hops: 0,
            nodes_touched: 0,
            delivered: [0; SchemeId::COUNT],
            fcp_sp: 0,
        }
    }

    /// Replays one topology; returns how many cases differ from `want`.
    fn topology(
        &mut self,
        tr: &mut Tracer,
        cfg: &ExperimentConfig,
        w: &Workload,
        comps: &Comparators,
        want: &TopologyResults,
    ) -> u64 {
        let name = tr.name(&format!("eval.topo.{}", w.name), Kind::Group);
        let (rec, irr, fig10) = tr.span(name, 0, |tr| {
            let pool = SessionPool::new();
            let mut rec = Vec::new();
            let mut irr = Vec::new();
            let mut fig10: [Vec<f64>; SchemeId::COUNT] =
                std::array::from_fn(|_| vec![0.0; FIG10_POINTS]);
            let mut fig10_count = 0usize;
            for sc in &w.scenarios {
                let sums = self.scenario(tr, cfg, w, comps, sc, &pool, &mut rec, &mut irr);
                fig10_count += sc.recoverable.len();
                for (acc, part) in fig10.iter_mut().zip(&sums) {
                    for (a, p) in acc.iter_mut().zip(part) {
                        *a += p;
                    }
                }
            }
            if fig10_count > 0 {
                for v in fig10.iter_mut().flatten() {
                    *v /= fig10_count as f64;
                }
            }
            (rec, irr, fig10)
        });

        let mut bad = (rec.len() + irr.len())
            .abs_diff(want.recoverable.len() + want.irrecoverable.len())
            as u64;
        bad += rec
            .iter()
            .zip(&want.recoverable)
            .filter(|(a, b)| a.phase1_hops != b.phase1_hops || a.outcomes != b.outcomes)
            .count() as u64;
        bad += irr
            .iter()
            .zip(&want.irrecoverable)
            .filter(|(a, b)| a.phase1_hops != b.phase1_hops || a.wasted != b.wasted)
            .count() as u64;
        let series_equal = SchemeId::ALL.iter().all(|&id| {
            let got = &fig10[id.index()];
            want.fig10(id)
                .is_some_and(|s| s.iter().zip(got).all(|(a, b)| a.to_bits() == b.to_bits()))
        });
        if !series_equal {
            bad += want.recoverable.len() as u64;
        }
        bad
    }

    /// One scenario, exactly as the driver's `run_scenario` walks it;
    /// returns the scenario's Fig. 10 sums.
    #[allow(clippy::too_many_arguments)]
    fn scenario(
        &mut self,
        tr: &mut Tracer,
        cfg: &ExperimentConfig,
        w: &Workload,
        comps: &Comparators,
        sc: &ScenarioCases,
        pool: &SessionPool,
        rec: &mut Vec<RecoverableRow>,
        irr: &mut Vec<IrrecoverableRow>,
    ) -> [Vec<f64>; SchemeId::COUNT] {
        let ctx = w.scheme_ctx();
        let mut sums: [Vec<f64>; SchemeId::COUNT] =
            std::array::from_fn(|_| vec![0.0; FIG10_POINTS]);
        for (initiator, cases) in by_initiator(&sc.recoverable) {
            let Some(mut session) = tr.span(self.session, 0, |_| {
                pool.start_session(
                    w.topo(),
                    w.crosslinks(),
                    &sc.scenario,
                    initiator,
                    cases[0].failed_link,
                )
                .ok()
            }) else {
                continue;
            };
            self.sweep_hops += session.phase1().trace.hops() as u64;
            self.nodes_touched += session.computer().nodes_touched() as u64;
            let mut lease = pool.dijkstra();
            let truth = tr.open(self.truth, 0);
            let optimal = lease.run(w.topo(), &sc.scenario, initiator);
            tr.close(truth);
            let mut scratch = pool.scheme_scratch();
            for case in cases {
                let Some(opt) = optimal.distance(case.dest) else {
                    continue;
                };
                let mut outcomes: [Option<SchemeOutcome>; SchemeId::COUNT] = Default::default();
                let mut series: [Option<OverheadSeries>; SchemeId::COUNT] = Default::default();
                let attempt = tr.span(self.recover, 0, |_| session.recover(case.dest));
                let delivered = attempt.is_delivered();
                let cost = attempt.path.as_ref().map(|p| p.cost());
                outcomes[SchemeId::Rtr.index()] = Some(SchemeOutcome {
                    delivered,
                    optimal: delivered && cost == Some(opt),
                    stretch: cost.filter(|_| delivered).map(|c| c as f64 / opt as f64),
                    sp_calculations: session.sp_calculations(),
                });
                let mut rtr_trace = session.phase1().trace.clone();
                let steady = attempt.trace.mean_header_bytes();
                rtr_trace.extend_with(&attempt.trace);
                series[SchemeId::Rtr.index()] = Some(OverheadSeries::new(rtr_trace, steady));
                for scheme in comps {
                    let id = scheme.id();
                    let a = tr.span(self.schemes[id.index()], 0, |_| {
                        scheme.route_in(
                            ctx,
                            &sc.scenario,
                            case.initiator,
                            case.failed_link,
                            case.dest,
                            &mut scratch,
                        )
                    });
                    let delivered = a.is_delivered();
                    outcomes[id.index()] = Some(SchemeOutcome {
                        delivered,
                        optimal: delivered && a.cost_traversed == opt,
                        stretch: delivered.then(|| a.cost_traversed as f64 / opt as f64),
                        sp_calculations: a.sp_calculations,
                    });
                    if id == SchemeId::Fcp {
                        self.fcp_sp += a.sp_calculations as u64;
                    }
                    let steady = a.trace.mean_header_bytes();
                    series[id.index()] = Some(OverheadSeries::new(a.trace, steady));
                }
                for id in SchemeId::ALL {
                    if outcomes[id.index()].is_some_and(|o| o.delivered) {
                        self.delivered[id.index()] += 1;
                    }
                }
                tr.span(self.fig10, 0, |_| {
                    for (acc, s) in sums.iter_mut().zip(&series) {
                        let Some(s) = s else { continue };
                        for (i, a) in acc.iter_mut().enumerate() {
                            let t = SimTime::from_millis(i as u64 * FIG10_STEP_MS);
                            *a += s.sample(&cfg.delay, t);
                        }
                    }
                });
                rec.push(RecoverableRow {
                    phase1_hops: session.phase1().trace.hops(),
                    outcomes,
                });
            }
        }
        for (initiator, cases) in by_initiator(&sc.irrecoverable) {
            let Some(mut session) = tr.span(self.session, 0, |_| {
                pool.start_session(
                    w.topo(),
                    w.crosslinks(),
                    &sc.scenario,
                    initiator,
                    cases[0].failed_link,
                )
                .ok()
            }) else {
                continue;
            };
            self.sweep_hops += session.phase1().trace.hops() as u64;
            self.nodes_touched += session.computer().nodes_touched() as u64;
            let mut scratch = pool.scheme_scratch();
            for case in cases {
                let mut wasted: [Option<WastedWork>; SchemeId::COUNT] = Default::default();
                let attempt = tr.span(self.recover, 0, |_| session.recover(case.dest));
                if attempt.is_delivered() {
                    self.delivered[SchemeId::Rtr.index()] += 1;
                }
                wasted[SchemeId::Rtr.index()] = Some(WastedWork {
                    computation: session.sp_calculations(),
                    transmission: wasted_transmission(&attempt.trace),
                });
                for scheme in comps {
                    let id = scheme.id();
                    let a = tr.span(self.schemes[id.index()], 0, |_| {
                        scheme.route_in(
                            ctx,
                            &sc.scenario,
                            case.initiator,
                            case.failed_link,
                            case.dest,
                            &mut scratch,
                        )
                    });
                    if id == SchemeId::Fcp {
                        self.fcp_sp += a.sp_calculations as u64;
                    }
                    wasted[id.index()] = Some(WastedWork {
                        computation: a.sp_calculations,
                        transmission: wasted_transmission(&a.trace),
                    });
                }
                irr.push(IrrecoverableRow {
                    phase1_hops: session.phase1().trace.hops(),
                    wasted,
                });
            }
        }
        sums
    }
}

/// Cases grouped by initiator in ascending order, as the driver groups
/// them (one RTR session per initiator and class).
fn by_initiator(cases: &[TestCase]) -> BTreeMap<NodeId, Vec<&TestCase>> {
    let mut map: BTreeMap<NodeId, Vec<&TestCase>> = BTreeMap::new();
    for c in cases {
        map.entry(c.initiator).or_default().push(c);
    }
    map
}
