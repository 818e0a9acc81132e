//! Records evaluation-driver wall times into `BENCH_eval.json`: per
//! Table II topology, the `run_workload` wall time on one worker versus
//! the parallel path, plus the incremental-SPT `nodes_touched` work proxy
//! (how few nodes each recovery session re-examines compared to a full
//! Dijkstra over the whole graph — the driver's allocation/work saving).
//!
//! `sweep_secs` times the phase-1 boundary sweeps alone, the share of
//! `serial_secs` spent in the crossing-exclusion probes and the walk.
//!
//! Run through `cargo xtask bench-record`, which places the artifact at
//! the repository root (there is no `--smoke` tier). Timings are medians
//! of [`RUNS`] runs; the envelope also records the host's available
//! parallelism so speedups on small machines read honestly.

use rtr_bench::{median, Recorder};
use rtr_core::{RtrSession, SessionPool};
use rtr_eval::baseline::Baseline;
use rtr_eval::json::Json;
use rtr_eval::testcase::{by_initiator, generate_workload_shared, Workload};
use rtr_eval::{config::ExperimentConfig, driver};
use rtr_topology::isp;
use std::time::Instant;

/// Cases per class per topology (bench scale; the paper uses 10 000).
const CASES: usize = 120;

/// Requested worker count of the parallel measurement (clamped to the
/// host's available parallelism at runtime).
const PAR_THREADS: usize = 8;

/// Timed repetitions per configuration (the median is recorded).
const RUNS: usize = 3;

fn median_secs(w: &Workload, cfg: &ExperimentConfig) -> f64 {
    median(
        (0..RUNS)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(driver::run_workload(w, cfg))
                    .expect("Table II twins build MRC");
                t.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// Median wall time of re-running every phase-1 boundary sweep of the
/// workload (one session start per unique initiator, pooled buffers as in
/// the driver) — the `SweepContext::is_excluded` hot path in isolation.
fn median_sweep_secs(w: &Workload) -> f64 {
    let pool = SessionPool::new();
    median(
        (0..RUNS)
            .map(|_| {
                let t = Instant::now();
                for sc in &w.scenarios {
                    for (initiator, cases) in
                        by_initiator(sc.recoverable.iter().chain(&sc.irrecoverable))
                    {
                        let session = pool
                            .start_session(
                                w.topo(),
                                w.crosslinks(),
                                &sc.scenario,
                                initiator,
                                cases[0].failed_link,
                            )
                            .expect(
                                "cases always have a live initiator with a failed incident link",
                            );
                        std::hint::black_box(session.phase1().trace.hops());
                    }
                }
                t.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// Mean incremental-SPT nodes re-examined per recovery session, mirroring
/// the driver's once-per-initiator session starts (buffer reuse and all).
fn mean_nodes_touched(w: &Workload) -> f64 {
    let pool = SessionPool::new();
    let mut total = 0usize;
    let mut sessions = 0usize;
    for sc in &w.scenarios {
        for (initiator, cases) in by_initiator(&sc.recoverable) {
            let session: &RtrSession<'_, _> = &pool
                .start_session(
                    w.topo(),
                    w.crosslinks(),
                    &sc.scenario,
                    initiator,
                    cases[0].failed_link,
                )
                .expect("recoverable case: live initiator with a failed incident link");
            total += session.computer().nodes_touched();
            sessions += 1;
        }
    }
    if sessions == 0 {
        0.0
    } else {
        total as f64 / sessions as f64
    }
}

fn main() {
    let rec = Recorder::from_args("eval");
    if rec.smoke {
        rec.note("has no smoke tier; record the full file");
        std::process::exit(2);
    }
    let host = rec.host;
    // Oversubscribing a small host with PAR_THREADS workers measures
    // scheduler churn, not speedup; clamp to what the machine has and
    // record the clamped count so `bench-check` reads the file honestly.
    let par_threads = PAR_THREADS.min(host.max(1));
    if par_threads < PAR_THREADS {
        rec.note(format_args!(
            "host parallelism {host} < {PAR_THREADS}; \
             clamping parallel measurement to {par_threads} threads"
        ));
    }
    rec.note(format_args!(
        "{CASES} cases/class, serial vs {par_threads} threads, median of {RUNS} runs"
    ));

    let mut rows = Vec::new();
    for p in isp::TABLE2 {
        let serial_cfg = ExperimentConfig::quick().with_cases(CASES).with_threads(1);
        let w = generate_workload_shared(
            p.name,
            Baseline::for_profile(&p),
            &serial_cfg,
            serial_cfg.seed ^ u64::from(p.asn),
        );

        let serial = median_secs(&w, &serial_cfg);
        let parallel = median_secs(&w, &serial_cfg.clone().with_threads(par_threads));
        let sweep = median_sweep_secs(&w);
        let touched = mean_nodes_touched(&w);
        rec.note(format_args!(
            "{:>8}: serial {serial:.4}s, {par_threads} threads {parallel:.4}s \
             (x{:.2}), sweep {sweep:.4}s, mean nodes touched {touched:.1}/{}",
            p.name,
            serial / parallel,
            p.nodes
        ));
        rows.push(Json::Obj(vec![
            ("name", Json::Str(p.name.to_string())),
            ("nodes", Json::Num(p.nodes as f64)),
            ("links", Json::Num(p.links as f64)),
            ("serial_secs", Json::Num(serial)),
            ("parallel_secs", Json::Num(parallel)),
            ("speedup", Json::Num(serial / parallel)),
            ("sweep_secs", Json::Num(sweep)),
            ("mean_nodes_touched", Json::Num(touched)),
        ]));
    }

    rec.write(
        vec![
            ("cases_per_class", Json::Num(CASES as f64)),
            ("parallel_threads", Json::Num(par_threads as f64)),
            ("runs_per_median", Json::Num(RUNS as f64)),
        ],
        rows,
    );
}
