//! Records the serving sweep into `BENCH_serve.json`: sustained
//! recoveries per second and sojourn/service latency quantiles of the
//! `rtr-serve` daemon over a QPS × workers × transport grid, each point
//! against a fresh service on the AS4323 twin.
//!
//! Per worker count and transport (`inproc`, `tcp` loopback) the sweep
//! runs an open-loop Poisson ladder and one saturated closed-loop point
//! (`4 × workers` requests in flight); every point records its peak RSS
//! and whether both the load generator and the service drained clean.
//!
//! Run through `cargo xtask bench-serve`, which places the artifact at
//! the repository root; `--smoke` runs the one-second tier (the CI
//! serve-smoke job).

use rtr_bench::{peak_rss_mb, reset_peak_rss, Recorder};
use rtr_eval::json::Json;
use rtr_serve::load::{build_mix, run_served};
use rtr_serve::{Fleet, LoadConfig, LoadReport, ServiceReport};
use std::process::ExitCode;
use std::sync::Arc;

/// Seed of the benchmark scenario mix (arbitrary, fixed for
/// reproducibility).
const MIX_SEED: u64 = 0x52_54_52;

/// The Table II twin the sweep serves.
const TOPO: &str = "AS4323";

/// p50 / p99 / p999 of a latency histogram, in microseconds.
fn quantiles(h: &rtr_obs::Histogram) -> (f64, f64, f64) {
    (
        h.quantile(0.50).unwrap_or(0) as f64,
        h.quantile(0.99).unwrap_or(0) as f64,
        h.quantile(0.999).unwrap_or(0) as f64,
    )
}

/// The JSON row of one sweep point.
fn point_row(
    transport: &str,
    workers: usize,
    mode: &str,
    target_qps: f64,
    duration_secs: f64,
    load: &LoadReport,
    service: &ServiceReport,
) -> Json {
    let (sj50, sj99, sj999) = quantiles(&load.sojourn_micros);
    let (sv50, sv99, sv999) = quantiles(&load.service_micros);
    Json::Obj(vec![
        ("transport", Json::Str(transport.to_string())),
        ("workers", Json::Num(workers as f64)),
        ("mode", Json::Str(mode.to_string())),
        ("target_qps", Json::Num(target_qps)),
        ("duration_secs", Json::Num(duration_secs)),
        ("offered", Json::Num(load.offered as f64)),
        ("completed", Json::Num(load.completed as f64)),
        ("recoveries", Json::Num(load.recoveries as f64)),
        ("delivered", Json::Num(load.delivered as f64)),
        ("errors", Json::Num(load.errors as f64)),
        ("recoveries_per_sec", Json::Num(load.recoveries_per_sec())),
        ("sojourn_p50_us", Json::Num(sj50)),
        ("sojourn_p99_us", Json::Num(sj99)),
        ("sojourn_p999_us", Json::Num(sj999)),
        ("service_p50_us", Json::Num(sv50)),
        ("service_p99_us", Json::Num(sv99)),
        ("service_p999_us", Json::Num(sv999)),
        ("steals", Json::Num(service.steals() as f64)),
        ("peak_rss_mb", Json::Num(peak_rss_mb())),
        (
            "drained_clean",
            Json::Num(f64::from(u8::from(
                load.drained_clean && service.drained_clean,
            ))),
        ),
    ])
}

/// Runs the sweep and writes the artifact.
fn run(rec: &Recorder) -> Result<(), String> {
    rec.note(format_args!("building {TOPO} baseline"));
    let fleet = Fleet::from_profiles(&[TOPO.to_string()], rec.host)?;
    let entry = fleet.get(0).ok_or("empty fleet")?;
    let baseline = Arc::clone(entry.baseline());
    let mix_cases = if rec.smoke { 60 } else { 200 };
    let mix = build_mix(0, TOPO, &baseline, mix_cases, MIX_SEED);
    let duration = if rec.smoke { 1.0 } else { 3.0 };
    let ladder: &[f64] = if rec.smoke {
        &[200.0]
    } else {
        &[250.0, 1000.0, 4000.0]
    };
    let mut worker_counts = vec![1usize, 2];
    if !rec.smoke && rec.host >= 4 {
        worker_counts.push(4);
    }
    let mut points = Vec::new();
    for &workers in &worker_counts {
        for transport in ["inproc", "tcp"] {
            for &qps in ladder {
                reset_peak_rss();
                let cfg = LoadConfig::open_loop(qps, duration, MIX_SEED + workers as u64);
                let (load, service) = run_served(&fleet, &mix, transport, workers, &cfg)?;
                rec.note(format_args!(
                    "{transport} x{workers} open @{qps}: \
                     {:.0} recoveries/s, sojourn p99 {} us",
                    load.recoveries_per_sec(),
                    load.sojourn_micros.quantile(0.99).unwrap_or(0)
                ));
                points.push(point_row(
                    transport, workers, "open", qps, duration, &load, &service,
                ));
            }
            reset_peak_rss();
            let cfg = LoadConfig::saturate(workers * 4, duration, MIX_SEED + workers as u64);
            let (load, service) = run_served(&fleet, &mix, transport, workers, &cfg)?;
            rec.note(format_args!(
                "{transport} x{workers} saturate: {:.0} recoveries/s",
                load.recoveries_per_sec()
            ));
            points.push(point_row(
                transport, workers, "saturate", 0.0, duration, &load, &service,
            ));
        }
    }
    rec.write(vec![("topo", Json::Str(TOPO.into()))], points);
    Ok(())
}

fn main() -> ExitCode {
    let rec = Recorder::from_args("serve");
    match run(&rec) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            rec.note(e);
            ExitCode::from(2)
        }
    }
}
