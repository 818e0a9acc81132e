//! End-to-end benchmark of the RTR workspace.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <eval-paper|serve-tcp|churn-front> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process (so peak RSS is
//! that workload's own), builds the workload's inputs from `--seed`,
//! measures for about `--seconds`, checks the outputs, prints a
//! human-readable report and, as the last line of stdout, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones ([`E2E`]); with `--trace 1` the
//! workload also runs a traced replica whose spans give the per-layer
//! metrics ([`PER_LAYER`]). See `e2ebench/README.md` for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.

mod churn_front;
mod eval_paper;
mod serve_tcp;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload never calls reports 0: comparators, transport and
/// baseline patching each belong to one workload only.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.synth_s", "s"),
    ("eval.baseline_s", "s"),
    ("routing.table_s", "s"),
    ("topology.crosslinks_s", "s"),
    ("eval.harvest_s", "s"),
    ("eval.scenarios", "count"),
    ("eval.cases", "count"),
    ("baselines.build_s", "s"),
    ("eval.churn.init_s", "s"),
    ("baselines.fcp_s", "s"),
    ("baselines.fcp_sp", "count"),
    ("baselines.mrc_s", "s"),
    ("baselines.emrc_s", "s"),
    ("baselines.fep_s", "s"),
    ("baselines.fcp_delivered", "count"),
    ("baselines.mrc_delivered", "count"),
    ("baselines.emrc_delivered", "count"),
    ("baselines.fep_delivered", "count"),
    ("core.session_s", "s"),
    ("core.sessions", "count"),
    ("core.sweep_hops", "count"),
    ("core.nodes_touched", "count"),
    ("core.recover_s", "s"),
    ("core.recoveries", "count"),
    ("core.delivered", "count"),
    ("routing.truth_s", "s"),
    ("routing.truth_runs", "count"),
    ("eval.fig10_s", "s"),
    ("eval.topo.AS209_s", "s"),
    ("eval.topo.AS701_s", "s"),
    ("eval.topo.AS1239_s", "s"),
    ("eval.topo.AS3320_s", "s"),
    ("eval.topo.AS3549_s", "s"),
    ("eval.topo.AS3561_s", "s"),
    ("eval.topo.AS4323_s", "s"),
    ("eval.topo.AS7018_s", "s"),
    ("serve.lo_p50_us", "us"),
    ("serve.lo_p99_us", "us"),
    ("serve.lo_samples", "count"),
    ("serve.hi_p50_us", "us"),
    ("serve.hi_p99_us", "us"),
    ("serve.hi_samples", "count"),
    ("serve.service_us_p50", "us"),
    ("serve.service_us_p99", "us"),
    ("serve.answer_us_p50", "us"),
    ("serve.wait_us_p50", "us"),
    ("serve.wait_us_p99", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.proto_us", "us"),
    ("serve.backlog_max", "count"),
    ("serve.gen_lag_us_p99", "us"),
    ("serve.errors", "count"),
    ("serve.distinct_share", "ratio"),
    ("serve.sojourn_us_p999", "us"),
    ("serve.sojourn_samples", "count"),
    ("eval.churn.patch_s", "s"),
    ("eval.churn.patch_ms_p50", "ms"),
    ("eval.churn.patch_ms_max", "ms"),
    ("eval.churn.labels_touched", "count"),
    ("eval.churn.sources_touched", "count"),
    ("eval.churn.rebuild_s", "s"),
    ("eval.churn.patch_vs_rebuild", "ratio"),
    ("eval.churn.harvest_s", "s"),
    ("core.based_session_s", "s"),
    ("eval.churn.cases", "count"),
    ("eval.churn.reachable", "count"),
    ("eval.churn.delivered", "count"),
    ("trace.total_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// Builds a workload's inputs `reps` times and keeps the last build;
/// `setup_s` is the median of the returned times. Each build is dropped
/// before the next starts, so peak memory holds one set-up.
pub fn repeat_setup<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = std::time::Instant::now();
        last = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), times))
}

/// One workload run's parameters, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back: operation counts, metric values and the
/// human-readable lines.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (cases, requests or events).
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// Checks that are not per operation (e.g. the Table III render).
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Records a check failure covering `ops` operations.
    pub fn fail(&mut self, ops: u64, why: impl Into<String>) {
        self.failed += ops;
        self.problems.push(why.into());
    }
}

/// Directory for trace spans (`e2ebench/out`, ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The repository root (the benchmark's parent directory).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Peak resident set (VmHWM) of this process, MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

const USAGE: &str = "usage: e2ebench --workload <eval-paper|serve-tcp|churn-front> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, Args), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(seed), Some(seconds), Some(trace)) => Ok((
            w,
            Args {
                seed,
                seconds,
                trace,
            },
        )),
        _ => Err("every flag is required".to_string()),
    }
}

/// JSON string literal (the names and units here are plain ASCII).
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let (workload, args) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match workload.as_str() {
        "eval-paper" => eval_paper::run(&args),
        "serve-tcp" => serve_tcp::run(&args),
        "churn-front" => churn_front::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {workload}: {e}");
            std::process::exit(1);
        }
    };

    let (table, label) = if args.trace {
        (PER_LAYER, "per-layer (traced run)")
    } else {
        report.metric("peak_rss_mb", peak_rss_mib().unwrap_or(f64::NAN));
        (E2E, "end-to-end")
    };
    // Every metric of the table, in table order; a layer the workload
    // never called reports 0. Anything else is a bug in the benchmark.
    let mut values = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let found: Vec<f64> = report
            .metrics
            .iter()
            .filter(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .collect();
        let v = match found.as_slice() {
            [] if args.trace => 0.0,
            [v] => *v,
            _ => panic!("metric {name} reported {} times", found.len()),
        };
        values.push((name, unit, v));
    }
    for (name, _) in &report.metrics {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not in the {label} table"
        );
    }

    println!(
        "e2ebench {workload} seed={} seconds={} trace={} host_parallelism={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for l in &report.lines {
        println!("  {l}");
    }
    for p in &report.problems {
        println!("  CHECK FAILED: {p}");
    }
    println!("  {label} metrics:");
    for &(name, unit, v) in &values {
        println!("    {name:<28} {v:>16.6} {unit}");
    }
    let failed_frac = if report.attempted == 0 {
        1.0
    } else {
        report.failed as f64 / report.attempted as f64
    };
    println!(
        "  failed_frac {failed_frac} ({} of {} operations)",
        report.failed, report.attempted
    );

    let finite = values.iter().all(|&(_, _, v)| v.is_finite());
    if !finite {
        report
            .problems
            .push("a metric is not a finite number".into());
    }
    let correct = report.attempted > 0 && report.failed == 0 && report.problems.is_empty();
    let mut metrics = String::new();
    for (i, &(name, unit, v)) in values.iter().enumerate() {
        let v = if v.is_finite() { v } else { -1.0 };
        let _ = write!(
            metrics,
            "{}{}: {{\"value\": {v:?}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            json_str(name),
            json_str(unit)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted.max(1),
        if report.attempted == 0 {
            1
        } else {
            report.failed
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json declares exactly the metrics this binary prints,
    /// with the same units.
    #[test]
    fn benchmark_json_matches_metric_tables() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{section}\"")).expect("section");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section end")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect(key);
                        let rest = &entry[at + key.len() + 2..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = open + rest[open..].find('"').expect("value end");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(E2E));
        assert_eq!(declared("per_layer"), own(PER_LAYER));
    }
}
