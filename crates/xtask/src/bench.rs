//! `cargo xtask bench-record` / `bench-scale` / `bench-serve` /
//! `bench-churn` / `bench-check`: regenerate and validate the committed
//! bench artifacts.
//!
//! One table, [`ARTIFACTS`], drives every command. Each row names a
//! committed file, its schema tag, the `rtr-bench` recorder that writes
//! it, and the check that gates it. [`run_recorder`] launches every
//! recorder the same way (`cargo run --release -p rtr-bench --bin
//! bench_<kind> -- [--smoke] PATH`) and validates what it wrote;
//! [`run_bench_check`] validates every committed file and then adds the
//! fresh-run regression gates of `BENCH_eval.json`.

use crate::json::{json_parse, JsonValue};
use std::fs;
use std::path::Path;

/// Schema tag the eval recorder writes and the checker requires in
/// `BENCH_eval.json`.
pub const EVAL_SCHEMA: &str = "bench-eval-v1";

/// Schema tag the scale recorder writes and the checker requires.
pub const SCALE_SCHEMA: &str = "bench-scale-v1";

/// Minimum sweep points a full (non-smoke) `BENCH_scale.json` must carry
/// (every generator × size combination the recorder doesn't skip).
pub const SCALE_MIN_POINTS: usize = 12;

/// A full sweep must reach at least this many nodes (the 100k tier, with
/// slack for generators whose construction rounds the node count).
pub const SCALE_MIN_MAX_NODES: f64 = 90_000.0;

/// Hard ceiling on any recorded grid-indexed cross-link build: the whole
/// point of the spatial index is that even the 100k-node tier builds in
/// seconds, not the hours the all-pairs scan would take.
pub const SCALE_MAX_CROSSLINK_SECS: f64 = 120.0;

/// Schema tag the serve recorder writes and the checker requires in
/// `BENCH_serve.json`.
pub const SERVE_SCHEMA: &str = "bench-serve-v1";

/// Schema tag the churn recorder writes and the checker requires in
/// `BENCH_churn.json`.
pub const CHURN_SCHEMA: &str = "bench-churn-v1";

/// Minimum timeline workloads a full (non-smoke) `BENCH_churn.json`
/// must carry (the recorder sweeps two churn twins plus two moving fronts).
pub const CHURN_MIN_POINTS: usize = 2;

/// Minimum best-multi-worker over one-worker throughput ratio (saturated,
/// in-process) a sweep recorded on a host with at least
/// [`SERVE_SPEEDUP_MIN_HOST`] cores must show.
pub const SERVE_MIN_SPEEDUP: f64 = 1.5;

/// Host parallelism below which the serve speedup gate only warns: on a
/// one- or two-core recorder the extra workers time-slice one another and
/// the ratio says nothing about the session pool.
pub const SERVE_SPEEDUP_MIN_HOST: f64 = 4.0;

/// Scenario classes a committed `results/matrix.json` must cover, in the
/// evaluation's canonical order.
pub const MATRIX_CLASSES: [&str; 4] = [
    "single-link",
    "sparse-multi-link",
    "correlated-area",
    "multi-area",
];

/// Schemes every class row of a committed matrix must report, in
/// `SchemeId` order.
pub const MATRIX_SCHEMES: [&str; 5] = ["RTR", "FCP", "MRC", "eMRC", "FEP"];

/// What a passing check reports.
#[derive(Debug)]
pub struct Checked {
    /// What the file carries, for the `OK` line.
    pub summary: String,
    /// Non-gating findings, e.g. a speedup recorded on an undersized host.
    pub warnings: Vec<String>,
}

/// Which copy of an artifact a check is looking at; later tiers pass
/// every gate of the earlier ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// A `--smoke` recorder run: per-point gates only.
    Smoke,
    /// A full recorder run's fresh output: adds the full-sweep floors.
    Fresh,
    /// The file committed at the workspace root: adds the gates on the
    /// recording host (the eval speedup gate).
    Committed,
}

/// An artifact's own gates over an already-parsed document.
pub type Check = fn(&JsonValue, Tier) -> Result<Checked, String>;

/// The recorder that (re)writes an artifact.
#[derive(Debug)]
pub struct Recorder {
    /// `cargo xtask` subcommand that runs it.
    pub command: &'static str,
    /// `rtr-bench` binary.
    pub bin: &'static str,
    /// Whether it has a `--smoke` tier (written under `target/<command>/`).
    pub smoke: bool,
}

/// One committed bench artifact.
#[derive(Debug)]
pub struct Artifact {
    /// Path relative to the workspace root.
    pub file: &'static str,
    /// Envelope schema tag; `None` for a file without the
    /// `{schema, ..., points}` envelope.
    pub schema: Option<&'static str>,
    /// The recorder, or `None` for a file another tool writes.
    pub recorder: Option<Recorder>,
    /// The artifact's own gates.
    pub check: Check,
}

/// `BENCH_eval.json`: driver wall times, serial vs parallel, and the
/// phase-1 sweep time, per Table II topology.
const EVAL: Artifact = Artifact {
    file: "BENCH_eval.json",
    schema: Some(EVAL_SCHEMA),
    recorder: Some(Recorder {
        command: "bench-record",
        bin: "bench_eval",
        smoke: false,
    }),
    check: check_eval,
};

/// `BENCH_scale.json`: the 1k–100k-node substrate sweep.
const SCALE: Artifact = Artifact {
    file: "BENCH_scale.json",
    schema: Some(SCALE_SCHEMA),
    recorder: Some(Recorder {
        command: "bench-scale",
        bin: "bench_scale",
        smoke: true,
    }),
    check: check_scale,
};

/// `BENCH_serve.json`: the QPS × workers × transport serving sweep.
const SERVE: Artifact = Artifact {
    file: "BENCH_serve.json",
    schema: Some(SERVE_SCHEMA),
    recorder: Some(Recorder {
        command: "bench-serve",
        bin: "bench_serve",
        smoke: true,
    }),
    check: check_serve,
};

/// `BENCH_churn.json`: per-event incremental vs rebuild baseline cost.
const CHURN: Artifact = Artifact {
    file: "BENCH_churn.json",
    schema: Some(CHURN_SCHEMA),
    recorder: Some(Recorder {
        command: "bench-churn",
        bin: "bench_churn",
        smoke: true,
    }),
    check: check_churn,
};

/// `results/matrix.json` (Extension M), written by the `repro` binary.
const MATRIX: Artifact = Artifact {
    file: "results/matrix.json",
    schema: None,
    recorder: None,
    check: check_matrix,
};

/// Every committed artifact `bench-check` validates, in check order.
pub static ARTIFACTS: [Artifact; 5] = [EVAL, SCALE, SERVE, CHURN, MATRIX];

/// The artifact whose recorder `cargo xtask <command>` runs.
pub fn artifact_for(command: &str) -> Option<&'static Artifact> {
    ARTIFACTS
        .iter()
        .find(|a| a.recorder.as_ref().is_some_and(|r| r.command == command))
}

impl Artifact {
    /// Validates a parsed document: for an enveloped artifact the schema
    /// tag and a non-empty `points` array, then the artifact's own gates.
    ///
    /// # Errors
    ///
    /// The first schema mismatch, missing field, or gate violation.
    fn validate(&self, doc: &JsonValue, tier: Tier) -> Result<Checked, String> {
        if let Some(schema) = self.schema {
            let tag = doc.get("schema").and_then(JsonValue::as_str);
            if tag != Some(schema) {
                return Err(format!("schema {tag:?} is not {schema:?}"));
            }
            match doc.get("points").and_then(JsonValue::as_array) {
                None => return Err("missing `points` array".into()),
                Some([]) => return Err("`points` is empty".into()),
                Some(_) => {}
            }
        }
        (self.check)(doc, tier)
    }

    /// Reads, parses and validates the file at `path`.
    ///
    /// # Errors
    ///
    /// As [`Artifact::validate`], or an unreadable or unparsable file;
    /// every message names `path`.
    fn check_file(&self, path: &Path, tier: Tier) -> Result<Checked, String> {
        let doc = read_json(path)?;
        self.validate(&doc, tier)
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Reads and parses one JSON file.
fn read_json(path: &Path) -> Result<JsonValue, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json_parse(&text).map_err(|e| format!("{} does not parse: {e}", path.display()))
}

/// The envelope's `points` (empty when absent: [`Artifact::validate`]
/// rejects that before any check runs).
fn points(doc: &JsonValue) -> &[JsonValue] {
    doc.get("points")
        .and_then(JsonValue::as_array)
        .unwrap_or_default()
}

/// The numeric `field` of `v`, or an error naming `what` lacks it.
fn num(v: &JsonValue, field: &str, what: &str) -> Result<f64, String> {
    v.get(field)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{what} has no numeric `{field}`"))
}

/// The string `field` of `v`, or an error naming `what` lacks it.
fn text<'a>(v: &'a JsonValue, field: &str, what: &str) -> Result<&'a str, String> {
    v.get(field)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{what} has no string `{field}`"))
}

/// One topology row of `BENCH_eval.json`.
struct EvalRow<'a> {
    name: &'a str,
    serial_secs: f64,
    sweep_secs: f64,
    speedup: Option<f64>,
}

/// The rows of a `BENCH_eval.json`, each with a numeric `serial_secs`
/// and `sweep_secs` (the recorder's schema).
fn eval_rows(doc: &JsonValue) -> Result<Vec<EvalRow<'_>>, String> {
    points(doc)
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let name = text(row, "name", &format!("row {i}"))?;
            let what = format!("row `{name}`");
            Ok(EvalRow {
                name,
                serial_secs: num(row, "serial_secs", &what)?,
                sweep_secs: num(row, "sweep_secs", &what)?,
                speedup: row.get("speedup").and_then(JsonValue::as_f64),
            })
        })
        .collect()
}

/// Gates a `BENCH_eval.json`: every row carries `serial_secs` and
/// `sweep_secs` and the envelope carries `host_parallelism` and
/// `parallel_threads`. For the [`Tier::Committed`] file, additionally no
/// recorded speedup may be below 1.0: a sub-1.0 speedup is a hard failure
/// on a host with at least as many cores as the measurement used, but
/// only a warning on an undersized recorder (oversubscribed threads slow
/// each other down; the number says nothing about the algorithm).
///
/// # Errors
///
/// A missing field, or the first sub-1.0 speedup recorded on an
/// adequately-sized host.
fn check_eval(doc: &JsonValue, tier: Tier) -> Result<Checked, String> {
    let rows = eval_rows(doc)?;
    let host = num(doc, "host_parallelism", "the envelope")?;
    let threads = num(doc, "parallel_threads", "the envelope")?;
    let warnings = if tier == Tier::Committed {
        eval_speedups(&rows, host, threads)?
    } else {
        Vec::new()
    };
    Ok(Checked {
        summary: format!("{} topologies", rows.len()),
        warnings,
    })
}

/// The speedup gate of [`check_eval`]; returns its warnings.
fn eval_speedups(rows: &[EvalRow<'_>], host: f64, threads: f64) -> Result<Vec<String>, String> {
    let mut warnings = Vec::new();
    for row in rows {
        let Some(speedup) = row.speedup else { continue };
        if speedup >= 1.0 {
            continue;
        }
        if host < threads {
            warnings.push(format!(
                "warning: `{}` records speedup {speedup:.3} < 1.0, but the recording \
                 host is undersized (host_parallelism {host:.0} < parallel_threads \
                 {threads:.0}) — oversubscription artifact, not gated; re-record on \
                 a host with >= {threads:.0} cores for a meaningful number",
                row.name
            ));
        } else {
            return Err(format!(
                "parallel regression on `{}`: recorded speedup {speedup:.3} < 1.0 on an \
                 adequately-sized host (host_parallelism {host:.0} >= parallel_threads \
                 {threads:.0}) — investigate before re-recording",
                row.name
            ));
        }
    }
    Ok(warnings)
}

/// The fresh-run half of `bench-check`: fails if the fresh quick-workload
/// serial total exceeds 2× the committed total, or if any committed
/// topology's phase-1 sweep time exceeds 2× its committed `sweep_secs`
/// plus 1 ms of absolute slack (the per-topology sweep is sub-millisecond
/// on small graphs, so the floor keeps timer noise from tripping the
/// ratio). Coarse gates that survive CI-machine noise while catching
/// algorithmic regressions. Returns the summary line.
///
/// # Errors
///
/// A row without its timings, a committed topology missing from the
/// fresh run, or a tripped regression gate.
fn check_eval_regression(committed: &JsonValue, fresh: &JsonValue) -> Result<String, String> {
    let committed = eval_rows(committed)?;
    let fresh = eval_rows(fresh)?;
    for c in &committed {
        let Some(f) = fresh.iter().find(|f| f.name == c.name) else {
            return Err(format!(
                "fresh run is missing committed topology `{}`",
                c.name
            ));
        };
        if f.sweep_secs > 2.0 * c.sweep_secs + 0.001 {
            return Err(format!(
                "phase-1 sweep regression on `{}`: fresh sweep_secs {:.6}s > \
                 2x committed {:.6}s + 1ms — investigate before re-recording \
                 with `cargo xtask bench-record`",
                c.name, f.sweep_secs, c.sweep_secs
            ));
        }
    }
    let committed_total: f64 = committed.iter().map(|r| r.serial_secs).sum();
    let fresh_total: f64 = fresh.iter().map(|r| r.serial_secs).sum();
    if fresh_total > 2.0 * committed_total {
        return Err(format!(
            "quick-workload serial regression: fresh total {fresh_total:.4}s > \
             2x committed total {committed_total:.4}s — investigate before \
             re-recording with `cargo xtask bench-record`"
        ));
    }
    Ok(format!(
        "{} topologies, fresh serial total {fresh_total:.4}s vs committed \
         {committed_total:.4}s (gates: 2x total, 2x+1ms per-topology sweep)",
        committed.len()
    ))
}

/// Gates a `BENCH_scale.json`: per point a string `generator` plus
/// numeric `nodes`, `links`, `build_secs`, `crosslink_secs`,
/// `sweep_secs`, `recover_secs`, and `peak_rss_mb`. Past
/// [`Tier::Smoke`], additionally the full-sweep floor: at least [`SCALE_MIN_POINTS`]
/// points, a maximum node count of at least [`SCALE_MIN_MAX_NODES`], and
/// every `crosslink_secs` under [`SCALE_MAX_CROSSLINK_SECS`].
///
/// # Errors
///
/// The first missing field or floor violation.
fn check_scale(doc: &JsonValue, tier: Tier) -> Result<Checked, String> {
    let mut sweep = Vec::new();
    for (i, p) in points(doc).iter().enumerate() {
        let generator = text(p, "generator", &format!("point {i}"))?;
        let what = format!("point {i} (`{generator}`)");
        for field in ["build_secs", "sweep_secs", "recover_secs", "peak_rss_mb"] {
            num(p, field, &what)?;
        }
        let nodes = num(p, "nodes", &what)?;
        num(p, "links", &what)?;
        sweep.push((generator, nodes, num(p, "crosslink_secs", &what)?));
    }
    if tier > Tier::Smoke {
        if sweep.len() < SCALE_MIN_POINTS {
            return Err(format!(
                "full sweep has {} points, need at least {SCALE_MIN_POINTS}",
                sweep.len()
            ));
        }
        let max_nodes = sweep.iter().map(|p| p.1).fold(0.0, f64::max);
        if max_nodes < SCALE_MIN_MAX_NODES {
            return Err(format!(
                "full sweep tops out at {max_nodes:.0} nodes, need at least \
                 {SCALE_MIN_MAX_NODES:.0}"
            ));
        }
        for (generator, nodes, crosslink_secs) in &sweep {
            if *crosslink_secs > SCALE_MAX_CROSSLINK_SECS {
                return Err(format!(
                    "`{generator}` at {nodes:.0} nodes took {crosslink_secs:.1}s to build \
                     its cross-link table (ceiling {SCALE_MAX_CROSSLINK_SECS:.0}s) — the \
                     spatial index is not doing its job"
                ));
            }
        }
    }
    Ok(Checked {
        summary: format!("{} sweep points", sweep.len()),
        warnings: Vec::new(),
    })
}

/// Gates a `BENCH_churn.json`: per point the key set the recorder writes,
/// `oracle_checked` set (the recorder refuses to record an unverified
/// patch), and — the headline gate — *incremental median ≤ rebuild
/// median*: if patching the believed state in place is not cheaper than
/// recomputing it, the incremental machinery has regressed. Past
/// [`Tier::Smoke`], additionally at least [`CHURN_MIN_POINTS`] workloads.
///
/// # Errors
///
/// The first missing field, unverified point, or median inversion.
fn check_churn(doc: &JsonValue, tier: Tier) -> Result<Checked, String> {
    let raw = points(doc);
    for (i, p) in raw.iter().enumerate() {
        let name = text(p, "name", &format!("point {i}"))?;
        let what = format!("point {i} (`{name}`)");
        for field in ["nodes", "links", "labels_touched_total"] {
            num(p, field, &what)?;
        }
        if num(p, "oracle_checked", &what)? < 1.0 {
            return Err(format!(
                "`{name}` was recorded without the rebuild oracle check"
            ));
        }
        num(p, "events", &what)?;
        let incremental = num(p, "incremental_median_secs", &what)?;
        let rebuild = num(p, "rebuild_median_secs", &what)?;
        if incremental > rebuild {
            return Err(format!(
                "`{name}` patches slower than it rebuilds (incremental median \
                 {incremental:.6}s > rebuild median {rebuild:.6}s) — the incremental \
                 baseline machinery has regressed"
            ));
        }
    }
    if tier > Tier::Smoke && raw.len() < CHURN_MIN_POINTS {
        return Err(format!(
            "full run has {} workloads, need at least {CHURN_MIN_POINTS}",
            raw.len()
        ));
    }
    Ok(Checked {
        summary: format!(
            "{} oracle-checked timeline workloads, incremental median <= rebuild \
             median on each",
            raw.len()
        ),
        warnings: Vec::new(),
    })
}

/// One `BENCH_serve.json` point, as the scaling gate reads it.
struct ServePoint<'a> {
    transport: &'a str,
    workers: f64,
    mode: &'a str,
    recoveries_per_sec: f64,
}

/// Gates a `BENCH_serve.json`: per point the full key set the recorder
/// writes, monotone non-negative latency quantiles (p50 <= p99 <= p999
/// for both sojourn and service time), and a clean drain. Past
/// [`Tier::Smoke`], additionally at least two distinct worker counts and both transports,
/// so the committed artifact always carries a scaling comparison. Then
/// the scaling gate: the best multi-worker saturated in-process
/// throughput must be at least [`SERVE_MIN_SPEEDUP`] times the one-worker
/// figure — a hard failure on hosts with at least
/// [`SERVE_SPEEDUP_MIN_HOST`] cores, a warning on undersized recorders
/// (extra workers on a one-core host only time-slice one another).
///
/// # Errors
///
/// The first missing field, quantile inversion, dirty drain, coverage
/// gap, or sub-threshold scaling on an adequately-sized host.
fn check_serve(doc: &JsonValue, tier: Tier) -> Result<Checked, String> {
    let mut sweep = Vec::new();
    for (i, p) in points(doc).iter().enumerate() {
        let transport = text(p, "transport", &format!("point {i}"))?;
        let mode = text(p, "mode", &format!("point {i}"))?;
        let what = format!(
            "point {i} ({transport} x{})",
            p.get("workers").and_then(JsonValue::as_f64).unwrap_or(0.0)
        );
        for field in [
            "target_qps",
            "duration_secs",
            "offered",
            "completed",
            "delivered",
            "errors",
            "recoveries",
            "steals",
            "peak_rss_mb",
        ] {
            num(p, field, &what)?;
        }
        for prefix in ["sojourn", "service"] {
            let p50 = num(p, &format!("{prefix}_p50_us"), &what)?;
            let p99 = num(p, &format!("{prefix}_p99_us"), &what)?;
            let p999 = num(p, &format!("{prefix}_p999_us"), &what)?;
            if p50 < 0.0 || !(p50 <= p99 && p99 <= p999) {
                return Err(format!(
                    "point {i} ({transport}) has non-monotone {prefix} quantiles \
                     p50 {p50} / p99 {p99} / p999 {p999}"
                ));
            }
        }
        if num(p, "drained_clean", &what)? < 1.0 {
            return Err(format!(
                "point {i} ({transport}) did not drain clean — the run left \
                 requests in flight"
            ));
        }
        sweep.push(ServePoint {
            workers: num(p, "workers", &what)?,
            recoveries_per_sec: num(p, "recoveries_per_sec", &what)?,
            transport,
            mode,
        });
    }
    if tier > Tier::Smoke {
        let mut worker_counts: Vec<u64> = sweep.iter().map(|p| p.workers as u64).collect();
        worker_counts.sort_unstable();
        worker_counts.dedup();
        if worker_counts.len() < 2 {
            return Err(format!(
                "full sweep covers only worker counts {worker_counts:?}, \
                 need at least two for a scaling comparison"
            ));
        }
        for transport in ["inproc", "tcp"] {
            if !sweep.iter().any(|p| p.transport == transport) {
                return Err(format!("full sweep has no `{transport}` points"));
            }
        }
    }
    let host = doc
        .get("host_parallelism")
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    Ok(Checked {
        summary: format!("{} sweep points", sweep.len()),
        warnings: serve_scaling(&sweep, host)?,
    })
}

/// The serve scaling gate of [`check_serve`]; returns its warnings.
fn serve_scaling(sweep: &[ServePoint<'_>], host: f64) -> Result<Vec<String>, String> {
    let saturated = |p: &&ServePoint<'_>| p.mode == "saturate" && p.transport == "inproc";
    let base = sweep
        .iter()
        .filter(saturated)
        .filter(|p| p.workers as u64 == 1)
        .map(|p| p.recoveries_per_sec)
        .fold(f64::NAN, f64::max);
    let best = sweep
        .iter()
        .filter(saturated)
        .filter(|p| p.workers > 1.0)
        .map(|p| p.recoveries_per_sec)
        .fold(f64::NAN, f64::max);
    if !base.is_finite() || !best.is_finite() || base <= 0.0 {
        return Ok(vec![
            "warning: no saturated in-process one-worker/multi-worker pair to \
             compare — scaling not checked"
                .into(),
        ]);
    }
    let ratio = best / base;
    if ratio >= SERVE_MIN_SPEEDUP {
        return Ok(Vec::new());
    }
    if host < SERVE_SPEEDUP_MIN_HOST {
        return Ok(vec![format!(
            "warning: multi-worker saturated throughput is only {ratio:.2}x the \
             one-worker figure, but the recording host has parallelism {host:.0} \
             (< {SERVE_SPEEDUP_MIN_HOST:.0}) — time-slicing artifact, not gated; \
             re-record on a host with >= {SERVE_SPEEDUP_MIN_HOST:.0} cores"
        )]);
    }
    Err(format!(
        "serve scaling regression: multi-worker saturated throughput is only \
         {ratio:.2}x the one-worker figure on a host with parallelism {host:.0} \
         (floor {SERVE_MIN_SPEEDUP}x) — investigate before re-recording with \
         `cargo xtask bench-serve`"
    ))
}

/// Gates a `results/matrix.json` (Extension M): a `classes` array
/// covering exactly [`MATRIX_CLASSES`] in order, each row carrying a
/// positive numeric `cases` and one entry per [`MATRIX_SCHEMES`] member
/// with a finite `delivery_pct` and `optimal_pct` in `0..=100`
/// (`mean_stretch` may be `null` — a scheme that never delivered has no
/// stretch).
///
/// # Errors
///
/// The first missing field, out-of-range value, or class/scheme mismatch.
fn check_matrix(doc: &JsonValue, _tier: Tier) -> Result<Checked, String> {
    let classes = doc
        .get("classes")
        .and_then(JsonValue::as_array)
        .ok_or("missing `classes` array")?;
    if classes.len() != MATRIX_CLASSES.len() {
        return Err(format!(
            "{} classes, expected the {} of {MATRIX_CLASSES:?}",
            classes.len(),
            MATRIX_CLASSES.len()
        ));
    }
    for (row, expected_class) in classes.iter().zip(MATRIX_CLASSES) {
        let class = row.get("class").and_then(JsonValue::as_str).unwrap_or("");
        if class != expected_class {
            return Err(format!(
                "class `{class}` where `{expected_class}` was expected"
            ));
        }
        let cases = row.get("cases").and_then(JsonValue::as_f64).unwrap_or(0.0);
        if cases < 1.0 {
            return Err(format!("class `{class}` aggregates no cases"));
        }
        let schemes = row
            .get("schemes")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("class `{class}` has no `schemes`"))?;
        if schemes.len() != MATRIX_SCHEMES.len() {
            return Err(format!(
                "class `{class}` reports {} schemes, expected the {} of {MATRIX_SCHEMES:?}",
                schemes.len(),
                MATRIX_SCHEMES.len()
            ));
        }
        for (cell, expected_scheme) in schemes.iter().zip(MATRIX_SCHEMES) {
            let scheme = cell.get("scheme").and_then(JsonValue::as_str).unwrap_or("");
            if scheme != expected_scheme {
                return Err(format!(
                    "class `{class}` lists scheme `{scheme}` where \
                     `{expected_scheme}` was expected"
                ));
            }
            for field in ["delivery_pct", "optimal_pct"] {
                let v = cell.get(field).and_then(JsonValue::as_f64);
                if !v.is_some_and(|v| (0.0..=100.0).contains(&v)) {
                    return Err(format!(
                        "class `{class}`, scheme `{scheme}`: `{field}` {v:?} is not a \
                         percentage"
                    ));
                }
            }
        }
    }
    Ok(Checked {
        summary: format!(
            "the {}×{} class × scheme matrix",
            MATRIX_CLASSES.len(),
            MATRIX_SCHEMES.len()
        ),
        warnings: Vec::new(),
    })
}

/// Runs one `rtr-bench` recorder: `cargo run --release -p rtr-bench
/// --bin <bin> -- [--smoke] <out>` from the workspace root.
fn launch(root: &Path, bin: &str, smoke: bool, out: &Path) -> Result<(), String> {
    if let Some(dir) = out.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut cmd = std::process::Command::new("cargo");
    cmd.args(["run", "--release", "-p", "rtr-bench", "--bin", bin, "--"]);
    if smoke {
        cmd.arg("--smoke");
    }
    let status = cmd
        .arg(out)
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot launch cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{bin} exited with {status}"))
    }
}

/// Runs `artifact`'s recorder and validates what it wrote. A full run
/// rewrites the committed file at the workspace root and is checked at
/// [`Tier::Fresh`]; `smoke` (the CI smoke jobs) writes
/// `target/<command>/<file>.smoke.json` and is checked at
/// [`Tier::Smoke`].
///
/// # Errors
///
/// An artifact without a recorder (or without a smoke tier when `smoke`
/// is set), a recorder that cannot be launched or exits non-zero, or a
/// written file that does not validate.
pub fn run_recorder(root: &Path, artifact: &Artifact, smoke: bool) -> Result<(), String> {
    let Some(rec) = &artifact.recorder else {
        return Err(format!("{} has no recorder", artifact.file));
    };
    if smoke && !rec.smoke {
        return Err(format!("{} has no --smoke tier", rec.command));
    }
    let out = if smoke {
        root.join("target")
            .join(rec.command)
            .join(artifact.file.replace(".json", ".smoke.json"))
    } else {
        root.join(artifact.file)
    };
    launch(root, rec.bin, smoke, &out)?;
    let tier = if smoke { Tier::Smoke } else { Tier::Fresh };
    let checked = artifact.check_file(&out, tier)?;
    for warning in &checked.warnings {
        println!("cargo xtask {}: {warning}", rec.command);
    }
    println!(
        "cargo xtask {}: wrote {} ({}{})",
        rec.command,
        out.display(),
        checked.summary,
        if smoke { ", smoke" } else { "" }
    );
    Ok(())
}

/// Validates every committed artifact in [`ARTIFACTS`] at
/// [`Tier::Committed`] (the scale, serve, churn and matrix files get no
/// fresh run — their full sweeps are minutes of work, and the CI smoke
/// jobs replay live ones instead), then records a fresh
/// `BENCH_eval.json` under `target/bench-check/` and fails if its
/// quick-workload serial total exceeds 2× the committed total or any
/// topology's `sweep_secs` exceeds 2× its committed value plus 1 ms.
///
/// # Errors
///
/// The first artifact that fails validation, a recorder failure, or a
/// tripped regression gate.
pub fn run_bench_check(root: &Path) -> Result<(), String> {
    for artifact in &ARTIFACTS {
        let checked = artifact.check_file(&root.join(artifact.file), Tier::Committed)?;
        for warning in &checked.warnings {
            println!("cargo xtask bench-check: {warning}");
        }
        println!(
            "cargo xtask bench-check: OK — {} carries {}",
            artifact.file, checked.summary
        );
    }
    let fresh_path = root
        .join("target")
        .join("bench-check")
        .join("BENCH_eval.fresh.json");
    launch(root, "bench_eval", false, &fresh_path)?;
    let summary =
        check_eval_regression(&read_json(&root.join(EVAL.file))?, &read_json(&fresh_path)?)?;
    println!("cargo xtask bench-check: OK — {summary}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Validates `text` as `artifact` at `tier`.
    fn check(artifact: &Artifact, text: &str, tier: Tier) -> Result<Checked, String> {
        artifact.validate(&json_parse(text).expect("test JSON parses"), tier)
    }

    /// An eval document with one row per speedup.
    fn eval_json(host: f64, threads: f64, speedups: &[f64]) -> String {
        let rows: Vec<String> = speedups
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"name\": \"T{i}\", \"serial_secs\": 1.0, \"sweep_secs\": 0.001, \
                     \"speedup\": {s}}}"
                )
            })
            .collect();
        format!(
            "{{\"schema\": \"{EVAL_SCHEMA}\", \"host_parallelism\": {host}, \"smoke\": 0, \
             \"parallel_threads\": {threads}, \"points\": [{}]}}",
            rows.join(",")
        )
    }

    #[test]
    fn undersized_host_warns_instead_of_gating() {
        let checked = check(
            &EVAL,
            &eval_json(1.0, 8.0, &[0.74, 0.93, 1.2]),
            Tier::Committed,
        )
        .expect("undersized host must not gate");
        let warnings = checked.warnings;
        assert_eq!(warnings.len(), 2, "got: {warnings:?}");
        assert!(warnings.iter().all(|w| w.contains("undersized")));
    }

    #[test]
    fn adequately_sized_host_gates_on_sub_unity_speedup() {
        let err = check(&EVAL, &eval_json(8.0, 8.0, &[1.5, 0.9]), Tier::Committed)
            .expect_err("regression must gate");
        assert!(err.contains("T1"), "got: {err}");
        // The gate is on the committed file: a fresh `bench-record` run
        // is only checked for its rows.
        assert!(check(&EVAL, &eval_json(8.0, 8.0, &[1.5, 0.9]), Tier::Fresh).is_ok());
        assert!(check(&EVAL, &eval_json(16.0, 8.0, &[1.5, 3.2]), Tier::Committed).is_ok());
    }

    #[test]
    fn eval_rows_require_timings_and_the_host_fields() {
        let ok = check(&EVAL, &eval_json(4.0, 4.0, &[2.0]), Tier::Committed).unwrap();
        assert_eq!(ok.summary, "1 topologies");
        for field in ["serial_secs", "sweep_secs"] {
            let doc = eval_json(4.0, 4.0, &[2.0]).replace(&format!("\"{field}\""), "\"other\"");
            let err = check(&EVAL, &doc, Tier::Committed).unwrap_err();
            assert!(err.contains(field), "got: {err}");
        }
        for field in ["host_parallelism", "parallel_threads"] {
            let doc = eval_json(4.0, 4.0, &[2.0]).replace(&format!("\"{field}\""), "\"other\"");
            let err = check(&EVAL, &doc, Tier::Committed).unwrap_err();
            assert!(err.contains(field), "got: {err}");
        }
        // The pre-envelope layout (`topologies`, no schema tag) is drift.
        let old = "{\"host_parallelism\": 4, \"parallel_threads\": 4, \"topologies\": [\
                   {\"name\": \"A\", \"serial_secs\": 0.5, \"sweep_secs\": 0.001}]}";
        assert!(check(&EVAL, old, Tier::Committed)
            .unwrap_err()
            .contains("schema"));
    }

    #[test]
    fn eval_regression_gates_trip_on_a_slow_fresh_run() {
        let doc = |serial: f64, sweep: f64| {
            json_parse(&format!(
                "{{\"points\": [{{\"name\": \"A\", \"serial_secs\": {serial}, \
                 \"sweep_secs\": {sweep}}}]}}"
            ))
            .unwrap()
        };
        let committed = doc(1.0, 0.010);
        assert!(check_eval_regression(&committed, &doc(1.9, 0.020)).is_ok());
        let err = check_eval_regression(&committed, &doc(2.5, 0.010)).unwrap_err();
        assert!(err.contains("serial regression"), "got: {err}");
        let err = check_eval_regression(&committed, &doc(1.0, 0.030)).unwrap_err();
        assert!(err.contains("sweep regression"), "got: {err}");
        let other = json_parse(
            "{\"points\": [{\"name\": \"B\", \"serial_secs\": 1, \"sweep_secs\": 0.01}]}",
        )
        .unwrap();
        let err = check_eval_regression(&committed, &other).unwrap_err();
        assert!(err.contains("missing committed topology `A`"), "got: {err}");
    }

    fn scale_json(n_points: usize, max_nodes: f64, crosslink_secs: f64) -> String {
        let points: Vec<String> = (0..n_points)
            .map(|i| {
                let nodes = if i == 0 { max_nodes } else { 1000.0 };
                format!(
                    "{{\"generator\": \"waxman\", \"nodes\": {nodes}, \"links\": {}, \
                     \"build_secs\": 0.1, \"crosslink_secs\": {crosslink_secs}, \
                     \"sweep_secs\": 0.01, \"recover_secs\": 0.01, \"peak_rss_mb\": 100}}",
                    nodes * 2.0
                )
            })
            .collect();
        format!(
            "{{\"schema\": \"{SCALE_SCHEMA}\", \"points\": [{}]}}",
            points.join(",")
        )
    }

    #[test]
    fn scale_check_accepts_a_full_sweep() {
        let checked = check(
            &SCALE,
            &scale_json(SCALE_MIN_POINTS, 100_000.0, 3.0),
            Tier::Committed,
        )
        .unwrap();
        assert_eq!(checked.summary, format!("{SCALE_MIN_POINTS} sweep points"));
    }

    #[test]
    fn scale_check_enforces_the_full_sweep_floor() {
        let few = scale_json(3, 100_000.0, 3.0);
        assert!(check(&SCALE, &few, Tier::Committed)
            .unwrap_err()
            .contains("points"));
        assert!(check(&SCALE, &few, Tier::Fresh)
            .unwrap_err()
            .contains("points"));
        // The same file passes as a smoke (schema-only) artifact.
        assert!(check(&SCALE, &few, Tier::Smoke).is_ok());

        let small = scale_json(SCALE_MIN_POINTS, 10_000.0, 3.0);
        assert!(check(&SCALE, &small, Tier::Committed)
            .unwrap_err()
            .contains("tops out"));

        let slow = scale_json(SCALE_MIN_POINTS, 100_000.0, 500.0);
        assert!(check(&SCALE, &slow, Tier::Committed)
            .unwrap_err()
            .contains("spatial index"));
    }

    #[test]
    fn scale_check_rejects_schema_drift() {
        let bad_tag = "{\"schema\": \"bench-scale-v0\", \"points\": [{}]}";
        assert!(check(&SCALE, bad_tag, Tier::Smoke)
            .unwrap_err()
            .contains("schema"));

        let missing_field = format!(
            "{{\"schema\": \"{SCALE_SCHEMA}\", \"points\": [\
             {{\"generator\": \"waxman\", \"nodes\": 1000}}]}}"
        );
        let err = check(&SCALE, &missing_field, Tier::Smoke).unwrap_err();
        assert!(err.contains("build_secs"), "got: {err}");

        let empty = format!("{{\"schema\": \"{SCALE_SCHEMA}\", \"points\": []}}");
        assert!(check(&SCALE, &empty, Tier::Smoke)
            .unwrap_err()
            .contains("empty"));
    }

    /// A well-formed churn document with `n_points` identical workloads.
    fn churn_json(n_points: usize, inc_median: f64, reb_median: f64, oracle: f64) -> String {
        let points: Vec<String> = (0..n_points)
            .map(|i| {
                format!(
                    "{{\"name\": \"w{i}-churn\", \"nodes\": 52, \"links\": 84, \
                     \"events\": 10, \"incremental_median_secs\": {inc_median}, \
                     \"rebuild_median_secs\": {reb_median}, \
                     \"labels_touched_total\": 6610, \"oracle_checked\": {oracle}}}"
                )
            })
            .collect();
        format!(
            "{{\"schema\": \"{CHURN_SCHEMA}\", \"points\": [{}]}}",
            points.join(",")
        )
    }

    #[test]
    fn churn_check_accepts_a_full_run() {
        let checked = check(&CHURN, &churn_json(3, 0.0001, 0.0009, 1.0), Tier::Committed).unwrap();
        assert!(checked.summary.starts_with("3 oracle-checked"));
    }

    #[test]
    fn churn_check_enforces_the_gates() {
        // A single workload passes as smoke but not as the full artifact.
        let few = churn_json(1, 0.0001, 0.0009, 1.0);
        assert!(check(&CHURN, &few, Tier::Smoke).is_ok());
        assert!(check(&CHURN, &few, Tier::Committed)
            .unwrap_err()
            .contains("workloads"));

        // Incremental slower than rebuild = regression, at any level.
        let slow = churn_json(3, 0.002, 0.001, 1.0);
        assert!(check(&CHURN, &slow, Tier::Smoke)
            .unwrap_err()
            .contains("patches slower"));

        // A point recorded without the oracle check is rejected.
        let unverified = churn_json(3, 0.0001, 0.0009, 0.0);
        assert!(check(&CHURN, &unverified, Tier::Smoke)
            .unwrap_err()
            .contains("oracle"));
    }

    #[test]
    fn churn_check_rejects_schema_drift() {
        let bad_tag = "{\"schema\": \"bench-churn-v0\", \"points\": [{}]}";
        assert!(check(&CHURN, bad_tag, Tier::Smoke)
            .unwrap_err()
            .contains("schema"));

        let missing = format!(
            "{{\"schema\": \"{CHURN_SCHEMA}\", \"points\": [\
             {{\"name\": \"w0-churn\", \"nodes\": 52}}]}}"
        );
        let err = check(&CHURN, &missing, Tier::Smoke).unwrap_err();
        assert!(err.contains("links"), "got: {err}");
    }

    /// A well-formed matrix document; `mutate` lets a test break it.
    fn matrix_json(mutate: impl Fn(String) -> String) -> String {
        let rows: Vec<String> = MATRIX_CLASSES
            .iter()
            .map(|class| {
                let cells: Vec<String> = MATRIX_SCHEMES
                    .iter()
                    .map(|s| {
                        format!(
                            "{{\"scheme\": \"{s}\", \"delivery_pct\": 97.5, \
                             \"optimal_pct\": 88.0, \"mean_stretch\": 1.02}}"
                        )
                    })
                    .collect();
                format!(
                    "{{\"class\": \"{class}\", \"cases\": 240, \"schemes\": [{}]}}",
                    cells.join(",")
                )
            })
            .collect();
        mutate(format!(
            "{{\"id\": \"Extension M\", \"classes\": [{}]}}",
            rows.join(",")
        ))
    }

    #[test]
    fn matrix_check_accepts_the_full_matrix() {
        let checked = check(&MATRIX, &matrix_json(|s| s), Tier::Committed).unwrap();
        assert!(checked.summary.contains("4×5"), "got: {}", checked.summary);
        // A null stretch (scheme never delivered) is valid.
        let null_stretch =
            matrix_json(|s| s.replace("\"mean_stretch\": 1.02", "\"mean_stretch\": null"));
        assert!(check(&MATRIX, &null_stretch, Tier::Committed).is_ok());
    }

    #[test]
    fn matrix_check_rejects_drift() {
        let missing_class = matrix_json(|s| s.replace("multi-area", "multi-zone"));
        assert!(check(&MATRIX, &missing_class, Tier::Committed)
            .unwrap_err()
            .contains("multi-area"));

        let wrong_scheme = matrix_json(|s| s.replace("\"eMRC\"", "\"MRC2\""));
        assert!(check(&MATRIX, &wrong_scheme, Tier::Committed)
            .unwrap_err()
            .contains("eMRC"));

        let bad_pct =
            matrix_json(|s| s.replace("\"delivery_pct\": 97.5", "\"delivery_pct\": 250.0"));
        assert!(check(&MATRIX, &bad_pct, Tier::Committed)
            .unwrap_err()
            .contains("delivery_pct"));

        let empty = matrix_json(|s| s.replace("\"cases\": 240", "\"cases\": 0"));
        assert!(check(&MATRIX, &empty, Tier::Committed)
            .unwrap_err()
            .contains("no cases"));
    }

    /// One serve point with every recorder key; `over` lets a test break
    /// one field.
    fn serve_point(transport: &str, workers: u64, mode: &str, rps: f64, over: &str) -> String {
        let mut fields = vec![
            format!("\"transport\": \"{transport}\""),
            format!("\"workers\": {workers}"),
            format!("\"mode\": \"{mode}\""),
            "\"target_qps\": 500".into(),
            "\"duration_secs\": 1".into(),
            "\"offered\": 500".into(),
            "\"completed\": 500".into(),
            format!("\"recoveries\": {}", rps),
            "\"delivered\": 400".into(),
            "\"errors\": 0".into(),
            format!("\"recoveries_per_sec\": {rps}"),
            "\"sojourn_p50_us\": 100".into(),
            "\"sojourn_p99_us\": 900".into(),
            "\"sojourn_p999_us\": 2000".into(),
            "\"service_p50_us\": 50".into(),
            "\"service_p99_us\": 300".into(),
            "\"service_p999_us\": 700".into(),
            "\"steals\": 3".into(),
            "\"peak_rss_mb\": 60".into(),
            "\"drained_clean\": 1".into(),
        ];
        if !over.is_empty() {
            let key = over
                .split(':')
                .next()
                .unwrap_or("")
                .trim()
                .trim_matches('"');
            fields.retain(|f| !f.starts_with(&format!("\"{key}\"")));
            fields.push(over.to_string());
        }
        format!("{{{}}}", fields.join(", "))
    }

    fn serve_json(host: f64, points: &[String]) -> String {
        format!(
            "{{\"schema\": \"{SERVE_SCHEMA}\", \"host_parallelism\": {host}, \
             \"smoke\": 0, \"topo\": \"AS4323\", \"points\": [{}]}}",
            points.join(",")
        )
    }

    fn full_serve_points(one_worker_rps: f64, two_worker_rps: f64) -> Vec<String> {
        vec![
            serve_point("inproc", 1, "open", one_worker_rps, ""),
            serve_point("inproc", 1, "saturate", one_worker_rps, ""),
            serve_point("tcp", 1, "saturate", one_worker_rps, ""),
            serve_point("inproc", 2, "saturate", two_worker_rps, ""),
            serve_point("tcp", 2, "saturate", two_worker_rps, ""),
        ]
    }

    #[test]
    fn serve_check_accepts_a_full_sweep() {
        let checked = check(
            &SERVE,
            &serve_json(4.0, &full_serve_points(1000.0, 2000.0)),
            Tier::Committed,
        )
        .unwrap();
        assert_eq!(checked.summary, "5 sweep points");
        assert!(checked.warnings.is_empty(), "got: {:?}", checked.warnings);
    }

    #[test]
    fn serve_check_enforces_the_coverage_floor() {
        let one_worker = serve_json(
            4.0,
            &[
                serve_point("inproc", 1, "saturate", 1000.0, ""),
                serve_point("tcp", 1, "saturate", 900.0, ""),
            ],
        );
        let err = check(&SERVE, &one_worker, Tier::Committed).unwrap_err();
        assert!(err.contains("worker counts"), "got: {err}");
        // The same file passes as a smoke (schema-only) artifact.
        assert!(check(&SERVE, &one_worker, Tier::Smoke).is_ok());

        let no_tcp = serve_json(
            4.0,
            &[
                serve_point("inproc", 1, "saturate", 1000.0, ""),
                serve_point("inproc", 2, "saturate", 2000.0, ""),
            ],
        );
        let err = check(&SERVE, &no_tcp, Tier::Committed).unwrap_err();
        assert!(err.contains("`tcp`"), "got: {err}");
    }

    #[test]
    fn serve_check_rejects_bad_points() {
        let one = |over: &str| serve_json(4.0, &[serve_point("inproc", 1, "open", 1000.0, over)]);
        let err = check(&SERVE, &one("\"sojourn_p99_us\": 50"), Tier::Smoke).unwrap_err();
        assert!(err.contains("non-monotone"), "got: {err}");

        let err = check(&SERVE, &one("\"drained_clean\": 0"), Tier::Smoke).unwrap_err();
        assert!(err.contains("drain clean"), "got: {err}");

        let err = check(&SERVE, &one("\"steals\": \"n/a\""), Tier::Smoke).unwrap_err();
        assert!(err.contains("steals"), "got: {err}");

        let bad_tag = "{\"schema\": \"bench-serve-v0\", \"points\": [{}]}";
        assert!(check(&SERVE, bad_tag, Tier::Smoke)
            .unwrap_err()
            .contains("schema"));
    }

    #[test]
    fn serve_speedup_gates_on_adequate_hosts_and_warns_on_undersized() {
        let flat = |host: f64| {
            check(
                &SERVE,
                &serve_json(host, &full_serve_points(1000.0, 1100.0)),
                Tier::Smoke,
            )
        };
        let err = flat(8.0).expect_err("adequate host must gate");
        assert!(err.contains("scaling regression"), "got: {err}");
        let warnings = flat(1.0).expect("undersized host must not gate").warnings;
        assert_eq!(warnings.len(), 1, "got: {warnings:?}");
        assert!(warnings[0].contains("time-slicing"), "got: {warnings:?}");
    }

    #[test]
    fn every_recorder_command_resolves_to_its_row() {
        for (command, file) in [
            ("bench-record", "BENCH_eval.json"),
            ("bench-scale", "BENCH_scale.json"),
            ("bench-serve", "BENCH_serve.json"),
            ("bench-churn", "BENCH_churn.json"),
        ] {
            assert_eq!(artifact_for(command).map(|a| a.file), Some(file));
        }
        assert!(artifact_for("bench-check").is_none());
        assert!(artifact_for("analyze").is_none());
    }

    /// The committed artifacts pass the same full-sweep checks
    /// `cargo xtask bench-check` applies (without its fresh run), so a
    /// hand edit or a recorder that drifts from the checker fails
    /// `cargo test` too.
    #[test]
    fn committed_artifacts_validate() {
        let root = crate::engine::workspace_root().unwrap();
        for artifact in &ARTIFACTS {
            if let Err(e) = artifact.check_file(&root.join(artifact.file), Tier::Committed) {
                panic!("committed {} fails its check: {e}", artifact.file);
            }
        }
    }
}
