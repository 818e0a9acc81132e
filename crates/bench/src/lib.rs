//! Shared fixtures for the RTR criterion benches, and the one envelope
//! writer behind the four `BENCH_*.json` recorders.
//!
//! Every recorder (`bench_eval`, `bench_scale`, `bench_serve`,
//! `bench_churn`) takes the same command line, `[--smoke] PATH`, parsed
//! by [`Recorder::from_args`], and writes the same envelope
//! `{schema, host_parallelism, smoke, <recorder header keys>, points}`
//! through [`Recorder::write`]. `cargo xtask` launches each one as
//! `cargo run --release -p rtr-bench --bin bench_<kind> -- [--smoke] PATH`.
//! When `RTR_BENCH_HOST` is set, its text (a description of the recording
//! host, such as whether it is shared) is written as a `host` key after
//! `host_parallelism`, since timings mean little without it.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use rtr_eval::json::Json;
use rtr_eval::par;
use rtr_routing::RoutingTable;
use rtr_topology::{
    isp, CrossLinkTable, FailureScenario, FullView, GraphView, LinkId, NodeId, Region, Topology,
};

/// A ready-to-bench failure situation on one Table II twin.
pub struct Fixture {
    /// Topology under test.
    pub topo: Topology,
    /// Pre-failure routing tables.
    pub table: RoutingTable,
    /// Cross-link table for phase 1.
    pub crosslinks: CrossLinkTable,
    /// Ground-truth failure.
    pub scenario: FailureScenario,
    /// A live router with a dead default next hop.
    pub initiator: NodeId,
    /// Its dead link.
    pub failed_link: LinkId,
    /// A destination reachable from the initiator in the ground truth.
    pub recoverable_dest: NodeId,
}

/// Builds the standard fixture: the named twin plus a mid-plane failure
/// circle of the given radius.
///
/// # Panics
///
/// Panics when the name is not in Table II or the circle breaks nothing.
pub fn fixture(name: &str, radius: f64) -> Fixture {
    let topo = isp::profile(name).expect("a Table II name").synthesize();
    let table = RoutingTable::compute(&topo, &FullView);
    let crosslinks = CrossLinkTable::new(&topo);
    let scenario = FailureScenario::from_region(&topo, &Region::circle((1000.0, 1000.0), radius));
    let (initiator, failed_link) = topo
        .node_ids()
        .find_map(|n| {
            if scenario.is_node_failed(n) {
                return None;
            }
            let dead = topo
                .neighbors(n)
                .iter()
                .find(|&&(_, l)| !scenario.is_link_usable(&topo, l))?;
            let live = topo
                .neighbors(n)
                .iter()
                .any(|&(_, l)| scenario.is_link_usable(&topo, l));
            live.then_some((n, dead.1))
        })
        .expect("the circle breaks something");
    let recoverable_dest = topo
        .node_ids()
        .find(|&t| t != initiator && rtr_topology::is_reachable(&topo, &scenario, initiator, t))
        .expect("something is reachable");
    Fixture {
        topo,
        table,
        crosslinks,
        scenario,
        initiator,
        failed_link,
        recoverable_dest,
    }
}

/// One recorder run: the parsed `[--smoke] PATH` command line plus the
/// host parallelism every envelope records.
#[derive(Debug)]
pub struct Recorder {
    /// Artifact kind (`eval`, `scale`, `serve`, `churn`): names the
    /// binary, the schema tag and the default output file.
    kind: &'static str,
    /// `--smoke`: the small CI tier instead of the full sweep.
    pub smoke: bool,
    /// Output path (default `BENCH_<kind>.json`).
    path: String,
    /// `std::thread::available_parallelism()` on the recording host.
    pub host: usize,
    /// `RTR_BENCH_HOST`: free-text description of the recording host.
    host_note: Option<String>,
}

impl Recorder {
    /// Parses `[--smoke] PATH` from the process arguments.
    pub fn from_args(kind: &'static str) -> Self {
        let mut smoke = false;
        let mut path = format!("BENCH_{kind}.json");
        for arg in std::env::args().skip(1) {
            if arg == "--smoke" {
                smoke = true;
            } else {
                path = arg;
            }
        }
        let host = par::resolve_threads(0);
        let rec = Recorder {
            kind,
            smoke,
            path,
            host,
            host_note: std::env::var("RTR_BENCH_HOST").ok(),
        };
        rec.note(format_args!(
            "host parallelism {host}{}",
            if smoke { " (smoke)" } else { "" }
        ));
        rec
    }

    /// Prints one `[bench_<kind>]` progress line on stderr.
    pub fn note(&self, msg: impl std::fmt::Display) {
        eprintln!("[bench_{}] {msg}", self.kind);
    }

    /// Writes the envelope `{schema, host_parallelism, smoke, <header>,
    /// points}` (plus `host` when `RTR_BENCH_HOST` is set) to the output
    /// path, with schema tag `bench-<kind>-v1`.
    ///
    /// # Panics
    ///
    /// Panics when the file cannot be written.
    pub fn write(&self, header: Vec<(&'static str, Json)>, points: Vec<Json>) {
        let mut fields = vec![
            ("schema", Json::Str(format!("bench-{}-v1", self.kind))),
            ("host_parallelism", Json::Num(self.host as f64)),
        ];
        if let Some(note) = &self.host_note {
            fields.push(("host", Json::Str(note.clone())));
        }
        fields.push(("smoke", Json::Num(f64::from(u8::from(self.smoke)))));
        fields.extend(header);
        fields.push(("points", Json::Arr(points)));
        let text = format!("{}\n", Json::Obj(fields).pretty());
        std::fs::write(&self.path, text).unwrap_or_else(|e| panic!("writing {}: {e}", self.path));
        self.note(format_args!("wrote {}", self.path));
    }
}

/// Median of an unsorted sample: the middle value, or the mean of the two
/// middle values for an even count (0.0 when empty).
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, from
/// `/proc/self/status` (0.0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// Resets the kernel's peak-RSS watermark so each sweep point reports its
/// own high-water mark. Best effort: ignored where `/proc` is read-only.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::median;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
    }
}
