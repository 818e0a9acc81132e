//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only here, around the benchmark's calls into each
//! layer: a name, start, end, parent span and request id. They stay in
//! memory while the workload runs and are written out once at exit. A
//! layer's self time is its spans' duration minus the part their child
//! spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Interned span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Name(u16);

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    parent: u32,
    req: u64,
    start_ns: u64,
    end_ns: u64,
}

/// What kind of code a span name covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A call into one of the workspace's layers.
    Layer,
    /// The benchmark's own grouping (a topology, a phase, a pass); its
    /// self time is the unattributed remainder.
    Group,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    names: Vec<(String, Kind)>,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    /// Summed span durations, seconds.
    pub total_s: f64,
    /// Summed durations minus the child spans they contain, seconds.
    pub self_s: f64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(1 << 20),
            stack: Vec::new(),
        }
    }

    /// Interns a span name.
    pub fn name(&mut self, name: &str, kind: Kind) -> Name {
        if let Some(i) = self.names.iter().position(|(n, _)| n == name) {
            return Name(i as u16);
        }
        self.names.push((name.to_string(), kind));
        Name((self.names.len() - 1) as u16)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: Name, req: u64) -> SpanId {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            req,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let end = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans close innermost first");
        self.spans[id.0 as usize].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: Name, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.open(name, req);
        let out = f(self);
        self.close(id);
        out
    }

    /// Records an already-measured interval (e.g. a request's sojourn,
    /// from its due time to its answer) under the innermost open span.
    pub fn record(&mut self, name: Name, req: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            name,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            req,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.push(span);
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> Vec<(String, Kind, Totals)> {
        let mut out: Vec<Totals> = vec![Totals::default(); self.names.len()];
        for s in &self.spans {
            let d = (s.end_ns - s.start_ns) as f64 * 1e-9;
            let t = &mut out[s.name.0 as usize];
            t.count += 1;
            t.total_s += d;
            t.self_s += d;
            if s.parent != NO_PARENT {
                let p = self.spans[s.parent as usize].name;
                out[p.0 as usize].self_s -= d;
            }
        }
        self.names
            .iter()
            .zip(out)
            .map(|((n, k), t)| (n.clone(), *k, t))
            .collect()
    }

    /// [`totals`](Self::totals) keyed by name; look a name up with
    /// `.get(n).copied().unwrap_or_default()` (zero when it never ran).
    pub fn totals_map(&self) -> BTreeMap<String, Totals> {
        self.totals().into_iter().map(|(n, _, t)| (n, t)).collect()
    }

    /// One line per span name: count, total and self time, for the
    /// human-readable report.
    pub fn summary_lines(&self) -> Vec<String> {
        self.totals()
            .into_iter()
            .filter(|(_, _, t)| t.count > 0)
            .map(|(n, _, t)| {
                format!(
                    "span {n:<24} n={:<9} total {:>10.6} s  self {:>10.6} s",
                    t.count, t.total_s, t.self_s
                )
            })
            .collect()
    }

    /// Durations of every span named `name`, seconds, in recording order.
    pub fn durations(&self, name: Name) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Self time of every [`Kind::Group`] span: time inside the
    /// benchmark's traced sections that no layer call covers.
    pub fn unattributed_s(&self) -> f64 {
        self.totals()
            .iter()
            .filter(|(_, k, _)| *k == Kind::Group)
            .map(|(_, _, t)| t.self_s)
            .sum()
    }

    /// Writes every span as CSV (`id,parent,name,req,start_ns,end_ns`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,name,req,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i},{parent},{},{},{},{}",
                self.names[s.name.0 as usize].0, s.req, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Runs `f`, inside a layer span named `name` when there is a tracer.
pub fn maybe_span<T>(tr: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => {
            let n = t.name(name, Kind::Layer);
            t.span(n, 0, |_| f())
        }
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.name("outer", Kind::Group);
        let inner = t.name("inner", Kind::Layer);
        t.span(outer, 0, |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span(inner, 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let map = t.totals_map();
        let (o, i) = (map["outer"], map["inner"]);
        assert_eq!((o.count, i.count), (1, 1));
        assert!(i.total_s >= 0.005);
        assert!((o.self_s - (o.total_s - i.total_s)).abs() < 1e-12);
        assert!((t.unattributed_s() - o.self_s).abs() < 1e-12);
    }
}
