//! `serve-tcp`: RTR requests served over loopback TCP.
//!
//! The `rtr-serve` daemon runs in this process with one worker, bound to
//! 127.0.0.1; traffic crosses the loopback interface, not a real link.
//! Requests (scheme 0, RTR) come from `load::build_mix` over all eight
//! Table II twins, interleaved one failure scenario at a time so the
//! requests of one scenario arrive together, as after one large-scale
//! failure. The mix is large enough that no request repeats within a run
//! (`serve.distinct_share` = 1), so memoisation has nothing to hit here.
//!
//! One thread on one connection generates the load, each phase against a
//! fresh daemon over the same fleet:
//! * open loop, Poisson arrivals at `lo` = 1,000 and `hi` = 10,000 req/s,
//!   each request timed from when it was due (so a stall counts against
//!   every request it delays) — transport-bound;
//! * closed loop with 32 requests in flight — service-bound — as seven
//!   rounds of a fixed number of requests, each on a fresh connection;
//!   `ops_per_s` is the median round's answered requests per second.
//!   Neither side sets `TCP_NODELAY`, so a connection can fall into
//!   Nagle/delayed-ACK stalls for its lifetime; the median over fresh
//!   connections keeps one such connection from setting the figure.
//!
//! Every answer is checked against a serial `service::answer` oracle run
//! after the timed phases (a digest of every result field; the traced run
//! compares whole responses).

use crate::stats::{self, Summary};
use crate::trace::{maybe_span, Kind, Tracer};
use crate::{repeat_setup, Args, Report};
use rtr_core::SessionPool;
use rtr_eval::baseline::Baseline;
use rtr_serve::load::{self, TcpClient, Transport};
use rtr_serve::proto::{self, Outcome, RecoverRequest, RecoverResponse, Request, Response};
use rtr_serve::service::{self, ServiceReport};
use rtr_serve::{serve, Fleet, ServeConfig};
use rtr_topology::isp;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

const LO_RPS: f64 = 1_000.0;
const HI_RPS: f64 = 10_000.0;
const INFLIGHT: usize = 32;
/// Shares of the run given to the `lo` and `hi` phases; the closed loop
/// takes about the rest.
const LO_SHARE: f64 = 0.45;
const HI_SHARE: f64 = 0.35;
/// Closed-loop requests per second of the run, split evenly over
/// [`CLOSED_ROUNDS`] fresh connections.
const CLOSED_REQUESTS_PER_SECOND: f64 = 3_000.0;
const CLOSED_ROUNDS: usize = 7;
/// Harvested cases per class per twin for each second of the run. Each
/// unit yields about 2.3 requests, so this covers the open-loop arrivals
/// plus the closed loop twice (the traced run repeats it) with a margin.
const CASES_PER_CLASS_PER_SECOND: f64 = 5_500.0;
/// How long a phase waits for its last answers.
const DRAIN: Duration = Duration::from_secs(10);

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

struct Setup {
    fleet: Fleet,
    mix: Vec<RecoverRequest>,
    scenarios: usize,
}

/// Builds the fleet and the request mix; with a tracer, each layer call
/// gets its span.
fn setup(seed: u64, cases_per_class: usize, mut tr: Option<&mut Tracer>) -> Setup {
    let mut entries = Vec::new();
    let mut per_twin: Vec<Vec<Vec<RecoverRequest>>> = Vec::new();
    for (i, p) in isp::TABLE2.iter().enumerate() {
        let topo = maybe_span(&mut tr, "topology.synth", || p.synthesize());
        let base = Arc::new(maybe_span(&mut tr, "eval.baseline", || Baseline::new(topo)));
        let mix = maybe_span(&mut tr, "eval.harvest", || {
            load::build_mix(
                i as u16,
                p.name,
                &base,
                cases_per_class,
                seed ^ u64::from(p.asn),
            )
        });
        // `build_mix` emits each scenario's requests contiguously.
        let groups: Vec<Vec<RecoverRequest>> = mix
            .chunk_by(|a, b| a.region.key() == b.region.key())
            .map(<[RecoverRequest]>::to_vec)
            .collect();
        per_twin.push(groups);
        entries.push((p.name.to_string(), base));
    }
    // One scenario at a time, round robin over the twins.
    let scenarios = per_twin.iter().map(Vec::len).sum();
    let mut mix = Vec::new();
    let mut iters: Vec<_> = per_twin.into_iter().map(Vec::into_iter).collect();
    loop {
        let before = mix.len();
        for it in &mut iters {
            if let Some(group) = it.next() {
                mix.extend(group);
            }
        }
        if mix.len() == before {
            break;
        }
    }
    for (i, r) in mix.iter_mut().enumerate() {
        r.id = i as u64 + 1;
    }
    Setup {
        fleet: Fleet::from_baselines(entries),
        mix,
        scenarios,
    }
}

/// Order-sensitive digest of every field of an answer except its id and
/// service time (FNV-1a).
fn digest(r: &RecoverResponse) -> (usize, usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut delivered = 0;
    for d in &r.results {
        eat(u64::from(d.dest));
        match d.outcome {
            Outcome::Delivered => {
                delivered += 1;
                eat(0);
            }
            Outcome::HitFailure { at_link } => eat(1 << 32 | u64::from(at_link)),
            Outcome::NoPath => eat(2),
        }
        eat(d.cost);
        eat(d.route.len() as u64);
        for &n in &d.route {
            eat(u64::from(n));
        }
    }
    (r.results.len(), delivered, h)
}

/// One request's life on the wire.
#[derive(Debug, Clone)]
struct Sample {
    /// Index into the mix.
    idx: usize,
    due: Instant,
    sent: Instant,
    done: Option<Instant>,
    service_us: u64,
    answer: Option<(usize, usize, u64)>,
    full: Option<RecoverResponse>,
    error: bool,
}

impl Sample {
    /// Sojourn from when the request was due, µs. An unanswered or
    /// refused request counts as the longest wait of its phase: it misses
    /// any latency limit.
    fn sojourn_us(&self, give_up: Instant) -> f64 {
        let end = match (self.done, self.error) {
            (Some(d), false) => d,
            _ => give_up,
        };
        end.saturating_duration_since(self.due).as_secs_f64() * 1e6
    }
}

struct PhaseOut {
    samples: Vec<Sample>,
    start: Instant,
    give_up: Instant,
    backlog_max: usize,
}

impl PhaseOut {
    /// Answered requests per second, from the phase's start to its last
    /// answer.
    fn answered_per_s(&self) -> f64 {
        let done = self.samples.iter().filter_map(|x| x.done);
        let (n, last) = done.fold((0usize, self.start), |(n, l), d| (n + 1, l.max(d)));
        n as f64 / last.duration_since(self.start).as_secs_f64()
    }
}

/// Minimal deterministic generator for the arrival process.
struct SplitMix(u64);

impl SplitMix {
    fn next_unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d1_049b_d311_14eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How the generator issues requests.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Poisson arrivals at `rate` for `secs`, drawn from `seed`.
    Open { rate: f64, secs: f64, seed: u64 },
    /// `inflight` requests outstanding until `requests` were sent.
    Closed { inflight: usize, requests: usize },
}

/// Runs one phase against a fresh daemon: one thread, one connection.
/// `mix` is the phase's slice, `first` its offset in the whole mix.
fn phase(
    fleet: &Fleet,
    mix: &[RecoverRequest],
    first: usize,
    mode: Mode,
    keep_full: bool,
    mut tr: Option<&mut Tracer>,
) -> Result<(PhaseOut, ServiceReport), String> {
    let cfg = ServeConfig {
        workers: 1,
        bind: Some("127.0.0.1:0".to_string()),
    };
    let (out, service) = serve(fleet, &cfg, |h| -> Result<PhaseOut, String> {
        let addr = h.addr().ok_or("daemon did not bind")?.to_string();
        let mut client = TcpClient::connect(&addr)?;
        let submit_name = tr
            .as_deref_mut()
            .map(|t| t.name("serve.submit", Kind::Layer));
        let start = Instant::now();
        // Open loop: every arrival time is fixed before the phase starts.
        let (end, dues) = match mode {
            Mode::Open { rate, secs, seed } => {
                let mut rng = SplitMix(seed);
                let mut t = 0.0;
                let mut dues = Vec::new();
                loop {
                    t += -(1.0 - rng.next_unit()).ln() / rate;
                    if t >= secs {
                        break;
                    }
                    dues.push(start + Duration::from_secs_f64(t));
                }
                (start + Duration::from_secs_f64(secs), dues)
            }
            Mode::Closed { .. } => (start, Vec::new()),
        };
        if dues.len() > mix.len() {
            return Err(format!(
                "mix too small: {} requests for {} arrivals",
                mix.len(),
                dues.len()
            ));
        }
        let mut samples: Vec<Sample> = Vec::with_capacity(dues.len().max(1024));
        let mut responses = Vec::new();
        let mut outstanding = 0usize;
        let mut backlog_max = 0usize;
        let give_up = loop {
            let now = Instant::now();
            let may_send = match mode {
                Mode::Open { .. } => samples.len() < dues.len(),
                Mode::Closed { inflight, requests } => {
                    outstanding < inflight && samples.len() < requests.min(mix.len())
                }
            };
            if may_send {
                let due = match mode {
                    Mode::Open { .. } => dues[samples.len()],
                    Mode::Closed { .. } => now,
                };
                if due <= now {
                    let req = mix[samples.len()].clone();
                    let span = match (tr.as_deref_mut(), submit_name) {
                        (Some(t), Some(n)) => Some(t.open(n, req.id)),
                        _ => None,
                    };
                    let accepted = client.submit(req)?;
                    if let (Some(id), Some(t)) = (span, tr.as_deref_mut()) {
                        t.close(id);
                    }
                    samples.push(Sample {
                        idx: first + samples.len(),
                        due,
                        sent: Instant::now(),
                        done: None,
                        service_us: 0,
                        answer: None,
                        full: None,
                        error: !accepted,
                    });
                    if accepted {
                        outstanding += 1;
                        backlog_max = backlog_max.max(outstanding);
                    }
                    continue;
                }
            }
            client.poll(&mut responses)?;
            if !responses.is_empty() {
                let at = Instant::now();
                for resp in responses.drain(..) {
                    let (id, answer) = match resp {
                        Response::Recover(r) => (r.id, Some(r)),
                        Response::Error { id, .. } => (id, None),
                        Response::ShuttingDown => continue,
                    };
                    let Some(s) = (id as usize)
                        .checked_sub(first + 1)
                        .and_then(|k| samples.get_mut(k))
                    else {
                        continue;
                    };
                    if s.done.is_some() {
                        continue;
                    }
                    s.done = Some(at);
                    outstanding -= 1;
                    match answer {
                        Some(r) => {
                            s.service_us = r.service_micros;
                            s.answer = Some(digest(&r));
                            if keep_full {
                                s.full = Some(r);
                            }
                        }
                        None => s.error = true,
                    }
                }
                continue;
            }
            let sending_done = match mode {
                Mode::Open { .. } => samples.len() == dues.len(),
                Mode::Closed { requests, .. } => samples.len() == requests.min(mix.len()),
            };
            let drained = outstanding == 0;
            let timed_out = now > end.max(samples.last().map_or(end, |s| s.sent)) + DRAIN;
            if sending_done && (drained || timed_out) {
                break now;
            }
            // Yield rather than sleep: a sleep would delay noticing an
            // answer by the timer's slack, inflating every sojourn.
            std::thread::yield_now();
        };
        Ok(PhaseOut {
            samples,
            start,
            give_up,
            backlog_max,
        })
    })?;
    Ok((out?, service))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let cases = (CASES_PER_CLASS_PER_SECOND * args.seconds).ceil() as usize;

    let (s, setup_times) = repeat_setup(SETUP_REPS, || Ok(setup(args.seed, cases, None)))?;
    if s.mix.is_empty() {
        report.fail(1, "the request mix is empty");
        return Ok(report);
    }
    let dests: usize = s.mix.iter().map(|r| r.dests.len()).sum();
    report.line(format!(
        "workload: 8 Table II twins, {} scenarios, {} requests, {dests} cases; 1 worker on 127.0.0.1 \
         (loopback), generator: 1 thread, 1 connection",
        s.scenarios,
        s.mix.len()
    ));
    report.line(format!(
        "setup_s {:.4} (median of {SETUP_REPS} set-ups: {setup_times:.4?})",
        stats::median(&setup_times)
    ));

    let mut used = 0;
    let mut run_phase = |mode: Mode, tr: Option<&mut Tracer>| {
        let out = phase(&s.fleet, &s.mix[used..], used, mode, args.trace, tr);
        if let Ok((p, _)) = &out {
            used += p.samples.len();
        }
        out
    };
    let open_loop = |rate: f64, share: f64, salt: u64| Mode::Open {
        rate,
        secs: share * args.seconds,
        seed: args.seed ^ salt,
    };
    let (lo, lo_service) = run_phase(open_loop(LO_RPS, LO_SHARE, 0x10), None)?;
    let (hi, _) = run_phase(open_loop(HI_RPS, HI_SHARE, 0x20), None)?;
    let closed_mode = Mode::Closed {
        inflight: INFLIGHT,
        requests: (CLOSED_REQUESTS_PER_SECOND * args.seconds) as usize / CLOSED_ROUNDS,
    };
    let mut tr = Tracer::new();
    let mut closed = Vec::with_capacity(CLOSED_ROUNDS);
    let mut traced_closed = Vec::new();
    for _ in 0..CLOSED_ROUNDS {
        closed.push(run_phase(closed_mode, None)?.0);
        if args.trace {
            traced_closed.push(run_phase(closed_mode, Some(&mut tr))?.0);
        }
    }
    if used == s.mix.len() {
        report.fail(1, "the closed loop used up the request mix");
    }

    let round_rates: Vec<f64> = closed.iter().map(PhaseOut::answered_per_s).collect();
    let capacity = stats::median(&round_rates);
    let mut lo_soj: Vec<f64> = lo
        .samples
        .iter()
        .map(|x| x.sojourn_us(lo.give_up))
        .collect();
    let mut hi_soj: Vec<f64> = hi
        .samples
        .iter()
        .map(|x| x.sojourn_us(hi.give_up))
        .collect();
    let (lo_sum, hi_sum) = (Summary::of(&lo_soj), Summary::of(&hi_soj));
    report.line(format!(
        "serve_capacity_rps {capacity:.1} (closed loop, {INFLIGHT} in flight, median of {CLOSED_ROUNDS} \
         connections: {round_rates:.0?})"
    ));
    report.line(format!(
        "serve_lo sojourn at {LO_RPS} req/s: {}",
        lo_sum.describe("us")
    ));
    report.line(format!(
        "serve_hi sojourn at {HI_RPS} req/s: {}",
        hi_sum.describe("us")
    ));
    report.line(format!("hi backlog max {} in flight", hi.backlog_max));

    // Oracle: every served request answered again, serially, after the
    // timed phases.
    let phases: Vec<&PhaseOut> = [&lo, &hi]
        .into_iter()
        .chain(&closed)
        .chain(&traced_closed)
        .collect();
    let all: Vec<&Sample> = phases.iter().flat_map(|p| &p.samples).collect();
    report.attempted += all.len() as u64;
    let oracle = tr.name("bench.oracle", Kind::Group);
    let answer_name = tr.name("serve.answer", Kind::Layer);
    let proto_name = tr.name("serve.proto", Kind::Layer);
    let root = tr.name("bench.serve-tcp", Kind::Group);
    let root_span = tr.open(root, 0);
    let pool = SessionPool::new();
    let (mut errors, mut wrong) = (0u64, 0u64);
    tr.span(oracle, 0, |tr| {
        for x in &all {
            let req = &s.mix[x.idx];
            let want = if args.trace {
                tr.span(answer_name, req.id, |_| {
                    service::answer(&s.fleet, &pool, req)
                })
            } else {
                service::answer(&s.fleet, &pool, req)
            };
            let Response::Recover(want) = want else {
                wrong += 1;
                continue;
            };
            let (Some(got), false) = (&x.answer, x.error) else {
                errors += 1;
                continue;
            };
            // The traced run keeps whole answers and compares every field;
            // only the service time may differ.
            let same_fields = x.full.as_ref().is_none_or(|full| {
                RecoverResponse {
                    service_micros: want.service_micros,
                    ..full.clone()
                } == want
            });
            if *got != digest(&want) || !same_fields {
                wrong += 1;
            }
        }
    });
    if errors > 0 {
        report.fail(
            errors,
            format!("{errors} requests got an error or no answer"),
        );
    }
    if wrong > 0 {
        report.fail(
            wrong,
            format!("{wrong} answers differ from the serial oracle"),
        );
    }

    if !args.trace {
        tr.close(root_span);
        report.metric("setup_s", stats::median(&setup_times));
        report.metric("ops_per_s", capacity);
        return Ok(report);
    }

    // Per-layer figures of the traced run.
    let setup_name = tr.name("bench.setup", Kind::Group);
    let traced_setup = tr.span(setup_name, 0, |tr| setup(args.seed, cases, Some(tr)));
    if traced_setup.mix != s.mix {
        report.fail(1, "the request mix is not deterministic");
    }
    let mut proto_us = Vec::with_capacity(all.len());
    for x in all.iter().filter(|x| x.full.is_some()) {
        let req = Request::Recover(s.mix[x.idx].clone());
        let resp = Response::Recover(x.full.clone().expect("filtered on full answers"));
        let t0 = Instant::now();
        let ok = tr.span(proto_name, s.mix[x.idx].id, |_| {
            let rq = proto::decode_request(&proto::encode_request(&req));
            let rs = proto::decode_response(&proto::encode_response(&resp));
            rq.as_ref() == Ok(&req) && rs.as_ref() == Ok(&resp)
        });
        proto_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if !ok {
            report.fail(1, "a request or response does not survive encode + decode");
        }
    }
    tr.close(root_span);

    let request_name = tr.name("serve.request", Kind::Layer);
    for p in &phases {
        for x in &p.samples {
            if let Some(done) = x.done {
                tr.record(request_name, s.mix[x.idx].id, x.due, done);
            }
        }
    }

    let traced_rates: Vec<f64> = traced_closed.iter().map(PhaseOut::answered_per_s).collect();
    let traced_capacity = stats::median(&traced_rates);
    let traced_requests: usize = traced_closed.iter().map(|p| p.samples.len()).sum();
    report.lines.extend(tr.summary_lines());
    let totals = tr.totals_map();
    let get = |n: &str| totals.get(n).copied().unwrap_or_default();
    report.metric("topology.synth_s", get("topology.synth").total_s);
    report.metric("eval.baseline_s", get("eval.baseline").total_s);
    report.metric("eval.harvest_s", get("eval.harvest").total_s);
    report.metric("eval.scenarios", s.scenarios as f64);
    report.metric("eval.cases", dests as f64);

    report.metric("serve.lo_p50_us", lo_sum.p50);
    report.metric("serve.lo_p99_us", stats::quantile(&mut lo_soj, 0.99));
    report.metric("serve.lo_samples", lo_sum.n as f64);
    report.metric("serve.hi_p50_us", hi_sum.p50);
    report.metric("serve.hi_p99_us", stats::quantile(&mut hi_soj, 0.99));
    report.metric("serve.hi_samples", hi_sum.n as f64);
    let mut open: Vec<f64> = lo_soj.iter().chain(&hi_soj).copied().collect();
    report.metric("serve.sojourn_us_p999", stats::quantile(&mut open, 0.999));
    report.metric("serve.sojourn_samples", open.len() as f64);

    let mut service: Vec<f64> = closed
        .iter()
        .flat_map(|p| &p.samples)
        .map(|x| x.service_us as f64)
        .collect();
    report.metric("serve.service_us_p50", stats::quantile(&mut service, 0.5));
    report.metric(
        "serve.service_us_p99",
        stats::quantile_sorted(&service, 0.99),
    );
    let mut answer_us: Vec<f64> = tr.durations(answer_name).iter().map(|s| s * 1e6).collect();
    report.metric("serve.answer_us_p50", stats::quantile(&mut answer_us, 0.5));
    let mut wait: Vec<f64> = lo
        .samples
        .iter()
        .map(|x| x.sojourn_us(lo.give_up) - x.service_us as f64)
        .collect();
    report.metric("serve.wait_us_p50", stats::quantile(&mut wait, 0.5));
    report.metric("serve.wait_us_p99", stats::quantile_sorted(&wait, 0.99));
    let queue_wait = lo_service
        .workers
        .iter()
        .filter_map(|w| w.queue_wait_micros.quantile(0.99))
        .max()
        .unwrap_or(0);
    report.metric("serve.queue_wait_us_p99", queue_wait as f64);
    report.metric("serve.proto_us", stats::quantile(&mut proto_us, 0.5));
    report.metric("serve.backlog_max", hi.backlog_max as f64);
    let mut lag: Vec<f64> = lo
        .samples
        .iter()
        .chain(&hi.samples)
        .map(|x| x.sent.saturating_duration_since(x.due).as_secs_f64() * 1e6)
        .collect();
    report.metric("serve.gen_lag_us_p99", stats::quantile(&mut lag, 0.99));
    report.metric("serve.errors", errors as f64);
    let keys: BTreeSet<_> = all
        .iter()
        .map(|x| {
            let r = &s.mix[x.idx];
            let (cx, cy, radius) = r.region.key();
            (
                r.topo,
                cx,
                cy,
                radius,
                r.initiator,
                r.failed_link,
                r.scheme,
                r.dests.clone(),
            )
        })
        .collect();
    report.metric("serve.distinct_share", keys.len() as f64 / all.len() as f64);

    let total = get("bench.serve-tcp").total_s;
    let per_request_gap = 1.0 / traced_capacity - 1.0 / capacity;
    report.metric("trace.total_s", total);
    report.metric("trace.unattributed_s", tr.unattributed_s());
    report.metric("trace.overhead_s", per_request_gap * traced_requests as f64);
    report.metric("trace.overhead_share", capacity / traced_capacity - 1.0);
    report.metric("trace.spans", tr.span_count() as f64);
    report.line(format!(
        "traced closed loop {traced_capacity:.1} req/s vs untraced {capacity:.1} req/s; \
         serial oracle + codec {total:.3} s traced, unattributed {:.3} s",
        tr.unattributed_s()
    ));
    let path = crate::out_dir().join("trace-serve-tcp.csv");
    tr.write_csv(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(report)
}
