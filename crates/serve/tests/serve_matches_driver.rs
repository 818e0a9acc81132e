//! Served recovery answers are byte-identical to the serial driver.
//!
//! The oracle here deliberately bypasses every serving layer: it runs
//! [`RtrSession`] directly with a fresh [`RecoveryScratch`] per request
//! — the same primitive `rtr-eval`'s experiment driver uses — and
//! encodes the expected wire payload itself. The service (work-stealing
//! queue, pooled sessions, any worker count, either transport) must
//! reproduce those bytes exactly.

use rtr_baselines::{RouteOutcome, SchemeId, SchemeMask};
use rtr_core::phase2::{DeliveryOutcome, RecoveryScratch};
use rtr_core::recovery::RtrSession;
use rtr_core::SchemeScratch;
use rtr_eval::baseline::Baseline;
use rtr_eval::schemes::build_comparators;
use rtr_eval::ExperimentConfig;
use rtr_obs::NoopSink;
use rtr_serve::load::{build_mix, InProc, TcpClient, Transport};
use rtr_serve::proto::{
    self, encode_response, DestResult, Outcome, RecoverRequest, RecoverResponse, Response,
    ServeError,
};
use rtr_serve::{serve, Fleet, ServeConfig};
use rtr_topology::{FailureScenario, FullView, NodeId};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 77;
const CASES: usize = 30;

fn grid_fleet() -> (Fleet, Arc<Baseline>) {
    let topo = rtr_topology::generate::grid(6, 6, 100.0);
    let baseline = Arc::new(Baseline::new(topo));
    let fleet = Fleet::from_baselines(vec![("grid6".to_string(), Arc::clone(&baseline))]);
    (fleet, baseline)
}

fn mix(baseline: &Arc<Baseline>) -> Vec<RecoverRequest> {
    let m = build_mix(0, "grid6", baseline, CASES, SEED);
    assert!(m.len() > 3, "mix unexpectedly small: {} requests", m.len());
    m
}

/// The serial oracle: one fresh session per request, no pooling, no
/// queue, no threads. Returns the expected wire bytes keyed by id.
fn oracle_bytes(
    baseline: &Baseline,
    mix: &[RecoverRequest],
) -> Result<BTreeMap<u64, Vec<u8>>, String> {
    let topo = baseline.topo();
    let mut out = BTreeMap::new();
    for req in mix {
        let region = req.region.to_region().ok_or("mix regions are valid")?;
        let scenario = FailureScenario::from_region(topo, &region);
        let mut scratch = RecoveryScratch::default();
        let mut session = RtrSession::start(
            topo,
            baseline.crosslinks(),
            &scenario,
            &FullView,
            NodeId(req.initiator),
            rtr_topology::LinkId(req.failed_link),
            &mut scratch,
            &mut NoopSink,
        )
        .map_err(|e| format!("mix requests pass phase 1: {e}"))?;
        let results = req
            .dests
            .iter()
            .map(|&dest| {
                let attempt = session.recover(NodeId(dest));
                let outcome = match attempt.outcome {
                    DeliveryOutcome::Delivered => Outcome::Delivered,
                    DeliveryOutcome::HitFailure { at_link } => {
                        Outcome::HitFailure { at_link: at_link.0 }
                    }
                    DeliveryOutcome::NoPath => Outcome::NoPath,
                };
                let (cost, route) = attempt
                    .path
                    .as_ref()
                    .map(|p| (p.cost(), p.nodes().iter().map(|n| n.0).collect()))
                    .unwrap_or((0, Vec::new()));
                DestResult {
                    dest,
                    outcome,
                    cost,
                    route,
                }
            })
            .collect();
        let resp = Response::Recover(RecoverResponse {
            id: req.id,
            results,
            service_micros: 0,
        });
        out.insert(req.id, encode_response(&resp));
    }
    Ok(out)
}

/// Pushes the whole mix through a transport and collects the responses
/// with `service_micros` normalized to zero, keyed by id.
fn collect<T: Transport>(
    t: &mut T,
    mix: &[RecoverRequest],
) -> Result<BTreeMap<u64, Vec<u8>>, String> {
    for req in mix {
        assert_eq!(t.submit(req.clone()), Ok(true), "submit refused");
    }
    let mut got = BTreeMap::new();
    let mut responses = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while got.len() < mix.len() {
        assert!(std::time::Instant::now() < deadline, "responses timed out");
        responses.clear();
        t.poll(&mut responses)?;
        for resp in responses.drain(..) {
            match resp {
                Response::Recover(mut r) => {
                    r.service_micros = 0;
                    let id = r.id;
                    got.insert(id, encode_response(&Response::Recover(r)));
                }
                other => return Err(format!("unexpected response: {other:?}")),
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(got)
}

fn served_bytes(
    fleet: &Fleet,
    mix: &[RecoverRequest],
    workers: usize,
    tcp: bool,
) -> Result<BTreeMap<u64, Vec<u8>>, String> {
    let cfg = ServeConfig {
        workers,
        bind: tcp.then(|| "127.0.0.1:0".to_string()),
    };
    let (got, report) = serve(fleet, &cfg, |h| {
        if tcp {
            let addr = h.addr().ok_or("tcp bind requested")?.to_string();
            let mut t = TcpClient::connect(&addr)?;
            collect(&mut t, mix)
        } else {
            let mut t = InProc::new(h);
            collect(&mut t, mix)
        }
    })?;
    assert!(report.drained_clean, "drain left jobs behind");
    assert_eq!(report.jobs_completed(), mix.len() as u64);
    got
}

#[test]
fn served_responses_are_byte_identical_to_the_serial_driver() {
    let (fleet, baseline) = grid_fleet();
    let mix = mix(&baseline);
    let expected = oracle_bytes(&baseline, &mix).unwrap();
    let got = served_bytes(&fleet, &mix, 2, false).unwrap();
    assert_eq!(got.len(), expected.len());
    for (id, bytes) in &expected {
        assert_eq!(
            got.get(id),
            Some(bytes),
            "request {id}: served payload diverged from the serial driver"
        );
    }
}

#[test]
fn worker_count_does_not_change_results() {
    let (fleet, baseline) = grid_fleet();
    let mix = mix(&baseline);
    let one = served_bytes(&fleet, &mix, 1, false).unwrap();
    let three = served_bytes(&fleet, &mix, 3, false).unwrap();
    assert_eq!(one, three, "worker count changed served payloads");
}

#[test]
fn tcp_loopback_matches_inproc() {
    let (fleet, baseline) = grid_fleet();
    let mix = mix(&baseline);
    let inproc = served_bytes(&fleet, &mix, 2, false).unwrap();
    let tcp = served_bytes(&fleet, &mix, 2, true).unwrap();
    assert_eq!(inproc, tcp, "transport changed served payloads");
}

/// The comparator oracle: the [`RecoveryScheme`] trait driven directly,
/// one scratch, no pooling, no queue — expected wire bytes keyed by id.
fn scheme_oracle_bytes(
    baseline: &Baseline,
    mix: &[RecoverRequest],
    id: SchemeId,
) -> Result<BTreeMap<u64, Vec<u8>>, String> {
    let topo = baseline.topo();
    let configs = ExperimentConfig::default().mrc_configurations;
    let scheme = build_comparators(topo, SchemeMask::none().with(id), configs)
        .map_err(|e| format!("grid6 supports every backend: {e}"))?
        .pop()
        .ok_or("one scheme requested")?;
    let ctx = baseline.scheme_ctx();
    let mut scratch = SchemeScratch::new();
    let mut out = BTreeMap::new();
    for req in mix {
        let region = req.region.to_region().ok_or("mix regions are valid")?;
        let scenario = FailureScenario::from_region(topo, &region);
        let results = req
            .dests
            .iter()
            .map(|&dest| {
                let attempt = scheme.route_in(
                    ctx,
                    &scenario,
                    NodeId(req.initiator),
                    rtr_topology::LinkId(req.failed_link),
                    NodeId(dest),
                    &mut scratch,
                );
                let outcome = match attempt.outcome {
                    RouteOutcome::Delivered => Outcome::Delivered,
                    RouteOutcome::Dropped { at_link } => Outcome::HitFailure { at_link: at_link.0 },
                    RouteOutcome::NoRoute => Outcome::NoPath,
                };
                DestResult {
                    dest,
                    outcome,
                    cost: attempt.cost_traversed,
                    route: attempt.trace.nodes().map(|n| n.0).collect(),
                }
            })
            .collect();
        let resp = Response::Recover(RecoverResponse {
            id: req.id,
            results,
            service_micros: 0,
        });
        out.insert(req.id, encode_response(&resp));
    }
    Ok(out)
}

#[test]
fn every_comparator_scheme_matches_its_trait_oracle() {
    let (fleet, baseline) = grid_fleet();
    let base_mix = mix(&baseline);
    for id in [SchemeId::Fcp, SchemeId::Mrc, SchemeId::Emrc, SchemeId::Fep] {
        let scheme_mix: Vec<RecoverRequest> = base_mix
            .iter()
            .cloned()
            .map(|mut r| {
                r.scheme = id.code();
                r
            })
            .collect();
        let expected = scheme_oracle_bytes(&baseline, &scheme_mix, id).unwrap();
        let got = served_bytes(&fleet, &scheme_mix, 2, false).unwrap();
        assert_eq!(got.len(), expected.len(), "{}", id.name());
        for (req_id, bytes) in &expected {
            assert_eq!(
                got.get(req_id),
                Some(bytes),
                "{} request {req_id}: served payload diverged from the trait oracle",
                id.name()
            );
        }
    }
}

#[test]
fn unknown_scheme_ids_are_a_typed_error() {
    let (fleet, baseline) = grid_fleet();
    let mut req = mix(&baseline).remove(0);
    req.scheme = 200;
    let cfg = ServeConfig {
        workers: 1,
        bind: None,
    };
    let (resp, _) = serve(&fleet, &cfg, |h| {
        let (tx, rx) = std::sync::mpsc::channel();
        assert!(h.submit(req.clone(), tx));
        rx.recv_timeout(Duration::from_secs(30)).expect("answered")
    })
    .expect("serve failed");
    match resp {
        Response::Error { id, error } => {
            assert_eq!(id, req.id);
            assert_eq!(error, ServeError::UnknownScheme);
        }
        other => panic!("expected UnknownScheme error, got {other:?}"),
    }
}

#[test]
fn v1_frames_are_served_unchanged_over_tcp() {
    // A pre-scheme-selector client: its frames carry no scheme byte. The
    // service must answer them exactly like a scheme-0 request.
    let (fleet, baseline) = grid_fleet();
    let full_mix = mix(&baseline);
    let req = &full_mix[0];
    let expected = oracle_bytes(&baseline, std::slice::from_ref(req)).unwrap();
    let cfg = ServeConfig {
        workers: 1,
        bind: Some("127.0.0.1:0".to_string()),
    };
    let ((), _) = serve(&fleet, &cfg, |h| {
        let addr = h.addr().expect("tcp bind requested");
        let mut stream = std::net::TcpStream::connect(addr).expect("loopback connect");
        // Hand-rolled v1 body: tag 1, then the fixed fields and the dest
        // list — no scheme byte anywhere.
        let mut body = vec![1u8];
        body.extend_from_slice(&req.id.to_le_bytes());
        body.extend_from_slice(&req.topo.to_le_bytes());
        body.extend_from_slice(&req.region.cx.to_bits().to_le_bytes());
        body.extend_from_slice(&req.region.cy.to_bits().to_le_bytes());
        body.extend_from_slice(&req.region.radius.to_bits().to_le_bytes());
        body.extend_from_slice(&req.initiator.to_le_bytes());
        body.extend_from_slice(&req.failed_link.to_le_bytes());
        body.extend_from_slice(&u32::try_from(req.dests.len()).unwrap().to_le_bytes());
        for d in &req.dests {
            body.extend_from_slice(&d.to_le_bytes());
        }
        proto::write_frame(&mut stream, &body).expect("write v1 frame");
        let mut frames = proto::FrameBuf::new();
        let mut scratch = [0u8; 4096];
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            assert!(std::time::Instant::now() < deadline, "response timed out");
            use std::io::Read as _;
            let n = stream.read(&mut scratch).expect("read response");
            assert!(n > 0, "server closed the connection");
            frames.extend(&scratch[..n]);
            if let Some(frame) = frames.next_frame().expect("well-formed frame") {
                let mut resp = match proto::decode_response(&frame).expect("decodes") {
                    Response::Recover(r) => r,
                    other => panic!("unexpected response {other:?}"),
                };
                resp.service_micros = 0;
                assert_eq!(
                    encode_response(&Response::Recover(resp)),
                    expected[&req.id],
                    "v1 frame answered differently from a scheme-0 request"
                );
                break;
            }
        }
    })
    .expect("serve failed");
}
