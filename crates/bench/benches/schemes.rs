//! Scheme-level benchmarks: the costs a router actually pays — phase-1
//! collection, phase-2 recomputation, a full RTR case, and every
//! comparator backend behind the [`RecoveryScheme`] trait (FCP, MRC,
//! eMRC, FEP routing plus the MRC-family configuration builds).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtr_baselines::{Fcp, Mrc, RecoveryScheme, SchemeCtx};
use rtr_bench::{fixture, Fixture};
use rtr_core::{collect_failure_info, SchemeScratch, SessionPool};
use rtr_obs::NoopSink;
use std::hint::black_box;

fn scheme_ctx(f: &Fixture) -> SchemeCtx<'_> {
    SchemeCtx {
        topo: &f.topo,
        crosslinks: &f.crosslinks,
        table: &f.table,
    }
}

fn bench_phase1(c: &mut Criterion) {
    let mut g = c.benchmark_group("phase1_collection");
    for name in ["AS1239", "AS3320", "AS7018"] {
        let f = fixture(name, 250.0);
        g.bench_with_input(BenchmarkId::from_parameter(name), &f, |b, f| {
            b.iter(|| {
                black_box(collect_failure_info(
                    &f.topo,
                    &f.crosslinks,
                    &f.scenario,
                    f.initiator,
                    f.failed_link,
                    &mut NoopSink,
                ))
            })
        });
    }
    g.finish();
}

fn bench_full_rtr_case(c: &mut Criterion) {
    let mut g = c.benchmark_group("rtr_full_case");
    for name in ["AS1239", "AS3320", "AS7018"] {
        let f = fixture(name, 250.0);
        let pool = SessionPool::new();
        g.bench_with_input(BenchmarkId::from_parameter(name), &f, |b, f| {
            b.iter(|| {
                let mut session = pool
                    .start_session(
                        &f.topo,
                        &f.crosslinks,
                        &f.scenario,
                        f.initiator,
                        f.failed_link,
                    )
                    .expect("recoverable case: live initiator with a failed incident link");
                black_box(session.recover(f.recoverable_dest))
            })
        });
    }
    g.finish();
}

fn bench_fcp(c: &mut Criterion) {
    let mut g = c.benchmark_group("fcp_route");
    for name in ["AS1239", "AS3320", "AS7018"] {
        let f = fixture(name, 250.0);
        let mut scratch = SchemeScratch::new();
        g.bench_with_input(BenchmarkId::from_parameter(name), &f, |b, f| {
            let ctx = scheme_ctx(f);
            b.iter(|| {
                black_box(Fcp.route_in(
                    ctx,
                    &f.scenario,
                    f.initiator,
                    f.failed_link,
                    f.recoverable_dest,
                    &mut scratch,
                ))
            })
        });
    }
    g.finish();
}

fn bench_mrc_family(c: &mut Criterion) {
    let mut g = c.benchmark_group("mrc");
    for name in ["AS1239", "AS3320"] {
        let f = fixture(name, 250.0);
        g.bench_with_input(BenchmarkId::new("build", name), &f, |b, f| {
            b.iter(|| black_box(Mrc::build(&f.topo, 5).unwrap()))
        });
        let mrc = Mrc::build(&f.topo, 5).unwrap();
        let emrc = rtr_baselines::Emrc::build(&f.topo, 5).unwrap();
        let mut scratch = SchemeScratch::new();
        for (label, scheme) in [
            ("recover", &mrc as &dyn RecoveryScheme),
            ("emrc_recover", &emrc),
        ] {
            g.bench_with_input(BenchmarkId::new(label, name), &f, |b, f| {
                let ctx = scheme_ctx(f);
                b.iter(|| {
                    black_box(scheme.route_in(
                        ctx,
                        &f.scenario,
                        f.initiator,
                        f.failed_link,
                        f.recoverable_dest,
                        &mut scratch,
                    ))
                })
            });
        }
    }
    g.finish();
}

fn bench_fep(c: &mut Criterion) {
    let mut g = c.benchmark_group("fep");
    for name in ["AS1239", "AS3320"] {
        let f = fixture(name, 250.0);
        g.bench_with_input(BenchmarkId::new("build", name), &f, |b, f| {
            b.iter(|| black_box(rtr_baselines::Fep::build(&f.topo)))
        });
        let fep = rtr_baselines::Fep::build(&f.topo);
        let mut scratch = SchemeScratch::new();
        g.bench_with_input(BenchmarkId::new("route", name), &f, |b, f| {
            let ctx = scheme_ctx(f);
            b.iter(|| {
                black_box(fep.route_in(
                    ctx,
                    &f.scenario,
                    f.initiator,
                    f.failed_link,
                    f.recoverable_dest,
                    &mut scratch,
                ))
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_phase1,
    bench_full_rtr_case,
    bench_fcp,
    bench_mrc_family,
    bench_fep
);
criterion_main!(benches);
