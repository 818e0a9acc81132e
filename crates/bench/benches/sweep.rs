//! Microbenches of RTR's phase-1 hot path: the word-parallel
//! `SweepContext::is_excluded` membership test, one `select_next_hop`
//! sweep step, and the full boundary walk (`collect_failure_info`). These
//! isolate the crossing-mask probe that `BENCH_eval.json`'s `sweep_secs`
//! column measures end to end.

use criterion::{criterion_group, criterion_main, Criterion};
use rtr_bench::fixture;
use rtr_core::phase1::collect_failure_info;
use rtr_core::sweep::{select_next_hop, SweepContext};
use rtr_sim::LinkIdSet;
use std::hint::black_box;

fn bench_sweep(c: &mut Criterion) {
    let f = fixture("AS3549", 300.0);

    // A realistically loaded exclusion header: every link the scenario
    // made unusable that crosses something, like phase 1's Constraint 1.
    let mut excluded = LinkIdSet::new();
    for l in f.topo.link_ids() {
        if !rtr_topology::GraphView::is_link_usable(&f.scenario, &f.topo, l)
            && !f.crosslinks.is_cross_free(l)
        {
            excluded.insert(l);
        }
    }
    let ctx = SweepContext::new(&f.crosslinks, &excluded);

    c.bench_function("is_excluded_AS3549_all_links", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for l in f.topo.link_ids() {
                if ctx.is_excluded(black_box(l)) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });

    let sweep_ref = f.topo.link(f.failed_link).other_end(f.initiator);
    c.bench_function("select_next_hop_AS3549", |b| {
        b.iter(|| {
            black_box(select_next_hop(
                &f.topo,
                &f.scenario,
                black_box(f.initiator),
                sweep_ref,
                &ctx,
            ))
        })
    });

    c.bench_function("phase1_walk_AS3549_r300", |b| {
        b.iter(|| {
            black_box(collect_failure_info(
                &f.topo,
                &f.crosslinks,
                &f.scenario,
                black_box(f.initiator),
                f.failed_link,
            ))
        })
    });
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
