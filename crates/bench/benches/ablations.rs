//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * incremental SPT repair vs a full Dijkstra per recovery (phase 2);
//! * precomputed cross-link table vs on-the-fly segment tests (phase 1);
//! * binary-heap Dijkstra vs plain BFS on hop-count topologies;
//! * recovery-path caching on vs off at the initiator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtr_bench::fixture;
use rtr_core::SessionPool;
use rtr_routing::{bfs_hops, dijkstra::dijkstra, IncrementalSpt};
use rtr_topology::geometry::segments_cross;
use rtr_topology::{CrossLinkTable, FullView, GraphView, LinkId, LinkMask};
use std::hint::black_box;

fn bench_incremental_vs_full(c: &mut Criterion) {
    let mut g = c.benchmark_group("spt_recomputation");
    for name in ["AS1239", "AS3549"] {
        let f = fixture(name, 250.0);
        let removed: Vec<LinkId> = f
            .topo
            .link_ids()
            .filter(|&l| !f.scenario.is_link_usable(&f.topo, l))
            .collect();
        g.bench_with_input(BenchmarkId::new("incremental", name), &f, |b, f| {
            b.iter(|| {
                let mut spt = IncrementalSpt::new(&f.topo, f.initiator);
                spt.remove_links(removed.iter().copied());
                black_box(spt.distance(f.recoverable_dest))
            })
        });
        g.bench_with_input(BenchmarkId::new("full_dijkstra", name), &f, |b, f| {
            b.iter(|| {
                let mask = LinkMask::from_links(&f.topo, removed.iter().copied());
                black_box(dijkstra(&f.topo, &mask, f.initiator).distance(f.recoverable_dest))
            })
        });
    }
    g.finish();
}

fn bench_crosslink_precompute_vs_inline(c: &mut Criterion) {
    let mut g = c.benchmark_group("crosslink_lookup");
    let f = fixture("AS3549", 250.0); // densest twin: most crossings
    let table = CrossLinkTable::new(&f.topo);
    let probe: Vec<(LinkId, LinkId)> = f.topo.link_ids().zip(f.topo.link_ids().skip(1)).collect();
    g.bench_function("precomputed_table", |b| {
        b.iter(|| {
            let mut hits = 0;
            for &(a, bb) in &probe {
                if table.crosses(a, bb) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.bench_function("on_the_fly_segments", |b| {
        b.iter(|| {
            let mut hits = 0;
            for &(a, bb) in &probe {
                if segments_cross(f.topo.segment(a), f.topo.segment(bb)) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.bench_function("table_construction", |b| {
        b.iter(|| black_box(CrossLinkTable::new(&f.topo)))
    });
    g.finish();
}

fn bench_dijkstra_vs_bfs(c: &mut Criterion) {
    let mut g = c.benchmark_group("unit_cost_shortest_paths");
    for name in ["AS1239", "AS3549"] {
        let f = fixture(name, 250.0);
        g.bench_with_input(BenchmarkId::new("dijkstra", name), &f, |b, f| {
            b.iter(|| black_box(dijkstra(&f.topo, &FullView, f.initiator)))
        });
        g.bench_with_input(BenchmarkId::new("bfs", name), &f, |b, f| {
            b.iter(|| black_box(bfs_hops(&f.topo, &FullView, f.initiator)))
        });
    }
    g.finish();
}

fn bench_path_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("recovery_path_cache");
    let f = fixture("AS3320", 250.0);
    let dests: Vec<_> = f.topo.node_ids().filter(|&t| t != f.initiator).collect();
    let pool = SessionPool::new();
    g.bench_function("cached_session", |b| {
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
            // All destinations against one session: phase 1 + one SPT.
            for &t in &dests {
                black_box(session.recover(t));
            }
        })
    });
    g.bench_function("uncached_fresh_sessions", |b| {
        b.iter(|| {
            // A fresh session per destination: phase 1 and SPT every time.
            for &t in &dests {
                let mut session = pool
                    .start_session(
                        &f.topo,
                        &f.crosslinks,
                        &f.scenario,
                        f.initiator,
                        f.failed_link,
                    )
                    .expect("recoverable case: live initiator with a failed incident link");
                black_box(session.recover(t));
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_incremental_vs_full,
    bench_crosslink_precompute_vs_inline,
    bench_dijkstra_vs_bfs,
    bench_path_cache
);
criterion_main!(benches);
