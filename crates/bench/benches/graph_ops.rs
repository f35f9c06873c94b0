//! Benchmarks for the graph substrate: construction, the CSR freeze,
//! and generators — the primitives every LCRB stage is built from.
//! BFS is timed by perfbench's `graph.csr_bfs` probe.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use lcrb_graph::generators::{gnm_directed, planted_partition};
use lcrb_graph::{CsrGraph, DiGraph};

fn graph_of(n: usize, avg_degree: usize, seed: u64) -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    gnm_directed(n, n * avg_degree, &mut rng).expect("feasible edge count")
}

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph/construction");
    for &n in &[1_000usize, 10_000] {
        let edges: Vec<(usize, usize)> = {
            let g = graph_of(n, 10, 1);
            g.edges().map(|(u, v)| (u.index(), v.index())).collect()
        };
        group.bench_with_input(BenchmarkId::new("from_edges", n), &edges, |b, edges| {
            b.iter(|| DiGraph::from_edges(n, edges.iter().copied()).unwrap());
        });
        let g = graph_of(n, 10, 1);
        group.bench_with_input(BenchmarkId::new("csr_freeze", n), &g, |b, g| {
            b.iter(|| CsrGraph::from(g));
        });
    }
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph/generators");
    group.sample_size(20);
    group.bench_function("gnm_36k_nodes_367k_edges", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(3);
            gnm_directed(36_692, 367_662, &mut rng).unwrap()
        });
    });
    group.bench_function("planted_partition_10k", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(4);
            planted_partition(&[4_000, 3_000, 3_000], 0.003, 0.0002, false, &mut rng).unwrap()
        });
    });
    group.bench_function("enron_like_full_scale", |b| {
        b.iter(|| lcrb_datasets::enron_like(&lcrb_datasets::DatasetConfig::new(1.0, 5)));
    });
    group.finish();
}

criterion_group!(benches, bench_construction, bench_generators);
criterion_main!(benches);
