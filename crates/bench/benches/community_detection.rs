//! Benchmarks for community detection — the first stage of the
//! paper's experimental pipeline (§VI-B uses Blondel's Louvain).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use lcrb_community::{louvain, modularity, LouvainConfig};
use lcrb_datasets::{hep_like, DatasetConfig};

fn bench_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("community/detection");
    group.sample_size(10);
    for &scale in &[0.05f64, 0.2] {
        let ds = hep_like(&DatasetConfig::new(scale, 1));
        let nodes = ds.graph.node_count();
        group.bench_with_input(BenchmarkId::new("louvain", nodes), &ds.graph, |b, g| {
            b.iter(|| louvain(g, &LouvainConfig::default()));
        });
        group.bench_with_input(
            BenchmarkId::new("modularity", nodes),
            &(&ds.graph, &ds.planted),
            |b, (g, p)| {
                b.iter(|| modularity(g, p));
            },
        );
    }
    group.finish();
}

fn bench_full_scale_louvain(c: &mut Criterion) {
    let mut group = c.benchmark_group("community/full_scale");
    group.sample_size(10);
    let ds = hep_like(&DatasetConfig::new(1.0, 1));
    group.bench_function("louvain_hep_15k", |b| {
        b.iter(|| louvain(&ds.graph, &LouvainConfig::default()));
    });
    group.finish();
}

criterion_group!(benches, bench_detection, bench_full_scale_louvain);
criterion_main!(benches);
