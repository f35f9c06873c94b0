//! Benchmarks for the diffusion engine: single runs of every model
//! plus the Monte-Carlo driver — the inner loop of Figures 4–9.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use lcrb_datasets::{hep_like, DatasetConfig};
use lcrb_diffusion::{
    doam_analytic_csr, monte_carlo_csr, CompetitiveIcModel, CompetitiveLtModel, DoamModel,
    MonteCarloConfig, OpoaoModel, OpoaoRealization, SeedSets, SimWorkspace, TwoCascadeModel,
};
use lcrb_graph::traversal::CsrBfsScratch;
use lcrb_graph::{CsrGraph, NodeId};

fn fixture(scale: f64) -> (CsrGraph, SeedSets) {
    let ds = hep_like(&DatasetConfig::new(scale, 1));
    let rumors: Vec<NodeId> = (0..8).map(NodeId::new).collect();
    let protectors: Vec<NodeId> = (100..108).map(NodeId::new).collect();
    let seeds = SeedSets::new(&ds.graph, rumors, protectors).unwrap();
    (CsrGraph::from(&ds.graph), seeds)
}

/// Every arm runs on one snapshot with one reused workspace and one
/// reused BFS scratch pair, so it times the kernel alone.
fn bench_single_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("diffusion/single_run");
    for &scale in &[0.1f64, 0.5, 1.0] {
        let (g, seeds) = fixture(scale);
        let n = g.node_count();
        let mut ws = SimWorkspace::with_capacity(n);
        let (mut d_r, mut d_p) = (CsrBfsScratch::new(), CsrBfsScratch::new());
        group.bench_with_input(BenchmarkId::new("opoao_31_hops", n), &(), |b, ()| {
            let mut rng = SmallRng::seed_from_u64(1);
            b.iter(|| OpoaoModel::default().run_into(&g, &seeds, &mut ws, &mut rng));
        });
        group.bench_with_input(BenchmarkId::new("opoao_realized", n), &(), |b, ()| {
            let real = OpoaoRealization::new(5);
            b.iter(|| OpoaoModel::default().run_realized_into(&g, &seeds, &mut ws, &real));
        });
        group.bench_with_input(BenchmarkId::new("doam_step_sim", n), &(), |b, ()| {
            b.iter(|| DoamModel::default().run_deterministic_into(&g, &seeds, &mut ws));
        });
        group.bench_with_input(BenchmarkId::new("doam_analytic", n), &(), |b, ()| {
            b.iter(|| doam_analytic_csr(&g, &seeds, &mut d_r, &mut d_p));
        });
        group.bench_with_input(BenchmarkId::new("competitive_ic", n), &(), |b, ()| {
            let model = CompetitiveIcModel::new(0.1).unwrap();
            let mut rng = SmallRng::seed_from_u64(2);
            b.iter(|| model.run_into(&g, &seeds, &mut ws, &mut rng));
        });
        group.bench_with_input(BenchmarkId::new("competitive_lt", n), &(), |b, ()| {
            let model = CompetitiveLtModel::default();
            let mut rng = SmallRng::seed_from_u64(3);
            b.iter(|| model.run_into(&g, &seeds, &mut ws, &mut rng));
        });
    }
    group.finish();
}

fn bench_monte_carlo(c: &mut Criterion) {
    let mut group = c.benchmark_group("diffusion/monte_carlo");
    group.sample_size(10);
    let (g, seeds) = fixture(0.2);
    for &threads in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("opoao_100_runs", threads),
            &threads,
            |b, &threads| {
                let cfg = MonteCarloConfig {
                    runs: 100,
                    base_seed: 7,
                    threads,
                };
                b.iter(|| monte_carlo_csr(&OpoaoModel::default(), &g, &seeds, &cfg));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_single_runs, bench_monte_carlo);
criterion_main!(benches);
