//! Benchmarks for the diffusion kernels that no perfbench probe
//! times: the DOAM step simulation and the competitive IC and LT
//! models. perfbench's `diffusion.opoao.run_us`,
//! `diffusion.analytic.doam_ms` and `diffusion.montecarlo.*` probes
//! time the OPOAO run, the analytic DOAM oracle and the Monte-Carlo
//! driver.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use lcrb_datasets::{hep_like, DatasetConfig};
use lcrb_diffusion::{
    CompetitiveIcModel, CompetitiveLtModel, DoamModel, SeedSets, SimWorkspace, TwoCascadeModel,
};
use lcrb_graph::{CsrGraph, NodeId};

fn fixture(scale: f64) -> (CsrGraph, SeedSets) {
    let ds = hep_like(&DatasetConfig::new(scale, 1));
    let rumors: Vec<NodeId> = (0..8).map(NodeId::new).collect();
    let protectors: Vec<NodeId> = (100..108).map(NodeId::new).collect();
    let seeds = SeedSets::new(&ds.graph, rumors, protectors).unwrap();
    (CsrGraph::from(&ds.graph), seeds)
}

/// Every arm runs on one snapshot with one reused workspace, so it
/// times the kernel alone.
fn bench_single_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("diffusion/single_run");
    for &scale in &[0.1f64, 0.5, 1.0] {
        let (g, seeds) = fixture(scale);
        let n = g.node_count();
        let mut ws = SimWorkspace::with_capacity(n);
        group.bench_with_input(BenchmarkId::new("doam_step_sim", n), &(), |b, ()| {
            b.iter(|| DoamModel::default().run_deterministic_into(&g, &seeds, &mut ws));
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

criterion_group!(benches, bench_single_runs);
criterion_main!(benches);
