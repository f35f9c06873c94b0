//! The `sketches` group: RR-sketch estimator vs Monte-Carlo
//! estimator, head to head on the end-to-end budgeted LCRB-P greedy
//! (CELF + initial gain sweep). The sketch arm pays a one-time
//! sampling pass (the adaptive `(ε, δ)` schedule) and then answers
//! every σ̂ query by counting covered sketches in an inverted index;
//! the MC arm replays the protector cascade on every stored
//! realization per query. The observed ratios are recorded in
//! EXPERIMENTS.md. A single σ̂ query is timed by perfbench's
//! `core.objective.sigma_us` and `core.sketch_objective.sigma_us`
//! probes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use lcrb::{
    greedy_with_budget, CandidatePool, Estimator, GreedyConfig, RumorBlockingInstance, SketchParams,
};
use lcrb_datasets::{hep_like, DatasetConfig};

/// A ~1.2k-node hep-like instance with two rumor originators — the
/// same shape as the `protection_budget` example and the fig4 cells.
fn fixture() -> RumorBlockingInstance {
    let ds = hep_like(&DatasetConfig::new(0.08, 5));
    let mut rng = SmallRng::seed_from_u64(21);
    RumorBlockingInstance::with_random_seeds(
        ds.graph.clone(),
        ds.planted.clone(),
        ds.pinned_communities[0],
        2,
        &mut rng,
    )
    .expect("pinned community is non-empty")
}

const BUDGET: usize = 4;

fn greedy_config(estimator: Estimator) -> GreedyConfig {
    GreedyConfig {
        realizations: 16,
        candidates: CandidatePool::BackwardRadius(2),
        master_seed: 9,
        estimator,
        ..GreedyConfig::default()
    }
}

/// End-to-end budgeted greedy: initial gain sweep over the candidate
/// pool plus the CELF refinement, under each estimator.
fn bench_greedy_end_to_end(c: &mut Criterion) {
    let inst = fixture();
    let n = inst.graph().node_count();
    let mut group = c.benchmark_group("sketches/greedy_budget4");
    group.sample_size(2);

    group.bench_with_input(BenchmarkId::new("mc", n), &(), |b, ()| {
        let cfg = greedy_config(Estimator::MonteCarlo);
        b.iter(|| black_box(greedy_with_budget(&inst, BUDGET, &cfg).unwrap().protectors));
    });

    group.bench_with_input(BenchmarkId::new("sketch", n), &(), |b, ()| {
        let cfg = greedy_config(Estimator::Sketch(SketchParams::default()));
        b.iter(|| black_box(greedy_with_budget(&inst, BUDGET, &cfg).unwrap().protectors));
    });
    group.finish();
}

criterion_group!(benches, bench_greedy_end_to_end);
criterion_main!(benches);
