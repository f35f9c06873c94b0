//! Benchmarks for the paper's algorithms, one group per experiment
//! family: SCBG / coverage heuristics (Table I, Figs 7–9), the greedy
//! (Figs 4–6), and the underlying set-cover engine. Bridge-end
//! detection is timed by perfbench's `core.bridge` probe.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use lcrb::setcover::greedy_set_cover;
use lcrb::{
    greedy_with_budget, max_degree_ordering, protectors_to_cover_all, scbg, BridgeEndRule,
    CandidatePool, GreedyConfig, RumorBlockingInstance, ScbgConfig,
};
use lcrb_datasets::{enron_like, hep_like, DatasetConfig};

fn hep_instance(scale: f64, rumors: usize) -> RumorBlockingInstance {
    let ds = hep_like(&DatasetConfig::new(scale, 1));
    let mut rng = SmallRng::seed_from_u64(1);
    RumorBlockingInstance::with_random_seeds(
        ds.graph.clone(),
        ds.planted.clone(),
        ds.pinned_communities[0],
        rumors,
        &mut rng,
    )
    .unwrap()
}

fn enron_instance(scale: f64, pinned: usize, rumors: usize) -> RumorBlockingInstance {
    let ds = enron_like(&DatasetConfig::new(scale, 1));
    let mut rng = SmallRng::seed_from_u64(1);
    RumorBlockingInstance::with_random_seeds(
        ds.graph.clone(),
        ds.planted.clone(),
        ds.pinned_communities[pinned],
        rumors,
        &mut rng,
    )
    .unwrap()
}

fn bench_scbg_table1(c: &mut Criterion) {
    // Table I cells: SCBG vs the coverage heuristics at the paper's
    // full network sizes.
    let mut group = c.benchmark_group("lcrb/table1");
    group.sample_size(10);
    let cases: Vec<(&str, RumorBlockingInstance)> = vec![
        ("hep_c308_r5pct", hep_instance(1.0, 15)),
        ("enron_c80_r10pct", enron_instance(1.0, 1, 8)),
        ("enron_c2631_r1pct", enron_instance(1.0, 0, 26)),
    ];
    for (label, inst) in &cases {
        group.bench_with_input(BenchmarkId::new("scbg", label), inst, |b, inst| {
            b.iter(|| scbg(inst, &ScbgConfig::default()));
        });
        group.bench_with_input(
            BenchmarkId::new("max_degree_coverage", label),
            inst,
            |b, inst| {
                let ordering = max_degree_ordering(inst);
                b.iter(|| protectors_to_cover_all(inst, BridgeEndRule::WithinCommunity, &ordering));
            },
        );
    }
    group.finish();
}

fn bench_greedy_figures(c: &mut Criterion) {
    // The Figs 4–6 inner step: budget-mode greedy under OPOAO at a
    // reduced scale (the paper itself calls the greedy expensive).
    let mut group = c.benchmark_group("lcrb/greedy_opoao");
    group.sample_size(10);
    let inst = hep_instance(0.05, 4);
    for &realizations in &[8usize, 32] {
        group.bench_with_input(
            BenchmarkId::new("budget4_backward1", realizations),
            &realizations,
            |b, &realizations| {
                let cfg = GreedyConfig {
                    realizations,
                    candidates: CandidatePool::BackwardRadius(1),
                    ..GreedyConfig::default()
                };
                b.iter(|| greedy_with_budget(&inst, 4, &cfg).unwrap());
            },
        );
    }
    group.finish();
}

fn bench_set_cover(c: &mut Criterion) {
    let mut group = c.benchmark_group("lcrb/set_cover");
    for &(universe, sets, size) in &[(1_000usize, 2_000usize, 20usize), (10_000, 20_000, 30)] {
        let mut rng = SmallRng::seed_from_u64(9);
        let instance: Vec<Vec<u32>> = (0..sets)
            .map(|_| {
                use rand::Rng;
                (0..size)
                    .map(|_| rng.gen_range(0..universe as u32))
                    .collect()
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("greedy", format!("{universe}x{sets}")),
            &instance,
            |b, sets| {
                b.iter(|| greedy_set_cover(universe, sets));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scbg_table1,
    bench_greedy_figures,
    bench_set_cover
);
criterion_main!(benches);
