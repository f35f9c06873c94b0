//! Ablation benchmarks for the design choices called out in
//! DESIGN.md §8: CELF vs plain greedy, BBST depth caps, bridge-end
//! rules, candidate pools, and the DOAM analytic oracle vs the step
//! simulator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use lcrb::{
    find_bridge_ends, greedy_with_budget, scbg, BridgeEndRule, CandidatePool, GreedyConfig,
    RumorBlockingInstance, ScbgConfig,
};
use lcrb_datasets::{hep_like, DatasetConfig};
use lcrb_diffusion::{doam_analytic_csr, DoamModel, SimWorkspace};
use lcrb_graph::traversal::CsrBfsScratch;

fn instance(scale: f64, rumors: usize) -> RumorBlockingInstance {
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

fn bench_celf_vs_plain(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/celf");
    group.sample_size(10);
    let inst = instance(0.04, 3);
    for (label, lazy) in [("celf", true), ("plain", false)] {
        group.bench_with_input(BenchmarkId::new(label, "budget3"), &lazy, |b, &lazy| {
            let cfg = GreedyConfig {
                realizations: 8,
                lazy,
                candidates: CandidatePool::BackwardRadius(1),
                ..GreedyConfig::default()
            };
            b.iter(|| greedy_with_budget(&inst, 3, &cfg).unwrap());
        });
    }
    group.finish();
}

fn bench_bbst_depth_cap(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/bbst_depth");
    let inst = instance(0.5, 15);
    for cap in [Some(1u32), Some(2), None] {
        let label = cap.map_or("full".to_owned(), |d| format!("depth{d}"));
        group.bench_with_input(BenchmarkId::new("scbg", &label), &cap, |b, &cap| {
            let cfg = ScbgConfig {
                max_bbst_depth: cap,
                ..ScbgConfig::default()
            };
            b.iter(|| scbg(&inst, &cfg));
        });
    }
    group.finish();
}

fn bench_bridge_rules(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/bridge_rule");
    let inst = instance(1.0, 15);
    for (label, rule) in [
        ("within_community", BridgeEndRule::WithinCommunity),
        ("any_path", BridgeEndRule::AnyPath),
    ] {
        group.bench_with_input(BenchmarkId::new("find", label), &rule, |b, &rule| {
            b.iter(|| find_bridge_ends(&inst, rule));
        });
    }
    group.finish();
}

fn bench_candidate_pools(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/candidate_pool");
    group.sample_size(10);
    let inst = instance(0.03, 2);
    for (label, pool) in [
        ("backward1", CandidatePool::BackwardRadius(1)),
        ("backward2", CandidatePool::BackwardRadius(2)),
        ("bbst_union", CandidatePool::BbstUnion),
    ] {
        group.bench_with_input(BenchmarkId::new(label, "budget2"), &pool, |b, &pool| {
            let cfg = GreedyConfig {
                realizations: 8,
                candidates: pool,
                ..GreedyConfig::default()
            };
            b.iter(|| greedy_with_budget(&inst, 2, &cfg).unwrap());
        });
    }
    group.finish();
}

fn bench_doam_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/doam_oracle");
    let inst = instance(1.0, 15);
    let seeds = inst.seed_sets(vec![]).unwrap();
    let csr = inst.snapshot();
    let mut ws = SimWorkspace::with_capacity(csr.node_count());
    let (mut d_r, mut d_p) = (CsrBfsScratch::new(), CsrBfsScratch::new());
    group.bench_function("step_simulator", |b| {
        b.iter(|| DoamModel::default().run_deterministic_into(csr, &seeds, &mut ws));
    });
    group.bench_function("analytic_bfs", |b| {
        b.iter(|| doam_analytic_csr(csr, &seeds, &mut d_r, &mut d_p));
    });
    group.finish();
}

fn bench_degree_model(c: &mut Criterion) {
    // Homogeneous (G(n, m) blocks) vs heavy-tailed (Chung–Lu) dataset
    // variants: how much hub structure changes SCBG's work.
    let mut group = c.benchmark_group("ablation/degree_model");
    group.sample_size(10);
    for (label, hetero) in [("homogeneous", false), ("heterogeneous", true)] {
        let cfg = DatasetConfig::new(0.3, 1);
        let ds = if hetero {
            lcrb_datasets::hep_like_heterogeneous(&cfg)
        } else {
            lcrb_datasets::hep_like(&cfg)
        };
        let mut rng = SmallRng::seed_from_u64(1);
        let inst = RumorBlockingInstance::with_random_seeds(
            ds.graph.clone(),
            ds.planted.clone(),
            ds.pinned_communities[0],
            5,
            &mut rng,
        )
        .unwrap();
        group.bench_function(format!("scbg/{label}"), |b| {
            b.iter(|| scbg(&inst, &ScbgConfig::default()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_degree_model,
    bench_celf_vs_plain,
    bench_bbst_depth_cap,
    bench_bridge_rules,
    bench_candidate_pools,
    bench_doam_oracle
);
criterion_main!(benches);
