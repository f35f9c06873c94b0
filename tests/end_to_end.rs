//! End-to-end integration tests spanning every crate: dataset
//! generation → community detection → bridge ends → solvers →
//! simulation-verified protection.

use lcrb_repro::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn hep_instance(scale: f64, seed: u64, rumors: usize) -> RumorBlockingInstance {
    let ds = hep_like(&DatasetConfig::new(scale, seed));
    let mut rng = SmallRng::seed_from_u64(seed);
    RumorBlockingInstance::with_random_seeds(
        ds.graph.clone(),
        ds.planted.clone(),
        ds.pinned_communities[0],
        rumors,
        &mut rng,
    )
    .expect("pinned community exists")
}

#[test]
fn scbg_contains_the_rumor_end_to_end() {
    let inst = hep_instance(0.08, 42, 3);
    let solution = scbg(&inst, &ScbgConfig::default());
    assert!(solution.is_complete());
    assert!(!solution.protectors.is_empty());

    // Without protection the rumor escapes: every bridge end is
    // infected under DOAM (they are reachable by construction).
    let unprotected =
        DoamModel::default().run_deterministic(inst.graph(), &inst.seed_sets(vec![]).unwrap());
    for &v in &solution.bridge_ends.nodes {
        assert!(
            unprotected.status(v).is_infected(),
            "bridge end {v} not reached"
        );
    }

    // With the SCBG protectors, none is.
    let protected = DoamModel::default().run_deterministic(
        inst.graph(),
        &inst.seed_sets(solution.protectors.clone()).unwrap(),
    );
    for &v in &solution.bridge_ends.nodes {
        assert!(!protected.status(v).is_infected());
    }
    // Containment is dramatic: protected run infects a small fraction
    // of what the unprotected run does.
    assert!(protected.infected_count() * 5 < unprotected.infected_count());
}

#[test]
fn pipeline_works_with_detected_communities() {
    // Operational pipeline: Louvain instead of planted labels.
    let ds = enron_like(&DatasetConfig::new(0.04, 7));
    let detected = louvain(&ds.graph, &LouvainConfig::default());
    assert!(detected.partition.community_count() > 3);
    assert!(detected.modularity > 0.3);

    let community = detected
        .partition
        .community_closest_to_size(100)
        .expect("communities exist");
    let mut rng = SmallRng::seed_from_u64(1);
    let inst = RumorBlockingInstance::with_random_seeds(
        ds.graph.clone(),
        detected.partition.clone(),
        community,
        3,
        &mut rng,
    )
    .unwrap();
    let solution = scbg(&inst, &ScbgConfig::default());
    assert!(solution.is_complete());
    let outcome = DoamModel::default().run_deterministic(
        inst.graph(),
        &inst.seed_sets(solution.protectors.clone()).unwrap(),
    );
    for &v in &solution.bridge_ends.nodes {
        assert!(!outcome.status(v).is_infected());
    }
}

#[test]
fn greedy_beats_no_blocking_under_opoao() {
    let inst = hep_instance(0.05, 11, 2);
    let cfg = GreedyConfig {
        realizations: 16,
        candidates: CandidatePool::BackwardRadius(1),
        master_seed: 4,
        ..GreedyConfig::default()
    };
    let budget = 4;
    let selection = greedy_with_budget(&inst, budget, &cfg).unwrap();
    assert!(selection.protectors.len() <= budget);

    let mc = MonteCarloConfig {
        runs: 40,
        base_seed: 9,
        threads: 0,
    };
    let model = OpoaoModel::default();
    let blocked = monte_carlo(
        &model,
        inst.graph(),
        &inst.seed_sets(selection.protectors.clone()).unwrap(),
        &mc,
    );
    let unblocked = monte_carlo(&model, inst.graph(), &inst.seed_sets(vec![]).unwrap(), &mc);
    assert!(
        blocked.mean_final_infected() < unblocked.mean_final_infected(),
        "greedy protection did not reduce infections: {} vs {}",
        blocked.mean_final_infected(),
        unblocked.mean_final_infected()
    );
}

#[test]
fn scbg_needs_fewer_protectors_than_coverage_heuristics() {
    // The Table I headline, as a regression test at small scale.
    use lcrb::{max_degree_ordering, protectors_to_cover_all};
    let inst = hep_instance(0.08, 5, 8);
    let solution = scbg(&inst, &ScbgConfig::default());

    let md_order = max_degree_ordering(&inst);
    let md = protectors_to_cover_all(&inst, BridgeEndRule::WithinCommunity, &md_order)
        .expect("max-degree ordering covers eventually");
    assert!(
        solution.protectors.len() <= md.len(),
        "scbg {} > max-degree {}",
        solution.protectors.len(),
        md.len()
    );
}

#[test]
fn alpha_one_greedy_matches_problem_definition() {
    // LCRB-D is LCRB with alpha = 1 (Definition 3): the greedy at
    // alpha close to 1 should protect nearly all bridge ends in
    // expectation.
    let inst = hep_instance(0.04, 3, 2);
    let solver = Solver::with_config(inst, SolverConfig { master_seed: 2 });
    let report = solver
        .solve(&SolveRequest {
            realizations: 16,
            candidates: CandidatePool::BbstUnion,
            ..SolveRequest::greedy_alpha(0.9)
        })
        .unwrap();
    let SolveDetail::Greedy(sel) = report.detail else {
        panic!("a greedy request carries a greedy detail");
    };
    assert!(sel.target_met, "greedy failed to hit alpha = 0.9 target");
    assert!(sel.achieved >= 0.9 * sel.bridge_ends.len() as f64 - 1e-9);
}

#[test]
fn greedy_generalizes_to_competitive_ic() {
    use lcrb::ObjectiveModel;
    use lcrb_repro::diffusion::CompetitiveIcModel;
    let inst = hep_instance(0.05, 21, 2);
    let ic = CompetitiveIcModel::new(0.5).unwrap();
    let cfg = GreedyConfig {
        realizations: 16,
        model: ObjectiveModel::CompetitiveIc(ic),
        candidates: CandidatePool::BackwardRadius(1),
        master_seed: 6,
        ..GreedyConfig::default()
    };
    let sel = greedy_with_budget(&inst, 4, &cfg).unwrap();
    assert!(!sel.protectors.is_empty());

    // The selection genuinely helps under the IC model it optimized.
    let mc = MonteCarloConfig {
        runs: 200,
        base_seed: 3,
        threads: 0,
    };
    let blocked = monte_carlo(
        &ic,
        inst.graph(),
        &inst.seed_sets(sel.protectors.clone()).unwrap(),
        &mc,
    );
    let unblocked = monte_carlo(&ic, inst.graph(), &inst.seed_sets(vec![]).unwrap(), &mc);
    assert!(blocked.mean_final_infected() < unblocked.mean_final_infected());
    // Variance tracking is populated for stochastic models.
    assert!(unblocked.std_final_infected > 0.0);
}

#[test]
fn umbrella_reexports_are_usable() {
    // Every crate is reachable through the umbrella.
    let g = lcrb_repro::graph::generators::path_graph(3);
    assert_eq!(g.node_count(), 3);
    let p = lcrb_repro::community::Partition::singletons(3);
    assert_eq!(p.community_count(), 3);
    let seeds = lcrb_repro::diffusion::SeedSets::rumors_only(&g, vec![NodeId::new(0)]).unwrap();
    assert_eq!(seeds.rumors().len(), 1);
    assert_eq!(lcrb_repro::lcrb::setcover::harmonic(1), 1.0);
    let ds = lcrb_repro::datasets::hep_like(&DatasetConfig::new(0.02, 1));
    assert!(ds.graph.node_count() > 100);
}
