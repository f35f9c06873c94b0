//! Property-based tests for the LCRB algorithms, including empirical
//! checks of the paper's theory: per-realization monotonicity and
//! submodularity of the protector-blocking count (Lemma 4 / Theorem
//! 1), the exactness of SCBG covers, set-cover invariants, and the
//! selection contract of `Solver::solve` on degenerate instances.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lcrb::setcover::{greedy_set_cover, harmonic};
use lcrb::{
    find_bridge_ends, greedy_with_budget, max_degree_ordering, protectors_to_cover_all, scbg,
    Algorithm, BridgeEndRule, Estimator, GreedyConfig, ProtectionObjective, RumorBlockingInstance,
    ScbgConfig, SketchParams, SolveRequest, Solver,
};
use lcrb_community::Partition;
use lcrb_diffusion::{DiffusionOutcome, DoamModel, SimWorkspace};
use lcrb_graph::traversal::{bfs_distances_where, Direction};
use lcrb_graph::{generators, DiGraph, NodeId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A random two-community instance with rumor seeds in community 0.
fn arb_instance() -> impl Strategy<Value = RumorBlockingInstance> {
    (4usize..14, 4usize..14, 0u64..10_000).prop_flat_map(|(a, b, seed)| {
        let n = a + b;
        (
            proptest::collection::vec((0..n, 0..n), n..(4 * n)),
            proptest::collection::btree_set(0..a, 1..3.min(a)),
        )
            .prop_map(move |(pairs, seeds)| {
                let mut g = DiGraph::with_nodes(n);
                for (u, v) in pairs {
                    if u != v {
                        let _ = g.add_edge(NodeId::new(u), NodeId::new(v));
                    }
                }
                let labels: Vec<usize> = (0..n).map(|i| usize::from(i >= a)).collect();
                let _ = seed;
                RumorBlockingInstance::new(
                    g,
                    Partition::from_labels(labels),
                    0,
                    seeds.into_iter().map(NodeId::new).collect(),
                )
                .expect("seeds are in community 0 by construction")
            })
    })
}

/// Small instances in four shapes, one per value of the first draw:
/// 0 = a random two-community graph; 1 = the same with every edge
/// leaving the rumor community dropped, so there are no bridge ends;
/// 2 = the first rumor seed isolated (no edges in or out); 3 = a
/// single community whose every node is a rumor seed.
fn arb_degenerate_instance() -> impl Strategy<Value = RumorBlockingInstance> {
    (0u32..4, 1usize..8, 1usize..8).prop_flat_map(|(shape, a, b)| {
        let n = if shape == 3 { a } else { a + b };
        (
            proptest::collection::vec((0..n, 0..n), 0..(3 * n + 1)),
            proptest::collection::btree_set(0..a, 1..(a + 1)),
        )
            .prop_map(move |(pairs, seeds)| {
                let labels: Vec<usize> = (0..n).map(|i| usize::from(i >= a)).collect();
                let seeds: Vec<usize> = if shape == 3 {
                    (0..n).collect()
                } else {
                    seeds.into_iter().collect()
                };
                let isolated = (shape == 2).then_some(seeds[0]);
                let mut g = DiGraph::with_nodes(n);
                for (u, v) in pairs {
                    let escapes = labels[u] == 0 && labels[v] != 0;
                    if u == v
                        || (shape == 1 && escapes)
                        || isolated.is_some_and(|s| s == u || s == v)
                    {
                        continue;
                    }
                    let _ = g.add_edge(NodeId::new(u), NodeId::new(v));
                }
                RumorBlockingInstance::new(
                    g,
                    Partition::from_labels(labels),
                    0,
                    seeds.into_iter().map(NodeId::new).collect(),
                )
                .expect("seeds are in community 0 by construction")
            })
    })
}

/// Planted-partition instances (two blocks, rumors in block 0) in
/// four shapes, one per value of the first draw: 0 = one rumor seed;
/// 1 = several rumor seeds; 2 = the first rumor seed isolated (every
/// arc at it dropped); 3 = no escape route (every arc leaving the
/// rumor community dropped).
fn arb_planted_instance() -> impl Strategy<Value = RumorBlockingInstance> {
    ((0u32..4, 2usize..12, 2usize..12), (2usize..5, 0u64..10_000)).prop_map(
        |((shape, a, b), (several, seed))| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (planted, labels) =
                generators::planted_partition(&[a, b], 0.35, 0.12, false, &mut rng).unwrap();
            let members: Vec<NodeId> = planted.nodes().filter(|v| labels[v.index()] == 0).collect();
            let count = if shape == 0 {
                1
            } else {
                several.min(members.len())
            };
            let seeds = members[..count].to_vec();
            let mut g = DiGraph::with_nodes(planted.node_count());
            for (u, v) in planted.edges() {
                let escapes = shape == 3 && labels[u.index()] == 0 && labels[v.index()] != 0;
                let at_isolated = shape == 2 && (u == seeds[0] || v == seeds[0]);
                if !(escapes || at_isolated) {
                    g.add_edge(u, v).unwrap();
                }
            }
            RumorBlockingInstance::new(g, Partition::from_labels(labels), 0, seeds)
                .expect("seeds are in block 0 by construction")
        },
    )
}

/// The DOAM step simulation of `protectors` on the instance's snapshot.
fn doam_outcome(inst: &RumorBlockingInstance, protectors: Vec<NodeId>) -> DiffusionOutcome {
    let seeds = inst.seed_sets(protectors).unwrap();
    let mut ws = SimWorkspace::new();
    DoamModel::default().run_deterministic_into(inst.snapshot(), &seeds, &mut ws);
    ws.to_outcome()
}

/// Every selection algorithm a `SolveRequest` can name.
const ALGORITHMS: [Algorithm; 8] = [
    Algorithm::Greedy,
    Algorithm::Scbg,
    Algorithm::Gvs,
    Algorithm::MaxDegree,
    Algorithm::Proximity,
    Algorithm::Random,
    Algorithm::PageRank,
    Algorithm::NoBlocking,
];

/// Distinct non-rumor nodes of an instance, for protector picks.
fn non_rumor_nodes(inst: &RumorBlockingInstance) -> Vec<NodeId> {
    inst.graph()
        .nodes()
        .filter(|&v| !inst.is_rumor_seed(v))
        .collect()
}

proptest! {
    /// `find_bridge_ends` walks the snapshot; its result must equal
    /// the definition, computed with the `DiGraph` reference BFS. With
    /// C the rumor community: under `WithinCommunity`, the nodes
    /// outside C reached when only nodes of C expand; under `AnyPath`,
    /// the reached nodes outside C with an in-neighbor in C.
    #[test]
    fn bridge_ends_match_their_definition(inst in arb_planted_instance()) {
        let g = inst.graph();
        let in_c = |v: NodeId| inst.in_rumor_community(v);
        let seeds = inst.rumor_seeds();
        let within = bfs_distances_where(g, seeds, Direction::Forward, u32::MAX, in_c);
        let any = bfs_distances_where(g, seeds, Direction::Forward, u32::MAX, |_| true);
        let reached_outside = |dist: &[Option<u32>], v: NodeId| dist[v.index()].is_some() && !in_c(v);
        let within_ends: Vec<NodeId> = g.nodes().filter(|&v| reached_outside(&within, v)).collect();
        let any_ends: Vec<NodeId> = g
            .nodes()
            .filter(|&v| reached_outside(&any, v) && g.in_neighbors(v).iter().any(|&u| in_c(u)))
            .collect();

        let found = find_bridge_ends(&inst, BridgeEndRule::WithinCommunity);
        prop_assert_eq!(&found.nodes, &within_ends);
        prop_assert_eq!(found.rule, BridgeEndRule::WithinCommunity);
        let found = find_bridge_ends(&inst, BridgeEndRule::AnyPath);
        prop_assert_eq!(&found.nodes, &any_ends);
        prop_assert_eq!(found.rule, BridgeEndRule::AnyPath);
        // With no arc leaving C there is no escape route at all.
        if g.edges().all(|(u, v)| !in_c(u) || in_c(v)) {
            prop_assert!(within_ends.is_empty() && any_ends.is_empty());
        }
    }

    /// Lemma 4 (monotonicity): on a fixed realization, adding a
    /// protector never decreases the number of saved bridge ends.
    #[test]
    fn saved_count_is_monotone_per_realization(
        inst in arb_instance(),
        picks in proptest::collection::vec(0usize..100, 1..4),
        rseed in 0u64..64,
    ) {
        let bridges = find_bridge_ends(&inst, BridgeEndRule::WithinCommunity);
        let obj = ProtectionObjective::new(&inst, bridges.nodes, 1, rseed, 31).unwrap();
        let pool = non_rumor_nodes(&inst);
        let mut set: Vec<NodeId> = Vec::new();
        let mut prev = obj.saved_on_realization(0, &set).unwrap();
        for p in picks {
            let candidate = pool[p % pool.len()];
            if set.contains(&candidate) {
                continue;
            }
            set.push(candidate);
            let cur = obj.saved_on_realization(0, &set).unwrap();
            prop_assert!(
                cur >= prev,
                "adding {candidate} dropped saved count {prev} -> {cur}"
            );
            prev = cur;
        }
    }

    /// Lemma 4 (submodularity): on a fixed realization, the marginal
    /// gain of a node shrinks as the base set grows:
    /// f(X ∪ v) − f(X) ≥ f(Y ∪ v) − f(Y) for X ⊆ Y.
    #[test]
    fn saved_count_is_submodular_per_realization(
        inst in arb_instance(),
        xs in proptest::collection::btree_set(0usize..100, 0..3),
        extra in proptest::collection::btree_set(0usize..100, 1..3),
        v in 0usize..100,
        rseed in 0u64..64,
    ) {
        let bridges = find_bridge_ends(&inst, BridgeEndRule::WithinCommunity);
        let obj = ProtectionObjective::new(&inst, bridges.nodes, 1, rseed, 31).unwrap();
        let pool = non_rumor_nodes(&inst);
        let to_nodes = |idxs: &std::collections::BTreeSet<usize>| -> Vec<NodeId> {
            let mut out: Vec<NodeId> = idxs.iter().map(|&i| pool[i % pool.len()]).collect();
            out.sort_unstable();
            out.dedup();
            out
        };
        let x = to_nodes(&xs);
        let mut y = x.clone();
        for n in to_nodes(&extra) {
            if !y.contains(&n) {
                y.push(n);
            }
        }
        let v = pool[v % pool.len()];
        if x.contains(&v) || y.contains(&v) {
            return Ok(());
        }
        let f = |s: &[NodeId]| obj.saved_on_realization(0, s).unwrap() as i64;
        let mut xv = x.clone();
        xv.push(v);
        let mut yv = y.clone();
        yv.push(v);
        let gain_x = f(&xv) - f(&x);
        let gain_y = f(&yv) - f(&y);
        prop_assert!(
            gain_x >= gain_y,
            "submodularity violated: gain at X = {gain_x} < gain at Y = {gain_y} (|X|={}, |Y|={})",
            x.len(),
            y.len()
        );
    }

    /// SCBG always covers every bridge end, and the DOAM simulation
    /// certifies the protection.
    #[test]
    fn scbg_cover_is_complete_and_certified(inst in arb_instance()) {
        let sol = scbg(&inst, &ScbgConfig::default());
        prop_assert!(sol.is_complete());
        let outcome = doam_outcome(&inst, sol.protectors.clone());
        for &v in &sol.bridge_ends.nodes {
            prop_assert!(!outcome.status(v).is_infected(), "bridge end {v} infected");
        }
        // Never selects rumor seeds and never repeats.
        let mut seen = std::collections::HashSet::new();
        for &p in &sol.protectors {
            prop_assert!(!inst.is_rumor_seed(p));
            prop_assert!(seen.insert(p));
        }
    }

    /// Every set greedy set cover selects contributes at least one
    /// new element, and coverage equals the coverable universe.
    #[test]
    fn greedy_set_cover_invariants(
        universe in 1usize..30,
        sets in proptest::collection::vec(proptest::collection::vec(0u32..30, 0..8), 0..12),
    ) {
        let sets: Vec<Vec<u32>> = sets
            .into_iter()
            .map(|s| s.into_iter().filter(|&e| (e as usize) < universe).collect())
            .collect();
        let sol = greedy_set_cover(universe, &sets);
        // Coverage equals the union of all sets.
        let mut coverable = vec![false; universe];
        for s in &sets {
            for &e in s {
                coverable[e as usize] = true;
            }
        }
        prop_assert_eq!(sol.covered, coverable.iter().filter(|&&b| b).count());
        // Replay: each selected set adds fresh coverage.
        let mut covered = vec![false; universe];
        for &i in &sol.selected {
            let fresh = sets[i].iter().any(|&e| !covered[e as usize]);
            prop_assert!(fresh, "set {i} added nothing");
            for &e in &sets[i] {
                covered[e as usize] = true;
            }
        }
    }

    /// Greedy set cover respects the harmonic bound against a known
    /// optimum built from disjoint blocks.
    #[test]
    fn greedy_set_cover_harmonic_bound(blocks in 1usize..5, block_size in 1usize..5, decoys in 0usize..6) {
        let universe = blocks * block_size;
        let mut sets: Vec<Vec<u32>> = (0..blocks)
            .map(|b| ((b * block_size) as u32..((b + 1) * block_size) as u32).collect())
            .collect();
        // Decoys: random strided subsets.
        for d in 0..decoys {
            sets.push(
                (0..universe as u32)
                    .filter(|e| (*e as usize + d).is_multiple_of(d + 2))
                    .collect(),
            );
        }
        let sol = greedy_set_cover(universe, &sets);
        prop_assert_eq!(sol.covered, universe);
        let bound = harmonic(universe) * blocks as f64 + 1e-9;
        prop_assert!(
            (sol.selected.len() as f64) <= bound,
            "greedy {} > H({universe}) * {blocks}",
            sol.selected.len()
        );
    }

    /// Coverage-mode heuristics return a prefix whose last element is
    /// necessary (dropping it leaves some bridge end unprotected).
    #[test]
    fn coverage_prefix_is_tight(inst in arb_instance()) {
        let ordering = max_degree_ordering(&inst);
        let Some(chosen) = protectors_to_cover_all(
            &inst,
            BridgeEndRule::WithinCommunity,
            &ordering,
        ) else {
            // MaxDegree ordering contains every non-rumor node, and
            // protecting a bridge end itself always works, so
            // coverage can only fail if... it cannot.
            prop_assert!(false, "max-degree over all nodes must cover");
            return Ok(());
        };
        // The chosen set covers (re-verified via simulation).
        let outcome = doam_outcome(&inst, chosen.clone());
        let bridges = find_bridge_ends(&inst, BridgeEndRule::WithinCommunity);
        for &v in &bridges.nodes {
            prop_assert!(!outcome.status(v).is_infected());
        }
        // Dropping the last pick breaks coverage (unless nothing was
        // needed at all).
        if let Some((_, prefix)) = chosen.split_last() {
            if !bridges.nodes.is_empty() && !chosen.is_empty() {
                let outcome = doam_outcome(&inst, prefix.to_vec());
                let still_unprotected = bridges
                    .nodes
                    .iter()
                    .any(|&v| outcome.status(v).is_infected());
                prop_assert!(still_unprotected, "last protector was redundant");
            }
        }
    }

    /// Budget-mode greedy respects the budget, avoids rumor seeds,
    /// and improves σ̂ monotonically.
    #[test]
    fn greedy_budget_mode_invariants(inst in arb_instance(), budget in 0usize..4) {
        let cfg = GreedyConfig {
            realizations: 4,
            max_hops: 12,
            ..GreedyConfig::default()
        };
        let sel = greedy_with_budget(&inst, budget, &cfg).unwrap();
        prop_assert!(sel.protectors.len() <= budget);
        for p in &sel.protectors {
            prop_assert!(!inst.is_rumor_seed(*p));
        }
        for w in sel.sigma_history.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12);
        }
        prop_assert_eq!(sel.sigma_history.len(), sel.protectors.len());
    }

    /// The selection contract of the single entry point: on small and
    /// degenerate instances, every algorithm (the greedy under both
    /// estimators) at budgets 0, 1 and 3 either returns distinct
    /// non-rumor protectors, at most `budget` of them (SCBG covers
    /// whatever the budget), or a typed `LcrbError` — and never
    /// panics.
    #[test]
    fn every_algorithm_honors_the_selection_contract(inst in arb_degenerate_instance()) {
        let solver = Solver::new(inst);
        let sketch = Estimator::Sketch(SketchParams {
            min_sketches: 16,
            max_sketches: 64,
            ..SketchParams::default()
        });
        for budget in [0, 1, 3] {
            let base = SolveRequest {
                realizations: 4,
                max_hops: 8,
                mc_runs: 2,
                ..SolveRequest::greedy_budget(budget)
            };
            let requests = ALGORITHMS
                .iter()
                .map(|&algorithm| SolveRequest { algorithm, ..base.clone() })
                .chain([base.clone().with_estimator(sketch)]);
            for request in requests {
                let name = request.algorithm.name();
                match catch_unwind(AssertUnwindSafe(|| solver.solve(&request))) {
                    Err(_) => prop_assert!(false, "{name} at budget {budget} panicked"),
                    Ok(Err(_typed)) => {}
                    Ok(Ok(report)) => {
                        let mut seen = std::collections::HashSet::new();
                        for &p in &report.protectors {
                            prop_assert!(
                                !solver.instance().is_rumor_seed(p),
                                "{name} picked rumor seed {p}"
                            );
                            prop_assert!(seen.insert(p), "{name} picked {p} twice");
                        }
                        prop_assert!(
                            request.algorithm == Algorithm::Scbg
                                || report.protectors.len() <= budget,
                            "{name} picked {} protectors at budget {budget}",
                            report.protectors.len()
                        );
                    }
                }
            }
        }
    }
}
