//! Statistical equivalence harness for the two LCRB-P σ̂ estimators.
//!
//! The RR-sketch estimator trades the Monte-Carlo objective's
//! replayed cascades for sampled reverse-reachable sets, so its
//! greedy selections need not be byte-identical to the MC greedy's —
//! but they must be *statistically indistinguishable* when judged by
//! an independent evaluation. These tests pin that contract three
//! ways, none of them with exact-float asserts on stochastic output:
//!
//! 1. the MC-evaluated infection counts of the two selections have
//!    overlapping 95% confidence intervals (mean ± z·σ/√n, z = 1.96);
//! 2. the exact (deterministic) DOAM analytic oracle anchors both
//!    selections below the no-protection baseline, reproducibly;
//! 3. the raw σ̂ values the two estimators report for the *same*
//!    protector set agree within the MC objective's own confidence
//!    interval plus the sketch's ε·|B| accuracy budget.

use lcrb_repro::diffusion::{AveragedOutcome, PAPER_OPOAO_HOPS};
use lcrb_repro::graph::traversal::CsrBfsScratch;
use lcrb_repro::lcrb::ProtectionObjective;
use lcrb_repro::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const Z_95: f64 = 1.96;
const JUDGE_RUNS: usize = 128;

/// A ~760-node hep-like instance with two rumor originators.
fn instance() -> RumorBlockingInstance {
    let ds = hep_like(&DatasetConfig::new(0.05, 5));
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

fn select(inst: &RumorBlockingInstance, estimator: Estimator) -> Vec<NodeId> {
    let cfg = GreedyConfig {
        realizations: 8,
        candidates: CandidatePool::BackwardRadius(2),
        master_seed: 9,
        estimator,
        ..GreedyConfig::default()
    };
    greedy_with_budget(inst, 3, &cfg)
        .expect("budget-mode greedy cannot fail on a valid instance")
        .protectors
}

/// Judges a protector set with an independent OPOAO Monte-Carlo batch
/// (fresh seed, disjoint from both estimators' sampling seeds).
fn judge(inst: &RumorBlockingInstance, protectors: Vec<NodeId>) -> AveragedOutcome {
    let seeds = inst.seed_sets(protectors).expect("selection is valid");
    monte_carlo_csr(
        &OpoaoModel::default(),
        inst.snapshot(),
        &seeds,
        &MonteCarloConfig {
            runs: JUDGE_RUNS,
            base_seed: 777,
            threads: 0,
        },
    )
}

#[test]
fn selections_have_overlapping_95pct_confidence_intervals() {
    let inst = instance();
    let mc_sel = select(&inst, Estimator::MonteCarlo);
    let sk_sel = select(&inst, Estimator::Sketch(SketchParams::default()));
    assert_eq!(mc_sel.len(), 3);
    assert_eq!(sk_sel.len(), 3);

    let mc = judge(&inst, mc_sel);
    let sk = judge(&inst, sk_sel);
    let none = judge(&inst, Vec::new());

    // Both selections actually protect: fewer infections than doing
    // nothing by more than the no-blocking run's own standard error.
    let none_se = none.std_final_infected / (JUDGE_RUNS as f64).sqrt();
    assert!(
        mc.mean_final_infected() < none.mean_final_infected() - none_se,
        "MC selection does not protect: {} vs {}",
        mc.mean_final_infected(),
        none.mean_final_infected()
    );
    assert!(
        sk.mean_final_infected() < none.mean_final_infected() - none_se,
        "sketch selection does not protect: {} vs {}",
        sk.mean_final_infected(),
        none.mean_final_infected()
    );

    // The harness's equivalence criterion: 95% CIs overlap, i.e. the
    // gap between means is at most the sum of the CI half-widths.
    let gap = (mc.mean_final_infected() - sk.mean_final_infected()).abs();
    let half_widths =
        Z_95 * (mc.std_final_infected + sk.std_final_infected) / (JUDGE_RUNS as f64).sqrt();
    assert!(
        gap <= half_widths,
        "selections are statistically distinguishable: |{} - {}| = {gap} > {half_widths}",
        mc.mean_final_infected(),
        sk.mean_final_infected()
    );
}

#[test]
fn doam_analytic_oracle_anchors_both_selections() {
    let inst = instance();
    let mc_sel = select(&inst, Estimator::MonteCarlo);
    let sk_sel = select(&inst, Estimator::Sketch(SketchParams::default()));

    let count = |protectors: Vec<NodeId>| {
        doam_analytic_csr(
            inst.snapshot(),
            &inst.seed_sets(protectors).expect("selection is valid"),
            &mut CsrBfsScratch::new(),
            &mut CsrBfsScratch::new(),
        )
        .infected_count()
    };
    let baseline = count(Vec::new());
    let mc_infected = count(mc_sel.clone());
    let sk_infected = count(sk_sel.clone());

    // The oracle is exact and deterministic: rerunning it is the one
    // place where exact equality *is* the right assertion.
    assert_eq!(mc_infected, count(mc_sel));
    assert_eq!(sk_infected, count(sk_sel));
    // Protection under the deterministic model never hurts, for
    // either estimator's picks.
    assert!(mc_infected <= baseline);
    assert!(sk_infected <= baseline);
}

#[test]
fn estimators_agree_on_sigma_for_shared_protector_sets() {
    let inst = instance();
    let bridges = find_bridge_ends(&inst, BridgeEndRule::default());
    let params = SketchParams::default();
    let realizations = 64;

    let mc = ProtectionObjective::new(
        &inst,
        bridges.nodes.clone(),
        realizations,
        42,
        PAPER_OPOAO_HOPS,
    )
    .expect("realization count is positive");
    let sk = SketchObjective::build(&inst, bridges.nodes.clone(), params, 43, PAPER_OPOAO_HOPS)
        .expect("default sketch params are valid");

    // MC-side CI half-width for one protector set, from the
    // per-realization saved counts.
    let mc_ci = |set: &[NodeId]| {
        let mut saved = Vec::with_capacity(realizations);
        for i in 0..realizations {
            saved.push(mc.saved_on_realization(i, set).expect("index in range") as f64);
        }
        let n = saved.len() as f64;
        let mean = saved.iter().sum::<f64>() / n;
        let var = saved.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0);
        Z_95 * (var.sqrt() / n.sqrt())
    };
    let sketch_budget = params.epsilon * bridges.nodes.len() as f64;
    let total_bridges = bridges.nodes.len() as f64;

    // Nested candidate sets of growing size drawn from the bridge
    // ends themselves — the nodes both estimators care most about.
    //
    // The sketch inverts the §V-A label-free timestamp rule, a
    // relaxation of the stepwise engine the MC objective replays: a
    // relay the rumor captured still forwards protection in the
    // timestamp rule, so the sketch σ̂ may sit *above* the MC σ̂ on
    // small sets (see DESIGN.md). The relaxation never loses a save
    // the engine finds, and the slack vanishes as coverage saturates
    // — so the contract is one-sided closeness plus agreement at the
    // top of the chain, not pointwise equality.
    let sizes = [1usize, 2, 4, 8, 16, 32];
    let mut prev_mc = 0.0f64;
    let mut prev_sk = 0.0f64;
    for &size in &sizes {
        let set: Vec<NodeId> = bridges.nodes.iter().copied().take(size).collect();
        let sigma_mc = mc.sigma(&set).expect("valid protectors");
        let sigma_sk = sk.sigma(&set).expect("valid protectors");

        // Both estimates live in [0, |B|].
        assert!((0.0..=total_bridges).contains(&sigma_mc), "mc {sigma_mc}");
        assert!((0.0..=total_bridges).contains(&sigma_sk), "sk {sigma_sk}");
        // Both are monotone along the nested chain.
        assert!(sigma_mc >= prev_mc - 1e-9, "MC not monotone at {size}");
        assert!(sigma_sk >= prev_sk - 1e-9, "sketch not monotone at {size}");
        prev_mc = sigma_mc;
        prev_sk = sigma_sk;

        // One-sided: the sketch never under-reports protection beyond
        // the MC CI plus its own ε·|B| accuracy budget.
        let tolerance = mc_ci(&set) + sketch_budget;
        assert!(
            sigma_sk >= sigma_mc - tolerance,
            "size {size}: sketch {sigma_sk} under-reports MC {sigma_mc} beyond {tolerance}"
        );
    }

    // Where coverage saturates the relaxation slack is gone and the
    // two estimators must agree within CI + ε·|B|.
    let full: Vec<NodeId> = bridges.nodes.iter().copied().take(32).collect();
    let sigma_mc = mc.sigma(&full).expect("valid protectors");
    let sigma_sk = sk.sigma(&full).expect("valid protectors");
    let tolerance = mc_ci(&full) + sketch_budget;
    assert!(
        (sigma_mc - sigma_sk).abs() <= tolerance,
        "saturated sets disagree: |{sigma_mc} - {sigma_sk}| > {tolerance}"
    );
}
