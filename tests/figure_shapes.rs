//! Two shape checks of EXPERIMENTS.md (Figures 4–6) as reduced-scale
//! assertions. Each builds one sub-experiment the way the
//! `experiments` harness does: dataset seed 1, the figure's rumor
//! community, |R| = 5 % of it, a protector budget of |R|, the MC
//! greedy (16 realizations, backward radius 1) against the proximity,
//! max-degree and no-blocking baselines, and a 100-run OPOAO
//! evaluation over 31 hops. Every
//! strategy is scored on the same runs, so each check is a paired
//! difference at hop 31 whose 95 % confidence interval must exclude 0.

use lcrb_repro::lcrb::evaluate::{evaluate_protector_sets, HopSeriesReport, PairedDifference};
use lcrb_repro::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Dataset and selection seed, as in `experiments --seed 1`.
const SEED: u64 = 1;
/// The scale the checks run at: a quarter of the 0.2 the OPOAO
/// figures of record use.
const SCALE: f64 = 0.05;

/// The 5 % sub-experiment of one OPOAO figure: `community` of the
/// network `ds`, with the strategies in the figure's order.
fn five_percent_report(
    ds: &lcrb_repro::datasets::SyntheticDataset,
    community: usize,
) -> HopSeriesReport {
    let size = ds.planted.community_sizes()[community];
    let count = ((size as f64 * 0.05).round() as usize).max(1);
    // The harness draws fraction `i`'s rumors from `seed ^ (i << 8)`;
    // 5 % is the second fraction of both figures.
    let mut rng = SmallRng::seed_from_u64(SEED ^ (1 << 8));
    let inst = RumorBlockingInstance::with_random_seeds(
        ds.graph.clone(),
        ds.planted.clone(),
        community,
        count,
        &mut rng,
    )
    .expect("pinned communities are non-empty");
    let budget = inst.rumor_seeds().len();
    let solver = Solver::with_config(inst, SolverConfig { master_seed: SEED });
    let greedy = solver
        .solve(&SolveRequest {
            realizations: 16,
            candidates: CandidatePool::BackwardRadius(1),
            ..SolveRequest::greedy_budget(budget)
        })
        .expect("budget-mode greedy cannot fail on a valid instance");
    let mut sets = vec![("greedy".to_owned(), greedy.protectors)];
    let baselines = [
        Algorithm::Proximity,
        Algorithm::MaxDegree,
        Algorithm::NoBlocking,
    ]
    .map(|a| SolveRequest::heuristic(a, budget));
    for run in solver.solve_many(&baselines) {
        let run = run.expect("budgeted heuristics cannot fail on a valid instance");
        sets.push((run.algorithm, run.protectors));
    }
    evaluate_protector_sets(
        solver.instance(),
        &OpoaoModel::default(),
        &sets,
        &MonteCarloConfig {
            runs: 100,
            base_seed: SEED,
            threads: 0,
        },
    )
    .expect("selector outputs are valid protector sets")
}

/// `strategy`'s paired hop-31 difference from `baseline`.
fn difference(report: &HopSeriesReport, strategy: &str, baseline: &str) -> PairedDifference {
    report
        .paired_differences(baseline)
        .expect("the baseline is one of the strategies")
        .into_iter()
        .find(|d| d.name == strategy)
        .expect("the strategy was evaluated")
}

/// Figure 4's shape: every blocking strategy ends below no-blocking.
#[test]
fn every_blocking_strategy_beats_no_blocking_on_a_fig4_instance() {
    let ds = hep_like(&DatasetConfig::new(SCALE, SEED));
    let report = five_percent_report(&ds, ds.pinned_communities[0]);
    for strategy in ["greedy", "proximity", "max-degree"] {
        let d = difference(&report, strategy, "no-blocking");
        assert_eq!(d.runs, 100);
        assert!(
            d.high() < 0.0,
            "{strategy} minus no-blocking at hop 31: {:.1} [{:.1}, {:.1}]",
            d.mean,
            d.low(),
            d.high()
        );
    }
}

/// Figure 6's shape: on the large Enron community the greedy ends
/// below proximity.
#[test]
fn greedy_beats_proximity_on_a_fig6_instance() {
    let ds = enron_like(&DatasetConfig::new(SCALE, SEED));
    let report = five_percent_report(&ds, ds.pinned_communities[0]);
    let d = difference(&report, "greedy", "proximity");
    assert!(
        d.high() < 0.0,
        "greedy minus proximity at hop 31: {:.1} [{:.1}, {:.1}]",
        d.mean,
        d.low(),
        d.high()
    );
}
