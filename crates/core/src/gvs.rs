//! A Greedy Viral Stopper (GVS) style baseline, after Nguyen et al.'s
//! β-node-protector work — the third related-work approach the paper
//! discusses at length (§II, reference \[26\]).
//!
//! Where the LCRB greedy maximizes *bridge-end protection* and SCBG
//! covers bridge ends exactly, GVS greedily adds the node whose
//! recruitment most reduces the *expected total infected count*,
//! estimated by Monte-Carlo simulation — "greedily adds nodes with
//! the best influence gain". It ignores the community structure
//! entirely, which makes it a useful foil: comparing it against the
//! paper's algorithms isolates how much the bridge-end insight buys.

use lcrb_diffusion::{
    monte_carlo_sets_budgeted, AveragedOutcome, MonteCarloConfig, StopReason, TwoCascadeModel,
    WorkMeter,
};
use lcrb_graph::NodeId;

use crate::{find_bridge_ends, BridgeEndRule, CandidatePool, LcrbError, RumorBlockingInstance};

/// Configuration for [`greedy_viral_stopper`], built by the session
/// engine from a [`crate::engine::SolveRequest::gvs`] request.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GvsConfig {
    /// Monte-Carlo runs per candidate evaluation (GVS re-simulates,
    /// so keep this modest).
    pub(crate) mc_runs: usize,
    /// Base seed for the Monte-Carlo estimates.
    pub(crate) seed: u64,
    /// Candidate pool (defaults to the bridge-end backward
    /// neighborhood, same as the LCRB greedy, to keep runtimes
    /// comparable).
    pub(crate) candidates: CandidatePool,
    /// Bridge-end rule used only to build restricted pools.
    pub(crate) rule: BridgeEndRule,
}

impl Default for GvsConfig {
    fn default() -> Self {
        GvsConfig {
            mc_runs: 16,
            seed: 0,
            candidates: CandidatePool::BackwardRadius(1),
            rule: BridgeEndRule::WithinCommunity,
        }
    }
}

/// The result of a GVS run.
#[derive(Clone, Debug)]
pub struct GvsSelection {
    /// Selected protectors, in selection order.
    pub protectors: Vec<NodeId>,
    /// Expected infected count after each selection (index 0 = after
    /// the first pick); prepended by the no-protector baseline at
    /// index 0 of `baseline`.
    pub infected_history: Vec<f64>,
    /// Expected infected count with no protectors.
    pub baseline: f64,
}

/// Greedily selects `budget` protectors minimizing the Monte-Carlo
/// expected infected count under `model` (GVS-style), metered by
/// `meter`.
///
/// Each round scores every remaining candidate with `mc_runs`
/// simulations in one Monte-Carlo batch
/// ([`monte_carlo_sets_budgeted`]), so the cost is up to `budget ×
/// |candidates| × mc_runs` simulations — the brute-force flavor of
/// the original GVS. Prefer the LCRB greedy or SCBG for real
/// deployments; this exists as the related-work baseline.
///
/// A round is charged whole (all-or-nothing), so checkpoints sit at
/// *round* boundaries: a stop discards that round, the returned
/// prefix is exactly the completed-rounds prefix an uninterrupted run
/// would have, and a work-budget stop lands at the same round, with
/// the same charge, on every run. Returns the (possibly partial)
/// selection plus `Some(reason)` when a budget or deadline stopped the
/// loop early.
///
/// # Errors
///
/// [`LcrbError::Interrupted`] on cancellation anywhere, or on any
/// stop during the no-protector baseline (there is no prefix to
/// salvage before it completes); [`LcrbError::Seeds`] only if the
/// instance is internally inconsistent (cannot happen through the
/// public constructors).
pub(crate) fn greedy_viral_stopper<M>(
    instance: &RumorBlockingInstance,
    model: &M,
    budget: usize,
    config: &GvsConfig,
    meter: &mut WorkMeter,
) -> Result<(GvsSelection, Option<StopReason>), LcrbError>
where
    M: TwoCascadeModel + Sync,
{
    let mc = MonteCarloConfig {
        runs: config.mc_runs.max(1),
        base_seed: config.seed,
        threads: 0,
    };

    let snapshot = instance.snapshot();
    let bridge_ends = find_bridge_ends(instance, config.rule);
    let mut remaining =
        crate::greedy::candidate_pool_for(instance, &bridge_ends, config.candidates);
    let seeds = instance.seed_sets(Vec::new())?;
    let baseline = monte_carlo_sets_budgeted(model, snapshot, &[seeds], &mc, meter)
        .map_err(|reason| LcrbError::Interrupted { reason })?
        .first()
        .map_or(0.0, AveragedOutcome::mean_final_infected);

    let mut selected: Vec<NodeId> = Vec::new();
    let mut infected_history = Vec::new();
    let mut current = baseline;
    let mut stop = None;

    // Each round removes a candidate, so none scores an empty pool.
    for _ in 0..budget.min(remaining.len()) {
        let trials = remaining
            .iter()
            .map(|&c| instance.seed_sets(selected.iter().copied().chain([c]).collect()))
            .collect::<Result<Vec<_>, _>>()?;
        let scored = match monte_carlo_sets_budgeted(model, snapshot, &trials, &mc, meter) {
            Ok(scored) => scored,
            Err(reason @ StopReason::Cancelled) => return Err(LcrbError::Interrupted { reason }),
            Err(reason) => {
                // Budget/deadline stop: keep the completed rounds.
                stop = Some(reason);
                break;
            }
        };
        // The first candidate with the fewest expected infections.
        let best = scored
            .iter()
            .map(AveragedOutcome::mean_final_infected)
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1));
        let Some((idx, value)) = best.filter(|&(_, value)| value < current) else {
            break; // no candidate reduces expected infections
        };
        selected.push(remaining.swap_remove(idx));
        current = value;
        infected_history.push(value);
    }
    Ok((
        GvsSelection {
            protectors: selected,
            infected_history,
            baseline,
        },
        stop,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrb_community::Partition;
    use lcrb_diffusion::{derive_stream, DoamModel, OpoaoModel, RunBudget, SimWorkspace};
    use lcrb_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// GVS replayed with a scalar batch per candidate (`run_into` on
    /// each run's stream): the picks, and the baseline followed by each
    /// pick's expected infections.
    fn per_candidate_picks<M: TwoCascadeModel>(
        inst: &RumorBlockingInstance,
        model: &M,
        budget: usize,
        config: &GvsConfig,
    ) -> (Vec<NodeId>, Vec<f64>) {
        let mut ws = SimWorkspace::new();
        let mut score = |set: Vec<NodeId>| {
            let seeds = inst.seed_sets(set).unwrap();
            let total: usize = (0..config.mc_runs as u64)
                .map(|r| {
                    let mut rng = SmallRng::seed_from_u64(derive_stream(config.seed, r));
                    model.run_into(inst.snapshot(), &seeds, &mut ws, &mut rng);
                    ws.infected_count()
                })
                .sum();
            total as f64 / config.mc_runs as f64
        };
        let bridge_ends = find_bridge_ends(inst, config.rule);
        let mut pool = crate::greedy::candidate_pool_for(inst, &bridge_ends, config.candidates);
        let (mut picks, mut history) = (Vec::new(), vec![score(Vec::new())]);
        while picks.len() < budget && !pool.is_empty() {
            let values: Vec<f64> = (pool.iter())
                .map(|&c| score([picks.as_slice(), &[c]].concat()))
                .collect();
            let best = (0..values.len())
                .reduce(|b, i| if values[i] < values[b] { i } else { b })
                .unwrap();
            if values[best] >= history[picks.len()] {
                break;
            }
            picks.push(pool.swap_remove(best));
            history.push(values[best]);
        }
        (picks, history)
    }

    fn gvs<M: TwoCascadeModel + Sync>(
        inst: &RumorBlockingInstance,
        model: &M,
        budget: usize,
        config: &GvsConfig,
    ) -> Result<GvsSelection, LcrbError> {
        let mut meter = WorkMeter::unlimited();
        greedy_viral_stopper(inst, model, budget, config, &mut meter).map(|(sel, _)| sel)
    }

    fn instance(seed: u64) -> RumorBlockingInstance {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (g, labels) =
            generators::planted_partition(&[20, 20], 0.3, 0.03, false, &mut rng).unwrap();
        RumorBlockingInstance::with_random_seeds(g, Partition::from_labels(labels), 0, 2, &mut rng)
            .unwrap()
    }

    #[test]
    fn gvs_reduces_expected_infections_monotonically() {
        let inst = instance(3);
        let sel = gvs(
            &inst,
            &OpoaoModel::new(15),
            3,
            &GvsConfig {
                mc_runs: 8,
                ..GvsConfig::default()
            },
        )
        .unwrap();
        assert!(sel.protectors.len() <= 3);
        let mut prev = sel.baseline;
        for &v in &sel.infected_history {
            assert!(v < prev, "history not strictly improving: {v} vs {prev}");
            prev = v;
        }
    }

    #[test]
    fn each_rounds_pick_matches_per_candidate_scalar_batches() {
        // Candidates tie here under both models, so the first-in-pool
        // tie-break is pinned too.
        let inst = instance(2);
        let config = GvsConfig {
            mc_runs: 4,
            seed: 4,
            ..GvsConfig::default()
        };
        let opoao = OpoaoModel::new(10);
        let sel = gvs(&inst, &opoao, 3, &config).unwrap();
        let (picks, history) = per_candidate_picks(&inst, &opoao, 3, &config);
        assert!(picks.len() >= 2, "only {} rounds picked", picks.len());
        assert_eq!((sel.protectors, sel.baseline), (picks, history[0]));
        assert_eq!(sel.infected_history, history[1..]);
        let sel = gvs(&inst, &DoamModel::default(), 3, &config).unwrap();
        let (picks, history) = per_candidate_picks(&inst, &DoamModel::default(), 3, &config);
        assert!(!picks.is_empty());
        assert_eq!((sel.protectors, sel.baseline), (picks, history[0]));
        assert_eq!(sel.infected_history, history[1..]);
    }

    #[test]
    fn a_sim_cap_inside_round_two_keeps_round_one_and_its_charge() {
        let inst = instance(3);
        let config = GvsConfig {
            mc_runs: 8,
            ..GvsConfig::default()
        };
        let model = OpoaoModel::new(15);
        let full = gvs(&inst, &model, 3, &config).unwrap();
        assert!(full.protectors.len() >= 2);
        let bridge_ends = find_bridge_ends(&inst, config.rule);
        let pool = crate::greedy::candidate_pool_for(&inst, &bridge_ends, config.candidates);
        let (runs, pool) = (8, pool.len() as u64);
        let through_round_one = runs + runs * pool;
        // One simulation short of round 2's whole batch.
        let cap = through_round_one + runs * (pool - 1) - 1;
        let mut meter = WorkMeter::new(RunBudget::unlimited().with_max_sims(cap), None, None);
        let (sel, stop) = greedy_viral_stopper(&inst, &model, 3, &config, &mut meter).unwrap();
        assert_eq!(stop, Some(StopReason::SimBudget));
        assert_eq!(sel.protectors, full.protectors[..1]);
        assert_eq!(sel.infected_history, full.infected_history[..1]);
        assert_eq!(meter.spent().0, through_round_one);
    }

    #[test]
    fn gvs_never_selects_rumor_seeds() {
        let inst = instance(5);
        let sel = gvs(&inst, &DoamModel::default(), 4, &GvsConfig::default()).unwrap();
        for p in &sel.protectors {
            assert!(!inst.is_rumor_seed(*p));
        }
    }

    #[test]
    fn gvs_on_deterministic_model_is_deterministic() {
        let inst = instance(7);
        let a = gvs(&inst, &DoamModel::default(), 2, &GvsConfig::default()).unwrap();
        let b = gvs(&inst, &DoamModel::default(), 2, &GvsConfig::default()).unwrap();
        assert_eq!(a.protectors, b.protectors);
        assert_eq!(a.baseline, b.baseline);
    }

    #[test]
    fn zero_budget_returns_baseline_only() {
        let inst = instance(9);
        let sel = gvs(&inst, &DoamModel::default(), 0, &GvsConfig::default()).unwrap();
        assert!(sel.protectors.is_empty());
        assert!(sel.infected_history.is_empty());
        assert!(sel.baseline >= inst.rumor_seeds().len() as f64);
    }

    #[test]
    fn gvs_stops_when_nothing_helps() {
        // Rumor community is a closed 2-cycle: no protector can
        // reduce the (already minimal) infected count.
        let g = lcrb_graph::DiGraph::from_edges(4, [(0, 1), (1, 0), (2, 3)]).unwrap();
        let p = Partition::from_labels(vec![0, 0, 1, 1]);
        let inst = RumorBlockingInstance::new(g, p, 0, vec![lcrb_graph::NodeId::new(0)]).unwrap();
        let sel = gvs(&inst, &DoamModel::default(), 3, &GvsConfig::default()).unwrap();
        assert!(sel.protectors.is_empty());
    }
}
