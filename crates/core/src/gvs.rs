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
    monte_carlo_csr_budgeted, MonteCarloConfig, StopReason, TwoCascadeModel, WorkMeter,
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
/// Each round evaluates every remaining candidate with `mc_runs`
/// simulations, so the cost is `budget × |candidates| × mc_runs`
/// simulations — the brute-force flavor of the original GVS. Prefer
/// the LCRB greedy or SCBG for real deployments; this exists as the
/// related-work baseline.
///
/// Each candidate evaluation charges its `mc_runs` simulations
/// (all-or-nothing) and polls for cancellation. Checkpoints sit at
/// *round* boundaries: a stop mid-round discards that round's partial
/// scan, so the returned prefix is exactly the completed-rounds
/// prefix an uninterrupted run would have — and work-budget stops
/// land at the same round on every run. Returns the (possibly
/// partial) selection plus `Some(reason)` when a budget or deadline
/// stopped the loop early.
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

    let bridge_ends = find_bridge_ends(instance, config.rule);
    let candidates = crate::greedy::candidate_pool_for(instance, &bridge_ends, config.candidates);
    let seeds = instance.seed_sets(Vec::new())?;
    let baseline = monte_carlo_csr_budgeted(model, instance.snapshot(), &seeds, &mc, meter)
        .map_err(|reason| LcrbError::Interrupted { reason })?
        .mean_final_infected();

    let mut selected: Vec<NodeId> = Vec::new();
    let mut infected_history = Vec::new();
    let mut current = baseline;
    let mut remaining = candidates;
    let mut stop = None;

    'rounds: for _ in 0..budget {
        let mut best: Option<(f64, usize)> = None;
        for (i, &c) in remaining.iter().enumerate() {
            let mut trial = selected.clone();
            trial.push(c);
            let seeds = instance.seed_sets(trial)?;
            let v = match monte_carlo_csr_budgeted(model, instance.snapshot(), &seeds, &mc, meter) {
                Ok(avg) => avg.mean_final_infected(),
                Err(StopReason::Cancelled) => {
                    return Err(LcrbError::Interrupted {
                        reason: StopReason::Cancelled,
                    })
                }
                Err(reason) => {
                    // Budget/deadline stop mid-round: discard the
                    // partial round, keep the completed-rounds prefix.
                    stop = Some(reason);
                    break 'rounds;
                }
            };
            if best.is_none_or(|(bv, _)| v < bv) {
                best = Some((v, i));
            }
        }
        let Some((value, idx)) = best else { break };
        if value >= current {
            break; // no candidate reduces expected infections
        }
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
    use lcrb_diffusion::{DoamModel, OpoaoModel};
    use lcrb_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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
