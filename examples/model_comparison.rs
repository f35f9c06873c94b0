//! Comparing the same protector set across diffusion models.
//!
//! ```text
//! cargo run --release --example model_comparison
//! ```
//!
//! The paper's conclusion invites studying LCRB "under other
//! influence diffusion models". This example seeds one instance,
//! solves it with SCBG, and measures the containment the same
//! protector set achieves under all four models implemented here:
//! OPOAO, DOAM, competitive IC, and competitive LT.

use lcrb_repro::diffusion::{CompetitiveIcModel, CompetitiveLtModel, CompetitiveSisModel};
use lcrb_repro::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn containment<M: TwoCascadeModel + Sync>(
    name: &str,
    model: &M,
    instance: &RumorBlockingInstance,
    protectors: &[NodeId],
    bridge_ends: &[NodeId],
) -> Result<(), Box<dyn std::error::Error>> {
    let mc = MonteCarloConfig {
        runs: 200,
        base_seed: 5,
        threads: 0,
    };
    let snapshot = instance.snapshot();
    let protected = instance.seed_sets(protectors.to_vec())?;
    let without = monte_carlo_csr(model, snapshot, &instance.seed_sets(vec![])?, &mc);
    let with = monte_carlo_csr(model, snapshot, &protected, &mc);
    // How many bridge ends stay safe on average is what LCRB cares
    // about; re-run one representative simulation to count them.
    let mut rng = SmallRng::seed_from_u64(11);
    let mut ws = SimWorkspace::new();
    model.run_into(snapshot, &protected, &mut ws, &mut rng);
    let safe = bridge_ends
        .iter()
        .filter(|&&v| !ws.status(v).is_infected())
        .count();
    println!(
        "{name:>15}: mean infected {:7.1} -> {:7.1}  (bridge ends safe in sample run: {safe}/{})",
        without.mean_final_infected(),
        with.mean_final_infected(),
        bridge_ends.len()
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = hep_like(&DatasetConfig::new(0.10, 77));
    println!("network: {}", ds.summary());
    let mut rng = SmallRng::seed_from_u64(3);
    let instance = RumorBlockingInstance::with_random_seeds(
        ds.graph.clone(),
        ds.planted.clone(),
        ds.pinned_communities[0],
        3,
        &mut rng,
    )?;
    let solution = scbg(&instance, &ScbgConfig::default());
    println!(
        "instance: {} rumor seeds, {} bridge ends, scbg picked {} protectors\n",
        instance.rumor_seeds().len(),
        solution.bridge_ends.len(),
        solution.protectors.len()
    );

    let bridge_ends = &solution.bridge_ends.nodes;
    let protectors = &solution.protectors;
    containment(
        "doam",
        &DoamModel::default(),
        &instance,
        protectors,
        bridge_ends,
    )?;
    containment(
        "opoao",
        &OpoaoModel::default(),
        &instance,
        protectors,
        bridge_ends,
    )?;
    containment(
        "competitive-ic",
        &CompetitiveIcModel::new(0.15)?,
        &instance,
        protectors,
        bridge_ends,
    )?;
    containment(
        "competitive-lt",
        &CompetitiveLtModel::default(),
        &instance,
        protectors,
        bridge_ends,
    )?;

    // Bonus: the non-progressive SIS view (Trpevski et al., related
    // work) — prevalence with and without the protector campaign.
    let sis = CompetitiveSisModel::new(0.2, 0.35, 0.25, 60)?;
    let mut rng = SmallRng::seed_from_u64(17);
    let mut ws = SimWorkspace::new();
    let snapshot = instance.snapshot();
    let quiet = sis.run_into(snapshot, &instance.seed_sets(vec![])?, &mut ws, &mut rng);
    let protected = instance.seed_sets(protectors.to_vec())?;
    let fought = sis.run_into(snapshot, &protected, &mut ws, &mut rng);
    println!(
        "{:>15}: endemic infected {:>7} -> {:>7}  (non-progressive prevalence after 60 steps)",
        "competitive-sis",
        quiet.final_infected(),
        fought.final_infected()
    );

    println!(
        "\nthe scbg cover is provably exact under DOAM; under the stochastic models\n\
         the same set still blocks most escapes but carries no guarantee — the\n\
         behaviour the paper's LCRB-P/LCRB-D split formalizes.\n\
         note the competitive-LT line: protector weight counts toward the shared\n\
         activation threshold, so adding protectors can *increase* total\n\
         activations — a concrete instance of the non-submodular models the\n\
         paper's conclusion flags as future work."
    );
    Ok(())
}
