//! A realistic misinformation-response scenario on an Enron-like
//! corporate email network.
//!
//! ```text
//! cargo run --release --example misinformation_campaign
//! ```
//!
//! The communications team learns a rumor is circulating in one
//! department. This walkthrough runs the *operational* pipeline a
//! downstream user would run: detect the community structure with
//! Louvain (no planted ground truth used), locate the department, and
//! compare response strategies — SCBG versus contacting the rumor's
//! direct contacts (Proximity) versus briefing the most-connected
//! employees (MaxDegree) — all at the same staffing budget.

use lcrb::evaluate::evaluate_protector_sets;
use lcrb_repro::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 10% scale model of the Enron email network (~3.7k nodes).
    let ds = enron_like(&DatasetConfig::new(0.10, 2024));
    println!("network: {}", ds.summary());

    // Operational step 1: detect the community structure (the paper
    // uses Blondel et al. Louvain, §VI-B).
    let detected = louvain(&ds.graph, &LouvainConfig::default());
    println!(
        "louvain: {} communities, modularity {:.3}",
        detected.partition.community_count(),
        detected.modularity
    );

    // Step 2: the rumor was observed in a department of roughly 260
    // people; pick the detected community closest to that size.
    let dept = detected
        .partition
        .community_closest_to_size(260)
        .expect("network has communities");
    let dept_size = detected.partition.community_sizes()[dept];
    println!("rumor department: community {dept} with {dept_size} members");

    // Step 3: five employees are known to be spreading the rumor.
    let mut rng = SmallRng::seed_from_u64(99);
    let instance = RumorBlockingInstance::with_random_seeds(
        ds.graph.clone(),
        detected.partition.clone(),
        dept,
        5,
        &mut rng,
    )?;
    let bridges = find_bridge_ends(&instance, BridgeEndRule::WithinCommunity);
    println!(
        "{} bridge ends connect the department to the rest of the company",
        bridges.len()
    );

    // Step 4: SCBG computes the cheapest full-coverage briefing list.
    let solver = Solver::new(instance);
    let solution = solver.solve(&SolveRequest::scbg())?;
    let budget = solution.protectors.len();
    println!("scbg needs {budget} employees briefed with the facts");

    // Step 5: compare against the intuitive alternatives at the SAME
    // staffing budget, under the DOAM (broadcast) model.
    let mut sets = vec![("scbg".to_owned(), solution.protectors)];
    for algorithm in [Algorithm::Proximity, Algorithm::MaxDegree] {
        let report = solver.solve(&SolveRequest::heuristic(algorithm, budget))?;
        sets.push((report.algorithm, report.protectors));
    }
    sets.push(("do-nothing".to_owned(), Vec::new()));
    let report = evaluate_protector_sets(
        solver.instance(),
        &DoamModel::default(),
        &sets,
        &MonteCarloConfig {
            runs: 1,
            base_seed: 7,
            threads: 1,
        },
    )?;
    println!("\nemployees reached by the rumor, per response strategy:");
    println!("{}", report.render_table());

    let final_counts: Vec<(String, f64)> = report
        .runs
        .iter()
        .map(|r| (r.name.clone(), r.averaged.mean_final_infected()))
        .collect();
    let scbg_final = final_counts[0].1;
    for (name, count) in &final_counts[1..] {
        println!(
            "scbg contains the rumor to {scbg_final:.0} people; {name} lets it reach {count:.0}"
        );
    }
    Ok(())
}
