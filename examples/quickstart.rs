//! Quickstart: the full LCRB pipeline on a hand-built toy network.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds a two-community directed graph, starts a rumor in one
//! community, opens a [`Solver`] session, solves LCRB-D with SCBG
//! (batched alongside a max-degree baseline via `solve_many`), and
//! verifies with a DOAM simulation that the rumor never escapes.

use lcrb_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A network with two communities:
    //   community 0 (the office):   0, 1, 2, 3
    //   community 1 (the neighbors): 4, 5, 6, 7
    // The office gossips internally, and nodes 2 and 3 talk to the
    // neighbor community.
    let mut g = DiGraph::with_nodes(8);
    for (u, v) in [
        // dense office chatter
        (0, 1),
        (1, 2),
        (2, 0),
        (1, 3),
        (3, 1),
        (0, 3),
        // escape routes to the neighbors
        (2, 4),
        (3, 5),
        // neighbor-side chatter
        (4, 5),
        (5, 6),
        (6, 7),
        (7, 4),
    ] {
        g.add_edge(NodeId::new(u), NodeId::new(v))?;
    }
    let partition = Partition::from_labels(vec![0, 0, 0, 0, 1, 1, 1, 1]);

    // A rumor starts at node 0; a solver session owns the instance
    // and caches the artifacts every query shares. Solves go through
    // `&self`, so one session can serve many callers at once.
    let instance = RumorBlockingInstance::new(g, partition, 0, vec![NodeId::new(0)])?;
    let solver = Solver::new(instance);

    // Stage 1 of both algorithms: find the bridge ends.
    let bridges = find_bridge_ends(solver.instance(), BridgeEndRule::WithinCommunity);
    println!("bridge ends: {:?}", bridges.nodes);

    // Stage 2 (LCRB-D): SCBG picks the least-cost protector set. The
    // batched API answers the max-degree baseline in the same call —
    // results come back in request order.
    let batch = [
        SolveRequest::scbg(),
        SolveRequest::heuristic(Algorithm::MaxDegree, 2),
    ];
    let mut reports = solver.solve_many(&batch).into_iter();
    let report = reports.next().expect("one report per request")?;
    let baseline = reports.next().expect("one report per request")?;
    let SolveDetail::Scbg(solution) = &report.detail else {
        unreachable!("an SCBG request carries an SCBG detail");
    };
    println!(
        "scbg selected {} protector(s): {:?} (candidate pool {})",
        report.protectors.len(),
        report.protectors,
        solution.candidate_count
    );
    println!(
        "max-degree baseline would spend {} protector(s): {:?}",
        baseline.protectors.len(),
        baseline.protectors
    );
    assert!(solution.is_complete());

    // Verify: simulate DOAM with and without protection.
    let instance = solver.instance();
    let snapshot = instance.snapshot();
    let mut unprotected = SimWorkspace::new();
    let seeds = instance.seed_sets(vec![])?;
    DoamModel::default().run_deterministic_into(snapshot, &seeds, &mut unprotected);
    let mut protected = SimWorkspace::new();
    let seeds = instance.seed_sets(report.protectors.clone())?;
    DoamModel::default().run_deterministic_into(snapshot, &seeds, &mut protected);
    println!(
        "infected without protection: {} / {}",
        unprotected.infected_count(),
        snapshot.node_count()
    );
    println!(
        "infected with protection:    {} / {}",
        protected.infected_count(),
        snapshot.node_count()
    );
    for v in &bridges.nodes {
        assert!(!protected.status(*v).is_infected());
    }
    println!("every bridge end is protected — the rumor never left its community.");
    Ok(())
}
