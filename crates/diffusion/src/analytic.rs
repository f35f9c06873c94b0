//! The DOAM analytic oracle.
//!
//! Under DOAM the outcome has a closed form: with `d_R(v)`/`d_P(v)`
//! the plain multi-source BFS distances from the rumor/protector
//! seeds, node `v` activates at hop `min(d_P(v), d_R(v))` and is
//! protected iff `d_P(v) <= d_R(v)`. (Induction along a shortest
//! cascade path: a blocked intermediate node would imply a strictly
//! shorter opposing distance to `v`, contradicting the path being
//! shortest.) [`doam_analytic_csr`] computes this directly with two
//! BFS passes in caller-owned scratches and is the fast protection
//! oracle used by the Table I coverage experiments; its agreement
//! with the step simulator [`DoamModel::run_deterministic_into`] is
//! enforced by unit and property tests. [`doam_safe_targets_csr`]
//! answers the coverage question for a list of targets only.
//!
//! This module is deliberately *outside* the declared hot-module
//! list (see `cargo xtask lint`): the oracle allocates its owned
//! outcome. The zero-allocation kernel is the step simulator.
//!
//! [`DoamModel::run_deterministic_into`]: crate::DoamModel::run_deterministic_into

// xtask-allow-file: index -- the per-hop counters are sized max_hop + 1 from the very activation hops they count
use lcrb_graph::traversal::{CsrBfsScratch, Direction};
use lcrb_graph::{CsrGraph, NodeId};

use crate::{DiffusionOutcome, HopRecord, SeedSets, Status};

/// Computes the DOAM outcome analytically from two multi-source BFS
/// passes (see the module docs for the correctness argument), run in
/// caller-owned scratches so sweeping many seed sets on one graph
/// performs no per-call distance-map allocation. Produces exactly the
/// same statuses, activation hops, and trace as
/// [`DoamModel::run_deterministic_into`](crate::DoamModel::run_deterministic_into)
/// with an unlimited hop budget.
///
/// # Panics
///
/// Panics if `seeds` refers to nodes outside the snapshot.
#[must_use]
pub fn doam_analytic_csr(
    graph: &CsrGraph,
    seeds: &SeedSets,
    d_r: &mut CsrBfsScratch,
    d_p: &mut CsrBfsScratch,
) -> DiffusionOutcome {
    d_r.run(graph, seeds.rumors(), Direction::Forward, u32::MAX);
    d_p.run(graph, seeds.protectors(), Direction::Forward, u32::MAX);
    let n = graph.node_count();
    let mut status = vec![Status::Inactive; n];
    let mut activation = vec![None; n];
    let mut max_hop = 0u32;
    for (v, (s_slot, a_slot)) in graph
        .nodes()
        .zip(status.iter_mut().zip(activation.iter_mut()))
    {
        let (s, h) = match (d_p.distance(v), d_r.distance(v)) {
            (Some(p), Some(r)) if p <= r => (Status::Protected, p),
            (Some(p), None) => (Status::Protected, p),
            (_, Some(r)) => (Status::Infected, r),
            (None, None) => continue,
        };
        *s_slot = s;
        *a_slot = Some(h);
        max_hop = max_hop.max(h);
    }
    // Rebuild the hop trace from activation times.
    let mut new_infected = vec![0usize; max_hop as usize + 1];
    let mut new_protected = vec![0usize; max_hop as usize + 1];
    for (s, h) in status.iter().zip(&activation) {
        if let Some(h) = h {
            match s {
                Status::Infected => new_infected[*h as usize] += 1,
                Status::Protected => new_protected[*h as usize] += 1,
                Status::Inactive => unreachable!("activated node has a status"),
            }
        }
    }
    let mut trace = Vec::with_capacity(max_hop as usize + 2);
    let (mut ti, mut tp) = (0usize, 0usize);
    for hop in 0..=max_hop {
        ti += new_infected[hop as usize];
        tp += new_protected[hop as usize];
        trace.push(HopRecord {
            hop,
            new_infected: new_infected[hop as usize],
            new_protected: new_protected[hop as usize],
            total_infected: ti,
            total_protected: tp,
        });
    }
    // The step simulator records one final hop with no activity
    // before detecting quiescence — only when some seed existed.
    if n > 0 && (ti > 0 || tp > 0) {
        trace.push(HopRecord {
            hop: max_hop + 1,
            new_infected: 0,
            new_protected: 0,
            total_infected: ti,
            total_protected: tp,
        });
    }
    DiffusionOutcome::new(status, activation, trace, true)
}

/// Reports whether each node of `targets` would be protected (not
/// infected) under DOAM with the given seeds — the coverage check
/// used by the LCRB-D experiments. A target is "safe" when it is
/// protected or never reached. The two BFS passes run in
/// caller-owned scratches.
///
/// # Panics
///
/// Panics if `seeds` or `targets` refer to nodes outside the
/// snapshot.
#[must_use]
pub fn doam_safe_targets_csr(
    graph: &CsrGraph,
    seeds: &SeedSets,
    targets: &[NodeId],
    d_r: &mut CsrBfsScratch,
    d_p: &mut CsrBfsScratch,
) -> Vec<bool> {
    d_r.run(graph, seeds.rumors(), Direction::Forward, u32::MAX);
    d_p.run(graph, seeds.protectors(), Direction::Forward, u32::MAX);
    targets
        .iter()
        .map(|&v| match (d_p.distance(v), d_r.distance(v)) {
            (_, None) => true,
            (Some(p), Some(r)) => p <= r,
            (None, Some(_)) => false,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::seeds;
    use crate::{DoamModel, SimWorkspace};
    use lcrb_graph::{generators, DiGraph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The step simulator's outcome: the oracle's reference.
    fn simulate(g: &CsrGraph, s: &SeedSets, ws: &mut SimWorkspace) -> DiffusionOutcome {
        DoamModel::default().run_deterministic_into(g, s, ws);
        ws.to_outcome()
    }

    fn scratches() -> (CsrBfsScratch, CsrBfsScratch) {
        (CsrBfsScratch::new(), CsrBfsScratch::new())
    }

    #[test]
    fn analytic_matches_simulation_on_fixtures() {
        let cases: Vec<(DiGraph, SeedSets)> = vec![
            {
                let g = generators::path_graph(6);
                let s = seeds(&g, &[0], &[3]);
                (g, s)
            },
            {
                let g = generators::star_graph(8);
                let s = seeds(&g, &[1], &[2]);
                (g, s)
            },
            {
                let g = generators::cycle_graph(9);
                let s = seeds(&g, &[0], &[4]);
                (g, s)
            },
            {
                let g = DiGraph::from_edges(3, [(0, 2), (1, 2)]).unwrap();
                let s = seeds(&g, &[0], &[1]);
                (g, s)
            },
        ];
        let (mut d_r, mut d_p) = scratches();
        let mut ws = SimWorkspace::new();
        for (g, s) in cases {
            let csr = CsrGraph::from(&g);
            let sim = simulate(&csr, &s, &mut ws);
            let ana = doam_analytic_csr(&csr, &s, &mut d_r, &mut d_p);
            assert_eq!(sim.statuses(), ana.statuses());
            for v in g.nodes() {
                assert_eq!(sim.activation_hop(v), ana.activation_hop(v), "node {v}");
            }
            assert_eq!(sim.trace(), ana.trace());
        }
    }

    #[test]
    fn analytic_matches_simulation_on_random_graphs() {
        let (mut d_r, mut d_p) = scratches();
        let mut ws = SimWorkspace::new();
        for seed in 0..30u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = generators::gnm_directed(50, 170, &mut rng).unwrap();
            let csr = CsrGraph::from(&g);
            let s = seeds(&g, &[0, 1], &[2, 3]);
            let sim = simulate(&csr, &s, &mut ws);
            let ana = doam_analytic_csr(&csr, &s, &mut d_r, &mut d_p);
            assert_eq!(sim.statuses(), ana.statuses(), "seed {seed}");
            assert_eq!(sim.trace(), ana.trace(), "seed {seed}");
        }
    }

    #[test]
    fn oracle_matches_simulator_across_scratch_reuse() {
        // One scratch pair and one workspace serve several seed sets
        // on a larger graph and then on a smaller one.
        let (mut d_r, mut d_p) = scratches();
        let mut ws = SimWorkspace::new();
        for (n, m, graph_seed) in [(50usize, 170usize, 12u64), (20, 60, 13)] {
            let mut rng = SmallRng::seed_from_u64(graph_seed);
            let g = generators::gnm_directed(n, m, &mut rng).unwrap();
            let csr = CsrGraph::from(&g);
            let targets: Vec<NodeId> = g.nodes().collect();
            for (r, p) in [(0usize, 1usize), (5, 9), (13, 2)] {
                let s = seeds(&g, &[r], &[p]);
                let reference = simulate(&csr, &s, &mut ws);
                let fast = doam_analytic_csr(&csr, &s, &mut d_r, &mut d_p);
                assert_eq!(
                    reference.statuses(),
                    fast.statuses(),
                    "n {n} seeds ({r}, {p})"
                );
                for &v in &targets {
                    assert_eq!(reference.activation_hop(v), fast.activation_hop(v));
                }
                assert_eq!(reference.trace(), fast.trace());
                let safe: Vec<bool> = targets
                    .iter()
                    .map(|&v| !reference.status(v).is_infected())
                    .collect();
                assert_eq!(
                    doam_safe_targets_csr(&csr, &s, &targets, &mut d_r, &mut d_p),
                    safe
                );
            }
        }
    }

    #[test]
    fn safe_targets_match_outcome() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generators::gnm_directed(40, 160, &mut rng).unwrap();
        let csr = CsrGraph::from(&g);
        let s = seeds(&g, &[0], &[1, 2]);
        let outcome = simulate(&csr, &s, &mut SimWorkspace::new());
        let targets: Vec<NodeId> = g.nodes().collect();
        let (mut d_r, mut d_p) = scratches();
        let safe = doam_safe_targets_csr(&csr, &s, &targets, &mut d_r, &mut d_p);
        for (v, &is_safe) in targets.iter().zip(&safe) {
            assert_eq!(is_safe, !outcome.status(*v).is_infected(), "node {v}");
        }
    }

    #[test]
    fn empty_seeds_trace() {
        let g = generators::path_graph(3);
        let csr = CsrGraph::from(&g);
        let s = seeds(&g, &[], &[]);
        let sim = simulate(&csr, &s, &mut SimWorkspace::new());
        let (mut d_r, mut d_p) = scratches();
        let ana = doam_analytic_csr(&csr, &s, &mut d_r, &mut d_p);
        assert_eq!(sim.infected_count(), 0);
        assert_eq!(sim.trace(), ana.trace());
    }
}
