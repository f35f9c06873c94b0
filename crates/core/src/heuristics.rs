//! The comparison heuristics of §VI-B1 — the candidate orderings
//! behind MaxDegree, Proximity and PageRank, which
//! [`crate::engine::Solver::solve`] truncates to the request's budget
//! — plus the coverage-mode runner used for Table I.

// xtask-allow-file: index -- score/degree arrays are node_count-sized and candidates come from the same graph's node iterator
use lcrb_graph::traversal::{CsrBfsScratch, Direction};
use lcrb_graph::NodeId;

use crate::{find_bridge_ends, BridgeEndRule, RumorBlockingInstance};

/// MaxDegree's ordering: "a basic algorithm, which simply chooses the
/// nodes according to the decreasing order of node degree as the
/// protectors" (§VI-B1). Returns all non-rumor nodes by decreasing
/// out-degree (influence flows along out-edges); ties break toward
/// smaller node ids for determinism.
#[must_use]
pub fn max_degree_ordering(instance: &RumorBlockingInstance) -> Vec<NodeId> {
    let g = instance.snapshot();
    let mut nodes: Vec<NodeId> = g.nodes().filter(|&v| !instance.is_rumor_seed(v)).collect();
    nodes.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v));
    nodes
}

/// Proximity's candidate pool: "a simple heuristic algorithm, in
/// which the direct out-neighbors of rumors are chosen as the
/// protectors" (§VI-B1). Returns the distinct direct out-neighbors of
/// the rumor originators, excluding the originators themselves, in
/// ascending id order; a solve samples its picks from this pool at
/// random when the budget is smaller, as in the paper's experiments.
#[must_use]
pub fn proximity_pool(instance: &RumorBlockingInstance) -> Vec<NodeId> {
    let g = instance.snapshot();
    let mut seen = vec![false; g.node_count()];
    let mut pool = Vec::new();
    for &r in instance.rumor_seeds() {
        for &w in g.out_neighbors(r) {
            if !seen[w.index()] && !instance.is_rumor_seed(w) {
                seen[w.index()] = true;
                pool.push(w);
            }
        }
    }
    pool.sort_unstable();
    pool
}

/// The PageRank baseline's ordering — an extension beyond the paper's
/// heuristics: like MaxDegree but ranking all non-rumor nodes by
/// decreasing PageRank score (at `PageRankConfig::default()`, damping
/// 0.85) on the full graph, which rewards globally central relays
/// instead of raw out-degree. Ties break toward smaller ids.
pub(crate) fn pagerank_ordering(instance: &RumorBlockingInstance) -> Vec<NodeId> {
    let pr = lcrb_graph::pagerank::pagerank(
        instance.graph(),
        &lcrb_graph::pagerank::PageRankConfig::default(),
    );
    let mut nodes: Vec<NodeId> = instance
        .graph()
        .nodes()
        .filter(|&v| !instance.is_rumor_seed(v))
        .collect();
    nodes.sort_by(|&a, &b| {
        pr.scores[b.index()]
            .partial_cmp(&pr.scores[a.index()])
            // xtask-allow: panic -- pagerank scores are finite by construction (damped convex sums of finite values)
            .expect("pagerank scores are finite")
            .then(a.cmp(&b))
    });
    nodes
}

/// Coverage mode for Table I: walk `ordering` front to back, adding
/// protectors until every bridge end is protected under the DOAM
/// timing oracle (`d_P(v) <= d_R(v)`, protector priority on ties).
/// Both distance maps live in reusable CSR scratches over the
/// instance's snapshot: `d_R` is one forward BFS, and `d_P` grows by
/// improve-only relaxation per added protector, so the whole sweep
/// costs little more than one BFS per added protector and allocates
/// only the two scratches.
///
/// Returns the protectors actually needed, or `None` if the ordering
/// is exhausted before full coverage (e.g. a pool too small to reach
/// some bridge end in time).
#[must_use]
pub fn protectors_to_cover_all(
    instance: &RumorBlockingInstance,
    rule: BridgeEndRule,
    ordering: &[NodeId],
) -> Option<Vec<NodeId>> {
    let csr = instance.snapshot();
    let bridge_ends = find_bridge_ends(instance, rule);
    let mut d_r = CsrBfsScratch::new();
    d_r.run(csr, instance.rumor_seeds(), Direction::Forward, u32::MAX);
    let mut d_p = CsrBfsScratch::new();
    d_p.begin(csr.node_count());

    let uncovered = |d_p: &CsrBfsScratch| {
        bridge_ends.nodes.iter().any(|&v| {
            match (d_p.distance(v), d_r.distance(v)) {
                (_, None) => false, // unreachable: safe
                (Some(p), Some(r)) => p > r,
                (None, Some(_)) => true,
            }
        })
    };

    if !uncovered(&d_p) {
        return Some(Vec::new());
    }
    let mut chosen = Vec::new();
    for &u in ordering {
        debug_assert!(!instance.is_rumor_seed(u), "ordering contains a rumor seed");
        d_p.relax_forward(csr, u);
        chosen.push(u);
        if !uncovered(&d_p) {
            return Some(chosen);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Algorithm, SolveDetail, SolveRequest, Solver};
    use lcrb_community::Partition;
    use lcrb_graph::DiGraph;

    fn fixture() -> RumorBlockingInstance {
        // Rumor community {0,1,2}, neighbors {3,4,5}.
        // 0 -> 1 -> 3, 0 -> 2 -> 4, 4 -> 5, 3 -> 5, 5 -> 3 (extra
        // degree for node 5).
        let g = DiGraph::from_edges(6, [(0, 1), (1, 3), (0, 2), (2, 4), (4, 5), (3, 5), (5, 3)])
            .unwrap();
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]);
        RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)]).unwrap()
    }

    /// The protectors and report name of a heuristic solve.
    fn solve(
        inst: &RumorBlockingInstance,
        algorithm: Algorithm,
        budget: usize,
    ) -> (Vec<NodeId>, String) {
        let report = Solver::new(inst.clone())
            .solve(&SolveRequest::heuristic(algorithm, budget))
            .unwrap();
        assert!(matches!(report.detail, SolveDetail::Heuristic));
        (report.protectors, report.algorithm)
    }

    #[test]
    fn max_degree_orders_by_out_degree() {
        let inst = fixture();
        let order = max_degree_ordering(&inst);
        // Out-degrees: 1:1, 2:1, 3:1, 4:1, 5:1 — all ties except no
        // node 0 (rumor). Check rumor exclusion and determinism.
        assert!(!order.contains(&NodeId::new(0)));
        assert_eq!(order.len(), 5);
        let (picked, name) = solve(&inst, Algorithm::MaxDegree, 2);
        assert_eq!(picked.len(), 2);
        assert_eq!(name, "max-degree");
    }

    #[test]
    fn max_degree_prefers_hubs() {
        let g = DiGraph::from_edges(5, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 3)]).unwrap();
        let p = Partition::from_labels(vec![0, 0, 1, 1, 1]);
        let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)]).unwrap();
        let (picked, _) = solve(&inst, Algorithm::MaxDegree, 1);
        assert_eq!(picked, vec![NodeId::new(1)]); // out-degree 3 hub
    }

    #[test]
    fn proximity_pool_is_rumor_out_neighbors() {
        let inst = fixture();
        assert_eq!(proximity_pool(&inst), vec![NodeId::new(1), NodeId::new(2)]);
        let (picked, name) = solve(&inst, Algorithm::Proximity, 5);
        assert_eq!(picked.len(), 2); // pool smaller than budget
        assert_eq!(name, "proximity");
    }

    #[test]
    fn proximity_excludes_rumor_seeds_from_pool() {
        // Both 0 and 1 are rumor seeds; 1's out-neighbors are 0
        // (excluded: a seed) and 2 (kept).
        let g = DiGraph::from_edges(3, [(0, 1), (1, 0), (1, 2)]).unwrap();
        let p = Partition::from_labels(vec![0, 0, 1]);
        let inst =
            RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0), NodeId::new(1)]).unwrap();
        assert_eq!(proximity_pool(&inst), vec![NodeId::new(2)]);
    }

    #[test]
    fn random_selection_respects_budget_and_exclusion() {
        let inst = fixture();
        let (picked, name) = solve(&inst, Algorithm::Random, 3);
        assert_eq!(picked.len(), 3);
        assert!(!picked.contains(&NodeId::new(0)));
        // Distinct.
        let set: std::collections::HashSet<_> = picked.iter().collect();
        assert_eq!(set.len(), 3);
        assert_eq!(name, "random");
    }

    #[test]
    fn pagerank_ordering_prefers_central_nodes() {
        // A hub that everything points to dominates PageRank.
        let g = DiGraph::from_edges(5, [(0, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 3)]).unwrap();
        let p = Partition::from_labels(vec![0, 1, 1, 1, 1]);
        let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)]).unwrap();
        let order = pagerank_ordering(&inst);
        assert_eq!(order[0], NodeId::new(1));
        assert!(!order.contains(&NodeId::new(0)));
        let (picked, name) = solve(&inst, Algorithm::PageRank, 1);
        assert_eq!(picked, vec![NodeId::new(1)]);
        assert_eq!(name, "pagerank");
    }

    #[test]
    fn no_blocking_returns_empty() {
        let inst = fixture();
        let (picked, name) = solve(&inst, Algorithm::NoBlocking, 10);
        assert!(picked.is_empty());
        assert_eq!(name, "no-blocking");
    }

    #[test]
    fn coverage_mode_stops_as_soon_as_covered() {
        let inst = fixture();
        // Bridge ends are 3 (d_R = 2) and 4 (d_R = 2). Feeding the
        // ordering [1, 2]: protecting 1 covers 3 (d_P = 1) but not 4;
        // adding 2 covers 4.
        let chosen = protectors_to_cover_all(
            &inst,
            BridgeEndRule::WithinCommunity,
            &[NodeId::new(1), NodeId::new(2), NodeId::new(5)],
        )
        .unwrap();
        assert_eq!(chosen, vec![NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn coverage_mode_detects_insufficient_pool() {
        let inst = fixture();
        // Node 5 alone cannot protect bridge end 4 in time
        // (d_P(4) = inf) nor 3 (d_P(3) = 1 <= 2 works)... so coverage
        // fails overall.
        let result =
            protectors_to_cover_all(&inst, BridgeEndRule::WithinCommunity, &[NodeId::new(5)]);
        assert!(result.is_none());
    }

    #[test]
    fn coverage_mode_with_no_bridge_ends_is_empty() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 0)]).unwrap();
        let p = Partition::from_labels(vec![0, 0, 1, 1]);
        let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)]).unwrap();
        let chosen =
            protectors_to_cover_all(&inst, BridgeEndRule::WithinCommunity, &[NodeId::new(2)])
                .unwrap();
        assert!(chosen.is_empty());
    }

    #[test]
    fn coverage_mode_agrees_with_doam_simulation() {
        use lcrb_diffusion::{DoamModel, SimWorkspace};
        let inst = fixture();
        let ordering = max_degree_ordering(&inst);
        let chosen =
            protectors_to_cover_all(&inst, BridgeEndRule::WithinCommunity, &ordering).unwrap();
        let seeds = inst.seed_sets(chosen).unwrap();
        let mut ws = SimWorkspace::new();
        DoamModel::default().run_deterministic_into(inst.snapshot(), &seeds, &mut ws);
        let bridges = find_bridge_ends(&inst, BridgeEndRule::WithinCommunity);
        for &v in &bridges.nodes {
            assert!(!ws.status(v).is_infected(), "bridge end {v} infected");
        }
    }
}
