//! The Deterministic One-Activate-Many (DOAM) model of §III-B.
//!
//! When a node first activates at step `t`, all of its currently
//! inactive out-neighbors activate at `t+1` (each node influences its
//! neighbors exactly once); the protector cascade wins simultaneous
//! claims. The process is completely deterministic — information
//! broadcast, in the paper's words.
//!
//! This module holds only the zero-allocation CSR step kernel. The
//! closed-form BFS-distance oracle ([`crate::doam_analytic_csr`] and
//! [`crate::doam_safe_targets_csr`]) lives in the cold `analytic`
//! module.

use rand::Rng;

use lcrb_graph::CsrGraph;

use crate::{SeedSets, SimWorkspace, TwoCascadeModel};

/// The DOAM model.
///
/// DOAM terminates on its own within at most `n` hops; `max_hops`
/// exists to truncate traces for like-for-like comparisons with
/// OPOAO figures and defaults to "no limit".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DoamModel {
    /// Maximum number of hops to simulate.
    pub max_hops: u32,
}

impl Default for DoamModel {
    fn default() -> Self {
        DoamModel { max_hops: u32::MAX }
    }
}

impl DoamModel {
    /// Creates a model with a hop budget.
    #[must_use]
    pub fn new(max_hops: u32) -> Self {
        DoamModel { max_hops }
    }

    /// Allocation-free step simulation against a frozen snapshot.
    ///
    /// Workspace buffer roles: `frontier` holds the protector
    /// frontier, `next_frontier` the rumor frontier.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` refers to nodes outside the snapshot.
    pub fn run_deterministic_into(
        &self,
        graph: &CsrGraph,
        seeds: &SeedSets,
        ws: &mut SimWorkspace,
    ) {
        let n = graph.node_count();
        ws.begin(n, seeds);
        ws.frontier.clear();
        ws.frontier.extend_from_slice(seeds.protectors());
        ws.next_frontier.clear();
        ws.next_frontier.extend_from_slice(seeds.rumors());
        let mut quiescent = false;

        for hop in 1..=self.max_hops {
            if ws.frontier.is_empty() && ws.next_frontier.is_empty() {
                quiescent = true;
                break;
            }
            ws.new_protected.clear();
            ws.new_infected.clear();
            // Protector frontier claims first (P-priority is then
            // automatic).
            for i in 0..ws.frontier.len() {
                let u = ws.frontier[i];
                for &w in graph.out_neighbors(u) {
                    if ws.is_inactive(w) && ws.claim[w.index()] == 0 {
                        ws.claim[w.index()] = 2;
                        ws.new_protected.push(w);
                    }
                }
            }
            for i in 0..ws.next_frontier.len() {
                let u = ws.next_frontier[i];
                for &w in graph.out_neighbors(u) {
                    if ws.is_inactive(w) && ws.claim[w.index()] == 0 {
                        ws.claim[w.index()] = 1;
                        ws.new_infected.push(w);
                    }
                }
            }
            for i in 0..ws.new_protected.len() {
                let w = ws.new_protected[i];
                ws.claim[w.index()] = 0;
            }
            for i in 0..ws.new_infected.len() {
                let w = ws.new_infected[i];
                ws.claim[w.index()] = 0;
            }
            ws.commit_hop(hop);
            std::mem::swap(&mut ws.frontier, &mut ws.new_protected);
            std::mem::swap(&mut ws.next_frontier, &mut ws.new_infected);
        }
        if ws.frontier.is_empty() && ws.next_frontier.is_empty() {
            quiescent = true;
        }
        ws.set_quiescent(quiescent);
    }
}

impl TwoCascadeModel for DoamModel {
    /// DOAM is deterministic; the RNG is ignored.
    fn run_into<R: Rng + ?Sized>(
        &self,
        graph: &CsrGraph,
        seeds: &SeedSets,
        ws: &mut SimWorkspace,
        _rng: &mut R,
    ) {
        self.run_deterministic_into(graph, seeds, ws);
    }

    fn name(&self) -> &'static str {
        "doam"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fresh_run, seeds};
    use crate::{DiffusionOutcome, Status};
    use lcrb_graph::{generators, DiGraph, NodeId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// One step simulation of `model` on `g`, as an owned outcome.
    fn run(model: DoamModel, g: &DiGraph, r: &[usize], p: &[usize]) -> DiffusionOutcome {
        let mut ws = SimWorkspace::new();
        model.run_deterministic_into(&CsrGraph::from(g), &seeds(g, r, p), &mut ws);
        ws.to_outcome()
    }

    #[test]
    fn broadcast_on_path() {
        let g = generators::path_graph(5);
        let o = run(DoamModel::default(), &g, &[0], &[]);
        assert_eq!(o.infected_count(), 5);
        assert_eq!(o.activation_hop(NodeId::new(4)), Some(4));
        assert!(o.is_quiescent());
    }

    #[test]
    fn tie_goes_to_protector() {
        // 0 (R) -> 2 <- 1 (P).
        let g = DiGraph::from_edges(3, [(0, 2), (1, 2)]).unwrap();
        let o = run(DoamModel::default(), &g, &[0], &[1]);
        assert_eq!(o.status(NodeId::new(2)), Status::Protected);
    }

    #[test]
    fn closer_rumor_wins() {
        // R at 0 one hop from 2; P at 3 two hops from 2 (3 -> 4 -> 2).
        let g = DiGraph::from_edges(5, [(0, 2), (3, 4), (4, 2)]).unwrap();
        let o = run(DoamModel::default(), &g, &[0], &[3]);
        assert_eq!(o.status(NodeId::new(2)), Status::Infected);
    }

    #[test]
    fn single_chance_semantics() {
        // Star: hub infected at hop 0 activates all leaves at hop 1,
        // then the process stops even though the hub stays infected.
        let g = generators::star_graph(6);
        let o = run(DoamModel::default(), &g, &[0], &[]);
        assert_eq!(o.infected_count(), 6);
        assert!(o.trace().iter().all(|r| r.hop <= 2));
    }

    #[test]
    fn protection_wall_blocks_rumor() {
        // 0 -> 1 -> 2 -> 3 with protector at 1's position already: R
        // cannot pass a protected node.
        let g = generators::path_graph(4);
        let o = run(DoamModel::default(), &g, &[0], &[1]);
        assert_eq!(o.status(NodeId::new(1)), Status::Protected);
        assert_eq!(o.status(NodeId::new(2)), Status::Protected);
        assert_eq!(o.status(NodeId::new(3)), Status::Protected);
        assert_eq!(o.infected_count(), 1);
    }

    #[test]
    fn hop_budget_truncates_doam() {
        let g = generators::path_graph(10);
        let o = run(DoamModel::new(2), &g, &[0], &[]);
        assert_eq!(o.infected_count(), 3);
        assert!(!o.is_quiescent());
    }

    #[test]
    fn model_name_and_rng_independence() {
        let g = generators::path_graph(4);
        let csr = CsrGraph::from(&g);
        let s = seeds(&g, &[0], &[]);
        let m = DoamModel::default();
        assert_eq!(m.name(), "doam");
        let mut r1 = SmallRng::seed_from_u64(1);
        let mut r2 = SmallRng::seed_from_u64(999);
        assert_eq!(
            fresh_run(&m, &csr, &s, &mut r1).statuses(),
            fresh_run(&m, &csr, &s, &mut r2).statuses()
        );
    }
}
