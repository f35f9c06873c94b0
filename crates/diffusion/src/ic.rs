//! Competitive Independent Cascade — an extension model.
//!
//! The paper's related work (§II) studies rumor blocking under
//! extensions of the IC model (Budak et al. [14]); the conclusion
//! lists "other influence diffusion models" as future work. This
//! model simulates protector sets beyond OPOAO and DOAM (the greedy's
//! objective stays OPOAO, as in the paper): two cascades spread by
//! independent per-edge coin flips, each newly active node gets a
//! single chance per out-neighbor, and the protector cascade wins
//! simultaneous claims.

use core::fmt;

use rand::Rng;

use lcrb_graph::CsrGraph;

use crate::{SeedSets, SimWorkspace, Status, TwoCascadeModel};

/// Error returned when constructing a [`CompetitiveIcModel`] with an
/// invalid probability.
#[derive(Clone, Debug, PartialEq)]
pub struct InvalidProbabilityError {
    /// The rejected value.
    pub value: f64,
}

impl fmt::Display for InvalidProbabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "activation probability {} is not in [0, 1]", self.value)
    }
}

impl std::error::Error for InvalidProbabilityError {}

/// The competitive IC model with a uniform edge activation
/// probability.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompetitiveIcModel {
    probability: f64,
    /// Maximum number of diffusion hops.
    pub max_hops: u32,
}

impl CompetitiveIcModel {
    /// Creates a model where every edge transmits independently with
    /// probability `probability`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProbabilityError`] if `probability` is NaN or
    /// outside `[0, 1]`.
    pub fn new(probability: f64) -> Result<Self, InvalidProbabilityError> {
        if probability.is_nan() || !(0.0..=1.0).contains(&probability) {
            return Err(InvalidProbabilityError { value: probability });
        }
        Ok(CompetitiveIcModel {
            probability,
            max_hops: u32::MAX,
        })
    }

    /// Same as [`CompetitiveIcModel::new`] with a hop budget.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProbabilityError`] if `probability` is NaN or
    /// outside `[0, 1]`.
    pub fn with_max_hops(probability: f64, max_hops: u32) -> Result<Self, InvalidProbabilityError> {
        let mut model = CompetitiveIcModel::new(probability)?;
        model.max_hops = max_hops;
        Ok(model)
    }

    /// The uniform edge activation probability.
    #[must_use]
    pub fn probability(&self) -> f64 {
        self.probability
    }
}

impl TwoCascadeModel for CompetitiveIcModel {
    fn run_into<R: Rng + ?Sized>(
        &self,
        graph: &CsrGraph,
        seeds: &SeedSets,
        ws: &mut SimWorkspace,
        rng: &mut R,
    ) {
        let n = graph.node_count();
        ws.begin(n, seeds);
        ws.frontier.clear();
        ws.frontier
            .extend(seeds.protectors().iter().chain(seeds.rumors()).copied());
        let mut quiescent = false;

        for hop in 1..=self.max_hops {
            if ws.frontier.is_empty() {
                quiescent = true;
                break;
            }
            ws.claimed.clear();
            for i in 0..ws.frontier.len() {
                let u = ws.frontier[i];
                let cascade = if ws.status(u) == Status::Protected {
                    2
                } else {
                    1
                };
                for &w in graph.out_neighbors(u) {
                    // Coins are drawn only for inactive targets, in
                    // frontier then adjacency order.
                    if ws.is_inactive(w) && rng.gen_bool(self.probability) {
                        let slot = &mut ws.claim[w.index()];
                        if *slot == 0 {
                            ws.claimed.push(w);
                        }
                        // Protector priority: P (2) overrides R (1).
                        *slot = (*slot).max(cascade);
                    }
                }
            }
            ws.new_protected.clear();
            ws.new_infected.clear();
            for i in 0..ws.claimed.len() {
                let w = ws.claimed[i];
                if ws.claim[w.index()] == 2 {
                    ws.new_protected.push(w);
                } else {
                    ws.new_infected.push(w);
                }
                ws.claim[w.index()] = 0;
            }
            ws.commit_hop(hop);
            ws.frontier.clear();
            for i in 0..ws.new_protected.len() {
                let w = ws.new_protected[i];
                ws.frontier.push(w);
            }
            for i in 0..ws.new_infected.len() {
                let w = ws.new_infected[i];
                ws.frontier.push(w);
            }
        }
        if ws.frontier.is_empty() {
            quiescent = true;
        }
        ws.set_quiescent(quiescent);
    }

    fn name(&self) -> &'static str {
        "competitive-ic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fresh_run, seeds};
    use lcrb_graph::{generators, DiGraph, NodeId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_probability() {
        assert!(CompetitiveIcModel::new(-0.1).is_err());
        assert!(CompetitiveIcModel::new(1.1).is_err());
        assert!(CompetitiveIcModel::new(f64::NAN).is_err());
        let err = CompetitiveIcModel::new(2.0).unwrap_err();
        assert!(err.to_string().contains("not in [0, 1]"));
    }

    #[test]
    fn probability_one_is_doam_like_broadcast() {
        let g = generators::path_graph(5);
        let csr = CsrGraph::from(&g);
        let m = CompetitiveIcModel::new(1.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let o = fresh_run(&m, &csr, &seeds(&g, &[0], &[]), &mut rng);
        assert_eq!(o.infected_count(), 5);
        assert_eq!(o.activation_hop(NodeId::new(4)), Some(4));
    }

    #[test]
    fn probability_zero_never_spreads() {
        let g = generators::complete_graph(6);
        let csr = CsrGraph::from(&g);
        let m = CompetitiveIcModel::new(0.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let o = fresh_run(&m, &csr, &seeds(&g, &[0], &[1]), &mut rng);
        assert_eq!(o.infected_count(), 1);
        assert_eq!(o.protected_count(), 1);
        assert!(o.is_quiescent());
    }

    #[test]
    fn protector_priority_on_tie() {
        let g = DiGraph::from_edges(3, [(0, 2), (1, 2)]).unwrap();
        let csr = CsrGraph::from(&g);
        let m = CompetitiveIcModel::new(1.0).unwrap();
        for s in 0..10 {
            let mut rng = SmallRng::seed_from_u64(s);
            let o = fresh_run(&m, &csr, &seeds(&g, &[0], &[1]), &mut rng);
            assert_eq!(o.status(NodeId::new(2)), Status::Protected);
        }
    }

    #[test]
    fn single_chance_no_retries() {
        // With p = 0.5 on a single edge, roughly half the runs infect
        // node 1 — and a failed attempt is never retried.
        let g = generators::path_graph(2);
        let csr = CsrGraph::from(&g);
        let m = CompetitiveIcModel::new(0.5).unwrap();
        let mut hits = 0;
        for s in 0..400 {
            let mut rng = SmallRng::seed_from_u64(s);
            let o = fresh_run(&m, &csr, &seeds(&g, &[0], &[]), &mut rng);
            assert!(o.is_quiescent());
            if o.infected_count() == 2 {
                hits += 1;
            }
        }
        assert!((150..250).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn hop_budget_truncates() {
        let g = generators::path_graph(10);
        let csr = CsrGraph::from(&g);
        let m = CompetitiveIcModel::with_max_hops(1.0, 2).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let o = fresh_run(&m, &csr, &seeds(&g, &[0], &[]), &mut rng);
        assert_eq!(o.infected_count(), 3);
        assert!(!o.is_quiescent());
    }

    #[test]
    fn coin_order_is_pinned() {
        // One coin per inactive target, in frontier then adjacency
        // order: drawing a coin for every out-neighbor, or in another
        // order, changes these runs.
        let mut rng = SmallRng::seed_from_u64(8);
        let g = generators::gnm_directed(40, 160, &mut rng).unwrap();
        let csr = CsrGraph::from(&g);
        let m = CompetitiveIcModel::new(0.35).unwrap();
        let s = seeds(&g, &[0, 3], &[1]);
        let mut ws = SimWorkspace::new();
        let runs: Vec<(usize, usize)> = (0..6)
            .map(|seed| {
                m.run_into(&csr, &s, &mut ws, &mut SmallRng::seed_from_u64(seed));
                (ws.infected_count(), ws.protected_count())
            })
            .collect();
        assert_eq!(runs, [(4, 1), (7, 14), (9, 2), (2, 2), (2, 6), (3, 1)]);
    }

    #[test]
    fn name_and_accessor() {
        let m = CompetitiveIcModel::new(0.25).unwrap();
        assert_eq!(m.name(), "competitive-ic");
        assert_eq!(m.probability(), 0.25);
    }
}
