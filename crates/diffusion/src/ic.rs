//! Competitive Independent Cascade — an extension model.
//!
//! The paper's related work (§II) studies rumor blocking under
//! extensions of the IC model (Budak et al. [14]); the conclusion
//! lists "other influence diffusion models" as future work. This
//! model lets the generic LCRB greedy be exercised beyond OPOAO: two
//! cascades spread by independent per-edge coin flips, each newly
//! active node gets a single chance per out-neighbor, and the
//! protector cascade wins simultaneous claims.

use core::fmt;

use rand::Rng;

// xtask-allow: hotpath -- DiGraph is imported only for the documented one-off convenience wrapper
use lcrb_graph::{CsrGraph, DiGraph, NodeId};

use crate::{
    derive_stream, splitmix64, DiffusionOutcome, SeedSets, SimWorkspace, Status, TwoCascadeModel,
};

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

/// A fixed live-edge realization of the competitive IC model.
///
/// The classic live-edge coupling: every edge is independently *live*
/// with the model's probability, decided once per realization by
/// hashing `(seed, source, target)`. Conditioned on the live set, the
/// competitive IC diffusion is deterministic — both cascades race
/// along live edges at one hop per step with protector priority,
/// exactly DOAM restricted to the live subgraph — which makes the
/// saved-bridge-end count monotone and submodular per realization,
/// the same structure the OPOAO realizations provide (and the reason
/// the LCRB-P greedy extends to IC; cf. Budak et al.'s EIL).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IcRealization {
    seed: u64,
}

impl IcRealization {
    /// Creates the realization identified by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        IcRealization { seed }
    }

    /// Derives a batch of independent realizations from a master
    /// seed (realization `i` uses the stream
    /// [`derive_stream`]`(master, i)`).
    #[must_use]
    pub fn batch(count: usize, master_seed: u64) -> Vec<Self> {
        (0..count as u64)
            .map(|i| IcRealization::new(derive_stream(master_seed, i)))
            .collect()
    }

    /// Whether the edge `(u, v)` is live under `probability`.
    #[must_use]
    pub fn edge_is_live(&self, u: NodeId, v: NodeId, probability: f64) -> bool {
        let h = splitmix64(
            self.seed
                ^ splitmix64(u64::from(u.raw()).wrapping_mul(0xD6E8_FEB8_6659_FD93))
                ^ splitmix64(u64::from(v.raw()).wrapping_mul(0xCA5A_8263_9512_1157)),
        );
        // Map the hash to [0, 1).
        ((h >> 11) as f64 / (1u64 << 53) as f64) < probability
    }
}

impl CompetitiveIcModel {
    /// Runs the model deterministically against a pre-sampled
    /// live-edge realization (see [`IcRealization`]). Marginally over
    /// realizations this reproduces [`TwoCascadeModel::run`]'s
    /// distribution.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` refers to nodes outside `graph`.
    #[must_use]
    pub fn run_realized(
        &self,
        // xtask-allow: hotpath -- documented cold-path convenience wrapper; snapshots then delegates to run_realized_into
        graph: &DiGraph,
        seeds: &SeedSets,
        realization: &IcRealization,
    ) -> DiffusionOutcome {
        let csr = CsrGraph::from(graph);
        let mut ws = SimWorkspace::new();
        self.run_realized_into(&csr, seeds, &mut ws, realization);
        ws.to_outcome()
    }

    /// Allocation-free variant of [`CompetitiveIcModel::run_realized`]
    /// against a frozen snapshot, writing the result into `ws`.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` refers to nodes outside the snapshot.
    pub fn run_realized_into(
        &self,
        graph: &CsrGraph,
        seeds: &SeedSets,
        ws: &mut SimWorkspace,
        realization: &IcRealization,
    ) {
        run_csr_with_transmit(graph, seeds, self.max_hops, ws, |u, w| {
            realization.edge_is_live(u, w, self.probability)
        });
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
        run_csr_with_transmit(graph, seeds, self.max_hops, ws, |_, _| {
            rng.gen_bool(self.probability)
        });
    }

    fn name(&self) -> &'static str {
        "competitive-ic"
    }
}

/// The shared competitive-IC engine: `transmit(u, w)` decides whether
/// active node `u` activates its inactive out-neighbor `w` this hop
/// (a fresh coin flip for the stochastic model, a live-edge lookup
/// for realizations). `transmit` is only consulted for inactive
/// targets, preserving the legacy RNG draw order.
fn run_csr_with_transmit<F>(
    graph: &CsrGraph,
    seeds: &SeedSets,
    max_hops: u32,
    ws: &mut SimWorkspace,
    mut transmit: F,
) where
    F: FnMut(NodeId, NodeId) -> bool,
{
    let n = graph.node_count();
    ws.begin(n, seeds);
    ws.frontier.clear();
    ws.frontier
        .extend(seeds.protectors().iter().chain(seeds.rumors()).copied());
    let mut quiescent = false;

    for hop in 1..=max_hops {
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
                if ws.is_inactive(w) && transmit(u, w) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use lcrb_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn seeds(g: &DiGraph, r: &[usize], p: &[usize]) -> SeedSets {
        SeedSets::new(
            g,
            r.iter().map(|&i| NodeId::new(i)).collect(),
            p.iter().map(|&i| NodeId::new(i)).collect(),
        )
        .unwrap()
    }

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
        let m = CompetitiveIcModel::new(1.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let o = m.run(&g, &seeds(&g, &[0], &[]), &mut rng);
        assert_eq!(o.infected_count(), 5);
        assert_eq!(o.activation_hop(NodeId::new(4)), Some(4));
    }

    #[test]
    fn probability_zero_never_spreads() {
        let g = generators::complete_graph(6);
        let m = CompetitiveIcModel::new(0.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let o = m.run(&g, &seeds(&g, &[0], &[1]), &mut rng);
        assert_eq!(o.infected_count(), 1);
        assert_eq!(o.protected_count(), 1);
        assert!(o.is_quiescent());
    }

    #[test]
    fn protector_priority_on_tie() {
        let g = DiGraph::from_edges(3, [(0, 2), (1, 2)]).unwrap();
        let m = CompetitiveIcModel::new(1.0).unwrap();
        for s in 0..10 {
            let mut rng = SmallRng::seed_from_u64(s);
            let o = m.run(&g, &seeds(&g, &[0], &[1]), &mut rng);
            assert_eq!(o.status(NodeId::new(2)), Status::Protected);
        }
    }

    #[test]
    fn single_chance_no_retries() {
        // With p = 0.5 on a single edge, roughly half the runs infect
        // node 1 — and a failed attempt is never retried.
        let g = generators::path_graph(2);
        let m = CompetitiveIcModel::new(0.5).unwrap();
        let mut hits = 0;
        for s in 0..400 {
            let mut rng = SmallRng::seed_from_u64(s);
            let o = m.run(&g, &seeds(&g, &[0], &[]), &mut rng);
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
        let m = CompetitiveIcModel::with_max_hops(1.0, 2).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let o = m.run(&g, &seeds(&g, &[0], &[]), &mut rng);
        assert_eq!(o.infected_count(), 3);
        assert!(!o.is_quiescent());
    }

    #[test]
    fn realized_runs_are_deterministic_and_probability_respecting() {
        let g = generators::complete_graph(12);
        let m = CompetitiveIcModel::new(0.3).unwrap();
        let s = seeds(&g, &[0], &[1]);
        let real = IcRealization::new(5);
        let a = m.run_realized(&g, &s, &real);
        let b = m.run_realized(&g, &s, &real);
        assert_eq!(a.statuses(), b.statuses());
        // Extremes behave like the stochastic model.
        let all = CompetitiveIcModel::new(1.0)
            .unwrap()
            .run_realized(&g, &s, &real);
        assert_eq!(all.infected_count() + all.protected_count(), 12);
        let none = CompetitiveIcModel::new(0.0)
            .unwrap()
            .run_realized(&g, &s, &real);
        assert_eq!(none.infected_count(), 1);
    }

    #[test]
    fn realized_into_matches_wrapper_across_reuses() {
        let mut rng = SmallRng::seed_from_u64(8);
        let g = generators::gnm_directed(40, 160, &mut rng).unwrap();
        let csr = CsrGraph::from(&g);
        let m = CompetitiveIcModel::new(0.35).unwrap();
        let s = seeds(&g, &[0, 3], &[1]);
        let mut ws = SimWorkspace::new();
        for i in 0..8 {
            let real = IcRealization::new(i);
            m.run_realized_into(&csr, &s, &mut ws, &real);
            assert_eq!(ws.to_outcome(), m.run_realized(&g, &s, &real), "real {i}");
        }
    }

    #[test]
    fn live_edge_frequency_matches_probability() {
        let p = 0.35;
        let mut live = 0usize;
        let total = 20_000;
        for i in 0..total {
            let r = IcRealization::new(i as u64);
            if r.edge_is_live(NodeId::new(3), NodeId::new(7), p) {
                live += 1;
            }
        }
        let freq = live as f64 / total as f64;
        assert!((freq - p).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn realized_marginal_matches_stochastic_mean() {
        // Average infected count over many realizations ~= average
        // over many stochastic runs.
        let mut rng = SmallRng::seed_from_u64(4);
        let g = generators::gnm_directed(60, 240, &mut rng).unwrap();
        let m = CompetitiveIcModel::new(0.2).unwrap();
        let s = seeds(&g, &[0, 1], &[2]);
        let runs = 400;
        let realized: f64 = (0..runs)
            .map(|i| {
                m.run_realized(&g, &s, &IcRealization::new(i))
                    .infected_count()
            })
            .sum::<usize>() as f64
            / runs as f64;
        let stochastic: f64 = (0..runs)
            .map(|i| {
                let mut r = SmallRng::seed_from_u64(1000 + i);
                m.run(&g, &s, &mut r).infected_count()
            })
            .sum::<usize>() as f64
            / runs as f64;
        let rel = (realized - stochastic).abs() / stochastic.max(1.0);
        assert!(rel < 0.15, "realized {realized} vs stochastic {stochastic}");
    }

    #[test]
    fn adding_protectors_is_monotone_per_ic_realization() {
        // Live-edge coupling: protection can only grow.
        let mut rng = SmallRng::seed_from_u64(6);
        let g = generators::gnm_directed(40, 200, &mut rng).unwrap();
        let m = CompetitiveIcModel::new(0.4).unwrap();
        for rs in 0..20u64 {
            let real = IcRealization::new(rs);
            let base = m.run_realized(&g, &seeds(&g, &[0], &[]), &real);
            let more = m.run_realized(&g, &seeds(&g, &[0], &[5, 9]), &real);
            for v in g.nodes() {
                if more.status(v).is_infected() {
                    assert!(base.status(v).is_infected(), "node {v} newly infected");
                }
            }
        }
    }

    #[test]
    fn ic_realization_batch_is_reproducible() {
        assert_eq!(IcRealization::batch(8, 3), IcRealization::batch(8, 3));
        assert_ne!(IcRealization::batch(8, 3), IcRealization::batch(8, 4));
    }

    #[test]
    fn name_and_accessor() {
        let m = CompetitiveIcModel::new(0.25).unwrap();
        assert_eq!(m.name(), "competitive-ic");
        assert_eq!(m.probability(), 0.25);
    }
}
