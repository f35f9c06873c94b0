//! The Set Cover Based Greedy (SCBG) algorithm for LCRB-D
//! (Algorithm 3 of the paper).
//!
//! Pipeline:
//!
//! 1. find the bridge ends `B` via RFSTs (step 3);
//! 2. for each bridge end `v`, build its Bridge-end Backward Search
//!    Tree (BBST) `Q_v`: a backward BFS from `v` whose depth is the
//!    hop distance from the nearest rumor originator to `v` —
//!    everything in `Q_v` except the rumor seeds can protect `v`
//!    under DOAM, because seeding a protector at `u ∈ Q_v` gives
//!    `d_P(v) ≤ d_R(v)` and ties favor P (step 4);
//! 3. invert the trees into the 1-hop star sets `SW_u = {v : u ∈
//!    Q_v}` (step 5);
//! 4. run greedy set cover (Algorithm 2) over the `SW_u` to cover `B`
//!    (step 6).
//!
//! Because the DOAM oracle is exact (see `lcrb-diffusion::doam`),
//! every SCBG cover is a *certified* solution: all bridge ends are
//! provably protected. The approximation factor is `H(|B|) = O(ln
//! |B|)` by the set-cover reduction (Theorems 2–3).

use std::collections::BTreeMap;

use lcrb_diffusion::{StopReason, WorkMeter};
use lcrb_graph::traversal::{CsrBfsScratch, Direction};
use lcrb_graph::NodeId;

use crate::setcover::greedy_set_cover_metered;
use crate::{find_bridge_ends, BridgeEndRule, BridgeEnds, RumorBlockingInstance};

/// Tuning knobs for [`scbg`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScbgConfig {
    /// How bridge ends are detected.
    pub rule: BridgeEndRule,
    /// Optional cap on BBST depth (ablation knob): `Some(d)` truncates
    /// every backward search at depth `d`, shrinking the candidate
    /// pool at the risk of a larger cover. `None` uses the paper's
    /// full depth (the distance to the nearest rumor).
    pub max_bbst_depth: Option<u32>,
}

/// The result of an SCBG run.
#[derive(Clone, Debug)]
pub struct ScbgSolution {
    /// The selected protector originators, in selection order.
    pub protectors: Vec<NodeId>,
    /// The bridge ends the cover was computed against.
    pub bridge_ends: BridgeEnds,
    /// How many bridge ends the selection covers. Equal to
    /// `bridge_ends.len()` unless a depth cap made some bridge end
    /// uncoverable.
    pub covered: usize,
    /// Size of the candidate pool `|⋃ Q_v \ S_R|` the set cover chose
    /// from.
    pub candidate_count: usize,
}

impl ScbgSolution {
    /// `true` when every bridge end is covered (always the case
    /// without a depth cap: `v ∈ Q_v`, so protecting `v` itself is
    /// always available).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.covered == self.bridge_ends.len()
    }
}

/// Runs SCBG on `instance` and returns the selected protector seed
/// set (Algorithm 3).
///
/// # Examples
///
/// ```
/// use lcrb::{scbg, RumorBlockingInstance, ScbgConfig};
/// use lcrb_community::Partition;
/// use lcrb_graph::{DiGraph, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Rumor community {0, 1}; escapes via 2 and 3, both one hop from
/// // the shared gateway 1 — protecting either bridge end... or
/// // better, nothing upstream exists, so SCBG protects both.
/// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (1, 3)])?;
/// let p = Partition::from_labels(vec![0, 0, 1, 1]);
/// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
/// let sol = scbg(&inst, &ScbgConfig::default());
/// assert!(sol.is_complete());
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn scbg(instance: &RumorBlockingInstance, config: &ScbgConfig) -> ScbgSolution {
    let (solution, _) = scbg_metered(instance, config, &WorkMeter::unlimited())
        // xtask-allow: panic -- an unlimited meter's poll never stops SCBG
        .expect("unlimited meter cannot stop SCBG");
    solution
}

/// [`scbg`] under a [`WorkMeter`]: the star-set build polls once per
/// bridge end and the cover loop once per pick.
///
/// A deadline stop during the *cover* keeps the selection prefix (a
/// valid partial cover, reported via `Some(reason)` and a `covered`
/// count below `bridge_ends.len()`); a stop during the *star-set
/// build* has no salvageable prefix and surfaces as an error.
/// Work-unit caps never stop SCBG — it runs no simulations and no
/// sketches, matching the deterministic-checkpoint discipline.
///
/// # Errors
///
/// The observed [`StopReason`] on cancellation anywhere, or on any
/// stop before the star sets are complete.
pub(crate) fn scbg_metered(
    instance: &RumorBlockingInstance,
    config: &ScbgConfig,
    meter: &WorkMeter,
) -> Result<(ScbgSolution, Option<StopReason>), StopReason> {
    let bridge_ends = find_bridge_ends(instance, config.rule);
    let (candidates, sets) = build_star_sets(instance, &bridge_ends, config.max_bbst_depth, meter)?;
    let (solution, stop) = greedy_set_cover_metered(bridge_ends.len(), &sets, meter)?;
    let protectors = solution.selected.iter().map(|&i| candidates[i]).collect();
    Ok((
        ScbgSolution {
            protectors,
            covered: solution.covered,
            candidate_count: candidates.len(),
            bridge_ends,
        },
        stop,
    ))
}

/// Steps 4–5 of Algorithm 3 on the instance's CSR snapshot: one
/// backward BFS per bridge end `v` (depth `d_R(v)`, optionally
/// capped) through a single reused [`CsrBfsScratch`], inverted on the
/// fly into the star sets `SW_u = {v : u ∈ Q_v}`. Returns the
/// candidate nodes in ascending id order (for reproducible covers)
/// and their sets. Polls `meter` once per bridge end; any stop
/// surfaces as an error because a partial star-set collection cannot
/// seed a meaningful cover.
fn build_star_sets(
    instance: &RumorBlockingInstance,
    bridge_ends: &BridgeEnds,
    max_bbst_depth: Option<u32>,
    meter: &WorkMeter,
) -> Result<(Vec<NodeId>, Vec<Vec<u32>>), StopReason> {
    let csr = instance.snapshot();
    // Infection times: hop distance from the nearest rumor originator
    // in the full graph.
    let mut d_r = CsrBfsScratch::new();
    d_r.run(csr, instance.rumor_seeds(), Direction::Forward, u32::MAX);

    // xtask-allow: hotpath -- one-time setup per SCBG run, sized to the snapshot
    let mut is_rumor = vec![false; csr.node_count()];
    for &r in instance.rumor_seeds() {
        is_rumor[r.index()] = true;
    }

    // A BTreeMap keyed by NodeId makes the candidate order (and thus
    // the cover tie-breaks) deterministic by construction.
    // xtask-allow: hotpath -- one star-set map per SCBG run, built outside the cover loop
    let mut sw: BTreeMap<NodeId, Vec<u32>> = BTreeMap::new();
    let mut back = CsrBfsScratch::new();
    for (b_idx, &v) in bridge_ends.nodes.iter().enumerate() {
        meter.poll()?;
        let depth = d_r
            .distance(v)
            // xtask-allow: panic -- bridge ends are discovered by forward BFS from the rumor seeds, so a distance exists
            .expect("bridge ends are reachable from the rumor originators by definition");
        let depth = max_bbst_depth.map_or(depth, |cap| depth.min(cap));
        back.run(csr, &[v], Direction::Backward, depth);
        for &u in back.order() {
            if !is_rumor[u.index()] {
                sw.entry(u).or_default().push(b_idx as u32);
            }
        }
    }

    // BTreeMap iteration is already in ascending NodeId order.
    Ok(sw.into_iter().unzip())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrb_community::Partition;
    use lcrb_diffusion::{doam_analytic, DoamModel};
    use lcrb_graph::generators;
    use lcrb_graph::DiGraph;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn instance(g: DiGraph, labels: Vec<usize>, seeds: Vec<usize>) -> RumorBlockingInstance {
        let p = Partition::from_labels(labels);
        RumorBlockingInstance::new(g, p, 0, seeds.into_iter().map(NodeId::new).collect()).unwrap()
    }

    /// Protection check shared by the tests: simulate DOAM with the
    /// chosen protectors and assert every bridge end survives.
    fn assert_all_bridge_ends_protected(inst: &RumorBlockingInstance, sol: &ScbgSolution) {
        let seeds = inst.seed_sets(sol.protectors.clone()).unwrap();
        let outcome = DoamModel::default().run_deterministic(inst.graph(), &seeds);
        for &v in &sol.bridge_ends.nodes {
            assert!(
                !outcome.status(v).is_infected(),
                "bridge end {v} was infected"
            );
        }
    }

    #[test]
    fn single_gateway_is_covered_by_one_protector() {
        // Rumor community {0,1}: 0 -> 1; gateway 1 -> 2; 2 -> {3, 4}
        // inside the neighbor community... wait, bridge ends are
        // first-outside nodes: only node 2. One protector suffices.
        let g = DiGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)]).unwrap();
        let inst = instance(g, vec![0, 0, 1, 1, 1], vec![0]);
        let sol = scbg(&inst, &ScbgConfig::default());
        assert_eq!(sol.bridge_ends.nodes, vec![NodeId::new(2)]);
        assert!(sol.is_complete());
        assert_eq!(sol.protectors.len(), 1);
        assert_all_bridge_ends_protected(&inst, &sol);
    }

    #[test]
    fn shared_upstream_node_covers_multiple_bridge_ends() {
        // Two bridge ends 3, 4 both fed by gateway 1 at distance 2
        // from the rumor; protecting node 1 covers both (d_P = 1 <=
        // d_R for each).
        let g = DiGraph::from_edges(5, [(0, 1), (1, 3), (1, 4)]).unwrap();
        let inst = instance(g, vec![0, 0, 0, 1, 1], vec![0]);
        let sol = scbg(&inst, &ScbgConfig::default());
        assert_eq!(sol.bridge_ends.len(), 2);
        assert!(sol.is_complete());
        assert_eq!(sol.protectors, vec![NodeId::new(1)]);
        assert_all_bridge_ends_protected(&inst, &sol);
    }

    #[test]
    fn rumor_seeds_are_never_selected() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (1, 3)]).unwrap();
        let inst = instance(g, vec![0, 0, 1, 1], vec![0, 1]);
        let sol = scbg(&inst, &ScbgConfig::default());
        assert!(sol.is_complete());
        for p in &sol.protectors {
            assert!(!inst.is_rumor_seed(*p), "selected rumor seed {p}");
        }
        assert_all_bridge_ends_protected(&inst, &sol);
    }

    #[test]
    fn empty_bridge_set_needs_no_protectors() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 0)]).unwrap();
        let inst = instance(g, vec![0, 0, 1, 1], vec![0]);
        let sol = scbg(&inst, &ScbgConfig::default());
        assert!(sol.protectors.is_empty());
        assert!(sol.is_complete());
        assert_eq!(sol.candidate_count, 0);
    }

    #[test]
    fn depth_cap_still_covers_via_self_protection() {
        // Even with depth 0, Q_v = {v} and SCBG protects the bridge
        // ends directly.
        let g = DiGraph::from_edges(5, [(0, 1), (1, 3), (1, 4)]).unwrap();
        let inst = instance(g, vec![0, 0, 0, 1, 1], vec![0]);
        let sol = scbg(
            &inst,
            &ScbgConfig {
                max_bbst_depth: Some(0),
                ..ScbgConfig::default()
            },
        );
        assert!(sol.is_complete());
        let mut got = sol.protectors.clone();
        got.sort_unstable();
        assert_eq!(got, vec![NodeId::new(3), NodeId::new(4)]);
        assert_all_bridge_ends_protected(&inst, &sol);
    }

    #[test]
    fn depth_cap_increases_or_keeps_cover_size() {
        let mut rng = SmallRng::seed_from_u64(13);
        let (g, labels) =
            generators::planted_partition(&[30, 30, 30], 0.25, 0.02, false, &mut rng).unwrap();
        let p = Partition::from_labels(labels);
        let inst = RumorBlockingInstance::with_random_seeds(g, p, 0, 3, &mut rng).unwrap();
        let full = scbg(&inst, &ScbgConfig::default());
        let capped = scbg(
            &inst,
            &ScbgConfig {
                max_bbst_depth: Some(1),
                ..ScbgConfig::default()
            },
        );
        assert!(full.is_complete());
        assert!(capped.is_complete());
        assert!(capped.protectors.len() >= full.protectors.len());
    }

    #[test]
    fn scbg_certifies_protection_on_random_community_graphs() {
        for seed in 0..10u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (g, labels) =
                generators::planted_partition(&[25, 25, 25], 0.3, 0.03, false, &mut rng).unwrap();
            let p = Partition::from_labels(labels);
            let inst = RumorBlockingInstance::with_random_seeds(g, p, 0, 2, &mut rng).unwrap();
            let sol = scbg(&inst, &ScbgConfig::default());
            assert!(sol.is_complete(), "seed {seed}: incomplete cover");
            assert_all_bridge_ends_protected(&inst, &sol);
            // The analytic oracle agrees.
            let seeds = inst.seed_sets(sol.protectors.clone()).unwrap();
            let outcome = doam_analytic(inst.graph(), &seeds);
            for &v in &sol.bridge_ends.nodes {
                assert!(!outcome.status(v).is_infected());
            }
        }
    }

    #[test]
    fn deterministic_output() {
        let mut rng = SmallRng::seed_from_u64(21);
        let (g, labels) =
            generators::planted_partition(&[20, 20], 0.3, 0.05, false, &mut rng).unwrap();
        let p = Partition::from_labels(labels);
        let inst = RumorBlockingInstance::with_random_seeds(g, p, 0, 2, &mut rng).unwrap();
        let a = scbg(&inst, &ScbgConfig::default());
        let b = scbg(&inst, &ScbgConfig::default());
        assert_eq!(a.protectors, b.protectors);
    }
}
