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
//!    Q_v}` (step 5), stored as one CSR table built in two passes of
//!    the same searches: the first counts `|SW_u|` per node, a prefix
//!    sum over the nodes in ascending id places the rows, and the
//!    second writes each bridge-end index into its row;
//! 4. run greedy set cover (Algorithm 2) over the `SW_u` to cover `B`
//!    (step 6).
//!
//! Because the DOAM oracle is exact (see `lcrb-diffusion::doam`),
//! every SCBG cover is a *certified* solution: all bridge ends are
//! provably protected. The approximation factor is `H(|B|) = O(ln
//! |B|)` by the set-cover reduction (Theorems 2–3).

use lcrb_diffusion::{StopReason, WorkMeter};
use lcrb_graph::traversal::{CsrBfsScratch, Direction};
use lcrb_graph::{CsrGraph, NodeId};

use crate::setcover::{greedy_set_cover_metered, SetTable};
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

/// [`scbg`] under a [`WorkMeter`]: each of the star table's two passes
/// polls once per bridge end, and the cover loop once per pick.
///
/// A deadline stop during the *cover* keeps the selection prefix (a
/// valid partial cover, reported via `Some(reason)` and a `covered`
/// count below `bridge_ends.len()`); a stop during either *star-table
/// pass* has no salvageable prefix and surfaces as an error.
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

/// Step 4 of Algorithm 3 on the instance's CSR snapshot: the
/// Bridge-end Backward Search Trees, walked one bridge end at a time
/// through one reused [`CsrBfsScratch`]. SCBG's two star-table passes
/// and the greedy's `CandidatePool::BbstUnion` all walk with it.
pub(crate) struct BbstWalker<'a> {
    csr: &'a CsrGraph,
    /// Infection times: hop distance from the nearest rumor originator
    /// in the full graph.
    d_r: CsrBfsScratch,
    back: CsrBfsScratch,
    is_rumor: Vec<bool>,
    max_depth: Option<u32>,
}

impl<'a> BbstWalker<'a> {
    /// A walker whose searches stop at `d_R(v)`, or at `max_depth` when
    /// that is smaller.
    pub(crate) fn new(instance: &'a RumorBlockingInstance, max_depth: Option<u32>) -> Self {
        let csr = instance.snapshot();
        let mut d_r = CsrBfsScratch::new();
        d_r.run(csr, instance.rumor_seeds(), Direction::Forward, u32::MAX);
        let mut is_rumor = vec![false; csr.node_count()];
        for &r in instance.rumor_seeds() {
            is_rumor[r.index()] = true;
        }
        Self {
            csr,
            d_r,
            back: CsrBfsScratch::new(),
            is_rumor,
            max_depth,
        }
    }

    /// `Q_v` minus the rumor seeds, each node once, in BFS order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unreachable from the rumor originators, which
    /// no bridge end is.
    pub(crate) fn members(&mut self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let depth = self
            .d_r
            .distance(v)
            // xtask-allow: panic -- bridge ends are discovered by forward BFS from the rumor seeds, so a distance exists
            .expect("bridge ends are reachable from the rumor originators by definition");
        let depth = self.max_depth.map_or(depth, |cap| depth.min(cap));
        self.back.run(self.csr, &[v], Direction::Backward, depth);
        let is_rumor = &self.is_rumor;
        self.back
            .order()
            .iter()
            .copied()
            .filter(move |u| !is_rumor[u.index()])
    }
}

/// Steps 4–5 of Algorithm 3: the star sets `SW_u = {v : u ∈ Q_v \
/// S_R}` as one CSR [`SetTable`] over bridge-end indices, built in two
/// passes of the same searches. Pass 1 counts `|SW_u|` per node. A
/// prefix sum over the nodes in ascending id makes every node with a
/// nonempty star set the next row, so the candidates come out in
/// ascending id. Pass 2 writes each bridge-end index into its
/// candidate's next free slot, so every row is in ascending index
/// order. The cover's tie-breaks depend on both orders.
///
/// Polls `meter` once per bridge end in each pass; any stop surfaces
/// as an error because a partial table cannot seed a meaningful
/// cover.
fn build_star_sets(
    instance: &RumorBlockingInstance,
    bridge_ends: &BridgeEnds,
    max_bbst_depth: Option<u32>,
    meter: &WorkMeter,
) -> Result<(Vec<NodeId>, SetTable), StopReason> {
    let csr = instance.snapshot();
    let mut walker = BbstWalker::new(instance, max_bbst_depth);

    // Pass 1: `next[u]` counts |SW_u|.
    let mut next = vec![0usize; csr.node_count()];
    for &v in &bridge_ends.nodes {
        meter.poll()?;
        for u in walker.members(v) {
            next[u.index()] += 1;
        }
    }

    // Prefix sum: `next[u]` becomes the first slot of u's row.
    let mut candidates = Vec::new();
    let mut offsets = vec![0];
    let mut total = 0;
    for u in csr.nodes() {
        let count = std::mem::replace(&mut next[u.index()], total);
        if count > 0 {
            total += count;
            candidates.push(u);
            offsets.push(total);
        }
    }

    // Pass 2: fill each row in bridge-end order.
    let mut items = vec![0; total];
    for (b_idx, &v) in bridge_ends.nodes.iter().enumerate() {
        meter.poll()?;
        for u in walker.members(v) {
            let slot = &mut next[u.index()];
            items[*slot] = b_idx as u32;
            *slot += 1;
        }
    }
    Ok((candidates, SetTable { offsets, items }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrb_community::Partition;
    use lcrb_diffusion::{doam_analytic_csr, DoamModel, SimWorkspace};
    use lcrb_graph::generators;
    use lcrb_graph::DiGraph;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    use crate::greedy::candidate_pool;
    use crate::CandidatePool;

    fn instance(g: DiGraph, labels: Vec<usize>, seeds: Vec<usize>) -> RumorBlockingInstance {
        let p = Partition::from_labels(labels);
        RumorBlockingInstance::new(g, p, 0, seeds.into_iter().map(NodeId::new).collect()).unwrap()
    }

    /// Protection check shared by the tests: simulate DOAM with the
    /// chosen protectors and assert every bridge end survives.
    fn assert_all_bridge_ends_protected(inst: &RumorBlockingInstance, sol: &ScbgSolution) {
        let seeds = inst.seed_sets(sol.protectors.clone()).unwrap();
        let mut ws = SimWorkspace::new();
        DoamModel::default().run_deterministic_into(inst.snapshot(), &seeds, &mut ws);
        for &v in &sol.bridge_ends.nodes {
            assert!(!ws.status(v).is_infected(), "bridge end {v} was infected");
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
            let (mut d_r, mut d_p) = (CsrBfsScratch::new(), CsrBfsScratch::new());
            let outcome = doam_analytic_csr(inst.snapshot(), &seeds, &mut d_r, &mut d_p);
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

    #[test]
    fn bbst_union_pool_equals_the_star_table_candidates() {
        for seed in 0..10u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (g, labels) =
                generators::planted_partition(&[25, 25, 25], 0.3, 0.03, false, &mut rng).unwrap();
            let p = Partition::from_labels(labels);
            let inst = RumorBlockingInstance::with_random_seeds(g, p, 0, 3, &mut rng).unwrap();
            let bridges = find_bridge_ends(&inst, BridgeEndRule::default());
            let (candidates, _) =
                build_star_sets(&inst, &bridges, None, &WorkMeter::unlimited()).unwrap();
            let pool = candidate_pool(&inst, &bridges, CandidatePool::BbstUnion);
            assert!(!pool.is_empty(), "seed {seed}: empty pool");
            assert_eq!(pool, candidates, "seed {seed}");
        }
    }

    /// A random two-community instance with one or two rumor seeds in
    /// community 0, as in the integration proptests' `arb_instance`.
    fn arb_instance() -> impl Strategy<Value = RumorBlockingInstance> {
        (4usize..14, 4usize..14).prop_flat_map(|(a, b)| {
            let n = a + b;
            (
                proptest::collection::vec((0..n, 0..n), n..(4 * n)),
                proptest::collection::btree_set(0..a, 1..3),
            )
                .prop_map(move |(pairs, seeds)| {
                    let mut g = DiGraph::with_nodes(n);
                    for (u, v) in pairs {
                        if u != v {
                            let _ = g.add_edge(NodeId::new(u), NodeId::new(v));
                        }
                    }
                    let labels = (0..n).map(|i| usize::from(i >= a)).collect();
                    instance(g, labels, seeds.into_iter().collect())
                })
        })
    }

    /// The star sets from their definition: `Q_v` from a fresh
    /// backward BFS per bridge end, to depth `d_R(v)` (capped), and
    /// row `u` the ascending indices `v` with `u ∈ Q_v \ S_R`, for
    /// every node `u` in ascending id whose row is nonempty.
    fn star_sets_by_definition(
        inst: &RumorBlockingInstance,
        bridge_ends: &BridgeEnds,
        cap: Option<u32>,
    ) -> (Vec<NodeId>, Vec<Vec<u32>>) {
        let csr = inst.snapshot();
        let mut d_r = CsrBfsScratch::new();
        d_r.run(csr, inst.rumor_seeds(), Direction::Forward, u32::MAX);
        let trees: Vec<CsrBfsScratch> = bridge_ends
            .nodes
            .iter()
            .map(|&v| {
                let depth = d_r.distance(v).unwrap();
                let mut q_v = CsrBfsScratch::new();
                q_v.run(
                    csr,
                    &[v],
                    Direction::Backward,
                    cap.map_or(depth, |c| depth.min(c)),
                );
                q_v
            })
            .collect();
        let mut candidates = Vec::new();
        let mut rows = Vec::new();
        for u in csr.nodes().filter(|&u| !inst.is_rumor_seed(u)) {
            let row: Vec<u32> = (0..trees.len())
                .filter(|&b| trees[b].is_reached(u))
                .map(|b| b as u32)
                .collect();
            if !row.is_empty() {
                candidates.push(u);
                rows.push(row);
            }
        }
        (candidates, rows)
    }

    proptest! {
        /// The two-pass star table equals its definition at every BBST
        /// depth cap: the same candidates in ascending id, and each
        /// row the same bridge-end indices in ascending order.
        #[test]
        fn star_table_matches_its_definition(inst in arb_instance(), cap in 0u32..4) {
            let bridges = find_bridge_ends(&inst, BridgeEndRule::default());
            // Draw 0 is the paper's full depth; draw k caps at k − 1.
            let cap = cap.checked_sub(1);
            let (candidates, table) =
                build_star_sets(&inst, &bridges, cap, &WorkMeter::unlimited()).unwrap();
            let (want_candidates, want_rows) = star_sets_by_definition(&inst, &bridges, cap);
            prop_assert_eq!(&candidates, &want_candidates);
            prop_assert_eq!(table.offsets.first(), Some(&0));
            prop_assert_eq!(table.offsets.last(), Some(&table.items.len()));
            prop_assert_eq!(table.len(), want_rows.len());
            for (i, want) in want_rows.iter().enumerate() {
                prop_assert_eq!(table.row(i), want.as_slice(), "row of {}", candidates[i]);
            }
        }
    }
}
