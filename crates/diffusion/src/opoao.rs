//! The Opportunistic One-Activate-One (OPOAO) model of §III-A.
//!
//! At every step, every active node picks exactly one of its
//! out-neighbors uniformly at random (probability `1/d_out(u)`) as
//! its activation target; targets that are still inactive activate at
//! the next step, with the protector cascade winning simultaneous
//! claims. Nodes re-select every step ("repeat activation", cf. the
//! paper's Fig. 1 where `x` re-selects `u` at step 2), so hitting an
//! already-active neighbor wastes the step and diffusion is slow —
//! the person-to-person contact regime the paper describes.

use rand::Rng;

use lcrb_graph::{CsrGraph, NodeId};

use crate::{
    HopRecord, OpoaoRealization, SeedError, SeedSets, SimWorkspace, Status, TwoCascadeModel,
};

/// Number of hops the paper simulates in Figures 4–6.
pub const PAPER_OPOAO_HOPS: u32 = 31;

/// Protector sets one [`OpoaoModel::run_lanes_into`] pass carries:
/// one bit lane of a `u64` mask each.
pub const OPOAO_LANES: usize = u64::BITS as usize;

/// The OPOAO model configured with a hop budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpoaoModel {
    /// Maximum number of diffusion hops to simulate. The run also
    /// stops early when no active node has an inactive out-neighbor.
    pub max_hops: u32,
}

impl Default for OpoaoModel {
    /// Defaults to the paper's 31-hop budget.
    fn default() -> Self {
        OpoaoModel {
            max_hops: PAPER_OPOAO_HOPS,
        }
    }
}

impl OpoaoModel {
    /// Creates a model with the given hop budget.
    #[must_use]
    pub fn new(max_hops: u32) -> Self {
        OpoaoModel { max_hops }
    }

    /// Runs the model deterministically against a pre-sampled
    /// [`OpoaoRealization`] (common-random-numbers coupling; see
    /// DESIGN.md §2), writing the result into `ws` without allocating.
    /// Two calls with the same realization and seeds produce identical
    /// outcomes, and calls with different protector sets share all
    /// rumor-side randomness. This is the inner loop of the greedy
    /// objective, which evaluates thousands of protector sets against
    /// the same realizations, of [`TwoCascadeModel::run_into`], and
    /// the scalar reference for the lane kernel.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` refers to nodes outside the snapshot.
    pub fn run_realized_into(
        &self,
        graph: &CsrGraph,
        seeds: &SeedSets,
        ws: &mut SimWorkspace,
        realization: &OpoaoRealization,
    ) {
        // Workspace buffer roles: `frontier` is the live set (active
        // nodes that can still activate someone), `counters[u]` the
        // number of inactive out-neighbors of `u`, `claimed` the
        // staging list of nodes claimed this hop.
        let n = graph.node_count();
        ws.begin(n, seeds);

        // A node with no inactive out-neighbor can never cause another
        // activation and retires from the live set.
        ws.counters.clear();
        ws.counters.extend_from_slice(graph.out_degrees());
        for &s in seeds.rumors().iter().chain(seeds.protectors()) {
            for &u in graph.in_neighbors(s) {
                ws.counters[u.index()] -= 1;
            }
        }

        ws.frontier.clear();
        ws.frontier.extend(
            seeds
                .rumors()
                .iter()
                .chain(seeds.protectors())
                .copied()
                .filter(|&v| graph.out_degree(v) > 0),
        );

        let mut quiescent = false;
        for hop in 1..=self.max_hops {
            let counters = &ws.counters;
            ws.frontier.retain(|&u| counters[u.index()] > 0);
            if ws.frontier.is_empty() {
                quiescent = true;
                break;
            }
            ws.claimed.clear();
            for i in 0..ws.frontier.len() {
                let u = ws.frontier[i];
                let degree = graph.out_degree(u);
                let target = graph.out_neighbors(u)[realization.choice(u, hop, degree)];
                if !ws.is_inactive(target) {
                    continue;
                }
                let cascade = if ws.status(u) == Status::Protected {
                    2
                } else {
                    1
                };
                let slot = &mut ws.claim[target.index()];
                if *slot == 0 {
                    ws.claimed.push(target);
                }
                // Protector priority: P (2) overrides R (1).
                *slot = (*slot).max(cascade);
            }
            ws.new_protected.clear();
            ws.new_infected.clear();
            for i in 0..ws.claimed.len() {
                let w = ws.claimed[i];
                let slot = ws.claim[w.index()];
                ws.claim[w.index()] = 0;
                if slot == 2 {
                    ws.new_protected.push(w);
                } else {
                    ws.new_infected.push(w);
                }
                for &u in graph.in_neighbors(w) {
                    ws.counters[u.index()] -= 1;
                }
                if graph.out_degree(w) > 0 {
                    ws.frontier.push(w);
                }
            }
            ws.commit_hop(hop);
        }
        ws.set_quiescent(quiescent);
    }

    /// Runs one realization for up to [`OPOAO_LANES`] protector sets
    /// that share the rumor seeds, one set per bit lane of `lanes`.
    ///
    /// Lane `l`'s final statuses (read through
    /// [`LaneWorkspace::infected`] and [`LaneWorkspace::protected`])
    /// equal those of [`OpoaoModel::run_realized_into`] with rumors
    /// `rumors` and protectors `protector_sets[l]`. A realization's
    /// choice for (node, hop) does not depend on the seed sets, so the
    /// lanes share one frontier and one `choice` per frontier node per
    /// hop (DESIGN.md §2). A workspace made by
    /// [`LaneWorkspace::traced`] also records each lane's hop trace
    /// and quiescence, equal to the scalar run's
    /// ([`LaneWorkspace::trace_into`]).
    ///
    /// # Errors
    ///
    /// Validates like [`SeedSets::set_protectors`], lane by lane:
    /// [`SeedError::OutOfBounds`] for a seed outside `graph`,
    /// [`SeedError::Overlap`] for a protector that is also a rumor
    /// seed, and [`SeedError::TooManyLanes`] for more than
    /// [`OPOAO_LANES`] sets. After an error `lanes` holds no result.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb_diffusion::{LaneWorkspace, OpoaoModel, OpoaoRealization};
    /// use lcrb_graph::{CsrGraph, DiGraph, NodeId};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let g = CsrGraph::from(&DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?);
    /// let sets = [vec![], vec![NodeId::new(2)]];
    /// let mut lanes = LaneWorkspace::new();
    /// OpoaoModel::default().run_lanes_into(
    ///     &g,
    ///     &[NodeId::new(0)],
    ///     sets.iter(),
    ///     &mut lanes,
    ///     &OpoaoRealization::new(7),
    /// )?;
    /// // Unprotected (lane 0) the rumor walks the path; a protector at
    /// // node 2 (lane 1) saves node 3.
    /// assert_eq!(lanes.infected(NodeId::new(3)), 0b01);
    /// assert_eq!(lanes.protected(NodeId::new(3)), 0b10);
    /// # Ok(())
    /// # }
    /// ```
    pub fn run_lanes_into<I>(
        &self,
        graph: &CsrGraph,
        rumors: &[NodeId],
        protector_sets: I,
        lanes: &mut LaneWorkspace,
        realization: &OpoaoRealization,
    ) -> Result<(), SeedError>
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        I::Item: AsRef<[NodeId]>,
    {
        let sets = protector_sets.into_iter();
        if sets.len() > OPOAO_LANES {
            return Err(SeedError::TooManyLanes { sets: sets.len() });
        }
        lanes.begin(graph, sets.len());
        lanes.place_seeds(rumors, sets)?;
        lanes.run(graph, self.max_hops, realization);
        Ok(())
    }
}

/// A node's state across the lanes of one packed run: bit `l` is set
/// where the node is infected (or protected) under protector set `l`.
/// As a claim, the same pair holds the lanes whose rumor (`infected`)
/// or protector (`protected`) cascade targets the node this hop.
#[derive(Clone, Copy, Debug, Default)]
struct LaneMasks {
    infected: u64,
    protected: u64,
}

impl LaneMasks {
    #[inline]
    fn active(self) -> u64 {
        self.infected | self.protected
    }
}

/// One lane's new activations at one hop of a traced packed run.
#[derive(Clone, Copy, Debug, Default)]
struct LaneCount {
    infected: u32,
    protected: u32,
}

/// Calls `f` with the index of every set bit of `mask`, lowest first.
#[inline]
fn for_each_lane(mut mask: u64, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

/// Reusable scratch and result state for
/// [`OpoaoModel::run_lanes_into`]: about 44 bytes per node, grown on
/// first use and kept across runs, so repeated runs allocate nothing.
///
/// After a run, [`LaneWorkspace::infected`] and
/// [`LaneWorkspace::protected`] give each node's final status in every
/// lane as a bit mask. A workspace made by [`LaneWorkspace::traced`]
/// also keeps each lane's hop trace, which the Monte-Carlo loop
/// averages; the greedy's sweep reads final statuses only and skips
/// the counting.
#[derive(Clone, Debug, Default)]
pub struct LaneWorkspace {
    node_count: usize,
    /// Bits of the lanes in use.
    lane_mask: u64,
    state: Vec<LaneMasks>,
    /// Claim staging; restored to all-zeros before each hop ends.
    claim: Vec<LaneMasks>,
    /// Out-arcs of `u` whose head is not yet active in every lane. A
    /// node at zero cannot activate anyone in any lane and retires.
    counters: Vec<u32>,
    /// Nodes active in some lane that may still activate someone: a
    /// superset of every lane's own live set.
    frontier: Vec<NodeId>,
    /// Targets claimed this hop, in its first slots; `n + 1` long.
    claimed: Vec<NodeId>,
    /// Whether runs record the per-lane traces below.
    traced: bool,
    /// New activations of the last traced run, hop-major: row `h`
    /// holds one entry per lane for hop `h`.
    counts: Vec<LaneCount>,
    /// Each lane's trace length in the last traced run.
    trace_len: Vec<u32>,
    /// Lanes of the last traced run that stopped by quiescence.
    quiescent: u64,
}

impl LaneWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        LaneWorkspace::default()
    }

    /// Creates an empty workspace whose runs also record every lane's
    /// hop trace and quiescence, read back with
    /// [`LaneWorkspace::trace_into`] and
    /// [`LaneWorkspace::is_quiescent`].
    #[must_use]
    pub fn traced() -> Self {
        LaneWorkspace {
            traced: true,
            ..LaneWorkspace::default()
        }
    }

    /// Bit mask of the last run's lanes: bit `l` is set for each of
    /// its protector sets.
    #[must_use]
    pub fn lane_mask(&self) -> u64 {
        self.lane_mask
    }

    /// The lanes in which `node` ended infected in the last run.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for the last run's graph.
    #[must_use]
    pub fn infected(&self, node: NodeId) -> u64 {
        self.masks(node).infected
    }

    /// The lanes in which `node` ended protected in the last run.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for the last run's graph.
    #[must_use]
    pub fn protected(&self, node: NodeId) -> u64 {
        self.masks(node).protected
    }

    fn masks(&self, node: NodeId) -> LaneMasks {
        assert!(node.index() < self.node_count, "node {node} out of bounds");
        self.state[node.index()]
    }

    /// Writes lane `lane`'s hop trace of the last traced run into
    /// `out`, replacing its contents. It equals the
    /// [`SimWorkspace::trace`] that [`OpoaoModel::run_realized_into`]
    /// leaves for that lane's protector set: one record per hop the
    /// scalar run makes, hop 0 first. A lane's trace ends where the
    /// scalar run's does, at the hop its own live set empties, even
    /// while other lanes go on.
    ///
    /// # Panics
    ///
    /// Panics if the workspace was not made by
    /// [`LaneWorkspace::traced`] or `lane` is not a lane of the last
    /// run.
    pub fn trace_into(&self, lane: usize, out: &mut Vec<HopRecord>) {
        let width = self.traced_width(lane);
        out.clear();
        let (mut total_infected, mut total_protected) = (0, 0);
        for (hop, row) in (0..self.trace_len[lane]).zip(self.counts.chunks_exact(width)) {
            let c = row[lane];
            let (new_infected, new_protected) = (c.infected as usize, c.protected as usize);
            total_infected += new_infected;
            total_protected += new_protected;
            out.push(HopRecord {
                hop,
                new_infected,
                new_protected,
                total_infected,
                total_protected,
            });
        }
    }

    /// Whether lane `lane` of the last traced run stopped because no
    /// further activation was possible in it, as
    /// [`SimWorkspace::is_quiescent`] reports for the scalar run.
    ///
    /// # Panics
    ///
    /// Same conditions as [`LaneWorkspace::trace_into`].
    #[must_use]
    pub fn is_quiescent(&self, lane: usize) -> bool {
        self.traced_width(lane);
        (self.quiescent >> lane) & 1 == 1
    }

    /// The last traced run's lane count, once `lane` is checked to be
    /// one of its lanes.
    fn traced_width(&self, lane: usize) -> usize {
        assert!(self.traced, "the workspace does not record traces");
        let width = self.lane_mask.count_ones() as usize;
        assert!(
            lane < width,
            "lane {lane} is not one of the last run's {width}"
        );
        width
    }

    /// Resets every per-node buffer for a run of `lanes` sets on
    /// `graph`.
    fn begin(&mut self, graph: &CsrGraph, lanes: usize) {
        let n = graph.node_count();
        self.node_count = n;
        self.lane_mask = if lanes == OPOAO_LANES {
            u64::MAX
        } else {
            (1 << lanes) - 1
        };
        self.state.clear();
        self.state.resize(n, LaneMasks::default());
        if self.claim.len() < n {
            self.claim.resize(n, LaneMasks::default());
        }
        debug_assert!(
            self.claim.iter().all(|c| c.active() == 0),
            "a previous run left claim staging set"
        );
        self.counters.clear();
        self.counters.extend_from_slice(graph.out_degrees());
        self.frontier.clear();
        if self.claimed.len() <= n {
            self.claimed.resize(n + 1, NodeId::new(0));
        }
        self.counts.clear();
        self.trace_len.clear();
        self.quiescent = 0;
    }

    /// Places the rumors in every lane and set `l` in lane `l`,
    /// validating like [`SeedSets::set_protectors`]. Every seeded node
    /// enters the frontier once.
    fn place_seeds<I>(&mut self, rumors: &[NodeId], sets: I) -> Result<(), SeedError>
    where
        I: Iterator,
        I::Item: AsRef<[NodeId]>,
    {
        let n = self.node_count;
        let out_of_bounds = |&v: &NodeId| {
            (v.index() >= n).then_some(SeedError::OutOfBounds {
                node: v,
                node_count: n,
            })
        };
        if let Some(e) = rumors.iter().find_map(out_of_bounds) {
            return Err(e);
        }
        for &r in rumors {
            self.activate(
                r,
                LaneMasks {
                    infected: self.lane_mask,
                    protected: 0,
                },
            );
        }
        let lanes = self.lane_mask.count_ones() as usize;
        for (lane, set) in sets.take(lanes).enumerate() {
            let set = set.as_ref();
            if let Some(e) = set.iter().find_map(out_of_bounds) {
                return Err(e);
            }
            for &p in set {
                if self.state[p.index()].infected != 0 {
                    return Err(SeedError::Overlap { node: p });
                }
                self.activate(
                    p,
                    LaneMasks {
                        infected: 0,
                        protected: 1 << lane,
                    },
                );
            }
        }
        Ok(())
    }

    /// Seeds `v` in the lanes of `add`; a node's first activation in
    /// any lane puts it on the frontier.
    fn activate(&mut self, v: NodeId, add: LaneMasks) {
        let s = &mut self.state[v.index()];
        if s.active() == 0 && add.active() != 0 {
            self.frontier.push(v);
        }
        s.infected |= add.infected;
        s.protected |= add.protected;
    }

    /// Runs the hop loop, counting per lane only if the workspace is
    /// traced.
    fn run(&mut self, graph: &CsrGraph, max_hops: u32, realization: &OpoaoRealization) {
        if self.traced {
            self.run_hops::<true>(graph, max_hops, realization);
        } else {
            self.run_hops::<false>(graph, max_hops, realization);
        }
    }

    /// The hop loop: every lane of
    /// [`OpoaoModel::run_realized_into`] at once. With `TRACE`, it
    /// also counts each lane's new activations per hop and settles
    /// each lane's trace length and quiescence.
    fn run_hops<const TRACE: bool>(
        &mut self,
        graph: &CsrGraph,
        max_hops: u32,
        realization: &OpoaoRealization,
    ) {
        let LaneWorkspace {
            lane_mask,
            state,
            claim,
            counters,
            frontier,
            claimed,
            counts,
            trace_len,
            quiescent,
            ..
        } = self;
        let full = *lane_mask;
        let width = full.count_ones() as usize;
        if TRACE {
            // Hop 0: the seeds, each on the frontier once. Every lane
            // stays one record long until it activates someone.
            counts.resize(width, LaneCount::default());
            trace_len.resize(width, 1);
            for &s in frontier.iter() {
                let m = state[s.index()];
                for_each_lane(m.infected, |l| counts[l].infected += 1);
                for_each_lane(m.protected, |l| counts[l].protected += 1);
            }
        }
        // A seed active in every lane (a rumor, or a protector common
        // to all sets) closes its in-arcs from the start.
        for &s in frontier.iter() {
            if state[s.index()].active() == full {
                for &u in graph.in_neighbors(s) {
                    counters[u.index()] -= 1;
                }
            }
        }
        frontier.retain(|&v| graph.out_degree(v) > 0);

        let mut all_closed = false;
        for hop in 1..=max_hops {
            frontier.retain(|&u| counters[u.index()] > 0);
            if frontier.is_empty() {
                all_closed = true;
                break;
            }
            // Staged without branches: every target is written, and
            // `staged` only moves past a target newly claimed this hop.
            // At most `n` are, so the `n + 1` slots never overflow.
            let mut staged = 0;
            for &u in frontier.iter() {
                let degree = graph.out_degree(u);
                let target = graph.out_neighbors(u)[realization.choice(u, hop, degree)];
                let from = state[u.index()];
                // Lanes where `u` is active and its target is not.
                let open = from.active() & !state[target.index()].active();
                let slot = &mut claim[target.index()];
                let fresh = slot.active() == 0;
                slot.infected |= open & from.infected;
                slot.protected |= open & from.protected;
                claimed[staged] = target;
                staged += usize::from(fresh & (open != 0));
            }
            let row = counts.len();
            if TRACE {
                counts.resize(row + width, LaneCount::default());
            }
            let mut touched = 0;
            for &w in &claimed[..staged] {
                let slot = std::mem::take(&mut claim[w.index()]);
                let s = &mut state[w.index()];
                let before = s.active();
                // Protector priority: a lane takes the rumor's claim
                // only where no protector claimed.
                s.protected |= slot.protected;
                s.infected |= slot.infected & !slot.protected;
                if TRACE {
                    // Claims come only from lanes where `w` was
                    // inactive, so every claimed lane is new.
                    let hop_counts = &mut counts[row..];
                    for_each_lane(slot.infected & !slot.protected, |l| {
                        hop_counts[l].infected += 1;
                    });
                    for_each_lane(slot.protected, |l| hop_counts[l].protected += 1);
                    touched |= slot.active();
                }
                if before == 0 && graph.out_degree(w) > 0 {
                    frontier.push(w);
                }
                if s.active() == full {
                    for &u in graph.in_neighbors(w) {
                        counters[u.index()] -= 1;
                    }
                }
            }
            if TRACE {
                for_each_lane(touched, |l| trace_len[l] = hop + 1);
            }
        }
        if TRACE {
            // A lane's active set only grows, so once no active node
            // has an inactive out-neighbor in it, nothing happens in
            // it again, and the scalar run would have stopped at the
            // hop after its last activation. A lane is therefore
            // quiescent when its final set is closed and that
            // activation came before the last hop; every other lane
            // ran the full budget.
            let mut early = 0;
            for_each_lane(full, |l| {
                if trace_len[l] <= max_hops {
                    early |= 1 << l;
                }
            });
            if !all_closed {
                early &= !open_lanes(graph, state, frontier, early);
            }
            *quiescent = early;
            for_each_lane(full & !early, |l| trace_len[l] = max_hops + 1);
        }
    }
}

/// The lanes of `lanes` in which some active node still has an
/// inactive out-neighbor. Only frontier nodes can: a node leaves the
/// frontier once its out-neighbors are active in every lane.
fn open_lanes(graph: &CsrGraph, state: &[LaneMasks], frontier: &[NodeId], lanes: u64) -> u64 {
    let mut open = 0;
    for &u in frontier {
        let from = state[u.index()].active() & lanes & !open;
        if from == 0 {
            continue;
        }
        for &v in graph.out_neighbors(u) {
            open |= from & !state[v.index()].active();
        }
        if open == lanes {
            break;
        }
    }
    open
}

impl TwoCascadeModel for OpoaoModel {
    /// Takes one draw from `rng` as a realization seed and runs
    /// [`OpoaoModel::run_realized_into`] against that
    /// [`OpoaoRealization`]. OPOAO therefore samples one way
    /// everywhere: a Monte-Carlo run, a greedy realization and a
    /// lane-packed evaluation run are all a realization, and two
    /// calls on equal streams make the same choices whatever the
    /// protector sets (DESIGN.md §2).
    fn run_into<R: Rng + ?Sized>(
        &self,
        graph: &CsrGraph,
        seeds: &SeedSets,
        ws: &mut SimWorkspace,
        rng: &mut R,
    ) {
        self.run_realized_into(graph, seeds, ws, &OpoaoRealization::draw(rng));
    }

    fn as_opoao(&self) -> Option<&OpoaoModel> {
        Some(self)
    }

    fn name(&self) -> &'static str {
        "opoao"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fresh_run;
    use crate::DiffusionOutcome;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    /// One run of `model` on `g` in a fresh workspace, drawing from
    /// `rng(seed)`.
    fn run(
        model: OpoaoModel,
        g: &lcrb_graph::DiGraph,
        seeds: &SeedSets,
        seed: u64,
    ) -> DiffusionOutcome {
        fresh_run(&model, &CsrGraph::from(g), seeds, &mut rng(seed))
    }

    /// One realized run in a fresh workspace, as an owned outcome.
    fn realized(
        model: &OpoaoModel,
        g: &CsrGraph,
        seeds: &SeedSets,
        real: &OpoaoRealization,
    ) -> DiffusionOutcome {
        let mut ws = SimWorkspace::new();
        model.run_realized_into(g, seeds, &mut ws, real);
        ws.to_outcome()
    }

    #[test]
    fn single_out_neighbor_chain_is_deterministic() {
        // On a path, each node has exactly one out-neighbor, so the
        // "random" choice is forced and the rumor walks the path.
        let g = lcrb_graph::generators::path_graph(5);
        let seeds = SeedSets::rumors_only(&g, vec![NodeId::new(0)]).unwrap();
        let o = run(OpoaoModel::new(10), &g, &seeds, 0);
        assert_eq!(o.infected_count(), 5);
        for i in 0..5 {
            assert_eq!(o.activation_hop(NodeId::new(i)), Some(i as u32));
        }
        assert!(o.is_quiescent());
    }

    #[test]
    fn protector_priority_on_simultaneous_claim() {
        // 0 (rumor) -> 2 <- 1 (protector): both claim node 2 at hop 1.
        let g = lcrb_graph::DiGraph::from_edges(3, [(0, 2), (1, 2)]).unwrap();
        let seeds = SeedSets::new(&g, vec![NodeId::new(0)], vec![NodeId::new(1)]).unwrap();
        for seed in 0..20 {
            let o = run(OpoaoModel::new(5), &g, &seeds, seed);
            assert_eq!(o.status(NodeId::new(2)), Status::Protected);
            assert_eq!(o.activation_hop(NodeId::new(2)), Some(1));
        }
    }

    #[test]
    fn protector_blocks_downstream_chain() {
        // rumor 0 -> 1 -> 2 -> 3, protector at 2 already: 3 should be
        // protected... no wait, 2 is a *seed*, so only 1 can be
        // infected and 3 stays for P to claim.
        let g = lcrb_graph::generators::path_graph(4);
        let seeds = SeedSets::new(&g, vec![NodeId::new(0)], vec![NodeId::new(2)]).unwrap();
        let o = run(OpoaoModel::new(10), &g, &seeds, 1);
        assert_eq!(o.status(NodeId::new(1)), Status::Infected);
        assert_eq!(o.status(NodeId::new(3)), Status::Protected);
        assert!(o.is_quiescent());
    }

    #[test]
    fn hop_budget_truncates() {
        let g = lcrb_graph::generators::path_graph(10);
        let seeds = SeedSets::rumors_only(&g, vec![NodeId::new(0)]).unwrap();
        let o = run(OpoaoModel::new(3), &g, &seeds, 2);
        assert_eq!(o.infected_count(), 4); // seed + 3 hops
        assert!(!o.is_quiescent());
    }

    #[test]
    fn no_seeds_is_immediately_quiescent() {
        let g = lcrb_graph::generators::path_graph(4);
        let seeds = SeedSets::new(&g, vec![], vec![]).unwrap();
        let o = run(OpoaoModel::default(), &g, &seeds, 3);
        assert_eq!(o.infected_count(), 0);
        assert_eq!(o.protected_count(), 0);
        assert!(o.is_quiescent());
        assert_eq!(o.trace().len(), 1);
    }

    #[test]
    fn sink_seed_cannot_spread() {
        let g = lcrb_graph::DiGraph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let seeds = SeedSets::rumors_only(&g, vec![NodeId::new(2)]).unwrap();
        let o = run(OpoaoModel::default(), &g, &seeds, 4);
        assert_eq!(o.infected_count(), 1);
        assert!(o.is_quiescent());
    }

    #[test]
    fn statuses_are_progressive_and_consistent_with_hops() {
        let mut r = rng(5);
        let g = lcrb_graph::generators::gnm_directed(60, 240, &mut r).unwrap();
        let seeds = SeedSets::new(
            &g,
            vec![NodeId::new(0), NodeId::new(1)],
            vec![NodeId::new(2)],
        )
        .unwrap();
        let o = fresh_run(&OpoaoModel::default(), &CsrGraph::from(&g), &seeds, &mut r);
        for v in g.nodes() {
            match o.status(v) {
                Status::Inactive => assert_eq!(o.activation_hop(v), None),
                _ => assert!(o.activation_hop(v).is_some()),
            }
        }
        // Trace totals are monotone.
        let t = o.trace();
        for w in t.windows(2) {
            assert!(w[1].total_infected >= w[0].total_infected);
            assert!(w[1].total_protected >= w[0].total_protected);
        }
    }

    #[test]
    fn realized_runs_are_reproducible() {
        let mut r = rng(6);
        let g = lcrb_graph::generators::gnm_directed(40, 160, &mut r).unwrap();
        let seeds = SeedSets::new(&g, vec![NodeId::new(0)], vec![NodeId::new(1)]).unwrap();
        let real = OpoaoRealization::new(77);
        let model = OpoaoModel::default();
        let csr = CsrGraph::from(&g);
        let a = realized(&model, &csr, &seeds, &real);
        let b = realized(&model, &csr, &seeds, &real);
        assert_eq!(a.statuses(), b.statuses());
        assert_eq!(a.trace(), b.trace());
    }

    #[test]
    fn realized_into_reuses_workspace_and_matches_a_fresh_workspace() {
        let mut r = rng(9);
        let g = lcrb_graph::generators::gnm_directed(40, 160, &mut r).unwrap();
        let csr = CsrGraph::from(&g);
        let seeds = SeedSets::new(&g, vec![NodeId::new(0)], vec![NodeId::new(1)]).unwrap();
        let model = OpoaoModel::default();
        let mut ws = SimWorkspace::new();
        for s in 0..8 {
            let real = OpoaoRealization::new(s);
            model.run_realized_into(&csr, &seeds, &mut ws, &real);
            let fresh = realized(&model, &csr, &seeds, &real);
            assert_eq!(ws.to_outcome(), fresh, "realization {s}");
        }
    }

    #[test]
    fn different_realizations_usually_differ() {
        let mut r = rng(7);
        let g = lcrb_graph::generators::gnm_directed(40, 200, &mut r).unwrap();
        let seeds = SeedSets::rumors_only(&g, vec![NodeId::new(0)]).unwrap();
        let csr = CsrGraph::from(&g);
        let model = OpoaoModel::new(8);
        let outcomes: Vec<usize> = (0..10)
            .map(|s| realized(&model, &csr, &seeds, &OpoaoRealization::new(s)).infected_count())
            .collect();
        assert!(
            outcomes.iter().any(|&c| c != outcomes[0]),
            "all 10 realizations gave {outcomes:?}"
        );
    }

    #[test]
    fn lane_runs_reject_invalid_input_with_typed_errors() {
        let g = CsrGraph::from(&lcrb_graph::generators::path_graph(4));
        let model = OpoaoModel::default();
        let real = OpoaoRealization::new(3);
        let mut lanes = LaneWorkspace::new();
        let rumor = [NodeId::new(0)];
        let too_many = vec![vec![NodeId::new(2)]; OPOAO_LANES + 1];
        assert_eq!(
            model.run_lanes_into(&g, &rumor, &too_many, &mut lanes, &real),
            Err(SeedError::TooManyLanes { sets: 65 })
        );
        let far = NodeId::new(9);
        let out_of_bounds = SeedError::OutOfBounds {
            node: far,
            node_count: 4,
        };
        assert_eq!(
            model.run_lanes_into(&g, &[far], [[NodeId::new(2)]], &mut lanes, &real),
            Err(out_of_bounds.clone())
        );
        assert_eq!(
            model.run_lanes_into(&g, &rumor, [vec![], vec![far]], &mut lanes, &real),
            Err(out_of_bounds)
        );
        assert_eq!(
            model.run_lanes_into(&g, &rumor, [[NodeId::new(1), rumor[0]]], &mut lanes, &real),
            Err(SeedError::Overlap { node: rumor[0] })
        );
        // The full 64 lanes are fine, and the workspace recovers from
        // every error above.
        model
            .run_lanes_into(&g, &rumor, &too_many[1..], &mut lanes, &real)
            .unwrap();
        assert_eq!(lanes.lane_mask(), u64::MAX);
        assert_eq!(lanes.infected(NodeId::new(1)), u64::MAX);
        assert_eq!(lanes.protected(NodeId::new(3)), u64::MAX);
    }

    #[test]
    fn traced_lanes_stop_where_their_scalar_runs_do() {
        // A path, so every choice is forced. Rumor at 0; lane 0 is
        // unprotected, lane 1 protects from 1, lane 2 from 2. The
        // lanes close after hops 4, 3 and 2, each while others go on.
        let g = lcrb_graph::generators::path_graph(5);
        let csr = CsrGraph::from(&g);
        let rumors = [NodeId::new(0)];
        let sets = [vec![], vec![NodeId::new(1)], vec![NodeId::new(2)]];
        let real = OpoaoRealization::new(5);
        let mut lanes = LaneWorkspace::traced();
        let mut ws = SimWorkspace::new();
        let mut trace = Vec::new();
        for (max_hops, lens, quiescent) in [
            (10, [5, 4, 3], [true; 3]),
            (3, [4, 4, 3], [false, false, true]),
            (1, [2, 2, 2], [false; 3]),
            (0, [1, 1, 1], [false; 3]),
        ] {
            let model = OpoaoModel::new(max_hops);
            model
                .run_lanes_into(&csr, &rumors, &sets, &mut lanes, &real)
                .unwrap();
            for (lane, set) in sets.iter().enumerate() {
                let seeds = SeedSets::new(&g, rumors.to_vec(), set.clone()).unwrap();
                model.run_realized_into(&csr, &seeds, &mut ws, &real);
                lanes.trace_into(lane, &mut trace);
                assert_eq!(trace, ws.trace(), "lane {lane}, {max_hops} hops");
                assert_eq!(trace.len(), lens[lane], "lane {lane}, {max_hops} hops");
                assert_eq!(lanes.is_quiescent(lane), quiescent[lane]);
                assert_eq!(ws.is_quiescent(), quiescent[lane]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not record traces")]
    fn untraced_lanes_have_no_trace() {
        let g = CsrGraph::from(&lcrb_graph::generators::path_graph(3));
        let mut lanes = LaneWorkspace::new();
        OpoaoModel::default()
            .run_lanes_into(
                &g,
                &[NodeId::new(0)],
                [[]; 1],
                &mut lanes,
                &OpoaoRealization::new(1),
            )
            .unwrap();
        lanes.trace_into(0, &mut Vec::new());
    }

    #[test]
    fn run_into_is_the_realized_run_of_one_draw() {
        let mut r = rng(4);
        let g = lcrb_graph::generators::gnm_directed(40, 160, &mut r).unwrap();
        let csr = CsrGraph::from(&g);
        let seeds = SeedSets::new(&g, vec![NodeId::new(0)], vec![NodeId::new(1)]).unwrap();
        let model = OpoaoModel::new(12);
        for s in 0..6 {
            let drawn = fresh_run(&model, &csr, &seeds, &mut rng(s));
            let real = OpoaoRealization::new(rand::Rng::gen(&mut rng(s)));
            assert_eq!(drawn, realized(&model, &csr, &seeds, &real), "stream {s}");
        }
    }

    #[test]
    fn model_name() {
        assert_eq!(OpoaoModel::default().name(), "opoao");
        assert_eq!(OpoaoModel::default().max_hops, 31);
    }
}
