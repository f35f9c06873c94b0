//! Reverse-reachable (RR) sketches for OPOAO protector influence.
//!
//! The LCRB-P greedy needs σ(A) = E[# bridge ends saved by protector
//! set A] for thousands of candidate sets. Monte Carlo pays a full
//! forward simulation per (set, realization) pair; the RIS estimator
//! (Tong et al., *An Efficient Randomized Algorithm for Rumor
//! Blocking in Online Social Networks*) instead samples pairs
//! (target bridge end `v`, realization φ) once, inverts each into a
//! *reverse-reachable set* RR(v, φ), and evaluates any candidate set
//! by weighted max-coverage over the fixed sketches:
//!
//! ```text
//! σ̂(A) = |B| · (always_saved + #{sketches with A ∩ RR ≠ ∅}) / θ
//! ```
//!
//! where `B` is the bridge-end set and θ the total sketch count.
//!
//! ## Semantics: the §V-A timestamp rule
//!
//! A fixed [`OpoaoRealization`] pins every `(node, hop)` choice, so
//! cascade *timing* is label-free: define the earliest-arrival time
//! `t_S(v)` of a wave seeded on set `S` (arrival 0 at seeds; at hop
//! `t`, every node with arrival `< t` targets its realized choice).
//! The sketch subsystem uses the paper's timestamp rule: `v` is
//! **saved** by protector set `A` iff `min_{u∈A} t_u(v) ≤ t_R(v)`
//! (protectors win simultaneous arrivals, matching the engine's
//! claim priority). Because protector waves from different seeds do
//! not interact, `min` over singletons is exact, which makes the
//! inversion `A saves v ⟺ A ∩ RR(v, φ) ≠ ∅` with
//! `RR(v, φ) = {u : t_u(v, φ) ≤ t_R(v, φ)}` an identity — not an
//! approximation — under this rule.
//!
//! The stepwise engine ([`crate::OpoaoModel`]) differs from the
//! timestamp rule only on *interior* ties: when the earliest
//! protector path reaches an intermediate node at the exact hop the
//! rumor claims it, the engine lets the rumor absorb the relay while
//! the timestamp rule lets the wave pass. Strictly faster protector
//! paths are always honored by both. The residual tie bias is part
//! of the estimator's error budget and is covered by the statistical
//! equivalence harness (`tests/estimator_equivalence.rs`).
//!
//! ## Generation
//!
//! Per sketch: a forward temporal pass from the rumor seeds finds
//! `τ = t_R(v)`, exiting the hop `v` is first claimed; if the rumor
//! never arrives within the hop budget the sketch is *always saved*
//! and stores no set. The forward frontier is every node the rumor
//! has claimed that has an out-neighbour, appended in the hop it is
//! claimed and forwarding from the next hop on. A node whose
//! out-neighbours are all claimed keeps making its choice, but it can
//! only land on claimed nodes, so no arrival time depends on retiring
//! it.
//!
//! A backward pass then computes, bucket by bucket from `τ` down, the
//! latest activation time `β(u)` from which `u` still delivers to `v`
//! by `τ`; every discovered node (β ≥ 0) joins RR(v, φ). For an
//! in-neighbour already in the set, the scan of its hops stops at
//! `β(u) + 2`: a forward at hop `s` yields `β = s − 1`, so a lower hop
//! cannot raise `β(u)`.
//!
//! Both passes run on epoch-versioned scratch ([`RrScratch`], the
//! [`crate::SimWorkspace`] pattern), so steady-state generation
//! performs no allocation and touches only the nodes a sketch
//! visits, not all n.

use lcrb_graph::{CsrGraph, NodeId};

use crate::budget::{StopReason, WorkMeter};
use crate::realization::OpoaoRealization;

/// A batch of RR sketches in CSR-style arena storage.
///
/// Stored sketches keep their member nodes contiguously
/// (`offsets`/`members`), plus the sampled target and its rumor
/// arrival time. Sketches whose target the rumor cannot reach within
/// the hop budget are *always saved*: they contribute to the
/// estimator numerator for every candidate set and store no member
/// list (only a counter).
///
/// # Examples
///
/// ```
/// use lcrb_diffusion::{rr_sketch_into, OpoaoRealization, RrScratch, SketchBatch};
/// use lcrb_graph::{CsrGraph, DiGraph, NodeId};
///
/// let mut g = DiGraph::new();
/// for _ in 0..3 {
///     g.add_node();
/// }
/// g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
/// g.add_edge(NodeId::new(1), NodeId::new(2)).unwrap();
/// let csr = CsrGraph::from(&g);
///
/// let mut scratch = RrScratch::new();
/// let mut batch = SketchBatch::new();
/// let stored = rr_sketch_into(
///     &csr,
///     &[NodeId::new(0)],
///     NodeId::new(2),
///     &OpoaoRealization::new(7),
///     31,
///     &mut scratch,
///     &mut batch,
/// );
/// // On a path graph every choice is forced: the rumor reaches node
/// // 2 at hop 2, and the RR set contains all three nodes.
/// assert!(stored);
/// assert_eq!(batch.total(), 1);
/// assert_eq!(batch.arrival(0), 2);
/// assert_eq!(batch.members(0).len(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SketchBatch {
    /// `members` arena boundaries; `offsets.len() == set_count + 1`.
    offsets: Vec<u32>,
    members: Vec<NodeId>,
    targets: Vec<NodeId>,
    arrivals: Vec<u32>,
    always_saved: u64,
    total: u64,
}

impl SketchBatch {
    /// Creates an empty batch.
    #[must_use]
    pub fn new() -> Self {
        SketchBatch {
            offsets: vec![0],
            members: Vec::new(),
            targets: Vec::new(),
            arrivals: Vec::new(),
            always_saved: 0,
            total: 0,
        }
    }

    /// Discards all sketches but keeps the allocated arenas.
    pub fn clear(&mut self) {
        self.offsets.truncate(1);
        self.members.clear();
        self.targets.clear();
        self.arrivals.clear();
        self.always_saved = 0;
        self.total = 0;
    }

    /// Number of *stored* sketches (excludes always-saved ones).
    #[must_use]
    pub fn set_count(&self) -> usize {
        self.targets.len()
    }

    /// Total sketches drawn, including always-saved ones (the θ of
    /// the estimator denominator).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sketches whose target the rumor never reaches — saved under
    /// every candidate set.
    #[must_use]
    pub fn always_saved(&self) -> u64 {
        self.always_saved
    }

    /// Member nodes of stored sketch `i` (target included).
    ///
    /// # Panics
    ///
    /// Panics if `i >= set_count()`.
    #[must_use]
    pub fn members(&self, i: usize) -> &[NodeId] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.members[lo..hi]
    }

    /// The sampled target bridge end of stored sketch `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= set_count()`.
    #[must_use]
    pub fn target(&self, i: usize) -> NodeId {
        self.targets[i]
    }

    /// Rumor arrival time `t_R(target)` of stored sketch `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= set_count()`.
    #[must_use]
    pub fn arrival(&self, i: usize) -> u32 {
        self.arrivals[i]
    }

    /// Total member entries across all stored sketches.
    #[must_use]
    pub fn member_entries(&self) -> usize {
        self.members.len()
    }
}

impl Default for SketchBatch {
    fn default() -> Self {
        SketchBatch::new()
    }
}

/// Epoch-versioned scratch for RR-sketch generation.
///
/// Mirrors [`crate::SimWorkspace`]: per-node arrays carry a stamp and
/// are logically reset by bumping an epoch counter, so a sketch costs
/// time in the nodes it visits, not in n, and steady-state
/// generation allocates nothing once the buffers have grown to the
/// graph size.
#[derive(Clone, Debug, Default)]
pub struct RrScratch {
    epoch: u32,
    /// Forward pass: the rumor has claimed a node in this sketch iff
    /// its stamp equals the epoch.
    arrival_stamp: Vec<u32>,
    /// Backward pass: latest delivering activation hop per member.
    beta: Vec<u32>,
    /// Backward pass: a node is a member of this sketch iff its stamp
    /// equals the epoch.
    beta_stamp: Vec<u32>,
    /// Forward pass: every claimed node with an out-neighbour, in the
    /// order the rumor claimed it.
    frontier: Vec<NodeId>,
    /// Backward bucket queue indexed by β; buckets are drained after
    /// use, so only the spine persists between sketches.
    buckets: Vec<Vec<NodeId>>,
}

impl RrScratch {
    /// Creates an empty scratch; buffers grow on first use and are
    /// retained across sketches.
    #[must_use]
    pub fn new() -> Self {
        RrScratch::default()
    }

    /// Grows per-node buffers to `n` and the bucket spine to
    /// `max_hops + 1`; no-ops (and does not allocate) once sized.
    fn ensure(&mut self, n: usize, max_hops: u32) {
        if self.arrival_stamp.len() < n {
            self.arrival_stamp.resize(n, 0);
            self.beta.resize(n, 0);
            self.beta_stamp.resize(n, 0);
        }
        let spine = max_hops as usize + 1;
        if self.buckets.len() < spine {
            // xtask-allow: hotreach -- bucket spine grows once per hop-budget increase, then is reused
            self.buckets.resize_with(spine, Vec::new);
        }
    }

    /// Opens a new sketch epoch, invalidating all stamped state.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.arrival_stamp.fill(0);
            self.beta_stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

/// Generates one RR sketch for `target` under `realization` and
/// appends it to `batch`.
///
/// The rumor cascade is seeded on `rumors`; `max_hops` bounds both
/// the forward arrival search and (through `τ = t_R(target)`) the
/// backward traversal. Returns `true` if a member set was stored,
/// `false` if the rumor cannot reach `target` within `max_hops` and
/// the sketch was recorded as always-saved.
///
/// Members are exactly `{u : t_u(target, φ) ≤ t_R(target, φ)}` under
/// the §V-A timestamp rule (protectors win ties; see the module-level
/// commentary in `sketch.rs` and DESIGN.md) — the
/// target itself is always a member, and rumor seeds are *not*
/// filtered out (callers place protectors, and protector candidates
/// never overlap rumor seeds).
///
/// # Panics
///
/// Panics if `target` or any rumor seed is out of bounds for `graph`.
pub fn rr_sketch_into(
    graph: &CsrGraph,
    rumors: &[NodeId],
    target: NodeId,
    realization: &OpoaoRealization,
    max_hops: u32,
    scratch: &mut RrScratch,
    batch: &mut SketchBatch,
) -> bool {
    let n = graph.node_count();
    assert!(target.index() < n, "sketch target {target} out of bounds");
    scratch.ensure(n, max_hops);
    let epoch = scratch.next_epoch();

    let tau = forward_arrival(graph, rumors, target, realization, max_hops, scratch, epoch);
    let Some(tau) = tau else {
        batch.always_saved += 1;
        batch.total += 1;
        return false;
    };
    backward_collect(graph, target, tau, realization, scratch, epoch, batch);
    batch.total += 1;
    true
}

/// Generates sketches `start..end` (global indices) into `batch`,
/// metered: each sketch is a checkpoint — the meter is polled before
/// it is drawn.
///
/// `draw` maps a global sketch index to its `(target, realization)`
/// pair; keeping the drawing rule in the caller keeps this loop
/// independent of how targets and seeds are derived, and sketch `g`
/// is the same sketch whichever batch draws it.
///
/// # Errors
///
/// [`StopReason::Cancelled`] / [`StopReason::DeadlineExpired`] when a
/// poll observes them; sketches generated before the stop are already
/// in `batch` but the caller is expected to abandon the build.
#[allow(clippy::too_many_arguments)]
pub fn rr_sketch_batch_into(
    graph: &CsrGraph,
    rumors: &[NodeId],
    mut draw: impl FnMut(u64) -> (NodeId, OpoaoRealization),
    start: u64,
    end: u64,
    max_hops: u32,
    scratch: &mut RrScratch,
    batch: &mut SketchBatch,
    meter: &WorkMeter,
) -> Result<(), StopReason> {
    for g in start..end {
        meter.poll()?;
        let (target, realization) = draw(g);
        rr_sketch_into(
            graph,
            rumors,
            target,
            &realization,
            max_hops,
            scratch,
            batch,
        );
    }
    Ok(())
}

/// Forward temporal pass: earliest rumor arrival at `target`, or
/// `None` if the rumor does not arrive within `max_hops`. Early-exits
/// the hop the target is first claimed.
///
/// At hop `t` every node claimed before `t` makes its realized choice:
/// the frontier as it stands when the hop starts. Nodes claimed during
/// hop `t` are appended behind them and forward from `t + 1`.
fn forward_arrival(
    graph: &CsrGraph,
    rumors: &[NodeId],
    target: NodeId,
    realization: &OpoaoRealization,
    max_hops: u32,
    scratch: &mut RrScratch,
    epoch: u32,
) -> Option<u32> {
    let n = graph.node_count();
    scratch.frontier.clear();
    for &r in rumors {
        assert!(r.index() < n, "rumor seed {r} out of bounds");
        if scratch.arrival_stamp[r.index()] != epoch {
            scratch.arrival_stamp[r.index()] = epoch;
            if graph.out_degree(r) > 0 {
                scratch.frontier.push(r);
            }
        }
    }
    if scratch.arrival_stamp[target.index()] == epoch {
        return Some(0);
    }
    for hop in 1..=max_hops {
        let forwarding = scratch.frontier.len();
        if forwarding == 0 {
            return None;
        }
        for i in 0..forwarding {
            let u = scratch.frontier[i];
            let degree = graph.out_degree(u);
            let w = graph.out_neighbors(u)[realization.choice(u, hop, degree)];
            if scratch.arrival_stamp[w.index()] != epoch {
                scratch.arrival_stamp[w.index()] = epoch;
                if w == target {
                    return Some(hop);
                }
                if graph.out_degree(w) > 0 {
                    scratch.frontier.push(w);
                }
            }
        }
    }
    None
}

/// Backward pass: collects `{u : t_u(target) ≤ τ}` into `batch` by
/// propagating latest delivering activation times `β` through a
/// bucket queue processed from `β = τ` downward.
///
/// For an in-edge `u → w` with `β(w) = b`, `u` forwards to `w` at
/// hop `s` iff `s ≤ b` and the realized choice of `(u, s)` lands on
/// `w`; the largest such `s` yields the candidate `β(u) = s − 1`.
/// Since candidates are strictly below the bucket being drained,
/// each node is final the first time it is popped at its recorded β.
/// For a `u` already in the set only hops `s ≥ β(u) + 2` can raise
/// `β(u)`, so the scan stops there.
fn backward_collect(
    graph: &CsrGraph,
    target: NodeId,
    tau: u32,
    realization: &OpoaoRealization,
    scratch: &mut RrScratch,
    epoch: u32,
    batch: &mut SketchBatch,
) {
    scratch.beta_stamp[target.index()] = epoch;
    scratch.beta[target.index()] = tau;
    batch.members.push(target);
    scratch.buckets[tau as usize].clear();
    scratch.buckets[tau as usize].push(target);
    for b in (1..=tau).rev() {
        let mut i = 0;
        while i < scratch.buckets[b as usize].len() {
            let w = scratch.buckets[b as usize][i];
            i += 1;
            if scratch.beta[w.index()] != b {
                continue; // superseded by a later (larger-β) relaxation
            }
            for &u in graph.in_neighbors(w) {
                let member = scratch.beta_stamp[u.index()] == epoch;
                let lowest = if member {
                    scratch.beta[u.index()] + 2
                } else {
                    1
                };
                let degree = graph.out_degree(u);
                let mut found = None;
                let mut s = b;
                while s >= lowest {
                    if graph.out_neighbors(u)[realization.choice(u, s, degree)] == w {
                        found = Some(s);
                        break;
                    }
                    s -= 1;
                }
                let Some(s) = found else { continue };
                let candidate = s - 1;
                if !member {
                    scratch.beta_stamp[u.index()] = epoch;
                    batch.members.push(u);
                }
                scratch.beta[u.index()] = candidate;
                scratch.buckets[candidate as usize].push(u);
            }
        }
        scratch.buckets[b as usize].clear();
    }
    scratch.buckets[0].clear();
    debug_assert!(u32::try_from(batch.members.len()).is_ok());
    batch.offsets.push(batch.members.len() as u32);
    batch.targets.push(target);
    batch.arrivals.push(tau);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrb_graph::DiGraph;

    fn path_graph(n: u32) -> CsrGraph {
        let mut g = DiGraph::new();
        for _ in 0..n {
            g.add_node();
        }
        for i in 0..n - 1 {
            g.add_edge(NodeId::from_raw(i), NodeId::from_raw(i + 1))
                .unwrap();
        }
        CsrGraph::from(&g)
    }

    /// Reference: forward temporal arrival of a single-source wave,
    /// computed the slow exhaustive way (all active nodes choose at
    /// every hop).
    fn reference_arrival(
        graph: &CsrGraph,
        sources: &[NodeId],
        target: NodeId,
        r: &OpoaoRealization,
        max_hops: u32,
    ) -> Option<u32> {
        let n = graph.node_count();
        let mut arrival = vec![u32::MAX; n];
        for &s in sources {
            arrival[s.index()] = 0;
        }
        if arrival[target.index()] == 0 {
            return Some(0);
        }
        for hop in 1..=max_hops {
            let mut claims = Vec::new();
            for (v, &t) in arrival.iter().enumerate() {
                let u = NodeId::new(v);
                if t < hop && graph.out_degree(u) > 0 {
                    let w = graph.out_neighbors(u)[r.choice(u, hop, graph.out_degree(u))];
                    claims.push(w);
                }
            }
            for w in claims {
                if arrival[w.index()] == u32::MAX {
                    arrival[w.index()] = hop;
                }
            }
            if arrival[target.index()] != u32::MAX {
                return Some(hop);
            }
        }
        None
    }

    #[test]
    fn path_graph_sketch_is_whole_path() {
        let csr = path_graph(5);
        let mut scratch = RrScratch::new();
        let mut batch = SketchBatch::new();
        let stored = rr_sketch_into(
            &csr,
            &[NodeId::new(0)],
            NodeId::new(4),
            &OpoaoRealization::new(3),
            31,
            &mut scratch,
            &mut batch,
        );
        assert!(stored);
        assert_eq!(batch.arrival(0), 4);
        let mut members: Vec<u32> = batch.members(0).iter().map(|v| v.raw()).collect();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 2, 3, 4]);
        assert_eq!(batch.always_saved(), 0);
        assert_eq!(batch.total(), 1);
    }

    #[test]
    fn unreachable_target_counts_as_always_saved() {
        // Edge points away from the target component.
        let mut g = DiGraph::new();
        for _ in 0..3 {
            g.add_node();
        }
        g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        let csr = CsrGraph::from(&g);
        let mut scratch = RrScratch::new();
        let mut batch = SketchBatch::new();
        let stored = rr_sketch_into(
            &csr,
            &[NodeId::new(0)],
            NodeId::new(2),
            &OpoaoRealization::new(3),
            31,
            &mut scratch,
            &mut batch,
        );
        assert!(!stored);
        assert_eq!(batch.set_count(), 0);
        assert_eq!(batch.always_saved(), 1);
        assert_eq!(batch.total(), 1);
    }

    #[test]
    fn rumor_seed_target_stores_singleton() {
        let csr = path_graph(3);
        let mut scratch = RrScratch::new();
        let mut batch = SketchBatch::new();
        let stored = rr_sketch_into(
            &csr,
            &[NodeId::new(1)],
            NodeId::new(1),
            &OpoaoRealization::new(9),
            31,
            &mut scratch,
            &mut batch,
        );
        assert!(stored);
        assert_eq!(batch.arrival(0), 0);
        assert_eq!(batch.members(0), &[NodeId::new(1)]);
    }

    #[test]
    fn members_match_timestamp_rule_on_random_graphs() {
        // On small random graphs, u ∈ RR(v) ⟺ t_u(v) ≤ t_R(v) where
        // both sides use the reference arrival computation.
        let mut edges_seed = 0xC0FFEEu64;
        for trial in 0..40u64 {
            let n = 6u32;
            let mut g = DiGraph::new();
            for _ in 0..n {
                g.add_node();
            }
            for a in 0..n {
                for b in 0..n {
                    edges_seed = edges_seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    if a != b && edges_seed >> 61 == 0 {
                        g.add_edge(NodeId::from_raw(a), NodeId::from_raw(b))
                            .unwrap();
                    }
                }
            }
            let csr = CsrGraph::from(&g);
            let rumors = [NodeId::new(0)];
            let target = NodeId::from_raw(n - 1);
            let r = OpoaoRealization::new(trial);
            let mut scratch = RrScratch::new();
            let mut batch = SketchBatch::new();
            let stored = rr_sketch_into(&csr, &rumors, target, &r, 31, &mut scratch, &mut batch);
            let tau = reference_arrival(&csr, &rumors, target, &r, 31);
            assert_eq!(stored, tau.is_some(), "trial {trial}");
            let Some(tau) = tau else { continue };
            assert_eq!(batch.arrival(0), tau, "trial {trial}");
            let members: std::collections::BTreeSet<NodeId> =
                batch.members(0).iter().copied().collect();
            for v in 0..n {
                let u = NodeId::from_raw(v);
                let tu = reference_arrival(&csr, &[u], target, &r, tau);
                let in_rr = tu.is_some_and(|t| t <= tau);
                assert_eq!(
                    members.contains(&u),
                    in_rr,
                    "trial {trial}: node {u} τ={tau} t_u={tu:?}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_is_clean_across_sketches() {
        let csr = path_graph(6);
        let mut scratch = RrScratch::new();
        let mut fresh = SketchBatch::new();
        rr_sketch_into(
            &csr,
            &[NodeId::new(0)],
            NodeId::new(5),
            &OpoaoRealization::new(1),
            31,
            &mut RrScratch::new(),
            &mut fresh,
        );
        let mut reused = SketchBatch::new();
        for round in 0..100u64 {
            // Interleave other targets/realizations to dirty the scratch.
            let mut junk = SketchBatch::new();
            rr_sketch_into(
                &csr,
                &[NodeId::new(2)],
                NodeId::new(4),
                &OpoaoRealization::new(round),
                31,
                &mut scratch,
                &mut junk,
            );
            reused.clear();
            rr_sketch_into(
                &csr,
                &[NodeId::new(0)],
                NodeId::new(5),
                &OpoaoRealization::new(1),
                31,
                &mut scratch,
                &mut reused,
            );
            assert_eq!(reused, fresh, "round {round}");
        }
    }

    #[test]
    fn batch_clear_retains_nothing_logical() {
        let csr = path_graph(4);
        let mut scratch = RrScratch::new();
        let mut batch = SketchBatch::new();
        rr_sketch_into(
            &csr,
            &[NodeId::new(0)],
            NodeId::new(3),
            &OpoaoRealization::new(5),
            31,
            &mut scratch,
            &mut batch,
        );
        assert_eq!(batch.set_count(), 1);
        batch.clear();
        assert_eq!(batch.set_count(), 0);
        assert_eq!(batch.total(), 0);
        assert_eq!(batch.always_saved(), 0);
        assert_eq!(batch.member_entries(), 0);
    }
}
