//! Reusable per-run scratch state for the simulation engine.
//!
//! The Monte-Carlo loop behind the paper's Figures 4–6 and the CELF
//! greedy objective run the same model thousands of times on one
//! frozen graph. Allocating fresh status/frontier buffers for every
//! run costs more than the simulation itself on the paper-scale
//! graphs; a [`SimWorkspace`] is allocated once per worker and reused,
//! so the steady-state inner loop performs zero heap allocations.
//!
//! Per-node results (status, activation hop) are validated with an
//! epoch stamp: starting a new run bumps the epoch instead of clearing
//! the arrays, making run startup O(seeds) rather than O(n).

use lcrb_graph::NodeId;

use crate::sis::SisState;
use crate::{DiffusionOutcome, HopRecord, SeedSets, Status};

/// Reusable scratch state for [`TwoCascadeModel::run_into`]
/// (and [`CompetitiveSisModel::run_into`]).
///
/// One workspace serves every model in this crate; buffers a model
/// does not need stay empty. After a run, the workspace *is* the
/// outcome: read it through [`SimWorkspace::status`],
/// [`SimWorkspace::activation_hop`], [`SimWorkspace::trace`], and
/// friends, or materialize an owned [`DiffusionOutcome`] with
/// [`SimWorkspace::to_outcome`]. Results remain readable until the
/// next run begins.
///
/// [`TwoCascadeModel::run_into`]: crate::TwoCascadeModel::run_into
/// [`CompetitiveSisModel::run_into`]: crate::CompetitiveSisModel::run_into
///
/// # Examples
///
/// ```
/// use lcrb_diffusion::{OpoaoModel, SeedSets, SimWorkspace, TwoCascadeModel};
/// use lcrb_graph::{CsrGraph, DiGraph, NodeId};
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = DiGraph::from_edges(3, [(0, 1), (1, 2)])?;
/// let csr = CsrGraph::from(&g);
/// let seeds = SeedSets::rumors_only(&g, vec![NodeId::new(0)])?;
/// let model = OpoaoModel::default();
/// let mut ws = SimWorkspace::new();
/// let mut rng = SmallRng::seed_from_u64(7);
/// // Snapshot once, simulate many: no per-run allocation.
/// for _ in 0..100 {
///     model.run_into(&csr, &seeds, &mut ws, &mut rng);
///     assert!(ws.infected_count() >= 1);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct SimWorkspace {
    // Epoch-stamped per-node results.
    epoch: u32,
    node_count: usize,
    stamp: Vec<u32>,
    status: Vec<Status>,
    hop: Vec<u32>,
    // Per-run trace and summary.
    trace: Vec<HopRecord>,
    total_infected: usize,
    total_protected: usize,
    quiescent: bool,
    /// Claim staging (0 = unclaimed, 1 = R, 2 = P); models restore it
    /// to all-zeros before each hop ends, so no per-run clear is
    /// needed.
    pub(crate) claim: Vec<u8>,
    // Reusable frontier buffers; meaning varies per model.
    pub(crate) frontier: Vec<NodeId>,
    pub(crate) next_frontier: Vec<NodeId>,
    pub(crate) claimed: Vec<NodeId>,
    pub(crate) new_protected: Vec<NodeId>,
    pub(crate) new_infected: Vec<NodeId>,
    /// Per-hop counters (OPOAO: inactive out-neighbor counts).
    pub(crate) counters: Vec<u32>,
    // Competitive-LT weights, thresholds, and dirty flags.
    pub(crate) weight_p: Vec<f64>,
    pub(crate) weight_r: Vec<f64>,
    pub(crate) thresholds: Vec<f64>,
    pub(crate) flags: Vec<bool>,
    // Competitive-SIS double-buffered node states.
    pub(crate) sis_state: Vec<SisState>,
    pub(crate) sis_next: Vec<SisState>,
}

impl SimWorkspace {
    /// Creates an empty workspace; buffers grow on first use and are
    /// retained across runs.
    #[must_use]
    pub fn new() -> Self {
        SimWorkspace::default()
    }

    /// Creates a workspace with per-node buffers pre-sized for graphs
    /// of up to `n` nodes.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        let mut ws = SimWorkspace::new();
        ws.stamp.resize(n, 0);
        ws.status.resize(n, Status::Inactive);
        ws.hop.resize(n, 0);
        ws.claim.resize(n, 0);
        ws
    }

    /// Opens a new run epoch for a graph of `n` nodes and places the
    /// seeds (hop-0 trace record included). Called by every
    /// `run_into` implementation.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` refers to nodes outside the graph.
    pub(crate) fn begin(&mut self, n: usize, seeds: &SeedSets) {
        self.node_count = n;
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.status.resize(n, Status::Inactive);
            self.hop.resize(n, 0);
        }
        if self.claim.len() < n {
            self.claim.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        #[cfg(debug_assertions)]
        self.debug_check_epoch_consistency(n);
        self.epoch += 1;
        self.trace.clear();
        self.quiescent = false;
        self.total_infected = seeds.rumors().len();
        self.total_protected = seeds.protectors().len();
        for &r in seeds.rumors() {
            assert!(r.index() < n, "seed {r} out of bounds");
            self.mark(r, Status::Infected, 0);
        }
        for &p in seeds.protectors() {
            assert!(p.index() < n, "seed {p} out of bounds");
            self.mark(p, Status::Protected, 0);
        }
        self.trace.push(HopRecord {
            hop: 0,
            new_infected: self.total_infected,
            new_protected: self.total_protected,
            total_infected: self.total_infected,
            total_protected: self.total_protected,
        });
    }

    /// Debug-build backstop for the epoch scheme: the per-node result
    /// arrays must be sized together, every stamp must come from a
    /// past epoch (a stamp ahead of the counter would let a *future*
    /// run silently resurrect stale results), and the claim staging
    /// array must have been restored to all-zeros by the previous
    /// model run, as the field contract requires.
    #[cfg(debug_assertions)]
    fn debug_check_epoch_consistency(&self, n: usize) {
        assert!(
            self.stamp.len() == self.status.len() && self.stamp.len() == self.hop.len(),
            "epoch-stamped arrays diverged: stamp {} / status {} / hop {}",
            self.stamp.len(),
            self.status.len(),
            self.hop.len()
        );
        assert!(
            self.stamp.len() >= n && self.claim.len() >= n,
            "per-node buffers not grown to {n} nodes"
        );
        let ahead = self.stamp.iter().position(|&s| s > self.epoch);
        assert!(
            ahead.is_none(),
            "stamp[{ahead:?}] is ahead of the current epoch {}",
            self.epoch
        );
        let dirty = self.claim[..n].iter().position(|&c| c != 0);
        assert!(
            dirty.is_none(),
            "claim[{dirty:?}] was left set by the previous run; models must restore claim to zero"
        );
    }

    #[inline]
    fn mark(&mut self, v: NodeId, status: Status, hop: u32) {
        let i = v.index();
        self.stamp[i] = self.epoch;
        self.status[i] = status;
        self.hop[i] = hop;
    }

    /// Activates the nodes staged in `new_protected` / `new_infected`
    /// at `hop` and appends a trace record. The staged lists are left
    /// intact for frontier bookkeeping.
    pub(crate) fn commit_hop(&mut self, hop: u32) {
        for i in 0..self.new_protected.len() {
            let v = self.new_protected[i];
            debug_assert!(self.is_inactive(v), "node {v} already active");
            self.mark(v, Status::Protected, hop);
        }
        for i in 0..self.new_infected.len() {
            let v = self.new_infected[i];
            debug_assert!(self.is_inactive(v), "node {v} already active");
            self.mark(v, Status::Infected, hop);
        }
        self.total_infected += self.new_infected.len();
        self.total_protected += self.new_protected.len();
        self.trace.push(HopRecord {
            hop,
            new_infected: self.new_infected.len(),
            new_protected: self.new_protected.len(),
            total_infected: self.total_infected,
            total_protected: self.total_protected,
        });
    }

    /// Records whether the run stopped by quiescence (vs hop budget).
    pub(crate) fn set_quiescent(&mut self, quiescent: bool) {
        self.quiescent = quiescent;
    }

    /// `true` if `node` has not been activated in the current run.
    #[inline]
    pub(crate) fn is_inactive(&self, node: NodeId) -> bool {
        self.stamp[node.index()] != self.epoch
    }

    /// Number of nodes of the graph the last run was executed on.
    #[inline]
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Final status of `node` after the last run.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for the last run's graph.
    #[inline]
    #[must_use]
    pub fn status(&self, node: NodeId) -> Status {
        let i = node.index();
        assert!(i < self.node_count, "node {node} out of bounds");
        if self.stamp[i] == self.epoch {
            self.status[i]
        } else {
            Status::Inactive
        }
    }

    /// The hop at which `node` activated in the last run (`Some(0)`
    /// for seeds), or `None` if it stayed inactive.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for the last run's graph.
    #[inline]
    #[must_use]
    pub fn activation_hop(&self, node: NodeId) -> Option<u32> {
        let i = node.index();
        assert!(i < self.node_count, "node {node} out of bounds");
        if self.stamp[i] == self.epoch {
            Some(self.hop[i])
        } else {
            None
        }
    }

    /// The last run's hop-by-hop trace, starting with hop 0.
    #[inline]
    #[must_use]
    pub fn trace(&self) -> &[HopRecord] {
        &self.trace
    }

    /// `true` if the last run stopped because no further activation
    /// was possible (as opposed to exhausting the hop budget).
    #[inline]
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.quiescent
    }

    /// Total number of infected nodes after the last run.
    #[must_use]
    pub fn infected_count(&self) -> usize {
        self.trace.last().map_or(0, |r| r.total_infected)
    }

    /// Total number of protected nodes after the last run.
    #[must_use]
    pub fn protected_count(&self) -> usize {
        self.trace.last().map_or(0, |r| r.total_protected)
    }

    /// Materializes the last run as an owned [`DiffusionOutcome`].
    ///
    /// This allocates; hot loops should read the workspace directly.
    #[must_use]
    pub fn to_outcome(&self) -> DiffusionOutcome {
        let n = self.node_count;
        let status = (0..n).map(|i| self.status(NodeId::new(i))).collect();
        let hops = (0..n)
            .map(|i| self.activation_hop(NodeId::new(i)))
            .collect();
        // xtask-allow: bufclone -- documented allocating conversion; hot loops read the workspace directly
        DiffusionOutcome::new(status, hops, self.trace.clone(), self.quiescent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrb_graph::DiGraph;

    fn seeds(g: &DiGraph) -> SeedSets {
        SeedSets::new(g, vec![NodeId::new(0)], vec![NodeId::new(1)]).unwrap()
    }

    #[test]
    fn begin_places_seeds_and_seed_record() {
        let g = DiGraph::with_nodes(4);
        let mut ws = SimWorkspace::new();
        ws.begin(4, &seeds(&g));
        assert_eq!(ws.status(NodeId::new(0)), Status::Infected);
        assert_eq!(ws.status(NodeId::new(1)), Status::Protected);
        assert_eq!(ws.status(NodeId::new(2)), Status::Inactive);
        assert_eq!(ws.activation_hop(NodeId::new(0)), Some(0));
        assert_eq!(ws.activation_hop(NodeId::new(2)), None);
        assert_eq!(ws.trace().len(), 1);
        assert_eq!(ws.infected_count(), 1);
        assert_eq!(ws.protected_count(), 1);
    }

    #[test]
    fn commit_hop_appends_the_hop_record() {
        let g = DiGraph::with_nodes(5);
        let mut ws = SimWorkspace::new();
        ws.begin(5, &seeds(&g));
        ws.new_protected.push(NodeId::new(2));
        ws.new_infected.push(NodeId::new(3));
        ws.commit_hop(1);
        ws.set_quiescent(false);
        let o = ws.to_outcome();
        assert_eq!(o.trace().len(), 2);
        let rec = o.trace()[1];
        assert_eq!(rec.hop, 1);
        assert_eq!(rec.new_infected, 1);
        assert_eq!(rec.new_protected, 1);
        assert_eq!(rec.total_infected, 2);
        assert_eq!(o.activation_hop(NodeId::new(3)), Some(1));
        assert_eq!(o.activation_hop(NodeId::new(4)), None);
        assert!(!o.is_quiescent());
    }

    #[test]
    fn new_epoch_clears_previous_run_in_constant_time() {
        let g = DiGraph::with_nodes(3);
        let mut ws = SimWorkspace::new();
        ws.begin(3, &seeds(&g));
        ws.new_infected.push(NodeId::new(2));
        ws.commit_hop(1);
        assert_eq!(ws.status(NodeId::new(2)), Status::Infected);
        // Second run with different seeds: old activations invisible.
        let other = SeedSets::rumors_only(&g, vec![NodeId::new(2)]).unwrap();
        ws.new_infected.clear();
        ws.begin(3, &other);
        assert_eq!(ws.status(NodeId::new(0)), Status::Inactive);
        assert_eq!(ws.status(NodeId::new(1)), Status::Inactive);
        assert_eq!(ws.status(NodeId::new(2)), Status::Infected);
        assert_eq!(ws.trace().len(), 1);
    }

    #[test]
    fn workspace_adapts_to_smaller_graphs() {
        let big = DiGraph::with_nodes(10);
        let small = DiGraph::with_nodes(2);
        let mut ws = SimWorkspace::new();
        ws.begin(
            10,
            &SeedSets::rumors_only(&big, vec![NodeId::new(9)]).unwrap(),
        );
        ws.begin(
            2,
            &SeedSets::rumors_only(&small, vec![NodeId::new(0)]).unwrap(),
        );
        assert_eq!(ws.node_count(), 2);
        assert_eq!(ws.status(NodeId::new(0)), Status::Infected);
        assert_eq!(ws.status(NodeId::new(1)), Status::Inactive);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn status_checks_bounds_of_current_run() {
        let g = DiGraph::with_nodes(2);
        let mut ws = SimWorkspace::new();
        ws.begin(2, &SeedSets::rumors_only(&g, vec![NodeId::new(0)]).unwrap());
        let _ = ws.status(NodeId::new(5));
    }
}
