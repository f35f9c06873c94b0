//! The sketch-backed protector-influence estimator (RIS) for LCRB-P.
//!
//! [`crate::ProtectionObjective`] pays `realizations` full forward
//! simulations per `σ̂` query. [`SketchObjective`] instead pays once
//! up front: it samples θ pairs (bridge end `v`, realization φ),
//! inverts each into a reverse-reachable sketch
//! ([`lcrb_diffusion::rr_sketch_into`]), and answers every subsequent
//! query by weighted max-coverage over an inverted node → sketch
//! index — no simulation at query time. This is the estimator of
//! Tong et al. (*An Efficient Randomized Algorithm for Rumor
//! Blocking in Online Social Networks*) adapted to the paper's OPOAO
//! semantics and bridge-end objective.
//!
//! ## Sampling bound
//!
//! With θ sketches, `σ̂(A)/|B|` is the empirical mean of θ i.i.d.
//! Bernoulli variables with mean `σ(A)/|B|`, so Hoeffding gives
//! `|σ̂(A) − σ(A)| ≤ ε·|B|` with probability `1 − δ` once
//! `θ ≥ ln(2/δ) / (2ε²)` — the schedule's floor. Because LCRB-P
//! cares about *relative* quality of the best candidates, the
//! schedule then keeps doubling θ until the empirical-Bernstein
//! condition `θ ≥ (2 + 2ε/3)·ln(2/δ) / (ε²·p̂)` holds for the best
//! observed singleton coverage `p̂` (relative ±ε accuracy at scale
//! `p̂`), or [`SketchParams::max_sketches`] is reached. Coverage is
//! monotone and submodular per sketch, so CELF remains sound on the
//! sketch objective.

use std::sync::Arc;

use lcrb_diffusion::{
    derive_stream, rr_sketch_batch_into, OpoaoRealization, RrScratch, SketchBatch, WorkMeter,
};
use lcrb_graph::NodeId;

use crate::{LcrbError, RumorBlockingInstance};

/// Accuracy parameters of the adaptive sketch schedule.
///
/// `epsilon` is the additive accuracy target for coverage
/// probabilities (fraction of bridge ends), `delta` the failure
/// probability of the concentration bound; `min_sketches` and
/// `max_sketches` clamp the schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SketchParams {
    /// Coverage-probability accuracy target, in `(0, 1)`.
    pub epsilon: f64,
    /// Failure probability of the sampling bound, in `(0, 1)`.
    pub delta: f64,
    /// Lower clamp on the sketch count.
    pub min_sketches: usize,
    /// Upper clamp on the sketch count (the adaptive doubling stops
    /// here at the latest).
    pub max_sketches: usize,
}

impl Default for SketchParams {
    fn default() -> Self {
        SketchParams {
            epsilon: 0.1,
            delta: 0.05,
            min_sketches: 256,
            max_sketches: 1 << 16,
        }
    }
}

impl SketchParams {
    /// Builds a validated parameter set with the default sketch-count
    /// clamps.
    ///
    /// # Errors
    ///
    /// Returns [`LcrbError::InvalidSketchParams`] unless both
    /// `epsilon` and `delta` are in `(0, 1)`.
    pub fn new(epsilon: f64, delta: f64) -> Result<Self, LcrbError> {
        let params = SketchParams {
            epsilon,
            delta,
            ..SketchParams::default()
        };
        params.validate()?;
        Ok(params)
    }

    /// Checks that both probabilities are in `(0, 1)` and the
    /// sketch-count clamps are a non-empty window.
    ///
    /// Construction-time entry points ([`SketchParams::new`],
    /// [`SketchIndex::build`]) call this themselves; it is public so
    /// request builders can fail fast before any sampling work.
    ///
    /// # Errors
    ///
    /// Returns [`LcrbError::InvalidSketchParams`] naming the first
    /// violated constraint.
    pub fn validate(self) -> Result<(), LcrbError> {
        let prob = |x: f64| x.is_finite() && x > 0.0 && x < 1.0;
        if !prob(self.epsilon) {
            return Err(LcrbError::InvalidSketchParams {
                reason: "epsilon must be in (0, 1)",
            });
        }
        if !prob(self.delta) {
            return Err(LcrbError::InvalidSketchParams {
                reason: "delta must be in (0, 1)",
            });
        }
        if self.min_sketches == 0 || self.max_sketches < self.min_sketches {
            return Err(LcrbError::InvalidSketchParams {
                reason: "need 1 <= min_sketches <= max_sketches",
            });
        }
        Ok(())
    }

    /// Hoeffding floor `ln(2/δ) / (2ε²)` clamped to the configured
    /// sketch-count window.
    fn floor(self) -> usize {
        let raw = ((2.0 / self.delta).ln() / (2.0 * self.epsilon * self.epsilon)).ceil();
        let raw = if raw.is_finite() && raw > 0.0 {
            raw as usize
        } else {
            self.max_sketches
        };
        raw.clamp(self.min_sketches, self.max_sketches)
    }

    /// Empirical-Bernstein requirement for relative ±ε accuracy at
    /// coverage scale `p_hat`.
    fn required_for(self, p_hat: f64) -> f64 {
        (2.0 + 2.0 * self.epsilon / 3.0) * (2.0 / self.delta).ln()
            / (self.epsilon * self.epsilon * p_hat)
    }
}

/// Epoch-versioned scratch for [`SketchObjective::sigma_with`]
/// queries (sketch-id coverage stamps; the
/// [`lcrb_diffusion::SimWorkspace`] pattern).
#[derive(Clone, Debug, Default)]
pub struct CoverageScratch {
    epoch: u32,
    stamp: Vec<u32>,
}

impl CoverageScratch {
    /// Creates an empty scratch; grows on first use.
    #[must_use]
    pub fn new() -> Self {
        CoverageScratch::default()
    }

    fn begin(&mut self, sketch_count: usize) -> u32 {
        if self.stamp.len() < sketch_count {
            self.stamp.resize(sketch_count, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

/// The owned product of the RR-sketch sampling pass: bridge ends,
/// sketch counts, and the inverted node → sketch coverage index.
///
/// This is the expensive, *reusable* artifact of the sketch
/// estimator. It depends only on the instance, the bridge ends, the
/// `(ε, δ)` schedule, the master seed, and the hop budget — not on
/// any budget or α — so a session engine can build it once and share
/// it (behind an [`Arc`]) across every solve at the same accuracy.
/// [`SketchObjective::from_index`] re-attaches it to the instance for
/// querying.
#[derive(Clone, Debug)]
pub struct SketchIndex {
    bridge_ends: Vec<NodeId>,
    /// θ: total sketches drawn (stored + always-saved).
    total: u64,
    always_saved: u64,
    set_count: usize,
    /// Inverted node → sketch-id index, CSR layout over all nodes.
    index_offsets: Vec<u32>,
    index_ids: Vec<u32>,
}

impl SketchIndex {
    /// The bridge ends the sample was drawn over.
    #[must_use]
    pub fn bridge_ends(&self) -> &[NodeId] {
        &self.bridge_ends
    }

    /// θ: total sketches drawn by the schedule (stored +
    /// always-saved).
    #[must_use]
    pub fn sketch_count(&self) -> u64 {
        self.total
    }

    /// Sketches whose target the rumor never reaches within the hop
    /// budget (saved under every protector set).
    #[must_use]
    pub fn always_saved(&self) -> u64 {
        self.always_saved
    }

    /// Ids of the stored sketches containing `node`: its row of the
    /// inverted index.
    fn sketches_of(&self, node: NodeId) -> &[u32] {
        let lo = self.index_offsets[node.index()] as usize;
        let hi = self.index_offsets[node.index() + 1] as usize;
        &self.index_ids[lo..hi]
    }
}

/// A reusable sketch-backed evaluator of `σ̂` (weighted max-coverage
/// over RR sketches).
///
/// Built once per greedy run via [`SketchObjective::build`] — or
/// re-attached to a cached [`SketchIndex`] via
/// [`SketchObjective::from_index`]; queries through
/// [`SketchObjective::sigma_with`] touch only the inverted index — no
/// diffusion simulation.
///
/// # Examples
///
/// ```
/// use lcrb::{RumorBlockingInstance, SketchObjective, SketchParams};
/// use lcrb_community::Partition;
/// use lcrb_graph::{DiGraph, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let p = Partition::from_labels(vec![0, 0, 1, 1]);
/// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
/// let obj = SketchObjective::build(&inst, vec![NodeId::new(2)], SketchParams::default(), 0, 31)?;
/// // On a path the walk is forced: unprotected, the bridge end is
/// // always infected; protected directly, always saved.
/// assert_eq!(obj.sigma(&[])?, 0.0);
/// assert_eq!(obj.sigma(&[NodeId::new(2)])?, 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SketchObjective<'a> {
    instance: &'a RumorBlockingInstance,
    index: Arc<SketchIndex>,
}

impl SketchIndex {
    /// Samples RR sketches for `bridge_ends` under the adaptive
    /// `(ε, δ)` schedule and builds the inverted coverage index.
    ///
    /// `master_seed` makes the sample fully deterministic; `max_hops`
    /// bounds each sketch's temporal search exactly like the OPOAO
    /// simulation hop budget.
    ///
    /// # Errors
    ///
    /// Returns [`LcrbError::InvalidSketchParams`] if `params` is out
    /// of range, and [`LcrbError::Seeds`] with
    /// [`lcrb_diffusion::SeedError::OutOfBounds`] if a bridge end is
    /// not a node of the instance.
    pub fn build(
        instance: &RumorBlockingInstance,
        bridge_ends: Vec<NodeId>,
        params: SketchParams,
        master_seed: u64,
        max_hops: u32,
    ) -> Result<Self, LcrbError> {
        SketchIndex::build_metered(
            instance,
            bridge_ends,
            params,
            master_seed,
            max_hops,
            &WorkMeter::unlimited(),
        )
    }

    /// [`SketchIndex::build`] under a [`WorkMeter`]: each sketch is a
    /// checkpoint, and a cancellation or deadline stop abandons the
    /// build.
    ///
    /// # Errors
    ///
    /// Everything [`SketchIndex::build`] returns, plus
    /// [`LcrbError::Interrupted`] when a poll fires during generation.
    pub(crate) fn build_metered(
        instance: &RumorBlockingInstance,
        bridge_ends: Vec<NodeId>,
        params: SketchParams,
        master_seed: u64,
        max_hops: u32,
        meter: &WorkMeter,
    ) -> Result<Self, LcrbError> {
        params.validate()?;
        instance.check_in_bounds(&bridge_ends)?;
        let csr = instance.snapshot();
        let n = csr.node_count();
        let rumors = instance.rumor_seeds();

        let mut batch = SketchBatch::new();
        let mut scratch = RrScratch::new();
        let mut cover = vec![0u32; n];
        let mut is_rumor = vec![false; n];
        for &r in rumors {
            is_rumor[r.index()] = true;
        }

        if !bridge_ends.is_empty() {
            let mut theta = params.floor();
            let mut first_stored = 0usize;
            loop {
                rr_sketch_batch_into(
                    csr,
                    rumors,
                    |g| {
                        let target = bridge_ends[(derive_stream(master_seed, 2 * g)
                            % bridge_ends.len() as u64)
                            as usize];
                        (
                            target,
                            OpoaoRealization::new(derive_stream(master_seed, 2 * g + 1)),
                        )
                    },
                    batch.total(),
                    theta as u64,
                    max_hops,
                    &mut scratch,
                    &mut batch,
                    meter,
                )
                .map_err(|reason| LcrbError::Interrupted { reason })?;
                for s in first_stored..batch.set_count() {
                    for &u in batch.members(s) {
                        cover[u.index()] += 1;
                    }
                }
                first_stored = batch.set_count();
                if theta >= params.max_sketches {
                    break;
                }
                // Best observed placeable singleton coverage p̂ (rumor
                // seeds cannot host protectors).
                let best = cover
                    .iter()
                    .zip(is_rumor.iter())
                    .filter(|&(_, &r)| !r)
                    .map(|(&c, _)| c)
                    .max()
                    .unwrap_or(0);
                let p_hat = ((batch.always_saved() + u64::from(best)).max(1)) as f64 / theta as f64;
                if theta as f64 >= params.required_for(p_hat) {
                    break;
                }
                theta = (theta * 2).min(params.max_sketches);
            }
        }

        // Invert: CSR index node -> ids of stored sketches containing
        // it. `cover` already holds the per-node counts.
        let mut index_offsets = vec![0u32; n + 1];
        for v in 0..n {
            index_offsets[v + 1] = index_offsets[v] + cover[v];
        }
        let mut index_ids = vec![0u32; index_offsets[n] as usize];
        // Reuse `cover` as per-node write cursors.
        cover.fill(0);
        for s in 0..batch.set_count() {
            for &u in batch.members(s) {
                let slot = index_offsets[u.index()] + cover[u.index()];
                index_ids[slot as usize] = s as u32;
                cover[u.index()] += 1;
            }
        }

        Ok(SketchIndex {
            bridge_ends,
            total: batch.total(),
            always_saved: batch.always_saved(),
            set_count: batch.set_count(),
            index_offsets,
            index_ids,
        })
    }
}

impl<'a> SketchObjective<'a> {
    /// Samples RR sketches for `bridge_ends` under the adaptive
    /// `(ε, δ)` schedule and builds the inverted coverage index — a
    /// one-shot [`SketchIndex::build`] plus [`SketchObjective::from_index`].
    ///
    /// # Errors
    ///
    /// Returns [`LcrbError::InvalidSketchParams`] if `params` is out
    /// of range, and [`LcrbError::Seeds`] with
    /// [`lcrb_diffusion::SeedError::OutOfBounds`] if a bridge end is
    /// not a node of the instance.
    pub fn build(
        instance: &'a RumorBlockingInstance,
        bridge_ends: Vec<NodeId>,
        params: SketchParams,
        master_seed: u64,
        max_hops: u32,
    ) -> Result<Self, LcrbError> {
        let index = SketchIndex::build(instance, bridge_ends, params, master_seed, max_hops)?;
        Ok(SketchObjective::from_index(instance, Arc::new(index)))
    }

    /// Attaches a previously built (possibly cached) [`SketchIndex`]
    /// to `instance` for querying.
    ///
    /// The caller is responsible for pairing the index with the
    /// instance it was sampled against — the session engine keys its
    /// cache by snapshot epoch for exactly this reason.
    #[must_use]
    pub fn from_index(instance: &'a RumorBlockingInstance, index: Arc<SketchIndex>) -> Self {
        SketchObjective { instance, index }
    }

    /// The shared sampling artifact backing this objective.
    #[must_use]
    pub fn index(&self) -> &Arc<SketchIndex> {
        &self.index
    }

    /// The bridge ends the objective counts over.
    #[must_use]
    pub fn bridge_ends(&self) -> &[NodeId] {
        self.index.bridge_ends()
    }

    /// θ: total sketches drawn by the schedule (stored +
    /// always-saved).
    #[must_use]
    pub fn sketch_count(&self) -> u64 {
        self.index.sketch_count()
    }

    /// Sketches whose target the rumor never reaches within the hop
    /// budget (saved under every protector set).
    #[must_use]
    pub fn always_saved(&self) -> u64 {
        self.index.always_saved()
    }

    /// `σ̂(protectors)` — one-off convenience around
    /// [`SketchObjective::sigma_with`].
    ///
    /// # Errors
    ///
    /// Returns [`LcrbError::Seeds`] if `protectors` is out of bounds
    /// or overlaps the rumor seeds.
    pub fn sigma(&self, protectors: &[NodeId]) -> Result<f64, LcrbError> {
        let mut scratch = CoverageScratch::new();
        self.sigma_with(protectors, &mut scratch)
    }

    /// `σ̂(protectors)` by weighted max-coverage: `|B| ·
    /// (always_saved + covered) / θ`, where `covered` counts stored
    /// sketches intersecting `protectors`.
    ///
    /// Steady-state queries allocate nothing: coverage marks live in
    /// the caller-owned epoch-versioned `scratch`.
    ///
    /// # Errors
    ///
    /// Returns [`LcrbError::Seeds`] if `protectors` is out of bounds
    /// or overlaps the rumor seeds (mirroring
    /// [`crate::ProtectionObjective::sigma_with`]).
    pub fn sigma_with(
        &self,
        protectors: &[NodeId],
        scratch: &mut CoverageScratch,
    ) -> Result<f64, LcrbError> {
        self.check_protectors(protectors)?;
        let covered = self.mark_selection(protectors, scratch);
        Ok(self.sigma_of(covered))
    }

    /// `σ̂(selection ∪ {candidate})` from the marks
    /// [`SketchObjective::mark_selection`] left in `scratch` for
    /// `selection`, which returned `covered`: only the candidate's
    /// sketches are read, and those the selection covers are skipped.
    ///
    /// The count is the one [`SketchObjective::sigma_with`] makes on
    /// `selection ∪ {candidate}`, so the value is equal bit for bit.
    /// The marks are valid until `scratch` serves any other query.
    ///
    /// # Errors
    ///
    /// Returns the [`LcrbError::Seeds`] error `sigma_with` returns on
    /// `selection ∪ {candidate}` when `candidate` is out of bounds or
    /// a rumor seed; `selection` itself must be valid.
    pub(crate) fn sigma_plus_marked(
        &self,
        covered: u64,
        candidate: NodeId,
        scratch: &CoverageScratch,
    ) -> Result<f64, LcrbError> {
        self.check_protectors(std::slice::from_ref(&candidate))?;
        let fresh = self
            .index
            .sketches_of(candidate)
            .iter()
            .filter(|&&id| scratch.stamp[id as usize] != scratch.epoch)
            .count() as u64;
        Ok(self.sigma_of(covered + fresh))
    }

    /// Marks in `scratch` every stored sketch `selection` covers and
    /// returns their number. `selection` must be in bounds.
    pub(crate) fn mark_selection(
        &self,
        selection: &[NodeId],
        scratch: &mut CoverageScratch,
    ) -> u64 {
        let epoch = scratch.begin(self.index.set_count);
        let mut covered = 0u64;
        for &p in selection {
            for &id in self.index.sketches_of(p) {
                if scratch.stamp[id as usize] != epoch {
                    scratch.stamp[id as usize] = epoch;
                    covered += 1;
                }
            }
        }
        covered
    }

    /// `|B| · (always_saved + covered) / θ`, and 0 without sketches.
    fn sigma_of(&self, covered: u64) -> f64 {
        let index = &*self.index;
        if index.total == 0 {
            return 0.0;
        }
        index.bridge_ends.len() as f64 * (index.always_saved + covered) as f64 / index.total as f64
    }

    /// Rejects protectors out of bounds or on a rumor seed with the
    /// Monte-Carlo objective's error value.
    fn check_protectors(&self, protectors: &[NodeId]) -> Result<(), LcrbError> {
        let n = self.instance.snapshot().node_count();
        if protectors
            .iter()
            .any(|&p| p.index() >= n || self.instance.is_rumor_seed(p))
        {
            // Delegate to the canonical validator so the error value
            // matches the Monte-Carlo objective exactly.
            // xtask-allow: hotreach -- cold error path only: valid protector sets never reach this copy
            self.instance.seed_sets(protectors.to_vec())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrb_community::Partition;
    use lcrb_graph::{generators, DiGraph};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn chain_instance() -> RumorBlockingInstance {
        let g = generators::path_graph(4);
        let p = Partition::from_labels(vec![0, 0, 1, 1]);
        RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)]).unwrap()
    }

    fn community_instance(seed: u64) -> RumorBlockingInstance {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (g, labels) =
            generators::planted_partition(&[15, 15], 0.3, 0.05, false, &mut rng).unwrap();
        let p = Partition::from_labels(labels);
        RumorBlockingInstance::with_random_seeds(g, p, 0, 2, &mut rng).unwrap()
    }

    #[test]
    fn rejects_bad_params() {
        let inst = chain_instance();
        for params in [
            SketchParams {
                epsilon: 0.0,
                ..SketchParams::default()
            },
            SketchParams {
                epsilon: 1.0,
                ..SketchParams::default()
            },
            SketchParams {
                delta: f64::NAN,
                ..SketchParams::default()
            },
            SketchParams {
                delta: 0.0,
                ..SketchParams::default()
            },
            SketchParams {
                delta: 1.0,
                ..SketchParams::default()
            },
            SketchParams {
                min_sketches: 0,
                ..SketchParams::default()
            },
            SketchParams {
                min_sketches: 100,
                max_sketches: 10,
                ..SketchParams::default()
            },
        ] {
            assert!(matches!(
                SketchObjective::build(&inst, vec![NodeId::new(2)], params, 0, 31).unwrap_err(),
                LcrbError::InvalidSketchParams { .. }
            ));
        }
    }

    #[test]
    fn params_constructor_validates_probability_edges() {
        for (epsilon, delta) in [
            (0.0, 0.05),
            (1.0, 0.05),
            (-0.1, 0.05),
            (f64::NAN, 0.05),
            (0.1, 0.0),
            (0.1, 1.0),
            (0.1, -0.2),
            (0.1, f64::INFINITY),
        ] {
            assert!(
                matches!(
                    SketchParams::new(epsilon, delta).unwrap_err(),
                    LcrbError::InvalidSketchParams { .. }
                ),
                "({epsilon}, {delta}) should be rejected"
            );
        }
        let ok = SketchParams::new(0.2, 0.1).unwrap();
        assert_eq!((ok.epsilon, ok.delta), (0.2, 0.1));
        assert_eq!(ok.min_sketches, SketchParams::default().min_sketches);
        assert_eq!(ok.max_sketches, SketchParams::default().max_sketches);
        ok.validate().unwrap();
    }

    #[test]
    fn shared_index_answers_like_a_fresh_build() {
        let inst = community_instance(21);
        let b = crate::find_bridge_ends(&inst, crate::BridgeEndRule::WithinCommunity);
        let index = Arc::new(
            SketchIndex::build(&inst, b.nodes.clone(), SketchParams::default(), 5, 31).unwrap(),
        );
        let fresh =
            SketchObjective::build(&inst, b.nodes.clone(), SketchParams::default(), 5, 31).unwrap();
        let shared = SketchObjective::from_index(&inst, Arc::clone(&index));
        let shared_again = SketchObjective::from_index(&inst, Arc::clone(&index));
        for k in 0..b.nodes.len().min(3) {
            let set = &b.nodes[..k];
            assert_eq!(fresh.sigma(set).unwrap(), shared.sigma(set).unwrap());
            assert_eq!(shared.sigma(set).unwrap(), shared_again.sigma(set).unwrap());
        }
        assert_eq!(fresh.sketch_count(), index.sketch_count());
    }

    #[test]
    fn chain_sigma_is_exact() {
        let inst = chain_instance();
        let obj =
            SketchObjective::build(&inst, vec![NodeId::new(2)], SketchParams::default(), 7, 31)
                .unwrap();
        // Forced walk: rumor always reaches bridge end 2 (no
        // always-saved sketches), and every sketch contains {1, 2}.
        assert_eq!(obj.always_saved(), 0);
        assert_eq!(obj.sigma(&[]).unwrap(), 0.0);
        assert_eq!(obj.sigma(&[NodeId::new(1)]).unwrap(), 1.0);
        assert_eq!(obj.sigma(&[NodeId::new(2)]).unwrap(), 1.0);
        assert_eq!(obj.sigma(&[NodeId::new(3)]).unwrap(), 0.0);
    }

    #[test]
    fn sigma_is_deterministic_and_monotone() {
        let inst = community_instance(3);
        let b = crate::find_bridge_ends(&inst, crate::BridgeEndRule::WithinCommunity);
        if b.nodes.is_empty() {
            return;
        }
        let o1 =
            SketchObjective::build(&inst, b.nodes.clone(), SketchParams::default(), 5, 31).unwrap();
        let o2 =
            SketchObjective::build(&inst, b.nodes.clone(), SketchParams::default(), 5, 31).unwrap();
        let set = [b.nodes[0]];
        assert_eq!(o1.sigma(&set).unwrap(), o2.sigma(&set).unwrap());
        // Monotone: supersets never decrease coverage.
        let base = o1.sigma(&[]).unwrap();
        let one = o1.sigma(&set).unwrap();
        assert!(one >= base);
        if b.nodes.len() > 1 {
            let two = o1.sigma(&[b.nodes[0], b.nodes[1]]).unwrap();
            assert!(two >= one);
        }
    }

    #[test]
    fn invalid_protectors_mirror_mc_errors() {
        let inst = chain_instance();
        let obj =
            SketchObjective::build(&inst, vec![NodeId::new(2)], SketchParams::default(), 0, 31)
                .unwrap();
        assert!(matches!(
            obj.sigma(&[NodeId::new(0)]).unwrap_err(),
            LcrbError::Seeds(_)
        ));
        assert!(obj.sigma(&[NodeId::new(99)]).is_err());
    }

    fn out_of_bounds_bridge_end() -> (Vec<NodeId>, LcrbError) {
        let err = LcrbError::Seeds(lcrb_diffusion::SeedError::OutOfBounds {
            node: NodeId::new(99),
            node_count: 4,
        });
        (vec![NodeId::new(2), NodeId::new(99)], err)
    }

    #[test]
    fn index_build_rejects_an_out_of_bounds_bridge_end() {
        let (bridge_ends, want) = out_of_bounds_bridge_end();
        let got = SketchIndex::build(
            &chain_instance(),
            bridge_ends,
            SketchParams::default(),
            0,
            31,
        );
        assert_eq!(got.unwrap_err(), want);
    }

    #[test]
    fn objective_build_rejects_an_out_of_bounds_bridge_end() {
        let (bridge_ends, want) = out_of_bounds_bridge_end();
        let inst = chain_instance();
        let got = SketchObjective::build(&inst, bridge_ends, SketchParams::default(), 0, 31);
        assert_eq!(got.unwrap_err(), want);
    }

    #[test]
    fn empty_bridge_ends_give_zero_sigma() {
        let inst = chain_instance();
        let obj =
            SketchObjective::build(&inst, Vec::new(), SketchParams::default(), 0, 31).unwrap();
        assert_eq!(obj.sketch_count(), 0);
        assert_eq!(obj.sigma(&[NodeId::new(2)]).unwrap(), 0.0);
    }

    #[test]
    fn unreachable_targets_are_always_saved() {
        // Rumor in {0,1}, bridge end 3 unreachable (edge 2->3 only).
        let g = DiGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let p = Partition::from_labels(vec![0, 0, 1, 1]);
        let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)]).unwrap();
        let obj =
            SketchObjective::build(&inst, vec![NodeId::new(3)], SketchParams::default(), 1, 31)
                .unwrap();
        assert_eq!(obj.always_saved(), obj.sketch_count());
        assert_eq!(obj.sigma(&[]).unwrap(), 1.0);
    }

    #[test]
    fn schedule_respects_clamps() {
        let inst = chain_instance();
        let params = SketchParams {
            epsilon: 0.3,
            delta: 0.2,
            min_sketches: 16,
            max_sketches: 64,
        };
        let obj = SketchObjective::build(&inst, vec![NodeId::new(2)], params, 0, 31).unwrap();
        assert!(obj.sketch_count() >= 16);
        assert!(obj.sketch_count() <= 64);
        // A generous epsilon keeps the floor small; a tight one on the
        // same instance draws strictly more sketches.
        let tight = SketchParams {
            epsilon: 0.05,
            delta: 0.01,
            min_sketches: 16,
            max_sketches: 1 << 14,
        };
        let obj2 = SketchObjective::build(&inst, vec![NodeId::new(2)], tight, 0, 31).unwrap();
        assert!(obj2.sketch_count() > obj.sketch_count());
    }

    #[test]
    fn sigma_with_reused_scratch_matches_sigma() {
        let inst = community_instance(9);
        let b = crate::find_bridge_ends(&inst, crate::BridgeEndRule::WithinCommunity);
        let obj =
            SketchObjective::build(&inst, b.nodes.clone(), SketchParams::default(), 2, 31).unwrap();
        let mut scratch = CoverageScratch::new();
        for k in 0..b.nodes.len().min(4) {
            let protectors = &b.nodes[..k];
            assert_eq!(
                obj.sigma_with(protectors, &mut scratch).unwrap(),
                obj.sigma(protectors).unwrap()
            );
        }
    }

    proptest! {
        /// The CELF re-score against a marked selection S equals
        /// `sigma_with(S ∪ {c})` bit for bit, for every node c: members
        /// of S, free nodes, rumor seeds and one out-of-bounds node
        /// (those two must fail with `sigma_with`'s error).
        #[test]
        fn incremental_rescore_matches_sigma_with(
            seed in 0u64..4096,
            picks in proptest::collection::vec(0usize..30, 0..6),
            hops in 1u32..32,
        ) {
            let inst = community_instance(seed);
            let b = crate::find_bridge_ends(&inst, crate::BridgeEndRule::default());
            let params = SketchParams {
                min_sketches: 64,
                max_sketches: 1024,
                ..SketchParams::default()
            };
            let obj = SketchObjective::build(&inst, b.nodes, params, seed, hops).unwrap();
            let csr = inst.snapshot();
            let free: Vec<NodeId> = csr.nodes().filter(|&v| !inst.is_rumor_seed(v)).collect();
            let selection: Vec<NodeId> = picks.iter().map(|&i| free[i % free.len()]).collect();
            // Dirty the scratch first, so stale stamps of an older
            // epoch sit under the marks.
            let mut marks = CoverageScratch::new();
            obj.sigma_with(&free[..free.len() / 2], &mut marks).unwrap();
            let covered = obj.mark_selection(&selection, &mut marks);
            let mut fresh = CoverageScratch::new();
            for c in (0..=csr.node_count()).map(NodeId::new) {
                let mut set = selection.clone();
                set.push(c);
                let want = obj.sigma_with(&set, &mut fresh);
                let got = obj.sigma_plus_marked(covered, c, &marks);
                match (got, want) {
                    (Ok(got), Ok(want)) => prop_assert_eq!(got.to_bits(), want.to_bits(), "candidate {}", c),
                    (got, want) => prop_assert_eq!(got, want, "candidate {}", c),
                }
            }
        }
    }
}
