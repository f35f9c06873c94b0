//! The protector-influence objective `σ̂` for LCRB-P.
//!
//! §V-A of the paper defines `σ(A) = E[|PB(A)|]`, the expected number
//! of bridge ends saved by seeding protectors at `A`, and proves it
//! monotone and submodular (Theorem 1) by conditioning on the random
//! choices of a diffusion (Lemmas 1–4). This module is the estimator:
//! it fixes a batch of [`OpoaoRealization`]s once and evaluates every
//! candidate set against the *same* batch (common random numbers).
//!
//! We maximize the equivalent shifted objective
//! `σ̂(A) = avg #{v ∈ B : v not infected under (S_R, A)}`:
//! per realization this equals a constant (bridge ends the rumor
//! never reaches) plus `|PB(A)|`, so it inherits monotonicity and
//! submodularity while also being directly comparable with the
//! paper's protection target `α·|B|`.

use lcrb_diffusion::{
    CompetitiveIcModel, IcRealization, LaneWorkspace, OpoaoModel, OpoaoRealization, SeedSets,
    SimWorkspace,
};
use lcrb_graph::NodeId;

use crate::{LcrbError, RumorBlockingInstance};

/// Which diffusion model the LCRB-P objective estimates under.
///
/// The paper studies LCRB-P on OPOAO; the IC variant is the
/// EIL-flavored extension enabled by the live-edge coupling (see
/// [`IcRealization`]). Both couplings make the per-realization
/// saved-bridge-end count monotone and submodular, so the greedy's
/// `(1 - 1/e)` guarantee carries over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ObjectiveModel {
    /// Opportunistic One-Activate-One (the paper's §III-A model).
    Opoao(OpoaoModel),
    /// Competitive Independent Cascade with live-edge realizations.
    CompetitiveIc(CompetitiveIcModel),
}

impl Default for ObjectiveModel {
    fn default() -> Self {
        ObjectiveModel::Opoao(OpoaoModel::default())
    }
}

/// The realization batch matching an [`ObjectiveModel`].
#[derive(Debug)]
enum Batch {
    Opoao(OpoaoModel, Vec<OpoaoRealization>),
    Ic(CompetitiveIcModel, Vec<IcRealization>),
}

impl Batch {
    fn len(&self) -> usize {
        match self {
            Batch::Opoao(_, r) => r.len(),
            Batch::Ic(_, r) => r.len(),
        }
    }
}

/// A reusable evaluator of `σ̂` over a fixed realization batch.
///
/// # Examples
///
/// ```
/// use lcrb::{ProtectionObjective, RumorBlockingInstance};
/// use lcrb_community::Partition;
/// use lcrb_graph::{DiGraph, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let p = Partition::from_labels(vec![0, 0, 1, 1]);
/// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
/// let obj = ProtectionObjective::new(&inst, vec![NodeId::new(2)], 16, 0, 31)?;
/// let unprotected = obj.sigma(&[])?;
/// let protected = obj.sigma(&[NodeId::new(2)])?;
/// assert!(protected >= unprotected);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ProtectionObjective<'a> {
    instance: &'a RumorBlockingInstance,
    bridge_ends: Vec<NodeId>,
    batch: Batch,
}

impl<'a> ProtectionObjective<'a> {
    /// Builds an objective over `realization_count` coupled
    /// realizations derived from `master_seed`, simulating up to
    /// `max_hops` hops.
    ///
    /// # Errors
    ///
    /// Returns [`LcrbError::NoRealizations`] when
    /// `realization_count == 0`, and [`LcrbError::Seeds`] with
    /// [`lcrb_diffusion::SeedError::OutOfBounds`] if a bridge end is
    /// not a node of the instance.
    pub fn new(
        instance: &'a RumorBlockingInstance,
        bridge_ends: Vec<NodeId>,
        realization_count: usize,
        master_seed: u64,
        max_hops: u32,
    ) -> Result<Self, LcrbError> {
        ProtectionObjective::with_model(
            instance,
            bridge_ends,
            ObjectiveModel::Opoao(OpoaoModel::new(max_hops)),
            realization_count,
            master_seed,
        )
    }

    /// Builds an objective for any supported diffusion model.
    ///
    /// # Errors
    ///
    /// Returns [`LcrbError::NoRealizations`] when
    /// `realization_count == 0`, and [`LcrbError::Seeds`] with
    /// [`lcrb_diffusion::SeedError::OutOfBounds`] if a bridge end is
    /// not a node of the instance.
    pub fn with_model(
        instance: &'a RumorBlockingInstance,
        bridge_ends: Vec<NodeId>,
        model: ObjectiveModel,
        realization_count: usize,
        master_seed: u64,
    ) -> Result<Self, LcrbError> {
        if realization_count == 0 {
            return Err(LcrbError::NoRealizations);
        }
        instance.check_in_bounds(&bridge_ends)?;
        let batch = match model {
            ObjectiveModel::Opoao(m) => {
                Batch::Opoao(m, OpoaoRealization::batch(realization_count, master_seed))
            }
            ObjectiveModel::CompetitiveIc(m) => {
                Batch::Ic(m, IcRealization::batch(realization_count, master_seed))
            }
        };
        Ok(ProtectionObjective {
            instance,
            bridge_ends,
            batch,
        })
    }

    /// The bridge ends the objective counts over.
    #[must_use]
    pub fn bridge_ends(&self) -> &[NodeId] {
        &self.bridge_ends
    }

    /// Number of realizations in the batch.
    #[must_use]
    pub fn realization_count(&self) -> usize {
        self.batch.len()
    }

    /// Number of bridge ends *not infected* on one specific
    /// realization with protector seeds `protectors`.
    ///
    /// # Errors
    ///
    /// Returns [`LcrbError::Seeds`] if `protectors` is invalid.
    ///
    /// # Panics
    ///
    /// Panics if `index >= realization_count()`.
    pub fn saved_on_realization(
        &self,
        index: usize,
        protectors: &[NodeId],
    ) -> Result<usize, LcrbError> {
        let seeds = self.seed_sets(protectors)?;
        let mut ws = SimWorkspace::with_capacity(self.instance.snapshot().node_count());
        Ok(self.saved(index, &seeds, &mut ws))
    }

    /// `σ̂(protectors)`: the average over the realization batch of the
    /// number of bridge ends not infected.
    ///
    /// One-off convenience around [`ProtectionObjective::sigma_with`];
    /// loops that evaluate many candidate sets should hold a
    /// [`SimWorkspace`] and call `sigma_with` instead.
    ///
    /// # Errors
    ///
    /// Returns [`LcrbError::Seeds`] if `protectors` is out of bounds
    /// or overlaps the rumor seeds.
    pub fn sigma(&self, protectors: &[NodeId]) -> Result<f64, LcrbError> {
        let mut ws = SimWorkspace::with_capacity(self.instance.snapshot().node_count());
        self.sigma_with(protectors, &mut ws)
    }

    /// `σ̂(protectors)` evaluated through a caller-owned workspace.
    ///
    /// The entire realization batch is simulated against the
    /// instance's frozen CSR snapshot with per-run scratch in `ws`, so
    /// repeated evaluations allocate nothing. The objective itself
    /// stays shareable across threads (`&self`); each worker brings
    /// its own workspace.
    ///
    /// # Errors
    ///
    /// Returns [`LcrbError::Seeds`] if `protectors` is out of bounds
    /// or overlaps the rumor seeds.
    pub fn sigma_with(
        &self,
        protectors: &[NodeId],
        ws: &mut SimWorkspace,
    ) -> Result<f64, LcrbError> {
        let seeds = self.seed_sets(protectors)?;
        let total: usize = (0..self.batch.len())
            .map(|i| self.saved(i, &seeds, ws))
            .sum();
        Ok(self.average(total))
    }

    /// `σ̂(protectors)` with *zero* per-query allocation: the seed
    /// pair lives in `seeds` (built lazily on first use) and is
    /// refilled in place via [`SeedSets::set_protectors`]. This is
    /// the path the greedy's CELF loop drives.
    ///
    /// # Errors
    ///
    /// Returns [`LcrbError::Seeds`] if `protectors` is out of bounds
    /// or overlaps the rumor seeds.
    pub(crate) fn sigma_with_cached_seeds(
        &self,
        protectors: &[NodeId],
        seeds: &mut Option<SeedSets>,
        ws: &mut SimWorkspace,
    ) -> Result<f64, LcrbError> {
        let seeds = match seeds {
            Some(s) => s,
            // xtask-allow: hotreach -- lazy one-time seed-set construction; later calls refill in place
            None => seeds.insert(self.instance.seed_sets(Vec::new())?),
        };
        seeds.set_protectors(self.instance.snapshot().node_count(), protectors)?;
        let total: usize = (0..self.batch.len())
            .map(|i| self.saved(i, seeds, ws))
            .sum();
        Ok(self.average(total))
    }

    /// The lane-packed scorer behind the greedy's initial sweep;
    /// `None` under IC, which has no lane kernel.
    pub(crate) fn lane_scorer(&self) -> Option<LaneScorer<'_>> {
        match &self.batch {
            Batch::Opoao(model, realizations) => Some(LaneScorer {
                objective: self,
                model: *model,
                realizations,
            }),
            Batch::Ic(..) => None,
        }
    }

    /// `σ̂` from the saved-bridge-end count summed over the batch.
    pub(crate) fn average(&self, total: usize) -> f64 {
        total as f64 / self.batch.len() as f64
    }

    fn seed_sets(&self, protectors: &[NodeId]) -> Result<SeedSets, LcrbError> {
        // xtask-allow: hotreach -- one-off convenience entry; the CELF loop goes through sigma_with_cached_seeds
        self.instance.seed_sets(protectors.to_vec())
    }

    fn saved(&self, index: usize, seeds: &SeedSets, ws: &mut SimWorkspace) -> usize {
        let csr = self.instance.snapshot();
        match &self.batch {
            Batch::Opoao(m, reals) => m.run_realized_into(csr, seeds, ws, &reals[index]),
            Batch::Ic(m, reals) => m.run_realized_into(csr, seeds, ws, &reals[index]),
        }
        self.bridge_ends
            .iter()
            .filter(|&&v| !ws.status(v).is_infected())
            .count()
    }
}

/// Scores up to [`lcrb_diffusion::OPOAO_LANES`] protector sets per
/// OPOAO realization pass: the lane kernel
/// ([`OpoaoModel::run_lanes_into`]) plus the objective's bridge-end
/// count.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LaneScorer<'o> {
    objective: &'o ProtectionObjective<'o>,
    model: OpoaoModel,
    realizations: &'o [OpoaoRealization],
}

impl LaneScorer<'_> {
    /// Runs realization `index` once for `sets` (at most
    /// [`lcrb_diffusion::OPOAO_LANES`]) and adds each set's count of
    /// bridge ends not infected to its slot of `totals`.
    ///
    /// # Errors
    ///
    /// Returns [`LcrbError::Seeds`] for the first invalid set, as
    /// [`ProtectionObjective::sigma_with`] would.
    pub(crate) fn add_saved<I>(
        &self,
        index: usize,
        sets: I,
        lanes: &mut LaneWorkspace,
        totals: &mut [usize],
    ) -> Result<(), LcrbError>
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        I::Item: AsRef<[NodeId]>,
    {
        let instance = self.objective.instance;
        self.model.run_lanes_into(
            instance.snapshot(),
            instance.rumor_seeds(),
            sets,
            lanes,
            &self.realizations[index],
        )?;
        for &v in &self.objective.bridge_ends {
            let mut saved = lanes.lane_mask() & !lanes.infected(v);
            while saved != 0 {
                totals[saved.trailing_zeros() as usize] += 1;
                saved &= saved - 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrb_community::Partition;
    use lcrb_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn chain_instance() -> RumorBlockingInstance {
        // 0 -> 1 -> 2 -> 3; rumor community {0, 1}; bridge end 2.
        let g = generators::path_graph(4);
        let p = Partition::from_labels(vec![0, 0, 1, 1]);
        RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)]).unwrap()
    }

    #[test]
    fn rejects_zero_realizations() {
        let inst = chain_instance();
        let err = ProtectionObjective::new(&inst, vec![NodeId::new(2)], 0, 0, 31).unwrap_err();
        assert_eq!(err, LcrbError::NoRealizations);
    }

    #[test]
    fn protecting_the_bridge_end_directly_is_perfect() {
        let inst = chain_instance();
        let obj = ProtectionObjective::new(&inst, vec![NodeId::new(2)], 8, 0, 31).unwrap();
        // On a path the walk is forced: without protection the bridge
        // end is always infected by hop 2.
        assert_eq!(obj.sigma(&[]).unwrap(), 0.0);
        assert_eq!(obj.sigma(&[NodeId::new(2)]).unwrap(), 1.0);
    }

    #[test]
    fn sigma_is_deterministic_for_fixed_master_seed() {
        let mut rng = SmallRng::seed_from_u64(3);
        let (g, labels) =
            generators::planted_partition(&[15, 15], 0.3, 0.05, false, &mut rng).unwrap();
        let p = Partition::from_labels(labels);
        let inst = RumorBlockingInstance::with_random_seeds(g, p, 0, 2, &mut rng).unwrap();
        let b = crate::find_bridge_ends(&inst, crate::BridgeEndRule::WithinCommunity);
        let obj1 = ProtectionObjective::new(&inst, b.nodes.clone(), 32, 5, 31).unwrap();
        let obj2 = ProtectionObjective::new(&inst, b.nodes, 32, 5, 31).unwrap();
        let p0 = vec![NodeId::new(20)];
        assert_eq!(obj1.sigma(&p0).unwrap(), obj2.sigma(&p0).unwrap());
    }

    #[test]
    fn sigma_is_monotone_in_protectors() {
        let mut rng = SmallRng::seed_from_u64(4);
        let (g, labels) =
            generators::planted_partition(&[15, 15], 0.3, 0.05, false, &mut rng).unwrap();
        let p = Partition::from_labels(labels);
        let inst = RumorBlockingInstance::with_random_seeds(g, p, 0, 2, &mut rng).unwrap();
        let b = crate::find_bridge_ends(&inst, crate::BridgeEndRule::WithinCommunity);
        if b.nodes.is_empty() {
            return;
        }
        let obj = ProtectionObjective::new(&inst, b.nodes.clone(), 24, 0, 31).unwrap();
        let base = obj.sigma(&[]).unwrap();
        let one = obj.sigma(&[b.nodes[0]]).unwrap();
        assert!(one >= base, "one {one} < base {base}");
        if b.nodes.len() > 1 {
            let two = obj.sigma(&[b.nodes[0], b.nodes[1]]).unwrap();
            assert!(two >= one);
        }
    }

    #[test]
    fn invalid_protectors_error() {
        let inst = chain_instance();
        let obj = ProtectionObjective::new(&inst, vec![NodeId::new(2)], 4, 0, 31).unwrap();
        assert!(matches!(
            obj.sigma(&[NodeId::new(0)]).unwrap_err(),
            LcrbError::Seeds(_)
        ));
        assert!(obj.sigma(&[NodeId::new(99)]).is_err());
    }

    #[test]
    fn out_of_bounds_bridge_end_is_a_typed_error() {
        let inst = chain_instance();
        let err = ProtectionObjective::new(&inst, vec![NodeId::new(99)], 4, 0, 31).unwrap_err();
        assert_eq!(
            err,
            LcrbError::Seeds(lcrb_diffusion::SeedError::OutOfBounds {
                node: NodeId::new(99),
                node_count: 4,
            })
        );
    }

    #[test]
    fn ic_objective_behaves_like_opoao_objective() {
        use lcrb_diffusion::CompetitiveIcModel;
        let inst = chain_instance();
        let model = ObjectiveModel::CompetitiveIc(CompetitiveIcModel::new(1.0).unwrap());
        let obj =
            ProtectionObjective::with_model(&inst, vec![NodeId::new(2)], model, 8, 0).unwrap();
        // p = 1 on a path: deterministic infection unless protected.
        assert_eq!(obj.sigma(&[]).unwrap(), 0.0);
        assert_eq!(obj.sigma(&[NodeId::new(2)]).unwrap(), 1.0);
        // Monotone per realization.
        for i in 0..obj.realization_count() {
            let a = obj.saved_on_realization(i, &[]).unwrap();
            let b = obj.saved_on_realization(i, &[NodeId::new(3)]).unwrap();
            assert!(b >= a);
        }
    }

    #[test]
    fn sigma_with_reused_workspace_matches_sigma() {
        let mut rng = SmallRng::seed_from_u64(11);
        let (g, labels) =
            generators::planted_partition(&[15, 15], 0.3, 0.05, false, &mut rng).unwrap();
        let p = Partition::from_labels(labels);
        let inst = RumorBlockingInstance::with_random_seeds(g, p, 0, 2, &mut rng).unwrap();
        let b = crate::find_bridge_ends(&inst, crate::BridgeEndRule::WithinCommunity);
        let obj = ProtectionObjective::new(&inst, b.nodes.clone(), 16, 2, 31).unwrap();
        let mut ws = SimWorkspace::new();
        for k in 0..b.nodes.len().min(3) {
            let protectors = &b.nodes[..k];
            assert_eq!(
                obj.sigma_with(protectors, &mut ws).unwrap(),
                obj.sigma(protectors).unwrap()
            );
        }
    }

    #[test]
    fn cached_seed_sigma_matches_sigma() {
        let mut rng = SmallRng::seed_from_u64(13);
        let (g, labels) =
            generators::planted_partition(&[15, 15], 0.3, 0.05, false, &mut rng).unwrap();
        let p = Partition::from_labels(labels);
        let inst = RumorBlockingInstance::with_random_seeds(g, p, 0, 2, &mut rng).unwrap();
        let b = crate::find_bridge_ends(&inst, crate::BridgeEndRule::WithinCommunity);
        let obj = ProtectionObjective::new(&inst, b.nodes.clone(), 16, 2, 31).unwrap();
        let mut ws = SimWorkspace::new();
        let mut seeds = None;
        for k in 0..b.nodes.len().min(3) {
            let protectors = &b.nodes[..k];
            assert_eq!(
                obj.sigma_with_cached_seeds(protectors, &mut seeds, &mut ws)
                    .unwrap(),
                obj.sigma(protectors).unwrap()
            );
        }
        // Error paths leave the cached pair reusable.
        let rumor = inst.rumor_seeds()[0];
        assert!(obj
            .sigma_with_cached_seeds(&[rumor], &mut seeds, &mut ws)
            .is_err());
        if !b.nodes.is_empty() {
            assert_eq!(
                obj.sigma_with_cached_seeds(&b.nodes[..1], &mut seeds, &mut ws)
                    .unwrap(),
                obj.sigma(&b.nodes[..1]).unwrap()
            );
        }
    }

    #[test]
    fn saved_on_realization_matches_sigma_average() {
        let inst = chain_instance();
        let obj = ProtectionObjective::new(&inst, vec![NodeId::new(2)], 6, 9, 31).unwrap();
        let protectors = vec![NodeId::new(3)];
        let total: usize = (0..obj.realization_count())
            .map(|i| obj.saved_on_realization(i, &protectors).unwrap())
            .sum();
        let avg = total as f64 / obj.realization_count() as f64;
        assert_eq!(avg, obj.sigma(&protectors).unwrap());
    }
}
