//! The LCRB problem instance (Definition 2 of the paper).

use rand::seq::SliceRandom;
use rand::Rng;

use lcrb_community::Partition;
use lcrb_diffusion::{SeedError, SeedSets};
use lcrb_graph::{CsrGraph, DiGraph, NodeId};

use crate::LcrbError;

/// One Least Cost Rumor Blocking instance: a social graph with its
/// community structure, a designated rumor community `C_k`, and the
/// rumor originators `S_R ⊆ V(C_k)` (Definition 2).
///
/// The instance owns the graph and partition, and freezes a
/// [`CsrGraph`] snapshot once at construction; every solver in this
/// crate simulates against that snapshot (snapshot once, simulate
/// many).
///
/// # Examples
///
/// ```
/// use lcrb::RumorBlockingInstance;
/// use lcrb_community::Partition;
/// use lcrb_graph::{DiGraph, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Community 0 = {0, 1}, community 1 = {2, 3}; the rumor starts at 0.
/// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let p = Partition::from_labels(vec![0, 0, 1, 1]);
/// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
/// assert_eq!(inst.rumor_seeds(), &[NodeId::new(0)]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct RumorBlockingInstance {
    graph: DiGraph,
    snapshot: CsrGraph,
    partition: Partition,
    rumor_community: usize,
    rumor_seeds: Vec<NodeId>,
}

impl RumorBlockingInstance {
    /// Validates and builds an instance.
    ///
    /// # Errors
    ///
    /// - [`LcrbError::PartitionMismatch`] if the partition does not
    ///   cover the graph;
    /// - [`LcrbError::UnknownCommunity`] for a bad community id;
    /// - [`LcrbError::NoRumorSeeds`] for an empty seed list;
    /// - [`LcrbError::SeedOutsideCommunity`] if a seed is not in the
    ///   rumor community;
    /// - [`LcrbError::Seeds`] for out-of-bounds or duplicate-set
    ///   violations at the diffusion layer.
    pub fn new(
        graph: DiGraph,
        partition: Partition,
        rumor_community: usize,
        rumor_seeds: Vec<NodeId>,
    ) -> Result<Self, LcrbError> {
        partition.check_node_count(graph.node_count())?;
        if rumor_community >= partition.community_count() {
            return Err(LcrbError::UnknownCommunity {
                community: rumor_community,
                community_count: partition.community_count(),
            });
        }
        if rumor_seeds.is_empty() {
            return Err(LcrbError::NoRumorSeeds);
        }
        // Validate bounds + dedup via the diffusion layer.
        let seeds = SeedSets::rumors_only(&graph, rumor_seeds)?;
        let rumor_seeds = seeds.rumors().to_vec();
        for &s in &rumor_seeds {
            let c = partition.community_of(s);
            if c != rumor_community {
                return Err(LcrbError::SeedOutsideCommunity {
                    node: s,
                    actual_community: c,
                    rumor_community,
                });
            }
        }
        let snapshot = CsrGraph::from(&graph);
        Ok(RumorBlockingInstance {
            graph,
            snapshot,
            partition,
            rumor_community,
            rumor_seeds,
        })
    }

    /// Builds an instance by sampling `count` rumor seeds uniformly
    /// from the community's members (the experimental setup of §VI,
    /// where `|R|` is a percentage of `|C|`).
    ///
    /// # Errors
    ///
    /// Same as [`RumorBlockingInstance::new`]; additionally
    /// [`LcrbError::NoRumorSeeds`] if `count == 0` or the community
    /// is empty.
    pub fn with_random_seeds<R: Rng + ?Sized>(
        graph: DiGraph,
        partition: Partition,
        rumor_community: usize,
        count: usize,
        rng: &mut R,
    ) -> Result<Self, LcrbError> {
        partition.check_node_count(graph.node_count())?;
        if rumor_community >= partition.community_count() {
            return Err(LcrbError::UnknownCommunity {
                community: rumor_community,
                community_count: partition.community_count(),
            });
        }
        let mut members = partition.members(rumor_community);
        members.shuffle(rng);
        members.truncate(count);
        RumorBlockingInstance::new(graph, partition, rumor_community, members)
    }

    /// The social graph.
    #[inline]
    #[must_use]
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The frozen CSR snapshot of the graph, built once at
    /// construction — the substrate every simulation in this crate
    /// runs against.
    #[inline]
    #[must_use]
    pub fn snapshot(&self) -> &CsrGraph {
        &self.snapshot
    }

    /// The community structure.
    #[inline]
    #[must_use]
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Id of the rumor community `C_k`.
    #[inline]
    #[must_use]
    pub fn rumor_community(&self) -> usize {
        self.rumor_community
    }

    /// The rumor originators `S_R` (deduplicated, order preserved).
    #[inline]
    #[must_use]
    pub fn rumor_seeds(&self) -> &[NodeId] {
        &self.rumor_seeds
    }

    /// Members of the rumor community.
    #[must_use]
    pub fn rumor_community_members(&self) -> Vec<NodeId> {
        self.partition.members(self.rumor_community)
    }

    /// `true` if `node` belongs to the rumor community.
    #[inline]
    #[must_use]
    pub fn in_rumor_community(&self, node: NodeId) -> bool {
        self.partition.community_of(node) == self.rumor_community
    }

    /// `true` if `node` is a rumor originator.
    #[inline]
    #[must_use]
    pub fn is_rumor_seed(&self, node: NodeId) -> bool {
        self.rumor_seeds.contains(&node)
    }

    /// Rebuilds the instance with a different rumor seed set,
    /// reusing the already-frozen CSR snapshot (the graph does not
    /// change, so there is nothing to re-freeze).
    ///
    /// This is the re-seeding hook behind
    /// [`crate::engine::Solver::set_rumor_seeds`]; the engine bumps
    /// its cache epoch when it swaps instances.
    ///
    /// # Errors
    ///
    /// Same seed-validation errors as [`RumorBlockingInstance::new`].
    pub fn with_rumor_seeds(&self, rumor_seeds: Vec<NodeId>) -> Result<Self, LcrbError> {
        if rumor_seeds.is_empty() {
            return Err(LcrbError::NoRumorSeeds);
        }
        let seeds = SeedSets::rumors_only(&self.graph, rumor_seeds)?;
        let rumor_seeds = seeds.rumors().to_vec();
        for &s in &rumor_seeds {
            let c = self.partition.community_of(s);
            if c != self.rumor_community {
                return Err(LcrbError::SeedOutsideCommunity {
                    node: s,
                    actual_community: c,
                    rumor_community: self.rumor_community,
                });
            }
        }
        Ok(RumorBlockingInstance {
            graph: self.graph.clone(),
            snapshot: self.snapshot.clone(),
            partition: self.partition.clone(),
            rumor_community: self.rumor_community,
            rumor_seeds,
        })
    }

    /// Checks that every one of `nodes` is a node of the graph.
    ///
    /// # Errors
    ///
    /// Returns [`LcrbError::Seeds`] with [`SeedError::OutOfBounds`]
    /// for the first node that is not.
    pub(crate) fn check_in_bounds(&self, nodes: &[NodeId]) -> Result<(), LcrbError> {
        let node_count = self.snapshot.node_count();
        match nodes.iter().find(|v| v.index() >= node_count) {
            Some(&node) => Err(LcrbError::Seeds(SeedError::OutOfBounds {
                node,
                node_count,
            })),
            None => Ok(()),
        }
    }

    /// Builds the seed pair `(S_R, protectors)` for simulation.
    ///
    /// # Errors
    ///
    /// Returns [`LcrbError::Seeds`] if `protectors` is invalid (out
    /// of bounds or overlapping `S_R`).
    pub fn seed_sets(&self, protectors: Vec<NodeId>) -> Result<SeedSets, LcrbError> {
        Ok(SeedSets::new(
            &self.graph,
            // xtask-allow: hotreach -- one-time lazy seed-pair construction; the CELF loop refills the cached pair in place
            self.rumor_seeds.clone(),
            protectors,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn fixture() -> (DiGraph, Partition) {
        let g = DiGraph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]);
        (g, p)
    }

    #[test]
    fn valid_instance() {
        let (g, p) = fixture();
        let inst =
            RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0), NodeId::new(1)]).unwrap();
        assert_eq!(inst.rumor_community(), 0);
        assert_eq!(inst.rumor_seeds().len(), 2);
        assert!(inst.in_rumor_community(NodeId::new(2)));
        assert!(!inst.in_rumor_community(NodeId::new(3)));
        assert!(inst.is_rumor_seed(NodeId::new(1)));
        assert!(!inst.is_rumor_seed(NodeId::new(2)));
        assert_eq!(inst.rumor_community_members().len(), 3);
    }

    #[test]
    fn rejects_seed_outside_community() {
        let (g, p) = fixture();
        let err = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(4)]).unwrap_err();
        assert!(matches!(
            err,
            LcrbError::SeedOutsideCommunity {
                actual_community: 1,
                rumor_community: 0,
                ..
            }
        ));
    }

    #[test]
    fn rejects_unknown_community_and_empty_seeds() {
        let (g, p) = fixture();
        let err =
            RumorBlockingInstance::new(g.clone(), p.clone(), 5, vec![NodeId::new(0)]).unwrap_err();
        assert!(matches!(err, LcrbError::UnknownCommunity { .. }));
        let err = RumorBlockingInstance::new(g, p, 0, vec![]).unwrap_err();
        assert_eq!(err, LcrbError::NoRumorSeeds);
    }

    #[test]
    fn rejects_partition_mismatch() {
        let (g, _) = fixture();
        let p = Partition::from_labels(vec![0, 0, 1]);
        let err = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)]).unwrap_err();
        assert!(matches!(err, LcrbError::PartitionMismatch(_)));
    }

    #[test]
    fn random_seeds_land_in_community() {
        let (g, p) = fixture();
        let mut rng = SmallRng::seed_from_u64(1);
        let inst = RumorBlockingInstance::with_random_seeds(g, p, 1, 2, &mut rng).unwrap();
        assert_eq!(inst.rumor_seeds().len(), 2);
        for &s in inst.rumor_seeds() {
            assert!(inst.in_rumor_community(s));
        }
    }

    #[test]
    fn random_seeds_truncate_to_community_size() {
        let (g, p) = fixture();
        let mut rng = SmallRng::seed_from_u64(2);
        let inst = RumorBlockingInstance::with_random_seeds(g, p, 0, 100, &mut rng).unwrap();
        assert_eq!(inst.rumor_seeds().len(), 3);
    }

    #[test]
    fn seed_sets_reject_overlapping_protectors() {
        let (g, p) = fixture();
        let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)]).unwrap();
        assert!(inst.seed_sets(vec![NodeId::new(3)]).is_ok());
        assert!(matches!(
            inst.seed_sets(vec![NodeId::new(0)]).unwrap_err(),
            LcrbError::Seeds(_)
        ));
    }

    #[test]
    fn with_rumor_seeds_revalidates_and_keeps_structure() {
        let (g, p) = fixture();
        let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)]).unwrap();
        let reseeded = inst
            .with_rumor_seeds(vec![NodeId::new(1), NodeId::new(2)])
            .unwrap();
        assert_eq!(reseeded.rumor_seeds(), &[NodeId::new(1), NodeId::new(2)]);
        assert_eq!(reseeded.rumor_community(), inst.rumor_community());
        assert_eq!(reseeded.graph().node_count(), inst.graph().node_count());
        assert!(matches!(
            inst.with_rumor_seeds(vec![]).unwrap_err(),
            LcrbError::NoRumorSeeds
        ));
        assert!(matches!(
            inst.with_rumor_seeds(vec![NodeId::new(4)]).unwrap_err(),
            LcrbError::SeedOutsideCommunity { .. }
        ));
    }

    #[test]
    fn duplicate_seeds_are_collapsed() {
        let (g, p) = fixture();
        let inst =
            RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0), NodeId::new(0)]).unwrap();
        assert_eq!(inst.rumor_seeds(), &[NodeId::new(0)]);
    }
}
