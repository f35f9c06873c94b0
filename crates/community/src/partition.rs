//! The community partition type (Definition 1 of the paper: a set of
//! disjoint communities covering the node set).

// xtask-allow-file: index -- community ids are assigned densely by this type's own constructors, so they index its own vectors
use core::fmt;

use lcrb_graph::NodeId;

/// Error produced when constructing a [`Partition`] against a graph
/// of a different size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSizeError {
    /// Number of labels supplied.
    pub labels: usize,
    /// Number of nodes expected.
    pub nodes: usize,
}

impl fmt::Display for PartitionSizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "partition has {} labels but the graph has {} nodes",
            self.labels, self.nodes
        )
    }
}

impl std::error::Error for PartitionSizeError {}

/// A disjoint partition of the node set into communities, i.e. the
/// `C = {C_1, ..., C_k}` of the paper's Definition 1.
///
/// Labels are always dense: exactly the values `0..community_count()`
/// are used. Constructors normalize arbitrary input labels into that
/// form (in first-appearance order).
///
/// # Examples
///
/// ```
/// use lcrb_community::Partition;
/// use lcrb_graph::NodeId;
///
/// let p = Partition::from_labels(vec![7, 7, 3, 7]);
/// assert_eq!(p.community_count(), 2);
/// assert_eq!(p.community_of(NodeId::new(0)), p.community_of(NodeId::new(3)));
/// assert_ne!(p.community_of(NodeId::new(0)), p.community_of(NodeId::new(2)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    labels: Vec<usize>,
    count: usize,
}

impl Partition {
    /// Builds a partition from arbitrary per-node labels, normalizing
    /// them to dense ids in first-appearance order.
    #[must_use]
    pub fn from_labels(raw: Vec<usize>) -> Self {
        let mut remap = std::collections::HashMap::new();
        let mut labels = Vec::with_capacity(raw.len());
        for r in raw {
            let next = remap.len();
            let id = *remap.entry(r).or_insert(next);
            labels.push(id);
        }
        Partition {
            count: remap.len(),
            labels,
        }
    }

    /// The partition that puts every node in its own community.
    #[must_use]
    pub fn singletons(n: usize) -> Self {
        Partition {
            labels: (0..n).collect(),
            count: n,
        }
    }

    /// The partition with a single community containing all `n`
    /// nodes (no communities at all when `n == 0`).
    #[must_use]
    pub fn one_community(n: usize) -> Self {
        Partition {
            labels: vec![0; n],
            count: usize::from(n > 0),
        }
    }

    /// Number of nodes covered by this partition.
    #[inline]
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the partition covers no nodes.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of communities.
    #[inline]
    #[must_use]
    pub fn community_count(&self) -> usize {
        self.count
    }

    /// The community id of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for this partition.
    #[inline]
    #[must_use]
    pub fn community_of(&self, node: NodeId) -> usize {
        self.labels[node.index()]
    }

    /// The dense label array, one entry per node.
    #[inline]
    #[must_use]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Size of each community, indexed by community id.
    #[must_use]
    pub fn community_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &l in &self.labels {
            sizes[l] += 1;
        }
        sizes
    }

    /// Members of the community with id `community`, in increasing
    /// node-id order.
    ///
    /// # Panics
    ///
    /// Panics if `community >= community_count()`.
    #[must_use]
    pub fn members(&self, community: usize) -> Vec<NodeId> {
        assert!(
            community < self.count,
            "community {community} out of range ({} communities)",
            self.count
        );
        self.labels
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l == community)
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }

    /// Id of the community whose size is closest to `target`, or
    /// `None` for an empty partition. Ties go to the smaller
    /// community, then to the lower id.
    ///
    /// Used by the `misinformation_campaign` example and
    /// `tests/end_to_end.rs` to pick a rumor community of a given size
    /// from a detected partition.
    #[must_use]
    pub fn community_closest_to_size(&self, target: usize) -> Option<usize> {
        self.community_sizes()
            .iter()
            .enumerate()
            .min_by_key(|&(_, &s)| (s.abs_diff(target), s))
            .map(|(c, _)| c)
    }

    /// Checks the partition matches a graph with `nodes` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionSizeError`] on mismatch.
    pub fn check_node_count(&self, nodes: usize) -> Result<(), PartitionSizeError> {
        if self.labels.len() == nodes {
            Ok(())
        } else {
            Err(PartitionSizeError {
                labels: self.labels.len(),
                nodes,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_labels_normalizes_densely() {
        let p = Partition::from_labels(vec![9, 2, 9, 5, 2]);
        assert_eq!(p.labels(), &[0, 1, 0, 2, 1]);
        assert_eq!(p.community_count(), 3);
    }

    #[test]
    fn singletons_and_one_community() {
        let s = Partition::singletons(4);
        assert_eq!(s.community_count(), 4);
        assert_eq!(s.community_sizes(), vec![1, 1, 1, 1]);
        let o = Partition::one_community(4);
        assert_eq!(o.community_count(), 1);
        assert_eq!(o.community_sizes(), vec![4]);
        assert_eq!(Partition::one_community(0).community_count(), 0);
    }

    #[test]
    fn members_and_communities_agree() {
        let p = Partition::from_labels(vec![0, 1, 0, 1, 2]);
        let mut listed = vec![0usize; p.node_count()];
        for c in 0..p.community_count() {
            for v in p.members(c) {
                assert_eq!(p.community_of(v), c);
                listed[v.index()] += 1;
            }
        }
        assert_eq!(listed, vec![1; 5]);
        assert_eq!(p.members(0), vec![NodeId::new(0), NodeId::new(2)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn members_rejects_bad_community() {
        let p = Partition::from_labels(vec![0, 0]);
        let _ = p.members(1);
    }

    #[test]
    fn closest_to_size_picks_best_match() {
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 2]);
        // sizes: [3, 2, 1]
        assert_eq!(p.community_closest_to_size(3), Some(0));
        assert_eq!(p.community_closest_to_size(1), Some(2));
        assert_eq!(p.community_closest_to_size(100), Some(0));
        // sizes [5, 3], target 4: both are 1 away; the smaller wins.
        let tie = Partition::from_labels(vec![0, 0, 0, 0, 0, 1, 1, 1]);
        assert_eq!(tie.community_closest_to_size(4), Some(1));
        // Equal sizes and distances: the lower id wins.
        let even = Partition::from_labels(vec![0, 0, 1, 1]);
        assert_eq!(even.community_closest_to_size(1), Some(0));
        assert_eq!(
            Partition::from_labels(vec![]).community_closest_to_size(1),
            None
        );
    }

    #[test]
    fn check_node_count_errors_on_mismatch() {
        let p = Partition::singletons(3);
        assert!(p.check_node_count(3).is_ok());
        let err = p.check_node_count(5).unwrap_err();
        assert_eq!(err.labels, 3);
        assert_eq!(err.nodes, 5);
        assert!(err.to_string().contains("3 labels"));
    }

    #[test]
    fn empty_partition() {
        let p = Partition::from_labels(vec![]);
        assert!(p.is_empty());
        assert_eq!(p.node_count(), 0);
        assert_eq!(p.community_count(), 0);
        assert!(p.community_sizes().is_empty());
    }
}
