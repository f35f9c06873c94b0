//! Bridge-end detection via Rumor Forward Search Trees (RFST).
//!
//! Bridge ends (§I, §IV) are the boundary individuals of the
//! R-neighbor communities: nodes outside the rumor community with a
//! direct in-neighbor inside it, reachable by the rumor cascade.
//! Both algorithms of the paper start by finding them with BFS from
//! the rumor originators (step 3 of Algorithms 1 and 3); the bridge
//! ends are the leaves of the resulting forward search trees. σ and
//! the set cover read only that leaf set, so the search runs on the
//! instance's CSR snapshot and keeps nothing of the tree itself.

use lcrb_graph::traversal::{CsrBfsScratch, Direction};
use lcrb_graph::NodeId;

use crate::RumorBlockingInstance;

/// Which reading of "reachable from the rumors" to use when hunting
/// bridge ends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BridgeEndRule {
    /// Rumor paths may only pass through the rumor community; bridge
    /// ends are the first nodes met outside it. This matches the
    /// paper's RFST construction (the searches in Fig. 2/3 stop at
    /// the community boundary) and is the default.
    #[default]
    WithinCommunity,
    /// Rumor paths may wander anywhere; a bridge end is any reachable
    /// node outside the rumor community with a direct in-neighbor
    /// inside it (the literal Definition 2 reading).
    AnyPath,
}

/// The set of bridge ends of an instance: the outside leaves of the
/// rumor-forward search tree rooted at `S_R`.
#[derive(Clone, Debug)]
pub struct BridgeEnds {
    /// The bridge ends, sorted by node id.
    pub nodes: Vec<NodeId>,
    /// The rule used to find them.
    pub rule: BridgeEndRule,
}

impl BridgeEnds {
    /// Number of bridge ends (the `|B|` of the paper's experiment
    /// tables).
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the rumor community has no escape routes.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// `true` if `node` is a bridge end.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.binary_search(&node).is_ok()
    }
}

/// Finds all bridge ends of `instance` under `rule` by BFS from the
/// rumor originators (the RFST construction of Algorithms 1 and 3).
///
/// # Examples
///
/// ```
/// use lcrb::{find_bridge_ends, BridgeEndRule, RumorBlockingInstance};
/// use lcrb_community::Partition;
/// use lcrb_graph::{DiGraph, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Rumor community {0, 1}; node 2 is the only way out.
/// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let p = Partition::from_labels(vec![0, 0, 1, 1]);
/// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
/// let bridges = find_bridge_ends(&inst, BridgeEndRule::WithinCommunity);
/// assert_eq!(bridges.nodes, vec![NodeId::new(2)]);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn find_bridge_ends(instance: &RumorBlockingInstance, rule: BridgeEndRule) -> BridgeEnds {
    let csr = instance.snapshot();
    let in_community = |v| instance.in_rumor_community(v);
    let any_path = rule == BridgeEndRule::AnyPath;
    let mut rfst = CsrBfsScratch::new();
    rfst.run_where(
        csr,
        instance.rumor_seeds(),
        Direction::Forward,
        u32::MAX,
        |v| any_path || in_community(v),
    );
    let is_bridge_end = |v| match rule {
        // Under the community-restricted search, every reached node
        // outside the community was discovered from inside: it is a
        // bridge end by construction.
        BridgeEndRule::WithinCommunity => !in_community(v),
        // Under the free search, check the in-neighbor condition of
        // Definition 2 explicitly.
        BridgeEndRule::AnyPath => {
            !in_community(v) && csr.in_neighbors(v).iter().any(|&u| in_community(u))
        }
    };
    let mut nodes: Vec<NodeId> = rfst
        .order()
        .iter()
        .copied()
        .filter(|&v| is_bridge_end(v))
        .collect();
    nodes.sort_unstable();
    BridgeEnds { nodes, rule }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrb_community::Partition;
    use lcrb_graph::DiGraph;

    /// Rumor community {0,1,2}, neighbor community {3,4,5}.
    /// 0 -> 1 -> 3, 2 -> 4 (2 unreachable from 0), 4 -> 5.
    fn fixture() -> RumorBlockingInstance {
        let g = DiGraph::from_edges(6, [(0, 1), (1, 3), (2, 4), (4, 5)]).unwrap();
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]);
        RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)]).unwrap()
    }

    #[test]
    fn only_reachable_boundary_nodes_are_bridge_ends() {
        let inst = fixture();
        let b = find_bridge_ends(&inst, BridgeEndRule::WithinCommunity);
        // Node 3 is reached via 0 -> 1 -> 3; node 4 is a boundary node
        // but its in-community neighbor (2) is not reachable.
        assert_eq!(b.nodes, vec![NodeId::new(3)]);
        assert!(b.contains(NodeId::new(3)));
        assert!(!b.contains(NodeId::new(4)));
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }

    #[test]
    fn within_community_stops_at_boundary() {
        // 0 (C0) -> 3 (C1) -> 4 (C1): 4 has no in-neighbor in C0, and
        // the restricted search must not expand through 3.
        let g = DiGraph::from_edges(5, [(0, 3), (3, 4), (4, 1)]).unwrap();
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1]);
        let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)]).unwrap();
        let b = find_bridge_ends(&inst, BridgeEndRule::WithinCommunity);
        assert_eq!(b.nodes, vec![NodeId::new(3)]);
    }

    #[test]
    fn any_path_finds_reentrant_bridge_ends() {
        // Rumor escapes through 3, re-enters nothing, but 4 has an
        // in-neighbor 2 in the rumor community and is reachable only
        // via the outside path 3 -> 4.
        let g = DiGraph::from_edges(5, [(0, 3), (3, 4), (2, 4)]).unwrap();
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1]);
        let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)]).unwrap();
        let restricted = find_bridge_ends(&inst, BridgeEndRule::WithinCommunity);
        assert_eq!(restricted.nodes, vec![NodeId::new(3)]);
        let free = find_bridge_ends(&inst, BridgeEndRule::AnyPath);
        assert_eq!(free.nodes, vec![NodeId::new(3), NodeId::new(4)]);
        assert_eq!(free.rule, BridgeEndRule::AnyPath);
    }

    #[test]
    fn no_escape_routes_gives_empty_set() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 0)]).unwrap();
        let p = Partition::from_labels(vec![0, 0, 1, 1]);
        let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)]).unwrap();
        let b = find_bridge_ends(&inst, BridgeEndRule::WithinCommunity);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn multiple_seeds_merge_their_trees() {
        let g = DiGraph::from_edges(6, [(0, 1), (1, 3), (2, 4), (4, 5)]).unwrap();
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]);
        let inst =
            RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0), NodeId::new(2)]).unwrap();
        let b = find_bridge_ends(&inst, BridgeEndRule::WithinCommunity);
        assert_eq!(b.nodes, vec![NodeId::new(3), NodeId::new(4)]);
    }

    #[test]
    fn bridge_ends_are_sorted() {
        let g = DiGraph::from_edges(6, [(0, 5), (0, 3), (0, 4)]).unwrap();
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]);
        let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)]).unwrap();
        let b = find_bridge_ends(&inst, BridgeEndRule::WithinCommunity);
        assert_eq!(
            b.nodes,
            vec![NodeId::new(3), NodeId::new(4), NodeId::new(5)]
        );
    }
}
