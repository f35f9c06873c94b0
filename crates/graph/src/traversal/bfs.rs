//! Breadth-first search primitives over [`DiGraph`].
//!
//! The paper's algorithms are BFS-heavy: Rumor Forward Search Trees
//! (Algorithm 1/3 step 3), Bridge-end Backward Search Trees
//! (Algorithm 3 step 4), and the analytic DOAM oracle all reduce to
//! (multi-source, possibly depth-bounded, possibly filtered) BFS.
//! The solvers run those searches on a [`crate::CsrGraph`] snapshot
//! through [`super::CsrBfsScratch`]; the allocating functions here
//! serve one-off queries on a mutable graph and are the reference the
//! snapshot traversal is tested against.

// xtask-allow-file: index -- distance arrays are node_count-sized and queues only hold NodeIds of the traversed graph
use std::collections::VecDeque;

use crate::{DiGraph, NodeId};

/// Direction of traversal relative to edge orientation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Follow edges from source to target (out-neighbors).
    Forward,
    /// Follow edges from target to source (in-neighbors).
    Backward,
}

impl Direction {
    #[inline]
    fn neighbors(self, g: &DiGraph, v: NodeId) -> &[NodeId] {
        match self {
            Direction::Forward => g.out_neighbors(v),
            Direction::Backward => g.in_neighbors(v),
        }
    }
}

/// Hop distances from a set of sources to every node.
///
/// `distances[v] == None` means `v` is unreachable. Sources are at
/// distance 0; duplicated sources are tolerated.
///
/// # Panics
///
/// Panics if any source id is not in the graph.
///
/// # Examples
///
/// ```
/// use lcrb_graph::{DiGraph, NodeId};
/// use lcrb_graph::traversal::bfs_distances;
///
/// # fn main() -> Result<(), lcrb_graph::GraphError> {
/// let g = DiGraph::from_edges(4, [(0, 1), (1, 2)])?;
/// let d = bfs_distances(&g, &[NodeId::new(0)]);
/// assert_eq!(d[2], Some(2));
/// assert_eq!(d[3], None);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn bfs_distances(g: &DiGraph, sources: &[NodeId]) -> Vec<Option<u32>> {
    bfs_distances_where(g, sources, Direction::Forward, u32::MAX, |_| true)
}

/// Hop distances traversing edges backwards (along in-neighbors).
///
/// # Panics
///
/// Panics if any source id is not in the graph.
#[must_use]
pub fn reverse_bfs_distances(g: &DiGraph, sources: &[NodeId]) -> Vec<Option<u32>> {
    bfs_distances_where(g, sources, Direction::Backward, u32::MAX, |_| true)
}

/// The fully general multi-source BFS.
///
/// Explores in `direction`, never deeper than `max_depth`, and only
/// *expands* nodes for which `expand` returns `true` (nodes failing
/// the predicate still receive a distance when first reached — they
/// are frontier leaves — but their neighbors are not enqueued). This
/// is exactly the shape needed for the paper's Rumor Forward Search
/// Tree: expansion is confined to the rumor community while bridge
/// ends outside the community are still discovered as leaves.
///
/// # Panics
///
/// Panics if any source id is not in the graph.
#[must_use]
pub fn bfs_distances_where<F>(
    g: &DiGraph,
    sources: &[NodeId],
    direction: Direction,
    max_depth: u32,
    mut expand: F,
) -> Vec<Option<u32>>
where
    F: FnMut(NodeId) -> bool,
{
    let mut dist: Vec<Option<u32>> = vec![None; g.node_count()];
    let mut queue = VecDeque::new();
    for &s in sources {
        assert!(s.index() < g.node_count(), "bfs source {s} out of bounds");
        if dist[s.index()].is_none() {
            dist[s.index()] = Some(0);
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        // xtask-allow: panic -- BFS invariant: a distance is written before the node is enqueued
        let d = dist[v.index()].expect("queued node has a distance");
        if d >= max_depth || !expand(v) {
            continue;
        }
        for &w in direction.neighbors(g, v) {
            if dist[w.index()].is_none() {
                dist[w.index()] = Some(d + 1);
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Relaxes an existing distance array with a new source.
///
/// After the call, `dist[v]` is `min(old dist[v], hops from source)`.
/// Only improved nodes are re-explored, so repeatedly adding sources
/// costs much less than recomputing from scratch — this powers the
/// incremental coverage checks of the Table I heuristics.
///
/// # Panics
///
/// Panics if `source` is out of bounds or `dist.len() !=
/// g.node_count()`.
pub fn relax_with_source(g: &DiGraph, dist: &mut [Option<u32>], source: NodeId) {
    assert_eq!(dist.len(), g.node_count(), "distance array length mismatch");
    assert!(
        source.index() < g.node_count(),
        "bfs source {source} out of bounds"
    );
    let better = |cur: Option<u32>, cand: u32| cur.is_none_or(|c| cand < c);
    if !better(dist[source.index()], 0) {
        return;
    }
    dist[source.index()] = Some(0);
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        // xtask-allow: panic -- BFS invariant: a distance is written before the node is enqueued
        let d = dist[v.index()].expect("queued node has a distance");
        for &w in g.out_neighbors(v) {
            if better(dist[w.index()], d + 1) {
                dist[w.index()] = Some(d + 1);
                queue.push_back(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn line(n: usize) -> DiGraph {
        DiGraph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn single_source_line_distances() {
        let g = line(5);
        let d = bfs_distances(&g, &[NodeId::new(0)]);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn unreachable_nodes_are_none() {
        let g = line(3);
        let d = bfs_distances(&g, &[NodeId::new(2)]);
        assert_eq!(d, vec![None, None, Some(0)]);
    }

    #[test]
    fn multi_source_takes_minimum() {
        let g = line(6);
        let d = bfs_distances(&g, &[NodeId::new(0), NodeId::new(4)]);
        assert_eq!(d[3], Some(3));
        assert_eq!(d[5], Some(1));
    }

    #[test]
    fn duplicate_sources_are_tolerated() {
        let g = line(3);
        let d = bfs_distances(&g, &[NodeId::new(0), NodeId::new(0)]);
        assert_eq!(d[2], Some(2));
    }

    #[test]
    fn reverse_bfs_follows_in_edges() {
        let g = line(4);
        let d = reverse_bfs_distances(&g, &[NodeId::new(3)]);
        assert_eq!(d, vec![Some(3), Some(2), Some(1), Some(0)]);
    }

    #[test]
    fn max_depth_truncates() {
        let g = line(6);
        let d = bfs_distances_where(&g, &[NodeId::new(0)], Direction::Forward, 2, |_| true);
        assert_eq!(d[2], Some(2));
        assert_eq!(d[3], None);
    }

    #[test]
    fn expansion_filter_creates_leaves() {
        // 0 -> 1 -> 2; forbid expanding 1: node 1 gets a distance but
        // node 2 stays unreached. This is the RFST shape.
        let g = line(3);
        let d = bfs_distances_where(&g, &[NodeId::new(0)], Direction::Forward, u32::MAX, |v| {
            v != NodeId::new(1)
        });
        assert_eq!(d, vec![Some(0), Some(1), None]);
    }

    #[test]
    fn relax_with_source_matches_fresh_bfs() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = generators::gnm_directed(60, 180, &mut rng).unwrap();
        let mut dist = bfs_distances(&g, &[NodeId::new(0)]);
        relax_with_source(&g, &mut dist, NodeId::new(17));
        relax_with_source(&g, &mut dist, NodeId::new(33));
        let fresh = bfs_distances(&g, &[NodeId::new(0), NodeId::new(17), NodeId::new(33)]);
        assert_eq!(dist, fresh);
    }

    #[test]
    fn relax_with_worse_source_is_noop() {
        let g = line(3);
        let mut dist = bfs_distances(&g, &[NodeId::new(0)]);
        let before = dist.clone();
        relax_with_source(&g, &mut dist, NodeId::new(0));
        assert_eq!(dist, before);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bfs_panics_on_bad_source() {
        let g = line(2);
        let _ = bfs_distances(&g, &[NodeId::new(9)]);
    }
}
