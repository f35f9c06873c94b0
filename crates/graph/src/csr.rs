//! Immutable compressed-sparse-row snapshot of a directed graph.

// xtask-allow-file: index -- offset arrays hold node_count+1 entries by construction; the invariants are enforced by CsrGraph::validate in debug builds
use crate::{DiGraph, GraphError, NodeId};

/// A frozen, cache-friendly snapshot of a [`DiGraph`] in compressed
/// sparse row form, with both out- and in-adjacency.
///
/// Monte-Carlo diffusion spends nearly all of its time scanning
/// neighbor lists; `CsrGraph` packs every adjacency list into two flat
/// arrays so those scans touch contiguous memory, and keeps dense
/// degree arrays so per-node degree lookups never touch the offset
/// arrays twice. The snapshot is read-only: mutate the source
/// [`DiGraph`] and re-freeze if the network changes.
///
/// This is the substrate of the simulation engine: build the snapshot
/// once per problem instance (`CsrGraph::from(&digraph)`), then run
/// thousands of simulations against it with reusable workspaces.
///
/// # Examples
///
/// ```
/// use lcrb_graph::{CsrGraph, DiGraph, NodeId};
///
/// # fn main() -> Result<(), lcrb_graph::GraphError> {
/// let g = DiGraph::from_edges(3, [(0, 1), (0, 2), (1, 2)])?;
/// let csr = CsrGraph::from(&g);
/// assert_eq!(csr.out_neighbors(NodeId::new(0)).len(), 2);
/// assert_eq!(csr.in_neighbors(NodeId::new(2)).len(), 2);
/// assert_eq!(csr.out_degrees(), &[2, 1, 0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CsrGraph {
    out_offsets: Vec<u32>,
    out_targets: Vec<NodeId>,
    in_offsets: Vec<u32>,
    in_sources: Vec<NodeId>,
    out_degrees: Vec<u32>,
    in_degrees: Vec<u32>,
}

impl CsrGraph {
    /// Number of nodes.
    #[inline]
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-neighbors of `node` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the graph.
    #[inline]
    #[must_use]
    pub fn out_neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        let lo = self.out_offsets[i] as usize;
        let hi = self.out_offsets[i + 1] as usize;
        &self.out_targets[lo..hi]
    }

    /// In-neighbors of `node` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the graph.
    #[inline]
    #[must_use]
    pub fn in_neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        let lo = self.in_offsets[i] as usize;
        let hi = self.in_offsets[i + 1] as usize;
        &self.in_sources[lo..hi]
    }

    /// Out-degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the graph.
    #[inline]
    #[must_use]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_degrees[node.index()] as usize
    }

    /// In-degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the graph.
    #[inline]
    #[must_use]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_degrees[node.index()] as usize
    }

    /// Dense out-degree array indexed by node id.
    #[inline]
    #[must_use]
    pub fn out_degrees(&self) -> &[u32] {
        &self.out_degrees
    }

    /// Dense in-degree array indexed by node id.
    #[inline]
    #[must_use]
    pub fn in_degrees(&self) -> &[u32] {
        &self.in_degrees
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId::from_raw)
    }

    /// Builds a snapshot directly from raw CSR arrays, validating the
    /// structural invariants before accepting them. The degree arrays
    /// are derived from the offsets. This is the checked entry point
    /// for deserialized or externally constructed snapshots; freezing
    /// a [`DiGraph`] with `CsrGraph::from` remains the usual route.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidCsr`] if the arrays violate any
    /// invariant checked by [`CsrGraph::validate`].
    pub fn from_parts(
        out_offsets: Vec<u32>,
        out_targets: Vec<NodeId>,
        in_offsets: Vec<u32>,
        in_sources: Vec<NodeId>,
    ) -> Result<Self, GraphError> {
        let degrees = |offsets: &[u32]| {
            offsets
                .windows(2)
                .map(|w| w[1].saturating_sub(w[0]))
                .collect::<Vec<u32>>()
        };
        let csr = CsrGraph {
            out_degrees: degrees(&out_offsets),
            in_degrees: degrees(&in_offsets),
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        };
        csr.validate()?;
        Ok(csr)
    }

    /// Checks every structural invariant of the snapshot:
    ///
    /// - both offset arrays have `node_count + 1` entries, start at
    ///   `0`, end at the length of their adjacency array, and are
    ///   monotonically non-decreasing;
    /// - the out- and in-adjacency arrays describe the same number of
    ///   edges;
    /// - every stored target/source id is in bounds;
    /// - the dense degree arrays agree with the offset deltas.
    ///
    /// Freezing a valid [`DiGraph`] always produces a snapshot that
    /// passes (asserted in debug builds); this is the backstop for
    /// [`CsrGraph::from_parts`] and for the unchecked slice indexing
    /// the simulation kernels perform against these arrays.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidCsr`] naming the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), GraphError> {
        let invalid = |detail: String| GraphError::InvalidCsr { detail };
        let check_side = |offsets: &[u32],
                          adjacency: &[NodeId],
                          degrees: &[u32],
                          side: &str|
         -> Result<usize, GraphError> {
            let n = match offsets.len().checked_sub(1) {
                Some(n) => n,
                None => return Err(invalid(format!("{side} offsets array is empty"))),
            };
            if offsets[0] != 0 {
                return Err(invalid(format!(
                    "{side} offsets must start at 0, found {}",
                    offsets[0]
                )));
            }
            if offsets[n] as usize != adjacency.len() {
                return Err(invalid(format!(
                    "last {side} offset {} does not match adjacency length {}",
                    offsets[n],
                    adjacency.len()
                )));
            }
            for (i, w) in offsets.windows(2).enumerate() {
                if w[1] < w[0] {
                    return Err(invalid(format!(
                        "{side} offsets decrease at node {i}: {} -> {}",
                        w[0], w[1]
                    )));
                }
            }
            if degrees.len() != n {
                return Err(invalid(format!(
                    "{side} degree array has {} entries for {n} nodes",
                    degrees.len()
                )));
            }
            for (i, w) in offsets.windows(2).enumerate() {
                if degrees[i] != w[1] - w[0] {
                    return Err(invalid(format!(
                        "{side} degree of node {i} is {} but offsets span {}",
                        degrees[i],
                        w[1] - w[0]
                    )));
                }
            }
            for (pos, &v) in adjacency.iter().enumerate() {
                if v.index() >= n {
                    return Err(invalid(format!(
                        "{side} adjacency entry {pos} references node {v} of {n}"
                    )));
                }
            }
            Ok(n)
        };
        let n_out = check_side(
            &self.out_offsets,
            &self.out_targets,
            &self.out_degrees,
            "out",
        )?;
        let n_in = check_side(&self.in_offsets, &self.in_sources, &self.in_degrees, "in")?;
        if n_out != n_in {
            return Err(invalid(format!(
                "out side has {n_out} nodes but in side has {n_in}"
            )));
        }
        if self.out_targets.len() != self.in_sources.len() {
            return Err(invalid(format!(
                "out side stores {} edges but in side stores {}",
                self.out_targets.len(),
                self.in_sources.len()
            )));
        }
        Ok(())
    }
}

impl From<&DiGraph> for CsrGraph {
    fn from(g: &DiGraph) -> Self {
        let n = g.node_count();
        let m = g.edge_count();
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_targets = Vec::with_capacity(m);
        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut in_sources = Vec::with_capacity(m);
        let mut out_degrees = Vec::with_capacity(n);
        let mut in_degrees = Vec::with_capacity(n);
        out_offsets.push(0);
        in_offsets.push(0);
        for v in g.nodes() {
            out_targets.extend_from_slice(g.out_neighbors(v));
            out_offsets.push(out_targets.len() as u32);
            out_degrees.push(g.out_degree(v) as u32);
            in_sources.extend_from_slice(g.in_neighbors(v));
            in_offsets.push(in_sources.len() as u32);
            in_degrees.push(g.in_degree(v) as u32);
        }
        let csr = CsrGraph {
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            out_degrees,
            in_degrees,
        };
        debug_assert!(
            csr.validate().is_ok(),
            "freezing a valid DiGraph must produce a valid snapshot: {:?}",
            csr.validate()
        );
        csr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_matches_source_graph() {
        let g = DiGraph::from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 0)]).unwrap();
        let csr = CsrGraph::from(&g);
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        for v in g.nodes() {
            assert_eq!(csr.out_neighbors(v), g.out_neighbors(v));
            assert_eq!(csr.in_neighbors(v), g.in_neighbors(v));
            assert_eq!(csr.out_degree(v), g.out_degree(v));
            assert_eq!(csr.in_degree(v), g.in_degree(v));
        }
    }

    #[test]
    fn degree_arrays_match_slice_lengths() {
        let g = DiGraph::from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 0), (3, 0)]).unwrap();
        let csr = CsrGraph::from(&g);
        for v in g.nodes() {
            assert_eq!(
                csr.out_degrees()[v.index()] as usize,
                csr.out_neighbors(v).len()
            );
            assert_eq!(
                csr.in_degrees()[v.index()] as usize,
                csr.in_neighbors(v).len()
            );
        }
    }

    #[test]
    fn empty_graph_snapshot() {
        let g = DiGraph::new();
        let csr = CsrGraph::from(&g);
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert_eq!(csr.nodes().count(), 0);
        assert!(csr.out_degrees().is_empty());
    }

    #[test]
    fn frozen_snapshots_validate() {
        let g = DiGraph::from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 0)]).unwrap();
        assert_eq!(CsrGraph::from(&g).validate(), Ok(()));
        assert_eq!(CsrGraph::from(&DiGraph::new()).validate(), Ok(()));
    }

    #[test]
    fn from_parts_roundtrips_a_valid_snapshot() {
        let g = DiGraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let reference = CsrGraph::from(&g);
        let rebuilt = CsrGraph::from_parts(
            reference.out_offsets.clone(),
            reference.out_targets.clone(),
            reference.in_offsets.clone(),
            reference.in_sources.clone(),
        )
        .unwrap();
        for v in g.nodes() {
            assert_eq!(rebuilt.out_neighbors(v), reference.out_neighbors(v));
            assert_eq!(rebuilt.in_neighbors(v), reference.in_neighbors(v));
            assert_eq!(rebuilt.out_degree(v), reference.out_degree(v));
            assert_eq!(rebuilt.in_degree(v), reference.in_degree(v));
        }
    }

    #[test]
    fn from_parts_rejects_corrupted_arrays() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let good = CsrGraph::from(&g);
        let cases: Vec<(&str, CsrGraph)> = vec![
            ("decreasing offsets", {
                let mut c = good.clone();
                c.out_offsets[1] = 2;
                c.out_offsets[2] = 1;
                c
            }),
            ("short final offset", {
                let mut c = good.clone();
                let last = c.out_offsets.len() - 1;
                c.out_offsets[last] = 1;
                c
            }),
            ("out-of-bounds target", {
                let mut c = good.clone();
                c.out_targets[0] = NodeId::new(99);
                c
            }),
            ("edge-count mismatch", {
                let mut c = good.clone();
                c.in_sources.pop();
                let last = c.in_offsets.len() - 1;
                c.in_offsets[last] -= 1;
                c.in_degrees[2] -= 1;
                c
            }),
            ("stale degree array", {
                let mut c = good.clone();
                c.out_degrees[0] = 7;
                c
            }),
            ("empty offsets", {
                let mut c = good.clone();
                c.in_offsets.clear();
                c
            }),
        ];
        for (label, corrupted) in cases {
            assert!(
                matches!(corrupted.validate(), Err(GraphError::InvalidCsr { .. })),
                "{label} should fail validation"
            );
        }
        // And the public checked constructor surfaces the same error.
        let err = CsrGraph::from_parts(
            vec![0, 2, 1],
            vec![NodeId::new(0), NodeId::new(1)],
            vec![0, 0, 0],
            vec![],
        )
        .unwrap_err();
        assert!(err.to_string().contains("invalid csr snapshot"));
    }

    #[test]
    fn isolated_nodes_have_empty_slices() {
        let g = DiGraph::with_nodes(3);
        let csr = CsrGraph::from(&g);
        for v in csr.nodes().collect::<Vec<_>>() {
            assert!(csr.out_neighbors(v).is_empty());
            assert!(csr.in_neighbors(v).is_empty());
        }
    }
}
