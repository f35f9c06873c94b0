//! Seed-set handling for the two competing cascades, plus the RNG
//! stream-derivation primitive every seeded estimator shares.

// xtask-allow-file: index -- membership bitmaps are node_count-sized and built during the validation that admits each seed
use core::fmt;

use lcrb_graph::{DiGraph, NodeId};

/// SplitMix64 finalizer — the avalanche step behind
/// [`derive_stream`].
///
/// # Examples
///
/// ```
/// use lcrb_diffusion::splitmix64;
///
/// assert_ne!(splitmix64(1), splitmix64(2));
/// assert_eq!(splitmix64(7), splitmix64(7)); // pure function of the input
/// ```
#[inline]
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives a per-request RNG stream seed from a master seed and a
/// request-content key.
///
/// This is the determinism-under-concurrency primitive: a stream is a
/// pure function of *what* is being sampled (master seed + content
/// key), never of which worker thread runs the request or in what
/// order requests arrive. Two requests with the same content key get
/// the same stream on any schedule; distinct keys get decorrelated
/// streams via a double [`splitmix64`] mix.
///
/// # Examples
///
/// ```
/// use lcrb_diffusion::derive_stream;
///
/// let master = 9;
/// // Same (master, key) → same stream, regardless of call order.
/// assert_eq!(derive_stream(master, 42), derive_stream(master, 42));
/// // Different keys → different streams.
/// assert_ne!(derive_stream(master, 42), derive_stream(master, 43));
/// ```
#[inline]
#[must_use]
pub fn derive_stream(master: u64, key: u64) -> u64 {
    splitmix64(master ^ splitmix64(key))
}

/// Errors produced when validating seed sets.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SeedError {
    /// A seed id referred to a node outside the graph.
    OutOfBounds {
        /// The offending node.
        node: NodeId,
        /// Node count of the graph.
        node_count: usize,
    },
    /// A node appeared in both the rumor and protector seed sets;
    /// the paper requires the initial sets to be disjoint (§III).
    Overlap {
        /// The node present in both sets.
        node: NodeId,
    },
    /// A lane-packed run was given more protector sets than a `u64`
    /// mask has lanes ([`crate::OPOAO_LANES`]).
    TooManyLanes {
        /// How many protector sets were supplied.
        sets: usize,
    },
}

impl fmt::Display for SeedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeedError::OutOfBounds { node, node_count } => write!(
                f,
                "seed {node} is out of bounds for a graph with {node_count} nodes"
            ),
            SeedError::Overlap { node } => {
                write!(f, "node {node} appears in both seed sets")
            }
            SeedError::TooManyLanes { sets } => write!(
                f,
                "{sets} protector sets exceed the {} lanes of one packed run",
                crate::OPOAO_LANES
            ),
        }
    }
}

impl std::error::Error for SeedError {}

/// The two disjoint initial sets of §III: rumor originators `S_R`
/// and protector originators `S_P`.
///
/// Construction validates that every seed is a node of the target
/// graph, deduplicates within each set (preserving first-appearance
/// order), and rejects overlap between the sets.
///
/// # Examples
///
/// ```
/// use lcrb_diffusion::SeedSets;
/// use lcrb_graph::{DiGraph, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let seeds = SeedSets::new(&g, vec![NodeId::new(0)], vec![NodeId::new(2)])?;
/// assert_eq!(seeds.rumors(), &[NodeId::new(0)]);
/// assert_eq!(seeds.protectors(), &[NodeId::new(2)]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeedSets {
    rumors: Vec<NodeId>,
    protectors: Vec<NodeId>,
}

fn dedup_in_order(nodes: Vec<NodeId>, node_count: usize) -> Result<Vec<NodeId>, SeedError> {
    // xtask-allow: hotreach -- validation-boundary allocation, runs once per seed-set construction, not per query
    let mut seen = vec![false; node_count];
    // xtask-allow: hotreach -- validation-boundary allocation, runs once per seed-set construction, not per query
    let mut out = Vec::with_capacity(nodes.len());
    for v in nodes {
        if v.index() >= node_count {
            return Err(SeedError::OutOfBounds {
                node: v,
                node_count,
            });
        }
        if !seen[v.index()] {
            seen[v.index()] = true;
            out.push(v);
        }
    }
    Ok(out)
}

impl SeedSets {
    /// Validates and builds a seed-set pair for `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`SeedError::OutOfBounds`] for unknown nodes and
    /// [`SeedError::Overlap`] if the two sets intersect.
    // xtask-allow: hotreach -- one-time seed validation reads only the node count; the kernels run on the CSR snapshot
    pub fn new(
        graph: &DiGraph,
        rumors: Vec<NodeId>,
        protectors: Vec<NodeId>,
    ) -> Result<Self, SeedError> {
        let n = graph.node_count();
        let rumors = dedup_in_order(rumors, n)?;
        let protectors = dedup_in_order(protectors, n)?;
        // xtask-allow: hotreach -- one-time overlap check at seed-set construction; per-query refills use set_protectors
        let mut is_rumor = vec![false; n];
        for &r in &rumors {
            is_rumor[r.index()] = true;
        }
        if let Some(&p) = protectors.iter().find(|p| is_rumor[p.index()]) {
            return Err(SeedError::Overlap { node: p });
        }
        Ok(SeedSets { rumors, protectors })
    }

    /// A seed set with rumors only (the paper's "NoBlocking"
    /// baseline).
    ///
    /// # Errors
    ///
    /// Returns [`SeedError::OutOfBounds`] for unknown nodes.
    pub fn rumors_only(graph: &DiGraph, rumors: Vec<NodeId>) -> Result<Self, SeedError> {
        SeedSets::new(graph, rumors, Vec::new())
    }

    /// Rebuilds this seed pair with a different protector set,
    /// keeping the rumors.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SeedSets::new`].
    pub fn with_protectors(
        &self,
        graph: &DiGraph,
        protectors: Vec<NodeId>,
    ) -> Result<Self, SeedError> {
        SeedSets::new(graph, self.rumors.clone(), protectors)
    }

    /// Replaces the protector set in place, reusing the existing
    /// allocation — the hot-path counterpart of
    /// [`SeedSets::with_protectors`] for per-query `σ̂` evaluation
    /// loops that must not allocate at steady state.
    ///
    /// Validation matches [`SeedSets::new`]: bounds first (checked in
    /// order while deduplicating, quadratically — protector sets are
    /// small), then overlap against the kept rumors. On error the
    /// protector set is left empty, which is always a valid state.
    ///
    /// # Errors
    ///
    /// Returns [`SeedError::OutOfBounds`] for unknown nodes and
    /// [`SeedError::Overlap`] if a protector is also a rumor seed.
    pub fn set_protectors(
        &mut self,
        node_count: usize,
        protectors: &[NodeId],
    ) -> Result<(), SeedError> {
        self.protectors.clear();
        for &v in protectors {
            if v.index() >= node_count {
                self.protectors.clear();
                return Err(SeedError::OutOfBounds {
                    node: v,
                    node_count,
                });
            }
            if !self.protectors.contains(&v) {
                self.protectors.push(v);
            }
        }
        if let Some(&p) = self.protectors.iter().find(|p| self.rumors.contains(*p)) {
            self.protectors.clear();
            return Err(SeedError::Overlap { node: p });
        }
        Ok(())
    }

    /// The rumor originators `S_R`, deduplicated.
    #[inline]
    #[must_use]
    pub fn rumors(&self) -> &[NodeId] {
        &self.rumors
    }

    /// The protector originators `S_P`, deduplicated.
    #[inline]
    #[must_use]
    pub fn protectors(&self) -> &[NodeId] {
        &self.protectors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> DiGraph {
        DiGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn valid_seed_sets() {
        let g = graph();
        let s = SeedSets::new(&g, vec![NodeId::new(0)], vec![NodeId::new(3)]).unwrap();
        assert_eq!(s.rumors().len(), 1);
        assert_eq!(s.protectors().len(), 1);
    }

    #[test]
    fn duplicates_within_a_set_are_collapsed() {
        let g = graph();
        let s = SeedSets::new(
            &g,
            vec![NodeId::new(0), NodeId::new(0), NodeId::new(1)],
            vec![],
        )
        .unwrap();
        assert_eq!(s.rumors(), &[NodeId::new(0), NodeId::new(1)]);
    }

    #[test]
    fn overlap_is_rejected() {
        let g = graph();
        let err = SeedSets::new(&g, vec![NodeId::new(1)], vec![NodeId::new(1)]).unwrap_err();
        assert_eq!(
            err,
            SeedError::Overlap {
                node: NodeId::new(1)
            }
        );
        assert!(err.to_string().contains("both seed sets"));
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let g = graph();
        let err = SeedSets::new(&g, vec![NodeId::new(9)], vec![]).unwrap_err();
        assert!(matches!(err, SeedError::OutOfBounds { .. }));
    }

    #[test]
    fn with_protectors_replaces_only_protectors() {
        let g = graph();
        let s = SeedSets::rumors_only(&g, vec![NodeId::new(0)]).unwrap();
        assert!(s.protectors().is_empty());
        let s2 = s.with_protectors(&g, vec![NodeId::new(4)]).unwrap();
        assert_eq!(s2.rumors(), s.rumors());
        assert_eq!(s2.protectors(), &[NodeId::new(4)]);
        // Replacing with an overlapping set fails.
        assert!(s.with_protectors(&g, vec![NodeId::new(0)]).is_err());
    }

    #[test]
    fn set_protectors_matches_with_protectors() {
        let g = graph();
        let s = SeedSets::rumors_only(&g, vec![NodeId::new(0)]).unwrap();
        let mut reused = s.clone();
        for set in [
            vec![NodeId::new(4)],
            vec![NodeId::new(3), NodeId::new(3), NodeId::new(2)],
            vec![],
        ] {
            reused.set_protectors(g.node_count(), &set).unwrap();
            let fresh = s.with_protectors(&g, set).unwrap();
            assert_eq!(reused, fresh);
        }
        // Errors mirror the constructor and leave the set empty.
        assert_eq!(
            reused
                .set_protectors(g.node_count(), &[NodeId::new(9)])
                .unwrap_err(),
            SeedError::OutOfBounds {
                node: NodeId::new(9),
                node_count: g.node_count()
            }
        );
        assert!(reused.protectors().is_empty());
        assert_eq!(
            reused
                .set_protectors(g.node_count(), &[NodeId::new(0)])
                .unwrap_err(),
            SeedError::Overlap {
                node: NodeId::new(0)
            }
        );
        assert!(reused.protectors().is_empty());
        // Bounds take precedence over overlap, like `new`.
        assert!(matches!(
            reused
                .set_protectors(g.node_count(), &[NodeId::new(0), NodeId::new(9)])
                .unwrap_err(),
            SeedError::OutOfBounds { .. }
        ));
    }

    #[test]
    fn empty_seed_sets_are_allowed() {
        let g = graph();
        let s = SeedSets::new(&g, vec![], vec![]).unwrap();
        assert!(s.rumors().is_empty());
        assert!(s.protectors().is_empty());
    }
}
