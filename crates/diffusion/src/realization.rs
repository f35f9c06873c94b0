//! Coupled random realizations of the OPOAO model.
//!
//! §V-A of the paper proves submodularity of the protector-influence
//! function by conditioning on the random choices and timestamps of a
//! diffusion ("random graphs" `G_R`/`G_P`). A realization here is
//! exactly that conditioning: it fixes, for every (node, hop) pair,
//! which out-neighbor the node targets, making the diffusion a
//! deterministic function of the seed sets. Evaluating candidate
//! protector sets against a *common* batch of realizations gives the
//! common-random-numbers estimator the greedy algorithm needs (and
//! per realization, `|PB(S)|` is monotone and submodular — Lemma 4 —
//! which is what makes lazy/CELF greedy sound).
//!
//! Rather than materializing `n × hops` choices, a realization is a
//! single 64-bit seed: the choice of node `v` at hop `t` is derived
//! by hashing `(seed, v, t)` with SplitMix64. Memory stays O(1) per
//! realization regardless of graph size, and the choice depends only
//! on `(v, t)` — not on the diffusion state — so it is identical
//! across evaluations with different protector sets. A loop that runs
//! one realization many times can pay for the hashing once instead: a
//! [`crate::TargetTable`] holds the target of every `(v, t)`, and the
//! lane kernel reads either ([`crate::TargetSource`]).

use rand::Rng;

use lcrb_graph::NodeId;

use crate::{derive_stream, splitmix64};

/// One fixed realization of all OPOAO random choices.
///
/// # Examples
///
/// ```
/// use lcrb_diffusion::OpoaoRealization;
/// use lcrb_graph::NodeId;
///
/// let r = OpoaoRealization::new(42);
/// let c1 = r.choice(NodeId::new(3), 5, 7);
/// let c2 = r.choice(NodeId::new(3), 5, 7);
/// assert_eq!(c1, c2); // deterministic
/// assert!(c1 < 7);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OpoaoRealization {
    seed: u64,
}

impl OpoaoRealization {
    /// Creates the realization identified by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        OpoaoRealization { seed }
    }

    /// The realization whose seed is the next `u64` of `rng`: what
    /// one OPOAO run of [`crate::TwoCascadeModel::run_into`] samples.
    #[must_use]
    pub(crate) fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        OpoaoRealization::new(rng.gen())
    }

    /// Derives a batch of `count` independent realizations from a
    /// master seed (realization `i` uses the stream
    /// [`derive_stream`]`(master, i)`).
    #[must_use]
    pub fn batch(count: usize, master_seed: u64) -> Vec<Self> {
        (0..count as u64)
            .map(|i| OpoaoRealization::new(derive_stream(master_seed, i)))
            .collect()
    }

    /// The out-neighbor index targeted by `node` at `hop`, given the
    /// node's `out_degree`.
    ///
    /// Uniform over `0..out_degree` up to the negligible modulo bias
    /// of reducing a 64-bit hash (degrees here are ≪ 2^32).
    ///
    /// # Panics
    ///
    /// Panics if `out_degree == 0` — nodes without out-neighbors
    /// never choose.
    #[inline]
    #[must_use]
    pub fn choice(&self, node: NodeId, hop: u32, out_degree: usize) -> usize {
        assert!(out_degree > 0, "node {node} has no out-neighbors to choose");
        let h = splitmix64(
            self.seed
                ^ splitmix64(u64::from(node.raw()).wrapping_mul(0xA24B_AED4_963E_E407))
                ^ splitmix64(u64::from(hop).wrapping_mul(0x9FB2_1C65_1E98_DF25)),
        );
        (h % out_degree as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choices_are_deterministic_and_in_range() {
        let r = OpoaoRealization::new(9);
        for node in 0..50u32 {
            for hop in 0..40u32 {
                for degree in 1..9usize {
                    let c = r.choice(NodeId::from_raw(node), hop, degree);
                    assert!(c < degree);
                    assert_eq!(c, r.choice(NodeId::from_raw(node), hop, degree));
                }
            }
        }
    }

    #[test]
    fn choices_vary_across_nodes_hops_and_seeds() {
        let r = OpoaoRealization::new(1);
        let per_node: Vec<usize> = (0..64)
            .map(|v| r.choice(NodeId::from_raw(v), 0, 10))
            .collect();
        assert!(per_node.iter().any(|&c| c != per_node[0]));
        let per_hop: Vec<usize> = (0..64)
            .map(|h| r.choice(NodeId::from_raw(0), h, 10))
            .collect();
        assert!(per_hop.iter().any(|&c| c != per_hop[0]));
        let r2 = OpoaoRealization::new(2);
        let cross: Vec<bool> = (0..64)
            .map(|v| r.choice(NodeId::from_raw(v), 3, 10) != r2.choice(NodeId::from_raw(v), 3, 10))
            .collect();
        assert!(cross.iter().any(|&b| b));
    }

    #[test]
    fn choices_are_roughly_uniform() {
        let r = OpoaoRealization::new(123);
        let degree = 5;
        let mut counts = vec![0usize; degree];
        let samples = 50_000u32;
        for i in 0..samples {
            counts[r.choice(NodeId::from_raw(i % 1000), i / 1000, degree)] += 1;
        }
        let expected = samples as f64 / degree as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bucket {i} off by {dev:.3}");
        }
    }

    #[test]
    fn batch_produces_distinct_realizations() {
        let batch = OpoaoRealization::batch(16, 7);
        assert_eq!(batch.len(), 16);
        let mut seen = std::collections::HashSet::new();
        for r in &batch {
            assert!(seen.insert(*r));
        }
        // Reproducible.
        assert_eq!(batch, OpoaoRealization::batch(16, 7));
        assert_ne!(batch, OpoaoRealization::batch(16, 8));
    }

    #[test]
    #[should_panic(expected = "no out-neighbors")]
    fn zero_degree_choice_panics() {
        let _ = OpoaoRealization::new(0).choice(NodeId::new(0), 0, 0);
    }
}
