//! Random and deterministic graph generators.
//!
//! These provide both the test fixtures for the workspace and the raw
//! material for the synthetic dataset stand-ins in `lcrb-datasets`
//! (see DESIGN.md §3). All stochastic generators take an explicit
//! `&mut impl Rng` so experiments are reproducible from a seed.

// xtask-allow-file: index -- generator-owned arrays are indexed by ids drawn below the requested node count
use core::fmt;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{DiGraph, NodeId};

/// Errors from graph generators.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum GeneratorError {
    /// A probability parameter was outside `[0, 1]` or NaN.
    InvalidProbability {
        /// The offending value.
        value: f64,
    },
    /// More edges were requested than the graph class can hold.
    TooManyEdges {
        /// Requested edge count.
        requested: usize,
        /// Maximum possible for the given node count.
        maximum: usize,
    },
    /// A structural parameter was invalid (e.g. an empty block, a
    /// Chung–Lu tail exponent `<= 1`).
    InvalidParameter {
        /// Human-readable description of the violated constraint.
        message: &'static str,
    },
}

impl fmt::Display for GeneratorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeneratorError::InvalidProbability { value } => {
                write!(f, "probability {value} is not in [0, 1]")
            }
            GeneratorError::TooManyEdges { requested, maximum } => {
                write!(f, "requested {requested} edges but at most {maximum} fit")
            }
            GeneratorError::InvalidParameter { message } => f.write_str(message),
        }
    }
}

impl std::error::Error for GeneratorError {}

fn check_probability(p: f64) -> Result<(), GeneratorError> {
    if p.is_nan() || !(0.0..=1.0).contains(&p) {
        Err(GeneratorError::InvalidProbability { value: p })
    } else {
        Ok(())
    }
}

/// Iterates the indices selected by Bernoulli(p) skip sampling over
/// `0..total`, calling `f` for each selected index. Runs in
/// `O(selected)` expected time.
fn skip_sample<R: Rng + ?Sized, F: FnMut(usize)>(total: usize, p: f64, rng: &mut R, mut f: F) {
    if total == 0 || p <= 0.0 {
        return;
    }
    if p >= 1.0 {
        for i in 0..total {
            f(i);
        }
        return;
    }
    let log_q = (1.0 - p).ln();
    let mut i = 0usize;
    loop {
        // Geometric skip: floor(ln(U) / ln(1-p)) failures before the
        // next success.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let skip = (u.ln() / log_q).floor();
        if skip >= (total - i) as f64 {
            return;
        }
        i += skip as usize;
        f(i);
        i += 1;
        if i >= total {
            return;
        }
    }
}

/// Maps a linear index over the `n*(n-1)` ordered non-loop pairs to
/// the pair itself.
#[inline]
fn ordered_pair(n: usize, idx: usize) -> (usize, usize) {
    let u = idx / (n - 1);
    let mut v = idx % (n - 1);
    if v >= u {
        v += 1;
    }
    (u, v)
}

/// Maps a linear index over the `n*(n-1)/2` unordered pairs `u < v`
/// to the pair itself.
#[inline]
fn unordered_pair(n: usize, idx: usize) -> (usize, usize) {
    // Row u starts at offset u*n - u*(u+1)/2 of pairs (u, u+1..n).
    // Solve by scanning rows is O(n); use the closed form instead.
    let idxf = idx as f64;
    let nf = n as f64;
    // u is the largest integer with u*nf - u*(u+1)/2 <= idx.
    let mut u =
        ((2.0 * nf - 1.0 - ((2.0 * nf - 1.0).powi(2) - 8.0 * idxf).sqrt()) / 2.0).floor() as usize;
    // Guard against floating-point boundary slips.
    loop {
        let start = u * n - u * (u + 1) / 2;
        if start > idx {
            u -= 1;
            continue;
        }
        let end = (u + 1) * n - (u + 1) * (u + 2) / 2;
        if idx >= end {
            u += 1;
            continue;
        }
        return (u, u + 1 + (idx - start));
    }
}

/// `G(n, m)` directed graph: exactly `m` distinct non-loop directed
/// edges chosen uniformly.
///
/// # Errors
///
/// Returns [`GeneratorError::TooManyEdges`] if `m > n*(n-1)`.
pub fn gnm_directed<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    rng: &mut R,
) -> Result<DiGraph, GeneratorError> {
    let maximum = n.saturating_mul(n.saturating_sub(1));
    if m > maximum {
        return Err(GeneratorError::TooManyEdges {
            requested: m,
            maximum,
        });
    }
    let mut g = DiGraph::with_nodes(n);
    while g.edge_count() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            let _ = g.add_edge(NodeId::new(u), NodeId::new(v));
        }
    }
    Ok(g)
}

/// Planted-partition (stochastic block) model: nodes are split into
/// blocks of the given `sizes`; ordered non-loop pairs inside a block
/// are edges with probability `p_in`, pairs across blocks with
/// probability `p_out`. When `symmetric` is set, pairs are sampled
/// unordered and both arcs inserted.
///
/// Returns the graph and the planted block label of every node (the
/// ground-truth community structure used to validate the Louvain
/// implementation and to build calibrated datasets).
///
/// # Errors
///
/// Returns [`GeneratorError::InvalidProbability`] for bad
/// probabilities and [`GeneratorError::InvalidParameter`] if `sizes`
/// contains a zero.
pub fn planted_partition<R: Rng + ?Sized>(
    sizes: &[usize],
    p_in: f64,
    p_out: f64,
    symmetric: bool,
    rng: &mut R,
) -> Result<(DiGraph, Vec<usize>), GeneratorError> {
    check_probability(p_in)?;
    check_probability(p_out)?;
    if sizes.contains(&0) {
        return Err(GeneratorError::InvalidParameter {
            message: "planted partition blocks must be non-empty",
        });
    }
    let n: usize = sizes.iter().sum();
    let mut labels = Vec::with_capacity(n);
    let mut starts = Vec::with_capacity(sizes.len());
    {
        let mut offset = 0;
        for (b, &s) in sizes.iter().enumerate() {
            starts.push(offset);
            labels.extend(std::iter::repeat_n(b, s));
            offset += s;
        }
    }
    let mut g = DiGraph::with_nodes(n);

    // Intra-block edges.
    for (b, &s) in sizes.iter().enumerate() {
        let base = starts[b];
        if s < 2 {
            continue;
        }
        if symmetric {
            skip_sample(s * (s - 1) / 2, p_in, rng, |idx| {
                let (u, v) = unordered_pair(s, idx);
                let _ = g.add_edge_symmetric(NodeId::new(base + u), NodeId::new(base + v));
            });
        } else {
            skip_sample(s * (s - 1), p_in, rng, |idx| {
                let (u, v) = ordered_pair(s, idx);
                let _ = g.add_edge(NodeId::new(base + u), NodeId::new(base + v));
            });
        }
    }

    // Inter-block edges: skip-sample the full pair space and discard
    // intra-block hits (cheap because p_out is small in practice).
    if n >= 2 {
        if symmetric {
            skip_sample(n * (n - 1) / 2, p_out, rng, |idx| {
                let (u, v) = unordered_pair(n, idx);
                if labels[u] != labels[v] {
                    let _ = g.add_edge_symmetric(NodeId::new(u), NodeId::new(v));
                }
            });
        } else {
            skip_sample(n * (n - 1), p_out, rng, |idx| {
                let (u, v) = ordered_pair(n, idx);
                if labels[u] != labels[v] {
                    let _ = g.add_edge(NodeId::new(u), NodeId::new(v));
                }
            });
        }
    }
    Ok((g, labels))
}

/// Community graph with exact edge budgets: block `b` receives
/// `intra_edges[b]` distinct internal edges and the whole graph
/// receives `inter_edges` distinct cross-block edges. When
/// `symmetric` is set the budgets count unordered pairs (two arcs
/// each). This is the calibrated generator behind the Enron-like and
/// Hep-like stand-ins.
///
/// Returns the graph and the planted block labels.
///
/// # Errors
///
/// Returns [`GeneratorError::InvalidParameter`] on shape mismatch or
/// empty blocks and [`GeneratorError::TooManyEdges`] when a budget
/// exceeds the available pairs.
pub fn community_gnm<R: Rng + ?Sized>(
    sizes: &[usize],
    intra_edges: &[usize],
    inter_edges: usize,
    symmetric: bool,
    rng: &mut R,
) -> Result<(DiGraph, Vec<usize>), GeneratorError> {
    if sizes.len() != intra_edges.len() {
        return Err(GeneratorError::InvalidParameter {
            message: "sizes and intra_edges must have the same length",
        });
    }
    if sizes.contains(&0) {
        return Err(GeneratorError::InvalidParameter {
            message: "community blocks must be non-empty",
        });
    }
    let n: usize = sizes.iter().sum();
    let mut labels = Vec::with_capacity(n);
    let mut starts = Vec::with_capacity(sizes.len());
    {
        let mut offset = 0;
        for (b, &s) in sizes.iter().enumerate() {
            starts.push(offset);
            labels.extend(std::iter::repeat_n(b, s));
            offset += s;
        }
    }

    // Validate intra budgets.
    for (b, (&s, &m)) in sizes.iter().zip(intra_edges).enumerate() {
        let maximum = if symmetric {
            s * (s.saturating_sub(1)) / 2
        } else {
            s * (s.saturating_sub(1))
        };
        if m > maximum {
            let _ = b;
            return Err(GeneratorError::TooManyEdges {
                requested: m,
                maximum,
            });
        }
    }
    let cross_pairs: usize = {
        let all = if symmetric {
            n * (n - 1) / 2
        } else {
            n * (n - 1)
        };
        let intra: usize = sizes
            .iter()
            .map(|&s| {
                if symmetric {
                    s * (s - 1) / 2
                } else {
                    s * (s - 1)
                }
            })
            .sum();
        all - intra
    };
    if inter_edges > cross_pairs {
        return Err(GeneratorError::TooManyEdges {
            requested: inter_edges,
            maximum: cross_pairs,
        });
    }

    let mut g = DiGraph::with_nodes(n);
    for (b, &s) in sizes.iter().enumerate() {
        let base = starts[b];
        let target = intra_edges[b];
        let mut placed = 0usize;
        // Dense blocks (budget above ~half the pairs) fall back to
        // explicit enumeration + shuffle to avoid rejection stalls.
        let maximum = if symmetric {
            s * (s - 1) / 2
        } else {
            s * (s - 1)
        };
        if maximum > 0 && target * 2 > maximum {
            let mut all: Vec<(usize, usize)> = Vec::with_capacity(maximum);
            for u in 0..s {
                let lo = if symmetric { u + 1 } else { 0 };
                for v in lo..s {
                    if u != v {
                        all.push((u, v));
                    }
                }
            }
            all.shuffle(rng);
            for &(u, v) in all.iter().take(target) {
                let (a, b2) = (NodeId::new(base + u), NodeId::new(base + v));
                if symmetric {
                    let _ = g.add_edge_symmetric(a, b2);
                } else {
                    let _ = g.add_edge(a, b2);
                }
            }
        } else {
            while placed < target {
                let u = rng.gen_range(0..s);
                let v = rng.gen_range(0..s);
                if u == v {
                    continue;
                }
                let (a, b2) = (NodeId::new(base + u), NodeId::new(base + v));
                if g.has_edge(a, b2) {
                    continue;
                }
                if symmetric {
                    let _ = g.add_edge_symmetric(a, b2);
                } else {
                    let _ = g.add_edge(a, b2);
                }
                placed += 1;
            }
        }
    }

    let mut placed = 0usize;
    while placed < inter_edges {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v || labels[u] == labels[v] {
            continue;
        }
        let (a, b) = (NodeId::new(u), NodeId::new(v));
        if g.has_edge(a, b) {
            continue;
        }
        if symmetric {
            let _ = g.add_edge_symmetric(a, b);
        } else {
            let _ = g.add_edge(a, b);
        }
        placed += 1;
    }
    Ok((g, labels))
}

/// Community graph with exact edge budgets *and heavy-tailed
/// degrees*: like [`community_gnm`], but edge endpoints inside and
/// across blocks are sampled proportionally to per-node Chung–Lu
/// weights drawn from a Pareto distribution with the given tail
/// `exponent` (≈ 2.5 matches social networks). Produces the hubs that
/// real email/collaboration graphs have and that the plain `G(n, m)`
/// blocks lack — used by the degree-heterogeneous dataset variants.
///
/// Returns the graph and the planted block labels.
///
/// # Errors
///
/// Same conditions as [`community_gnm`], plus
/// [`GeneratorError::InvalidParameter`] if `exponent <= 1`.
pub fn community_chung_lu<R: Rng + ?Sized>(
    sizes: &[usize],
    intra_edges: &[usize],
    inter_edges: usize,
    exponent: f64,
    symmetric: bool,
    rng: &mut R,
) -> Result<(DiGraph, Vec<usize>), GeneratorError> {
    if exponent.is_nan() || exponent <= 1.0 {
        return Err(GeneratorError::InvalidParameter {
            message: "chung–lu exponent must be greater than 1",
        });
    }
    if sizes.len() != intra_edges.len() {
        return Err(GeneratorError::InvalidParameter {
            message: "sizes and intra_edges must have the same length",
        });
    }
    if sizes.contains(&0) {
        return Err(GeneratorError::InvalidParameter {
            message: "community blocks must be non-empty",
        });
    }
    let n: usize = sizes.iter().sum();
    let mut labels = Vec::with_capacity(n);
    let mut starts = Vec::with_capacity(sizes.len());
    {
        let mut offset = 0;
        for (b, &s) in sizes.iter().enumerate() {
            starts.push(offset);
            labels.extend(std::iter::repeat_n(b, s));
            offset += s;
        }
    }
    for (&s, &m) in sizes.iter().zip(intra_edges) {
        let maximum = if symmetric {
            s * (s.saturating_sub(1)) / 2
        } else {
            s * (s.saturating_sub(1))
        };
        if m > maximum {
            return Err(GeneratorError::TooManyEdges {
                requested: m,
                maximum,
            });
        }
    }

    // Pareto(α = exponent) node weights, capped so no node dominates
    // its block entirely.
    let weights: Vec<f64> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            u.powf(-1.0 / (exponent - 1.0)).min(n as f64 / 4.0)
        })
        .collect();
    // Per-block prefix sums for weighted endpoint sampling.
    let block_prefix: Vec<Vec<f64>> = sizes
        .iter()
        .enumerate()
        .map(|(b, &s)| {
            let mut acc = 0.0;
            let mut prefix = Vec::with_capacity(s + 1);
            prefix.push(0.0);
            for i in 0..s {
                acc += weights[starts[b] + i];
                prefix.push(acc);
            }
            prefix
        })
        .collect();
    let global_prefix: Vec<f64> = {
        let mut acc = 0.0;
        let mut prefix = Vec::with_capacity(n + 1);
        prefix.push(0.0);
        for &w in &weights {
            acc += w;
            prefix.push(acc);
        }
        prefix
    };
    let draw = |prefix: &[f64], rng: &mut R| -> usize {
        // xtask-allow: panic -- callers pass a prefix-sum slice built from a non-empty degree vector
        let total = *prefix.last().expect("non-empty prefix");
        let x = rng.gen_range(0.0..total);
        // partition_point: first index with prefix[i] > x; node is i-1.
        prefix
            .partition_point(|&p| p <= x)
            .saturating_sub(1)
            .min(prefix.len() - 2)
    };

    let mut g = DiGraph::with_nodes(n);
    let add = |g: &mut DiGraph, u: usize, v: usize| -> bool {
        let (a, b) = (NodeId::new(u), NodeId::new(v));
        if u == v || g.has_edge(a, b) {
            return false;
        }
        if symmetric {
            let _ = g.add_edge_symmetric(a, b);
        } else {
            let _ = g.add_edge(a, b);
        }
        true
    };

    for (b, &target) in intra_edges.iter().enumerate() {
        let base = starts[b];
        let prefix = &block_prefix[b];
        let mut placed = 0usize;
        let mut attempts = 0usize;
        while placed < target {
            attempts += 1;
            let (u, v) = if attempts > 60 * target + 100 {
                // Weighted rejection is stalling (hub pairs saturated):
                // fall back to uniform pairs to land the exact budget.
                (rng.gen_range(0..sizes[b]), rng.gen_range(0..sizes[b]))
            } else {
                (draw(prefix, rng), draw(prefix, rng))
            };
            if add(&mut g, base + u, base + v) {
                placed += 1;
            }
        }
    }
    let mut placed = 0usize;
    let mut attempts = 0usize;
    while placed < inter_edges {
        attempts += 1;
        let (u, v) = if attempts > 60 * inter_edges + 100 {
            (rng.gen_range(0..n), rng.gen_range(0..n))
        } else {
            (draw(&global_prefix, rng), draw(&global_prefix, rng))
        };
        if labels[u] == labels[v] {
            continue;
        }
        if add(&mut g, u, v) {
            placed += 1;
        }
    }
    Ok((g, labels))
}

/// A directed path `0 -> 1 -> ... -> n-1`.
#[must_use]
pub fn path_graph(n: usize) -> DiGraph {
    let mut g = DiGraph::with_nodes(n);
    for i in 1..n {
        let _ = g.add_edge(NodeId::new(i - 1), NodeId::new(i));
    }
    g
}

/// A directed cycle `0 -> 1 -> ... -> n-1 -> 0` (empty for `n < 2`).
#[must_use]
pub fn cycle_graph(n: usize) -> DiGraph {
    let mut g = path_graph(n);
    if n >= 2 {
        let _ = g.add_edge(NodeId::new(n - 1), NodeId::new(0));
    }
    g
}

/// The complete directed graph on `n` nodes (all ordered non-loop
/// pairs).
#[must_use]
pub fn complete_graph(n: usize) -> DiGraph {
    let mut g = DiGraph::with_nodes(n);
    for u in 0..n {
        for v in 0..n {
            if u != v {
                let _ = g.add_edge(NodeId::new(u), NodeId::new(v));
            }
        }
    }
    g
}

/// A star with hub 0: arcs in both directions between the hub and
/// every leaf.
#[must_use]
pub fn star_graph(n: usize) -> DiGraph {
    let mut g = DiGraph::with_nodes(n);
    for v in 1..n {
        let _ = g.add_edge_symmetric(NodeId::new(0), NodeId::new(v));
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn ordered_pair_covers_all_pairs() {
        let n = 5;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..n * (n - 1) {
            let (u, v) = ordered_pair(n, idx);
            assert_ne!(u, v);
            assert!(u < n && v < n);
            assert!(seen.insert((u, v)));
        }
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn unordered_pair_covers_all_pairs() {
        for n in [2usize, 3, 5, 17, 64] {
            let mut seen = std::collections::HashSet::new();
            for idx in 0..n * (n - 1) / 2 {
                let (u, v) = unordered_pair(n, idx);
                assert!(u < v && v < n, "bad pair ({u},{v}) at idx {idx} n {n}");
                assert!(seen.insert((u, v)));
            }
            assert_eq!(seen.len(), n * (n - 1) / 2);
        }
    }

    #[test]
    fn planted_partition_rejects_bad_probability() {
        let mut r = rng(1);
        assert!(matches!(
            planted_partition(&[3, 2], 1.5, 0.1, false, &mut r),
            Err(GeneratorError::InvalidProbability { value }) if value == 1.5
        ));
        assert!(matches!(
            planted_partition(&[3, 2], 0.5, f64::NAN, false, &mut r),
            Err(GeneratorError::InvalidProbability { value }) if value.is_nan()
        ));
    }

    #[test]
    fn gnm_exact_edge_count() {
        let mut r = rng(4);
        let g = gnm_directed(50, 200, &mut r).unwrap();
        assert_eq!(g.edge_count(), 200);
    }

    #[test]
    fn gnm_rejects_overfull() {
        let mut r = rng(4);
        assert!(matches!(
            gnm_directed(3, 7, &mut r),
            Err(GeneratorError::TooManyEdges { maximum: 6, .. })
        ));
    }

    #[test]
    fn planted_partition_labels_and_density() {
        let mut r = rng(8);
        let (g, labels) = planted_partition(&[50, 50], 0.2, 0.005, false, &mut r).unwrap();
        assert_eq!(g.node_count(), 100);
        assert_eq!(labels.len(), 100);
        assert_eq!(labels[0], 0);
        assert_eq!(labels[99], 1);
        let (mut intra, mut inter) = (0usize, 0usize);
        for (u, v) in g.edges() {
            if labels[u.index()] == labels[v.index()] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(intra > inter * 5, "intra {intra} inter {inter}");
    }

    #[test]
    fn planted_partition_symmetric_mode() {
        let mut r = rng(9);
        let (g, _) = planted_partition(&[30, 30, 30], 0.3, 0.01, true, &mut r).unwrap();
        for (u, v) in g.edges() {
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn planted_partition_rejects_empty_block() {
        let mut r = rng(9);
        assert!(planted_partition(&[5, 0], 0.1, 0.1, false, &mut r).is_err());
    }

    #[test]
    fn community_gnm_exact_budgets() {
        let mut r = rng(10);
        let (g, labels) = community_gnm(&[40, 60], &[100, 200], 30, false, &mut r).unwrap();
        let (mut intra, mut inter) = (0usize, 0usize);
        for (u, v) in g.edges() {
            if labels[u.index()] == labels[v.index()] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert_eq!(intra, 300);
        assert_eq!(inter, 30);
        assert_eq!(g.edge_count(), 330);
    }

    #[test]
    fn community_gnm_symmetric_budgets_are_pairs() {
        let mut r = rng(11);
        let (g, _) = community_gnm(&[20, 20], &[50, 50], 10, true, &mut r).unwrap();
        assert_eq!(g.edge_count(), 2 * (50 + 50 + 10));
        for (u, v) in g.edges() {
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn community_gnm_dense_block_path() {
        let mut r = rng(12);
        // Budget above half the pairs triggers the shuffle path.
        let (g, _) = community_gnm(&[10], &[80], 0, false, &mut r).unwrap();
        assert_eq!(g.edge_count(), 80);
    }

    #[test]
    fn community_gnm_validation() {
        let mut r = rng(12);
        assert!(community_gnm(&[5], &[5, 5], 0, false, &mut r).is_err());
        assert!(matches!(
            community_gnm(&[3], &[7], 0, false, &mut r),
            Err(GeneratorError::TooManyEdges { .. })
        ));
        assert!(matches!(
            community_gnm(&[3, 3], &[0, 0], 100, false, &mut r),
            Err(GeneratorError::TooManyEdges { .. })
        ));
    }

    #[test]
    fn deterministic_graphs() {
        let p = path_graph(4);
        assert_eq!(p.edge_count(), 3);
        let c = cycle_graph(4);
        assert_eq!(c.edge_count(), 4);
        assert!(c.has_edge(NodeId::new(3), NodeId::new(0)));
        let k = complete_graph(4);
        assert_eq!(k.edge_count(), 12);
        let s = star_graph(5);
        assert_eq!(s.edge_count(), 8);
        assert_eq!(s.out_degree(NodeId::new(0)), 4);
        // Degenerate sizes.
        assert_eq!(path_graph(0).node_count(), 0);
        assert_eq!(cycle_graph(1).edge_count(), 0);
        assert_eq!(star_graph(1).edge_count(), 0);
    }

    #[test]
    fn generators_are_deterministic_given_seed() {
        let g1 = gnm_directed(80, 320, &mut rng(99)).unwrap();
        let g2 = gnm_directed(80, 320, &mut rng(99)).unwrap();
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn community_chung_lu_exact_budgets_and_hubs() {
        let mut r = rng(31);
        let (g, labels) =
            community_chung_lu(&[300, 200], &[1200, 800], 150, 2.2, false, &mut r).unwrap();
        let (mut intra, mut inter) = (0usize, 0usize);
        for (u, v) in g.edges() {
            if labels[u.index()] == labels[v.index()] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert_eq!(intra, 2000);
        assert_eq!(inter, 150);
        // Heavy tail: the max degree clearly exceeds the average.
        let avg = g.edge_count() as f64 / g.node_count() as f64;
        let max_deg = g.nodes().map(|v| g.out_degree(v)).max().unwrap();
        assert!(max_deg as f64 > 3.5 * avg, "max {max_deg} vs avg {avg}");
    }

    #[test]
    fn community_chung_lu_symmetric_mode() {
        let mut r = rng(32);
        let (g, _) = community_chung_lu(&[50, 50], &[120, 120], 30, 2.5, true, &mut r).unwrap();
        assert_eq!(g.edge_count(), 2 * (120 + 120 + 30));
        for (u, v) in g.edges() {
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn community_chung_lu_validation() {
        let mut r = rng(33);
        assert!(community_chung_lu(&[5], &[5], 0, 1.0, false, &mut r).is_err());
        assert!(community_chung_lu(&[5], &[5, 5], 0, 2.5, false, &mut r).is_err());
        assert!(matches!(
            community_chung_lu(&[3], &[7], 0, 2.5, false, &mut r),
            Err(GeneratorError::TooManyEdges { .. })
        ));
        assert!(community_chung_lu(&[3, 0], &[1, 0], 0, 2.5, false, &mut r).is_err());
    }

    #[test]
    fn community_chung_lu_dense_block_terminates() {
        let mut r = rng(34);
        // 10 nodes, 80 of 90 possible arcs: forces the uniform
        // fallback path.
        let (g, _) = community_chung_lu(&[10], &[80], 0, 2.0, false, &mut r).unwrap();
        assert_eq!(g.edge_count(), 80);
    }

    #[test]
    fn error_display_is_meaningful() {
        let e = GeneratorError::TooManyEdges {
            requested: 10,
            maximum: 6,
        };
        assert_eq!(e.to_string(), "requested 10 edges but at most 6 fit");
    }
}
