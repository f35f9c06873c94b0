//! Partition-quality metrics: cut edges, mixing parameter, and
//! normalized mutual information.

// xtask-allow-file: index -- the NMI tables are sized by the partitions' community counts, and dense labels stay below them
use lcrb_graph::DiGraph;

use crate::Partition;

/// Number of directed edges whose endpoints lie in different
/// communities.
///
/// # Panics
///
/// Panics if the partition does not cover the graph's nodes.
#[must_use]
pub fn cut_edges(g: &DiGraph, partition: &Partition) -> usize {
    partition
        .check_node_count(g.node_count())
        // xtask-allow: panic -- documented `# Panics` precondition: the partition must cover the graph
        .expect("partition must cover the graph");
    g.edges()
        .filter(|&(u, v)| partition.community_of(u) != partition.community_of(v))
        .count()
}

/// Fraction of directed edges that cross communities (the network's
/// *mixing parameter*; the paper's premise is that this is small —
/// "edges crossing between communities are of usually few", §IV).
/// Returns 0 for graphs without edges.
///
/// # Panics
///
/// Panics if the partition does not cover the graph's nodes.
#[must_use]
pub fn mixing_parameter(g: &DiGraph, partition: &Partition) -> f64 {
    if g.edge_count() == 0 {
        return 0.0;
    }
    cut_edges(g, partition) as f64 / g.edge_count() as f64
}

/// Normalized mutual information between two partitions of the same
/// node set, in `[0, 1]`; 1 means identical clusterings (up to label
/// renaming).
///
/// Uses the standard `2 I(X;Y) / (H(X) + H(Y))` normalization. When
/// both partitions are trivial (zero entropy), returns 1 if they are
/// equal as partitions and 0 otherwise.
///
/// # Panics
///
/// Panics if the partitions cover different numbers of nodes.
#[must_use]
pub fn normalized_mutual_information(a: &Partition, b: &Partition) -> f64 {
    assert_eq!(
        a.node_count(),
        b.node_count(),
        "partitions cover different node sets"
    );
    let n = a.node_count();
    if n == 0 {
        return 1.0;
    }
    let ka = a.community_count();
    let kb = b.community_count();
    let mut joint = vec![0usize; ka * kb];
    for i in 0..n {
        let (la, lb) = (a.labels()[i], b.labels()[i]);
        joint[la * kb + lb] += 1;
    }
    let sa = a.community_sizes();
    let sb = b.community_sizes();
    let nf = n as f64;
    let mut mi = 0.0;
    for la in 0..ka {
        for lb in 0..kb {
            let nij = joint[la * kb + lb] as f64;
            if nij > 0.0 {
                mi += (nij / nf) * ((nij * nf) / (sa[la] as f64 * sb[lb] as f64)).ln();
            }
        }
    }
    let entropy = |sizes: &[usize]| -> f64 {
        sizes
            .iter()
            .filter(|&&s| s > 0)
            .map(|&s| {
                let p = s as f64 / nf;
                -p * p.ln()
            })
            .sum()
    };
    let (ha, hb) = (entropy(&sa), entropy(&sb));
    if ha + hb == 0.0 {
        // Both trivial: identical iff both are the same single-block
        // partition.
        return if a.labels() == b.labels() { 1.0 } else { 0.0 };
    }
    (2.0 * mi / (ha + hb)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrb_graph::generators::complete_graph;

    fn two_triangles() -> (DiGraph, Partition) {
        let g = DiGraph::from_edges(
            6,
            [
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (4, 5),
                (5, 3),
                (2, 3),
                (5, 0),
            ],
        )
        .unwrap();
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]);
        (g, p)
    }

    #[test]
    fn cut_and_mixing() {
        let (g, p) = two_triangles();
        assert_eq!(cut_edges(&g, &p), 2);
        assert!((mixing_parameter(&g, &p) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mixing_of_edgeless_graph_is_zero() {
        let g = DiGraph::with_nodes(3);
        assert_eq!(mixing_parameter(&g, &Partition::singletons(3)), 0.0);
    }

    #[test]
    fn nmi_identical_partitions() {
        let p = Partition::from_labels(vec![0, 0, 1, 1, 2]);
        let q = Partition::from_labels(vec![5, 5, 9, 9, 1]); // same up to renaming
        assert!((normalized_mutual_information(&p, &q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nmi_independent_partitions_is_low() {
        // A fine split vs a coarse orthogonal split on 8 nodes.
        let p = Partition::from_labels(vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let q = Partition::from_labels(vec![0, 1, 0, 1, 0, 1, 0, 1]);
        let nmi = normalized_mutual_information(&p, &q);
        assert!(nmi.abs() < 1e-9, "got {nmi}");
    }

    #[test]
    fn nmi_trivial_partitions() {
        let p = Partition::one_community(4);
        let q = Partition::one_community(4);
        assert_eq!(normalized_mutual_information(&p, &q), 1.0);
        let empty_a = Partition::from_labels(vec![]);
        let empty_b = Partition::from_labels(vec![]);
        assert_eq!(normalized_mutual_information(&empty_a, &empty_b), 1.0);
    }

    #[test]
    #[should_panic(expected = "different node sets")]
    fn nmi_rejects_mismatched_sizes() {
        let p = Partition::singletons(3);
        let q = Partition::singletons(4);
        let _ = normalized_mutual_information(&p, &q);
    }

    #[test]
    fn cut_edges_of_one_community_is_zero() {
        let g = complete_graph(5);
        assert_eq!(cut_edges(&g, &Partition::one_community(5)), 0);
        assert_eq!(cut_edges(&g, &Partition::singletons(5)), 20);
    }
}
