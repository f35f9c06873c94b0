//! Property-based tests for community detection.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use lcrb_community::metrics::{cut_edges, normalized_mutual_information};
use lcrb_community::{louvain, modularity, LouvainConfig, Partition};
use lcrb_graph::generators::planted_partition;
use lcrb_graph::{DiGraph, NodeId};

fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = DiGraph> {
    (2usize..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m).prop_map(move |pairs| {
            let mut g = DiGraph::with_nodes(n);
            for (u, v) in pairs {
                if u != v {
                    let _ = g.add_edge(NodeId::new(u), NodeId::new(v));
                }
            }
            g
        })
    })
}

proptest! {
    #[test]
    fn louvain_partition_is_valid_and_not_worse_than_singletons(g in arb_graph(30, 120), seed in 0u64..64) {
        let cfg = LouvainConfig { seed, ..LouvainConfig::default() };
        let r = louvain(&g, &cfg);
        prop_assert_eq!(r.partition.node_count(), g.node_count());
        // Labels dense.
        let max = r.partition.labels().iter().copied().max().unwrap_or(0);
        if r.partition.node_count() > 0 {
            prop_assert_eq!(max + 1, r.partition.community_count());
        }
        let q_single = modularity(&g, &Partition::singletons(g.node_count()));
        prop_assert!(r.modularity >= q_single - 1e-9);
        // Reported modularity matches recomputation.
        prop_assert!((r.modularity - modularity(&g, &r.partition)).abs() < 1e-9);
    }

    #[test]
    fn cut_edges_counts_crossing_edges(g in arb_graph(25, 100), labels in proptest::collection::vec(0usize..5, 25)) {
        let labels = &labels[..g.node_count()];
        let p = Partition::from_labels(labels.to_vec());
        let crossing = g
            .edges()
            .filter(|&(u, v)| labels[u.index()] != labels[v.index()])
            .count();
        prop_assert_eq!(cut_edges(&g, &p), crossing);
    }

    #[test]
    fn nmi_is_symmetric_and_self_is_one(a in proptest::collection::vec(0usize..4, 5..30), b in proptest::collection::vec(0usize..4, 5..30)) {
        let n = a.len().min(b.len());
        let pa = Partition::from_labels(a[..n].to_vec());
        let pb = Partition::from_labels(b[..n].to_vec());
        let xy = normalized_mutual_information(&pa, &pb);
        let yx = normalized_mutual_information(&pb, &pa);
        prop_assert!((xy - yx).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&xy));
        prop_assert!((normalized_mutual_information(&pa, &pa) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn modularity_is_bounded(g in arb_graph(25, 100), labels in proptest::collection::vec(0usize..6, 25)) {
        let p = Partition::from_labels(labels[..g.node_count()].to_vec());
        let q = modularity(&g, &p);
        prop_assert!((-1.0..=1.0).contains(&q), "q = {q}");
    }

    #[test]
    fn louvain_recovers_well_separated_blocks(seed in 0u64..20) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (g, truth) = planted_partition(&[25, 25], 0.6, 0.005, false, &mut rng).unwrap();
        let r = louvain(&g, &LouvainConfig { seed, ..LouvainConfig::default() });
        let nmi = normalized_mutual_information(&r.partition, &Partition::from_labels(truth));
        prop_assert!(nmi > 0.8, "nmi = {nmi}");
    }
}
