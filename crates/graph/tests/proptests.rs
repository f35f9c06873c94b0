//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use lcrb_graph::generators;
use lcrb_graph::pagerank::{pagerank, PageRankConfig};
use lcrb_graph::traversal::{bfs_distances, bfs_distances_where, relax_with_source, Direction};
use lcrb_graph::{CsrGraph, DiGraph, GraphError, NodeId};

/// Strategy: a random directed graph as (node count, edge pairs).
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
    fn bfs_distances_satisfy_edge_relaxation(g in arb_graph(40, 160), src in 0usize..40) {
        let src = src % g.node_count();
        let d = bfs_distances(&g, &[NodeId::new(src)]);
        // Every edge (u, v): d[v] <= d[u] + 1 when u is reached.
        for (u, v) in g.edges() {
            if let Some(du) = d[u.index()] {
                let dv = d[v.index()].expect("neighbor of reached node must be reached");
                prop_assert!(dv <= du + 1);
            }
        }
        // Every reached non-source node has an in-neighbor one hop closer.
        for v in g.nodes() {
            if let Some(dv) = d[v.index()] {
                if dv > 0 {
                    let ok = g
                        .in_neighbors(v)
                        .iter()
                        .any(|&u| d[u.index()] == Some(dv - 1));
                    prop_assert!(ok, "node {v} at distance {dv} lacks a predecessor");
                }
            }
        }
    }

    #[test]
    fn reverse_bfs_matches_forward_on_reversed_graph(g in arb_graph(30, 120), src in 0usize..30) {
        let src = src % g.node_count();
        let swapped = g.edges().map(|(u, v)| (v.index(), u.index()));
        let rev = DiGraph::from_edges(g.node_count(), swapped).unwrap();
        let a = bfs_distances_where(&g, &[NodeId::new(src)], Direction::Backward, u32::MAX, |_| true);
        let b = bfs_distances(&rev, &[NodeId::new(src)]);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn incremental_relaxation_matches_batch(g in arb_graph(30, 120), srcs in proptest::collection::vec(0usize..30, 1..5)) {
        let n = g.node_count();
        let srcs: Vec<NodeId> = srcs.into_iter().map(|s| NodeId::new(s % n)).collect();
        let mut incremental = vec![None; n];
        for &s in &srcs {
            relax_with_source(&g, &mut incremental, s);
        }
        let batch = bfs_distances(&g, &srcs);
        prop_assert_eq!(incremental, batch);
    }

    #[test]
    fn gnm_directed_is_exact_and_simple(n in 3usize..40, seed in 0u64..1000) {
        let max = n * (n - 1);
        let m = max / 3;
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::gnm_directed(n, m, &mut rng).unwrap();
        prop_assert_eq!(g.edge_count(), m);
        // Simplicity: the edges iterator yields no duplicates.
        let set: std::collections::HashSet<_> = g.edges().collect();
        prop_assert_eq!(set.len(), m);
    }

    #[test]
    fn planted_partition_labels_cover_all_nodes(seed in 0u64..500) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (g, labels) =
            generators::planted_partition(&[8, 12, 5], 0.4, 0.05, false, &mut rng).unwrap();
        prop_assert_eq!(g.node_count(), 25);
        prop_assert_eq!(labels.len(), 25);
        prop_assert_eq!(*labels.iter().max().unwrap(), 2);
    }

    #[test]
    fn pagerank_is_a_probability_distribution(g in arb_graph(25, 100)) {
        let pr = pagerank(&g, &PageRankConfig::default());
        let total: f64 = pr.scores.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "sum = {total}");
        prop_assert!(pr.scores.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn csr_snapshots_of_generator_graphs_validate(g in arb_graph(30, 120)) {
        let csr = CsrGraph::from(&g);
        prop_assert_eq!(csr.validate(), Ok(()));
        // And the checked constructor round-trips the same arrays.
        let out_offsets: Vec<u32> = std::iter::once(0)
            .chain(g.nodes().scan(0u32, |acc, v| {
                *acc += g.out_degree(v) as u32;
                Some(*acc)
            }))
            .collect();
        let in_offsets: Vec<u32> = std::iter::once(0)
            .chain(g.nodes().scan(0u32, |acc, v| {
                *acc += g.in_degree(v) as u32;
                Some(*acc)
            }))
            .collect();
        let out_targets: Vec<NodeId> =
            g.nodes().flat_map(|v| g.out_neighbors(v).to_vec()).collect();
        let in_sources: Vec<NodeId> =
            g.nodes().flat_map(|v| g.in_neighbors(v).to_vec()).collect();
        let rebuilt = CsrGraph::from_parts(out_offsets, out_targets, in_offsets, in_sources);
        prop_assert!(rebuilt.is_ok());
        let rebuilt = rebuilt.unwrap();
        for v in g.nodes() {
            prop_assert_eq!(rebuilt.out_neighbors(v), csr.out_neighbors(v));
            prop_assert_eq!(rebuilt.in_neighbors(v), csr.in_neighbors(v));
        }
    }

    #[test]
    fn csr_validate_rejects_corrupted_offsets(
        g in arb_graph(20, 80),
        node in 0usize..20,
        bump in 1u32..5,
    ) {
        prop_assume!(g.edge_count() > 0);
        let csr = CsrGraph::from(&g);
        let node = node % g.node_count();
        // Push one out-offset past the adjacency length: if it is the
        // final offset this breaks the length agreement, otherwise the
        // array stops being monotone — validate must catch both.
        let mut out_offsets: Vec<u32> = std::iter::once(0)
            .chain(g.nodes().scan(0u32, |acc, v| {
                *acc += g.out_degree(v) as u32;
                Some(*acc)
            }))
            .collect();
        out_offsets[node + 1] = g.edge_count() as u32 + bump;
        let in_offsets: Vec<u32> = std::iter::once(0)
            .chain(g.nodes().scan(0u32, |acc, v| {
                *acc += g.in_degree(v) as u32;
                Some(*acc)
            }))
            .collect();
        let out_targets: Vec<NodeId> =
            g.nodes().flat_map(|v| g.out_neighbors(v).to_vec()).collect();
        let in_sources: Vec<NodeId> =
            g.nodes().flat_map(|v| g.in_neighbors(v).to_vec()).collect();
        let rebuilt = CsrGraph::from_parts(out_offsets, out_targets, in_offsets, in_sources);
        prop_assert!(matches!(rebuilt, Err(GraphError::InvalidCsr { .. })));
        let _ = csr;
    }

    #[test]
    fn chung_lu_meets_exact_budgets(seed in 0u64..200) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (g, labels) = generators::community_chung_lu(
            &[30, 20], &[90, 50], 25, 2.5, false, &mut rng,
        )
        .unwrap();
        let (mut intra, mut inter) = (0usize, 0usize);
        for (u, v) in g.edges() {
            if labels[u.index()] == labels[v.index()] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        prop_assert_eq!(intra, 140);
        prop_assert_eq!(inter, 25);
        // Simple graph: no duplicate edges or self-loops.
        let set: std::collections::HashSet<_> = g.edges().collect();
        prop_assert_eq!(set.len(), g.edge_count());
        prop_assert!(g.edges().all(|(u, v)| u != v));
    }
}
