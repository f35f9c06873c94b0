//! # lcrb-graph
//!
//! Directed-graph substrate for the reproduction of *Least Cost Rumor
//! Blocking in Social Networks* (Fan et al., ICDCS 2013).
//!
//! The paper models a social network as a directed graph `G = (N, E)`
//! (§III) and all of its algorithms — Rumor Forward Search Trees,
//! Bridge-end Backward Search Trees, the two diffusion models — are
//! built on breadth-first traversal of that graph. This crate
//! provides everything those layers need, built from scratch:
//!
//! - [`DiGraph`]: a mutable adjacency-list directed graph with dense
//!   `u32` ids, maintained in both directions;
//! - [`CsrGraph`]: a frozen compressed-sparse-row snapshot for hot
//!   simulation loops;
//! - [`traversal`]: multi-source / bounded / filtered BFS (reusable
//!   scratch over the snapshot, allocating reference over the
//!   [`DiGraph`]), incremental distance relaxation, DFS, topological
//!   sort;
//! - [`components`]: weakly connected components (via [`UnionFind`])
//!   and Tarjan strongly connected components;
//! - [`generators`]: Erdős–Rényi, Barabási–Albert, Watts–Strogatz,
//!   planted-partition and exact-budget community graphs, plus
//!   deterministic fixtures;
//! - [`io`]: SNAP-style edge-list reading and writing;
//! - [`metrics`]: density, degree statistics, reciprocity,
//!   clustering — used to calibrate the synthetic datasets.
//!
//! ## Example
//!
//! ```
//! use lcrb_graph::{DiGraph, NodeId};
//! use lcrb_graph::traversal::bfs_distances;
//!
//! # fn main() -> Result<(), lcrb_graph::GraphError> {
//! let mut g = DiGraph::with_nodes(4);
//! g.add_edge(NodeId::new(0), NodeId::new(1))?;
//! g.add_edge(NodeId::new(1), NodeId::new(2))?;
//! g.add_edge(NodeId::new(2), NodeId::new(3))?;
//!
//! let dist = bfs_distances(&g, &[NodeId::new(0)]);
//! assert_eq!(dist[3], Some(3));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod betweenness;
pub mod components;
mod csr;
mod digraph;
pub mod distance;
mod error;
pub mod generators;
pub mod io;
pub mod kcore;
pub mod metrics;
mod node;
pub mod pagerank;
pub mod traversal;
mod union_find;

pub use csr::CsrGraph;
pub use digraph::{DiGraph, Edges, Nodes, Subgraph};
pub use error::{GraphError, ParseEdgeListError};
pub use node::NodeId;
pub use union_find::UnionFind;
