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
//!   [`DiGraph`]) and incremental distance relaxation;
//! - [`generators`]: planted-partition and exact-budget community
//!   graphs, uniform `G(n, m)`, plus deterministic fixtures;
//! - [`io`]: SNAP-style edge-list reading and writing;
//! - [`metrics`]: density, degree statistics and reciprocity — used
//!   to calibrate the synthetic datasets;
//! - [`pagerank`]: PageRank, the basis of the PageRank
//!   protector-selection baseline in the `lcrb` crate.
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

mod csr;
mod digraph;
mod error;
pub mod generators;
pub mod io;
pub mod metrics;
mod node;
pub mod pagerank;
pub mod traversal;

pub use csr::CsrGraph;
pub use digraph::{DiGraph, Edges, Nodes};
pub use error::{GraphError, ParseEdgeListError};
pub use node::NodeId;
