//! # lcrb-community
//!
//! Community detection for the reproduction of *Least Cost Rumor
//! Blocking in Social Networks* (Fan et al., ICDCS 2013).
//!
//! The paper's premise (§IV) is that social networks decompose into
//! communities with dense internal and sparse cross connections, and
//! its experiments obtain that structure with the Louvain method of
//! Blondel et al. — reference \[25\]. This crate implements, from
//! scratch:
//!
//! - [`Partition`]: the disjoint community structure `C` of the
//!   paper's Definition 1;
//! - [`louvain`]: the directed Louvain method (local modularity
//!   moves + aggregation levels);
//! - [`modularity`]: directed (Leicht–Newman) modularity;
//! - [`metrics`]: cut edges, mixing parameter, and NMI for validating
//!   detected structure against planted ground truth.
//!
//! ## Example
//!
//! ```
//! use lcrb_community::{louvain, LouvainConfig};
//! use lcrb_graph::generators::planted_partition;
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let (graph, _truth) = planted_partition(&[60, 60], 0.25, 0.01, false, &mut rng).unwrap();
//! let result = louvain(&graph, &LouvainConfig::default());
//! assert!(result.partition.community_count() >= 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod louvain;
pub mod metrics;
mod modularity;
mod partition;

pub use louvain::{louvain, LouvainConfig, LouvainResult};
pub use modularity::modularity;
pub use partition::{Partition, PartitionSizeError};
