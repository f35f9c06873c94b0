//! Graph traversal: BFS (the paper's workhorse) over the mutable
//! graph and over the CSR snapshot, plus incremental relaxation.

mod bfs;
mod csr_bfs;

pub use bfs::{bfs_distances, bfs_distances_where, relax_with_source, Direction};
pub use csr_bfs::CsrBfsScratch;
