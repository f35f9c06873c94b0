//! Graph traversal: BFS (the paper's workhorse), DFS, reachability,
//! and topological sorting.

mod bfs;
mod csr_bfs;
mod dfs;

pub use bfs::{
    bfs_distances, bfs_distances_where, relax_with_source, reverse_bfs_distances, Direction,
};
pub use csr_bfs::CsrBfsScratch;
pub use dfs::{dfs_preorder, is_reachable, topological_sort, CycleError};
