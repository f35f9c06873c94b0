//! Loading the paper's real traces, if the user has them.
//!
//! The Enron email network and the arXiv Hep collaboration network
//! are both distributed by SNAP as whitespace edge lists. Drop them
//! anywhere on disk and point [`load_edge_list`] at the file. The
//! `experiments` binary always runs on the synthetic stand-ins; a
//! loaded trace is for library callers, who can detect its
//! communities with Louvain and build a `RumorBlockingInstance` on
//! it.

use std::fs::File;
use std::path::Path;

use lcrb_graph::io::{read_edge_list, LoadedGraph};
use lcrb_graph::ParseEdgeListError;

/// Reads a SNAP-style edge list from `path` (comments starting with
/// `#`/`%` ignored, arbitrary string node labels remapped to dense
/// ids).
///
/// For undirected collaboration networks, symmetrize afterwards with
/// [`lcrb_graph::DiGraph::symmetrized`], matching the paper's
/// treatment of the Hep network ("we represent each undirected edge
/// `(i,j)` by two directed edges", §VI-A2).
///
/// # Errors
///
/// Returns [`ParseEdgeListError`] for I/O failures or malformed
/// lines.
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> Result<LoadedGraph, ParseEdgeListError> {
    let file = File::open(path)?;
    read_edge_list(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn loads_a_file_from_disk() {
        let dir = std::env::temp_dir();
        let path = dir.join("lcrb_loader_test_edges.txt");
        {
            let mut f = File::create(&path).unwrap();
            writeln!(f, "# test graph").unwrap();
            writeln!(f, "a b").unwrap();
            writeln!(f, "b c").unwrap();
        }
        let loaded = load_edge_list(&path).unwrap();
        assert_eq!(loaded.graph.node_count(), 3);
        assert_eq!(loaded.graph.edge_count(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load_edge_list("/nonexistent/lcrb/edges.txt").unwrap_err();
        assert!(matches!(err, ParseEdgeListError::Io(_)));
    }
}
