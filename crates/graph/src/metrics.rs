//! Structural graph metrics used to calibrate and sanity-check the
//! synthetic datasets against the statistics the paper reports
//! (average node degree, density, etc.).

use crate::DiGraph;

/// Average out-degree, `m / n` (0 for the empty graph).
///
/// For symmetrized undirected graphs this equals the undirected
/// average degree, which is the quantity the paper reports ("average
/// node degree of 10.0" for Enron, 7.73 for Hep).
#[must_use]
pub fn average_out_degree(g: &DiGraph) -> f64 {
    if g.node_count() == 0 {
        0.0
    } else {
        g.edge_count() as f64 / g.node_count() as f64
    }
}

/// Directed density: `m / (n * (n - 1))` (0 for graphs with < 2
/// nodes).
#[must_use]
pub fn density(g: &DiGraph) -> f64 {
    let n = g.node_count();
    if n < 2 {
        0.0
    } else {
        g.edge_count() as f64 / (n * (n - 1)) as f64
    }
}

/// Fraction of edges `(u, v)` whose reciprocal `(v, u)` also exists
/// (1.0 for symmetrized graphs, 0 for graphs without edges).
#[must_use]
pub fn reciprocity(g: &DiGraph) -> f64 {
    if g.edge_count() == 0 {
        return 0.0;
    }
    let mutual = g.edges().filter(|&(u, v)| g.has_edge(v, u)).count();
    mutual as f64 / g.edge_count() as f64
}

/// A one-struct summary of the metrics above, convenient for logging
/// dataset calibration.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphSummary {
    /// Node count.
    pub nodes: usize,
    /// Directed edge count.
    pub edges: usize,
    /// Average out-degree.
    pub average_out_degree: f64,
    /// Directed density.
    pub density: f64,
    /// Edge reciprocity.
    pub reciprocity: f64,
    /// Maximum out-degree.
    pub max_out_degree: usize,
}

impl GraphSummary {
    /// Computes the summary for `g`.
    #[must_use]
    pub fn of(g: &DiGraph) -> Self {
        GraphSummary {
            nodes: g.node_count(),
            edges: g.edge_count(),
            average_out_degree: average_out_degree(g),
            density: density(g),
            reciprocity: reciprocity(g),
            max_out_degree: g.nodes().map(|v| g.out_degree(v)).max().unwrap_or(0),
        }
    }
}

impl core::fmt::Display for GraphSummary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} nodes, {} edges, avg out-degree {:.2}, density {:.6}, reciprocity {:.2}, max out-degree {}",
            self.nodes,
            self.edges,
            self.average_out_degree,
            self.density,
            self.reciprocity,
            self.max_out_degree
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete_graph, cycle_graph, path_graph, star_graph};

    #[test]
    fn average_degree_and_density() {
        let g = complete_graph(5);
        assert!((average_out_degree(&g) - 4.0).abs() < 1e-12);
        assert!((density(&g) - 1.0).abs() < 1e-12);
        let p = path_graph(4);
        assert!((average_out_degree(&p) - 0.75).abs() < 1e-12);
        assert!((density(&p) - 3.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_metrics() {
        let g = DiGraph::new();
        assert_eq!(average_out_degree(&g), 0.0);
        assert_eq!(density(&g), 0.0);
        assert_eq!(reciprocity(&g), 0.0);
    }

    #[test]
    fn reciprocity_of_cycle_and_star() {
        assert_eq!(reciprocity(&cycle_graph(5)), 0.0);
        assert_eq!(reciprocity(&star_graph(5)), 1.0);
        // A 2-cycle is fully reciprocal.
        let g = DiGraph::from_edges(2, [(0, 1), (1, 0)]).unwrap();
        assert_eq!(reciprocity(&g), 1.0);
    }

    #[test]
    fn summary_display_and_fields() {
        let g = star_graph(4);
        let s = GraphSummary::of(&g);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.edges, 6);
        assert_eq!(s.max_out_degree, 3);
        assert_eq!(s.reciprocity, 1.0);
        let text = s.to_string();
        assert!(text.contains("4 nodes"));
        assert!(text.contains("6 edges"));
    }
}
