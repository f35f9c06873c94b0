//! The mutable adjacency-list directed graph.

// xtask-allow-file: index -- adjacency vectors are indexed by NodeIds validated on insertion against node_count
use std::collections::HashSet;

use crate::{GraphError, NodeId};

/// A simple directed graph (no parallel edges, no self-loops) with
/// dense `u32` node ids and both out- and in-adjacency lists.
///
/// This is the workhorse structure of the reproduction: every
/// algorithm crate (`lcrb-community`, `lcrb-diffusion`, `lcrb`)
/// traverses social networks through this type. Out- and in-neighbor
/// lists are both maintained because the paper's algorithms need both
/// directions (forward rumor search for bridge ends, backward search
/// for BBSTs).
///
/// # Examples
///
/// ```
/// use lcrb_graph::DiGraph;
///
/// # fn main() -> Result<(), lcrb_graph::GraphError> {
/// let mut g = DiGraph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let c = g.add_node();
/// g.add_edge(a, b)?;
/// g.add_edge(b, c)?;
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.out_neighbors(a), &[b]);
/// assert_eq!(g.in_neighbors(c), &[b]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct DiGraph {
    out: Vec<Vec<NodeId>>,
    ins: Vec<Vec<NodeId>>,
    edge_count: usize,
    edge_set: HashSet<u64>,
}

#[inline]
fn edge_key(u: NodeId, v: NodeId) -> u64 {
    (u64::from(u.raw()) << 32) | u64::from(v.raw())
}

impl DiGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        DiGraph::default()
    }

    /// Creates an empty graph with room for `nodes` nodes.
    #[must_use]
    pub fn with_capacity(nodes: usize) -> Self {
        DiGraph {
            out: Vec::with_capacity(nodes),
            ins: Vec::with_capacity(nodes),
            edge_count: 0,
            edge_set: HashSet::new(),
        }
    }

    /// Creates a graph with `nodes` isolated nodes.
    #[must_use]
    pub fn with_nodes(nodes: usize) -> Self {
        let mut g = DiGraph::with_capacity(nodes);
        g.add_nodes(nodes);
        g
    }

    /// Builds a graph with `nodes` nodes from `(source, target)` index
    /// pairs.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if an endpoint is `>=
    /// nodes` and [`GraphError::SelfLoop`] for `(v, v)` pairs.
    /// Duplicate edges are silently collapsed.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb_graph::DiGraph;
    ///
    /// # fn main() -> Result<(), lcrb_graph::GraphError> {
    /// let g = DiGraph::from_edges(3, [(0, 1), (1, 2), (0, 1)])?;
    /// assert_eq!(g.edge_count(), 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_edges<I>(nodes: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut g = DiGraph::with_nodes(nodes);
        for (u, v) in edges {
            if u >= nodes {
                return Err(GraphError::NodeOutOfBounds {
                    node: NodeId::new(u),
                    node_count: nodes,
                });
            }
            if v >= nodes {
                return Err(GraphError::NodeOutOfBounds {
                    node: NodeId::new(v),
                    node_count: nodes,
                });
            }
            g.add_edge(NodeId::new(u), NodeId::new(v))?;
        }
        Ok(g)
    }

    /// Number of nodes.
    #[inline]
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Number of distinct directed edges.
    #[inline]
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no nodes.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Adds a node and returns its id (ids are assigned densely in
    /// insertion order).
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::new(self.out.len());
        self.out.push(Vec::new());
        self.ins.push(Vec::new());
        id
    }

    /// Adds `count` nodes, returning the id of the first one added.
    pub fn add_nodes(&mut self, count: usize) -> NodeId {
        let first = NodeId::new(self.out.len());
        self.out.resize_with(self.out.len() + count, Vec::new);
        self.ins.resize_with(self.ins.len() + count, Vec::new);
        first
    }

    /// Returns `true` if `node` is a valid id for this graph.
    #[inline]
    #[must_use]
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.out.len()
    }

    fn check_node(&self, node: NodeId) -> Result<(), GraphError> {
        if self.contains_node(node) {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds {
                node,
                node_count: self.node_count(),
            })
        }
    }

    /// Inserts the directed edge `(u, v)`.
    ///
    /// Returns `Ok(true)` if the edge was inserted and `Ok(false)` if
    /// it was already present.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] for unknown endpoints
    /// and [`GraphError::SelfLoop`] when `u == v`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if !self.edge_set.insert(edge_key(u, v)) {
            return Ok(false);
        }
        self.out[u.index()].push(v);
        self.ins[v.index()].push(u);
        self.edge_count += 1;
        Ok(true)
    }

    /// Inserts both `(u, v)` and `(v, u)`.
    ///
    /// Returns the number of edges actually inserted (0, 1 or 2).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`DiGraph::add_edge`].
    pub fn add_edge_symmetric(&mut self, u: NodeId, v: NodeId) -> Result<usize, GraphError> {
        let a = self.add_edge(u, v)?;
        let b = self.add_edge(v, u)?;
        Ok(usize::from(a) + usize::from(b))
    }

    /// Returns `true` if the directed edge `(u, v)` exists.
    ///
    /// Unknown endpoints simply yield `false`.
    #[inline]
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_set.contains(&edge_key(u, v))
    }

    /// Out-neighbors of `node`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the graph.
    #[inline]
    #[must_use]
    pub fn out_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.out[node.index()]
    }

    /// In-neighbors of `node`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the graph.
    #[inline]
    #[must_use]
    pub fn in_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.ins[node.index()]
    }

    /// Out-degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the graph.
    #[inline]
    #[must_use]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out[node.index()].len()
    }

    /// In-degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the graph.
    #[inline]
    #[must_use]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.ins[node.index()].len()
    }

    /// Total degree (in + out) of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the graph.
    #[inline]
    #[must_use]
    pub fn degree(&self, node: NodeId) -> usize {
        self.out_degree(node) + self.in_degree(node)
    }

    /// Iterates over all node ids `0..node_count()`.
    pub fn nodes(&self) -> Nodes {
        Nodes {
            range: 0..self.node_count() as u32,
        }
    }

    /// Iterates over all directed edges as `(source, target)` pairs,
    /// grouped by source in insertion order.
    pub fn edges(&self) -> Edges<'_> {
        Edges {
            graph: self,
            source: 0,
            offset: 0,
        }
    }

    /// Returns the symmetrized graph: for every edge `(u, v)` the
    /// reciprocal `(v, u)` is also present. Used to treat undirected
    /// datasets (e.g. the Hep collaboration network, §VI-A of the
    /// paper) as directed graphs.
    #[must_use]
    pub fn symmetrized(&self) -> DiGraph {
        let mut g = DiGraph::with_nodes(self.node_count());
        for (u, v) in self.edges() {
            let _ = g.add_edge(u, v);
            let _ = g.add_edge(v, u);
        }
        g
    }
}

/// Iterator over node ids of a [`DiGraph`], created by
/// [`DiGraph::nodes`].
#[derive(Clone, Debug)]
pub struct Nodes {
    range: core::ops::Range<u32>,
}

impl Iterator for Nodes {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        self.range.next().map(NodeId::from_raw)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for Nodes {}

/// Iterator over directed edges of a [`DiGraph`], created by
/// [`DiGraph::edges`].
#[derive(Clone, Debug)]
pub struct Edges<'a> {
    graph: &'a DiGraph,
    source: usize,
    offset: usize,
}

impl Iterator for Edges<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        while self.source < self.graph.node_count() {
            let nbrs = &self.graph.out[self.source];
            if self.offset < nbrs.len() {
                let item = (NodeId::new(self.source), nbrs[self.offset]);
                self.offset += 1;
                return Some(item);
            }
            self.source += 1;
            self.offset = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        DiGraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.nodes().count(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn add_nodes_returns_first_id() {
        let mut g = DiGraph::new();
        assert_eq!(g.add_node(), NodeId::new(0));
        assert_eq!(g.add_nodes(3), NodeId::new(1));
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn add_edge_rejects_self_loop() {
        let mut g = DiGraph::with_nodes(2);
        let err = g.add_edge(NodeId::new(1), NodeId::new(1)).unwrap_err();
        assert_eq!(
            err,
            GraphError::SelfLoop {
                node: NodeId::new(1)
            }
        );
    }

    #[test]
    fn add_edge_rejects_out_of_bounds() {
        let mut g = DiGraph::with_nodes(2);
        let err = g.add_edge(NodeId::new(0), NodeId::new(5)).unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfBounds {
                node: NodeId::new(5),
                node_count: 2
            }
        );
    }

    #[test]
    fn add_edge_deduplicates() {
        let mut g = DiGraph::with_nodes(2);
        assert!(g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap());
        assert!(!g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap());
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out_degree(NodeId::new(0)), 1);
        assert_eq!(g.in_degree(NodeId::new(1)), 1);
    }

    #[test]
    fn directed_edges_are_one_way() {
        let g = DiGraph::from_edges(2, [(0, 1)]).unwrap();
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!g.has_edge(NodeId::new(1), NodeId::new(0)));
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = diamond();
        assert_eq!(g.out_degree(NodeId::new(0)), 2);
        assert_eq!(g.in_degree(NodeId::new(0)), 0);
        assert_eq!(g.in_degree(NodeId::new(3)), 2);
        assert_eq!(g.degree(NodeId::new(3)), 2);
        assert_eq!(
            g.out_neighbors(NodeId::new(0)),
            &[NodeId::new(1), NodeId::new(2)]
        );
        assert_eq!(
            g.in_neighbors(NodeId::new(3)),
            &[NodeId::new(1), NodeId::new(2)]
        );
    }

    #[test]
    fn edges_iterator_lists_all_edges() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&(NodeId::new(0), NodeId::new(2))));
        assert!(edges.contains(&(NodeId::new(2), NodeId::new(3))));
    }

    #[test]
    fn symmetrized_contains_both_directions() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let s = g.symmetrized();
        assert_eq!(s.edge_count(), 4);
        assert!(s.has_edge(NodeId::new(1), NodeId::new(0)));
        assert!(s.has_edge(NodeId::new(2), NodeId::new(1)));
        // Symmetrizing twice is idempotent.
        assert_eq!(s.symmetrized().edge_count(), 4);
    }

    #[test]
    fn from_edges_out_of_bounds() {
        let err = DiGraph::from_edges(2, [(0, 2)]).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfBounds { .. }));
    }

    #[test]
    fn nodes_iterator_is_exact_size() {
        let g = DiGraph::with_nodes(5);
        let it = g.nodes();
        assert_eq!(it.len(), 5);
        assert_eq!(it.last(), Some(NodeId::new(4)));
    }
}
