//! Weighted undirected graphs with non-negative edge costs.
//!
//! The node set models processors with their memory modules; edges model
//! communication links with a fee per transmitted object (the paper's `ct`).

/// Index of a node in a [`Graph`]. Nodes are dense integers `0..n`.
pub type NodeId = usize;

/// Index of an edge in a [`Graph`], in insertion order.
pub type EdgeId = usize;

/// An undirected edge with a non-negative transmission cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// Transmission cost `ct(e) >= 0`.
    pub w: f64,
}

/// A half-edge stored in the adjacency list of its source node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arc {
    /// Target node.
    pub to: NodeId,
    /// Transmission cost of the underlying edge.
    pub w: f64,
    /// Identifier of the underlying undirected edge.
    pub edge: EdgeId,
}

/// A weighted undirected graph over nodes `0..n`.
///
/// Parallel edges and self-loops are rejected: the model never needs them
/// (a self-loop cannot carry useful traffic, and only the cheapest of a set
/// of parallel links would ever be used).
#[derive(Debug, Clone, Default)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    adj: Vec<Vec<Arc>>,
}

impl Graph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n
    }

    /// Adds an undirected edge and returns its id.
    ///
    /// # Panics
    /// Panics on self-loops, out-of-range endpoints, or negative/non-finite
    /// weights. Duplicate edges between the same endpoints are allowed only
    /// through [`Graph::try_add_edge`], which rejects them.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: f64) -> EdgeId {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        assert!(u != v, "self-loops are not allowed");
        assert!(
            w.is_finite() && w >= 0.0,
            "edge weight must be finite and >= 0"
        );
        let id = self.edges.len();
        self.edges.push(Edge { u, v, w });
        self.adj[u].push(Arc { to: v, w, edge: id });
        self.adj[v].push(Arc { to: u, w, edge: id });
        id
    }

    /// Adds an edge unless one already exists between `u` and `v`; returns
    /// the new edge id, or `None` if the edge was already present.
    pub fn try_add_edge(&mut self, u: NodeId, v: NodeId, w: f64) -> Option<EdgeId> {
        if self.has_edge(u, v) {
            None
        } else {
            Some(self.add_edge(u, v, w))
        }
    }

    /// Returns true when an edge between `u` and `v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u].iter().any(|a| a.to == v)
    }

    /// The edge with the given id.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id]
    }

    /// All edges in insertion order.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Adjacency list of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[Arc] {
        &self.adj[v]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v].len()
    }

    /// Maximum node degree, `deg(G)` in the paper. Zero for empty graphs.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.w).sum()
    }

    /// True when the graph is connected (vacuously true for `n <= 1`).
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![0];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for a in &self.adj[v] {
                if !seen[a.to] {
                    seen[a.to] = true;
                    count += 1;
                    stack.push(a.to);
                }
            }
        }
        count == self.n
    }

    /// True when the graph is a tree: connected with exactly `n - 1` edges.
    pub fn is_tree(&self) -> bool {
        self.n >= 1 && self.edges.len() == self.n - 1 && self.is_connected()
    }

    /// Builds a graph directly from an edge list.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId, f64)>) -> Self {
        let mut g = Graph::new(n);
        for (u, v, w) in edges {
            g.add_edge(u, v, w);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_queries() {
        let mut g = Graph::new(4);
        let e0 = g.add_edge(0, 1, 1.0);
        let e1 = g.add_edge(1, 2, 2.5);
        assert_eq!(e0, 0);
        assert_eq!(e1, 1);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(3), 0);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.edge(1).w, 2.5);
        assert_eq!(g.max_degree(), 2);
        assert!((g.total_weight() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn connectivity() {
        let mut g = Graph::new(3);
        assert!(!g.is_connected());
        g.add_edge(0, 1, 1.0);
        assert!(!g.is_connected());
        g.add_edge(1, 2, 1.0);
        assert!(g.is_connected());
        assert!(g.is_tree());
        g.add_edge(0, 2, 1.0);
        assert!(!g.is_tree());
    }

    #[test]
    fn try_add_edge_rejects_duplicates() {
        let mut g = Graph::new(3);
        assert!(g.try_add_edge(0, 1, 1.0).is_some());
        assert!(g.try_add_edge(1, 0, 2.0).is_none());
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_negative_weight() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, -1.0);
    }

    #[test]
    fn singleton_is_tree() {
        let g = Graph::new(1);
        assert!(g.is_tree());
        assert!(g.is_connected());
    }
}
