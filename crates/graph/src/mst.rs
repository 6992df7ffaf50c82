//! Minimum spanning trees.
//!
//! The paper's write policy updates all copies along a minimum spanning tree
//! of the copy set *in the metric space* `ct` (Section 2). [`metric_mst`]
//! computes exactly that; [`kruskal`]/[`prim`] are the graph-level variants
//! used by the generators and in cross-validation tests.

use crate::dsu::DisjointSets;
use crate::graph::{EdgeId, Graph, NodeId};
use crate::metric::Metric;

/// A spanning tree (or forest) expressed by edge ids into the source graph.
#[derive(Debug, Clone)]
pub struct MstResult {
    /// Chosen edge ids, `n - c` of them for `c` components.
    pub edges: Vec<EdgeId>,
    /// Total weight of the chosen edges.
    pub weight: f64,
}

/// Kruskal's algorithm, `O(m log m)`. Returns a minimum spanning forest when
/// the graph is disconnected.
pub fn kruskal(g: &Graph) -> MstResult {
    let mut order: Vec<EdgeId> = (0..g.num_edges()).collect();
    order.sort_by(|&a, &b| {
        g.edge(a)
            .w
            .partial_cmp(&g.edge(b).w)
            .expect("weights are not NaN")
    });
    let mut dsu = DisjointSets::new(g.num_nodes());
    let mut edges = Vec::with_capacity(g.num_nodes().saturating_sub(1));
    let mut weight = 0.0;
    for id in order {
        let e = g.edge(id);
        if dsu.union(e.u, e.v) {
            edges.push(id);
            weight += e.w;
            if edges.len() + 1 == g.num_nodes() {
                break;
            }
        }
    }
    MstResult { edges, weight }
}

/// Prim's algorithm from node 0, `O(n^2)` (dense-friendly). Spans only the
/// component of node 0.
pub fn prim(g: &Graph) -> MstResult {
    let n = g.num_nodes();
    if n == 0 {
        return MstResult {
            edges: vec![],
            weight: 0.0,
        };
    }
    let mut in_tree = vec![false; n];
    let mut best = vec![f64::INFINITY; n];
    let mut best_edge: Vec<Option<EdgeId>> = vec![None; n];
    let mut edges = Vec::with_capacity(n - 1);
    let mut weight = 0.0;
    best[0] = 0.0;
    for _ in 0..n {
        let mut v = usize::MAX;
        let mut vd = f64::INFINITY;
        for u in 0..n {
            if !in_tree[u] && best[u] < vd {
                vd = best[u];
                v = u;
            }
        }
        if v == usize::MAX {
            break; // remaining nodes unreachable
        }
        in_tree[v] = true;
        if let Some(eid) = best_edge[v] {
            edges.push(eid);
            weight += g.edge(eid).w;
        }
        for a in g.neighbors(v) {
            if !in_tree[a.to] && a.w < best[a.to] {
                best[a.to] = a.w;
                best_edge[a.to] = Some(a.edge);
            }
        }
    }
    MstResult { edges, weight }
}

/// Minimum spanning tree of the complete graph induced by `metric` on
/// `nodes`, returned as pairs of node ids. `O(k^2)` Prim.
///
/// This is the paper's update multicast tree over a copy set: a write sends
/// one message along the branches of this tree to reach every copy.
pub fn metric_mst(metric: &Metric, nodes: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let k = nodes.len();
    if k <= 1 {
        return Vec::new();
    }
    let mut in_tree = vec![false; k];
    let mut best = vec![f64::INFINITY; k];
    let mut best_from = vec![0usize; k];
    let mut edges = Vec::with_capacity(k - 1);
    best[0] = 0.0;
    for round in 0..k {
        let mut i = usize::MAX;
        let mut id = f64::INFINITY;
        for j in 0..k {
            if !in_tree[j] && best[j] <= id {
                id = best[j];
                i = j;
            }
        }
        in_tree[i] = true;
        if round > 0 {
            edges.push((nodes[best_from[i]], nodes[i]));
        }
        for j in 0..k {
            if !in_tree[j] {
                let d = metric.dist(nodes[i], nodes[j]);
                if d < best[j] {
                    best[j] = d;
                    best_from[j] = i;
                }
            }
        }
    }
    edges
}

/// Total weight of the metric MST over `nodes` (0 for fewer than two nodes).
pub fn metric_mst_weight(metric: &Metric, nodes: &[NodeId]) -> f64 {
    metric_mst(metric, nodes)
        .iter()
        .map(|&(u, v)| metric.dist(u, v))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::apsp;
    use crate::generators;
    use crate::graph::Graph;
    use crate::metric::Metric;

    fn square_with_diagonal() -> Graph {
        Graph::from_edges(
            4,
            [
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 1.0),
                (3, 0, 2.0),
                (0, 2, 1.5),
            ],
        )
    }

    #[test]
    fn kruskal_and_prim_agree() {
        let g = square_with_diagonal();
        let k = kruskal(&g);
        let p = prim(&g);
        assert_eq!(k.edges.len(), 3);
        assert_eq!(p.edges.len(), 3);
        assert!((k.weight - 3.5).abs() < 1e-12);
        assert!((p.weight - k.weight).abs() < 1e-12);
    }

    #[test]
    fn mst_of_tree_is_tree_itself() {
        let g = generators::kary_tree(10, 3, |_| 2.0);
        let k = kruskal(&g);
        assert_eq!(k.edges.len(), 9);
        assert!((k.weight - g.total_weight()).abs() < 1e-12);
    }

    #[test]
    fn metric_mst_simple() {
        let m = Metric::from_line(&[0.0, 1.0, 10.0, 11.0]);
        let edges = metric_mst(&m, &[0, 1, 2, 3]);
        assert_eq!(edges.len(), 3);
        let w = metric_mst_weight(&m, &[0, 1, 2, 3]);
        assert!((w - 11.0).abs() < 1e-12); // 1 + 9 + 1
    }

    #[test]
    fn metric_mst_trivial_sets() {
        let m = Metric::uniform(4, 1.0);
        assert!(metric_mst(&m, &[]).is_empty());
        assert!(metric_mst(&m, &[2]).is_empty());
        assert_eq!(metric_mst_weight(&m, &[2]), 0.0);
        assert_eq!(metric_mst(&m, &[1, 3]).len(), 1);
    }

    #[test]
    fn metric_mst_matches_graph_mst_on_full_node_set() {
        let g = generators::grid(3, 3, |u, v| ((u + v) % 3 + 1) as f64);
        let m = apsp(&g);
        let nodes: Vec<usize> = (0..9).collect();
        let metric_w = metric_mst_weight(&m, &nodes);
        let graph_w = kruskal(&g).weight;
        // Metric MST can only be cheaper or equal (shortcuts through paths).
        assert!(metric_w <= graph_w + 1e-9);
        assert!(metric_w > 0.0);
    }

    #[test]
    fn forest_on_disconnected_graph() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (2, 3, 2.0)]);
        let k = kruskal(&g);
        assert_eq!(k.edges.len(), 2);
        assert!((k.weight - 3.0).abs() < 1e-12);
    }
}
