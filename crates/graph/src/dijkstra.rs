//! Single-source and all-pairs shortest paths (Dijkstra).
//!
//! Shortest-path distances under `ct` are exactly the paper's metric
//! `ct(v, v')`; [`apsp`] materializes the full [`Metric`] closure.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::{Graph, NodeId};
use crate::metric::Metric;

/// Result of a single-source shortest-path computation.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    /// Source node.
    pub source: NodeId,
    /// `dist[v]` = cheapest path cost from the source to `v`
    /// (`f64::INFINITY` when unreachable).
    pub dist: Vec<f64>,
    /// Predecessor of `v` on a cheapest path (`None` for the source and for
    /// unreachable nodes).
    pub parent: Vec<Option<NodeId>>,
}

impl ShortestPaths {
    /// Reconstructs the node sequence of a cheapest path from the source to
    /// `target`, inclusive. Returns `None` when `target` is unreachable.
    pub fn path_to(&self, target: NodeId) -> Option<Vec<NodeId>> {
        if self.dist[target].is_infinite() {
            return None;
        }
        let mut path = vec![target];
        let mut cur = target;
        while let Some(p) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }
}

/// Min-heap entry of the Dijkstra searches in this crate.
#[derive(PartialEq)]
pub(crate) struct HeapItem {
    pub(crate) dist: f64,
    pub(crate) node: NodeId,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance via reversed comparison; distances are finite
        // non-negative, never NaN.
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("distances are not NaN")
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra's algorithm from `source`; `O((n + m) log n)`.
pub fn shortest_paths(g: &Graph, source: NodeId) -> ShortestPaths {
    let n = g.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    let mut heap = BinaryHeap::with_capacity(n);
    dist[source] = 0.0;
    heap.push(HeapItem {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapItem { dist: d, node: v }) = heap.pop() {
        if d > dist[v] {
            continue; // stale entry
        }
        for a in g.neighbors(v) {
            let nd = d + a.w;
            if nd < dist[a.to] {
                dist[a.to] = nd;
                parent[a.to] = Some(v);
                heap.push(HeapItem {
                    dist: nd,
                    node: a.to,
                });
            }
        }
    }
    ShortestPaths {
        source,
        dist,
        parent,
    }
}

/// All-pairs shortest paths: the paper's metric closure of the network.
///
/// Runs one Dijkstra per node, `O(n (n + m) log n)` total. The graph must be
/// connected — the metric of a disconnected graph would contain infinite
/// distances, which the placement model cannot serve.
///
/// # Panics
/// Panics when the graph is disconnected.
pub fn apsp(g: &Graph) -> Metric {
    let n = g.num_nodes();
    let mut d = vec![0.0; n * n];
    for v in 0..n {
        let sp = shortest_paths(g, v);
        assert!(
            sp.dist.iter().all(|x| x.is_finite()),
            "apsp requires a connected graph"
        );
        d[v * n..(v + 1) * n].copy_from_slice(&sp.dist);
    }
    Metric::from_matrix(n, d)
}

/// Weighted diameter: the largest metric distance between any two nodes.
pub fn weighted_diameter(metric: &Metric) -> f64 {
    let n = metric.len();
    let mut best: f64 = 0.0;
    for u in 0..n {
        for v in (u + 1)..n {
            best = best.max(metric.dist(u, v));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::Graph;

    #[test]
    fn line_distances() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)]);
        let sp = shortest_paths(&g, 0);
        assert_eq!(sp.dist, vec![0.0, 1.0, 3.0, 7.0]);
        assert_eq!(sp.path_to(3).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn prefers_cheaper_detour() {
        // Direct edge 0-2 costs 10, detour through 1 costs 3.
        let g = Graph::from_edges(3, [(0, 2, 10.0), (0, 1, 1.0), (1, 2, 2.0)]);
        let sp = shortest_paths(&g, 0);
        assert_eq!(sp.dist[2], 3.0);
        assert_eq!(sp.path_to(2).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = Graph::from_edges(3, [(0, 1, 1.0)]);
        let sp = shortest_paths(&g, 0);
        assert!(sp.dist[2].is_infinite());
        assert!(sp.path_to(2).is_none());
    }

    #[test]
    fn apsp_is_a_metric() {
        let g = generators::grid(3, 4, |_, _| 1.0);
        let m = apsp(&g);
        m.check_axioms(1e-9).unwrap();
        // Opposite corners of a 3x4 unit grid: L1 distance 2 + 3 = 5.
        assert_eq!(m.dist(0, 11), 5.0);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn apsp_rejects_disconnected() {
        let g = Graph::new(2);
        apsp(&g);
    }

    #[test]
    fn diameter_of_path() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)]);
        let m = apsp(&g);
        assert_eq!(weighted_diameter(&m), 7.0);
    }
}
