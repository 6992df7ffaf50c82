//! Sparse pieces of the metric closure.
//!
//! The dense [`apsp`](crate::apsp) closure is `O(n^2)` memory and
//! `O(n (n+m) log n)` time — fine at a few hundred nodes, prohibitive at
//! 10^4+. The sparse solve path never materializes the full matrix; instead
//! it works per object with
//!
//! * [`ball_candidates`]: a candidate facility set grown around a client
//!   cloud by multi-source Dijkstra (the "interesting" nodes per object in
//!   the doubling-metric-decomposition sense), and
//! * [`TruncatedClosure`]: the exact restriction of the metric closure to
//!   that set, one row per early-stopped Dijkstra from its target, built
//!   only when a caller requests it. [`truncated_closure`] requests every
//!   row. Each row is bit-identical to the matching entries of
//!   `apsp(g)`, because every row *is* a Dijkstra run from that target.
//!
//! A closure row needs only labels, so it runs the crate's distance-only
//! kernel on a radix heap (see [`dijkstra`](crate::dijkstra)); the early
//! stop reads a target only after it pops. [`ball_candidates`] keeps the
//! binary heap: it returns the first pops, so the order among equal keys
//! decides which nodes sit on the ball's boundary.

use std::collections::BinaryHeap;

use crate::dijkstra::{dijkstra_into, HeapItem};
use crate::graph::{Graph, NodeId};
use crate::metric::Metric;
use crate::radix_heap::RadixHeap;

/// The metric closure restricted to `targets`, with rows built on request.
///
/// Row `i` holds the shortest-path distances from `targets[i]` to every
/// target. [`build_row`](Self::build_row) fills it with one Dijkstra from
/// `targets[i]`, stopped as soon as every target has settled, so a row
/// costs the ball around the target set rather than the whole graph. The
/// table, the per-row built flags, the node-to-target map and the
/// Dijkstra scratch live here and are reused across rows.
///
/// A row that was never built holds NaN, so it cannot pass for a
/// distance; debug builds panic when [`Metric::row`] or [`Metric::dist`]
/// reads one.
#[derive(Debug)]
pub struct TruncatedClosure<'a> {
    graph: &'a Graph,
    targets: &'a [NodeId],
    /// `pos[v]` is `v`'s index in `targets`, or `usize::MAX`.
    pos: Vec<usize>,
    metric: Metric,
    built: Vec<bool>,
    /// Dijkstra labels over the whole graph.
    dist: Vec<f64>,
    heap: RadixHeap,
}

impl<'a> TruncatedClosure<'a> {
    /// A closure over `targets` in `g` with no row built yet.
    ///
    /// # Panics
    /// Panics when `targets` contains duplicates.
    pub fn new(g: &'a Graph, targets: &'a [NodeId]) -> Self {
        let n = g.num_nodes();
        let k = targets.len();
        let mut pos = vec![usize::MAX; n];
        for (i, &t) in targets.iter().enumerate() {
            assert!(pos[t] == usize::MAX, "duplicate target {t}");
            pos[t] = i;
        }
        TruncatedClosure {
            graph: g,
            targets,
            pos,
            metric: Metric::from_matrix(k, vec![f64::NAN; k * k]),
            built: vec![false; k],
            dist: vec![f64::INFINITY; n],
            heap: RadixHeap::new(),
        }
    }

    /// Builds row `i` (the distances from `targets[i]`) unless it exists.
    ///
    /// # Panics
    /// Panics when some target is unreachable from `targets[i]`.
    pub fn build_row(&mut self, i: usize) {
        if self.built[i] {
            return;
        }
        let (targets, pos, dist) = (self.targets, &self.pos, &mut self.dist);
        let k = targets.len();
        // Reset only what the previous run touched is more bookkeeping than
        // it is worth; a fill is O(n) against an O(ball log ball) search.
        dist.fill(f64::INFINITY);
        let mut settled = 0usize;
        dijkstra_into(self.graph, targets[i], dist, &mut self.heap, |v| {
            if pos[v] != usize::MAX {
                settled += 1;
            }
            settled == k // every target's distance is final
        });
        for (slot, &t) in self.metric.row_mut(i).iter_mut().zip(targets) {
            assert!(
                dist[t].is_finite(),
                "truncated closure requires targets in one connected component"
            );
            *slot = dist[t];
        }
        self.built[i] = true;
    }

    /// True when row `i` has been built.
    pub fn is_built(&self, i: usize) -> bool {
        self.built[i]
    }

    /// Number of rows built so far.
    pub fn rows_built(&self) -> usize {
        self.built.iter().filter(|&&b| b).count()
    }

    /// The table over target indices; only built rows may be read.
    pub fn metric(&self) -> &Metric {
        &self.metric
    }

    /// The table, once every row a caller reads has been built.
    pub(crate) fn into_metric(self) -> Metric {
        self.metric
    }
}

/// Exact metric closure restricted to `targets`: `result.dist(i, j)` is the
/// shortest-path distance between `targets[i]` and `targets[j]` in `g`.
///
/// Every row of a [`TruncatedClosure`], built in target order. Values are
/// bit-identical to `apsp(g).restrict(targets)` (a dense row is the same
/// Dijkstra run to completion).
///
/// # Panics
/// Panics when some pair of targets is disconnected, or when `targets`
/// contains duplicates.
pub fn truncated_closure(g: &Graph, targets: &[NodeId]) -> Metric {
    let mut closure = TruncatedClosure::new(g, targets);
    for i in 0..targets.len() {
        closure.build_row(i);
    }
    closure.into_metric()
}

/// Grows a candidate node set around `seeds` to roughly `target_size` nodes
/// by multi-source Dijkstra: the returned set is the `target_size` nodes
/// nearest to the seed cloud (always including every seed), sorted by node
/// id ascending.
///
/// This is the per-object facility candidate set of the sparse solve path:
/// clients plus the ball around them where a copy could plausibly pay off.
/// A seed listed more than once counts once.
pub fn ball_candidates(g: &Graph, seeds: &[NodeId], target_size: usize) -> Vec<NodeId> {
    let n = g.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut heap = BinaryHeap::with_capacity(seeds.len().max(64));
    for &s in seeds {
        if dist[s] != 0.0 {
            dist[s] = 0.0;
            heap.push(HeapItem { dist: 0.0, node: s });
        }
    }
    let want = target_size.clamp(heap.len(), n);
    let mut out = Vec::with_capacity(want);
    while let Some(HeapItem { dist: dv, node: v }) = heap.pop() {
        if dv > dist[v] {
            continue;
        }
        out.push(v);
        if out.len() == want {
            break;
        }
        for a in g.neighbors(v) {
            let nd = dv + a.w;
            if nd < dist[a.to] {
                dist[a.to] = nd;
                heap.push(HeapItem {
                    dist: nd,
                    node: a.to,
                });
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::apsp;
    use crate::generators;

    #[test]
    fn full_truncated_closure_matches_apsp_bitwise() {
        let g = generators::grid(4, 5, |u, v| 1.0 + ((u + v) % 3) as f64);
        let all: Vec<NodeId> = (0..g.num_nodes()).collect();
        let dense = apsp(&g);
        let sparse = truncated_closure(&g, &all);
        for u in 0..g.num_nodes() {
            for v in 0..g.num_nodes() {
                assert_eq!(dense.dist(u, v).to_bits(), sparse.dist(u, v).to_bits());
            }
        }
    }

    #[test]
    fn subset_truncated_closure_matches_restricted_apsp() {
        let g = generators::grid(5, 5, |u, v| 1.0 + (u % 4) as f64 * 0.25 + (v % 3) as f64);
        let subset = vec![0, 3, 7, 12, 18, 24];
        let dense = apsp(&g).restrict(&subset);
        let sparse = truncated_closure(&g, &subset);
        assert_eq!(dense.len(), sparse.len());
        for i in 0..subset.len() {
            for j in 0..subset.len() {
                assert_eq!(dense.dist(i, j).to_bits(), sparse.dist(i, j).to_bits());
            }
        }

        // Rows requested one by one, in a shuffled order and only some of
        // them, equal the eager rows bit for bit; the rest stay unbuilt.
        let mut lazy = TruncatedClosure::new(&g, &subset);
        for i in [4, 1, 4, 2] {
            lazy.build_row(i);
        }
        assert_eq!(lazy.rows_built(), 3);
        for i in 0..subset.len() {
            assert_eq!(lazy.is_built(i), [1, 2, 4].contains(&i), "row {i}");
            if lazy.is_built(i) {
                assert_eq!(bits(lazy.metric().row(i)), bits(sparse.row(i)), "row {i}");
            }
        }
        for i in [5, 0, 3] {
            lazy.build_row(i);
        }
        assert_eq!(lazy.rows_built(), subset.len());
        let lazy = lazy.into_metric();
        for i in 0..subset.len() {
            assert_eq!(bits(lazy.row(i)), bits(sparse.row(i)), "row {i}");
        }
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|d| d.to_bits()).collect()
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "never built"))]
    fn unbuilt_rows_hold_no_distance() {
        let g = generators::path(4, |_| 1.0);
        let targets = [0, 2, 3];
        let mut lazy = TruncatedClosure::new(&g, &targets);
        lazy.build_row(1);
        assert_eq!(lazy.metric().row(1), &[2.0, 0.0, 1.0]);
        // Debug builds panic on this read; release builds read NaN.
        assert!(lazy.metric().dist(0, 1).is_nan());
    }

    #[test]
    fn ball_candidates_cover_seeds_and_grow_outward() {
        let g = generators::grid(6, 6, |_, _| 1.0);
        let seeds = vec![0, 35];
        let ball = ball_candidates(&g, &seeds, 10);
        assert_eq!(ball.len(), 10);
        assert!(ball.contains(&0) && ball.contains(&35));
        assert!(ball.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        // Asking for at least the whole graph returns every node.
        let all = ball_candidates(&g, &seeds, 100);
        assert_eq!(all.len(), 36);
    }

    #[test]
    fn ball_candidates_count_a_repeated_seed_once() {
        assert_eq!(
            ball_candidates(&generators::path(10, |_| 1.0), &[0, 0], 1),
            [0]
        );
        assert_eq!(
            ball_candidates(&generators::path(2, |_| 1.0), &[0, 0, 0], 1),
            [0]
        );
    }
}
