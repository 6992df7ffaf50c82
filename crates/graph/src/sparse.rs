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
//! * [`truncated_closure`]: the exact restriction of the metric closure to
//!   that set, built by one early-stopped Dijkstra per target —
//!   bit-identical to `apsp(g).restrict(targets)` because every row *is* a
//!   Dijkstra run from that target.

use std::collections::BinaryHeap;

use crate::dijkstra::HeapItem;
use crate::graph::{Graph, NodeId};
use crate::metric::Metric;

/// Exact metric closure restricted to `targets`: `result.dist(i, j)` is the
/// shortest-path distance between `targets[i]` and `targets[j]` in `g`.
///
/// One Dijkstra per target, each stopped as soon as every target has
/// settled, so the work per row is proportional to the ball around the
/// target set rather than the whole graph. Values are bit-identical to
/// `apsp(g).restrict(targets)` (a dense row is the same Dijkstra run to
/// completion).
///
/// # Panics
/// Panics when some pair of targets is disconnected, or when `targets`
/// contains duplicates.
pub fn truncated_closure(g: &Graph, targets: &[NodeId]) -> Metric {
    let n = g.num_nodes();
    let k = targets.len();
    let mut pos = vec![usize::MAX; n];
    for (i, &t) in targets.iter().enumerate() {
        assert!(pos[t] == usize::MAX, "duplicate target {t}");
        pos[t] = i;
    }
    let mut d = vec![0.0; k * k];
    let mut dist = vec![f64::INFINITY; n];
    let mut heap = BinaryHeap::with_capacity(k.max(64));
    for (i, &s) in targets.iter().enumerate() {
        // Reset only what the previous run touched is more bookkeeping than
        // it is worth; a fill is O(n) against an O(ball log ball) search.
        dist.fill(f64::INFINITY);
        heap.clear();
        dist[s] = 0.0;
        heap.push(HeapItem { dist: 0.0, node: s });
        let mut settled = 0usize;
        while let Some(HeapItem { dist: dv, node: v }) = heap.pop() {
            if dv > dist[v] {
                continue; // stale entry
            }
            if pos[v] != usize::MAX {
                settled += 1;
                if settled == k {
                    break; // every target's distance is final
                }
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
        for (j, &t) in targets.iter().enumerate() {
            assert!(
                dist[t].is_finite(),
                "truncated closure requires targets in one connected component"
            );
            d[i * k + j] = dist[t];
        }
    }
    Metric::from_matrix(k, d)
}

/// Grows a candidate node set around `seeds` to roughly `target_size` nodes
/// by multi-source Dijkstra: the returned set is the `target_size` nodes
/// nearest to the seed cloud (always including every seed), sorted by node
/// id ascending.
///
/// This is the per-object facility candidate set of the sparse solve path:
/// clients plus the ball around them where a copy could plausibly pay off.
pub fn ball_candidates(g: &Graph, seeds: &[NodeId], target_size: usize) -> Vec<NodeId> {
    let n = g.num_nodes();
    let want = target_size.clamp(seeds.len(), n);
    let mut dist = vec![f64::INFINITY; n];
    let mut heap = BinaryHeap::with_capacity(seeds.len().max(64));
    for &s in seeds {
        if dist[s] != 0.0 {
            dist[s] = 0.0;
            heap.push(HeapItem { dist: 0.0, node: s });
        }
    }
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
}
