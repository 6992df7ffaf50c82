//! Incremental nearest-copy distances.
//!
//! The radius phases of the 3-phase algorithm repeatedly ask "how far is
//! node `v` from its nearest copy?" while copies are only ever *added*
//! (phase 2). [`NearestCopyOracle`] maintains that distance incrementally:
//! each copy add is one `O(n)` fold of the copy's row, each query `O(1)`,
//! replacing an `O(|copies|)` scan per query.

use dmn_graph::{Metric, NodeId};

/// Per-node nearest-copy distance with incremental adds: node `v`'s
/// answer is the minimum over copies `c` of `d(c, v)`, read from the
/// copy's row.
///
/// Reading copy rows means a sparse metric source needs rows only for
/// copies, and the dense and sparse sources read the same entries, so
/// they agree bit for bit even where a closure is symmetric only up to
/// an ulp.
#[derive(Debug, Clone)]
pub struct NearestCopyOracle {
    dist: Vec<f64>,
}

impl NearestCopyOracle {
    /// An oracle over `n` nodes with no copies (all distances infinite).
    pub fn new(n: usize) -> Self {
        NearestCopyOracle {
            dist: vec![f64::INFINITY; n],
        }
    }

    /// Forgets all copies (distances back to infinite).
    pub fn clear(&mut self) {
        self.dist.fill(f64::INFINITY);
    }

    /// Rebuilds the oracle from a copy set.
    pub fn reset(&mut self, metric: &Metric, copies: &[NodeId]) {
        self.clear();
        for &c in copies {
            self.add_copy(metric, c);
        }
    }

    /// Folds one new copy into every node's distance: `O(n)`, reading
    /// only row `c`.
    pub fn add_copy(&mut self, metric: &Metric, c: NodeId) {
        for (slot, &d) in self.dist.iter_mut().zip(metric.row(c)) {
            if d < *slot {
                *slot = d;
            }
        }
    }

    /// Distance from `v` to its nearest copy; `f64::INFINITY` with no
    /// copies.
    #[inline]
    pub fn nearest_dist(&self, v: NodeId) -> f64 {
        self.dist[v]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmn_graph::Metric;

    #[test]
    fn answers_the_minimum_over_copy_rows() {
        // Every row but the copies' is pushed 100 further out, so reading
        // the querying node's own row would change the answer.
        let line = Metric::from_line(&[0.0, 1.0, 4.0, 10.0, 11.0]);
        let mut d = Vec::new();
        for u in 0..5 {
            let far = if u == 1 || u == 3 { 0.0 } else { 100.0 };
            d.extend((0..5).map(|v| if u == v { 0.0 } else { line.dist(u, v) + far }));
        }
        let m = Metric::from_matrix(5, d);
        let mut o = NearestCopyOracle::new(5);
        o.add_copy(&m, 1);
        o.add_copy(&m, 3);
        let got: Vec<f64> = (0..5).map(|v| o.nearest_dist(v)).collect();
        assert_eq!(got, vec![1.0, 0.0, 3.0, 0.0, 1.0]);
    }

    #[test]
    fn reset_and_clear() {
        let m = Metric::from_line(&[0.0, 2.0, 5.0]);
        let mut o = NearestCopyOracle::new(3);
        o.reset(&m, &[2]);
        assert_eq!(o.nearest_dist(0), 5.0);
        o.reset(&m, &[0, 1]);
        assert_eq!(o.nearest_dist(2), 3.0);
        o.clear();
        assert!(o.nearest_dist(1).is_infinite());
    }
}
