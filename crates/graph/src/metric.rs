//! The metric closure `ct(v, v')` of a network.
//!
//! The paper defines `ct(v, v') := min over paths p from v to v' of the sum
//! of edge costs on p`, which is non-negative, symmetric, and satisfies the
//! triangle inequality — a metric (Section 1.1). Both the approximation
//! algorithm and all cost accounting operate on this metric view.

use crate::graph::NodeId;

/// A dense symmetric distance matrix over `n` nodes (row-major).
#[derive(Debug, Clone)]
pub struct Metric {
    n: usize,
    d: Vec<f64>,
}

impl Metric {
    /// Builds a metric from a row-major `n * n` distance table.
    ///
    /// # Panics
    /// Panics when the table has the wrong size.
    pub fn from_matrix(n: usize, d: Vec<f64>) -> Self {
        assert_eq!(d.len(), n * n, "distance table must be n*n");
        Metric { n, d }
    }

    /// Builds the discrete metric scaled by `scale` (distance `scale` between
    /// distinct nodes, 0 on the diagonal). Handy in unit tests.
    pub fn uniform(n: usize, scale: f64) -> Self {
        let mut d = vec![scale; n * n];
        for v in 0..n {
            d[v * n + v] = 0.0;
        }
        Metric { n, d }
    }

    /// Builds a metric from explicit points on a line: `d(u,v) = |x_u - x_v|`.
    pub fn from_line(points: &[f64]) -> Self {
        let n = points.len();
        let mut d = vec![0.0; n * n];
        for u in 0..n {
            for v in 0..n {
                d[u * n + v] = (points[u] - points[v]).abs();
            }
        }
        Metric { n, d }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the metric has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between `u` and `v`, read from `u`'s row.
    #[inline]
    pub fn dist(&self, u: NodeId, v: NodeId) -> f64 {
        debug_assert!(u < self.n && v < self.n);
        self.debug_assert_built(u);
        self.d[u * self.n + v]
    }

    /// Row of distances from `u` to every node.
    #[inline]
    pub fn row(&self, u: NodeId) -> &[f64] {
        self.debug_assert_built(u);
        &self.d[u * self.n..(u + 1) * self.n]
    }

    /// Every built row has a zero diagonal entry; a
    /// [`TruncatedClosure`](crate::sparse::TruncatedClosure) row that was
    /// never built holds NaN there.
    #[inline]
    fn debug_assert_built(&self, u: NodeId) {
        debug_assert!(
            self.d[u * self.n + u] == 0.0,
            "row {u} was never built (its diagonal entry is not 0)"
        );
    }

    /// Mutable row of `u`, for filling a row of a lazily built closure.
    pub(crate) fn row_mut(&mut self, u: NodeId) -> &mut [f64] {
        &mut self.d[u * self.n..(u + 1) * self.n]
    }

    /// Distance from `v` to the closest node in `set`, together with the
    /// argmin. Returns `None` when `set` is empty.
    pub fn nearest_in(&self, v: NodeId, set: &[NodeId]) -> Option<(NodeId, f64)> {
        let row = self.row(v);
        set.iter()
            .map(|&c| (c, row[c]))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are not NaN"))
    }

    /// Verifies the metric axioms up to tolerance `eps`:
    /// zero diagonal, non-negativity, symmetry, triangle inequality.
    /// Returns the first violated axiom as a human-readable string.
    pub fn check_axioms(&self, eps: f64) -> Result<(), String> {
        let n = self.n;
        for u in 0..n {
            if self.dist(u, u).abs() > eps {
                return Err(format!("d({u},{u}) = {} != 0", self.dist(u, u)));
            }
            for v in 0..n {
                let duv = self.dist(u, v);
                if !duv.is_finite() || duv < -eps {
                    return Err(format!("d({u},{v}) = {duv} invalid"));
                }
                if (duv - self.dist(v, u)).abs() > eps {
                    return Err(format!("asymmetry at ({u},{v})"));
                }
            }
        }
        for u in 0..n {
            for v in 0..n {
                for w in 0..n {
                    if self.dist(u, w) > self.dist(u, v) + self.dist(v, w) + eps {
                        return Err(format!("triangle violated at ({u},{v},{w})"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Restriction of the metric to a subset of points. `subset[i]` becomes
    /// point `i` of the returned metric.
    pub fn restrict(&self, subset: &[NodeId]) -> Metric {
        let k = subset.len();
        let mut d = vec![0.0; k * k];
        for (i, &u) in subset.iter().enumerate() {
            for (j, &v) in subset.iter().enumerate() {
                d[i * k + j] = self.dist(u, v);
            }
        }
        Metric { n: k, d }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_metric_is_metric() {
        let m = Metric::uniform(5, 2.0);
        m.check_axioms(1e-12).unwrap();
        assert_eq!(m.dist(1, 3), 2.0);
        assert_eq!(m.dist(2, 2), 0.0);
    }

    #[test]
    fn line_metric() {
        let m = Metric::from_line(&[0.0, 1.0, 4.0]);
        m.check_axioms(1e-12).unwrap();
        assert_eq!(m.dist(0, 2), 4.0);
        assert_eq!(m.dist(1, 2), 3.0);
    }

    #[test]
    fn nearest_in_set() {
        let m = Metric::from_line(&[0.0, 1.0, 4.0, 10.0]);
        assert_eq!(m.nearest_in(3, &[0, 2]), Some((2, 6.0)));
        assert_eq!(m.nearest_in(0, &[]), None);
        assert_eq!(m.nearest_in(1, &[1]), Some((1, 0.0)));
    }

    #[test]
    fn restrict_keeps_distances() {
        let m = Metric::from_line(&[0.0, 1.0, 4.0, 10.0]);
        let r = m.restrict(&[1, 3]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.dist(0, 1), 9.0);
    }

    #[test]
    fn axiom_check_catches_violation() {
        // d(0,2)=10 but d(0,1)+d(1,2)=2: triangle violated.
        let d = vec![0.0, 1.0, 10.0, 1.0, 0.0, 1.0, 10.0, 1.0, 0.0];
        let m = Metric::from_matrix(3, d);
        assert!(m.check_axioms(1e-9).is_err());
    }
}
