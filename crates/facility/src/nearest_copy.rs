//! Incremental nearest-copy distances.
//!
//! The radius phases of the 3-phase algorithm repeatedly ask "how far is
//! node `v` from its nearest copy?" while copies are only ever *added*
//! (phase 2). [`NearestCopyOracle`] maintains that distance incrementally:
//! each copy add is one `O(n)` fold, each query `O(1)` — replacing the
//! `O(|copies|)` scan per query of `Metric::nearest_in`, whose value it
//! returns bit for bit.

use dmn_graph::{Metric, NodeId};

/// Per-node nearest-copy distance with incremental adds.
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

    /// Folds one new copy into every node's distance: `O(n)`.
    ///
    /// Distances are read as `d(v, c)` — the querying node's row — to match
    /// `nearest_in` reads exactly (metric closures are only symmetric up to
    /// an ulp).
    pub fn add_copy(&mut self, metric: &Metric, c: NodeId) {
        for (v, slot) in self.dist.iter_mut().enumerate() {
            let d = metric.dist(v, c);
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
    fn exact_mode_matches_nearest_in() {
        let m = Metric::from_line(&[0.0, 1.0, 4.0, 10.0, 11.0]);
        let mut o = NearestCopyOracle::new(5);
        o.add_copy(&m, 1);
        o.add_copy(&m, 3);
        for v in 0..5 {
            let want = m.nearest_in(v, &[1, 3]).unwrap().1;
            assert_eq!(o.nearest_dist(v).to_bits(), want.to_bits());
        }
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
