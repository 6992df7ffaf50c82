//! The prefix radius kernels ([`RadiusKernel`] and the
//! [`RadiusTable::compute`] built on them) pinned bit for bit against the
//! per-node [`DistanceProfile`] that defines the radii, over a
//! deterministic seed sweep.
//!
//! The inputs aim at the kernels' edges: integer edge weights (many tied
//! distances, where only a sort that keeps ties in client order sums the
//! masses in the profile's order), unequal fractional masses (so a tie
//! broken the other way changes the rounding), zero-mass nodes, two
//! components (infinite distances), storage costs that are zero, tiny,
//! too large to ever pay, or infinite, write totals of zero, a small
//! fraction and the whole mass, uniform masses whose total lands within
//! ulps of an integer (so the two bisection brackets differ), and totals
//! so large that the brackets lie more than one integer apart.

use dmn_core::radii::{DistanceProfile, RadiusKernel, RadiusTable};
use dmn_graph::dijkstra::apsp;
use dmn_graph::{Graph, Metric, NodeId};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: u64 = 96;

/// A `rows × cols` grid (a path when `rows == 1`) with edge weights in
/// {1, 2, 3}.
fn grid(rows: usize, cols: usize, r: &mut ChaCha8Rng) -> Graph {
    let id = |i: usize, j: usize| i * cols + j;
    let mut edges = Vec::new();
    for i in 0..rows {
        for j in 0..cols {
            if j + 1 < cols {
                edges.push((id(i, j), id(i, j + 1), r.random_range(1..=3u32) as f64));
            }
            if i + 1 < rows {
                edges.push((id(i, j), id(i + 1, j), r.random_range(1..=3u32) as f64));
            }
        }
    }
    Graph::from_edges(rows * cols, edges)
}

/// The metric of one grid or path, or of two side by side with no edge
/// between them (every distance across is infinite).
fn metric(r: &mut ChaCha8Rng) -> Metric {
    let part = |r: &mut ChaCha8Rng| {
        let rows = if r.random_bool(0.3) {
            1
        } else {
            r.random_range(2..6)
        };
        apsp(&grid(rows, r.random_range(2..8), r))
    };
    let a = part(r);
    if r.random_bool(0.7) {
        return a;
    }
    let b = part(r);
    let n = a.len() + b.len();
    let mut d = vec![f64::INFINITY; n * n];
    for u in 0..n {
        for v in 0..n {
            if u < a.len() && v < a.len() {
                d[u * n + v] = a.dist(u, v);
            } else if u >= a.len() && v >= a.len() {
                d[u * n + v] = b.dist(u - a.len(), v - a.len());
            }
        }
    }
    Metric::from_matrix(n, d)
}

/// Storage costs mixing 0, a tiny cost, moderate costs, a cost no request
/// set reaches, and forbidden nodes.
fn storage_costs(n: usize, r: &mut ChaCha8Rng) -> Vec<f64> {
    (0..n)
        .map(|_| match r.random_range(0..8u32) {
            0 => 0.0,
            1 => 1e-9,
            2 => 1e9,
            3 => f64::INFINITY,
            _ => r.random_range(0.5..40.0),
        })
        .collect()
}

/// Asserts that the kernels, and the table built on them, give every
/// node's full-profile radii bit for bit. `order` is the node order of the
/// write sweep. Returns how many storage numbers were finite.
fn check(m: &Metric, masses: &[f64], w: f64, cs: &[f64], order: &[NodeId], case: &str) -> usize {
    let n = m.len();
    let mut kernel = RadiusKernel::new(masses);
    let (numbers, radii) = kernel.storage_radii(m, cs);
    let write = kernel.write_radii(m, w, order);
    let table = RadiusTable::compute(m, masses, w, cs);
    let mut want_write = vec![0.0; n];
    let mut finite = 0;
    for v in 0..n {
        let p = DistanceProfile::new(m, masses, v);
        let (zs, rs) = p.storage_number_and_radius(cs[v]);
        let rw = if w > 0.0 { p.avg_dist(w) } else { 0.0 };
        want_write[v] = rw;
        finite += usize::from(zs.is_finite());
        for (what, got, want) in [
            ("zs", numbers[v], zs),
            ("rs", radii[v], rs),
            ("table zs", table.storage_number[v], zs),
            ("table rs", table.storage_radius[v], rs),
            ("table rw", table.write_radius[v], rw),
        ] {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{case}: {what} at node {v}: {got} != {want}"
            );
        }
    }
    for (&v, &got) in order.iter().zip(&write) {
        let want = want_write[v];
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{case}: rw at node {v}: {got} != {want}"
        );
    }
    finite
}

#[test]
fn prefix_kernels_match_the_full_profile_bitwise() {
    let (mut finite, mut never, mut split) = (0, 0, 0);
    for seed in 0..CASES {
        let mut r = ChaCha8Rng::seed_from_u64(seed);
        let m = metric(&mut r);
        let n = m.len();
        split += usize::from(m.row(0).iter().any(|d| d.is_infinite()));
        let zero_share = [0.0, 0.3][r.random_range(0..2usize)];
        // Every eighth case asks so much that the error band spans several
        // integers, and every storage decision asks the full profile.
        let scale = if seed % 8 == 7 { 1e15 } else { 1.0 };
        let masses: Vec<f64> = (0..n)
            .map(|_| {
                if r.random_bool(zero_share) {
                    0.0
                } else {
                    scale * r.random_range(0.05..2.5)
                }
            })
            .collect();
        let total: f64 = masses.iter().sum();
        let cs = storage_costs(n, &mut r);
        let mut order: Vec<NodeId> = (0..n).collect();
        order.shuffle(&mut r);
        for w in [0.0, r.random_range(0.01..0.2) * total, total] {
            let case = format!("seed {seed}, W = {w}");
            let f = check(&m, &masses, w, &cs, &order, &case);
            finite += f;
            never += n - f;
        }
    }
    assert!(finite > 0 && never > 0, "finite {finite}, never {never}");
    assert!(split > 0, "no case had two components");
}

#[test]
fn near_integer_totals_take_both_brackets() {
    // As on the 25 × 25 benchmark grid: every node asks `base / n`, and the
    // client-order total lands within ulps of `base`.
    let mut straddled = 0;
    for (seed, (rows, cols, base)) in [(5, 5, 12.0), (7, 7, 10.0), (25, 25, 120.0)]
        .into_iter()
        .enumerate()
    {
        let mut r = ChaCha8Rng::seed_from_u64(100 + seed as u64);
        let m = apsp(&grid(rows, cols, &mut r));
        let n = m.len();
        let masses = vec![base / n as f64; n];
        let total: f64 = masses.iter().sum();
        let err = 2.0 * (n + 1) as f64 * f64::EPSILON * total;
        straddled += usize::from((total - err).ceil() != (total + err).ceil());
        let cs: Vec<f64> = (0..n).map(|v| [4.0, 1.5, 9.0][v % 3]).collect();
        let order: Vec<NodeId> = (0..n).rev().collect();
        for w in [0.0, 0.2 * base, total] {
            let finite = check(
                &m,
                &masses,
                w,
                &cs,
                &order,
                &format!("{rows}x{cols}, W = {w}"),
            );
            assert!(finite > 0);
        }
    }
    assert!(
        straddled > 0,
        "no total landed within its error band of an integer"
    );
}
