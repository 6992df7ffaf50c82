//! Graph substrate for the `dmn` workspace.
//!
//! This crate implements every piece of graph machinery the SPAA 2001 paper
//! *Approximation Algorithms for Data Management in Networks* (Krick, Räcke,
//! Westermann) relies on:
//!
//! * weighted undirected [`Graph`]s with non-negative edge costs (the paper's
//!   transmission-cost function `ct`),
//! * single-source and all-pairs shortest paths ([`dijkstra`]), producing the
//!   [`Metric`] closure `ct(v, v')` used throughout the paper,
//! * minimum spanning trees ([`mst`]) on graphs and on metric-induced
//!   complete graphs over node subsets (the paper's update multicast trees),
//! * Steiner trees ([`steiner`]): exact Dreyfus–Wagner for validation-scale
//!   instances and the classical metric-MST 2-approximation (Claim 2 of the
//!   paper is exactly the analysis of this approximation),
//! * min-cost flow ([`flow`]) with lower bounds, used to compute optimal
//!   *restricted* placements (each copy must serve at least `W` requests),
//! * topology [`generators`] (paths, rings, grids, random trees, geometric
//!   and Erdős–Rényi graphs, Internet-like transit–stub networks), and
//! * rooted-[`tree`] utilities including the balanced binarization that
//!   Theorem 13 of the paper uses to simulate arbitrary trees on binary ones.
//!
//! All costs are `f64` and required to be finite and non-negative; the crate
//! never constructs NaN values.

// Node ids are dense indices throughout this workspace; looping over
// `0..n` and indexing by node id is the domain idiom.
#![allow(clippy::needless_range_loop)]

pub mod bfs;
pub mod dijkstra;
pub mod dot;
pub mod dsu;
pub mod flow;
pub mod generators;
pub mod graph;
pub mod metric;
pub mod mst;
pub mod sparse;
pub mod steiner;
pub mod tree;

pub use dijkstra::{apsp, shortest_paths, ShortestPaths};
pub use dsu::DisjointSets;
pub use graph::{EdgeId, Graph, NodeId};
pub use metric::Metric;
pub use mst::{kruskal, metric_mst, metric_mst_weight, prim, MstResult};
pub use sparse::{ball_candidates, truncated_closure};
pub use steiner::{dreyfus_wagner, steiner_2approx_weight};
pub use tree::RootedTree;

/// Cost / weight scalar used across the workspace.
pub type Cost = f64;

/// Comparison tolerance for cost arithmetic in tests and invariant checks.
pub const EPS: f64 = 1e-9;

/// Returns true when `a` and `b` are equal up to a relative/absolute blend of
/// [`EPS`], suitable for comparing sums of non-negative costs.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    let scale = 1.0_f64.max(a.abs()).max(b.abs());
    (a - b).abs() <= EPS * scale
}

/// Returns true when `a <= b` up to cost tolerance.
#[inline]
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b + EPS * 1.0_f64.max(a.abs()).max(b.abs())
}
