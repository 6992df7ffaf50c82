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
//! All costs are `f64` and required to be finite and non-negative. The one
//! NaN the crate constructs marks a row of a [`TruncatedClosure`] that was
//! never built, so that no reader can take it for a distance.
//!
//! The searches that return only distances — [`distances`], [`apsp`] and
//! the rows of a [`TruncatedClosure`] — share one Dijkstra kernel on a
//! monotone radix heap over the `f64` bit pattern. With non-negative
//! weights every queue that pops keys in non-decreasing order yields the
//! same labels, bit for bit. [`shortest_paths`], [`ball_candidates`] and the
//! min-cost-flow search keep binary heaps: their parents, ball boundary and
//! predecessor arcs depend on the order among equal keys.

// Node ids are dense indices throughout this workspace; looping over
// `0..n` and indexing by node id is the domain idiom.
#![allow(clippy::needless_range_loop)]

pub mod bfs;
pub mod dijkstra;
pub mod dsu;
pub mod flow;
pub mod generators;
pub mod graph;
pub mod metric;
pub mod mst;
mod radix_heap;
pub mod sparse;
pub mod steiner;
pub mod tree;

pub use dijkstra::{apsp, distances, shortest_paths, ShortestPaths};
pub use dsu::DisjointSets;
pub use graph::{EdgeId, Graph, NodeId};
pub use metric::Metric;
pub use mst::{kruskal, metric_mst, metric_mst_weight, prim, MstResult};
pub use sparse::{ball_candidates, truncated_closure, TruncatedClosure};
pub use steiner::{dreyfus_wagner, steiner_2approx_weight};
pub use tree::RootedTree;

/// Cost / weight scalar used across the workspace.
pub type Cost = f64;
