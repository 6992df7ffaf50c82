//! # dmn — Data Management in Networks
//!
//! A faithful, production-quality Rust implementation of
//!
//! > *Approximation Algorithms for Data Management in Networks*
//! > Christof Krick, Harald Räcke, Matthias Westermann — SPAA 2001.
//!
//! Given a network whose links charge a fee per transmitted object (`ct`)
//! and whose memory modules charge a fee per stored object (`cs`), plus
//! per-node read/write frequencies for a set of shared objects, the library
//! computes placements of object copies minimizing total (commercial) cost.
//!
//! Every placement engine is driven through one uniform surface — the
//! [`Solver`](dmn_solve::Solver) trait and the string-keyed registry in
//! [`solve`]:
//!
//! | registry name      | engine                                        | paper section |
//! |--------------------|-----------------------------------------------|---------------|
//! | `approx` (`krw`)   | 3-phase constant-factor approximation         | Section 2     |
//! | `tree-dp`          | optimal tuple DP on trees                     | Section 3.2   |
//! | `auto`             | `tree-dp` on trees, `approx` otherwise        | —             |
//! | `exact`            | exhaustive optimum (n ≤ 16)                   | ground truth  |
//! | `exact-restricted` | optimal restricted placement (Lemma 1)        | Section 2.1   |
//! | `greedy-local`     | local search on the true objective            | baseline      |
//! | `best-single`      | exact 1-copy optimum                          | baseline      |
//! | `random-k`         | k random copies (seeded)                      | baseline      |
//! | `full-replication` | copy on every allowed node                    | baseline      |
//! | `capacitated`      | native capacitated engine (flow + local search) | extension   |
//!
//! ## Quickstart
//!
//! ```
//! use dmn::prelude::*;
//!
//! // A 4x4 mesh network: every link costs 1 per object, every memory
//! // module costs 5 per stored object.
//! let graph = dmn::graph::generators::grid(4, 4, |_, _| 1.0);
//! let mut instance = Instance::builder(graph)
//!     .uniform_storage_cost(5.0)
//!     .build();
//!
//! // One object, read once per period by every node, written once per
//! // period by node 5.
//! let mut object = ObjectWorkload::new(16);
//! for v in 0..16 {
//!     object.reads[v] = 1.0;
//! }
//! object.writes[5] = 1.0;
//! instance.push_object(object);
//!
//! // Pick any registered solver and solve. `SolveRequest` carries every
//! // knob (update policy, FL backend, seed, capacities, thread cap).
//! let solver = solvers::by_name("approx").expect("registered");
//! let report = solver.solve(&instance, &SolveRequest::new());
//! assert!(!report.placement.copies(0).is_empty());
//! assert!(report.cost.total() > 0.0);
//! println!("{report}"); // placement, cost breakdown, per-phase timings
//!
//! // Compare engines through the same pipeline.
//! for s in solvers::all() {
//!     if s.supports(&instance).is_ok() {
//!         let r = s.solve(&instance, &SolveRequest::new());
//!         println!("{:<18} {:>10.2}", s.name(), r.cost.total());
//!     }
//! }
//! ```
//!
//! ## Crate map
//!
//! * [`solve`] — the unified `Solver` trait, `SolveRequest`/`SolveReport`
//!   pipeline, and the named registry (start here).
//! * [`approx`] — the paper's combinatorial **constant-factor approximation
//!   for arbitrary networks** (Section 2): facility location, then
//!   radius-driven copy addition, then radius-driven pruning; plus the
//!   instance-level baselines.
//! * [`tree`] — the paper's **optimal algorithms for trees** (Section 3):
//!   the `O(|X|·|V|·diam·log deg)` import/export-tuple dynamic program for
//!   the read-only case and its general read+write extension, plus reference
//!   solvers used for cross-validation.
//! * [`core`] — the cost model itself: instances, placements, the
//!   storage/read/update cost decomposition, write/storage radii, the
//!   restricted-placement transformation of Lemma 1, and the shared
//!   order-preserving parallel map.
//! * [`facility`] — uncapacitated facility location solvers (local search,
//!   Mettu–Plaxton, Jain–Vazirani, greedy, exact) backing phase 1.
//! * [`graph`] — the network substrate: shortest paths/metric closure, MSTs,
//!   Steiner trees, min-cost flow, topology generators, tree utilities.
//! * [`exact`] — exponential-time exact solvers for validation-scale
//!   instances (optimal and optimal-restricted placements).
//! * [`workloads`] — reproducible workload and scenario generators.
//! * [`dynamic`] — the online setting on the same cost model: request
//!   streams, count-based replicate/invalidate strategies, and a simulator
//!   for empirical competitive ratios against the static algorithms (whose
//!   oracle also implements `Solver`).

pub use dmn_approx as approx;
pub use dmn_core as core;
pub use dmn_dynamic as dynamic;
pub use dmn_exact as exact;
pub use dmn_facility as facility;
pub use dmn_graph as graph;
pub use dmn_solve as solve;
pub use dmn_tree as tree;
pub use dmn_workloads as workloads;

/// Convenient glob-import surface for applications and examples.
pub mod prelude {
    pub use dmn_approx::{place_all, place_object, ApproxConfig, FlSolverKind};
    pub use dmn_core::cost::{evaluate, evaluate_object, CostBreakdown, UpdatePolicy};
    pub use dmn_core::instance::{Instance, InstanceBuilder, ObjectWorkload};
    pub use dmn_core::placement::Placement;
    pub use dmn_graph::{apsp, Graph, Metric};
    pub use dmn_solve::{
        solvers, CapacitatedSolver, CapacityStats, SolveReport, SolveRequest, Solver,
    };
}
