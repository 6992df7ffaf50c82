//! The unified solver surface of the `dmn` workspace.
//!
//! The paper contributes a *family* of placement algorithms — the
//! Section-2 constant-factor approximation for arbitrary networks, the
//! Section-3 optimal tree DPs, exhaustive exact solvers for validation,
//! and baseline heuristics. This crate gives them one composable API so
//! experiments, benchmarks, examples, and future backends drive any engine
//! without knowing its concrete entry point:
//!
//! * [`Solver`] — the trait every placement engine implements:
//!   `solve(&Instance, &SolveRequest) -> SolveReport`;
//! * [`SolveRequest`] — a builder-style bundle of solve-time options
//!   (cost-accounting policy, phase-1 facility-location backend, RNG
//!   seed, replication degree, per-node copy capacities, trace
//!   collection, worker-thread cap);
//! * [`SolveReport`] — placement, full
//!   [`CostBreakdown`](dmn_core::cost::CostBreakdown), per-phase timings
//!   and traces, and solver metadata, with a table-style
//!   [`Display`](std::fmt::Display) rendering;
//! * [`solvers`] — the string-keyed registry ([`solvers::by_name`],
//!   [`solvers::all`]) enumerating every engine.
//!
//! ```
//! use dmn_core::instance::{Instance, ObjectWorkload};
//! use dmn_solve::{solvers, SolveRequest};
//!
//! let graph = dmn_graph::generators::grid(4, 4, |_, _| 1.0);
//! let mut instance = Instance::builder(graph).uniform_storage_cost(5.0).build();
//! let mut object = ObjectWorkload::new(16);
//! for v in 0..16 {
//!     object.reads[v] = 1.0;
//! }
//! instance.push_object(object);
//!
//! let solver = solvers::by_name("approx").expect("registered");
//! let report = solver.solve(&instance, &SolveRequest::new());
//! assert!(report.cost.total() > 0.0);
//! ```

// Node ids are dense indices throughout this workspace; looping over
// `0..n` and indexing by node id is the domain idiom.
#![allow(clippy::needless_range_loop)]

pub mod capacitated;
pub mod engines;
pub mod registry;
pub mod report;
pub mod request;

pub use capacitated::CapacitatedSolver;
pub use dmn_approx::FlSolverKind;
pub use engines::{
    ApproxSolver, AutoSolver, BestSingleSolver, ExactRestrictedSolver, ExactSolver,
    FullReplicationSolver, GreedyLocalSolver, RandomKSolver, TreeDpSolver,
};
pub use registry::solvers;
pub use report::{CapacityStats, PhaseStat, SolveReport};
pub use request::{FlOpts, MetricBackend, MetricOpts, RobustOpts, SolveRequest};

use dmn_core::instance::Instance;

/// Why a solver cannot run on a given instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsupported {
    /// Human-readable reason (e.g. "needs a tree network").
    pub reason: String,
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for Unsupported {}

pub(crate) fn unsupported(reason: impl Into<String>) -> Unsupported {
    Unsupported {
        reason: reason.into(),
    }
}

/// A placement engine with a uniform solve surface.
///
/// Implementations must be deterministic given the same instance and
/// request (randomized engines draw all randomness from
/// [`SolveRequest::seed`]).
pub trait Solver: Send + Sync {
    /// Stable registry name (kebab-case).
    fn name(&self) -> &'static str;

    /// One-line description: algorithm, complexity, paper section.
    fn description(&self) -> &'static str;

    /// Checks applicability to `instance` without solving (e.g. the tree DP
    /// needs a tree network, the exhaustive solvers cap the node count).
    ///
    /// # Errors
    /// [`Unsupported`] with the reason when the engine cannot run.
    fn supports(&self, instance: &Instance) -> Result<(), Unsupported> {
        let _ = instance;
        Ok(())
    }

    /// Computes a placement for every object of `instance`.
    ///
    /// # Panics
    /// Panics when [`supports`](Solver::supports) would have returned an
    /// error (callers wanting graceful degradation probe first), or when
    /// the instance itself is invalid (no objects, unservable capacities).
    fn solve(&self, instance: &Instance, req: &SolveRequest) -> SolveReport;
}
