//! Uncapacitated facility location (UFL) solvers.
//!
//! Phase 1 of the paper's approximation algorithm solves the *related
//! facility location problem*: the data-management instance with every
//! write treated as a read (update costs neglected). Facility costs are the
//! storage costs `cs(v)`, clients are the nodes weighted by their request
//! mass, and connection costs are the metric `ct`. Lemma 9 then bounds the
//! storage cost of the final placement by `f * (C^OPTW_s + C^OPTW_r)` where
//! `f` is the approximation factor of whichever UFL solver is plugged in —
//! so this crate offers several:
//!
//! * [`local_search()`](fn@local_search) — add/drop/swap local search (the heuristic analyzed
//!   in Korupolu–Plaxton–Rajaraman, the paper's reference 8; factor
//!   5 + ε), backed by an incremental nearest/second-nearest assignment
//!   table ([`FlWorkspace`]) that prices every move in one pass over the
//!   clients; [`local_search_warm()`](fn@local_search_warm) seeds it from
//!   Mettu–Plaxton, and [`local_search_reference()`](fn@local_search_reference)
//!   keeps the original from-scratch implementation as the equivalence
//!   and perf baseline,
//! * [`mettu_plaxton()`](fn@mettu_plaxton) — the radius-based greedy of Mettu & Plaxton
//!   (factor 3), structurally the closest relative of the paper's own
//!   storage radii,
//! * [`jain_vazirani()`](fn@jain_vazirani) — the primal–dual algorithm (factor 3),
//! * [`greedy()`](fn@greedy) — classical density greedy (factor `O(log n)`, strong in
//!   practice), and
//! * [`exact()`](fn@exact) — brute force over facility subsets for validation-scale
//!   instances.
//!
//! The paper's own suggestion (LP rounding à la Shmoys–Tardos–Aardal /
//! Chudak–Shmoys, factor 1.736) needs an LP solver; Theorem 7 only needs
//! *some* constant factor, which all solvers above provide (see DESIGN.md).

// Node ids are dense indices throughout this workspace; looping over
// `0..n` and indexing by node id is the domain idiom.
#![allow(clippy::needless_range_loop)]

pub mod exact;
pub mod greedy;
pub mod instance;
pub mod jain_vazirani;
pub mod local_search;
pub mod mettu_plaxton;
pub mod nearest_copy;

pub use exact::exact;
pub use greedy::greedy;
pub use instance::{FlInstance, FlSolution};
pub use jain_vazirani::jain_vazirani;
pub use local_search::{
    local_search, local_search_from, local_search_reference, local_search_warm,
    local_search_warm_in, FlWorkspace, LocalSearchConfig, SearchStats,
};
pub use mettu_plaxton::mettu_plaxton;
pub use nearest_copy::NearestCopyOracle;

/// The available UFL solvers as a value, for configuration plumbing.
///
/// Phase 1 of the approximation algorithm runs one of these (`dmn-approx`
/// re-exports the enum as `FlSolverKind`). Theorem 7's constant depends on
/// the solver's factor only through Lemma 9, so every variant is valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Solver {
    /// Add/drop/swap local search (5 + ε approximation; incremental
    /// assignment-table fast path).
    #[default]
    LocalSearch,
    /// The incremental local search warm-started from Mettu–Plaxton
    /// (same 5 + ε guarantee, far fewer moves in practice).
    LocalSearchWarm,
    /// The original from-scratch local search (the seed implementation),
    /// kept as the equivalence reference and perf baseline.
    LocalSearchRef,
    /// Mettu–Plaxton radius greedy (3-approximation).
    MettuPlaxton,
    /// Jain–Vazirani primal–dual (3-approximation).
    JainVazirani,
    /// Density greedy (logarithmic worst case, strong in practice).
    Greedy,
    /// Exhaustive search (exact; tiny instances only).
    Exact,
}

impl Solver {
    /// Every solver, in presentation order.
    pub const ALL: [Solver; 7] = [
        Solver::LocalSearch,
        Solver::LocalSearchWarm,
        Solver::LocalSearchRef,
        Solver::MettuPlaxton,
        Solver::JainVazirani,
        Solver::Greedy,
        Solver::Exact,
    ];

    /// Stable kebab-case name (CLI / artifact value).
    pub fn name(self) -> &'static str {
        match self {
            Solver::LocalSearch => "local-search",
            Solver::LocalSearchWarm => "local-search-warm",
            Solver::LocalSearchRef => "local-search-ref",
            Solver::MettuPlaxton => "mettu-plaxton",
            Solver::JainVazirani => "jain-vazirani",
            Solver::Greedy => "greedy",
            Solver::Exact => "exact",
        }
    }

    /// Parses a kebab-case solver name.
    pub fn parse(name: &str) -> Option<Solver> {
        Solver::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Runs the selected solver.
    pub fn solve(self, inst: &FlInstance) -> FlSolution {
        match self {
            Solver::LocalSearch => local_search(inst, &LocalSearchConfig::default()),
            Solver::LocalSearchWarm => local_search_warm(inst, &LocalSearchConfig::default()),
            Solver::LocalSearchRef => local_search_reference(inst, &LocalSearchConfig::default()),
            Solver::MettuPlaxton => mettu_plaxton(inst),
            Solver::JainVazirani => jain_vazirani(inst),
            Solver::Greedy => greedy(inst),
            Solver::Exact => exact(inst),
        }
    }
}
