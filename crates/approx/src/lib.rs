//! The SPAA 2001 constant-factor approximation algorithm for static data
//! management on arbitrary networks (Section 2 of the paper).
//!
//! Per object, the algorithm runs three phases:
//!
//! 1. **Facility location** on the *related* instance (writes counted as
//!    reads, update cost neglected);
//! 2. **Radius add** — while some node `v` is farther than `5·rs(v)` from
//!    its nearest copy, store a copy at `v` (Claim 10 shows this never
//!    increases read + storage cost);
//! 3. **Radius prune** — scan copy holders in ascending write radius
//!    `rw(v)` and delete any other copy `u` with `ct(u, v) ≤ 4·rw(u)`.
//!
//! Lemma 8 proves the result is a *proper placement* with constants
//! `k1 = 29`, `k2 = 2`; together with Theorem 3 and Lemma 9 this gives a
//! constant total-cost approximation (Theorem 7). The [`proper`] module
//! verifies the Lemma-8 invariants on concrete outputs.

pub mod algorithm;
pub mod baselines;
pub mod capacity;
pub mod proper;
pub mod sparse_path;

pub use algorithm::{
    place_all, place_object, place_object_in, place_object_with, ApproxConfig, FlSolverKind,
    MetricSource, PhaseTimings, PhaseTrace, PlaceOutcome, STORAGE_ADD_FACTOR, WRITE_PRUNE_FACTOR,
};
pub use capacity::{enforce_capacities, respects_capacities, CapacityError};
pub use proper::{check_proper, ProperReport};
pub use sparse_path::{place_object_sparse_in, SparseOpts};
