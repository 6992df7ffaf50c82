//! Native capacitated placement for the data-management model.
//!
//! The paper's model stores copies in unbounded memory modules; the
//! capacitated variant — node `v` holds at most `cap(v)` copies across all
//! objects — is the Baev–Rajaraman / Meyer auf der Heide line of related
//! work (the paper's references 3, 11, 12). A greedy post-hoc repair
//! ([`dmn_approx::enforce_capacities`]) keeps any placement feasible by
//! unpiling over-full nodes myopically, which can badly degrade cost.
//! Here capacity is a first-class constraint, attacked with the
//! min-cost-flow machinery in [`dmn_graph::flow`]:
//!
//! * [`flow_place`] — the *flow seed*: the exact optimal single-copy
//!   placement under copy capacities, as a min-cost circulation with a
//!   lower bound of one copy per object (the placement cost is linear in
//!   the object→node assignment when each object has one copy, so the
//!   flow optimum is the true optimum of that class);
//! * [`search`] — a capacity-aware add/drop/swap local search on the full
//!   objective that refines any feasible start (greedy repair or flow
//!   seed) without ever violating capacities, pricing every move
//!   incrementally through per-object nearest/second-nearest assignment
//!   tables (the PR-3 workspace pattern).
//!
//! The `capacitated` engine in `dmn-solve` assembles these into a
//! registry backend: `approx` → greedy repair vs flow seed → capacitated
//! local search, with the repair-vs-native margin reported.

// Node ids are dense indices throughout this workspace; looping over
// `0..n` and indexing by node id is the domain idiom.
#![allow(clippy::needless_range_loop)]

pub mod flow_place;
pub mod search;

pub use flow_place::{all_allowed, single_copy_flow_placement};
pub use search::{capacitated_local_search, CapSearchConfig, CapSearchStats};
