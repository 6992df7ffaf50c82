//! The cost-based data management model of Krick, Räcke & Westermann
//! (SPAA 2001).
//!
//! A computer system is an undirected graph whose nodes carry a storage
//! cost `cs(v)` (fee per stored object) and whose edges carry a
//! transmission cost `ct(e)` (fee per transmitted object); the shortest-path
//! closure of `ct` is a metric. For every shared object we are given read
//! and write frequencies per node. A *placement* selects a non-empty copy
//! set per object; the total cost decomposes into
//!
//! * **storage cost** — `cs(v)` per copy,
//! * **read cost** — every read pays the distance to the nearest copy, and
//! * **update cost** — every write pays a message to the nearest copy plus
//!   an update of all copies along a multicast tree.
//!
//! This crate provides the model types ([`instance`], [`placement`]), the
//! cost evaluator with the paper's and baseline update policies ([`cost`]),
//! the write/storage radii at the heart of the approximation algorithm
//! ([`radii`]), and the constructive Lemma-1 transformation into
//! *restricted* placements ([`restricted`]).

pub mod cost;
pub mod faults;
pub mod instance;
pub mod load;
pub mod parallel;
pub mod placement;
pub mod radii;
pub mod restricted;
pub mod shapes;
pub mod telemetry;

pub use cost::{
    evaluate, evaluate_object, evaluate_object_on_graph, evaluate_sparse, evaluate_sparse_threads,
    evaluate_threads, CostBreakdown, UpdatePolicy,
};
pub use faults::{FaultAction, FaultGuard, FaultPlan, FaultSpec, Injected};
pub use instance::{Instance, InstanceBuilder, ObjectWorkload, ValidationError};
pub use placement::Placement;
pub use radii::RadiusTable;
pub use shapes::{evaluate_object_shaped, ObjectShape};
pub use telemetry::{Counter, Gauge, Histogram, HistogramSnapshot, Span, SpanRecord};
