//! Typed errors for the online simulator and stream generators.
//!
//! The request/stream paths historically `assert!`ed and `.expect()`ed
//! their preconditions. That is fine when the harness authored the
//! stream, but a scenario fuzzer feeds these paths degenerate inputs on
//! purpose — those must come back as values, not process aborts. The
//! stream generators and the slot replay have `try_*` forms returning
//! [`DynamicError`]; the panicking stream generators remain as shims with
//! unchanged messages, and `simulate` and `simulate_segmented`, which run
//! the slot replay's loop, panic with its error's message.

/// Why a simulation or stream generation could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynamicError {
    /// A stream was requested over zero workloads.
    EmptyWorkloads,
    /// The workloads carry no request mass at all — nothing to sample.
    NoRequests,
    /// An object entered the simulation with an empty copy set.
    EmptyInitialPlacement {
        /// Offending object index.
        object: usize,
    },
    /// An object's copy set became empty mid-simulation (an internal
    /// invariant breach — the simulator never lets this happen through
    /// legal reconfigurations).
    EmptyCopySet {
        /// Offending object index.
        object: usize,
    },
    /// A request or initial copy references a node outside the network.
    NodeOutOfRange {
        /// Offending node id.
        node: usize,
        /// Network size.
        nodes: usize,
    },
    /// A request references an object outside the simulated population.
    ObjectOutOfRange {
        /// Offending object id.
        object: usize,
        /// Number of simulated objects.
        objects: usize,
    },
    /// A per-slot storage-cost vector disagrees with the network size.
    StorageCostLength {
        /// Expected length (network size).
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// Adversarial-stream parameters are out of range.
    BadAdversary,
}

impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicError::EmptyWorkloads => {
                write!(f, "a stream needs at least one workload")
            }
            DynamicError::NoRequests => write!(f, "workloads have no requests"),
            DynamicError::EmptyInitialPlacement { object } => {
                write!(f, "object {object} starts with no copies")
            }
            DynamicError::EmptyCopySet { object } => {
                write!(f, "object {object} lost all copies mid-simulation")
            }
            DynamicError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range on a {nodes}-node network")
            }
            DynamicError::ObjectOutOfRange { object, objects } => {
                write!(f, "object {object} out of range over {objects} objects")
            }
            DynamicError::StorageCostLength { expected, got } => {
                write!(
                    f,
                    "storage cost vector length mismatch: {got} costs for {expected} nodes"
                )
            }
            DynamicError::BadAdversary => {
                write!(
                    f,
                    "adversarial streams need n > 0, burst > 0, and num_objects > 0"
                )
            }
        }
    }
}

impl std::error::Error for DynamicError {}
