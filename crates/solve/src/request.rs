//! Builder-style solve-time options shared by every engine.

use dmn_approx::{ApproxConfig, FlSolverKind, SparseOpts};
use dmn_core::cost::UpdatePolicy;

use crate::sharded::PartitionStrategy;

/// Knobs of the paper's three-phase approximation (phase-1 backend and
/// warm seeds). Grouped under [`SolveRequest::fl`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlOpts {
    /// Phase-1 facility-location backend of the approximation algorithm
    /// ([`FlSolverKind::LocalSearchWarm`] starts the local search from
    /// Mettu–Plaxton instead of the best single facility).
    pub solver: FlSolverKind,
    /// Per-object warm phase-1 seeds, aligned with the instance's object
    /// list (typically each object's copy set from the previous time
    /// slot). An empty inner vec means "no seed for this object"; objects
    /// past the end of the outer vec run cold. Seeds are sanitized by the
    /// algorithm (out-of-range / forbidden nodes dropped, empty survivors
    /// fall back cold; on the sparse backend, nodes outside the object's
    /// candidate ball are dropped too), so stale sets are safe. Consumed by
    /// `approx` on both metric backends; non-local-search phase-1 backends
    /// ignore it.
    pub warm_placement: Option<Vec<Vec<usize>>>,
}

/// Capacity-model knobs (per-node copy caps and service-load budgets).
/// Grouped under [`SolveRequest::cap`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CapOpts {
    /// Per-node copy capacities; when set, every engine's placement is
    /// post-processed with the greedy capacity repair (the `capacitated` /
    /// `cap:<inner>` engines instead optimize under the constraint
    /// natively and only pass the repair as a no-op feasibility check).
    pub capacities: Option<Vec<usize>>,
    /// Per-node *service-load* budgets (max request mass served by the
    /// copies on a node). When set, the capacitated engines run the
    /// cross-object global assignment flow on their final placement and
    /// report the optimal capacity-respecting client→copy assignment
    /// cost (reads stay nearest-copy in the headline `CostBreakdown`).
    pub load_capacities: Option<Vec<f64>>,
}

/// Shard-fan-out knobs of the `sharded:*` meta-engines. Grouped under
/// [`SolveRequest::shard`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardOpts {
    /// Worker-shard count for sharded engines; `0` means one shard per
    /// available CPU. Ignored by non-sharded engines.
    pub count: usize,
    /// How sharded engines split the object set across shards.
    pub partition: PartitionStrategy,
    /// Upper bound on worker threads an engine may use internally (`None` =
    /// all CPUs). The sharded solver pins inner solves to one thread so the
    /// shard fan-out is the only source of parallelism.
    pub max_threads: Option<usize>,
}

/// Which distance closure backs a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricBackend {
    /// The dense `n × n` APSP closure, cached on the instance. Exact, the
    /// seed-pinned default; `O(n^2)` memory, prohibitive past ~5k nodes.
    #[default]
    Dense,
    /// Per-object truncated closures over a candidate ball around each
    /// object's clients. Sub-quadratic; exact when the ball covers every
    /// node, a pinned-epsilon approximation otherwise.
    Sparse,
}

impl MetricBackend {
    /// Stable kebab-case name (CLI value, report metadata).
    pub fn name(self) -> &'static str {
        match self {
            MetricBackend::Dense => "dense",
            MetricBackend::Sparse => "sparse",
        }
    }

    /// Parses a kebab-case backend name.
    pub fn parse(name: &str) -> Option<MetricBackend> {
        match name {
            "dense" => Some(MetricBackend::Dense),
            "sparse" => Some(MetricBackend::Sparse),
            _ => None,
        }
    }
}

impl std::fmt::Display for MetricBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Distance-closure knobs. Grouped under [`SolveRequest::metric`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricOpts {
    /// Dense cached APSP (default) or per-object truncated closures.
    pub backend: MetricBackend,
}

impl MetricOpts {
    /// The candidate-ball parameters the sparse placement path in
    /// `dmn-approx` consumes: the fixed [`SparseOpts`] defaults.
    pub fn sparse_opts(&self) -> SparseOpts {
        SparseOpts::default()
    }
}

/// Robustness knobs: solve deadline/budget and degraded-mode behavior.
/// Grouped under [`SolveRequest::robust`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RobustOpts {
    /// Wall-clock budget in seconds for the whole solve. When the budget
    /// expires mid-run, engines stop refining: objects placed so far keep
    /// their optimized copy sets and every remaining object receives a
    /// cheap always-feasible fallback placement, so the caller still gets
    /// a valid [`Placement`](dmn_core::Placement) — flagged with
    /// `degraded: true` / `deadline_exceeded: true` in the report rather
    /// than silently. `None` (the default) runs unbounded.
    pub deadline_seconds: Option<f64>,
}

impl RobustOpts {
    /// True when a deadline is set and `started` is past it.
    pub fn expired(&self, started: std::time::Instant) -> bool {
        self.deadline_seconds
            .is_some_and(|d| started.elapsed().as_secs_f64() >= d)
    }
}

/// Options consumed by [`Solver::solve`](crate::Solver::solve).
///
/// One request type serves every engine; each engine reads the fields it
/// understands and ignores the rest (the approximation algorithm reads
/// `fl`, `random-k` reads `seed` and `replication_degree`, the capacity
/// repair applies to all). Options cluster into typed groups —
/// [`FlOpts`] (`fl`), [`CapOpts`] (`cap`), [`ShardOpts`] (`shard`),
/// [`MetricOpts`] (`metric`), [`RobustOpts`] (`robust`) — with a handful
/// of engine-agnostic fields kept flat. Construct with
/// [`SolveRequest::new`] and chain the builder methods:
///
/// ```
/// use dmn_core::cost::UpdatePolicy;
/// use dmn_solve::SolveRequest;
///
/// let req = SolveRequest::new()
///     .policy(UpdatePolicy::ExactSteiner)
///     .seed(42)
///     .collect_traces(true);
/// assert_eq!(req.seed, 42);
/// ```
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// Update-cost accounting policy for the reported [`CostBreakdown`]
    /// (and for cost-driven engines like the baselines' local search).
    ///
    /// [`CostBreakdown`]: dmn_core::cost::CostBreakdown
    pub policy: UpdatePolicy,
    /// Seed for randomized engines; all randomness derives from it.
    pub seed: u64,
    /// Copy count per object for fixed-degree engines (`random-k`).
    pub replication_degree: usize,
    /// Collect per-object per-phase copy-set traces in the report (engines
    /// without phase structure return `None` regardless).
    pub collect_traces: bool,
    /// Approximation-algorithm knobs (phase-1 backend, warm seeds).
    pub fl: FlOpts,
    /// Capacity-model knobs (copy caps, load budgets).
    pub cap: CapOpts,
    /// Shard-fan-out knobs (count, partition strategy, thread cap).
    pub shard: ShardOpts,
    /// Distance-closure knobs (dense vs sparse).
    pub metric: MetricOpts,
    /// Robustness knobs (solve deadline, degraded-mode fallback).
    pub robust: RobustOpts,
}

impl Default for SolveRequest {
    fn default() -> Self {
        SolveRequest {
            policy: UpdatePolicy::MstMulticast,
            seed: 0,
            replication_degree: 3,
            collect_traces: false,
            fl: FlOpts::default(),
            cap: CapOpts::default(),
            shard: ShardOpts::default(),
            metric: MetricOpts::default(),
            robust: RobustOpts::default(),
        }
    }
}

impl SolveRequest {
    /// The default request: the paper's constants, MST-multicast
    /// accounting, dense metric, seed 0.
    pub fn new() -> Self {
        SolveRequest::default()
    }

    /// Selects the distance-closure backend (`Sparse` turns on the
    /// sub-quadratic per-object path).
    pub fn metric_backend(mut self, backend: MetricBackend) -> Self {
        self.metric.backend = backend;
        self
    }

    /// Sets the cost-accounting policy.
    pub fn policy(mut self, policy: UpdatePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the phase-1 facility-location backend.
    pub fn fl_solver(mut self, kind: FlSolverKind) -> Self {
        self.fl.solver = kind;
        self
    }

    /// Seeds the phase-1 search per object from a previous placement's
    /// copy sets (see [`FlOpts::warm_placement`]) — the warm-start chain
    /// of the timeline runner.
    pub fn warm_placement(mut self, sets: Vec<Vec<usize>>) -> Self {
        self.fl.warm_placement = Some(sets);
        self
    }

    /// Sets the RNG seed for randomized engines.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-object copy count for fixed-degree engines.
    pub fn replication_degree(mut self, k: usize) -> Self {
        assert!(k >= 1, "an object needs at least one copy");
        self.replication_degree = k;
        self
    }

    /// Constrains per-node copy counts (applied to every engine's output).
    pub fn capacities(mut self, cap: Vec<usize>) -> Self {
        self.cap.capacities = Some(cap);
        self
    }

    /// Constrains per-node service loads (capacitated engines only; see
    /// [`CapOpts::load_capacities`]).
    pub fn load_capacities(mut self, budgets: Vec<f64>) -> Self {
        self.cap.load_capacities = Some(budgets);
        self
    }

    /// Toggles per-phase trace collection.
    pub fn collect_traces(mut self, collect: bool) -> Self {
        self.collect_traces = collect;
        self
    }

    /// Sets the worker-shard count for sharded engines (`0` = one shard per
    /// available CPU).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shard.count = shards;
        self
    }

    /// Sets the object-partition strategy for sharded engines.
    pub fn partition(mut self, strategy: PartitionStrategy) -> Self {
        self.shard.partition = strategy;
        self
    }

    /// Caps the worker threads an engine may use internally.
    pub fn max_threads(mut self, threads: Option<usize>) -> Self {
        self.shard.max_threads = threads;
        self
    }

    /// Sets a wall-clock solve budget in seconds (see
    /// [`RobustOpts::deadline_seconds`]).
    pub fn deadline(mut self, seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "deadline must be a non-negative number of seconds"
        );
        self.robust.deadline_seconds = Some(seconds);
        self
    }

    // ---- derived views ---------------------------------------------------

    /// The [`ApproxConfig`] view of this request (the approximation
    /// algorithm's knobs).
    pub fn approx_config(&self) -> ApproxConfig {
        ApproxConfig {
            fl_solver: self.fl.solver,
        }
    }

    /// True when the request selects the sub-quadratic sparse-metric path.
    pub fn wants_sparse_metric(&self) -> bool {
        self.metric.backend == MetricBackend::Sparse
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let req = SolveRequest::new()
            .policy(UpdatePolicy::UnicastStar)
            .fl_solver(FlSolverKind::Greedy)
            .seed(7)
            .replication_degree(2)
            .capacities(vec![1, 1, 1])
            .collect_traces(true);
        assert_eq!(req.policy, UpdatePolicy::UnicastStar);
        let cfg = req.approx_config();
        assert_eq!(cfg.fl_solver, FlSolverKind::Greedy);
        assert_eq!(req.cap.capacities.as_deref(), Some(&[1usize, 1, 1][..]));
    }

    #[test]
    fn defaults_are_the_paper_constants() {
        let req = SolveRequest::new();
        assert_eq!(dmn_approx::STORAGE_ADD_FACTOR, 5.0);
        assert_eq!(dmn_approx::WRITE_PRUNE_FACTOR, 4.0);
        assert_eq!(req.policy, UpdatePolicy::MstMulticast);
        assert_eq!(req.shard.count, 0, "0 = auto (one shard per CPU)");
        assert_eq!(req.shard.partition, PartitionStrategy::RoundRobin);
        assert_eq!(req.shard.max_threads, None);
        assert!(req.cap.load_capacities.is_none());
        assert_eq!(req.metric.backend, MetricBackend::Dense);
        assert!(!req.wants_sparse_metric());
        assert_eq!(
            req.robust.deadline_seconds, None,
            "unbounded solves by default"
        );
    }

    #[test]
    fn deadline_knob_chains_and_expires() {
        let req = SolveRequest::new().deadline(0.25);
        assert_eq!(req.robust.deadline_seconds, Some(0.25));
        let started = std::time::Instant::now();
        assert!(!req.robust.expired(started), "fresh clock is in budget");
        let zero = SolveRequest::new().deadline(0.0);
        assert!(zero.robust.expired(started), "zero budget expires at once");
        assert!(
            !SolveRequest::new().robust.expired(started),
            "no deadline never expires"
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_deadline_rejected() {
        let _ = SolveRequest::new().deadline(-1.0);
    }

    #[test]
    fn capacity_model_knobs_chain() {
        let req = SolveRequest::new()
            .capacities(vec![2, 2, 2])
            .load_capacities(vec![10.0, 5.0, 10.0]);
        assert_eq!(
            req.cap.load_capacities.as_deref(),
            Some(&[10.0, 5.0, 10.0][..])
        );
    }

    #[test]
    fn shard_knobs_chain() {
        let req = SolveRequest::new()
            .shards(4)
            .partition(PartitionStrategy::CostWeighted)
            .max_threads(Some(2));
        assert_eq!(req.shard.count, 4);
        assert_eq!(req.shard.partition, PartitionStrategy::CostWeighted);
        assert_eq!(req.shard.max_threads, Some(2));
    }

    #[test]
    fn metric_backend_defaults_and_views() {
        let sparse = SolveRequest::new().metric_backend(MetricBackend::Sparse);
        assert_eq!(sparse.metric.backend, MetricBackend::Sparse);
        assert!(sparse.wants_sparse_metric());
        let opts = sparse.metric.sparse_opts();
        assert_eq!(opts.expansion, SparseOpts::default().expansion);
        assert_eq!(opts.min_candidates, SparseOpts::default().min_candidates);
        assert_eq!(MetricBackend::parse("sparse"), Some(MetricBackend::Sparse));
        assert_eq!(MetricBackend::parse("dense"), Some(MetricBackend::Dense));
        assert_eq!(MetricBackend::parse("banded"), None);
        assert_eq!(MetricBackend::Sparse.to_string(), "sparse");
    }

    #[test]
    #[should_panic(expected = "at least one copy")]
    fn zero_replication_degree_rejected() {
        let _ = SolveRequest::new().replication_degree(0);
    }
}
