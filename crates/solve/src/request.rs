//! Builder-style solve-time options shared by every engine.

use dmn_approx::{ApproxConfig, FlSolverKind, SparseOpts};
use dmn_core::cost::UpdatePolicy;

use crate::sharded::PartitionStrategy;

/// Knobs of the paper's three-phase approximation (phase-1 backend and the
/// Lemma-8 threshold factors). Grouped under [`SolveRequest::fl`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlOpts {
    /// Phase-1 facility-location backend of the approximation algorithm
    /// ([`FlSolverKind::LocalSearchWarm`] starts the local search from
    /// Mettu–Plaxton instead of the best single facility).
    pub solver: FlSolverKind,
    /// Phase-2 threshold factor (paper value 5; changing it voids Lemma 8).
    pub storage_add_factor: f64,
    /// Phase-3 threshold factor (paper value 4; changing it voids Lemma 8).
    pub write_prune_factor: f64,
    /// Skip the radius-add phase (ablation).
    pub skip_phase2: bool,
    /// Skip the radius-prune phase (ablation).
    pub skip_phase3: bool,
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

impl Default for FlOpts {
    fn default() -> Self {
        FlOpts {
            solver: FlSolverKind::default(),
            storage_add_factor: 5.0,
            write_prune_factor: 4.0,
            skip_phase2: false,
            skip_phase3: false,
            warm_placement: None,
        }
    }
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
    /// Candidate-pool breadth per object for the capacitated flow seed:
    /// the `candidates` cheapest single-copy hosts plus the inner engine's
    /// own copies. `0` (the default) means every finite-storage node —
    /// the flow seed is then exact over the full node set.
    pub candidates: usize,
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
#[derive(Debug, Clone, PartialEq)]
pub struct MetricOpts {
    /// Dense cached APSP (default) or per-object truncated closures.
    pub backend: MetricBackend,
    /// Sparse only: candidate-ball size as a multiple of the object's
    /// client count (clamped to at least `min_candidates`, at most `n`).
    pub expansion: f64,
    /// Sparse only: floor on the candidate-ball size.
    pub min_candidates: usize,
}

impl Default for MetricOpts {
    fn default() -> Self {
        let s = SparseOpts::default();
        MetricOpts {
            backend: MetricBackend::Dense,
            expansion: s.expansion,
            min_candidates: s.min_candidates,
        }
    }
}

impl MetricOpts {
    /// The exact dense backend (the default).
    pub fn dense() -> Self {
        MetricOpts::default()
    }

    /// The sub-quadratic sparse backend with its default ball parameters.
    pub fn sparse() -> Self {
        MetricOpts {
            backend: MetricBackend::Sparse,
            ..MetricOpts::default()
        }
    }

    /// The [`SparseOpts`] view of these knobs (what the sparse placement
    /// path in `dmn-approx` consumes).
    pub fn sparse_opts(&self) -> SparseOpts {
        SparseOpts {
            expansion: self.expansion,
            min_candidates: self.min_candidates,
        }
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
/// understands and ignores the rest (the approximation algorithm reads the
/// phase knobs, `random-k` reads `seed` and `replication_degree`, the
/// capacity repair applies to all). Options cluster into typed groups —
/// [`FlOpts`] (`fl`), [`CapOpts`] (`cap`), [`ShardOpts`] (`shard`),
/// [`MetricOpts`] (`metric`) — with a handful of engine-agnostic fields
/// kept flat. Construct with [`SolveRequest::new`] and chain the builder
/// methods (each flat builder forwards into its group, so pre-grouping
/// call sites compile unchanged):
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
    /// Approximation-algorithm knobs (phase-1 backend, thresholds).
    pub fl: FlOpts,
    /// Capacity-model knobs (copy caps, flow-seed breadth, load budgets).
    pub cap: CapOpts,
    /// Shard-fan-out knobs (count, partition strategy, thread cap).
    pub shard: ShardOpts,
    /// Distance-closure knobs (dense vs sparse, ball parameters).
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

    // ---- grouped builders ------------------------------------------------

    /// Replaces the approximation-algorithm option group wholesale.
    pub fn fl_opts(mut self, fl: FlOpts) -> Self {
        self.fl = fl;
        self
    }

    /// Replaces the capacity-model option group wholesale.
    pub fn cap_opts(mut self, cap: CapOpts) -> Self {
        self.cap = cap;
        self
    }

    /// Replaces the shard option group wholesale.
    pub fn shard_opts(mut self, shard: ShardOpts) -> Self {
        self.shard = shard;
        self
    }

    /// Replaces the distance-closure option group wholesale.
    pub fn metric_opts(mut self, metric: MetricOpts) -> Self {
        self.metric = metric;
        self
    }

    /// Replaces the robustness option group wholesale.
    pub fn robust_opts(mut self, robust: RobustOpts) -> Self {
        self.robust = robust;
        self
    }

    /// Selects the distance-closure backend, keeping the group's other
    /// knobs (`Sparse` turns on the sub-quadratic per-object path).
    pub fn metric_backend(mut self, backend: MetricBackend) -> Self {
        self.metric.backend = backend;
        self
    }

    // ---- flat builders (forwarding shims into the groups) ----------------

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

    /// Sets the phase-2/phase-3 threshold factors.
    pub fn phase_factors(mut self, storage_add: f64, write_prune: f64) -> Self {
        self.fl.storage_add_factor = storage_add;
        self.fl.write_prune_factor = write_prune;
        self
    }

    /// Toggles the radius-add phase.
    pub fn skip_phase2(mut self, skip: bool) -> Self {
        self.fl.skip_phase2 = skip;
        self
    }

    /// Toggles the radius-prune phase.
    pub fn skip_phase3(mut self, skip: bool) -> Self {
        self.fl.skip_phase3 = skip;
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

    /// Sets the flow-seed candidate breadth of the capacitated engines
    /// (`0` = every finite-storage node).
    pub fn cap_candidates(mut self, breadth: usize) -> Self {
        self.cap.candidates = breadth;
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
            storage_add_factor: self.fl.storage_add_factor,
            write_prune_factor: self.fl.write_prune_factor,
            skip_phase2: self.fl.skip_phase2,
            skip_phase3: self.fl.skip_phase3,
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
            .phase_factors(6.0, 3.0)
            .skip_phase2(true)
            .seed(7)
            .replication_degree(2)
            .capacities(vec![1, 1, 1])
            .collect_traces(true);
        assert_eq!(req.policy, UpdatePolicy::UnicastStar);
        let cfg = req.approx_config();
        assert_eq!(cfg.fl_solver, FlSolverKind::Greedy);
        assert_eq!(cfg.storage_add_factor, 6.0);
        assert_eq!(cfg.write_prune_factor, 3.0);
        assert!(cfg.skip_phase2 && !cfg.skip_phase3);
        assert_eq!(req.cap.capacities.as_deref(), Some(&[1usize, 1, 1][..]));
    }

    #[test]
    fn defaults_are_the_paper_constants() {
        let req = SolveRequest::new();
        assert_eq!(req.fl.storage_add_factor, 5.0);
        assert_eq!(req.fl.write_prune_factor, 4.0);
        assert_eq!(req.policy, UpdatePolicy::MstMulticast);
        assert!(!req.fl.skip_phase2 && !req.fl.skip_phase3);
        assert_eq!(req.shard.count, 0, "0 = auto (one shard per CPU)");
        assert_eq!(req.shard.partition, PartitionStrategy::RoundRobin);
        assert_eq!(req.shard.max_threads, None);
        assert_eq!(req.cap.candidates, 0, "0 = all finite-storage nodes");
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
            .cap_candidates(8)
            .load_capacities(vec![10.0, 5.0, 10.0]);
        assert_eq!(req.cap.candidates, 8);
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
    fn grouped_builders_replace_whole_groups() {
        let req = SolveRequest::new()
            .fl_opts(FlOpts {
                solver: FlSolverKind::Greedy,
                storage_add_factor: 7.0,
                ..FlOpts::default()
            })
            .cap_opts(CapOpts {
                capacities: Some(vec![2, 2]),
                candidates: 4,
                load_capacities: None,
            })
            .shard_opts(ShardOpts {
                count: 3,
                partition: PartitionStrategy::Contiguous,
                max_threads: Some(1),
            })
            .metric_opts(MetricOpts::sparse());
        assert_eq!(req.fl.solver, FlSolverKind::Greedy);
        assert_eq!(req.fl.storage_add_factor, 7.0);
        assert_eq!(req.cap.capacities.as_deref(), Some(&[2usize, 2][..]));
        assert_eq!(req.shard.count, 3);
        assert!(req.wants_sparse_metric());
    }

    #[test]
    fn metric_opts_defaults_and_views() {
        let dense = MetricOpts::dense();
        assert_eq!(dense.backend, MetricBackend::Dense);
        let sparse = MetricOpts::sparse();
        assert_eq!(sparse.backend, MetricBackend::Sparse);
        let opts = sparse.sparse_opts();
        assert_eq!(opts.expansion, sparse.expansion);
        assert_eq!(opts.min_candidates, sparse.min_candidates);
        assert_eq!(MetricBackend::parse("sparse"), Some(MetricBackend::Sparse));
        assert_eq!(MetricBackend::parse("dense"), Some(MetricBackend::Dense));
        assert_eq!(MetricBackend::parse("banded"), None);
        assert_eq!(MetricBackend::Sparse.to_string(), "sparse");
    }

    #[test]
    fn flat_shims_and_groups_agree() {
        // The pre-grouping builder spellings and the grouped fields must
        // describe the same request.
        let flat = SolveRequest::new()
            .fl_solver(FlSolverKind::Greedy)
            .phase_factors(6.0, 3.5)
            .cap_candidates(5)
            .shards(2)
            .max_threads(Some(4));
        assert_eq!(flat.fl.solver, FlSolverKind::Greedy);
        assert_eq!(flat.fl.storage_add_factor, 6.0);
        assert_eq!(flat.fl.write_prune_factor, 3.5);
        assert_eq!(flat.cap.candidates, 5);
        assert_eq!(flat.shard.count, 2);
        assert_eq!(flat.shard.max_threads, Some(4));
    }

    #[test]
    #[should_panic(expected = "at least one copy")]
    fn zero_replication_degree_rejected() {
        let _ = SolveRequest::new().replication_degree(0);
    }
}
