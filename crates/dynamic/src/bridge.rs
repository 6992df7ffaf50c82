//! The dynamic↔static bridge: the offline oracle as a registry client.
//!
//! The simulator scores online strategies against the *offline* optimum a
//! static algorithm computes from the stream's realized frequencies. Before
//! this bridge, [`StaticOracle`] was hardwired to the `approx` engine; now
//! it wraps **any** solver from the `dmn-solve` registry
//! ([`dmn_solve::solvers::by_name`]) driven through a [`SolveRequest`], so
//! `tree-dp`, `sharded:approx`, `capacitated`, exhaustive `exact`, or any
//! future engine can serve as the competitive-ratio reference.
//!
//! [`compete`] is the harness built on top: one stream, one oracle, a set
//! of online strategies, and a [`CompetitiveReport`] with per-strategy
//! serve/transfer/rent breakdowns and total + per-phase empirical
//! competitive ratios.

use dmn_core::instance::{Instance, ObjectWorkload};
use dmn_graph::{Graph, Metric, NodeId};
use dmn_solve::{solvers, SolveRequest, Solver, Unsupported};

use crate::report::{CompetitiveReport, StrategyRun};
use crate::sim::{simulate_segmented, DynamicCost};
use crate::strategy::{DynamicStrategy, Reconfiguration};
use crate::stream::{empirical_workloads, Request};

/// The offline reference: a registry solver fed the stream's empirical
/// frequencies up front. As a [`DynamicStrategy`] it never reconfigures
/// (its placement is computed before the run); as a [`Solver`] it
/// delegates to the wrapped engine, so it drops into any registry-style
/// pipeline.
pub struct StaticOracle {
    engine: Box<dyn Solver>,
    request: SolveRequest,
}

impl StaticOracle {
    /// The default oracle: the paper's Section-2 approximation (`approx`),
    /// matching the pre-bridge hardwired behaviour.
    pub fn approx() -> Self {
        StaticOracle::with_engine("approx").expect("approx is registered")
    }

    /// An oracle over any registry engine name (every spelling
    /// [`solvers::by_name`] accepts, including `sharded:<inner>` and
    /// `cap:<inner>`); `None` for unknown names.
    pub fn with_engine(name: &str) -> Option<Self> {
        Some(StaticOracle {
            engine: solvers::by_name(name)?,
            request: SolveRequest::new(),
        })
    }

    /// An oracle over an already-constructed solver.
    pub fn from_solver(engine: Box<dyn Solver>) -> Self {
        StaticOracle {
            engine,
            request: SolveRequest::new(),
        }
    }

    /// Replaces the [`SolveRequest`] the wrapped engine is driven with
    /// (seed, FL backend, capacities, shard knobs, ...).
    pub fn request(mut self, request: SolveRequest) -> Self {
        self.request = request;
        self
    }

    /// Registry name of the wrapped engine.
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// Whether the wrapped engine can solve on this network (`tree-dp`
    /// needs a tree, the exhaustive engines cap the node count, ...).
    ///
    /// # Errors
    /// [`Unsupported`] with the engine's reason.
    pub fn supports(&self, base: &Instance) -> Result<(), Unsupported> {
        self.engine.supports(base)
    }

    /// Computes the oracle placement for `workloads` on `base`'s network
    /// and storage costs (`base`'s own objects are ignored). Objects with
    /// zero requests are parked on the cheapest finite-storage node; the
    /// rest go through the wrapped engine as one instance.
    ///
    /// # Errors
    /// [`Unsupported`] when the wrapped engine cannot run on the network,
    /// or when no node has finite storage cost (nothing can be placed
    /// anywhere).
    pub fn place_on(
        &self,
        base: &Instance,
        workloads: &[ObjectWorkload],
    ) -> Result<Vec<Vec<NodeId>>, Unsupported> {
        let cs = &base.storage_cost;
        let mut inst = Instance::builder(base.graph.clone())
            .storage_costs(cs.clone())
            .build()
            .with_metric(base.metric().clone());
        let mut solved_indices = Vec::new();
        for (x, w) in workloads.iter().enumerate() {
            if w.total_requests() > 0.0 {
                solved_indices.push(x);
                inst.push_object(w.clone());
            }
        }
        // Never-requested objects: park one copy on the cheapest allowed
        // node (replaced below for solved objects).
        let park = (0..cs.len())
            .filter(|&v| cs[v].is_finite())
            .min_by(|&a, &b| cs[a].total_cmp(&cs[b]))
            .ok_or_else(|| Unsupported {
                reason: "no node has finite storage cost".to_string(),
            })?;
        let mut out: Vec<Vec<NodeId>> = workloads.iter().map(|_| vec![park]).collect();
        if !solved_indices.is_empty() {
            self.engine.supports(&inst)?;
            let report = self.engine.solve(&inst, &self.request);
            for (slot, &x) in solved_indices.iter().enumerate() {
                out[x] = report.placement.copies(slot).to_vec();
            }
        }
        Ok(out)
    }

    /// [`StaticOracle::place_on`] for callers that only hold a metric: the
    /// instance is synthesized as the complete graph over the metric (whose
    /// shortest paths are the metric itself, injected exactly, so
    /// metric-driven engines behave identically to [`place_on`](Self::place_on)).
    ///
    /// # Errors
    /// [`Unsupported`] when the wrapped engine cannot run on the synthetic
    /// network (e.g. `tree-dp`, which needs a tree).
    pub fn place_metric(
        &self,
        metric: &Metric,
        storage_cost: &[f64],
        workloads: &[ObjectWorkload],
    ) -> Result<Vec<Vec<NodeId>>, Unsupported> {
        let n = metric.len();
        let edges = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v, metric.dist(u, v))));
        let base = Instance::builder(Graph::from_edges(n, edges))
            .storage_costs(storage_cost.to_vec())
            .build()
            .with_metric(metric.clone());
        self.place_on(&base, workloads)
    }

    /// The pre-bridge hardwired path — `dmn_approx::place_object` per
    /// object with default knobs — kept as the equivalence reference for
    /// the bridge (`tests/bridge_equivalence.rs` pins bridge == hardwired).
    pub fn place_hardwired(
        metric: &Metric,
        storage_cost: &[f64],
        workloads: &[ObjectWorkload],
    ) -> Vec<Vec<NodeId>> {
        let cfg = dmn_approx::ApproxConfig::default();
        workloads
            .iter()
            .map(|w| {
                if w.total_requests() == 0.0 {
                    let v = (0..storage_cost.len())
                        .filter(|&v| storage_cost[v].is_finite())
                        .min_by(|&a, &b| storage_cost[a].total_cmp(&storage_cost[b]))
                        .expect("an allowed node exists");
                    vec![v]
                } else {
                    dmn_approx::place_object(metric, storage_cost, w, &cfg)
                }
            })
            .collect()
    }

    /// Back-compat spelling of the oracle placement: the default `approx`
    /// oracle on a metric (the pre-bridge `StaticOracle::place` surface).
    pub fn place(
        metric: &Metric,
        storage_cost: &[f64],
        workloads: &[ObjectWorkload],
    ) -> Vec<Vec<NodeId>> {
        StaticOracle::approx()
            .place_metric(metric, storage_cost, workloads)
            .expect("approx runs on any network")
    }
}

impl std::fmt::Debug for StaticOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaticOracle")
            .field("engine", &self.engine.name())
            .finish_non_exhaustive()
    }
}

impl DynamicStrategy for StaticOracle {
    fn on_request(&mut self, _: &Request, _: &[NodeId], _: &Metric) -> Reconfiguration {
        Reconfiguration::default()
    }

    fn name(&self) -> &'static str {
        "static-oracle"
    }
}

/// The oracle is also a [`Solver`]: on a static [`Instance`] it delegates
/// to the wrapped engine under the oracle's own [`SolveRequest`], so
/// dynamic-vs-static comparisons flow through the same registry-style
/// pipeline as every other engine (the report is relabelled
/// `static-oracle` to mark the offline-reference role).
impl Solver for StaticOracle {
    fn name(&self) -> &'static str {
        "static-oracle"
    }

    fn description(&self) -> &'static str {
        "offline oracle: any registry engine fed full-knowledge frequencies \
         (reference for empirical competitive ratios)"
    }

    fn supports(&self, instance: &Instance) -> Result<(), Unsupported> {
        self.engine.supports(instance)
    }

    fn solve(&self, instance: &Instance, req: &SolveRequest) -> dmn_solve::SolveReport {
        let mut report = self.engine.solve(instance, req);
        report.solver = "static-oracle";
        report
    }
}

/// Runs every strategy in `strategies` and the oracle over `stream` on
/// `base`'s network and storage costs, and reports per-strategy cost
/// breakdowns with total and per-phase empirical competitive ratios
/// against the oracle placement (computed from the stream's empirical
/// frequencies). `phase_len` segments the per-phase accounting (use the
/// stream's phase length, or its full length for stationary streams);
/// every strategy starts from a copy of `initial`.
///
/// # Errors
/// [`Unsupported`] when the oracle's engine cannot run on the network.
///
/// # Panics
/// Panics when `initial` or a request is inconsistent with `base` /
/// `num_objects`, as in [`crate::sim::simulate`].
pub fn compete(
    base: &Instance,
    stream: &[Request],
    num_objects: usize,
    oracle: &StaticOracle,
    strategies: &mut [Box<dyn DynamicStrategy>],
    initial: &[Vec<NodeId>],
    phase_len: usize,
) -> Result<CompetitiveReport, Unsupported> {
    let metric = base.metric();
    let cs = &base.storage_cost;
    let emp = empirical_workloads(stream, num_objects, metric.len());
    let oracle_placement = oracle.place_on(base, &emp)?;
    let mut fixed = crate::strategy::FixedStrategy;
    let oracle_phases =
        simulate_segmented(metric, cs, &oracle_placement, stream, &mut fixed, phase_len);
    let mut oracle_cost = DynamicCost::default();
    for seg in &oracle_phases {
        oracle_cost += *seg;
    }

    let ratio = |cost: f64, reference: f64| {
        if reference > 0.0 {
            cost / reference
        } else if cost > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    };
    let runs = strategies
        .iter_mut()
        .map(|strategy| {
            let name = strategy.name().to_string();
            let phases =
                simulate_segmented(metric, cs, initial, stream, strategy.as_mut(), phase_len);
            let mut cost = DynamicCost::default();
            for seg in &phases {
                cost += *seg;
            }
            let phase_ratios = phases
                .iter()
                .zip(&oracle_phases)
                .map(|(s, o)| ratio(s.total(), o.total()))
                .collect();
            StrategyRun {
                strategy: name,
                cost,
                phase_costs: phases,
                ratio: ratio(cost.total(), oracle_cost.total()),
                phase_ratios,
            }
        })
        .collect();
    Ok(CompetitiveReport {
        oracle_engine: oracle.engine_name().to_string(),
        oracle_cost,
        oracle_phase_costs: oracle_phases,
        oracle_placement,
        runs,
        stream_len: stream.len(),
        phase_len,
    })
}

/// [`compete`] under the standard racing convention shared by the
/// perf-smoke gate and the `sweep` binary: the object count comes from
/// `base`, every object starts from a single copy on node `x % n`, and
/// the full [`standard_zoo`](crate::strategy::standard_zoo) is raced.
///
/// # Errors
/// [`Unsupported`] when the oracle's engine cannot run on the network.
pub fn compete_standard(
    base: &Instance,
    stream: &[Request],
    oracle: &StaticOracle,
    phase_len: usize,
) -> Result<CompetitiveReport, Unsupported> {
    let n = base.num_nodes();
    let objects = base.num_objects();
    let initial: Vec<Vec<NodeId>> = (0..objects).map(|x| vec![x % n]).collect();
    let mut zoo = crate::strategy::standard_zoo(objects, &base.storage_cost, stream.len());
    compete(base, stream, objects, oracle, &mut zoo, &initial, phase_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{sample_stream, StreamConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn base_instance() -> Instance {
        let g = dmn_graph::generators::grid(3, 3, |_, _| 1.0);
        Instance::builder(g).uniform_storage_cost(2.0).build()
    }

    fn demo_workload(n: usize) -> ObjectWorkload {
        let mut w = ObjectWorkload::new(n);
        for v in 0..n {
            w.reads[v] = 1.0;
        }
        w.writes[4] = 2.0;
        w
    }

    #[test]
    fn static_oracle_solver_delegates_and_relabels() {
        let mut inst = base_instance();
        inst.push_object(demo_workload(9));
        let oracle = StaticOracle::approx();
        let report = Solver::solve(&oracle, &inst, &SolveRequest::new());
        let direct = dmn_approx::place_all(&inst, &dmn_approx::ApproxConfig::default());
        assert_eq!(report.placement, direct);
        assert_eq!(report.solver, "static-oracle");
        assert!(report.cost.total() > 0.0);
    }

    #[test]
    fn unknown_engine_is_rejected() {
        assert!(StaticOracle::with_engine("no-such-engine").is_none());
        assert_eq!(
            StaticOracle::with_engine("greedy-local")
                .unwrap()
                .engine_name(),
            "greedy-local"
        );
    }

    #[test]
    fn zero_request_objects_park_on_the_cheapest_node() {
        let base = base_instance();
        let n = 9;
        let empty = ObjectWorkload::new(n);
        let placed = StaticOracle::approx()
            .place_on(&base, &[empty, demo_workload(n)])
            .unwrap();
        assert_eq!(placed.len(), 2);
        assert_eq!(placed[0].len(), 1, "parked single copy");
        assert!(!placed[1].is_empty());
    }

    #[test]
    fn place_metric_matches_place_on() {
        let base = base_instance();
        let w = demo_workload(9);
        let oracle = StaticOracle::approx();
        let on = oracle.place_on(&base, std::slice::from_ref(&w)).unwrap();
        let via_metric = oracle
            .place_metric(base.metric(), &base.storage_cost, &[w])
            .unwrap();
        assert_eq!(on, via_metric);
    }

    #[test]
    fn tree_dp_oracle_runs_on_trees_and_refuses_meshes() {
        let oracle = StaticOracle::with_engine("tree-dp").unwrap();
        assert!(oracle.supports(&base_instance()).is_err());

        let tree = dmn_graph::generators::path(6, |_| 1.0);
        let base = Instance::builder(tree).uniform_storage_cost(2.0).build();
        let mut w = ObjectWorkload::new(6);
        w.reads[0] = 3.0;
        w.reads[5] = 3.0;
        let placed = oracle.place_on(&base, &[w]).unwrap();
        assert!(!placed[0].is_empty());
    }

    #[test]
    fn compete_reports_every_strategy_with_unit_oracle_self_ratio() {
        let base = base_instance();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let stream = sample_stream(
            &[demo_workload(9)],
            &StreamConfig {
                length: 300,
                ..Default::default()
            },
            &mut rng,
        );
        let oracle = StaticOracle::approx();
        let mut zoo = crate::strategy::standard_zoo(1, &base.storage_cost, stream.len());
        let report = compete(
            &base,
            &stream,
            1,
            &oracle,
            &mut zoo,
            &[vec![0]],
            stream.len(),
        )
        .unwrap();
        assert_eq!(report.runs.len(), zoo.len());
        assert_eq!(report.oracle_engine, "approx");
        for run in &report.runs {
            assert!(run.cost.total().is_finite());
            assert_eq!(run.phase_costs.len(), 1);
        }
        // The oracle raced against itself is exactly 1.0.
        let mut oracle_again: Vec<Box<dyn DynamicStrategy>> =
            vec![Box::new(StaticOracle::approx())];
        let self_report = compete(
            &base,
            &stream,
            1,
            &oracle,
            &mut oracle_again,
            &report.oracle_placement,
            stream.len(),
        )
        .unwrap();
        assert_eq!(self_report.runs[0].ratio, 1.0);
    }
}
