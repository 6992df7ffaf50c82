//! Sparse-vs-dense equivalence properties of the metric backends.
//!
//! The sparse path solves each object over a truncated metric closure
//! (clients + candidate ball). Two regimes:
//!
//! * **Full coverage** — every node is a client, so the candidate set is
//!   the whole graph and the truncated closure equals the dense `apsp`
//!   rows bit for bit: placements and costs must be *identical* to the
//!   dense backend, on trees and general graphs alike.
//! * **Truncation** — hotspot workloads leave nodes outside the ball, so
//!   placements may differ; the total cost must stay within the pinned
//!   epsilon of the dense solve (the same 1.05 ceiling the perf-smoke
//!   `scale_ok` gate enforces), and the sparse evaluator must agree with
//!   the dense evaluator on the sparse placement exactly.
//!
//! Both properties are checked through the meta-engines too: every
//! partition strategy of `sharded:approx` must reproduce the sequential
//! sparse solve, and the `cap:` wrapper must stay feasible (capacity
//! repair falls back to the dense evaluator by design).

use dmn_core::cost::evaluate;
use dmn_solve::{
    solvers, FlSolverKind, MetricBackend, PartitionStrategy, SolveReport, SolveRequest,
};
use dmn_workloads::{Scenario, TopologyKind, WorkloadParams};

/// The cost ceiling truncated solves are held to, mirroring
/// `dmn_bench::perf_smoke::MAX_SPARSE_COST_RATIO` (pinned independently
/// here so a bench-side relaxation cannot silently weaken this test).
const MAX_SPARSE_COST_RATIO: f64 = 1.05;

fn scenario(topology: TopologyKind, nodes: usize, seed: u64, truncating: bool) -> Scenario {
    Scenario {
        name: "sparse-equivalence".into(),
        topology,
        nodes,
        storage_cost: 4.0,
        workload: WorkloadParams {
            num_objects: 4,
            base_mass: 80.0,
            write_fraction: 0.25,
            active_fraction: if truncating { 0.2 } else { 1.0 },
            locality: if truncating { 0.6 } else { 0.0 },
            ..Default::default()
        },
        seed,
        capacities: None,
        stream: None,
        drift: None,
        faults: None,
        timeline: None,
    }
}

fn dense_req() -> SolveRequest {
    SolveRequest::new().max_threads(Some(1))
}

fn sparse_req() -> SolveRequest {
    dense_req().metric_backend(MetricBackend::Sparse)
}

fn copy_sets(report: &SolveReport) -> Vec<Vec<usize>> {
    (0..report.placement.num_objects())
        .map(|x| report.placement.copies(x).to_vec())
        .collect()
}

/// Full coverage on trees: the sparse trajectory is bit-identical, for
/// every phase-1 backend.
#[test]
fn sparse_matches_dense_exactly_on_trees() {
    let approx = solvers::by_name("approx").unwrap();
    for fl in FlSolverKind::ALL {
        // The exhaustive backend is 2^16 subsets per object: one seed.
        let seeds: &[u64] = if fl == FlSolverKind::Exact {
            &[1]
        } else {
            &[1, 2, 3, 4, 5]
        };
        for &seed in seeds {
            let instance = scenario(TopologyKind::RandomTree, 16, seed, false).build_instance();
            let dense = approx.solve(&instance, &dense_req().fl_solver(fl));
            let sparse = approx.solve(&instance, &sparse_req().fl_solver(fl));
            assert_eq!(sparse.placement, dense.placement, "{fl:?} seed {seed}");
            assert!(
                (sparse.cost.total() - dense.cost.total()).abs() < 1e-9,
                "{fl:?} seed {seed}: {} vs {}",
                sparse.cost.total(),
                dense.cost.total()
            );
        }
    }
}

/// Full coverage on general (cyclic) graphs: still bit-identical — the
/// guarantee is about the closure, not the topology — and warm seeds
/// reach both backends the same way.
#[test]
fn sparse_matches_dense_exactly_under_full_coverage() {
    for (topology, nodes) in [
        (TopologyKind::Grid { rows: 5, cols: 5 }, 25),
        (TopologyKind::Gnp, 20),
        (TopologyKind::Geometric, 22),
    ] {
        let instance = scenario(topology, nodes, 9, false).build_instance();
        let approx = solvers::by_name("approx").unwrap();
        let dense = approx.solve(&instance, &dense_req());
        let sparse = approx.solve(&instance, &sparse_req());
        assert_eq!(sparse.placement, dense.placement, "{topology:?}");
        assert!(
            (sparse.cost.total() - dense.cost.total()).abs() < 1e-9,
            "{topology:?}"
        );

        // Seeded from a Mettu–Plaxton solve: same placement and the same
        // phase-1 trajectory (move count) on both backends.
        let mp_req = dense_req().fl_solver(FlSolverKind::MettuPlaxton);
        let seeds = copy_sets(&approx.solve(&instance, &mp_req));
        let dense_warm = approx.solve(&instance, &dense_req().warm_placement(seeds.clone()));
        let sparse_warm = approx.solve(&instance, &sparse_req().warm_placement(seeds));
        assert_eq!(sparse_warm.placement, dense_warm.placement, "{topology:?}");
        assert_eq!(
            sparse_warm.meta_value("fl-moves"),
            dense_warm.meta_value("fl-moves"),
            "{topology:?}: the sparse backend must start from the seeds"
        );
        assert_eq!(sparse_warm.meta_value("warm-seeded-objects"), Some("4"));
        assert_eq!(dense_warm.meta_value("warm-seeded-objects"), Some("4"));
    }
}

/// A truncating workload seeded with nodes outside each object's ball
/// and outside the graph: the unusable seed nodes are dropped and the
/// solve still returns a valid placement.
#[test]
fn sparse_warm_seeds_outside_the_ball_are_dropped() {
    let instance = scenario(TopologyKind::Grid { rows: 8, cols: 8 }, 64, 21, true).build_instance();
    let n = instance.num_nodes();
    let approx = solvers::by_name("approx").unwrap();
    let cold = approx.solve(&instance, &sparse_req());
    let rows = cold
        .meta_value("sparse-candidate-rows")
        .and_then(|v| v.parse::<usize>().ok())
        .expect("sparse-candidate-rows reported");
    assert!(rows < n * instance.num_objects(), "the balls must truncate");
    // Each seed: the object's cold copies, every fifth node of the grid
    // (most of them outside the ball), and two ids past the end.
    let seeds: Vec<Vec<usize>> = copy_sets(&cold)
        .into_iter()
        .map(|mut set| {
            set.extend((0..n).step_by(5));
            set.extend([n, n + 7]);
            set
        })
        .collect();
    let warm = approx.solve(&instance, &sparse_req().warm_placement(seeds));
    warm.placement.validate(n).unwrap();
    assert!(warm.cost.total().is_finite());
    assert_eq!(warm.meta_value("warm-seeded-objects"), Some("4"));
}

/// `warm-seeded-objects` counts only seeds that survive sanitizing: an
/// object whose seed holds nothing but forbidden or out-of-range nodes
/// runs cold and is not counted, on either backend.
#[test]
fn warm_seeded_objects_counts_only_usable_seeds() {
    let mut instance =
        scenario(TopologyKind::Grid { rows: 5, cols: 5 }, 25, 9, false).build_instance();
    instance.storage_cost[3] = f64::INFINITY;
    let approx = solvers::by_name("approx").unwrap();
    let mut seeds = vec![vec![3, 99]; instance.num_objects()];
    seeds[0] = vec![3, 12];
    seeds[1] = vec![];
    for req in [dense_req(), sparse_req()] {
        let cold = approx.solve(&instance, &req);
        let warm = approx.solve(&instance, &req.clone().warm_placement(seeds.clone()));
        let backend = req.metric.backend;
        assert_eq!(
            warm.meta_value("warm-seeded-objects"),
            Some("1"),
            "{backend}"
        );
        for x in 1..instance.num_objects() {
            assert_eq!(
                warm.placement.copies(x),
                cold.placement.copies(x),
                "{backend}: object {x} must run cold"
            );
        }
    }
}

/// Truncating workloads on general graphs: cost within the pinned
/// epsilon, and the sparse evaluator agrees with the dense one exactly
/// on the placement it reports.
#[test]
fn truncated_sparse_stays_within_epsilon() {
    for (topology, nodes, seed) in [
        (TopologyKind::Grid { rows: 8, cols: 8 }, 64, 21u64),
        (TopologyKind::Gnp, 60, 22),
        (TopologyKind::Geometric, 60, 23),
        (TopologyKind::TransitStub, 60, 24),
    ] {
        let instance = scenario(topology, nodes, seed, true).build_instance();
        let approx = solvers::by_name("approx").unwrap();
        let req = sparse_req();
        let dense = approx.solve(&instance, &dense_req());
        let sparse = approx.solve(&instance, &req);
        let ratio = sparse.cost.total() / dense.cost.total();
        assert!(
            ratio <= MAX_SPARSE_COST_RATIO,
            "{topology:?}: sparse/dense ratio {ratio:.4} breaches {MAX_SPARSE_COST_RATIO}"
        );
        // The report's cost came from the per-copy Dijkstra evaluator;
        // the dense matrix evaluator must assign the same total to the
        // same placement.
        let dense_eval = evaluate(&instance, &sparse.placement, req.policy).total();
        assert!(
            (sparse.cost.total() - dense_eval).abs() < 1e-9 * (1.0 + dense_eval),
            "{topology:?}: sparse evaluator {} vs dense evaluator {}",
            sparse.cost.total(),
            dense_eval
        );
        // And the report records its backend.
        assert_eq!(sparse.meta_value("metric-backend"), Some("sparse"));
        assert_eq!(dense.meta_value("metric-backend"), Some("dense"));
    }
}

/// Every partition strategy of the sharded wrapper reproduces the
/// sequential sparse solve — sharding is plumbing, per-object solves are
/// deterministic, so the merged placement is invariant.
#[test]
fn sharded_sparse_matches_sequential_across_all_partitions() {
    for truncating in [false, true] {
        let instance =
            scenario(TopologyKind::Grid { rows: 7, cols: 7 }, 49, 31, truncating).build_instance();
        let sequential = solvers::by_name("approx")
            .unwrap()
            .solve(&instance, &sparse_req());
        for strategy in PartitionStrategy::ALL {
            let req = SolveRequest::new()
                .metric_backend(MetricBackend::Sparse)
                .shards(3)
                .partition(strategy);
            let sharded = solvers::by_name("sharded:approx")
                .unwrap()
                .solve(&instance, &req);
            assert_eq!(
                sharded.placement, sequential.placement,
                "truncating={truncating} strategy={strategy:?}"
            );
            assert!(
                (sharded.cost.total() - sequential.cost.total()).abs() < 1e-9,
                "truncating={truncating} strategy={strategy:?}"
            );
        }
    }
}

/// The `cap:` wrapper accepts the sparse backend: the solve stays
/// feasible under per-node capacities (capacity repair and the final
/// evaluation fall back to the dense path by design).
#[test]
fn cap_wrapper_accepts_the_sparse_backend() {
    let instance = scenario(TopologyKind::Grid { rows: 6, cols: 6 }, 36, 41, true).build_instance();
    let cap = vec![1usize; 36];
    let req = sparse_req().capacities(cap.clone());
    for name in ["capacitated", "approx", "sharded:cap:approx"] {
        let report = solvers::by_name(name).unwrap().solve(&instance, &req);
        assert!(
            dmn_approx::respects_capacities(&report.placement, &cap),
            "{name} ignored capacities under the sparse backend"
        );
        assert!(report.cost.total().is_finite(), "{name}");
        report.placement.validate(36).unwrap();
    }
}
