//! Deadline-bounded solves: a valid placement always comes back, and
//! degradation is reported truthfully.

use dmn_core::instance::{Instance, ObjectWorkload};
use dmn_graph::generators;
use dmn_solve::{solvers, MetricBackend, SolveRequest};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn instance(n_side: usize, objects: usize, seed: u64) -> Instance {
    let g = generators::grid(n_side, n_side, |_, _| 1.0);
    let n = n_side * n_side;
    let mut inst = Instance::builder(g).uniform_storage_cost(4.0).build();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..objects {
        let mut w = ObjectWorkload::new(n);
        for _ in 0..6 {
            let v = rng.random_range(0..n);
            w.reads[v] += rng.random_range(1..8) as f64;
        }
        let v = rng.random_range(0..n);
        w.writes[v] += rng.random_range(1..4) as f64;
        inst.push_object(w);
    }
    inst
}

fn assert_feasible(report: &dmn_solve::SolveReport, objects: usize) {
    assert_eq!(report.placement.num_objects(), objects);
    for x in 0..objects {
        assert!(
            !report.placement.copies(x).is_empty(),
            "object {x} must keep at least one copy"
        );
    }
    assert!(report.cost.total().is_finite() && report.cost.total() > 0.0);
}

#[test]
fn expired_deadline_still_returns_feasible_placement() {
    let inst = instance(8, 24, 7);
    let approx = solvers::by_name("approx").expect("registered");
    // A zero budget expires before the first object: every object takes
    // the fallback, and the report says so.
    let report = approx.solve(&inst, &SolveRequest::new().deadline(0.0));
    assert_feasible(&report, 24);
    assert!(report.degraded, "expired deadline must report degraded");
    assert!(report.deadline_exceeded);
    assert_eq!(report.meta_value("deadline-fallback-objects"), Some("24"));
    let json = report.to_json();
    assert_eq!(json.get("degraded"), Some(&dmn_json::Json::Bool(true)));
    assert_eq!(
        json.get("deadline_exceeded"),
        Some(&dmn_json::Json::Bool(true))
    );
}

#[test]
fn generous_deadline_matches_unbounded_solve() {
    let inst = instance(6, 12, 3);
    let approx = solvers::by_name("approx").expect("registered");
    let unbounded = approx.solve(&inst, &SolveRequest::new());
    let bounded = approx.solve(&inst, &SolveRequest::new().deadline(3600.0));
    assert!(!bounded.degraded && !bounded.deadline_exceeded);
    assert_eq!(bounded.cost.total(), unbounded.cost.total());
    for x in 0..12 {
        assert_eq!(
            bounded.placement.copies(x),
            unbounded.placement.copies(x),
            "an unexercised deadline must not change the trajectory"
        );
    }
}

#[test]
fn sparse_path_honors_deadline() {
    let inst = instance(8, 16, 11);
    let approx = solvers::by_name("approx").expect("registered");
    let req = SolveRequest::new()
        .metric_backend(MetricBackend::Sparse)
        .deadline(0.0);
    let report = approx.solve(&inst, &req);
    assert_feasible(&report, 16);
    assert!(report.degraded && report.deadline_exceeded);
}

#[test]
fn sharded_solve_propagates_shard_degradation() {
    let inst = instance(8, 24, 5);
    let sharded = solvers::by_name("sharded:approx").expect("registered");
    let report = sharded.solve(&inst, &SolveRequest::new().shards(4).deadline(0.0));
    assert_feasible(&report, 24);
    assert!(
        report.degraded && report.deadline_exceeded,
        "a degraded shard degrades the merged report"
    );
    let clean = sharded.solve(&inst, &SolveRequest::new().shards(4));
    assert!(!clean.degraded && !clean.deadline_exceeded);
}

#[test]
fn capacitated_solve_propagates_inner_degradation() {
    let inst = instance(6, 12, 9);
    let cap = solvers::by_name("capacitated").expect("registered");
    let report = cap.solve(
        &inst,
        &SolveRequest::new().capacities(vec![2; 36]).deadline(0.0),
    );
    assert_feasible(&report, 12);
    assert!(
        report.degraded && report.deadline_exceeded,
        "deadline degradation survives the capacitated finish"
    );
    assert!(
        report.capacity.expect("capacitated stats").feasible,
        "the degraded placement still respects the caps"
    );
}
