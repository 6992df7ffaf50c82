//! End-to-end contract of the native capacitated engines.
//!
//! The pinned guarantees: `capacitated` (and `cap:<inner>`) always returns
//! a feasible placement under `SolveRequest::capacities`, never costs more
//! than the greedy repair of its inner engine, reports the margin in
//! [`CapacityStats`], and passes through transparently when no capacities
//! are requested.

use dmn_solve::{solvers, SolveRequest};
use dmn_workloads::{Scenario, TopologyKind, WorkloadParams};

fn scenario(topology: TopologyKind, nodes: usize, objects: usize, seed: u64) -> Scenario {
    Scenario {
        name: "capacitated-test".into(),
        topology,
        nodes,
        storage_cost: 3.0,
        workload: WorkloadParams {
            num_objects: objects,
            base_mass: 100.0,
            write_fraction: 0.25,
            active_fraction: 0.6,
            locality: 0.5,
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

#[test]
fn registry_spellings_resolve() {
    assert_eq!(
        solvers::by_name("capacitated").unwrap().name(),
        "capacitated"
    );
    assert_eq!(
        solvers::by_name("cap:approx").unwrap().name(),
        "capacitated"
    );
    assert_eq!(solvers::by_name("cap:krw").unwrap().name(), "capacitated");
    assert_eq!(
        solvers::by_name("cap:greedy-local").unwrap().name(),
        "cap:greedy-local"
    );
    assert!(solvers::by_name("cap:no-such").is_none());
    assert!(solvers::by_name("cap:capacitated").is_none(), "no nesting");
    assert!(solvers::names().contains(&"capacitated"));
}

#[test]
fn feasible_and_never_worse_than_greedy_repair() {
    for (topology, nodes, seed) in [
        (TopologyKind::Grid { rows: 5, cols: 5 }, 25, 3u64),
        (TopologyKind::Gnp, 24, 11),
        (TopologyKind::RandomTree, 24, 29),
    ] {
        let instance = scenario(topology, nodes, 8, seed).build_instance();
        let n = instance.num_nodes();
        let cap = vec![1usize; n];
        let req = SolveRequest::new().capacities(cap.clone());
        let repaired = solvers::by_name("approx").unwrap().solve(&instance, &req);
        let native = solvers::by_name("capacitated")
            .unwrap()
            .solve(&instance, &req);

        assert!(
            dmn_approx::respects_capacities(&native.placement, &cap),
            "{topology:?}: infeasible native placement"
        );
        native.placement.validate(n).unwrap();
        assert!(
            native.cost.total() <= repaired.cost.total() + 1e-9,
            "{topology:?}: native {} > repair {}",
            native.cost.total(),
            repaired.cost.total()
        );
        let stats = native.capacity.expect("capacity stats reported");
        assert!(stats.feasible);
        assert!(
            (stats.repair_cost - repaired.cost.total()).abs() < 1e-9,
            "{topology:?}: baseline mismatch {} vs {}",
            stats.repair_cost,
            repaired.cost.total()
        );
        assert!((stats.final_cost - native.cost.total()).abs() < 1e-9);
        assert!(stats.margin_vs_repair >= -1e-12);
        for phase in [
            "inner-solve",
            "greedy-repair",
            "flow-seed",
            "cap-local-search",
        ] {
            assert!(
                native.phases.iter().any(|p| p.name == phase),
                "{topology:?}: missing phase {phase}"
            );
        }
        let text = native.to_string();
        assert!(text.contains("capacitated:"), "{text}");
    }
}

#[test]
fn passthrough_without_capacities() {
    let instance = scenario(TopologyKind::Gnp, 20, 5, 7).build_instance();
    let req = SolveRequest::new();
    let inner = solvers::by_name("approx").unwrap().solve(&instance, &req);
    let native = solvers::by_name("capacitated")
        .unwrap()
        .solve(&instance, &req);
    assert_eq!(native.placement, inner.placement);
    assert_eq!(native.solver, "capacitated");
    assert!(native.capacity.is_none());
    assert_eq!(native.meta_value("inner"), Some("approx"));
}

#[test]
fn cap_inner_engines_work_and_stay_feasible() {
    let instance = scenario(TopologyKind::Grid { rows: 4, cols: 4 }, 16, 6, 13).build_instance();
    let cap = vec![2usize; 16];
    let req = SolveRequest::new().capacities(cap.clone());
    for name in [
        "cap:greedy-local",
        "cap:best-single",
        "cap:full-replication",
    ] {
        let report = solvers::by_name(name).unwrap().solve(&instance, &req);
        assert!(
            dmn_approx::respects_capacities(&report.placement, &cap),
            "{name} infeasible"
        );
        let stats = report.capacity.expect("stats");
        assert!(
            stats.final_cost <= stats.repair_cost + 1e-9,
            "{name}: {} > {}",
            stats.final_cost,
            stats.repair_cost
        );
    }
}

#[test]
fn load_capacities_reprice_the_serve_legs() {
    let instance = scenario(TopologyKind::Grid { rows: 4, cols: 4 }, 16, 4, 17).build_instance();
    let n = instance.num_nodes();
    let total_mass: f64 = instance.objects.iter().map(|w| w.total_requests()).sum();
    let cap = vec![2usize; n];
    // Generous budgets: feasible, assignment cost equals nearest-copy
    // serving (the flow has no reason to divert).
    let generous = SolveRequest::new()
        .capacities(cap.clone())
        .load_capacities(vec![total_mass; n]);
    let report = solvers::by_name("capacitated")
        .unwrap()
        .solve(&instance, &generous);
    let stats = report.capacity.expect("stats");
    assert_eq!(stats.load_feasible, Some(true));
    let serve = report.cost.read + report.cost.write_serve;
    let assignment = stats.assignment_cost.expect("assignment cost");
    assert!(
        (assignment - serve).abs() < 1e-6 * (1.0 + serve),
        "unbounded budgets must reproduce nearest-copy serving: {assignment} vs {serve}"
    );
    // Starved budgets: infeasible is detected, not papered over.
    let starved = SolveRequest::new()
        .capacities(cap)
        .load_capacities(vec![0.0; n]);
    let report = solvers::by_name("capacitated")
        .unwrap()
        .solve(&instance, &starved);
    let stats = report.capacity.expect("stats");
    assert_eq!(stats.load_feasible, Some(false));
    assert!(stats.assignment_cost.is_none());
}

#[test]
fn load_capacities_work_without_copy_capacities() {
    // The service-load model stands on its own: no copy caps set, yet the
    // assignment flow must still run and report its verdict — over the
    // paper's algorithm and over a baseline inner engine alike.
    let instance = scenario(TopologyKind::Gnp, 18, 4, 23).build_instance();
    let n = instance.num_nodes();
    let total_mass: f64 = instance.objects.iter().map(|w| w.total_requests()).sum();
    for name in ["capacitated", "cap:greedy-local"] {
        let solver = solvers::by_name(name).unwrap();
        let generous = SolveRequest::new().load_capacities(vec![total_mass; n]);
        let report = solver.solve(&instance, &generous);
        let stats = report
            .capacity
            .unwrap_or_else(|| panic!("{name}: load-only request must report capacity stats"));
        assert_eq!(stats.load_feasible, Some(true), "{name}");
        let serve = report.cost.read + report.cost.write_serve;
        let assignment = stats.assignment_cost.expect("assignment cost");
        assert!(
            (assignment - serve).abs() < 1e-6 * (1.0 + serve),
            "{name}: unbounded budgets must reproduce nearest-copy serving"
        );
        assert_eq!(stats.margin_vs_repair, 0.0, "{name}: no repair ran");

        let starved = SolveRequest::new().load_capacities(vec![0.0; n]);
        let report = solver.solve(&instance, &starved);
        let stats = report.capacity.expect("stats");
        assert_eq!(stats.load_feasible, Some(false), "{name}");
        assert!(stats.assignment_cost.is_none(), "{name}");
        assert_eq!(report.meta_value("load-feasible"), Some("false"), "{name}");
    }
}
