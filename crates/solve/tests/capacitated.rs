//! End-to-end contract of the native capacitated engine.
//!
//! The pinned guarantees: `capacitated` always returns a feasible
//! placement under `SolveRequest::capacities`, never costs more than the
//! greedy repair of `approx`, reports the margin in [`CapacityStats`], and
//! passes through transparently when no capacities are requested.

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
    for spelling in ["cap:approx", "cap:greedy-local"] {
        let e = solvers::resolve(spelling).err().expect("rejected");
        assert!(e.reason.contains(spelling), "{e}");
    }
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
