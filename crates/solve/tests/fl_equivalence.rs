//! End-to-end equivalence of the incremental phase-1 fast path.
//!
//! The contract pinned here: swapping the seed from-scratch local search
//! (`FlSolverKind::LocalSearchRef`) for the incremental assignment-table
//! fast path (`FlSolverKind::LocalSearch`, the default) changes *nothing*
//! about the answer — identical placements and costs through the registry,
//! for every partition strategy of the sharded wrapper, with and without
//! per-node capacities. The warm starts (`LocalSearchWarm`, and per-object
//! seeds via `SolveRequest::warm_placement`) are different trajectories,
//! so they are pinned the weaker way: valid placements, sharded ==
//! sequential, and FL move counters visible in the report.

use dmn_approx::FlSolverKind;
use dmn_solve::{solvers, PartitionStrategy, SolveRequest};
use dmn_workloads::{Scenario, TopologyKind, WorkloadParams};

fn scenario(nodes: usize, objects: usize, seed: u64) -> Scenario {
    Scenario {
        name: "fl-equivalence".into(),
        topology: TopologyKind::Gnp,
        nodes,
        storage_cost: 4.0,
        workload: WorkloadParams {
            num_objects: objects,
            base_mass: 90.0,
            write_fraction: 0.25,
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

/// `approx` with the incremental default equals `approx` with the seed
/// reference implementation, for both starts of the reference corpus.
#[test]
fn registry_fast_path_matches_seed_local_search() {
    for seed in [3u64, 11, 29] {
        let instance = scenario(24, 6, seed).build_instance();
        let approx = solvers::by_name("approx").expect("registered");
        let fast = approx.solve(&instance, &SolveRequest::new());
        let reference = approx.solve(
            &instance,
            &SolveRequest::new().fl_solver(FlSolverKind::LocalSearchRef),
        );
        assert_eq!(
            fast.placement, reference.placement,
            "seed {seed}: incremental placement diverged from the seed implementation"
        );
        assert!(
            (fast.cost.total() - reference.cost.total()).abs() < 1e-9,
            "seed {seed}: cost {} vs {}",
            fast.cost.total(),
            reference.cost.total()
        );
        // The fast path reports its work; the reference has no counters.
        assert_ne!(fast.meta_value("fl-candidates"), Some("0"), "seed {seed}");
        assert_eq!(reference.meta_value("fl-candidates"), Some("0"));
    }
}

/// The equivalence holds through `sharded:approx` for every partition
/// strategy and for every start (cold, Mettu–Plaxton-seeded, and seeded
/// per object from a placement), including capacitated requests (the
/// capacity repair runs globally post-merge).
#[test]
fn sharded_capacitated_equivalence_for_all_strategies_and_starts() {
    let instance = scenario(20, 7, 5).build_instance();
    let n = instance.num_nodes();
    let approx = solvers::by_name("approx").expect("registered");
    let sharded = solvers::by_name("sharded:approx").expect("registered");
    // Seeds that differ from object to object, so a shard that hands an
    // object another object's seed starts its search in the wrong place.
    let random = solvers::by_name("random-k").expect("registered").solve(
        &instance,
        &SolveRequest::new().replication_degree(2).seed(13),
    );
    let seeds: Vec<Vec<usize>> = (0..instance.num_objects())
        .map(|x| random.placement.copies(x).to_vec())
        .collect();
    let starts = [
        ("cold", SolveRequest::new()),
        (
            "mettu-plaxton",
            SolveRequest::new().fl_solver(FlSolverKind::LocalSearchWarm),
        ),
        ("placement", SolveRequest::new().warm_placement(seeds)),
    ];
    for (warm, start) in &starts {
        for capacities in [None, Some(vec![2usize; n])] {
            let mut base_req = start.clone();
            if let Some(cap) = &capacities {
                base_req = base_req.capacities(cap.clone());
            }
            // The sequential reference for this start: the seed local
            // search for the cold start, the (deterministic) incremental
            // search from the same seeds for the warm ones.
            let ref_req = if *warm == "cold" {
                base_req.clone().fl_solver(FlSolverKind::LocalSearchRef)
            } else {
                base_req.clone()
            };
            let reference = approx.solve(&instance, &ref_req);
            for strategy in PartitionStrategy::ALL {
                for shards in [1usize, 2, 3, 5] {
                    let req = base_req.clone().shards(shards).partition(strategy);
                    let report = sharded.solve(&instance, &req);
                    assert_eq!(
                        report.placement,
                        reference.placement,
                        "warm={warm} cap={} {strategy}/{shards}: placement diverged",
                        capacities.is_some()
                    );
                    assert!(
                        (report.cost.total() - reference.cost.total()).abs() < 1e-9,
                        "warm={warm} cap={} {strategy}/{shards}: cost {} vs {}",
                        capacities.is_some(),
                        report.cost.total(),
                        reference.cost.total()
                    );
                }
            }
        }
    }
}

/// The warm start can only help: end-to-end phase-1 cost (and the final
/// total under the same pruning) stays within the cold search's result.
#[test]
fn warm_start_is_deterministic_and_reports_fewer_moves() {
    let instance = scenario(28, 5, 17).build_instance();
    let approx = solvers::by_name("approx").expect("registered");
    let cold = approx.solve(&instance, &SolveRequest::new());
    let warm_req = SolveRequest::new().fl_solver(FlSolverKind::LocalSearchWarm);
    let warm1 = approx.solve(&instance, &warm_req);
    let warm2 = approx.solve(&instance, &warm_req);
    assert_eq!(warm1.placement, warm2.placement);
    assert_eq!(warm1.meta_value("fl-backend"), Some("local-search-warm"));
    let moves = |r: &dmn_solve::SolveReport| {
        r.meta_value("fl-moves")
            .and_then(|v| v.parse::<usize>().ok())
            .expect("fl-moves reported")
    };
    assert!(
        moves(&warm1) <= moves(&cold),
        "warm start should need no more moves than growing from one facility ({} vs {})",
        moves(&warm1),
        moves(&cold)
    );
    warm1.placement.validate(instance.num_nodes()).unwrap();
}
