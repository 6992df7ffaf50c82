//! End-to-end equivalence of the incremental phase-1 fast path.
//!
//! The contract pinned here: swapping the seed from-scratch local search
//! (`FlSolverKind::LocalSearchRef`) for the incremental assignment-table
//! fast path (`FlSolverKind::LocalSearch`, the default) changes *nothing*
//! about the answer — identical placements and costs through the registry,
//! for every worker-thread cap and object order, with and without
//! per-node capacities, from a cold start and from per-object seeds
//! (`SolveRequest::warm_placement`, which both loops start from). The
//! Mettu–Plaxton warm start (`LocalSearchWarm`) has no reference
//! counterpart, so it is pinned the weaker way: valid placements,
//! parallel == sequential, and FL move counters visible in the report.

use dmn_approx::FlSolverKind;
use dmn_solve::{solvers, SolveRequest};
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

/// The equivalence holds for every worker-thread cap and for every start
/// (cold, Mettu–Plaxton-seeded, and seeded per object from a placement),
/// including capacitated requests (the capacity repair runs globally after
/// the per-object map). Without capacities it also holds with the objects
/// reversed: each object then lands on another worker, after another
/// object's search in that worker's reused workspace, and its warm seed
/// must follow it. The greedy repair walks objects in order, so the
/// capacitated case is checked in the original order only.
#[test]
fn parallel_capacitated_equivalence_for_every_order_and_start() {
    let instance = scenario(20, 7, 5).build_instance();
    let n = instance.num_nodes();
    let k = instance.num_objects();
    let approx = solvers::by_name("approx").expect("registered");
    // Seeds that differ from object to object, so a solve that hands an
    // object another object's seed starts its search in the wrong place.
    let random = solvers::by_name("random-k").expect("registered").solve(
        &instance,
        &SolveRequest::new().replication_degree(2).seed(13),
    );
    let seeds: Vec<Vec<usize>> = (0..k)
        .map(|x| random.placement.copies(x).to_vec())
        .collect();
    let reversed: Vec<usize> = (0..k).rev().collect();
    let reversed_instance = instance.object_subset(&reversed);
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
            // The one-thread reference for this start: the seed local
            // search for the cold start and from the per-object seeds,
            // the (deterministic) incremental search from the same
            // Mettu–Plaxton start for the third, which the reference has
            // no counterpart of.
            let ref_req = if *warm == "mettu-plaxton" {
                base_req.clone()
            } else {
                base_req.clone().fl_solver(FlSolverKind::LocalSearchRef)
            };
            let reference = approx.solve(&instance, &ref_req.max_threads(Some(1)));
            for threads in [Some(1), Some(2), Some(3), None] {
                let req = base_req.clone().max_threads(threads);
                let report = approx.solve(&instance, &req);
                assert_eq!(
                    report.placement,
                    reference.placement,
                    "warm={warm} cap={} threads={threads:?}: placement diverged",
                    capacities.is_some()
                );
                assert!(
                    (report.cost.total() - reference.cost.total()).abs() < 1e-9,
                    "warm={warm} cap={} threads={threads:?}: cost {} vs {}",
                    capacities.is_some(),
                    report.cost.total(),
                    reference.cost.total()
                );
                if capacities.is_some() {
                    continue;
                }
                let mut rev_req = req.clone();
                rev_req.fl.warm_placement = req
                    .fl
                    .warm_placement
                    .as_ref()
                    .map(|sets| reversed.iter().map(|&x| sets[x].clone()).collect());
                let rev = approx.solve(&reversed_instance, &rev_req);
                for (j, &x) in reversed.iter().enumerate() {
                    assert_eq!(
                        rev.placement.copies(j),
                        reference.placement.copies(x),
                        "warm={warm} threads={threads:?}: object {x} moved when reversed"
                    );
                }
                assert!(
                    (rev.cost.total() - reference.cost.total()).abs() < 1e-9,
                    "warm={warm} threads={threads:?}: reversed cost {} vs {}",
                    rev.cost.total(),
                    reference.cost.total()
                );
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
