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
use dmn_solve::{solvers, SolveReport, SolveRequest};
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

/// A `side × side` unit grid with the dense benchmark's workload: every
/// node is a client, so phase 1 opens many sites and prices many swaps.
fn unit_grid(side: usize, objects: usize, seed: u64) -> Scenario {
    Scenario {
        name: "fl-equivalence-grid".into(),
        topology: TopologyKind::Grid {
            rows: side,
            cols: side,
        },
        nodes: side * side,
        storage_cost: 4.0,
        workload: WorkloadParams {
            num_objects: objects,
            base_mass: 120.0,
            zipf_exponent: 0.8,
            write_fraction: 0.2,
            active_fraction: 1.0,
            locality: 0.0,
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

/// The fast path prices swaps from estimates and re-prices only a
/// shortlist exactly. On a unit grid many swaps tie or nearly tie, and an
/// estimate can round to the other side of the best exact price: without
/// the error band around the shortlist's bar this instance takes another
/// move than the reference (the random instances above do not show it).
/// Phase-1 sets, placements and costs must match bit for bit, from a cold
/// start and from per-object seeds.
#[test]
fn shortlist_keeps_the_reference_trajectory_on_a_unit_grid() {
    let instance = unit_grid(12, 8, 42).build_instance();
    let approx = solvers::by_name("approx").expect("registered");
    let random = solvers::by_name("random-k").expect("registered").solve(
        &instance,
        &SolveRequest::new().replication_degree(3).seed(7),
    );
    let seeds: Vec<Vec<usize>> = (0..instance.num_objects())
        .map(|x| random.placement.copies(x).to_vec())
        .collect();
    let phase1 = |r: &SolveReport| -> Vec<Vec<usize>> {
        let traces = r.traces.as_ref().expect("traces collected");
        traces.iter().map(|t| t.after_phase1.clone()).collect()
    };
    let count = |r: &SolveReport, key: &str| -> usize {
        r.meta_value(key).and_then(|v| v.parse().ok()).expect(key)
    };
    for (start, req) in [
        ("cold", SolveRequest::new()),
        ("placement", SolveRequest::new().warm_placement(seeds)),
    ] {
        let req = req.collect_traces(true);
        let fast = approx.solve(&instance, &req);
        let reference = approx.solve(
            &instance,
            &req.clone().fl_solver(FlSolverKind::LocalSearchRef),
        );
        assert_eq!(
            phase1(&fast),
            phase1(&reference),
            "{start}: phase-1 sets diverged"
        );
        assert_eq!(
            fast.placement, reference.placement,
            "{start}: placement diverged"
        );
        assert_eq!(
            fast.cost.total().to_bits(),
            reference.cost.total().to_bits(),
            "{start}: cost {} vs {}",
            fast.cost.total(),
            reference.cost.total()
        );
        let repriced = count(&fast, "fl-repriced");
        assert!(
            0 < repriced && repriced < count(&fast, "fl-candidates"),
            "{start}: {repriced} swaps re-priced"
        );
        assert_eq!(count(&reference, "fl-repriced"), 0, "{start}");
    }
}
