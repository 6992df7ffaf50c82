//! E13 — Thread scaling: wall clock vs worker-thread cap.
//!
//! The per-object decomposition makes the placement problem embarrassingly
//! parallel; this experiment measures how far that carries in practice. On
//! large random instances `approx` runs with its per-object map capped at
//! 1/2/4/8 worker threads (`SolveRequest::max_threads`) and reports wall
//! clock, speedup over the one-thread sequential reference, and — the
//! correctness half of the claim — that every thread count lands the
//! identical total cost.

use dmn_solve::{solvers, SolveRequest};
use dmn_workloads::{Scenario, TopologyKind, WorkloadParams};

use crate::report::{fmt, Report, Table};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Runs E13 and returns its report.
pub fn run() -> Report {
    let mut report = Report::new(
        "E13",
        "thread scaling: per-object decomposition scales wall-clock with worker threads",
    );
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut speedups_at_2 = Vec::new();
    for (label, nodes, objects) in [("grid-196", 196usize, 24usize), ("grid-324", 324, 32)] {
        let rows = nodes.isqrt();
        let scenario = Scenario {
            name: format!("thread-scaling-{label}"),
            topology: TopologyKind::Grid { rows, cols: rows },
            nodes,
            storage_cost: 4.0,
            workload: WorkloadParams {
                num_objects: objects,
                base_mass: 150.0,
                write_fraction: 0.2,
                ..Default::default()
            },
            seed: 1300,
            capacities: None,
            stream: None,
            drift: None,
            faults: None,
            timeline: None,
        };
        let instance = scenario.build_instance();
        instance.metric(); // pay the APSP once, outside the timed region
        let solver = solvers::by_name("approx").expect("registered");

        let mut table = Table::new(
            format!("{label}: {nodes} nodes, {objects} objects"),
            &["threads", "wall (ms)", "speedup", "total cost"],
        );
        let mut baseline: Option<f64> = None;
        let mut costs = Vec::new();
        for threads in THREAD_COUNTS {
            let req = SolveRequest::new().max_threads(Some(threads));
            let rep = solver.solve(&instance, &req);
            let base = *baseline.get_or_insert(rep.wall_seconds);
            if threads == 2 {
                speedups_at_2.push(base / rep.wall_seconds);
            }
            costs.push(rep.cost.total());
            table.row(vec![
                threads.to_string(),
                format!("{:.1}", rep.wall_seconds * 1e3),
                format!("{:.2}x", base / rep.wall_seconds),
                fmt(rep.cost.total()),
            ]);
        }
        report.table(table);
        let spread = costs
            .iter()
            .fold(0.0f64, |acc, &c| acc.max((c - costs[0]).abs()));
        assert!(
            spread < 1e-9,
            "{label}: thread counts disagree on cost (spread {spread})"
        );
    }
    let min_speedup = speedups_at_2.iter().copied().fold(f64::INFINITY, f64::min);
    if cores >= 2 {
        report.finding(format!(
            "identical total cost at every thread count (the per-object map keeps input \
             order); 2-thread speedup over the sequential reference: {min_speedup:.2}x \
             worst case on this {cores}-core host"
        ));
    } else {
        report.finding(format!(
            "identical total cost at every thread count (the per-object map keeps input \
             order); host has a single core, so the thread cap is clamped to 1 and \
             speedup is bounded at 1.00x here (measured {min_speedup:.2}x \
             overhead-inclusive) — run on a multicore host to see the fan-out win"
        ));
    }
    report
}
