//! E9 — Lemma 9: the facility-location factor `f` enters the guarantee.
//!
//! The storage-cost bound is `f · (C^OPTW_s + C^OPTW_r)` for whichever UFL
//! solver backs phase 1. We swap solvers and compare the final total cost
//! and runtime, plus (on small instances) the measured end-to-end ratio
//! against the exact optimum per solver.

use dmn_approx::{place_object, ApproxConfig, FlSolverKind};
use dmn_core::cost::{evaluate_object, UpdatePolicy};
use dmn_exact::optimal_placement;
use dmn_graph::dijkstra::apsp;
use dmn_graph::generators;
use dmn_workloads::{WorkloadGen, WorkloadParams};

use super::{max, mean, rng, small_instance, time};
use crate::report::{fmt, Report, Table};

const SOLVERS: [(FlSolverKind, &str); 5] = [
    (FlSolverKind::LocalSearch, "local-search (5+eps)"),
    (FlSolverKind::LocalSearchWarm, "local-search warm (5+eps)"),
    (FlSolverKind::MettuPlaxton, "mettu-plaxton (3)"),
    (FlSolverKind::JainVazirani, "jain-vazirani (3)"),
    (FlSolverKind::Greedy, "greedy (log n)"),
];

/// Runs E9 and returns its report.
pub fn run() -> Report {
    let mut report = Report::new("E9", "Lemma 9: phase-1 solver ablation");

    // Medium instance: total cost + runtime per solver.
    let g = generators::random_geometric(80, 0.22, 10.0, &mut rng(9_000));
    let n = g.num_nodes();
    let metric = apsp(&g);
    let cs: Vec<f64> = (0..n).map(|v| 2.0 + (v % 4) as f64).collect();
    let gen = WorkloadGen::new(
        n,
        WorkloadParams {
            num_objects: 6,
            write_fraction: 0.25,
            ..Default::default()
        },
    );
    let objects = gen.generate(&mut rng(9_001));

    let mut t = Table::new(
        format!("geometric n = {n}, 6 objects: total cost and runtime by phase-1 solver"),
        &["solver", "total cost", "copies", "time (ms)"],
    );
    for (kind, name) in SOLVERS {
        let cfg = ApproxConfig { fl_solver: kind };
        let (result, secs) = time(|| {
            let mut total = 0.0;
            let mut copies = 0usize;
            for w in &objects {
                let c = place_object(&metric, &cs, w, &cfg);
                total += evaluate_object(&metric, &cs, w, &c, UpdatePolicy::MstMulticast).total();
                copies += c.len();
            }
            (total, copies)
        });
        t.row(vec![
            name.to_string(),
            fmt(result.0),
            result.1.to_string(),
            format!("{:.1}", secs * 1e3),
        ]);
    }
    report.table(t);

    // Small instances: measured end-to-end approximation ratio per solver.
    let mut t2 = Table::new(
        "end-to-end ratio vs exact optimum (30 seeds, n in 6..=10)",
        &["solver", "mean ratio", "max ratio"],
    );
    for (kind, name) in SOLVERS {
        let cfg = ApproxConfig { fl_solver: kind };
        let mut ratios = Vec::new();
        for seed in 0..30u64 {
            let mut r = rng(9_100 + seed);
            let n = 6 + (seed % 5) as usize;
            let (metric, cs, w) = small_instance(n, 2.0, 0.3, &mut r);
            let opt = optimal_placement(&metric, &cs, &w);
            let copies = place_object(&metric, &cs, &w, &cfg);
            let c = evaluate_object(&metric, &cs, &w, &copies, UpdatePolicy::MstMulticast);
            ratios.push(c.total() / opt.cost.max(1e-12));
        }
        t2.row(vec![
            name.to_string(),
            fmt(mean(&ratios)),
            fmt(max(&ratios)),
        ]);
    }
    report.table(t2);
    report.finding(
        "every constant-factor phase-1 solver yields comparable end-to-end quality, \
         matching Lemma 9's parametric dependence on f; runtimes differ by orders \
         of magnitude"
            .to_string(),
    );
    report
}
