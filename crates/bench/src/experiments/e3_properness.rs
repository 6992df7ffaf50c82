//! E3 — Lemma 8: the algorithm's output is a proper placement with
//! `k1 = 29`, `k2 = 2`.
//!
//! We run the algorithm on large networks (geometric and Internet-like
//! transit–stub topologies) and verify both properness conditions on every
//! produced placement, reporting the observed margins: how close any node
//! comes to the `k1 · max(rw, rs)` proximity bound and any copy pair to the
//! `2 k2 · max(rw, rw)` separation bound.

use dmn_approx::proper::{check_proper, K1, K2};
use dmn_approx::{place_object, ApproxConfig, FlSolverKind};
use dmn_core::radii::RadiusTable;
use dmn_graph::dijkstra::apsp;
use dmn_graph::generators::{self, TransitStubParams};
use dmn_workloads::{WorkloadGen, WorkloadParams};

use super::rng;
use crate::report::{fmt, Report, Table};

/// Runs E3 and returns its report.
pub fn run() -> Report {
    let mut report = Report::new("E3", "Lemma 8: output is proper (k1 = 29, k2 = 2)");
    let mut table = Table::new(
        "properness check on large networks (4 objects each)",
        &[
            "topology",
            "n",
            "violations",
            "tightest proximity",
            "tightest separation",
        ],
    );
    let cfg = ApproxConfig {
        fl_solver: FlSolverKind::MettuPlaxton,
    };

    let mut total_viol = 0usize;
    for (name, graph) in [
        (
            "geometric-200",
            generators::random_geometric(200, 0.15, 10.0, &mut rng(31)),
        ),
        (
            "geometric-500",
            generators::random_geometric(500, 0.1, 10.0, &mut rng(32)),
        ),
        (
            "transit-stub-244",
            generators::transit_stub(
                TransitStubParams {
                    transits: 4,
                    stubs_per_transit: 3,
                    nodes_per_stub: 20,
                    ..Default::default()
                },
                &mut rng(33),
            ),
        ),
    ] {
        let n = graph.num_nodes();
        let metric = apsp(&graph);
        let gen = WorkloadGen::new(
            n,
            WorkloadParams {
                num_objects: 4,
                write_fraction: 0.25,
                ..Default::default()
            },
        );
        let objects = gen.generate(&mut rng(34));
        let cs: Vec<f64> = (0..n).map(|v| 2.0 + (v % 5) as f64).collect();

        let mut proximity_margin = f64::INFINITY; // allowed / nearest (>= 1 is proper)
        let mut separation_margin = f64::INFINITY; // dist / required (>= 1 is proper)
        let mut violations = 0usize;
        for w in &objects {
            let copies = place_object(&metric, &cs, w, &cfg);
            let radii = RadiusTable::compute(&metric, &w.request_masses(), w.total_writes(), &cs);
            let rep = check_proper(&metric, &radii, &copies, K1, K2);
            violations += rep.violations.len();
            for v in 0..n {
                let allowed = K1 * radii.max_radius(v);
                if !allowed.is_finite() || allowed == 0.0 {
                    continue;
                }
                let (_, nearest) = metric.nearest_in(v, &copies).expect("non-empty");
                if nearest > 0.0 {
                    proximity_margin = proximity_margin.min(allowed / nearest);
                }
            }
            for (i, &u) in copies.iter().enumerate() {
                for &v2 in &copies[i + 1..] {
                    let required = 2.0 * K2 * radii.write_radius[u].max(radii.write_radius[v2]);
                    if required > 0.0 {
                        separation_margin = separation_margin.min(metric.dist(u, v2) / required);
                    }
                }
            }
        }
        total_viol += violations;
        table.row(vec![
            name.to_string(),
            n.to_string(),
            violations.to_string(),
            if proximity_margin.is_finite() {
                fmt(proximity_margin)
            } else {
                "-".into()
            },
            if separation_margin.is_finite() {
                fmt(separation_margin)
            } else {
                "-".into()
            },
        ]);
    }
    report.table(table);
    report.finding(format!(
        "{total_viol} properness violations across all runs (claim: 0); margins >= 1 \
         show how much slack the k1 = 29 / k2 = 2 constants leave in practice"
    ));
    assert_eq!(total_viol, 0, "Lemma 8 violated!");
    report
}
