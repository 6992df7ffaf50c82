//! E8 — construction roles of the three phases (Section 2.2).
//!
//! The proof assigns each phase a job: phase 1 bounds storage (Lemma 9),
//! phase 2 restores read locality where storage radii demand it
//! (Claim 10), phase 3 removes write-expensive redundancy (Lemma 8's
//! separation). We ablate phases on an Internet-like network and report
//! the cost decomposition after each stage.

use dmn_approx::{place_object_in, ApproxConfig};
use dmn_core::cost::{evaluate_object, UpdatePolicy};
use dmn_facility::FlWorkspace;
use dmn_graph::dijkstra::apsp;
use dmn_graph::generators::{self, TransitStubParams};
use dmn_workloads::{WorkloadGen, WorkloadParams};

use super::rng;
use crate::report::{fmt, Report, Table};

/// Runs E8 and returns its report.
pub fn run() -> Report {
    let mut report = Report::new("E8", "Phase ablation: what each phase contributes");
    let g = generators::transit_stub(
        TransitStubParams {
            transits: 4,
            stubs_per_transit: 2,
            nodes_per_stub: 12,
            ..Default::default()
        },
        &mut rng(8_000),
    );
    let n = g.num_nodes();
    let metric = apsp(&g);
    let cs: Vec<f64> = (0..n).map(|v| if v < 4 { 12.0 } else { 4.0 }).collect();

    let mut table = Table::new(
        format!("transit-stub n = {n}: cost decomposition after each phase"),
        &[
            "write frac",
            "stage",
            "copies",
            "storage",
            "read",
            "update",
            "total",
        ],
    );
    for &wf in &[0.05, 0.3, 0.7] {
        let gen = WorkloadGen::new(
            n,
            WorkloadParams {
                num_objects: 1,
                write_fraction: wf,
                base_mass: 200.0,
                ..Default::default()
            },
        );
        let w = &gen.generate(&mut rng(8_100))[0];
        let cfg = ApproxConfig::default();
        let (trace, _) = place_object_in(&mut FlWorkspace::new(), &metric, &cs, w, &cfg);
        for (stage, copies) in [
            ("phase 1 (FL)", &trace.after_phase1),
            ("phase 1-2 (+add)", &trace.after_phase2),
            ("full (+prune)", &trace.after_phase3),
        ] {
            let c = evaluate_object(&metric, &cs, w, copies, UpdatePolicy::MstMulticast);
            table.row(vec![
                format!("{wf:.2}"),
                stage.to_string(),
                copies.len().to_string(),
                fmt(c.storage),
                fmt(c.read),
                fmt(c.update()),
                fmt(c.total()),
            ]);
        }
    }
    report.table(table);
    report.finding(
        "phase 2 buys read locality with extra copies; phase 3 pays update cost back \
         by pruning — most visible at high write fractions"
            .to_string(),
    );
    report
}
