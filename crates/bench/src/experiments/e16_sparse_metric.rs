//! E16 — Sparse metric closures: cost fidelity and closure-build time of
//! the truncated per-object solve path vs the dense APSP table.
//!
//! The dense path pays an O(n²) metric closure before any placement work;
//! the sparse backend builds one truncated closure per object (clients
//! plus a candidate ball around them) and never materializes the table.
//! On hotspot workloads the balls truncate, so the sparse result may
//! differ: this experiment measures the total-cost ratio on truncating
//! instances across topologies (pinned to the fuzz oracle's ceiling
//! [`crate::fuzz::MAX_SPARSE_RATIO`]) and confirms the
//! full-coverage case — every node a client — reproduces the dense
//! placements exactly, per the bit-identical truncated-closure guarantee.

use dmn_solve::{solvers, MetricBackend, SolveRequest};
use dmn_workloads::{Scenario, TopologyKind, WorkloadParams};

use crate::fuzz::MAX_SPARSE_RATIO;
use crate::report::{Report, Table};

/// Truncating rows: hotspot workloads (20% active nodes, locality decay)
/// across the topology families the corpus ships, plus a 1,600-node grid
/// where the dense closure's O(n²) build starts to dominate and the
/// truncated rows pull ahead.
const TRUNCATING: [(&str, TopologyKind, usize); 5] = [
    ("grid", TopologyKind::Grid { rows: 12, cols: 12 }, 144),
    ("gnp", TopologyKind::Gnp, 150),
    ("geometric", TopologyKind::Geometric, 150),
    ("transit-stub", TopologyKind::TransitStub, 150),
    (
        "grid-40x40",
        TopologyKind::Grid { rows: 40, cols: 40 },
        1_600,
    ),
];

fn scenario(name: &str, topology: TopologyKind, nodes: usize, truncating: bool) -> Scenario {
    Scenario {
        name: name.into(),
        topology,
        nodes,
        storage_cost: 4.0,
        workload: WorkloadParams {
            num_objects: 8,
            base_mass: 120.0,
            write_fraction: 0.2,
            // Hotspots get sparser as the network grows (matching the
            // 10k-node scenario's regime, where balls stay local).
            active_fraction: match (truncating, nodes >= 1_000) {
                (false, _) => 1.0,
                (true, false) => 0.2,
                (true, true) => 0.05,
            },
            locality: if truncating { 0.5 } else { 0.0 },
            ..Default::default()
        },
        seed: 16_000 + nodes as u64,
        capacities: None,
        stream: None,
        drift: None,
        faults: None,
        timeline: None,
    }
}

/// A meta counter as a number (0 when absent).
fn meta_count(report: &dmn_solve::SolveReport, key: &str) -> f64 {
    report
        .meta_value(key)
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Runs E16 and returns its report.
pub fn run() -> Report {
    let mut report = Report::new(
        "E16",
        "sparse metric closures: truncated per-object solves vs the dense APSP path",
    );
    let approx = solvers::by_name("approx").expect("approx registered");
    let dense_req = SolveRequest::new().max_threads(Some(1));
    let sparse_req = dense_req.clone().metric_backend(MetricBackend::Sparse);

    let mut table = Table::new(
        "hotspot (truncating) workloads, dense vs sparse backend".to_string(),
        &[
            "topology",
            "n",
            "dense cost",
            "sparse cost",
            "ratio",
            "dense metric (ms)",
            "sparse metric (ms)",
            "ball nodes",
            "rows built",
            "dense wall (ms)",
            "sparse wall (ms)",
        ],
    );
    let mut worst_ratio: f64 = 0.0;
    for (label, topology, nodes) in TRUNCATING {
        let instance = scenario(label, topology, nodes, true).build_instance();
        let dense = approx.solve(&instance, &dense_req);
        let sparse = approx.solve(&instance, &sparse_req);
        let ratio = sparse.cost.total() / dense.cost.total();
        worst_ratio = worst_ratio.max(ratio);
        assert!(
            ratio <= MAX_SPARSE_RATIO,
            "{label}: sparse/dense cost ratio {ratio:.4} breaches the pinned \
             {MAX_SPARSE_RATIO:.2} epsilon"
        );
        table.row(vec![
            label.to_string(),
            instance.num_nodes().to_string(),
            format!("{:.1}", dense.cost.total()),
            format!("{:.1}", sparse.cost.total()),
            format!("{ratio:.4}"),
            format!("{:.2}", dense.metric_build_seconds() * 1e3),
            format!("{:.2}", sparse.metric_build_seconds() * 1e3),
            format!("{:.0}", meta_count(&sparse, "sparse-candidate-rows")),
            format!("{:.0}", meta_count(&sparse, "sparse-rows-built")),
            format!("{:.1}", dense.wall_seconds * 1e3),
            format!("{:.1}", sparse.wall_seconds * 1e3),
        ]);
    }
    report.table(table);

    // Full coverage: every node is a client, the candidate ball is the
    // whole graph, the truncated closure equals the dense rows bit for
    // bit — the placements must be identical.
    let mut exact = Table::new(
        "full-coverage workloads: sparse must reproduce dense exactly".to_string(),
        &["topology", "n", "cost", "placements identical"],
    );
    for (label, topology, nodes) in [
        ("random-tree", TopologyKind::RandomTree, 80),
        ("grid", TopologyKind::Grid { rows: 9, cols: 9 }, 81),
    ] {
        let instance = scenario(label, topology, nodes, false).build_instance();
        let dense = approx.solve(&instance, &dense_req);
        let sparse = approx.solve(&instance, &sparse_req);
        assert_eq!(
            dense.placement, sparse.placement,
            "{label}: full-coverage sparse placement deviated from dense"
        );
        assert!(
            (dense.cost.total() - sparse.cost.total()).abs() <= 1e-9 * dense.cost.total(),
            "{label}: cost {} vs {}",
            sparse.cost.total(),
            dense.cost.total()
        );
        exact.row(vec![
            label.to_string(),
            instance.num_nodes().to_string(),
            format!("{:.1}", dense.cost.total()),
            "yes".to_string(),
        ]);
    }
    report.table(exact);

    report.finding(format!(
        "truncated candidate balls keep the sparse backend within {worst_ratio:.4}x of the \
         dense solve on hotspot workloads (pinned ceiling {MAX_SPARSE_RATIO:.2}) while \
         replacing the O(n^2) closure with per-object truncated rows; full-coverage \
         workloads reproduce the dense placements bit for bit"
    ));
    report
}
