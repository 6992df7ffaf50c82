//! Cross-registry equivalence of the oracle bridge.
//!
//! The golden values below were captured from the *pre-bridge* hardwired
//! oracle path (`dmn_approx::place_object` called directly per object,
//! grid 4x5, three deterministic objects, ChaCha8 seed 1234, 1500
//! requests) before `StaticOracle` was rebuilt around the solver
//! registry. The bridge with engine `approx` must stay placement- and
//! cost-identical to them, and to that path itself, kept below as the
//! private golden `place_hardwired`.

use dmn_core::instance::{Instance, ObjectWorkload};
use dmn_dynamic::sim::static_cost_on_stream;
use dmn_dynamic::stream::{empirical_workloads, sample_stream, StreamConfig};
use dmn_dynamic::StaticOracle;
use dmn_graph::dijkstra::apsp;
use dmn_graph::{generators, Metric, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The pinned placement of the pre-bridge hardwired path on the golden
/// input (captured before the refactor).
const GOLDEN_PLACEMENT: [&[usize]; 3] = [
    &[3, 6, 7, 9, 12, 18],
    &[2, 8, 11, 14, 17],
    &[1, 4, 7, 13, 16, 19],
];

/// Serve-cost goldens of that placement on the golden stream (exact).
const GOLDEN_READ: f64 = 200.0;
const GOLDEN_WRITE: f64 = 1321.0;
const GOLDEN_TRANSFER: f64 = 0.0;

/// The pre-bridge oracle path: `dmn_approx::place_object` per object with
/// default knobs, never-requested objects parked on the cheapest allowed
/// node.
fn place_hardwired(
    metric: &Metric,
    storage_cost: &[f64],
    workloads: &[ObjectWorkload],
) -> Vec<Vec<NodeId>> {
    let cfg = dmn_approx::ApproxConfig::default();
    workloads
        .iter()
        .map(|w| {
            if w.total_requests() == 0.0 {
                let v = (0..storage_cost.len())
                    .filter(|&v| storage_cost[v].is_finite())
                    .min_by(|&a, &b| storage_cost[a].total_cmp(&storage_cost[b]))
                    .expect("an allowed node exists");
                vec![v]
            } else {
                dmn_approx::place_object(metric, storage_cost, w, &cfg)
            }
        })
        .collect()
}

fn golden_input() -> (
    dmn_graph::Graph,
    Vec<f64>,
    Vec<ObjectWorkload>,
    Vec<dmn_dynamic::Request>,
) {
    let g = generators::grid(4, 5, |_, _| 1.0);
    let n = g.num_nodes();
    let cs: Vec<f64> = (0..n).map(|v| 2.0 + (v % 4) as f64).collect();
    let mut workloads = Vec::new();
    for x in 0..3usize {
        let mut w = ObjectWorkload::new(n);
        for v in 0..n {
            if (v + x) % 3 == 0 {
                w.reads[v] = (v % 5 + 1) as f64;
            }
        }
        w.writes[(7 * (x + 1)) % n] = 2.0;
        workloads.push(w);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(1234);
    let stream = sample_stream(
        &workloads,
        &StreamConfig {
            length: 1500,
            ..Default::default()
        },
        &mut rng,
    );
    (g, cs, workloads, stream)
}

/// The golden grid as the oracle's base instance.
fn golden_base(g: &dmn_graph::Graph, cs: &[f64]) -> Instance {
    Instance::builder(g.clone())
        .storage_costs(cs.to_vec())
        .build()
}

#[test]
fn bridge_with_approx_reproduces_the_pre_refactor_goldens() {
    let (g, cs, _, stream) = golden_input();
    let metric = apsp(&g);
    let emp = empirical_workloads(&stream, 3, 20);

    let bridged = StaticOracle::with_engine("approx")
        .unwrap()
        .place_on(&golden_base(&g, &cs), &emp)
        .unwrap();
    let golden: Vec<Vec<usize>> = GOLDEN_PLACEMENT.iter().map(|s| s.to_vec()).collect();
    assert_eq!(
        bridged, golden,
        "bridge placement deviates from the golden pin"
    );

    let cost = static_cost_on_stream(&metric, &cs, &bridged, &stream);
    assert_eq!(cost.read, GOLDEN_READ);
    assert_eq!(cost.write, GOLDEN_WRITE);
    assert_eq!(cost.transfer, GOLDEN_TRANSFER);
    // Rent: every golden copy is held for the whole stream, so storage is
    // the exact static cs-sum of the placement.
    let static_storage: f64 = golden.iter().flatten().map(|&v| cs[v]).sum();
    assert!(
        (cost.storage - static_storage).abs() < 1e-9,
        "storage {} vs static {static_storage}",
        cost.storage
    );
}

#[test]
fn bridge_is_identical_to_the_hardwired_path() {
    let (g, cs, _, stream) = golden_input();
    let metric = apsp(&g);
    let emp = empirical_workloads(&stream, 3, 20);

    let hardwired = place_hardwired(&metric, &cs, &emp);
    let bridged = StaticOracle::with_engine("approx")
        .unwrap()
        .place_on(&golden_base(&g, &cs), &emp)
        .unwrap();
    assert_eq!(bridged, hardwired, "bridge != hardwired placement");

    let hc = static_cost_on_stream(&metric, &cs, &hardwired, &stream);
    let bc = static_cost_on_stream(&metric, &cs, &bridged, &stream);
    assert_eq!(hc, bc, "bridge != hardwired cost");
}

/// A caller that already holds the metric injects it into the base
/// instance; the oracle then places exactly as on the lazy instance.
#[test]
fn bridge_through_an_instance_matches_the_metric_path() {
    let (g, cs, _, stream) = golden_input();
    let emp = empirical_workloads(&stream, 3, 20);
    let oracle = StaticOracle::approx();
    let on = oracle.place_on(&golden_base(&g, &cs), &emp).unwrap();
    let with_metric = golden_base(&g, &cs).with_metric(apsp(&g));
    let via_metric = oracle.place_on(&with_metric, &emp).unwrap();
    assert_eq!(on, via_metric);
}
