//! The deterministic gates on the pinned 225-node smoke scenario.
//!
//! Each gate runs here once, on its pinned input and with its bound:
//!
//! * the fuzz oracle ([`check_instance`]) on the smoke instance under one
//!   copy per node: the reversed-object solve equals the in-order one
//!   (`costs_match`), and the greedy repair and the native `capacitated`
//!   engine stay feasible with the engine never dearer than the repair
//!   (`capacitated_ok`);
//! * the same oracle on the smoke scenario's truncating control, where
//!   the sparse backend may cost at most [`MAX_SPARSE_RATIO`]× dense;
//! * `dynamic_ok`: on a stationary stream every online strategy of the
//!   zoo costs at least the informed `approx` oracle.

use dmn_bench::fuzz::{check_instance, MAX_SPARSE_RATIO};
use dmn_bench::perf_smoke::smoke_scenario;
use dmn_dynamic::bridge::{compete_standard, StaticOracle};
use dmn_dynamic::stream::{sample_stream, StreamConfig};
use dmn_solve::{solvers, MetricBackend, SolveRequest};
use dmn_workloads::{Scenario, WorkloadParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Stationary-stream length of `dynamic_ok`: long enough that empirical
/// frequencies are informative.
const STREAM_LEN: usize = 4_000;

/// `dynamic_ok`'s floor: on a stationary stream every online strategy
/// must cost at least the informed static oracle, up to fp slack.
const DYNAMIC_RATIO_FLOOR: f64 = 1.0 - 1e-9;

/// The truncating control of a scenario: same topology, storage costs and
/// seed, but a hotspot workload (15% active nodes, locality decay) so the
/// sparse path's candidate balls truncate and the sparse/dense ratio
/// measures something. With the smoke scenario's full-coverage workload
/// the two backends are bit-identical.
fn control_of(scenario: &Scenario) -> Scenario {
    Scenario {
        name: format!("{}-control", scenario.name),
        workload: WorkloadParams {
            active_fraction: 0.15,
            locality: 0.7,
            ..scenario.workload.clone()
        },
        stream: None,
        drift: None,
        ..scenario.clone()
    }
}

#[test]
fn smoke_instance_passes_the_oracle_under_unit_caps() {
    let instance = smoke_scenario().build_instance();
    let caps = vec![1; instance.num_nodes()];
    assert!(
        caps.len() >= instance.num_objects(),
        "the caps must hold every object, or the oracle skips its capacitated check"
    );
    assert_eq!(check_instance(&instance, Some(&caps)), None);
}

#[test]
fn truncating_control_passes_the_oracle() {
    let instance = control_of(&smoke_scenario()).build_instance();
    assert_eq!(
        check_instance(&instance, None),
        None,
        "sparse/dense ceiling {MAX_SPARSE_RATIO}"
    );
}

/// The control really truncates: its sparse solve builds candidate balls
/// smaller than the network, so the ratio check above does not compare
/// two bit-identical runs.
#[test]
fn control_scenario_truncates_the_candidate_balls() {
    let instance = control_of(&smoke_scenario()).build_instance();
    let report = solvers::by_name("approx")
        .expect("approx registered")
        .solve(
            &instance,
            &SolveRequest::new().metric_backend(MetricBackend::Sparse),
        );
    let meta = |key| {
        report
            .meta_value(key)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or_else(|| panic!("sparse report carries {key}"))
    };
    let rows = meta("sparse-candidate-rows");
    assert!(rows > 0.0, "sparse run reports its ball sizes");
    assert!(
        rows < (instance.num_nodes() * instance.num_objects()) as f64,
        "candidate balls cover the whole graph — the control is not truncating"
    );
    let built = meta("sparse-rows-built");
    assert!(
        built > 0.0 && built <= rows,
        "closure rows built ({built}) must be a part of the balls ({rows})"
    );
}

#[test]
fn stationary_stream_favours_the_static_oracle() {
    let scenario = smoke_scenario();
    let instance = scenario.build_instance();
    let mut rng = ChaCha8Rng::seed_from_u64(scenario.seed ^ 0x0D1A_0CC5);
    let stream = sample_stream(
        &instance.objects,
        &StreamConfig {
            length: STREAM_LEN,
            ..Default::default()
        },
        &mut rng,
    );
    let report = compete_standard(&instance, &stream, &StaticOracle::approx(), stream.len())
        .expect("approx oracle runs on any network");
    assert_eq!(report.runs.len(), 5, "the full zoo raced");
    assert!(
        report.runs.iter().all(|r| r.ratio >= DYNAMIC_RATIO_FLOOR),
        "an online strategy beat the informed static oracle on a stationary stream:\n{report}"
    );
}
