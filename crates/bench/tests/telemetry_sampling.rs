//! The sampling half of the telemetry check (`obs_ok`): the armed replay
//! samples lookup latencies and the disarmed one records none. The
//! release throughput ratio is the root `tests/timing_floors.rs`'s.
//!
//! `replay_scenario_with` sets the process-wide enabled flag and resets
//! the process-wide lookup histogram, which every server in the process
//! records into, so this test shares its binary with no other test.

use dmn_bench::server_bench::replay_scenario_with;
use dmn_core::telemetry;
use dmn_workloads::{DriftSpec, Scenario, TopologyKind, WorkloadParams};

fn mini_scenario() -> Scenario {
    Scenario {
        name: "server-mini".into(),
        topology: TopologyKind::Ring,
        nodes: 16,
        storage_cost: 3.0,
        workload: WorkloadParams {
            num_objects: 4,
            base_mass: 60.0,
            ..Default::default()
        },
        seed: 9,
        capacities: None,
        stream: None,
        drift: Some(DriftSpec {
            lookups: 6_000,
            drift_events: 12,
            drift_mass: 3.0,
            resolve_threshold: 0.02,
        }),
        faults: None,
        timeline: None,
    }
}

#[test]
fn armed_replay_samples_lookups_and_disarmed_records_none() {
    let disarmed = replay_scenario_with(&mini_scenario(), Some(2_000), false);
    let armed = replay_scenario_with(&mini_scenario(), Some(2_000), true);
    assert_eq!(
        disarmed.latency_samples, 0,
        "the disarmed replay records nothing"
    );
    assert!(
        armed.latency_samples > 0,
        "the armed replay samples: {armed:?}"
    );
    assert!(armed.lookup_p50 > 0.0);
    assert!(armed.lookup_p99 >= armed.lookup_p50);
    assert!(
        telemetry::enabled(),
        "the armed replay leaves the registry armed"
    );
}
