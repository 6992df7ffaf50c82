//! The chaos replay gate (`chaos_ok`), driven both ways on a small
//! scenario.
//!
//! `chaos_replay` arms its plan process-wide and silences the panic hook
//! during its storm, so these cases share this test binary with no other
//! test and run one after another in its one `#[test]`.

use dmn_bench::chaos_replay::chaos_replay;
use dmn_core::faults::{self, FaultAction, FaultPlan, FaultSpec};
use dmn_workloads::{DriftSpec, Scenario, TopologyKind, WorkloadParams};

fn chaos_scenario() -> Scenario {
    Scenario {
        name: "chaos-mini".into(),
        topology: TopologyKind::Ring,
        nodes: 16,
        storage_cost: 3.0,
        workload: WorkloadParams {
            num_objects: 4,
            base_mass: 60.0,
            ..Default::default()
        },
        seed: 11,
        capacities: None,
        stream: None,
        drift: Some(DriftSpec {
            lookups: 4_000,
            drift_events: 8,
            drift_mass: 3.0,
            resolve_threshold: 0.02,
        }),
        faults: None,
        timeline: None,
    }
}

#[test]
fn chaos_cases_run_in_sequence() {
    chaos_replay_fires_every_class_and_heals();
    scenario_pinned_plan_overrides_the_default();
}

fn chaos_replay_fires_every_class_and_heals() {
    let outcome = chaos_replay(&chaos_scenario(), Some(4_000));
    assert!(outcome.solver_panics >= 1, "{outcome:?}");
    assert!(outcome.stalled_resolves >= 1, "{outcome:?}");
    assert!(outcome.event_floods >= 1, "{outcome:?}");
    assert!(outcome.wire_faults >= 1, "{outcome:?}");
    assert!(outcome.resolve_failures >= 2, "{outcome:?}");
    assert!(outcome.watchdog_timeouts >= 1, "{outcome:?}");
    assert!(outcome.shed_deltas > 0, "{outcome:?}");
    assert_eq!(outcome.malformed_rejected, outcome.malformed_lines);
    assert!(outcome.wire_recovered, "{outcome:?}");
    assert!(outcome.recovered, "{outcome:?}");
    assert_eq!(outcome.inconsistent_lookups, 0, "{outcome:?}");
    assert!(outcome.cost_matches_scratch, "{:?}", outcome.swap_checks);
    assert!(outcome.gate(), "{outcome:?}");

    let json = outcome.to_json().to_string_pretty();
    for needle in [
        "\"solver_panics\"",
        "\"stalled_resolves\"",
        "\"event_floods\"",
        "\"wire_faults\"",
        "\"watchdog_timeouts\"",
        "\"shed_deltas\"",
        "\"malformed_rejected\"",
        "\"recovery_seconds\"",
        "\"recovered\"",
        "\"inconsistent_lookups\"",
        "\"cost_matches_scratch\"",
        "\"swaps\"",
    ] {
        assert!(json.contains(needle), "missing {needle}");
    }
    dmn_json::parse(&json).expect("valid artifact section");
}

fn scenario_pinned_plan_overrides_the_default() {
    // A plan with a single benign transient: the gate must fail
    // (whole classes never fired) but the replay itself still heals.
    let mut scenario = chaos_scenario();
    scenario.faults = Some(FaultPlan::new(
        3,
        vec![FaultSpec::once(
            faults::points::EVENT_APPLY,
            FaultAction::TransientError,
        )],
    ));
    let outcome = chaos_replay(&scenario, Some(2_000));
    assert_eq!(outcome.solver_panics, 0, "{outcome:?}");
    assert_eq!(outcome.watchdog_timeouts, 0, "{outcome:?}");
    assert!(!outcome.gate(), "a benign plan must not pass the gate");
    assert!(outcome.cost_matches_scratch, "{:?}", outcome.swap_checks);
}
