//! The server under armed fault plans.
//!
//! The fault armory is process-global, so these cases share this test
//! binary with no other test and run one after another in its one
//! `#[test]`: no other test's solve can use up a one-shot fault, and no
//! armed plan can inject into another test.
//!
//! The watchdog case runs last. The solve it abandons sleeps in its
//! injected delay and then keeps running, so a case after it could see
//! that solve hit `solve.phase1` under its own plan.

use std::time::{Duration, Instant};

use dmn_core::faults::{self, FaultAction, FaultPlan, FaultSpec};
use dmn_core::instance::{Instance, ObjectWorkload};
use dmn_graph::generators;
use dmn_json::Json;
use dmn_server::{Applied, Event, ServerConfig, ServerHandle};

/// A 6-node path with two objects; background worker off so the cases
/// control every re-solve.
fn test_server() -> ServerHandle {
    test_server_with(ServerConfig {
        background: false,
        ..ServerConfig::default()
    })
}

fn test_server_with(cfg: ServerConfig) -> ServerHandle {
    let graph = generators::path(6, |_| 1.0);
    let mut instance = Instance::builder(graph).uniform_storage_cost(2.0).build();
    instance.push_object(ObjectWorkload::from_sparse(
        6,
        [(0, 8.0), (1, 2.0)],
        [(0, 1.0)],
    ));
    instance.push_object(ObjectWorkload::from_sparse(6, [(5, 6.0)], [(4, 1.0)]));
    ServerHandle::start(&instance, cfg).expect("approx runs anywhere")
}

#[test]
fn armed_fault_cases_run_in_sequence() {
    injected_solver_panic_keeps_last_epoch_live();
    status_stays_prompt_while_a_resolve_is_stalled();
    event_flood_sheds_oldest_and_stays_bounded();
    watchdog_abandons_stuck_solve();
}

fn injected_solver_panic_keeps_last_epoch_live() {
    let server = test_server();
    server
        .apply(&Event::DemandDelta {
            object: 0,
            node: 2,
            read_delta: 3.0,
            write_delta: 0.0,
        })
        .unwrap();
    let plan = FaultPlan::new(
        1,
        vec![FaultSpec::once(
            faults::points::SOLVE_PHASE1,
            FaultAction::Panic,
        )],
    );
    let guard = faults::arm(&plan);
    server.resolve_now();
    assert_eq!(server.epoch(), 1, "a crashed solve publishes nothing");
    let health = server.health();
    assert!(health.degraded());
    assert_eq!(health.consecutive_failures, 1);
    assert_eq!(health.total_failures, 1);
    assert!(
        health.last_error.as_deref().unwrap().contains("panicked"),
        "{:?}",
        health.last_error
    );
    assert!(health.backoff_seconds > 0.0);
    let status = server.status();
    assert!(
        status.get("drift_mass").and_then(Json::as_f64).unwrap() > 0.0,
        "captured drift stays charged after a failed solve"
    );
    assert_eq!(
        status.get("health").and_then(|h| h.get("degraded")),
        Some(&Json::Bool(true))
    );

    drop(guard);
    server.resolve_now();
    assert_eq!(server.epoch(), 2, "next attempt recovers");
    let health = server.health();
    assert!(!health.degraded());
    assert_eq!(health.consecutive_failures, 0);
    assert_eq!(health.total_failures, 1, "history survives recovery");
    assert_eq!(health.last_error, None);
    assert_eq!(
        server.status().get("drift_mass").and_then(Json::as_f64),
        Some(0.0),
        "recovery settles the drift exactly once"
    );
}

/// The health read path must be lock-free: `status()` and `health()`
/// answer promptly even while a re-solve is stalled mid-flight (the
/// old Mutex-backed health could wedge readers behind a stuck writer).
fn status_stays_prompt_while_a_resolve_is_stalled() {
    let server = test_server();
    server
        .apply(&Event::DemandDelta {
            object: 0,
            node: 2,
            read_delta: 4.0,
            write_delta: 0.0,
        })
        .unwrap();
    let plan = FaultPlan::new(
        7,
        vec![FaultSpec::once(
            faults::points::SOLVE_PHASE1,
            FaultAction::DelayMillis(400),
        )],
    );
    let _guard = faults::arm(&plan);
    let worker = {
        let server = server.clone();
        std::thread::spawn(move || server.resolve_now())
    };
    // Let the stalled solve get into its injected delay.
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    let health = server.health();
    let status = server.status();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(200),
        "status/health blocked for {elapsed:?} behind a stalled re-solve"
    );
    assert_eq!(health.consecutive_failures, 0);
    assert!(status.get("health").is_some());
    worker.join().unwrap();
}

fn event_flood_sheds_oldest_and_stays_bounded() {
    let mut cfg = ServerConfig {
        background: false,
        ..ServerConfig::default()
    };
    cfg.resilience.event_queue_capacity = 8;
    let server = test_server_with(cfg);
    let plan = FaultPlan::new(
        3,
        vec![FaultSpec::once(
            faults::points::EVENT_APPLY,
            FaultAction::FloodEvents(100),
        )],
    );
    let _guard = faults::arm(&plan);
    let applied = server
        .apply(&Event::DemandDelta {
            object: 0,
            node: 1,
            read_delta: 2.0,
            write_delta: 0.0,
        })
        .unwrap();
    assert_eq!(
        applied,
        Applied::Delta {
            object: 0,
            drift: 2.0
        },
        "the caller's delta is enqueued last and never shed"
    );
    // 100 synthetic deltas plus the real one through a queue of 8.
    assert_eq!(server.health().shed_deltas, 93);
    let status = server.status();
    assert_eq!(
        status
            .get("health")
            .and_then(|h| h.get("shed_deltas"))
            .and_then(Json::as_usize),
        Some(93)
    );
    let (instance, _) = server.export_instance();
    assert_eq!(
        instance.objects[0].reads[1], 4.0,
        "flood deltas do not clobber the caller's target cell"
    );
}

fn watchdog_abandons_stuck_solve() {
    let mut cfg = ServerConfig {
        background: false,
        ..ServerConfig::default()
    };
    cfg.resilience.solve_timeout_seconds = 0.05;
    let server = test_server_with(cfg);
    server
        .apply(&Event::DemandDelta {
            object: 1,
            node: 3,
            read_delta: 5.0,
            write_delta: 0.0,
        })
        .unwrap();
    let plan = FaultPlan::new(
        2,
        vec![FaultSpec::once(
            faults::points::SOLVE_PHASE1,
            FaultAction::DelayMillis(500),
        )],
    );
    let guard = faults::arm(&plan);
    server.resolve_now();
    assert_eq!(server.epoch(), 1, "a timed-out solve publishes nothing");
    let health = server.health();
    assert_eq!(health.timeouts, 1);
    assert!(
        health.last_error.as_deref().unwrap().contains("watchdog"),
        "{:?}",
        health.last_error
    );

    drop(guard);
    server.resolve_now();
    assert_eq!(server.epoch(), 2, "recovery after the stall");
    assert_eq!(server.health().consecutive_failures, 0);
}
