//! Chaos replay: the server under a seeded fault schedule.
//!
//! Where [`crate::server_bench`] proves the placement server is *correct*
//! under load, this harness proves it is *robust* under failure. A pinned
//! [`FaultPlan`] is armed process-wide and the replay drives the server
//! through every failure class the resilience layer claims to absorb:
//!
//! * an **injected solver panic** (`solve.phase1`) — the re-solve worker
//!   must catch it, keep the last good epoch live, and retry;
//! * a **stalled re-solve** (`server.resolve` delay past the watchdog
//!   deadline) — the attempt must be abandoned and counted as a timeout;
//! * an **event flood** (`event.apply`) — the bounded delta queue must
//!   shed oldest and keep serving;
//! * a **malformed-client burst** over a live TCP connection (plus
//!   injected `tcp.read` transients) — every hostile line answered
//!   in-band, the listener still healthy afterwards.
//!
//! Throughout, lookups must never return an inconsistent answer (the only
//! tolerated error is a transiently parked object, exactly as in the
//! clean replay), recovery must complete within a bounded wall-clock
//! budget, and — once the schedule is drained — every settled snapshot
//! must cost exactly what a from-scratch solve of the drifted instance
//! costs. `experiments chaos` runs this on the pinned smoke scenario and
//! CI's chaos job fails on [`ChaosOutcome::gate`] (`chaos_ok`); the unit
//! tests below drive the gate both ways on a small scenario.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use dmn_core::faults::{self, FaultAction, FaultPlan, FaultSpec};
use dmn_core::telemetry;
use dmn_json::Json;
use dmn_server::{tcp, Event, ResilienceConfig, ServerConfig, ServerError, ServerHandle};
use dmn_solve::solvers;
use dmn_workloads::{sample_trace, Scenario, TraceConfig, TraceOp};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::server_bench::SwapCheck;

/// Post-recovery replay segments; each ends in a settle + from-scratch
/// cost comparison (the proof that chaos left no corrupt state behind).
pub const CHAOS_SEGMENTS: usize = 2;

/// Floor of the wall-clock recovery budget. The actual budget scales
/// with the calibrated watchdog deadline (the scheduled stall alone
/// costs one watchdog window): `floor + 6 * watchdog`. Bounded recovery
/// means bounded relative to the faults induced, but a hang is a hang.
pub const CHAOS_RECOVERY_BUDGET_FLOOR_SECONDS: f64 = 10.0;

/// Storm rounds before the harness gives up waiting for recovery.
const MAX_STORM_ROUNDS: u32 = 16;

/// Lookups issued per storm round while the fault schedule is live.
const STORM_LOOKUPS_PER_ROUND: u64 = 64;

/// The default seeded schedule: one solver panic, one stalled re-solve
/// (`stall_millis` must exceed the harness's watchdog deadline), one
/// 2000-event flood, and two wire-level transients — every class exactly
/// once-ish, all deterministic in hit order.
pub fn default_chaos_plan(seed: u64, stall_millis: u64) -> FaultPlan {
    FaultPlan::new(
        seed ^ 0xC4A0_5EED,
        vec![
            FaultSpec::once(faults::points::SOLVE_PHASE1, FaultAction::Panic),
            FaultSpec::after(
                faults::points::SERVER_RESOLVE,
                FaultAction::DelayMillis(stall_millis),
                1,
            ),
            FaultSpec::after(
                faults::points::EVENT_APPLY,
                FaultAction::FloodEvents(2000),
                1,
            ),
            FaultSpec {
                times: 2,
                ..FaultSpec::once(faults::points::TCP_READ, FaultAction::TransientError)
            },
        ],
    )
}

/// Deterministic hostile lines for the malformed-client burst: every one
/// must be answered in-band with `ok: false`.
fn malformed_corpus() -> Vec<String> {
    let mut corpus: Vec<String> = [
        "not json at all",
        r#"{"op":"lookup","object":"#,
        r#"{"op":42}"#,
        r#"[1,2,3]"#,
        r#"{"noop":"lookup"}"#,
        r#"{"op":"frobnicate"}"#,
        r#"{"op":"lookup","object":"zero","node":[]}"#,
        r#"{"op":"delta","object":0,"node":999999,"read_delta":1.0}"#,
        r#"{"op":"node-down","node":-1}"#,
        "null",
    ]
    .into_iter()
    .map(str::to_string)
    .collect();
    corpus.push("[".repeat(2_000));
    corpus
}

/// Measurements of one chaos replay.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Storm rounds (delta + lookups + forced resolve) until recovery.
    pub storm_rounds: u32,
    /// `solve.phase1` faults that fired (injected solver panics).
    pub solver_panics: u64,
    /// `server.resolve` faults that fired (injected solve stalls).
    pub stalled_resolves: u64,
    /// `event.apply` faults that fired (injected event floods).
    pub event_floods: u64,
    /// `tcp.read` faults that fired (injected wire transients).
    pub wire_faults: u64,
    /// Failed re-solve attempts the health block recorded.
    pub resolve_failures: u64,
    /// Watchdog-abandoned attempts among those failures.
    pub watchdog_timeouts: u64,
    /// Deltas the bounded queue shed under the flood.
    pub shed_deltas: u64,
    /// Hostile lines sent over the live TCP connection.
    pub malformed_lines: u64,
    /// Hostile lines answered in-band with `ok: false`.
    pub malformed_rejected: u64,
    /// A clean `status` round-trip succeeded right after the burst.
    pub wire_recovered: bool,
    /// Wall seconds from arming the schedule to the first healthy epoch
    /// published after it.
    pub recovery_seconds: f64,
    /// The run's recovery budget
    /// ([`CHAOS_RECOVERY_BUDGET_FLOOR_SECONDS`] plus six calibrated
    /// watchdog windows).
    pub recovery_budget_seconds: f64,
    /// The pipeline healed (no consecutive failures, a fresh epoch)
    /// within the budget.
    pub recovered: bool,
    /// Lookups issued (storm + post-recovery replay).
    pub lookups: u64,
    /// Lookups that hit a transiently parked object (tolerated).
    pub parked_lookups: u64,
    /// Lookups that failed any other way (never tolerated).
    pub inconsistent_lookups: u64,
    /// Re-solves the server completed over the whole run.
    pub resolves: u64,
    /// Epoch after the run.
    pub final_epoch: u64,
    /// Post-recovery per-segment swap comparisons.
    pub swap_checks: Vec<SwapCheck>,
    /// Every post-recovery swap cost equals the from-scratch solve of
    /// the drifted instance within 1e-9 (relative).
    pub cost_matches_scratch: bool,
}

impl ChaosOutcome {
    /// The `chaos_ok` CI gate: every fault class fired, every one was
    /// absorbed, nothing served was wrong, and the healed server is
    /// bit-for-bit as good as a from-scratch solve.
    pub fn gate(&self) -> bool {
        self.solver_panics >= 1
            && self.stalled_resolves >= 1
            && self.event_floods >= 1
            && self.wire_faults >= 1
            && self.resolve_failures >= 2
            && self.watchdog_timeouts >= 1
            && self.shed_deltas > 0
            && self.malformed_lines > 0
            && self.malformed_rejected == self.malformed_lines
            && self.wire_recovered
            && self.recovered
            && self.inconsistent_lookups == 0
            && self.cost_matches_scratch
    }

    /// The artifact section recorded under `chaos` in `BENCH_ci.json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("storm_rounds", Json::Num(self.storm_rounds as f64)),
            ("solver_panics", Json::Num(self.solver_panics as f64)),
            ("stalled_resolves", Json::Num(self.stalled_resolves as f64)),
            ("event_floods", Json::Num(self.event_floods as f64)),
            ("wire_faults", Json::Num(self.wire_faults as f64)),
            ("resolve_failures", Json::Num(self.resolve_failures as f64)),
            (
                "watchdog_timeouts",
                Json::Num(self.watchdog_timeouts as f64),
            ),
            ("shed_deltas", Json::Num(self.shed_deltas as f64)),
            ("malformed_lines", Json::Num(self.malformed_lines as f64)),
            (
                "malformed_rejected",
                Json::Num(self.malformed_rejected as f64),
            ),
            ("wire_recovered", Json::Bool(self.wire_recovered)),
            ("recovery_seconds", Json::Num(self.recovery_seconds)),
            (
                "recovery_budget_seconds",
                Json::Num(self.recovery_budget_seconds),
            ),
            ("recovered", Json::Bool(self.recovered)),
            ("lookups", Json::Num(self.lookups as f64)),
            ("parked_lookups", Json::Num(self.parked_lookups as f64)),
            (
                "inconsistent_lookups",
                Json::Num(self.inconsistent_lookups as f64),
            ),
            ("resolves", Json::Num(self.resolves as f64)),
            ("final_epoch", Json::Num(self.final_epoch as f64)),
            (
                "cost_matches_scratch",
                Json::Bool(self.cost_matches_scratch),
            ),
            (
                "swaps",
                Json::arr(self.swap_checks.iter().map(|c| {
                    Json::obj([
                        ("epoch", Json::Num(c.epoch as f64)),
                        ("server_cost", Json::Num(c.server_cost)),
                        ("scratch_cost", Json::Num(c.scratch_cost)),
                        (
                            "abs_error",
                            Json::Num((c.server_cost - c.scratch_cost).abs()),
                        ),
                    ])
                })),
            ),
        ])
    }
}

/// Runs the chaos replay on a scenario.
///
/// Uses the scenario's own `faults` block when it pins one, else
/// [`default_chaos_plan`]. The harness overrides the resilience knobs to
/// chaos-friendly values (250ms watchdog, 10ms backoff, 256-slot event
/// queue) so the scheduled stall reliably trips the watchdog and the
/// scheduled flood reliably sheds. `lookups_override` shrinks the
/// post-recovery replay for debug-mode tests.
///
/// # Panics
/// Panics when the default engine cannot run on the scenario or the
/// harness's own plumbing (sockets, threads) fails — never from an
/// injected fault; absorbing those is the point.
pub fn chaos_replay(scenario: &Scenario, lookups_override: Option<usize>) -> ChaosOutcome {
    // The fault armory is process-global: serialize against every other
    // test or bench that arms a plan.
    let _serial = faults::exclusive();

    let instance = scenario.build_instance();
    let drift = scenario.drift_spec();

    // Scale the watchdog to the scenario: a fixed deadline would either
    // never fire (tiny instances) or flag every honest attempt (big
    // instances in debug builds). One un-faulted probe solve calibrates
    // it; the scheduled stall is then pinned safely past the deadline.
    let default_cfg = ServerConfig::default();
    let probe_solver = solvers::by_name(&default_cfg.solver).expect("registered");
    let probe_started = Instant::now();
    let _ = probe_solver.solve(&instance, &default_cfg.request);
    let watchdog_seconds = (5.0 * probe_started.elapsed().as_secs_f64()).max(0.25);
    let stall_millis = (2_000.0 * watchdog_seconds) as u64 + 200;

    let server = ServerHandle::start(
        &instance,
        ServerConfig {
            resolve_threshold: drift.resolve_threshold,
            resilience: ResilienceConfig {
                solve_timeout_seconds: watchdog_seconds,
                max_retries: 5,
                backoff_base_seconds: 0.01,
                backoff_max_seconds: 0.05,
                event_queue_capacity: 256,
                ..ResilienceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("the default engine runs on any scenario");
    let num_objects = instance.num_objects();
    let num_nodes = instance.num_nodes();

    let plan = scenario
        .fault_plan()
        .cloned()
        .unwrap_or_else(|| default_chaos_plan(scenario.seed, stall_millis));
    let chaos_started = Instant::now();
    // Fault fires are asserted through the telemetry mirror (the
    // `dmn_faults_fired_total{point=...}` counters the metrics endpoint
    // exports), not the armory's private ledger — so the chaos gate and
    // a production dashboard count from the same cells. The counters are
    // process-cumulative; deltas against these baselines scope them to
    // this run.
    let fired_counter = |point: &str| telemetry::fault_fired_total(point);
    let fired0 = [
        faults::points::SOLVE_PHASE1,
        faults::points::SERVER_RESOLVE,
        faults::points::EVENT_APPLY,
        faults::points::TCP_READ,
    ]
    .map(|p| fired_counter(p).get());
    let guard = faults::arm(&plan);
    let epoch0 = server.epoch();

    // The scheduled panic is caught and counted by the worker; its
    // default-hook backtrace is pure noise in a gate's output. Silenced
    // only for the storm (we hold the armory's exclusive gate, so no
    // other thread's panics can be swallowed by accident).
    let quiet_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // Phase 1 — the storm: churn deltas (feeding the flood injector),
    // hammer lookups off the last good epoch, and force re-solves until
    // the scheduled panic and stall have been absorbed and a fresh epoch
    // is live again.
    let mut storm_rng = ChaCha8Rng::seed_from_u64(scenario.seed ^ 0x5708_14CA);
    let mut lookups = 0u64;
    let mut parked_lookups = 0u64;
    let mut inconsistent_lookups = 0u64;
    let mut storm_rounds = 0u32;
    let mut healed = false;
    let mut recovery_seconds = 0.0;
    for _ in 0..MAX_STORM_ROUNDS {
        storm_rounds += 1;
        let object = storm_rng.random_range(0..num_objects) as u64;
        let node = storm_rng.random_range(0..num_nodes);
        // An armed `event.apply` transient rejects the delta in-band;
        // that is a scheduled fault, not a harness bug — keep storming.
        let _ = server.apply(&Event::DemandDelta {
            object,
            node,
            read_delta: 1.0,
            write_delta: 0.0,
        });
        for _ in 0..STORM_LOOKUPS_PER_ROUND {
            let object = storm_rng.random_range(0..num_objects) as u64;
            let node = storm_rng.random_range(0..num_nodes);
            match server.lookup(object, node) {
                Ok(_) => {}
                Err(ServerError::UnknownObject(_)) => parked_lookups += 1,
                Err(_) => inconsistent_lookups += 1,
            }
            lookups += 1;
        }
        server.resolve_now();
        let health = server.health();
        if health.consecutive_failures == 0 && server.epoch() > epoch0 {
            healed = true;
            recovery_seconds = chaos_started.elapsed().as_secs_f64();
            break;
        }
    }
    if !healed {
        recovery_seconds = chaos_started.elapsed().as_secs_f64();
    }
    std::panic::set_hook(quiet_hook);
    let storm_health = server.health();

    // Phase 2 — the malformed-client burst against a live listener (the
    // armed `tcp.read` transients fire on the first lines).
    let (malformed_lines, malformed_rejected, wire_recovered) =
        malformed_burst(&server).expect("burst harness I/O");

    // Read the fired counters (telemetry mirror deltas) while the plan
    // is still armed, then stand down: the post-recovery replay must run
    // fault-free.
    let solver_panics = fired_counter(faults::points::SOLVE_PHASE1).get() - fired0[0];
    let stalled_resolves = fired_counter(faults::points::SERVER_RESOLVE).get() - fired0[1];
    let event_floods = fired_counter(faults::points::EVENT_APPLY).get() - fired0[2];
    let wire_faults = fired_counter(faults::points::TCP_READ).get() - fired0[3];
    drop(guard);

    // Phase 3 — post-recovery replay: the scenario's drift trace with
    // per-segment settles, exactly the clean benchmark's correctness
    // check. Any state the chaos corrupted shows up here as a cost
    // mismatch against the from-scratch solve.
    let baseline: f64 = instance.objects.iter().map(|o| o.total_requests()).sum();
    let events = drift.drift_events.max(CHAOS_SEGMENTS);
    let threshold_mass = drift.resolve_threshold * baseline;
    let drift_mass = drift
        .drift_mass
        .max(10.0 * threshold_mass / (2.0 * events as f64));
    let trace = sample_trace(
        &instance.objects,
        &TraceConfig {
            lookups: lookups_override.unwrap_or((drift.lookups / 4).max(10_000)),
            drift_events: events,
            drift_mass,
            hotspot_shift: num_nodes / 5 + 1,
            ..TraceConfig::default()
        },
        &mut ChaCha8Rng::seed_from_u64(scenario.seed ^ 0xC4A0),
    );
    let solver = solvers::by_name(&server.config().solver).expect("registered");
    let request = server.config().request.clone();
    let segment_len = trace.len().div_ceil(CHAOS_SEGMENTS);
    let mut swap_checks = Vec::new();
    for segment in trace.chunks(segment_len) {
        for op in segment {
            match *op {
                TraceOp::Lookup { object, node } => {
                    match server.lookup(object as u64, node) {
                        Ok(_) => {}
                        Err(ServerError::UnknownObject(_)) => parked_lookups += 1,
                        Err(_) => inconsistent_lookups += 1,
                    }
                    lookups += 1;
                }
                TraceOp::Delta {
                    object,
                    node,
                    read_delta,
                    write_delta,
                } => {
                    server
                        .apply(&Event::DemandDelta {
                            object: object as u64,
                            node,
                            read_delta,
                            write_delta,
                        })
                        .expect("trace deltas are valid");
                }
            }
        }
        server.wait_idle();
        let epoch = server.resolve_now();
        let snap = server.snapshot();
        let (exported, _ids) = server.export_instance();
        let scratch = solver.solve(&exported, &request);
        swap_checks.push(SwapCheck {
            epoch,
            server_cost: snap.cost.total(),
            scratch_cost: scratch.cost.total(),
        });
    }

    let final_health = server.health();
    let stats = server.stats();
    let final_epoch = server.epoch();
    server.shutdown();
    let cost_matches_scratch = swap_checks
        .iter()
        .all(|c| (c.server_cost - c.scratch_cost).abs() <= 1e-9 * c.scratch_cost.abs().max(1.0));
    let recovery_budget_seconds = CHAOS_RECOVERY_BUDGET_FLOOR_SECONDS + 6.0 * watchdog_seconds;
    let recovered = healed
        && recovery_seconds <= recovery_budget_seconds
        && final_health.consecutive_failures == 0;
    ChaosOutcome {
        storm_rounds,
        solver_panics,
        stalled_resolves,
        event_floods,
        wire_faults,
        resolve_failures: storm_health.total_failures,
        watchdog_timeouts: storm_health.timeouts,
        shed_deltas: final_health.shed_deltas,
        malformed_lines,
        malformed_rejected,
        wire_recovered,
        recovery_seconds,
        recovery_budget_seconds,
        recovered,
        lookups,
        parked_lookups,
        inconsistent_lookups,
        resolves: stats.resolves,
        final_epoch,
        swap_checks,
        cost_matches_scratch,
    }
}

/// Throws the malformed corpus at a live listener serving `server` and
/// returns `(lines_sent, lines_rejected_in_band, clean_status_after)`.
fn malformed_burst(server: &ServerHandle) -> std::io::Result<(u64, u64, bool)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let acceptor = {
        let server = server.clone();
        std::thread::spawn(move || tcp::serve(listener, server))
    };
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();

    let mut sent = 0u64;
    let mut rejected = 0u64;
    for line in malformed_corpus() {
        writeln!(writer, "{line}")?;
        sent += 1;
        response.clear();
        reader.read_line(&mut response)?;
        let doc = dmn_json::parse(&response).expect("responses are JSON");
        if doc.get("ok") == Some(&Json::Bool(false)) {
            rejected += 1;
        }
    }

    // The same connection, right after the abuse: a clean status must
    // answer healthy (and carry the resilience health block).
    writeln!(writer, r#"{{"op":"status"}}"#)?;
    response.clear();
    reader.read_line(&mut response)?;
    let wire_recovered = dmn_json::parse(&response)
        .ok()
        .is_some_and(|doc| doc.get("ok") == Some(&Json::Bool(true)) && doc.get("health").is_some());

    writeln!(writer, r#"{{"op":"quit"}}"#)?;
    response.clear();
    reader.read_line(&mut response)?;
    acceptor
        .join()
        .expect("acceptor thread joins")
        .expect("serve returns cleanly");
    Ok((sent, rejected, wire_recovered))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmn_workloads::{DriftSpec, TopologyKind, WorkloadParams};

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

    #[test]
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
}
