//! Trace-replay benchmark of the placement server.
//!
//! Replays a scenario's synthetic zipf-with-drift trace
//! ([`dmn_workloads::sample_trace`]) against an in-process
//! [`ServerHandle`] and measures the server's two planes at once:
//!
//! * **sustained lookup throughput** — the replay loop issues the
//!   trace's `where-do-I-read` lookups as fast as the handle answers
//!   them, while the drift deltas interleaved in the trace push the
//!   server over its re-solve threshold, so background re-solves and
//!   epoch swaps happen *under* the measured load;
//! * **re-solve quality** — after each replay segment the driver forces
//!   a final re-solve, exports the live (drifted) instance, solves it
//!   from scratch with the same request, and records both costs. The
//!   server's incremental event bookkeeping is correct iff the costs
//!   agree to fp equality ([`ReplayOutcome::cost_matches_scratch`]).
//!
//! The root `tests/timing_floors.rs` replays the pinned
//! [`smoke_scenario`] in release, armed and disarmed, and checks the
//! lookup-throughput and re-solve-latency floors there; the unit tests
//! below check the replay's costs, and `tests/telemetry_sampling.rs`
//! its latency sampling.

use std::time::Instant;

use dmn_core::{telemetry, Instance};
use dmn_json::Json;
use dmn_server::{Event, ServerConfig, ServerError, ServerHandle};
use dmn_solve::solvers;
use dmn_workloads::{
    sample_trace, DriftSpec, Scenario, TopologyKind, TraceConfig, TraceOp, WorkloadParams,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Replay segments per run: each ends in a settle + from-scratch
/// comparison, so every run exercises at least this many epoch swaps.
pub const REPLAY_SEGMENTS: usize = 3;

/// The pinned smoke scenario: a 15x15 grid (225 nodes), 32 objects, fixed
/// seed — big enough that phase 1 dominates a solve. The root
/// `tests/gates.rs` runs its deterministic gates on it, `experiments chaos`
/// and `experiments metrics` replay it, and `tests/timing_floors.rs` times
/// it; changing it invalidates cross-run timing comparisons, so bump
/// deliberately.
pub fn smoke_scenario() -> Scenario {
    Scenario {
        name: "smoke".into(),
        topology: TopologyKind::Grid { rows: 15, cols: 15 },
        nodes: 225,
        storage_cost: 4.0,
        workload: WorkloadParams {
            num_objects: 32,
            base_mass: 120.0,
            write_fraction: 0.2,
            ..Default::default()
        },
        seed: 42,
        capacities: None,
        stream: None,
        // The server replay: ~1.2M lookups with 60 drift events — the
        // "million-user" trace of the acceptance gate.
        drift: Some(DriftSpec::default()),
        faults: None,
        timeline: None,
    }
}

/// One post-segment swap comparison.
#[derive(Debug, Clone, Copy)]
pub struct SwapCheck {
    /// Epoch after the forced settle re-solve.
    pub epoch: u64,
    /// Total cost the server's snapshot reports.
    pub server_cost: f64,
    /// Total cost of a from-scratch solve of the exported live instance.
    pub scratch_cost: f64,
}

/// Measurements of one trace replay.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Trace length (lookups + drift deltas).
    pub ops: usize,
    /// Lookups issued.
    pub lookups: u64,
    /// Lookups that hit a transiently parked object (a drain delta zeroed
    /// its demand and a background swap landed before the re-inject).
    pub parked_lookups: u64,
    /// Wall seconds of the replay loop (the interleaved deltas are a
    /// vanishing fraction of the ops, so this is lookup time).
    pub lookup_seconds: f64,
    /// Sustained lookups per second under concurrent re-solves.
    pub lookups_per_sec: f64,
    /// Re-solves the server completed (background + forced).
    pub resolves: u64,
    /// Re-solves triggered by the drift threshold alone.
    pub background_resolves: u64,
    /// Settle re-solves forced by the driver (one per segment).
    pub forced_resolves: u64,
    /// Worst solve latency observed (initial solve included).
    pub max_resolve_seconds: f64,
    /// Epoch after the replay.
    pub final_epoch: u64,
    /// Per-segment swap comparisons.
    pub swap_checks: Vec<SwapCheck>,
    /// True when every swap's cost equals the from-scratch solve of the
    /// drifted instance within 1e-9 (relative).
    pub cost_matches_scratch: bool,
    /// Sampled lookup latencies recorded into the telemetry histogram
    /// (zero when telemetry was disabled for the run).
    pub latency_samples: u64,
    /// Median sampled lookup latency, seconds (zero without samples).
    pub lookup_p50: f64,
    /// 99th-percentile sampled lookup latency, seconds.
    pub lookup_p99: f64,
}

impl ReplayOutcome {
    /// The JSON section `server_bench --out` writes and
    /// `experiments metrics` records under `replay`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("ops", Json::Num(self.ops as f64)),
            ("lookups", Json::Num(self.lookups as f64)),
            ("parked_lookups", Json::Num(self.parked_lookups as f64)),
            ("lookup_seconds", Json::Num(self.lookup_seconds)),
            ("lookups_per_sec", Json::Num(self.lookups_per_sec)),
            ("resolves", Json::Num(self.resolves as f64)),
            (
                "background_resolves",
                Json::Num(self.background_resolves as f64),
            ),
            ("forced_resolves", Json::Num(self.forced_resolves as f64)),
            ("max_resolve_seconds", Json::Num(self.max_resolve_seconds)),
            ("final_epoch", Json::Num(self.final_epoch as f64)),
            (
                "cost_matches_scratch",
                Json::Bool(self.cost_matches_scratch),
            ),
            ("latency_samples", Json::Num(self.latency_samples as f64)),
            ("lookup_p50", Json::Num(self.lookup_p50)),
            ("lookup_p99", Json::Num(self.lookup_p99)),
            ("swaps", swaps_json(&self.swap_checks)),
        ])
    }
}

/// The `swaps` array of a replay's JSON section: one entry per settle.
pub(crate) fn swaps_json(checks: &[SwapCheck]) -> Json {
    Json::arr(checks.iter().map(|c| {
        Json::obj([
            ("epoch", Json::Num(c.epoch as f64)),
            ("server_cost", Json::Num(c.server_cost)),
            ("scratch_cost", Json::Num(c.scratch_cost)),
            (
                "abs_error",
                Json::Num((c.server_cost - c.scratch_cost).abs()),
            ),
        ])
    }))
}

/// What one drift replay ([`replay_drift`]) observed.
pub(crate) struct DriftReplay {
    /// Trace length (lookups + drift deltas).
    pub ops: usize,
    /// Lookups issued.
    pub lookups: u64,
    /// Lookups that hit a transiently parked object.
    pub parked_lookups: u64,
    /// Wall seconds of the trace loops, settles excluded.
    pub lookup_seconds: f64,
    /// One comparison per segment.
    pub swap_checks: Vec<SwapCheck>,
    /// Every swap's cost equals the from-scratch solve within 1e-9
    /// (relative).
    pub cost_matches_scratch: bool,
}

/// Replays a drift trace of `instance` against `server` in `segments`
/// segments, each ending in a settle and a from-scratch comparison.
///
/// The trace holds `lookups` lookups, is drawn from `seed`, and its
/// per-event drift mass is scaled up (if needed) so the replay crosses
/// the re-solve threshold about ten times — a drift benchmark that never
/// drifts past its threshold measures nothing. A lookup on a transiently
/// parked object (a drain delta zeroed its demand and a background swap
/// landed before the re-inject) is counted in
/// [`DriftReplay::parked_lookups`]; any other rejected lookup goes to
/// `on_rejected`.
///
/// # Panics
/// Panics when the server rejects a trace delta.
pub(crate) fn replay_drift(
    server: &ServerHandle,
    instance: &Instance,
    drift: &DriftSpec,
    segments: usize,
    seed: u64,
    lookups: usize,
    mut on_rejected: impl FnMut(ServerError),
) -> DriftReplay {
    let baseline: f64 = instance.objects.iter().map(|o| o.total_requests()).sum();
    let events = drift.drift_events.max(segments);
    // Each drift event moves `drift_mass` out and in again (2x mass of
    // drift); target ~10 threshold crossings over the whole trace.
    let threshold_mass = drift.resolve_threshold * baseline;
    let drift_mass = drift
        .drift_mass
        .max(10.0 * threshold_mass / (2.0 * events as f64));
    let trace = sample_trace(
        &instance.objects,
        &TraceConfig {
            lookups,
            drift_events: events,
            drift_mass,
            hotspot_shift: instance.num_nodes() / 5 + 1,
            ..TraceConfig::default()
        },
        &mut ChaCha8Rng::seed_from_u64(seed),
    );

    let solver = solvers::by_name(&server.config().solver).expect("registered");
    let request = server.config().request.clone();
    let segment_len = trace.len().div_ceil(segments);
    let mut out = DriftReplay {
        ops: trace.len(),
        lookups: 0,
        parked_lookups: 0,
        lookup_seconds: 0.0,
        swap_checks: Vec::new(),
        cost_matches_scratch: false,
    };
    for segment in trace.chunks(segment_len) {
        let t0 = Instant::now();
        for op in segment {
            match *op {
                TraceOp::Lookup { object, node } => {
                    match server.lookup(object as u64, node) {
                        Ok(_) => {}
                        Err(ServerError::UnknownObject(_)) => out.parked_lookups += 1,
                        Err(e) => on_rejected(e),
                    }
                    out.lookups += 1;
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
        out.lookup_seconds += t0.elapsed().as_secs_f64();

        // Settle: drain background work, pin the snapshot to the exact
        // current live state, and race it against a from-scratch solve
        // of the exported instance under the same request.
        server.wait_idle();
        let epoch = server.resolve_now();
        let snap = server.snapshot();
        let (exported, _ids) = server.export_instance();
        let scratch = solver.solve(&exported, &request);
        out.swap_checks.push(SwapCheck {
            epoch,
            server_cost: snap.cost.total(),
            scratch_cost: scratch.cost.total(),
        });
    }
    out.cost_matches_scratch = out
        .swap_checks
        .iter()
        .all(|c| (c.server_cost - c.scratch_cost).abs() <= 1e-9 * c.scratch_cost.abs().max(1.0));
    out
}

/// Replays the scenario's drift trace against a freshly started server,
/// in [`REPLAY_SEGMENTS`] segments that each end in a settle and a
/// from-scratch comparison.
///
/// The trace's per-event drift mass is scaled up (if needed) so the
/// replay reliably crosses the re-solve threshold several times.
/// `lookups_override` shrinks the trace for debug-mode tests.
///
/// # Panics
/// Panics when the default server engine cannot run on the scenario or
/// a trace operation is rejected. A lookup on a transiently parked
/// object is tolerated and counted in [`ReplayOutcome::parked_lookups`].
pub fn replay_scenario(scenario: &Scenario, lookups_override: Option<usize>) -> ReplayOutcome {
    replay_scenario_with(scenario, lookups_override, true)
}

/// [`replay_scenario`] with explicit control over telemetry. It sets the
/// process-wide enabled flag and resets the process-wide lookup
/// histogram before the run, so the reported p50/p99 cover exactly this
/// replay as long as no other server runs in the process meanwhile.
pub fn replay_scenario_with(
    scenario: &Scenario,
    lookups_override: Option<usize>,
    with_telemetry: bool,
) -> ReplayOutcome {
    // `ServerHandle::start` only ever arms telemetry, so the disabled
    // leg of an A/B run must disarm the registry explicitly.
    telemetry::set_enabled(with_telemetry);
    let lookup_hist = telemetry::histogram(telemetry::names::SERVER_LOOKUP_SECONDS);
    lookup_hist.reset();
    let instance = scenario.build_instance();
    let drift = scenario.drift_spec();
    let server = ServerHandle::start(
        &instance,
        ServerConfig {
            resolve_threshold: drift.resolve_threshold,
            telemetry: with_telemetry,
            ..ServerConfig::default()
        },
    )
    .expect("the default engine runs on any scenario");

    let replay = replay_drift(
        &server,
        &instance,
        &drift,
        REPLAY_SEGMENTS,
        scenario.seed ^ 0x5EC7,
        lookups_override.unwrap_or(drift.lookups),
        |e| panic!("trace lookup rejected: {e}"),
    );

    let stats = server.stats();
    let final_epoch = server.epoch();
    server.shutdown();
    let latency = lookup_hist.snapshot();
    let forced = replay.swap_checks.len() as u64;
    ReplayOutcome {
        ops: replay.ops,
        lookups: replay.lookups,
        parked_lookups: replay.parked_lookups,
        lookup_seconds: replay.lookup_seconds,
        lookups_per_sec: replay.lookups as f64 / replay.lookup_seconds.max(1e-12),
        resolves: stats.resolves,
        background_resolves: stats.resolves.saturating_sub(forced),
        forced_resolves: forced,
        max_resolve_seconds: stats.max_resolve_seconds,
        final_epoch,
        swap_checks: replay.swap_checks,
        cost_matches_scratch: replay.cost_matches_scratch,
        latency_samples: latency.count,
        lookup_p50: latency.quantile(0.5),
        lookup_p99: latency.quantile(0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn replay_resolves_and_matches_scratch() {
        let outcome = replay_scenario(&mini_scenario(), None);
        assert_eq!(outcome.lookups, 6_000);
        assert_eq!(outcome.forced_resolves as usize, REPLAY_SEGMENTS);
        assert!(
            outcome.resolves >= REPLAY_SEGMENTS as u64,
            "at least the forced settles completed: {outcome:?}"
        );
        assert!(outcome.cost_matches_scratch, "{:?}", outcome.swap_checks);
        assert!(outcome.final_epoch > REPLAY_SEGMENTS as u64);
        assert!(outcome.lookups_per_sec > 0.0);
        let json = outcome.to_json().to_string_pretty();
        for needle in [
            "\"lookups_per_sec\"",
            "\"cost_matches_scratch\"",
            "\"background_resolves\"",
            "\"max_resolve_seconds\"",
            "\"swaps\"",
            "\"scratch_cost\"",
            "\"lookup_p50\"",
            "\"lookup_p99\"",
            "\"latency_samples\"",
        ] {
            assert!(json.contains(needle), "missing {needle}");
        }
        dmn_json::parse(&json).expect("valid artifact section");
    }

    #[test]
    fn pinned_scenario_meets_the_acceptance_floor() {
        let s = smoke_scenario();
        assert!(s.nodes >= 200, "smoke must stay >= 200 nodes");
        assert!(
            s.workload.num_objects >= 32,
            "smoke must stay >= 32 objects"
        );
    }
}
