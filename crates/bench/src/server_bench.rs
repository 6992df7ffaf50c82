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
//! The perf-smoke timing runner replays the pinned scenario through
//! [`replay_ab`] and fails CI on `server_ok`, `obs_ok` and the release
//! lookup-throughput and re-solve-latency bounds.

use std::time::Instant;

use dmn_core::telemetry;
use dmn_json::Json;
use dmn_server::{Event, ServerConfig, ServerError, ServerHandle};
use dmn_solve::solvers;
use dmn_workloads::{sample_trace, Scenario, TraceConfig, TraceOp};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Replay segments per run: each ends in a settle + from-scratch
/// comparison, so every run exercises at least this many epoch swaps.
pub const REPLAY_SEGMENTS: usize = 3;

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
    /// The artifact section recorded under `server` in `BENCH_ci.json`.
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

/// Replays the scenario's drift trace against a freshly started server.
///
/// The trace's per-event drift mass is scaled up (if needed) so the
/// replay reliably crosses the re-solve threshold several times — a
/// drift benchmark that never drifts past its threshold measures
/// nothing. `lookups_override` shrinks the trace for debug-mode tests.
///
/// # Panics
/// Panics when the default server engine cannot run on the scenario or
/// a trace operation is rejected. A lookup on a transiently parked
/// object (all of its demand drained just before a background swap) is
/// tolerated and counted in [`ReplayOutcome::parked_lookups`].
pub fn replay_scenario(scenario: &Scenario, lookups_override: Option<usize>) -> ReplayOutcome {
    replay_scenario_with(scenario, lookups_override, true)
}

/// [`replay_scenario`] with explicit control over telemetry. The lookup
/// histogram is reset before the run so the reported p50/p99 cover
/// exactly this replay; serialize concurrent benchmark runs with
/// [`telemetry::exclusive`] if they share the process.
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

    let baseline: f64 = instance.objects.iter().map(|o| o.total_requests()).sum();
    let events = drift.drift_events.max(REPLAY_SEGMENTS);
    // Each drift event moves `drift_mass` out and in again (2x mass of
    // drift); target ~10 threshold crossings over the whole trace.
    let threshold_mass = drift.resolve_threshold * baseline;
    let drift_mass = drift
        .drift_mass
        .max(10.0 * threshold_mass / (2.0 * events as f64));
    let trace = sample_trace(
        &instance.objects,
        &TraceConfig {
            lookups: lookups_override.unwrap_or(drift.lookups),
            drift_events: events,
            drift_mass,
            hotspot_shift: instance.num_nodes() / 5 + 1,
            ..TraceConfig::default()
        },
        &mut ChaCha8Rng::seed_from_u64(scenario.seed ^ 0x5EC7),
    );

    let solver = solvers::by_name(&server.config().solver).expect("registered");
    let request = server.config().request.clone();
    let segment_len = trace.len().div_ceil(REPLAY_SEGMENTS);
    let mut lookups = 0u64;
    let mut parked_lookups = 0u64;
    let mut lookup_seconds = 0.0;
    let mut forced = 0u64;
    let mut swap_checks = Vec::new();
    for segment in trace.chunks(segment_len) {
        let t0 = Instant::now();
        for op in segment {
            match *op {
                TraceOp::Lookup { object, node } => {
                    match server.lookup(object as u64, node) {
                        Ok(_) => {}
                        // A drain delta can zero an object's entire demand;
                        // if a background re-solve lands before the matching
                        // re-inject, the object is parked out of the epoch.
                        Err(ServerError::UnknownObject(_)) => parked_lookups += 1,
                        Err(e) => panic!("trace lookup rejected: {e}"),
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
        lookup_seconds += t0.elapsed().as_secs_f64();

        // Settle: drain background work, pin the snapshot to the exact
        // current live state, and race it against a from-scratch solve
        // of the exported instance under the same request.
        server.wait_idle();
        let epoch = server.resolve_now();
        forced += 1;
        let snap = server.snapshot();
        let (exported, _ids) = server.export_instance();
        let scratch = solver.solve(&exported, &request);
        swap_checks.push(SwapCheck {
            epoch,
            server_cost: snap.cost.total(),
            scratch_cost: scratch.cost.total(),
        });
    }

    let stats = server.stats();
    let final_epoch = server.epoch();
    server.shutdown();
    let latency = lookup_hist.snapshot();
    let cost_matches_scratch = swap_checks
        .iter()
        .all(|c| (c.server_cost - c.scratch_cost).abs() <= 1e-9 * c.scratch_cost.abs().max(1.0));
    ReplayOutcome {
        ops: trace.len(),
        lookups,
        parked_lookups,
        lookup_seconds,
        lookups_per_sec: lookups as f64 / lookup_seconds.max(1e-12),
        resolves: stats.resolves,
        background_resolves: stats.resolves.saturating_sub(forced),
        forced_resolves: forced,
        max_resolve_seconds: stats.max_resolve_seconds,
        final_epoch,
        swap_checks,
        cost_matches_scratch,
        latency_samples: latency.count,
        lookup_p50: latency.quantile(0.5),
        lookup_p99: latency.quantile(0.99),
    }
}

/// The telemetry-overhead comparison recorded under `telemetry` in
/// `BENCH_ci.json` and gated by `obs_ok`.
#[derive(Debug, Clone)]
pub struct ObsComparison {
    /// Best-of-2 replay with telemetry armed (histograms, spans,
    /// sampled lookup timing all live).
    pub enabled: ReplayOutcome,
    /// Best-of-2 replay with the registry disarmed — every telemetry
    /// decision costs one relaxed load.
    pub disabled: ReplayOutcome,
    /// `enabled.lookups_per_sec / disabled.lookups_per_sec`; the
    /// `obs_ok` gate requires ≥ 0.9 in release builds.
    pub overhead_ratio: f64,
}

impl ObsComparison {
    /// The artifact section recorded under `telemetry` in `BENCH_ci.json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "enabled_lookups_per_sec",
                Json::Num(self.enabled.lookups_per_sec),
            ),
            (
                "disabled_lookups_per_sec",
                Json::Num(self.disabled.lookups_per_sec),
            ),
            ("overhead_ratio", Json::Num(self.overhead_ratio)),
            ("lookup_p50", Json::Num(self.enabled.lookup_p50)),
            ("lookup_p99", Json::Num(self.enabled.lookup_p99)),
            (
                "latency_samples",
                Json::Num(self.enabled.latency_samples as f64),
            ),
            (
                "sampling_interval",
                Json::Num(dmn_server::LOOKUP_SAMPLE_INTERVAL as f64),
            ),
        ])
    }
}

/// A/B rounds per mode: the replay's timed lookup window is well under
/// a second, so a sequential disabled-then-enabled schedule would fold
/// any machine drift straight into the ratio. The rounds interleave
/// (disabled, enabled) pairs and the ratio compares per-mode bests —
/// drift hits both modes alike and the minimum-statistics damp noise.
pub const AB_ROUNDS: usize = 3;

/// Replays the scenario [`AB_ROUNDS`] times per mode in interleaved
/// (disarmed, armed) pairs and reports the best-of-rounds throughput
/// ratio. Holds [`telemetry::exclusive`] for the duration and leaves
/// the registry armed (the process default) on return.
pub fn replay_ab(scenario: &Scenario, lookups_override: Option<usize>) -> ObsComparison {
    let _gate = telemetry::exclusive();
    let mut disabled: Option<ReplayOutcome> = None;
    let mut enabled: Option<ReplayOutcome> = None;
    let keep_best = |slot: &mut Option<ReplayOutcome>, run: ReplayOutcome| {
        if slot
            .as_ref()
            .is_none_or(|best| run.lookups_per_sec > best.lookups_per_sec)
        {
            *slot = Some(run);
        }
    };
    for _ in 0..AB_ROUNDS {
        let run = replay_scenario_with(scenario, lookups_override, false);
        keep_best(&mut disabled, run);
        let run = replay_scenario_with(scenario, lookups_override, true);
        keep_best(&mut enabled, run);
    }
    telemetry::set_enabled(true);
    let disabled = disabled.expect("AB_ROUNDS >= 1");
    let enabled = enabled.expect("AB_ROUNDS >= 1");
    ObsComparison {
        overhead_ratio: enabled.lookups_per_sec / disabled.lookups_per_sec.max(1e-12),
        enabled,
        disabled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmn_workloads::{DriftSpec, TopologyKind, WorkloadParams};

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
        // Serialize against the chaos tests: the fault armory is
        // process-global and an armed plan would inject into this replay.
        let _gate = dmn_core::faults::exclusive();
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
    fn ab_compare_isolates_telemetry_and_reports_quantiles() {
        // Lock order: faults gate first (replay runs under the armory's
        // hit points), telemetry gate second (taken inside replay_ab).
        let _gate = dmn_core::faults::exclusive();
        let ab = replay_ab(&mini_scenario(), Some(2_000));
        assert!(
            ab.enabled.latency_samples > 0,
            "the armed leg samples lookups: {ab:?}"
        );
        assert_eq!(
            ab.disabled.latency_samples, 0,
            "the disarmed leg records nothing"
        );
        assert!(ab.enabled.lookup_p50 > 0.0);
        assert!(ab.enabled.lookup_p99 >= ab.enabled.lookup_p50);
        assert!(ab.overhead_ratio > 0.0);
        assert!(telemetry::enabled(), "replay_ab re-arms the registry");
        let json = ab.to_json().to_string_pretty();
        for needle in [
            "\"enabled_lookups_per_sec\"",
            "\"disabled_lookups_per_sec\"",
            "\"overhead_ratio\"",
            "\"lookup_p50\"",
            "\"lookup_p99\"",
            "\"sampling_interval\"",
        ] {
            assert!(json.contains(needle), "missing {needle}");
        }
        dmn_json::parse(&json).expect("valid artifact section");
    }
}
