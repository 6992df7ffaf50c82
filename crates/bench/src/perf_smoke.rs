//! The CI perf-smoke timing runner: the pinned scenario through timed
//! pairs of solves and replays, written to a machine-readable
//! `BENCH_ci.json` artifact.
//!
//! CI runs this in release mode on every push. Each timed pair also
//! carries the one check that compares its two sides:
//!
//! * **phase-1 speedup** — one-thread `approx` solves with the incremental
//!   local search and with the seed from-scratch implementation
//!   (`FlSolverKind::LocalSearchRef`), twice each. `phase1_speedup` is the
//!   ratio of their minimum phase-1 seconds (release floor
//!   [`MIN_PHASE1_SPEEDUP`]), and `fast_matches_seed` requires the
//!   *identical* placement from both, and from both incremental runs;
//! * **server replay** — the drift-trace replay against the placement
//!   server, telemetry disarmed and then armed
//!   ([`server_bench::replay_ab`]). The armed leg's lookups per second
//!   (release floor [`MIN_SERVER_LOOKUPS_PER_SEC`]) and worst re-solve
//!   (release ceiling [`MAX_SERVER_RESOLVE_SECONDS`]) are recorded;
//!   `server_ok` requires every post-swap snapshot cost to equal a
//!   from-scratch solve of the drifted instance within 1e-9, with at
//!   least [`server_bench::REPLAY_SEGMENTS`] completed re-solves, and
//!   `obs_ok` requires sampled lookup latencies and — release builds
//!   only — an armed/disarmed throughput ratio of at least
//!   [`MIN_OBS_THROUGHPUT_RATIO`] and the lookup floor;
//! * **10k sparse wall clock** — release builds only, the 10,000-node
//!   [`scale_scenario`] (which `scenarios/grid_10k.json` mirrors) solved
//!   through `solvers::by_name("approx")` with the sparse backend; `scale_ok`
//!   requires at most [`MAX_SCALE_WALL_SECONDS`]. Debug builds attach no
//!   scale run, so `scale_ok` stays false there.
//!
//! The deterministic gates live elsewhere, each run once on its pinned
//! input: the object-order, capacitated and sparse/dense checks in
//! [`crate::fuzz::check_instance`] and `dynamic_ok` in the root
//! package's `tests/gates.rs`, `chaos_ok` in `experiments chaos`, and
//! `timeline_ok` in `experiments timeline`.

use dmn_approx::FlSolverKind;
use dmn_json::Json;
use dmn_solve::{solvers, MetricBackend, SolveReport, SolveRequest};
use dmn_workloads::{DriftSpec, Scenario, TopologyKind, WorkloadParams};

use crate::server_bench;

/// Release-mode floor on the phase-1 speedup of the incremental local
/// search over the seed implementation (the measured ratio is ~10x; the
/// gate leaves headroom for noisy runners).
pub const MIN_PHASE1_SPEEDUP: f64 = 5.0;

/// Release-mode floor on sustained server lookups/second during the
/// drift-trace replay (measured well above 10M/s; the floor is the
/// "memory speed" acceptance bar with generous runner headroom).
pub const MIN_SERVER_LOOKUPS_PER_SEC: f64 = 1_000_000.0;

/// Release-mode ceiling on the server's worst re-solve latency over the
/// replay (a warm-started approx solve of the pinned scenario is well
/// under a second on CI runners).
pub const MAX_SERVER_RESOLVE_SECONDS: f64 = 5.0;

/// Release-mode floor on telemetry-enabled / telemetry-disabled lookup
/// throughput in the A/B replay: arming the registry may cost at most
/// 10% (the sampled-latency design keeps the measured ratio near 1.0;
/// the margin absorbs runner noise).
pub const MIN_OBS_THROUGHPUT_RATIO: f64 = 0.9;

/// Release-mode ceiling on the wall clock of the committed 10k-node
/// scenario solved with the sparse metric backend (`scale_ok`; the dense
/// path cannot even allocate its 800 MB closure in that budget).
pub const MAX_SCALE_WALL_SECONDS: f64 = 30.0;

/// The pinned scenario: a 15x15 grid (225 nodes), 32 objects, fixed seed —
/// big enough that phase 1 dominates and the incremental-vs-seed speedup
/// is meaningful. Changing it invalidates cross-run timing comparisons,
/// so bump deliberately (last bump: PR 3, 12x12/16 -> 15x15/32 for the
/// phase-1 fast-path gate).
pub fn smoke_scenario() -> Scenario {
    Scenario {
        name: "perf-smoke".into(),
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

/// The pinned 10,000-node scale scenario. The committed
/// `scenarios/grid_10k.json` mirrors this construction exactly (a unit
/// test pins the two together): a 100x100 unit grid with 32 objects whose
/// hotspot workloads (0.4% active nodes, locality decay) keep the
/// per-object candidate balls small enough for the sparse path to solve
/// the instance in seconds.
pub fn scale_scenario() -> Scenario {
    Scenario {
        name: "grid-10k-sparse".into(),
        topology: TopologyKind::Grid {
            rows: 100,
            cols: 100,
        },
        nodes: 10_000,
        storage_cost: 4.0,
        workload: WorkloadParams {
            num_objects: 32,
            base_mass: 400.0,
            write_fraction: 0.2,
            active_fraction: 0.004,
            locality: 0.6,
            ..Default::default()
        },
        seed: 10_000,
        capacities: None,
        stream: None,
        drift: None,
        faults: None,
        timeline: None,
    }
}

/// Outcome of the 10k-node sparse scale run (`BENCH_ci.json`'s `scale`
/// section).
#[derive(Debug, Clone)]
pub struct ScaleOutcome {
    /// Scenario name.
    pub name: String,
    /// Node count of the built network.
    pub nodes: usize,
    /// Object count.
    pub objects: usize,
    /// Wall clock of the full sparse solve.
    pub wall_seconds: f64,
    /// Seconds spent building the truncated per-object closures.
    pub metric_build_seconds: f64,
    /// Total cost of the sparse placement (exact, via per-copy
    /// Dijkstra evaluation — the dense closure is never built).
    pub total_cost: f64,
    /// Candidate-ball nodes summed over objects (`sparse-candidate-rows`):
    /// the rows a closure over each whole ball would hold.
    pub candidate_rows: f64,
    /// Closure rows actually built, summed over objects
    /// (`sparse-rows-built`).
    pub rows_built: f64,
    /// True when the wall clock is under [`MAX_SCALE_WALL_SECONDS`]
    /// (always true in debug builds, where timings mean nothing).
    pub within_budget: bool,
}

impl ScaleOutcome {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("nodes", Json::Num(self.nodes as f64)),
            ("objects", Json::Num(self.objects as f64)),
            ("wall_seconds", Json::Num(self.wall_seconds)),
            ("metric_build_seconds", Json::Num(self.metric_build_seconds)),
            ("total_cost", Json::Num(self.total_cost)),
            ("candidate_rows", Json::Num(self.candidate_rows)),
            ("rows_built", Json::Num(self.rows_built)),
            ("max_wall_seconds", Json::Num(MAX_SCALE_WALL_SECONDS)),
            ("within_budget", Json::Bool(self.within_budget)),
        ])
    }
}

/// Solves a scenario through the registry with the sparse metric backend
/// and measures the wall clock against [`MAX_SCALE_WALL_SECONDS`] (release
/// builds; debug timings are meaningless so the budget check is skipped).
pub fn run_scale(scenario: &Scenario) -> ScaleOutcome {
    let instance = scenario.build_instance();
    let req = SolveRequest::new().metric_backend(MetricBackend::Sparse);
    let report = solvers::by_name("approx")
        .expect("approx registered")
        .solve(&instance, &req);
    ScaleOutcome {
        name: scenario.name.clone(),
        nodes: instance.num_nodes(),
        objects: instance.num_objects(),
        wall_seconds: report.wall_seconds,
        metric_build_seconds: report.metric_build_seconds(),
        total_cost: report.cost.total(),
        candidate_rows: meta_count(&report, "sparse-candidate-rows"),
        rows_built: meta_count(&report, "sparse-rows-built"),
        within_budget: cfg!(debug_assertions) || report.wall_seconds <= MAX_SCALE_WALL_SECONDS,
    }
}

/// Outcome of one smoke run: the serialized artifact plus the checks.
pub struct SmokeOutcome {
    /// The `BENCH_ci.json` document.
    pub json: Json,
    /// True when the incremental local search places identically to the
    /// seed from-scratch implementation.
    pub fast_matches_seed: bool,
    /// True when the server replay's post-swap costs all equal the
    /// from-scratch solves (1e-9) and the run completed at least
    /// [`server_bench::REPLAY_SEGMENTS`] re-solves.
    pub server_ok: bool,
    /// The server drift-trace replay backing `server_ok` (the
    /// telemetry-enabled leg of the A/B comparison).
    pub server: server_bench::ReplayOutcome,
    /// True when the telemetry A/B replay sampled lookup latencies and —
    /// release builds only — the armed leg held
    /// [`MIN_OBS_THROUGHPUT_RATIO`] of the disarmed throughput and the
    /// [`MIN_SERVER_LOOKUPS_PER_SEC`] floor.
    pub obs_ok: bool,
    /// The telemetry overhead A/B comparison backing `obs_ok`.
    pub telemetry: server_bench::ObsComparison,
    /// Seed phase-1 seconds / incremental phase-1 seconds (single-threaded
    /// both sides, best of two runs per side).
    pub phase1_speedup: f64,
    /// The 10k-node sparse run, when one was attached ([`run`] attaches it
    /// in release builds; debug runs and the scaled-down unit tests skip
    /// the multi-second solve).
    pub scale: Option<ScaleOutcome>,
}

impl SmokeOutcome {
    /// Attaches a 10k-node scale run: records it under the artifact's
    /// `scale` key and its wall-clock verdict under `scale_ok`, which
    /// reads false until a run is attached.
    pub fn attach_scale(&mut self, scale: ScaleOutcome) {
        if let Json::Obj(top) = &mut self.json {
            top.insert("scale".into(), scale.to_json());
            top.insert("scale_ok".into(), Json::Bool(scale.within_budget));
        }
        self.scale = Some(scale);
    }
}

/// Wall-clock seconds of one named phase of a report (0 when absent).
fn phase_seconds(report: &SolveReport, name: &str) -> f64 {
    report
        .phases
        .iter()
        .find(|p| p.name == name)
        .map_or(0.0, |p| p.seconds)
}

/// A meta counter as a number (0 when absent or unparsable).
fn meta_count(report: &SolveReport, key: &str) -> f64 {
    report
        .meta_value(key)
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Runs the timed pairs on the pinned scenario, plus — in release builds,
/// where a multi-second solve is affordable and its timing meaningful —
/// the committed 10k-node sparse scale run.
pub fn run() -> SmokeOutcome {
    let mut outcome = run_with(&smoke_scenario());
    if !cfg!(debug_assertions) {
        outcome.attach_scale(run_scale(&scale_scenario()));
    }
    outcome
}

/// Runs the timed pairs on an arbitrary scenario (the unit tests use a
/// scaled-down instance through this same code path).
pub fn run_with(scenario: &Scenario) -> SmokeOutcome {
    let instance = scenario.build_instance();
    let approx = solvers::by_name("approx").expect("approx registered");

    // Both sides really are sequential (one thread), so the artifact's
    // timings stay comparable across runners with different core counts.
    // Each side runs twice and the speedup uses the per-side *minimum*
    // phase-1 time: a transient stall on a shared runner then inflates at
    // most one of the two samples instead of failing the job.
    let one_thread = SolveRequest::new().max_threads(Some(1));
    let sequential = approx.solve(&instance, &one_thread);
    let sequential2 = approx.solve(&instance, &one_thread);
    let seed_req = one_thread.clone().fl_solver(FlSolverKind::LocalSearchRef);
    let seed_ref = approx.solve(&instance, &seed_req);
    let seed_ref2 = approx.solve(&instance, &seed_req);
    let fast_matches_seed = sequential.placement == seed_ref.placement
        && sequential.placement == sequential2.placement
        && (sequential.cost.total() - seed_ref.cost.total()).abs() < 1e-9;
    let seed_p1 = phase_seconds(&seed_ref, "facility-location")
        .min(phase_seconds(&seed_ref2, "facility-location"));
    let fast_p1 = phase_seconds(&sequential, "facility-location")
        .min(phase_seconds(&sequential2, "facility-location"));
    let phase1_speedup = if fast_p1 > 0.0 {
        seed_p1 / fast_p1
    } else {
        0.0
    };

    // The server pair: replay the scenario's drift trace against the
    // placement daemon with telemetry disarmed, then armed; the armed leg
    // doubles as the `server` outcome so its checks run under real
    // observability.
    let telemetry_ab = server_bench::replay_ab(scenario, None);
    let server = telemetry_ab.enabled.clone();
    let server_ok =
        server.cost_matches_scratch && server.resolves >= server_bench::REPLAY_SEGMENTS as u64;
    let obs_ok = server.latency_samples > 0
        && server.lookup_p99 > 0.0
        && (cfg!(debug_assertions)
            || (telemetry_ab.overhead_ratio >= MIN_OBS_THROUGHPUT_RATIO
                && server.lookups_per_sec >= MIN_SERVER_LOOKUPS_PER_SEC));

    let json = Json::obj([
        (
            "scenario",
            Json::obj([
                ("name", Json::Str(scenario.name.clone())),
                ("nodes", Json::Num(instance.num_nodes() as f64)),
                ("objects", Json::Num(instance.num_objects() as f64)),
                ("seed", Json::Num(scenario.seed as f64)),
            ]),
        ),
        (
            "solvers",
            Json::arr([sequential.to_json(), seed_ref.to_json()]),
        ),
        (
            "fl",
            Json::obj([
                ("seed_phase1_seconds", Json::Num(seed_p1)),
                ("fast_phase1_seconds", Json::Num(fast_p1)),
                ("phase1_speedup", Json::Num(phase1_speedup)),
                ("fast_moves", Json::Num(meta_count(&sequential, "fl-moves"))),
                (
                    "fast_candidates",
                    Json::Num(meta_count(&sequential, "fl-candidates")),
                ),
            ]),
        ),
        ("server", server.to_json()),
        ("telemetry", telemetry_ab.to_json()),
        // Filled by `attach_scale` (release builds of `run`).
        ("scale", Json::Null),
        ("fast_matches_seed", Json::Bool(fast_matches_seed)),
        ("server_ok", Json::Bool(server_ok)),
        ("obs_ok", Json::Bool(obs_ok)),
        ("phase1_speedup", Json::Num(phase1_speedup)),
        ("scale_ok", Json::Bool(false)),
    ]);
    SmokeOutcome {
        json,
        fast_matches_seed,
        server_ok,
        server,
        obs_ok,
        telemetry: telemetry_ab,
        phase1_speedup,
        scale: None,
    }
}

/// Runs the timed pairs, writes the artifact to `path`, and returns the
/// outcome.
pub fn run_to_file(path: &str) -> std::io::Result<SmokeOutcome> {
    let outcome = run();
    std::fs::write(path, outcome.json.to_string_pretty())?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down scenario so the debug-mode test stays fast while
    /// driving the exact release code path.
    fn tiny_scenario() -> Scenario {
        Scenario {
            workload: WorkloadParams {
                num_objects: 6,
                base_mass: 120.0,
                write_fraction: 0.2,
                ..Default::default()
            },
            topology: TopologyKind::Grid { rows: 7, cols: 7 },
            nodes: 49,
            // A scaled-down replay so the debug-mode server check stays
            // fast while still crossing the drift threshold repeatedly.
            drift: Some(DriftSpec {
                lookups: 30_000,
                drift_events: 12,
                ..DriftSpec::default()
            }),
            ..smoke_scenario()
        }
    }

    #[test]
    fn timed_pairs_pass_their_checks_and_fill_the_artifact() {
        // Hold the fault gate through the run: a concurrently armed chaos
        // plan must not inject into these solves and replays.
        let gate = dmn_core::faults::exclusive();
        let mut outcome = run_with(&tiny_scenario());
        drop(gate);
        assert!(
            outcome.fast_matches_seed,
            "incremental local search deviated from the seed implementation"
        );
        assert!(
            outcome.server_ok,
            "server replay failed: {:?}",
            outcome.server
        );
        assert!(
            outcome.obs_ok,
            "telemetry A/B failed: {:?}",
            outcome.telemetry
        );
        assert_eq!(
            outcome.telemetry.disabled.latency_samples, 0,
            "the disarmed leg must not record"
        );
        assert!(outcome.scale.is_none(), "run_with never runs the 10k solve");
        assert_eq!(
            outcome.json.get("scale_ok"),
            Some(&Json::Bool(false)),
            "false until a scale run is attached"
        );

        // A synthetic scale run: only an in-budget one sets `scale_ok`.
        let scale = |within_budget| ScaleOutcome {
            name: "synthetic".into(),
            nodes: 10_000,
            objects: 32,
            wall_seconds: 1.0,
            metric_build_seconds: 0.5,
            total_cost: 1.0,
            candidate_rows: 100.0,
            rows_built: 40.0,
            within_budget,
        };
        outcome.attach_scale(scale(false));
        assert_eq!(
            outcome.json.get("scale_ok"),
            Some(&Json::Bool(false)),
            "an over-budget scale run fails"
        );
        outcome.attach_scale(scale(true));
        assert_eq!(outcome.json.get("scale_ok"), Some(&Json::Bool(true)));

        let rendered = outcome.json.to_string_pretty();
        for needle in [
            "\"solvers\"",
            "\"local-search\"",
            "\"local-search-ref\"",
            "\"phases\"",
            "\"total_cost\"",
            "\"fl\"",
            "\"seed_phase1_seconds\"",
            "\"fast_phase1_seconds\"",
            "\"phase1_speedup\"",
            "\"fast_moves\"",
            "\"fast_candidates\"",
            "\"fast_matches_seed\"",
            "\"server\"",
            "\"server_ok\"",
            "\"lookups_per_sec\"",
            "\"cost_matches_scratch\"",
            "\"max_resolve_seconds\"",
            "\"telemetry\"",
            "\"obs_ok\"",
            "\"overhead_ratio\"",
            "\"enabled_lookups_per_sec\"",
            "\"disabled_lookups_per_sec\"",
            "\"lookup_p50\"",
            "\"lookup_p99\"",
            "\"latency_samples\"",
            "\"scale\"",
            "\"scale_ok\"",
            "\"wall_seconds\"",
            "\"metric_build_seconds\"",
            "\"candidate_rows\"",
            "\"rows_built\"",
            "\"max_wall_seconds\"",
        ] {
            assert!(rendered.contains(needle), "missing {needle} in {rendered}");
        }
        // The deterministic gates run elsewhere, once each.
        for gone in [
            "costs_match",
            "capacitated_ok",
            "dynamic_ok",
            "timeline_ok",
            "chaos_ok",
        ] {
            assert!(!rendered.contains(gone), "{gone} is not perf-smoke's");
        }
        // Round-trips through the parser (CI consumers can load it).
        let parsed = dmn_json::parse(&rendered).expect("valid JSON");
        assert!(matches!(parsed, Json::Obj(_)));
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

    /// The committed `scenarios/grid_10k.json` and the in-code
    /// [`scale_scenario`] must stay the same scenario (the gate solves the
    /// code-pinned one; the committed file is the user-facing artifact).
    #[test]
    fn committed_scale_scenario_matches_the_pinned_one() {
        let pinned = scale_scenario();
        assert!(pinned.nodes >= 10_000, "scale must stay >= 10k nodes");
        assert_eq!(pinned.build_graph().num_nodes(), 10_000);

        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/grid_10k.json");
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let committed = Scenario::from_json(&dmn_json::parse(&text).expect("valid JSON"))
            .expect("parses as a scenario");
        assert_eq!(
            committed.to_json().to_string_pretty(),
            pinned.to_json().to_string_pretty(),
            "scenarios/grid_10k.json drifted from perf_smoke::scale_scenario()"
        );
    }
}
