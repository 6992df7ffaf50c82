//! The CI perf-smoke check: one pinned scenario through the sequential,
//! sharded, seed-reference, and warm-started engines, emitted as a
//! machine-readable `BENCH_ci.json` artifact.
//!
//! CI runs this in release mode on every push. The JSON carries per-phase
//! timings, the full cost breakdown, and the phase-1 local-search counters
//! (moves accepted / candidates priced) for every engine so timing trends
//! are diffable across runs. Three boolean verdicts gate the job:
//!
//! * `costs_match` — the sharded placement and cost must equal the
//!   sequential reference (a mismatch means the shard merge changed the
//!   answer);
//! * `fast_matches_seed` — the incremental phase-1 local search must
//!   produce the *identical* placement to the seed from-scratch
//!   implementation (`FlSolverKind::LocalSearchRef`) on the smoke corpus;
//! * `capacitated_ok` — under the pinned per-node copy capacities the
//!   native `capacitated` engine must stay feasible and cost no more than
//!   the greedy repair of the sequential reference (its margin is
//!   recorded in the artifact's `capacitated` section);
//! * `shards_balanced` — the sharded run (cost-weighted LPT partition)
//!   must keep the max/min shard-cost ratio under
//!   [`MAX_SHARD_COST_SKEW`] (round-robin skewed shard 0 to ~1.8x
//!   shard 3 on this scenario);
//! * `server_ok` — the placement server must survive the drift-trace
//!   replay (`server` section): every post-swap snapshot cost equals a
//!   from-scratch solve of the drifted instance within 1e-9, with at
//!   least [`server_bench::REPLAY_SEGMENTS`] completed re-solves.
//!
//! * `obs_ok` — the telemetry A/B replay (`telemetry` section) must
//!   actually sample lookup latencies into the registry histogram, and —
//!   release builds only — the telemetry-enabled replay must sustain at
//!   least [`MIN_OBS_THROUGHPUT_RATIO`] of the disarmed replay's lookup
//!   throughput and the [`MIN_SERVER_LOOKUPS_PER_SEC`] floor (the
//!   "observability is near-free" acceptance bar);
//!
//! * `timeline_ok` — the warm-start chain over the pinned time-sliced
//!   scenario ([`crate::timeline::pinned_scenario`]) must never cost more
//!   than the cold per-slot re-solve on any slot (beyond
//!   [`crate::timeline::WARM_TOLERANCE`]); the artifact's `timeline`
//!   section carries the cost-over-time and copies-moved-per-slot series
//!   for both chains and the dynamic zoo;
//!
//! * `scale_ok` — the sparse metric backend must stay within
//!   [`MAX_SPARSE_COST_RATIO`] of the dense solve on the truncating
//!   control scenario (a hotspot variant of the smoke grid where the
//!   candidate balls genuinely truncate), and — release builds only — the
//!   committed 10,000-node `scenarios/grid_10k.json` must solve through
//!   `solvers::by_name("approx")` with the sparse backend in at most
//!   [`MAX_SCALE_WALL_SECONDS`] (the artifact's `scale` section). Debug
//!   builds attach no scale run, so `scale_ok` stays false there.
//!
//! The measured `phase1_speedup` (seed phase-1 seconds / incremental
//! phase-1 seconds, both single-threaded) is recorded in the artifact; the
//! release binary additionally fails below [`MIN_PHASE1_SPEEDUP`], below
//! [`MIN_SERVER_LOOKUPS_PER_SEC`] sustained server lookups, or above
//! [`MAX_SERVER_RESOLVE_SECONDS`] of re-solve latency.

use dmn_approx::FlSolverKind;
use dmn_dynamic::bridge::{compete_standard, StaticOracle};
use dmn_dynamic::report::CompetitiveReport;
use dmn_dynamic::stream::{sample_stream, StreamConfig};
use dmn_json::Json;
use dmn_solve::{solvers, MetricBackend, PartitionStrategy, SolveReport, SolveRequest};
use dmn_workloads::{DriftSpec, Scenario, TopologyKind, WorkloadParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{chaos_replay, server_bench, timeline};

/// Shard count pinned for the smoke run (small enough for 2-core CI
/// runners, big enough to exercise a real fan-out and merge).
pub const SMOKE_SHARDS: usize = 4;

/// Uniform per-node copy capacity of the capacitated smoke run: tight
/// enough that the unconstrained placement needs real repair work, loose
/// enough to stay trivially feasible (nodes >= objects on the pinned
/// scenario).
pub const SMOKE_CAP_PER_NODE: usize = 1;

/// Release-mode floor on the phase-1 speedup of the incremental local
/// search over the seed implementation (the measured ratio is ~10x; the
/// gate leaves headroom for noisy runners).
pub const MIN_PHASE1_SPEEDUP: f64 = 5.0;

/// Stationary-stream length of the dynamic gate (`dynamic_ok`): long
/// enough that empirical frequencies are informative, short enough that
/// the simulation stays a small fraction of the smoke wall time.
pub const SMOKE_STREAM_LEN: usize = 4_000;

/// Tolerance of the `dynamic_ok` gate: on a stationary stream every online
/// strategy must cost at least the informed static oracle, up to fp slack.
pub const DYNAMIC_RATIO_FLOOR: f64 = 1.0 - 1e-9;

/// Ceiling on the sharded run's max/min shard-cost ratio. The
/// cost-weighted LPT partition lands at ~1.10 on the pinned scenario
/// (round-robin was ~1.76); the gate leaves room for workload bumps.
pub const MAX_SHARD_COST_SKEW: f64 = 1.35;

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

/// Ceiling on the sparse/dense total-cost ratio on the truncating control
/// scenario (the `scale_ok` quality half): truncated candidate balls may
/// miss facilities the dense path would open, so the gate bounds the
/// resulting cost slack instead of demanding bit-equality.
pub const MAX_SPARSE_COST_RATIO: f64 = 1.05;

/// Release-mode ceiling on the wall clock of the committed 10k-node
/// scenario solved with the sparse metric backend (the `scale_ok` speed
/// half; the dense path cannot even allocate its 800 MB closure in that
/// budget).
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

/// The truncating control variant of a scenario: same topology, storage
/// costs, and seed, but a hotspot workload (15% active nodes, locality
/// decay) so the sparse path's candidate balls genuinely truncate and the
/// sparse-vs-dense cost ratio measures something (with the smoke
/// scenario's full-coverage workload the two paths are bit-identical).
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

/// Outcome of the 10k-node sparse scale run (`BENCH_ci.json`'s
/// `scale.run` section).
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
    /// Truncated closure rows built across all objects.
    pub candidate_rows: f64,
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
        within_budget: cfg!(debug_assertions) || report.wall_seconds <= MAX_SCALE_WALL_SECONDS,
    }
}

/// Outcome of one smoke run: the serialized artifact plus the verdicts.
pub struct SmokeOutcome {
    /// The `BENCH_ci.json` document.
    pub json: Json,
    /// True when the sharded placement and cost equal the sequential ones.
    pub costs_match: bool,
    /// True when the incremental local search places identically to the
    /// seed from-scratch implementation.
    pub fast_matches_seed: bool,
    /// True when the native capacitated engine is feasible under the
    /// pinned per-node capacities and costs no more than the greedy
    /// repair of the sequential reference.
    pub capacitated_ok: bool,
    /// True when every online strategy's empirical competitive ratio
    /// against the `approx` oracle on the stationary smoke stream is at
    /// least [`DYNAMIC_RATIO_FLOOR`] (the informed static placement must
    /// win on stationary streams).
    pub dynamic_ok: bool,
    /// The stationary-stream competition backing `dynamic_ok`.
    pub dynamic: CompetitiveReport,
    /// True when the sharded run's max/min shard-cost ratio stays under
    /// [`MAX_SHARD_COST_SKEW`] (the cost-weighted partition gate).
    pub shards_balanced: bool,
    /// The measured max/min shard-cost ratio of the sharded run.
    pub shard_cost_skew: f64,
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
    /// Sparse-backend / dense-backend total-cost ratio on the truncating
    /// control scenario.
    pub sparse_cost_ratio: f64,
    /// True when `sparse_cost_ratio` stays under
    /// [`MAX_SPARSE_COST_RATIO`] (the quality half of `scale_ok`).
    pub sparse_within_eps: bool,
    /// The timeline run backing `timeline_ok` (the pinned time-sliced
    /// scenario through the warm/cold chains and the dynamic zoo).
    pub timeline: timeline::TimelineReport,
    /// True when the warm-start chain never cost more than the cold
    /// per-slot re-solve on any slot of the pinned timeline scenario
    /// (beyond [`timeline::WARM_TOLERANCE`]).
    pub timeline_ok: bool,
    /// The 10k-node sparse run, when one was attached ([`run`] attaches it
    /// in release builds; debug runs and the scaled-down unit tests skip
    /// the multi-second solve).
    pub scale: Option<ScaleOutcome>,
    /// False until a scale run is attached; then `sparse_within_eps` and
    /// the run's wall clock staying under [`MAX_SCALE_WALL_SECONDS`].
    pub scale_ok: bool,
    /// The chaos replay, when one was attached ([`run`] always attaches
    /// one; the scaled-down unit tests attach their own or skip it).
    pub chaos: Option<chaos_replay::ChaosOutcome>,
    /// True when the attached chaos replay passed its gate — every fault
    /// class fired and was absorbed ([`chaos_replay::ChaosOutcome::gate`]).
    /// False until a chaos run is attached.
    pub chaos_ok: bool,
}

impl SmokeOutcome {
    /// The placement-correctness gate (timing-independent).
    pub fn gate(&self) -> bool {
        self.costs_match
            && self.fast_matches_seed
            && self.capacitated_ok
            && self.dynamic_ok
            && self.shards_balanced
            && self.server_ok
            && self.obs_ok
            && self.sparse_within_eps
            && self.timeline_ok
            && self.chaos_ok
    }

    /// Attaches a 10k-node scale run: records it under the artifact's
    /// `scale.run` key and folds its wall-clock verdict into `scale_ok`.
    pub fn attach_scale(&mut self, scale: ScaleOutcome) {
        self.scale_ok = self.sparse_within_eps && scale.within_budget;
        if let Json::Obj(top) = &mut self.json {
            if let Some(Json::Obj(section)) = top.get_mut("scale") {
                section.insert("run".into(), scale.to_json());
            }
            top.insert("scale_ok".into(), Json::Bool(self.scale_ok));
        }
        self.scale = Some(scale);
    }

    /// Attaches a chaos replay: records it under the artifact's `chaos`
    /// key and folds its verdict into `chaos_ok`.
    pub fn attach_chaos(&mut self, chaos: chaos_replay::ChaosOutcome) {
        self.chaos_ok = chaos.gate();
        if let Json::Obj(top) = &mut self.json {
            top.insert("chaos".into(), chaos.to_json());
            top.insert("chaos_ok".into(), Json::Bool(self.chaos_ok));
        }
        self.chaos = Some(chaos);
    }
}

/// Races the dynamic strategy zoo against the `approx` oracle on a
/// stationary stream sampled from the scenario's workloads (the standard
/// racing convention of `dmn_dynamic::bridge::compete_standard`).
fn run_dynamic(instance: &dmn_core::instance::Instance, seed: u64) -> CompetitiveReport {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0D1A_0CC5);
    let stream = sample_stream(
        &instance.objects,
        &StreamConfig {
            length: SMOKE_STREAM_LEN,
            ..Default::default()
        },
        &mut rng,
    );
    compete_standard(instance, &stream, &StaticOracle::approx(), stream.len())
        .expect("approx oracle runs on any network")
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

/// Runs the smoke comparison on the pinned scenario, plus — in release
/// builds, where a multi-second solve is affordable and its timing
/// meaningful — the committed 10k-node sparse scale run.
pub fn run() -> SmokeOutcome {
    let mut outcome = run_with(&smoke_scenario(), SMOKE_SHARDS);
    // The chaos replay runs in every build (its faults are wall-clock
    // bounded, not throughput bound); debug builds shrink the
    // post-recovery trace so the gate stays fast.
    let chaos_lookups = cfg!(debug_assertions).then_some(20_000);
    outcome.attach_chaos(chaos_replay::chaos_replay(&smoke_scenario(), chaos_lookups));
    if !cfg!(debug_assertions) {
        outcome.attach_scale(run_scale(&scale_scenario()));
    }
    outcome
}

/// Runs the smoke comparison on an arbitrary scenario (the unit tests use
/// a scaled-down instance through this same code path).
pub fn run_with(scenario: &Scenario, shards: usize) -> SmokeOutcome {
    let instance = scenario.build_instance();
    let approx = solvers::by_name("approx").expect("approx registered");

    // The references really are sequential (one thread), so the artifact's
    // timings stay comparable across runners with different core counts.
    // Each timed path runs twice and the speedup gate uses the per-path
    // *minimum* phase-1 time: a transient stall on a shared runner then
    // inflates at most one of the two samples instead of failing the job.
    let one_thread = SolveRequest::new().max_threads(Some(1));
    let sequential = approx.solve(&instance, &one_thread);
    let sequential2 = approx.solve(&instance, &one_thread);
    let seed_req = one_thread.clone().fl_solver(FlSolverKind::LocalSearchRef);
    let seed_ref = approx.solve(&instance, &seed_req);
    let seed_ref2 = approx.solve(&instance, &seed_req);
    let warm_req = one_thread.clone().fl_solver(FlSolverKind::LocalSearchWarm);
    let warm = approx.solve(&instance, &warm_req);
    // Cost-weighted (LPT) partition: round-robin left shard 0 at ~1.8x
    // shard 3's cost on this scenario; sorting objects descending by
    // request mass before the greedy bin assignment balances the shards
    // without changing the merged placement.
    let sharded_req = SolveRequest::new()
        .shards(shards)
        .partition(PartitionStrategy::CostWeighted);
    let sharded = solvers::by_name("sharded-approx")
        .expect("sharded-approx registered")
        .solve(&instance, &sharded_req);
    let shard_cost_skew = sharded.shard_cost_skew();
    let shards_balanced = shard_cost_skew <= MAX_SHARD_COST_SKEW;

    // The capacitated gate: the native engine must stay feasible and
    // never exceed the greedy-repair baseline on the same request.
    let cap = vec![SMOKE_CAP_PER_NODE; instance.num_nodes()];
    let cap_req = SolveRequest::new().capacities(cap.clone());
    let repaired = approx.solve(&instance, &cap_req);
    let capacitated = solvers::by_name("capacitated")
        .expect("capacitated registered")
        .solve(&instance, &cap_req);
    let cap_stats = capacitated.capacity.expect("capacity stats reported");
    let cap_feasible = dmn_approx::respects_capacities(&capacitated.placement, &cap)
        && dmn_approx::respects_capacities(&repaired.placement, &cap);
    let capacitated_ok = cap_feasible
        && capacitated.cost.total() <= repaired.cost.total() + 1e-6 * repaired.cost.total();

    // The sparse-metric quality gate: on the truncating control variant
    // (hotspot workload, so the candidate balls really truncate) the
    // sparse backend's total cost must stay within MAX_SPARSE_COST_RATIO
    // of the dense solve.
    let control = control_of(scenario);
    let control_instance = control.build_instance();
    let control_dense = approx.solve(&control_instance, &one_thread);
    let control_sparse = approx.solve(
        &control_instance,
        &one_thread.clone().metric_backend(MetricBackend::Sparse),
    );
    let sparse_cost_ratio = control_sparse.cost.total() / control_dense.cost.total();
    let sparse_within_eps = sparse_cost_ratio <= MAX_SPARSE_COST_RATIO;

    // The timeline gate: over the pinned time-sliced scenario the
    // warm-start chain must never lose to the cold per-slot re-solve on
    // any slot (the best-of fold makes that hold by construction; the
    // recorded `warm_fallbacks` counter keeps the claim honest).
    let timeline_report =
        timeline::run_timeline(&timeline::pinned_scenario(), "approx", &SolveRequest::new())
            .expect("pinned timeline scenario runs");
    let timeline_ok = timeline_report.timeline_ok();

    // The dynamic gate: on a stationary stream the informed static oracle
    // must win against every online strategy.
    let dynamic = run_dynamic(&instance, scenario.seed);
    let dynamic_ok = dynamic.runs.iter().all(|r| r.ratio >= DYNAMIC_RATIO_FLOOR);

    // The server gate: replay the scenario's drift trace against the
    // placement daemon; every post-swap snapshot must cost exactly what
    // a from-scratch solve of the drifted instance costs. The replay
    // runs A/B (telemetry disarmed, then armed); the armed leg doubles
    // as the `server` outcome so its gates run under real observability.
    let telemetry_ab = server_bench::replay_ab(scenario, None);
    let server = telemetry_ab.enabled.clone();
    let server_ok =
        server.cost_matches_scratch && server.resolves >= server_bench::REPLAY_SEGMENTS as u64;
    let obs_ok = server.latency_samples > 0
        && server.lookup_p99 > 0.0
        && (cfg!(debug_assertions)
            || (telemetry_ab.overhead_ratio >= MIN_OBS_THROUGHPUT_RATIO
                && server.lookups_per_sec >= MIN_SERVER_LOOKUPS_PER_SEC));

    let costs_match = sharded.placement == sequential.placement
        && (sharded.cost.total() - sequential.cost.total()).abs() < 1e-9;
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

    let json = Json::obj([
        (
            "scenario",
            Json::obj([
                ("name", Json::Str(scenario.name.clone())),
                ("nodes", Json::Num(instance.num_nodes() as f64)),
                ("objects", Json::Num(instance.num_objects() as f64)),
                ("seed", Json::Num(scenario.seed as f64)),
                ("shards", Json::Num(shards as f64)),
            ]),
        ),
        (
            "solvers",
            Json::arr([
                sequential.to_json(),
                sharded.to_json(),
                seed_ref.to_json(),
                warm.to_json(),
            ]),
        ),
        (
            "fl",
            Json::obj([
                ("seed_phase1_seconds", Json::Num(seed_p1)),
                ("fast_phase1_seconds", Json::Num(fast_p1)),
                ("phase1_speedup", Json::Num(phase1_speedup)),
                (
                    "warm_phase1_seconds",
                    Json::Num(phase_seconds(&warm, "facility-location")),
                ),
                ("fast_moves", Json::Num(meta_count(&sequential, "fl-moves"))),
                (
                    "fast_candidates",
                    Json::Num(meta_count(&sequential, "fl-candidates")),
                ),
                ("warm_moves", Json::Num(meta_count(&warm, "fl-moves"))),
                (
                    "warm_candidates",
                    Json::Num(meta_count(&warm, "fl-candidates")),
                ),
                ("warm_total_cost", Json::Num(warm.cost.total())),
            ]),
        ),
        (
            "capacitated",
            Json::obj([
                ("cap_per_node", Json::Num(SMOKE_CAP_PER_NODE as f64)),
                ("repair_cost", Json::Num(repaired.cost.total())),
                ("capacitated_cost", Json::Num(capacitated.cost.total())),
                (
                    "flow_seed_cost",
                    match cap_stats.flow_seed_cost {
                        Some(c) => Json::Num(c),
                        None => Json::Null,
                    },
                ),
                ("margin_vs_repair", Json::Num(cap_stats.margin_vs_repair)),
                ("moves", Json::Num(cap_stats.moves as f64)),
                ("rounds", Json::Num(cap_stats.rounds as f64)),
                ("feasible", Json::Bool(cap_feasible)),
                ("wall_seconds", Json::Num(capacitated.wall_seconds)),
            ]),
        ),
        ("dynamic", dynamic.to_json()),
        ("timeline", timeline_report.to_json()),
        ("server", server.to_json()),
        ("telemetry", telemetry_ab.to_json()),
        (
            "scale",
            Json::obj([
                ("control_scenario", Json::Str(control.name.clone())),
                ("dense_cost", Json::Num(control_dense.cost.total())),
                ("sparse_cost", Json::Num(control_sparse.cost.total())),
                ("sparse_cost_ratio", Json::Num(sparse_cost_ratio)),
                ("max_cost_ratio", Json::Num(MAX_SPARSE_COST_RATIO)),
                ("sparse_within_eps", Json::Bool(sparse_within_eps)),
                (
                    "sparse_metric_build_seconds",
                    Json::Num(control_sparse.metric_build_seconds()),
                ),
                (
                    "dense_metric_build_seconds",
                    Json::Num(control_dense.metric_build_seconds()),
                ),
                // `run` is filled by `attach_scale` (release builds).
                ("run", Json::Null),
            ]),
        ),
        ("costs_match", Json::Bool(costs_match)),
        ("fast_matches_seed", Json::Bool(fast_matches_seed)),
        ("capacitated_ok", Json::Bool(capacitated_ok)),
        ("dynamic_ok", Json::Bool(dynamic_ok)),
        ("shards_balanced", Json::Bool(shards_balanced)),
        ("shard_cost_skew", Json::Num(shard_cost_skew)),
        ("server_ok", Json::Bool(server_ok)),
        ("obs_ok", Json::Bool(obs_ok)),
        ("timeline_ok", Json::Bool(timeline_ok)),
        ("phase1_speedup", Json::Num(phase1_speedup)),
        // Set by `attach_scale` (release builds of `run`).
        ("scale_ok", Json::Bool(false)),
        // Both are filled by `attach_chaos` (`run` always attaches).
        ("chaos", Json::Null),
        ("chaos_ok", Json::Bool(false)),
    ]);
    SmokeOutcome {
        json,
        costs_match,
        fast_matches_seed,
        capacitated_ok,
        dynamic_ok,
        dynamic,
        shards_balanced,
        shard_cost_skew,
        server_ok,
        server,
        obs_ok,
        telemetry: telemetry_ab,
        phase1_speedup,
        sparse_cost_ratio,
        sparse_within_eps,
        timeline: timeline_report,
        timeline_ok,
        scale: None,
        scale_ok: false,
        chaos: None,
        chaos_ok: false,
    }
}

/// Runs the smoke comparison, writes the artifact to `path`, and returns
/// the outcome.
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
            // A scaled-down replay so the debug-mode server gate stays
            // fast while still crossing the drift threshold repeatedly.
            drift: Some(DriftSpec {
                lookups: 30_000,
                drift_events: 12,
                ..DriftSpec::default()
            }),
            ..smoke_scenario()
        }
    }

    /// The chaos-mini scenario for the attach test (the chaos replay's
    /// own unit tests drive the fault schedule in depth; this one checks
    /// the artifact fold-in).
    fn chaos_scenario() -> Scenario {
        Scenario {
            name: "chaos-attach".into(),
            topology: TopologyKind::Ring,
            nodes: 16,
            workload: WorkloadParams {
                num_objects: 4,
                base_mass: 60.0,
                ..Default::default()
            },
            drift: Some(DriftSpec {
                lookups: 4_000,
                drift_events: 8,
                drift_mass: 3.0,
                resolve_threshold: 0.02,
            }),
            ..smoke_scenario()
        }
    }

    #[test]
    fn smoke_gates_hold_and_artifact_is_complete() {
        // Hold the fault gate through the solves: a concurrently armed
        // chaos plan must not inject into this run. Released before the
        // chaos attach below (which takes the gate itself).
        let gate = dmn_core::faults::exclusive();
        let mut outcome = run_with(&tiny_scenario(), 3);
        drop(gate);
        assert!(outcome.costs_match, "sharded deviated from sequential");
        assert!(
            outcome.fast_matches_seed,
            "incremental local search deviated from the seed implementation"
        );
        assert!(
            outcome.capacitated_ok,
            "capacitated engine infeasible or worse than the greedy repair"
        );
        assert!(
            outcome.dynamic_ok,
            "an online strategy beat the informed static oracle on a stationary stream:\n{}",
            outcome.dynamic
        );
        assert_eq!(outcome.dynamic.runs.len(), 5, "full zoo raced");
        assert!(
            outcome.shards_balanced,
            "cost-weighted shards skewed to {:.3}",
            outcome.shard_cost_skew
        );
        assert!(
            outcome.server_ok,
            "server replay failed: {:?}",
            outcome.server
        );
        assert!(
            outcome.server.cost_matches_scratch,
            "swap costs deviated from from-scratch solves: {:?}",
            outcome.server.swap_checks
        );
        assert!(
            outcome.obs_ok,
            "telemetry A/B failed: {:?}",
            outcome.telemetry
        );
        assert!(
            outcome.server.latency_samples > 0 && outcome.server.lookup_p99 > 0.0,
            "the armed replay leg records latency quantiles: {:?}",
            outcome.server
        );
        assert_eq!(
            outcome.telemetry.disabled.latency_samples, 0,
            "the disarmed leg must not record"
        );
        assert!(
            outcome.sparse_within_eps,
            "sparse backend cost ratio {:.4} breaches the {:.2} ceiling",
            outcome.sparse_cost_ratio, MAX_SPARSE_COST_RATIO
        );
        assert!(
            outcome.timeline_ok,
            "warm chain lost to cold on a slot: {:?}",
            outcome
                .timeline
                .slots
                .iter()
                .map(|s| (s.slot, s.cold_cost, s.warm_cost))
                .collect::<Vec<_>>()
        );
        assert!(
            !outcome.timeline.slots.is_empty(),
            "timeline gate solved at least one slot"
        );
        assert!(!outcome.scale_ok, "false until a scale run is attached");
        assert!(outcome.scale.is_none(), "run_with never runs the 10k solve");
        assert!(
            outcome.chaos.is_none(),
            "run_with never runs the chaos replay"
        );
        assert!(!outcome.chaos_ok, "false until a chaos run is attached");
        assert!(!outcome.gate(), "the gate waits for the chaos replay");

        // Fold in a scaled-down chaos replay: the verdict and the full
        // fault ledger land in the artifact.
        outcome.attach_chaos(chaos_replay::chaos_replay(&chaos_scenario(), Some(4_000)));
        assert!(outcome.chaos_ok, "chaos replay failed: {:?}", outcome.chaos);
        assert!(outcome.gate());

        // A synthetic scale run: only an in-budget one sets `scale_ok`.
        let scale = |within_budget| ScaleOutcome {
            name: "synthetic".into(),
            nodes: 10_000,
            objects: 32,
            wall_seconds: 1.0,
            metric_build_seconds: 0.5,
            total_cost: 1.0,
            candidate_rows: 100.0,
            within_budget,
        };
        outcome.attach_scale(scale(false));
        assert!(!outcome.scale_ok, "an over-budget scale run fails");
        assert_eq!(outcome.json.get("scale_ok"), Some(&Json::Bool(false)));
        outcome.attach_scale(scale(true));
        assert!(outcome.scale_ok);
        assert_eq!(outcome.json.get("scale_ok"), Some(&Json::Bool(true)));
        let rendered = outcome.json.to_string_pretty();
        for needle in [
            "\"dynamic\"",
            "\"dynamic_ok\"",
            "\"oracle_engine\"",
            "\"rent-to-buy\"",
            "\"counting+migrate\"",
            "\"migration\"",
            "\"phase_ratios\"",
            "\"capacitated\"",
            "\"capacitated_ok\"",
            "\"repair_cost\"",
            "\"margin_vs_repair\"",
            "\"solvers\"",
            "\"approx\"",
            "\"sharded-approx\"",
            "\"phases\"",
            "\"total_cost\"",
            "\"costs_match\"",
            "\"fast_matches_seed\"",
            "\"phase1_speedup\"",
            "\"fl\"",
            "\"fl_moves\"",
            "\"fl_candidates\"",
            "\"local-search-ref\"",
            "\"local-search-warm\"",
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
            "\"sampling_interval\"",
            "\"shards_balanced\"",
            "\"shard_cost_skew\"",
            "\"timeline\"",
            "\"timeline_ok\"",
            "\"cold_costs\"",
            "\"warm_costs\"",
            "\"warm_raw_costs\"",
            "\"cold_moved\"",
            "\"warm_moved\"",
            "\"warm_fallbacks\"",
            "\"cost_multipliers\"",
            "\"demand_multipliers\"",
            "\"copies_moved\"",
            "\"scale\"",
            "\"scale_ok\"",
            "\"sparse_cost_ratio\"",
            "\"sparse_within_eps\"",
            "\"metric_build_seconds\"",
            "\"metric_backend\"",
            "\"chaos\"",
            "\"chaos_ok\"",
            "\"solver_panics\"",
            "\"watchdog_timeouts\"",
            "\"shed_deltas\"",
            "\"malformed_rejected\"",
            "\"recovery_seconds\"",
            "\"inconsistent_lookups\"",
        ] {
            assert!(rendered.contains(needle), "missing {needle} in {rendered}");
        }
        // Round-trips through the parser (CI consumers can load it).
        let parsed = dmn_json::parse(&rendered).expect("valid JSON");
        assert!(matches!(parsed, Json::Obj(_)));
    }

    /// Satellite pin of the shard-rebalance fix on the *full* smoke
    /// scenario: partitioning needs no solve, so this runs the real 225
    /// node / 32 object split. Round-robin is the skew the fix removed;
    /// LPT must stay near-balanced by request mass (the quantity the
    /// per-shard cost tracks).
    #[test]
    fn cost_weighted_partition_rebalances_the_smoke_shards() {
        let instance = smoke_scenario().build_instance();
        let mass_skew = |strategy: PartitionStrategy| -> f64 {
            let parts = dmn_solve::sharded::partition_objects(&instance, SMOKE_SHARDS, strategy);
            let masses: Vec<f64> = parts
                .iter()
                .map(|p| {
                    p.iter()
                        .map(|&x| instance.objects[x].total_requests())
                        .sum()
                })
                .collect();
            let max = masses.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let min = masses.iter().copied().fold(f64::INFINITY, f64::min);
            max / min
        };
        let round_robin = mass_skew(PartitionStrategy::RoundRobin);
        let lpt = mass_skew(PartitionStrategy::CostWeighted);
        assert!(
            round_robin > 1.5,
            "round-robin no longer skews ({round_robin:.3}); revisit the gate"
        );
        assert!(
            lpt < 1.1,
            "LPT partition skewed to {lpt:.3} (round-robin: {round_robin:.3})"
        );
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

    /// The truncating control really truncates: the sparse run must build
    /// candidate sets smaller than the network (otherwise the ratio gate
    /// compares bit-identical runs and certifies nothing).
    #[test]
    fn control_scenario_truncates_the_candidate_balls() {
        let control = control_of(&tiny_scenario());
        let instance = control.build_instance();
        let report = solvers::by_name("approx")
            .expect("approx registered")
            .solve(
                &instance,
                &SolveRequest::new().metric_backend(MetricBackend::Sparse),
            );
        let rows = meta_count(&report, "sparse-candidate-rows");
        assert!(rows > 0.0, "sparse run reports its closure rows");
        assert!(
            rows < (instance.num_nodes() * instance.num_objects()) as f64,
            "candidate balls cover the whole graph — the control is not truncating"
        );
    }
}
