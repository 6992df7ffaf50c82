//! The timeline runner: per-slot re-solves over a time-sliced scenario,
//! with warm-start chaining, plus the dynamic zoo replayed over the same
//! slot stream.
//!
//! A scenario with a `"timeline"` block materializes into slots (see
//! [`dmn_workloads::TimelineSpec`]); this runner drives them three ways:
//!
//! * **cold chain** — every slot is solved from scratch by the selected
//!   registry engine (the baseline series);
//! * **warm chain** — each slot's solve is seeded from the previous
//!   slot's placement, lifted across churn by stable object id (new
//!   objects run cold, retired ids are dropped, parked objects sit on the
//!   cheapest storage node without entering the engine). The chain takes
//!   the *better* of the warm and cold placements per slot and counts the
//!   slots where cold won (`warm_fallbacks`) — the warm series is then
//!   never worse than cold by construction, and the fallback counter
//!   keeps the claim honest;
//! * **dynamic zoo** — every online strategy replays the same slot
//!   stream ([`dmn_dynamic::try_replay_slots`]) under the per-slot
//!   storage prices.
//!
//! Every run reports cost-over-time plus placement churn (copies added
//! per slot, the same metric the dynamic replay reports as
//! `copies_moved`).

use std::collections::HashMap;

use dmn_core::instance::{Instance, ObjectWorkload};
use dmn_dynamic::replay::{try_replay_slots, ReplaySlot};
use dmn_dynamic::strategy::standard_zoo;
use dmn_dynamic::stream::{try_sample_stream, Request, StreamConfig};
use dmn_json::Json;
use dmn_solve::{solvers, SolveRequest};
use dmn_workloads::{
    Scenario, Timeline, TimelinePattern, TimelineSpec, TopologyKind, WorkloadParams,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The pinned timeline scenario: the perf-smoke `timeline_ok` gate and
/// the `experiments timeline` default both solve this, and the committed
/// `scenarios/grid_timeline.json` mirrors it (a pin test keeps them in
/// sync). Diurnal demand, a slow storage-price wave, one churn event per
/// slot, and a quarter of the objects parked.
pub fn pinned_scenario() -> Scenario {
    Scenario {
        name: "grid-timeline".into(),
        topology: TopologyKind::Grid { rows: 4, cols: 4 },
        nodes: 16,
        storage_cost: 3.0,
        workload: WorkloadParams {
            num_objects: 4,
            base_mass: 60.0,
            write_fraction: 0.2,
            ..Default::default()
        },
        seed: 21,
        capacities: None,
        stream: None,
        drift: None,
        faults: None,
        timeline: Some(TimelineSpec {
            slots: 5,
            pattern: TimelinePattern::Diurnal {
                period: 5,
                amplitude: 0.5,
            },
            cost_amplitude: 0.3,
            cost_period: 5,
            churn_per_slot: 1,
            park_fraction: 0.25,
            requests_per_slot: 200,
        }),
    }
}

/// Warm-vs-cold tolerance of the `timeline_ok` gate: the warm chain may
/// never cost more than the cold chain by more than this (absolute).
pub const WARM_TOLERANCE: f64 = 1e-9;

/// Seed mix of the per-slot stream RNG (distinct from the scenario's
/// workload and churn streams).
const SLOT_STREAM_MIX: u64 = 0x51CE_57EA_4D00_D001;

/// One slot's outcome across the static chains.
#[derive(Debug, Clone)]
pub struct SlotReport {
    /// Slot index.
    pub slot: usize,
    /// Demand multiplier in force.
    pub demand_multiplier: f64,
    /// Storage-cost multiplier in force.
    pub cost_multiplier: f64,
    /// Objects alive this slot.
    pub objects: usize,
    /// Objects carrying request mass (the rest are parked).
    pub active_objects: usize,
    /// Total cost of the cold (from-scratch) solve, parked rent included.
    pub cold_cost: f64,
    /// Total cost of the warm-seeded solve before the best-of fold.
    pub warm_raw_cost: f64,
    /// Total cost of the warm chain (best of warm-seeded and cold).
    pub warm_cost: f64,
    /// True when the cold placement won the fold this slot.
    pub warm_fell_back: bool,
    /// Copies added vs the previous slot by the cold chain.
    pub cold_moved: usize,
    /// Copies added vs the previous slot by the warm chain.
    pub warm_moved: usize,
}

/// One dynamic strategy's replay over the slot stream.
#[derive(Debug, Clone)]
pub struct DynamicTimelineRun {
    /// Strategy name.
    pub strategy: String,
    /// Per-slot total costs.
    pub slot_costs: Vec<f64>,
    /// Per-slot copies added (the churn series).
    pub copies_moved: Vec<usize>,
}

impl DynamicTimelineRun {
    /// Whole-timeline total cost.
    pub fn total_cost(&self) -> f64 {
        self.slot_costs.iter().sum()
    }
}

/// Outcome of one timeline run.
#[derive(Debug, Clone)]
pub struct TimelineReport {
    /// Scenario name.
    pub scenario: String,
    /// Registry engine driving the static chains.
    pub engine: String,
    /// Per-slot static-chain outcomes, in time order.
    pub slots: Vec<SlotReport>,
    /// Slots where the cold placement beat the warm-seeded one.
    pub warm_fallbacks: usize,
    /// The dynamic zoo replayed over the same slots.
    pub dynamic: Vec<DynamicTimelineRun>,
}

impl TimelineReport {
    /// Whole-timeline cold-chain cost.
    pub fn cold_total(&self) -> f64 {
        self.slots.iter().map(|s| s.cold_cost).sum()
    }

    /// Whole-timeline warm-chain cost.
    pub fn warm_total(&self) -> f64 {
        self.slots.iter().map(|s| s.warm_cost).sum()
    }

    /// The `timeline_ok` verdict: on every slot the warm chain costs no
    /// more than the cold chain (beyond [`WARM_TOLERANCE`]).
    pub fn timeline_ok(&self) -> bool {
        self.slots
            .iter()
            .all(|s| s.warm_cost <= s.cold_cost + WARM_TOLERANCE)
    }

    /// Serializes the report (the `timeline` section of `BENCH_ci.json`).
    pub fn to_json(&self) -> Json {
        let series =
            |f: &dyn Fn(&SlotReport) -> Json| Json::Arr(self.slots.iter().map(f).collect());
        Json::obj([
            ("scenario", Json::Str(self.scenario.clone())),
            ("engine", Json::Str(self.engine.clone())),
            ("slots", Json::Num(self.slots.len() as f64)),
            ("cold_costs", series(&|s| Json::Num(s.cold_cost))),
            ("warm_costs", series(&|s| Json::Num(s.warm_cost))),
            ("warm_raw_costs", series(&|s| Json::Num(s.warm_raw_cost))),
            ("cold_moved", series(&|s| Json::Num(s.cold_moved as f64))),
            ("warm_moved", series(&|s| Json::Num(s.warm_moved as f64))),
            (
                "cost_multipliers",
                series(&|s| Json::Num(s.cost_multiplier)),
            ),
            (
                "demand_multipliers",
                series(&|s| Json::Num(s.demand_multiplier)),
            ),
            ("cold_total", Json::Num(self.cold_total())),
            ("warm_total", Json::Num(self.warm_total())),
            ("warm_fallbacks", Json::Num(self.warm_fallbacks as f64)),
            ("timeline_ok", Json::Bool(self.timeline_ok())),
            (
                "dynamic",
                Json::Arr(
                    self.dynamic
                        .iter()
                        .map(|d| {
                            Json::obj([
                                ("strategy", Json::Str(d.strategy.clone())),
                                ("total_cost", Json::Num(d.total_cost())),
                                (
                                    "slot_costs",
                                    Json::Arr(d.slot_costs.iter().map(|&c| Json::Num(c)).collect()),
                                ),
                                (
                                    "copies_moved",
                                    Json::Arr(
                                        d.copies_moved
                                            .iter()
                                            .map(|&c| Json::Num(c as f64))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Copies added going from `prev` to `next` (per stable id; copies of ids
/// absent from `prev` all count — they had to be created).
fn copies_added(prev: &HashMap<u64, Vec<usize>>, next: &HashMap<u64, Vec<usize>>) -> usize {
    next.iter()
        .map(|(id, copies)| match prev.get(id) {
            Some(old) => copies.iter().filter(|v| !old.contains(v)).count(),
            None => copies.len(),
        })
        .sum()
}

/// Runs the full timeline: cold chain, warm chain, and the dynamic zoo.
///
/// `engine` is any registry spelling (`approx`, `tree-dp`, `cap:approx`,
/// `greedy-local`, ...); `req` carries the solve options both chains
/// share (the warm chain adds its per-slot seed on top; engines that
/// cannot consume a warm seed simply solve cold on both chains, and the
/// fold keeps the chains equal).
///
/// # Errors
/// Returns a message when the engine is unknown or unsupported on the
/// scenario's network, or when the timeline cannot be materialized.
pub fn run_timeline(
    scenario: &Scenario,
    engine: &str,
    req: &SolveRequest,
) -> Result<TimelineReport, String> {
    let timeline = scenario
        .build_timeline()
        .map_err(|e| format!("timeline materialization: {e}"))?;
    let solver = solvers::by_name(engine).ok_or_else(|| format!("unknown engine \"{engine}\""))?;

    let graph = scenario.build_graph();
    let n = graph.num_nodes();
    // One APSP for the whole run: slots change prices, not distances.
    let base = Instance::builder(graph.clone())
        .uniform_storage_cost(scenario.storage_cost)
        .build();
    let metric = base.metric().clone();
    solver
        .supports(&base)
        .map_err(|e| format!("engine \"{engine}\": {e}"))?;

    let mut slots = Vec::with_capacity(timeline.slots.len());
    let mut warm_fallbacks = 0usize;
    // Chain state: stable id -> copy set after the previous slot.
    let mut cold_prev: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut warm_prev: HashMap<u64, Vec<usize>> = HashMap::new();

    for slot in &timeline.slots {
        let cs_slot = vec![scenario.storage_cost * slot.cost_multiplier; n];
        // Parked objects never enter the engine (a zero-mass workload is
        // invalid input); they sit on the cheapest storage node, like the
        // static oracle parks never-requested objects.
        let park_node = (0..n)
            .filter(|&v| cs_slot[v].is_finite())
            .min_by(|&a, &b| cs_slot[a].total_cmp(&cs_slot[b]))
            .ok_or("no node has finite storage cost")?;
        let active: Vec<(u64, &ObjectWorkload)> = slot
            .objects
            .iter()
            .filter(|o| !o.is_parked())
            .map(|o| (o.id, &o.workload))
            .collect();
        let parked: Vec<u64> = slot
            .objects
            .iter()
            .filter(|o| o.is_parked())
            .map(|o| o.id)
            .collect();
        if active.is_empty() {
            return Err(format!("slot {} has no active objects", slot.slot));
        }

        let mut inst = Instance::builder(graph.clone())
            .storage_costs(cs_slot.clone())
            .build()
            .with_metric(metric.clone());
        for (_, w) in &active {
            inst.push_object((*w).clone());
        }

        let cold = solver.solve(&inst, req);
        // Warm seed: the previous warm-chain copy set lifted by id. Ids
        // born this slot get an empty seed (they run cold); stale nodes
        // in a lifted set are sanitized inside the algorithm.
        let seeds: Vec<Vec<usize>> = active
            .iter()
            .map(|(id, _)| warm_prev.get(id).cloned().unwrap_or_default())
            .collect();
        let warm_req = req.clone().warm_placement(seeds);
        let warm = solver.solve(&inst, &warm_req);

        let parked_rent = parked.len() as f64 * cs_slot[park_node];
        let cold_cost = cold.cost.total() + parked_rent;
        let warm_raw_cost = warm.cost.total() + parked_rent;
        // Best-of fold: warm local search carries no ordering guarantee
        // vs cold, so the chain keeps whichever placement is cheaper and
        // records the fallback.
        let warm_fell_back = warm_raw_cost > cold_cost + WARM_TOLERANCE;
        if warm_fell_back {
            warm_fallbacks += 1;
        }
        let (warm_cost, warm_placement) = if warm_fell_back {
            (cold_cost, &cold.placement)
        } else {
            (warm_raw_cost, &warm.placement)
        };

        let collect = |placement: &dmn_core::placement::Placement| {
            let mut map: HashMap<u64, Vec<usize>> = active
                .iter()
                .enumerate()
                .map(|(x, (id, _))| (*id, placement.copies(x).to_vec()))
                .collect();
            for &id in &parked {
                map.insert(id, vec![park_node]);
            }
            map
        };
        let cold_now = collect(&cold.placement);
        let warm_now = collect(warm_placement);

        slots.push(SlotReport {
            slot: slot.slot,
            demand_multiplier: slot.demand_multiplier,
            cost_multiplier: slot.cost_multiplier,
            objects: slot.objects.len(),
            active_objects: active.len(),
            cold_cost,
            warm_raw_cost,
            warm_cost,
            warm_fell_back,
            cold_moved: copies_added(&cold_prev, &cold_now),
            warm_moved: copies_added(&warm_prev, &warm_now),
        });
        cold_prev = cold_now;
        warm_prev = warm_now;
    }

    let dynamic = run_dynamic_zoo(scenario, &timeline, n)?;

    Ok(TimelineReport {
        scenario: scenario.name.clone(),
        engine: engine.to_string(),
        slots,
        warm_fallbacks,
        dynamic,
    })
}

/// Replays the dynamic strategy zoo over the timeline's slot stream: the
/// object universe is every id ever alive, each slot samples
/// `requests_per_slot` requests from the slot's workloads (ids absent or
/// parked that slot contribute none), and storage prices follow the
/// slot's cost multiplier.
fn run_dynamic_zoo(
    scenario: &Scenario,
    timeline: &Timeline,
    n: usize,
) -> Result<Vec<DynamicTimelineRun>, String> {
    let spec = scenario.timeline_spec();
    let universe = timeline.universe();
    let index_of: HashMap<u64, usize> = universe
        .iter()
        .enumerate()
        .map(|(x, &id)| (id, x))
        .collect();

    let mut replay_slots = Vec::with_capacity(timeline.slots.len());
    for slot in &timeline.slots {
        let mut workloads = vec![ObjectWorkload::new(n); universe.len()];
        for o in &slot.objects {
            workloads[index_of[&o.id]] = o.workload.clone();
        }
        let mut rng = ChaCha8Rng::seed_from_u64(
            scenario
                .seed
                .wrapping_add(SLOT_STREAM_MIX)
                .wrapping_add(slot.slot as u64),
        );
        let stream: Vec<Request> = try_sample_stream(
            &workloads,
            &StreamConfig {
                length: spec.requests_per_slot,
                ..Default::default()
            },
            &mut rng,
        )
        .unwrap_or_default(); // a massless slot replays empty
        replay_slots.push(ReplaySlot {
            storage_cost: vec![scenario.storage_cost * slot.cost_multiplier; n],
            stream,
        });
    }

    let base_cs = vec![scenario.storage_cost; n];
    let stream_len: usize = replay_slots.iter().map(|s| s.stream.len()).sum();
    let initial: Vec<Vec<usize>> = (0..universe.len()).map(|x| vec![x % n]).collect();
    let metric = Instance::builder(scenario.build_graph())
        .uniform_storage_cost(scenario.storage_cost)
        .build()
        .metric()
        .clone();

    let mut runs = Vec::new();
    for mut strategy in standard_zoo(universe.len(), &base_cs, stream_len.max(1)) {
        let outcomes = try_replay_slots(&metric, &replay_slots, &initial, strategy.as_mut())
            .map_err(|e| format!("dynamic replay ({}): {e}", strategy.name()))?;
        runs.push(DynamicTimelineRun {
            strategy: strategy.name().to_string(),
            slot_costs: outcomes.iter().map(|o| o.cost.total()).collect(),
            copies_moved: outcomes.iter().map(|o| o.copies_moved).collect(),
        });
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    fn timeline_scenario() -> Scenario {
        pinned_scenario()
    }

    /// The committed `scenarios/grid_timeline.json` and the in-code
    /// [`pinned_scenario`] must stay the same scenario (the gate solves
    /// the code-pinned one; the committed file is the user-facing
    /// artifact).
    #[test]
    fn committed_timeline_scenario_matches_the_pinned_one() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../scenarios/grid_timeline.json");
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let committed = Scenario::from_json(&dmn_json::parse(&text).expect("valid JSON"))
            .expect("parses as a scenario");
        assert_eq!(
            committed.to_json().to_string_pretty(),
            pinned_scenario().to_json().to_string_pretty(),
            "scenarios/grid_timeline.json drifted from timeline::pinned_scenario()"
        );
    }

    #[test]
    fn warm_chain_is_never_worse_than_cold_under_churn() {
        // The satellite regression: objects are added, removed, AND
        // parked between slots; the warm chain must survive the churn
        // (no panic, no dropped warm placement) and never lose to cold.
        let report = run_timeline(&timeline_scenario(), "approx", &SolveRequest::new()).unwrap();
        assert_eq!(report.slots.len(), 5);
        assert!(report.timeline_ok(), "warm chain worse than cold");
        for s in &report.slots {
            assert!(
                s.warm_cost <= s.cold_cost + WARM_TOLERANCE,
                "slot {}: warm {} vs cold {}",
                s.slot,
                s.warm_cost,
                s.cold_cost
            );
            assert!(s.cold_cost.is_finite() && s.cold_cost > 0.0);
            assert!(s.objects >= s.active_objects && s.active_objects >= 1);
        }
        // Churn actually happened (slot populations differ).
        let first: Vec<usize> = report.slots.iter().map(|s| s.objects).collect();
        assert!(report.slots[0].cold_moved > 0, "slot 0 creates all copies");
        assert!(!first.is_empty());
    }

    #[test]
    fn runner_is_deterministic() {
        let s = timeline_scenario();
        let a = run_timeline(&s, "approx", &SolveRequest::new()).unwrap();
        let b = run_timeline(&s, "approx", &SolveRequest::new()).unwrap();
        assert_eq!(a.cold_total(), b.cold_total());
        assert_eq!(a.warm_total(), b.warm_total());
        assert_eq!(a.warm_fallbacks, b.warm_fallbacks);
        for (x, y) in a.dynamic.iter().zip(&b.dynamic) {
            assert_eq!(x.slot_costs, y.slot_costs);
            assert_eq!(x.copies_moved, y.copies_moved);
        }
    }

    #[test]
    fn dynamic_zoo_replays_every_slot() {
        let report = run_timeline(&timeline_scenario(), "approx", &SolveRequest::new()).unwrap();
        assert_eq!(report.dynamic.len(), 5, "full zoo");
        for run in &report.dynamic {
            assert_eq!(run.slot_costs.len(), 5);
            assert_eq!(run.copies_moved.len(), 5);
            assert!(run.total_cost().is_finite());
        }
    }

    #[test]
    fn report_serializes_with_all_series() {
        let report = run_timeline(&timeline_scenario(), "approx", &SolveRequest::new()).unwrap();
        let rendered = report.to_json().to_string_pretty();
        for needle in [
            "\"cold_costs\"",
            "\"warm_costs\"",
            "\"warm_raw_costs\"",
            "\"cold_moved\"",
            "\"warm_moved\"",
            "\"warm_fallbacks\"",
            "\"timeline_ok\"",
            "\"dynamic\"",
            "\"copies_moved\"",
        ] {
            assert!(rendered.contains(needle), "missing {needle}");
        }
        dmn_json::parse(&rendered).expect("valid JSON");
    }

    #[test]
    fn unknown_engine_and_unsupported_topology_error_cleanly() {
        let s = timeline_scenario();
        assert!(run_timeline(&s, "no-such-engine", &SolveRequest::new()).is_err());
        // tree-dp refuses the grid (not a tree) with a typed message, not
        // a panic.
        let err = run_timeline(&s, "tree-dp", &SolveRequest::new()).unwrap_err();
        assert!(err.contains("tree"), "{err}");
    }
}
