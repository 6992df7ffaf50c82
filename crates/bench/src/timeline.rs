//! The timeline runner: per-slot re-solves over a time-sliced scenario,
//! with warm-start chaining, plus the dynamic zoo replayed over the same
//! slot stream.
//!
//! A scenario with a `"timeline"` block materializes into slots (see
//! [`dmn_workloads::TimelineSpec`]); this runner drives them three ways:
//!
//! * **cold chain** — every slot is solved from scratch by the selected
//!   registry engine (the baseline series);
//! * **warm chain** — each slot's solve is seeded from the warm chain's
//!   own previous placement, lifted across churn by stable object id (new
//!   objects run cold, retired ids are dropped, parked objects sit on the
//!   cheapest storage node without entering the engine). The chain keeps
//!   its placement whatever cold costs: a seeded local search keeps the
//!   phase-1 guarantee but lands in a different local optimum, so the
//!   chain trades a small cost premium for fewer copies created, and
//!   [`TimelineReport::timeline_ok`] gates that trade;
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
use dmn_solve::{solvers, SolveReport, SolveRequest};
use dmn_workloads::{
    Scenario, Timeline, TimelinePattern, TimelineSpec, TopologyKind, WorkloadParams,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The pinned timeline scenario: the `experiments timeline` default and
/// the `timeline_ok` unit test both solve this, and the committed
/// `scenarios/grid_timeline.json` that CI's timeline step runs mirrors it
/// (a pin test keeps them in sync). Diurnal demand, a slow storage-price
/// wave, one churn event per slot, and a quarter of the objects parked.
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

/// Ceiling on the warm chain's whole-timeline cost premium over cold
/// ([`TimelineReport::premium`]). The committed sweep test
/// `sweep_pins_the_warm_premium` pins it: the smallest round value above
/// the sweep's maximum premium (+4.83%).
pub const MAX_WARM_PREMIUM: f64 = 0.06;

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
    /// Total cost of the warm-seeded solve, parked rent included.
    pub warm_cost: f64,
    /// Copies added vs the previous slot by the cold chain.
    pub cold_moved: usize,
    /// Copies added vs the previous slot by the warm chain.
    pub warm_moved: usize,
    /// Phase-1 moves of the cold solve (its `fl-moves` meta; 0 when absent).
    pub cold_fl_moves: usize,
    /// Phase-1 moves of the warm-seeded solve (its `fl-moves` meta).
    pub warm_fl_moves: usize,
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

    /// The warm chain's whole-timeline cost premium over cold:
    /// warm total / cold total − 1.
    pub fn premium(&self) -> f64 {
        self.warm_total() / self.cold_total() - 1.0
    }

    /// The `timeline_ok` verdict on what the warm chain buys over the
    /// whole timeline: strictly fewer copies added and strictly fewer
    /// phase-1 moves than cold, at a [`premium`](Self::premium) of at most
    /// [`MAX_WARM_PREMIUM`]. Both counts are strict, so a chain whose
    /// seeds are dropped equals cold and fails; engines that ignore warm
    /// seeds read false, and so does a `local-search-ref` phase 1, whose
    /// reference loop reports 0 moves on both chains.
    pub fn timeline_ok(&self) -> bool {
        let sum = |f: fn(&SlotReport) -> usize| self.slots.iter().map(f).sum::<usize>();
        sum(|s| s.warm_moved) < sum(|s| s.cold_moved)
            && sum(|s| s.warm_fl_moves) < sum(|s| s.cold_fl_moves)
            && self.premium() <= MAX_WARM_PREMIUM
    }

    /// Serializes the report (the document `experiments timeline` writes
    /// to `TIMELINE_ci.json`).
    pub fn to_json(&self) -> Json {
        let series =
            |f: &dyn Fn(&SlotReport) -> Json| Json::Arr(self.slots.iter().map(f).collect());
        let counts = |f: fn(&SlotReport) -> usize| series(&|s| Json::Num(f(s) as f64));
        let premium = self.premium();
        Json::obj([
            ("scenario", Json::Str(self.scenario.clone())),
            ("engine", Json::Str(self.engine.clone())),
            ("slots", Json::Num(self.slots.len() as f64)),
            ("cold_costs", series(&|s| Json::Num(s.cold_cost))),
            ("warm_costs", series(&|s| Json::Num(s.warm_cost))),
            ("cold_moved", counts(|s| s.cold_moved)),
            ("warm_moved", counts(|s| s.warm_moved)),
            ("cold_fl_moves", counts(|s| s.cold_fl_moves)),
            ("warm_fl_moves", counts(|s| s.warm_fl_moves)),
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
            ("premium", Json::Num(premium)),
            ("max_premium", Json::Num(MAX_WARM_PREMIUM)),
            ("premium_margin", Json::Num(MAX_WARM_PREMIUM - premium)),
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

/// Phase-1 moves a solve reports (its `fl-moves` meta; 0 when absent).
fn fl_moves(report: &SolveReport) -> usize {
    report
        .meta_value("fl-moves")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Runs the full timeline: cold chain, warm chain, and the dynamic zoo.
///
/// `engine` is any registry spelling (`approx`, `tree-dp`, `cap:approx`,
/// `greedy-local`, ...); `req` carries the solve options both chains
/// share (the warm chain adds its per-slot seed on top; engines that
/// cannot consume a warm seed solve cold on both chains, so the chains
/// are equal and [`TimelineReport::timeline_ok`] reads false).
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
        let warm_now = collect(&warm.placement);

        slots.push(SlotReport {
            slot: slot.slot,
            demand_multiplier: slot.demand_multiplier,
            cost_multiplier: slot.cost_multiplier,
            objects: slot.objects.len(),
            active_objects: active.len(),
            cold_cost: cold.cost.total() + parked_rent,
            warm_cost: warm.cost.total() + parked_rent,
            cold_moved: copies_added(&cold_prev, &cold_now),
            warm_moved: copies_added(&warm_prev, &warm_now),
            cold_fl_moves: fl_moves(&cold),
            warm_fl_moves: fl_moves(&warm),
        });
        cold_prev = cold_now;
        warm_prev = warm_now;
    }

    let dynamic = run_dynamic_zoo(scenario, &timeline, n)?;

    Ok(TimelineReport {
        scenario: scenario.name.clone(),
        engine: engine.to_string(),
        slots,
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
    fn warm_chain_buys_fewer_copies_and_moves_under_churn() {
        // Objects are added, removed, AND parked between slots; the warm
        // chain must survive the churn (no panic, no dropped warm
        // placement) and pass the gate on what it buys.
        let report = run_timeline(&timeline_scenario(), "approx", &SolveRequest::new()).unwrap();
        assert_eq!(report.slots.len(), 5);
        assert!(
            report.timeline_ok(),
            "premium {:.4}, slots {:?}",
            report.premium(),
            report.slots
        );
        for s in &report.slots {
            assert!(s.cold_cost.is_finite() && s.cold_cost > 0.0);
            assert!(s.warm_cost.is_finite() && s.warm_cost > 0.0);
            assert!(s.objects >= s.active_objects && s.active_objects >= 1);
        }
        assert!(report.slots[0].cold_moved > 0, "slot 0 creates all copies");
    }

    #[test]
    fn runner_is_deterministic() {
        let s = timeline_scenario();
        let a = run_timeline(&s, "approx", &SolveRequest::new()).unwrap();
        let b = run_timeline(&s, "approx", &SolveRequest::new()).unwrap();
        assert_eq!(a.cold_total(), b.cold_total());
        assert_eq!(a.warm_total(), b.warm_total());
        let warm = |r: &TimelineReport| -> Vec<(usize, usize)> {
            r.slots
                .iter()
                .map(|s| (s.warm_moved, s.warm_fl_moves))
                .collect()
        };
        assert_eq!(warm(&a), warm(&b));
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
            "\"cold_moved\"",
            "\"warm_moved\"",
            "\"warm_fl_moves\"",
            "\"premium\"",
            "\"premium_margin\"",
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

    /// A report shaped like `grid_timeline`'s: per slot, the cold and the
    /// warm chain's (cost, copies added, phase-1 moves). Warm costs 0.21%
    /// more for 24 copies against 35 and 81 moves against 108.
    fn grid_timeline_shaped() -> TimelineReport {
        let chains = [
            ((328.64, 9, 15), (328.64, 9, 15)),
            ((519.24, 11, 27), (507.57, 8, 23)),
            ((396.87, 5, 35), (387.24, 2, 28)),
            ((185.06, 1, 19), (192.80, 1, 12)),
            ((173.60, 9, 12), (190.55, 4, 3)),
        ];
        let slots = chains
            .iter()
            .enumerate()
            .map(|(slot, &(cold, warm))| SlotReport {
                slot,
                demand_multiplier: 1.0,
                cost_multiplier: 1.0,
                objects: 4,
                active_objects: 3,
                cold_cost: cold.0,
                warm_cost: warm.0,
                cold_moved: cold.1,
                warm_moved: warm.1,
                cold_fl_moves: cold.2,
                warm_fl_moves: warm.2,
            });
        TimelineReport {
            scenario: "grid-timeline-shaped".into(),
            engine: "approx".into(),
            slots: slots.collect(),
            dynamic: Vec::new(),
        }
    }

    #[test]
    fn gate_passes_a_grid_timeline_shaped_report() {
        let report = grid_timeline_shaped();
        assert!(
            (report.premium() - 0.0021).abs() < 1e-4,
            "{}",
            report.premium()
        );
        assert!(report.timeline_ok());
    }

    #[test]
    fn gate_fails_when_any_check_breaks() {
        let gate_after = |edit: &dyn Fn(&mut SlotReport)| {
            let mut report = grid_timeline_shaped();
            report.slots.iter_mut().for_each(edit);
            report.timeline_ok()
        };
        assert!(
            !gate_after(&|s| s.warm_moved = s.cold_moved),
            "as many copies added as cold"
        );
        assert!(
            !gate_after(&|s| s.warm_fl_moves = s.cold_fl_moves),
            "as many phase-1 moves as cold"
        );
        assert!(
            !gate_after(&|s| s.warm_cost = s.cold_cost * (1.0 + MAX_WARM_PREMIUM) * 1.001),
            "premium above the pin"
        );
        let identical = |s: &mut SlotReport| {
            (s.warm_cost, s.warm_moved, s.warm_fl_moves) =
                (s.cold_cost, s.cold_moved, s.cold_fl_moves)
        };
        assert!(!gate_after(&identical), "identical chains");
        // An engine that ignores warm seeds solves both chains alike.
        let seedless = run_timeline(&timeline_scenario(), "greedy-local", &SolveRequest::new());
        assert!(
            !seedless.unwrap().timeline_ok(),
            "greedy-local ignores seeds"
        );
    }

    /// The committed sweep that pins [`MAX_WARM_PREMIUM`]: the pinned
    /// timeline spec over 8 slots, at 4×4 with 4 objects and at 6×6 with
    /// 8 objects, seeds 100–111 each (24 scenarios, 192 slots). Every
    /// scenario's premium stays under the pin, and summed over the sweep
    /// the warm chain adds fewer copies and makes fewer phase-1 moves.
    #[test]
    fn sweep_pins_the_warm_premium() {
        let (mut cold, mut warm) = ((0, 0), (0, 0));
        for (side, objects) in [(4, 4), (6, 8)] {
            for seed in 100..112 {
                let mut s = pinned_scenario();
                s.topology = TopologyKind::Grid {
                    rows: side,
                    cols: side,
                };
                s.nodes = side * side;
                s.workload.num_objects = objects;
                s.seed = seed;
                s.timeline.as_mut().expect("pinned timeline").slots = 8;
                let report = run_timeline(&s, "approx", &SolveRequest::new()).unwrap();
                let premium = report.premium();
                assert!(
                    premium <= MAX_WARM_PREMIUM,
                    "{side}x{side}, {objects} objects, seed {seed}: premium {premium:.4}"
                );
                for sl in &report.slots {
                    cold = (cold.0 + sl.cold_moved, cold.1 + sl.cold_fl_moves);
                    warm = (warm.0 + sl.warm_moved, warm.1 + sl.warm_fl_moves);
                }
            }
        }
        assert!(
            warm.0 < cold.0,
            "copies added: warm {} vs cold {}",
            warm.0,
            cold.0
        );
        assert!(
            warm.1 < cold.1,
            "phase-1 moves: warm {} vs cold {}",
            warm.1,
            cold.1
        );
    }
}
