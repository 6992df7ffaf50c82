//! The differential scenario fuzzer: seeded random timeline scenarios
//! driven through the registry engines, with invariant checks and
//! shrinking.
//!
//! Each case derives a small random scenario (topology, workload shape,
//! optional capacities, and a random `timeline` block) from the case
//! seed, then checks:
//!
//! * **no panics** — every engine run is wrapped in `catch_unwind`; a
//!   panic on valid input is always a bug;
//! * **valid placements** — every object keeps at least one copy, on an
//!   in-range finite-storage node;
//! * **order ≡ sequential** — a one-thread `approx` solve of the instance
//!   with its objects reversed, mapped back by index, must reproduce the
//!   all-threads `approx` placement and cost (a placement may not depend
//!   on object order, on which worker solved it, or on the reused
//!   workspace's history);
//! * **sparse ≈ dense** — the sparse metric backend may cost at most
//!   [`MAX_SPARSE_RATIO`]× dense (on fuzz-sized instances the candidate
//!   balls usually cover every node, so the ratio is ~1);
//! * **capacitated contract** — under per-node copy caps the greedy
//!   repair of the `approx` placement and the native `capacitated` engine
//!   both stay feasible, and the native engine never loses to the repair;
//! * **tree-dp validity** — on tree topologies the DP's placement is
//!   structurally valid (its tree-native objective is not comparable to
//!   the MST-multicast evaluation, so no cost invariant is asserted);
//! * **warm slot-0 contract** — slot 0 of the timeline runner's warm
//!   chain equals its cold chain exactly, in cost bits, copies added and
//!   phase-1 moves ([`crate::timeline::run_timeline`]): no seed exists
//!   before slot 0, and empty seeds fall back to the cold start. Later
//!   slots carry no per-case contract: a seeded local search lands in a
//!   different local optimum, and what the chain buys over a whole
//!   timeline is gated by [`crate::timeline::TimelineReport::timeline_ok`].
//!
//! Every check but the last runs per slot through [`check_instance`], which
//! the root package's `tests/gates.rs` also runs on the pinned 225-node
//! scenario and its truncating control.
//!
//! A violation is *shrunk* — slots, churn, objects, and nodes are reduced
//! while the violation reproduces — and the minimized scenario can be
//! written to `scenarios/regress/` for a committed replay test.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use dmn_core::instance::Instance;
use dmn_json::Json;
use dmn_solve::{solvers, MetricBackend, SolveReport, SolveRequest};
use dmn_workloads::{
    CapacitySpec, Scenario, TimelinePattern, TimelineSpec, TopologyKind, WorkloadParams,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::timeline::{run_timeline, TimelineReport};

/// Ceiling on the sparse/dense total-cost ratio: truncated candidate balls
/// may miss facilities the dense path would open, so the oracle bounds the
/// cost slack instead of demanding bit-equality. E16 reports against the
/// same ceiling.
pub const MAX_SPARSE_RATIO: f64 = 1.05;

/// Relative tolerance of the capacitated never-worse-than-repair check.
pub const CAP_TOLERANCE: f64 = 1e-6;

/// Seed mix applied per case (so `--seed` shifts the whole corpus).
const CASE_MIX: u64 = 0xF022_CA5E_0000_0000;

/// Fuzzer configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of seeded cases to generate.
    pub cases: usize,
    /// Base seed; case `i` derives its own stream from it.
    pub seed: u64,
    /// When set, minimized violation scenarios are written here.
    pub regress_dir: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            cases: 200,
            seed: 0xD1FF,
            regress_dir: None,
        }
    }
}

/// One invariant violation (after shrinking).
#[derive(Debug, Clone)]
pub struct Violation {
    /// Case index that first hit it.
    pub case: usize,
    /// Invariant kind (stable kebab-case tag).
    pub kind: String,
    /// Human-readable detail (engine pair, costs, slot).
    pub detail: String,
    /// The minimized reproducing scenario.
    pub scenario: Scenario,
}

/// Outcome of a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Cases executed.
    pub cases: usize,
    /// Engine spellings every case was driven through.
    pub engines: Vec<String>,
    /// Violations found (empty on a clean run).
    pub violations: Vec<Violation>,
}

impl FuzzOutcome {
    /// True when no case violated any invariant.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Serializes the outcome (the `fuzz` artifact).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cases", Json::Num(self.cases as f64)),
            (
                "engines",
                Json::Arr(self.engines.iter().map(|e| Json::Str(e.clone())).collect()),
            ),
            ("violations", Json::Num(self.violations.len() as f64)),
            ("clean", Json::Bool(self.clean())),
            (
                "findings",
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|v| {
                            Json::obj([
                                ("case", Json::Num(v.case as f64)),
                                ("kind", Json::Str(v.kind.clone())),
                                ("detail", Json::Str(v.detail.clone())),
                                ("scenario", v.scenario.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The engine spellings a fuzz case exercises.
pub fn fuzz_engines() -> Vec<String> {
    [
        "approx",
        "approx (sparse metric)",
        "approx (reversed objects, 1 thread)",
        "capacitated",
        "tree-dp (tree topologies)",
    ]
    .map(String::from)
    .to_vec()
}

/// Derives the random scenario of one fuzz case. Small on purpose: the
/// differential checks need many cases more than they need big networks.
pub fn case_scenario(base_seed: u64, case: usize) -> Scenario {
    let seed = base_seed.wrapping_add(CASE_MIX).wrapping_add(case as u64);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let topology = match rng.random_range(0..5) {
        0 => TopologyKind::Path,
        1 => TopologyKind::Ring,
        2 => {
            let rows = rng.random_range(2..=4);
            let cols = rng.random_range(2..=4);
            TopologyKind::Grid { rows, cols }
        }
        3 => TopologyKind::RandomTree,
        _ => TopologyKind::Gnp,
    };
    let nodes = match topology {
        TopologyKind::Grid { rows, cols } => rows * cols,
        _ => rng.random_range(6..=14),
    };
    let pattern = match rng.random_range(0..3) {
        0 => TimelinePattern::Flat,
        1 => TimelinePattern::Diurnal {
            period: rng.random_range(2..=6),
            amplitude: rng.random_range(0.0..=0.9),
        },
        _ => TimelinePattern::FlashCrowd {
            peak_slot: rng.random_range(0..4),
            magnitude: rng.random_range(0.5..=3.0),
            width: rng.random_range(1..=2),
        },
    };
    Scenario {
        name: format!("fuzz-{case}"),
        topology,
        nodes,
        storage_cost: rng.random_range(0.5..=8.0),
        workload: WorkloadParams {
            num_objects: rng.random_range(1..=4),
            base_mass: rng.random_range(10.0..=200.0),
            zipf_exponent: rng.random_range(0.0..=1.2),
            write_fraction: rng.random_range(0.0..=0.6),
            active_fraction: rng.random_range(0.3..=1.0),
            locality: rng.random_range(0.0..=0.8),
        },
        seed,
        capacities: rng.random_bool(0.3).then(|| CapacitySpec::Uniform {
            per_node: rng.random_range(1..=2),
        }),
        stream: None,
        drift: None,
        faults: None,
        timeline: Some(TimelineSpec {
            slots: rng.random_range(2..=4),
            pattern,
            cost_amplitude: rng.random_range(0.0..=0.5),
            cost_period: rng.random_range(1..=6),
            churn_per_slot: rng.random_range(0..=1),
            park_fraction: rng.random_range(0.0..0.4),
            requests_per_slot: rng.random_range(50..=200),
        }),
    }
}

/// Solves through a registry engine, converting a panic into `Err`.
fn solve_guarded(
    engine: &str,
    instance: &Instance,
    req: &SolveRequest,
) -> Result<SolveReport, String> {
    let solver = solvers::by_name(engine).ok_or_else(|| format!("unknown engine \"{engine}\""))?;
    solver
        .supports(instance)
        .map_err(|e| format!("unsupported: {e}"))?;
    catch_unwind(AssertUnwindSafe(|| solver.solve(instance, req))).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        format!("PANIC: {msg}")
    })
}

/// Structural validity of a placement for `instance`.
fn placement_error(report: &SolveReport, instance: &Instance) -> Option<String> {
    let n = instance.num_nodes();
    for x in 0..instance.num_objects() {
        let copies = report.placement.copies(x);
        if copies.is_empty() {
            return Some(format!("object {x} has no copies"));
        }
        for &v in copies {
            if v >= n {
                return Some(format!("object {x} placed on out-of-range node {v}"));
            }
            if !instance.storage_cost[v].is_finite() {
                return Some(format!("object {x} placed on forbidden node {v}"));
            }
        }
    }
    None
}

/// Runs every invariant over one scenario; returns the first violation as
/// `(kind, detail)`. Public so committed regression scenarios replay
/// through the exact fuzz oracle.
pub fn check_scenario(scenario: &Scenario) -> Option<(String, String)> {
    let timeline = match scenario.build_timeline() {
        Ok(t) => t,
        Err(e) => return Some(("materialize-error".into(), e.to_string())),
    };
    let graph = scenario.build_graph();
    let n = graph.num_nodes();
    let base = Instance::builder(graph.clone())
        .uniform_storage_cost(scenario.storage_cost)
        .build();
    let metric = base.metric().clone();
    let capacities = scenario.try_capacity_vector(n).ok().flatten();

    for slot in &timeline.slots {
        let cs = vec![scenario.storage_cost * slot.cost_multiplier; n];
        let mut inst = Instance::builder(graph.clone())
            .storage_costs(cs)
            .build()
            .with_metric(metric.clone());
        for o in &slot.objects {
            if !o.is_parked() {
                inst.push_object(o.workload.clone());
            }
        }
        if inst.num_objects() == 0 {
            continue;
        }
        if let Some((kind, detail)) = check_instance(&inst, capacities.as_deref()) {
            return Some((kind, format!("slot {}: {detail}", slot.slot)));
        }
    }

    // The warm slot-0 contract (the run also exercises the dynamic zoo's
    // slot replay).
    match catch_unwind(AssertUnwindSafe(|| {
        run_timeline(scenario, "approx", &SolveRequest::new())
    })) {
        Ok(Ok(report)) => warm_slot0_divergence(&report)
            .map(|detail| ("warm-slot0-divergence".to_string(), detail)),
        Ok(Err(e)) => Some(("timeline-error".into(), e)),
        Err(_) => Some(("timeline-panic".into(), "timeline runner panicked".into())),
    }
}

/// Runs the per-instance invariants over one instance: valid placements,
/// sparse within [`MAX_SPARSE_RATIO`] of dense, the reversed-object solve
/// equal to the in-order one, the capacitated contract under
/// `capacities` (skipped when the caps hold fewer copies than objects),
/// and tree-dp validity on trees. Returns the first violation as
/// `(kind, detail)`.
pub fn check_instance(
    instance: &Instance,
    capacities: Option<&[usize]>,
) -> Option<(String, String)> {
    let req = SolveRequest::new();

    // Reference: the dense approx solve on every thread.
    let dense = match solve_guarded("approx", instance, &req) {
        Ok(r) => r,
        Err(e) => return Some(("approx-panic".into(), e)),
    };
    if let Some(e) = placement_error(&dense, instance) {
        return Some(("invalid-placement".into(), format!("approx: {e}")));
    }

    // Sparse backend: bounded cost slack vs dense.
    match solve_guarded(
        "approx",
        instance,
        &req.clone().metric_backend(MetricBackend::Sparse),
    ) {
        Ok(sparse) => {
            if let Some(e) = placement_error(&sparse, instance) {
                return Some(("invalid-placement".into(), format!("sparse: {e}")));
            }
            let ratio = sparse.cost.total() / dense.cost.total().max(f64::MIN_POSITIVE);
            if ratio > MAX_SPARSE_RATIO {
                return Some((
                    "sparse-ratio".into(),
                    format!(
                        "sparse {} vs dense {} (ratio {ratio:.4} > {MAX_SPARSE_RATIO})",
                        sparse.cost.total(),
                        dense.cost.total()
                    ),
                ));
            }
        }
        Err(e) => return Some(("sparse-panic".into(), e)),
    }

    // Object order: the reversed instance, solved on one thread, maps
    // back onto the reference object for object.
    let reversed: Vec<usize> = (0..instance.num_objects()).rev().collect();
    match solve_guarded(
        "approx",
        &instance.object_subset(&reversed),
        &req.clone().max_threads(Some(1)),
    ) {
        Ok(rev) => {
            if !matches_reversed(&rev, &dense) {
                return Some((
                    "order-divergence".into(),
                    format!(
                        "reversed cost {} vs in-order {}",
                        rev.cost.total(),
                        dense.cost.total()
                    ),
                ));
            }
        }
        Err(e) => return Some(("order-panic".into(), e)),
    }

    // Capacitated contract: the greedy repair and the native engine both
    // feasible, and the native engine never worse than the repair.
    if let Some(cap) = capacities.filter(|cap| cap.iter().sum::<usize>() >= instance.num_objects())
    {
        let cap_req = req.clone().capacities(cap.to_vec());
        let repaired = match solve_guarded("approx", instance, &cap_req) {
            Ok(r) => r,
            Err(e) => return Some(("repair-panic".into(), e)),
        };
        if !dmn_approx::respects_capacities(&repaired.placement, cap) {
            return Some((
                "repair-infeasible".into(),
                "greedy repair breached the caps".into(),
            ));
        }
        match solve_guarded("capacitated", instance, &cap_req) {
            Ok(native) => {
                if !dmn_approx::respects_capacities(&native.placement, cap) {
                    return Some((
                        "capacitated-infeasible".into(),
                        "native engine breached the caps".into(),
                    ));
                }
                let bound = repaired.cost.total() * (1.0 + CAP_TOLERANCE) + CAP_TOLERANCE;
                if native.cost.total() > bound {
                    return Some((
                        "capacitated-regression".into(),
                        format!(
                            "native {} vs repair {}",
                            native.cost.total(),
                            repaired.cost.total()
                        ),
                    ));
                }
            }
            Err(e) => return Some(("capacitated-panic".into(), e)),
        }
    }

    // Tree DP: structural validity on tree topologies (its native
    // Steiner objective is not comparable to MST-multicast, so only
    // validity and panic-freedom are asserted).
    if instance.graph.is_tree() {
        match solve_guarded("tree-dp", instance, &req) {
            Ok(dp) => {
                if let Some(e) = placement_error(&dp, instance) {
                    return Some(("invalid-placement".into(), format!("tree-dp: {e}")));
                }
            }
            Err(e) => return Some(("tree-dp-panic".into(), e)),
        }
    }
    None
}

/// True when `reversed`, a solve of the instance with its objects in
/// reverse order, places every object as `reference` does, with total
/// cost within 1e-9.
fn matches_reversed(reversed: &SolveReport, reference: &SolveReport) -> bool {
    let k = reference.placement.num_objects();
    (0..k).all(|x| reversed.placement.copies(k - 1 - x) == reference.placement.copies(x))
        && (reversed.cost.total() - reference.cost.total()).abs() < 1e-9
}

/// Where slot 0 of the warm chain differs from slot 0 of the cold chain
/// (cost bits, copies added, phase-1 moves), if anywhere.
fn warm_slot0_divergence(report: &TimelineReport) -> Option<String> {
    let s = report.slots.first()?;
    let warm = (s.warm_cost.to_bits(), s.warm_moved, s.warm_fl_moves);
    let cold = (s.cold_cost.to_bits(), s.cold_moved, s.cold_fl_moves);
    (warm != cold).then(|| {
        format!(
            "slot 0: warm cost {} / {} copies added / {} phase-1 moves vs cold {} / {} / {}",
            s.warm_cost, s.warm_moved, s.warm_fl_moves, s.cold_cost, s.cold_moved, s.cold_fl_moves
        )
    })
}

/// Shrink candidates of a failing scenario, most aggressive first.
fn shrink_candidates(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    let spec = s.timeline_spec();
    if spec.slots > 2 {
        out.push(Scenario {
            timeline: Some(TimelineSpec {
                slots: (spec.slots / 2).max(1),
                ..spec.clone()
            }),
            ..s.clone()
        });
    }
    if spec.churn_per_slot > 0 {
        out.push(Scenario {
            timeline: Some(TimelineSpec {
                churn_per_slot: 0,
                ..spec.clone()
            }),
            ..s.clone()
        });
    }
    if spec.park_fraction > 0.0 {
        out.push(Scenario {
            timeline: Some(TimelineSpec {
                park_fraction: 0.0,
                ..spec.clone()
            }),
            ..s.clone()
        });
    }
    if s.workload.num_objects > 1 {
        out.push(Scenario {
            workload: WorkloadParams {
                num_objects: s.workload.num_objects / 2,
                ..s.workload.clone()
            },
            ..s.clone()
        });
    }
    if let TopologyKind::Grid { rows, cols } = s.topology {
        if rows > 2 {
            out.push(Scenario {
                topology: TopologyKind::Grid {
                    rows: rows - 1,
                    cols,
                },
                nodes: (rows - 1) * cols,
                ..s.clone()
            });
        }
    } else if s.nodes > 4 {
        out.push(Scenario {
            nodes: s.nodes - 2,
            ..s.clone()
        });
    }
    if s.capacities.is_some() {
        out.push(Scenario {
            capacities: None,
            ..s.clone()
        });
    }
    out
}

/// Greedy shrink: repeatedly applies the first candidate reduction that
/// still reproduces *some* violation.
pub fn minimize(scenario: &Scenario) -> Scenario {
    let mut current = scenario.clone();
    loop {
        let mut shrunk = false;
        for candidate in shrink_candidates(&current) {
            if check_scenario(&candidate).is_some() {
                current = candidate;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

/// Runs the fuzzer: `cases` seeded scenarios through every invariant.
/// Violations are minimized; when `regress_dir` is set, each minimized
/// scenario is written there as `<kind>_case<idx>.json`.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzOutcome {
    // Engine panics are expected to be *caught*; silence the default
    // hook's stderr spew while the fuzzer probes for them.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut violations = Vec::new();
    for case in 0..cfg.cases {
        let scenario = case_scenario(cfg.seed, case);
        if check_scenario(&scenario).is_some() {
            let minimized = minimize(&scenario);
            let (kind, detail) = check_scenario(&minimized)
                .unwrap_or_else(|| ("unstable".into(), "violation vanished on re-run".into()));
            violations.push(Violation {
                case,
                kind,
                detail,
                scenario: Scenario {
                    name: format!("regress-case{case}"),
                    ..minimized
                },
            });
        }
    }
    std::panic::set_hook(hook);

    if let Some(dir) = &cfg.regress_dir {
        let _ = std::fs::create_dir_all(dir);
        for v in &violations {
            let path = dir.join(format!("{}_case{}.json", v.kind, v.case));
            let _ = std::fs::write(path, v.scenario.to_json().to_string_pretty());
        }
    }
    FuzzOutcome {
        cases: cfg.cases,
        engines: fuzz_engines(),
        violations,
    }
}

/// Replays every committed regression scenario in `dir` through the fuzz
/// oracle; returns the scenarios that *still* violate an invariant (a
/// fixed bug leaves its scenario green; a regression lights it up again).
///
/// # Errors
/// Returns a message when the directory cannot be read or a file does not
/// parse as a scenario.
pub fn replay_regressions(dir: &Path) -> Result<Vec<(String, String, String)>, String> {
    let corpus = Scenario::load_corpus(dir)?;
    let mut failing = Vec::new();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for (file, scenario) in corpus {
        if let Some((kind, detail)) = check_scenario(&scenario) {
            failing.push((file, kind, detail));
        }
    }
    std::panic::set_hook(hook);
    Ok(failing)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_scenarios_are_valid_and_deterministic() {
        for case in 0..12 {
            let a = case_scenario(7, case);
            let b = case_scenario(7, case);
            assert_eq!(
                a.to_json().to_string_pretty(),
                b.to_json().to_string_pretty()
            );
            assert!(a.try_build_instance().is_ok(), "case {case} must build");
            assert!(a.build_timeline().is_ok(), "case {case} timeline");
            // Round-trips through the scenario JSON codec (what the
            // regress corpus relies on).
            let back = Scenario::from_json(&a.to_json()).unwrap();
            assert_eq!(
                back.to_json().to_string_pretty(),
                a.to_json().to_string_pretty()
            );
        }
    }

    #[test]
    fn fuzz_smoke_is_clean() {
        // A bounded in-test sweep: every invariant over a few dozen seeded
        // cases. CI runs the full `experiments fuzz --cases 200` on top.
        let outcome = run_fuzz(&FuzzConfig {
            cases: 25,
            seed: 0xD1FF,
            regress_dir: None,
        });
        assert_eq!(outcome.cases, 25);
        assert!(
            outcome.clean(),
            "violations: {:#?}",
            outcome
                .violations
                .iter()
                .map(|v| format!("case {} [{}] {}", v.case, v.kind, v.detail))
                .collect::<Vec<_>>()
        );
        assert!(outcome.engines.len() >= 4, "at least 4 engines exercised");
        let rendered = outcome.to_json().to_string_pretty();
        for needle in ["\"cases\"", "\"engines\"", "\"violations\"", "\"clean\""] {
            assert!(rendered.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn check_scenario_flags_planted_violations() {
        // A scenario that cannot materialize (invalid timeline) is a
        // materialize-error, not a panic.
        let mut s = case_scenario(3, 0);
        s.timeline = Some(TimelineSpec {
            slots: 0,
            ..TimelineSpec::default()
        });
        let (kind, _) = check_scenario(&s).expect("invalid spec flagged");
        assert_eq!(kind, "materialize-error");
    }

    #[test]
    fn slot0_check_flags_a_diverging_warm_chain() {
        let scenario = crate::timeline::pinned_scenario();
        let report = run_timeline(&scenario, "approx", &SolveRequest::new()).unwrap();
        assert_eq!(warm_slot0_divergence(&report), None);
        let mut one_ulp = report.clone();
        one_ulp.slots[0].warm_cost = f64::from_bits(report.slots[0].warm_cost.to_bits() + 1);
        assert!(warm_slot0_divergence(&one_ulp).is_some(), "cost bits");
        let mut one_move = report;
        one_move.slots[0].warm_fl_moves += 1;
        assert!(warm_slot0_divergence(&one_move).is_some(), "phase-1 moves");
    }

    #[test]
    fn minimize_shrinks_while_preserving_the_violation() {
        let mut s = case_scenario(3, 1);
        s.timeline = Some(TimelineSpec {
            slots: 0, // invalid: every shrink still fails to materialize
            churn_per_slot: 1,
            park_fraction: 0.2,
            ..TimelineSpec::default()
        });
        s.workload.num_objects = 4;
        let m = minimize(&s);
        assert!(check_scenario(&m).is_some(), "violation preserved");
        assert_eq!(m.workload.num_objects, 1, "objects shrunk");
        assert_eq!(m.timeline_spec().churn_per_slot, 0, "churn shrunk");
    }
}
