//! Solve results: placement, cost breakdown, phase statistics, metadata.

use std::fmt;

use dmn_approx::PhaseTrace;
use dmn_core::cost::{evaluate_sparse_threads, evaluate_threads, CostBreakdown, UpdatePolicy};
use dmn_core::instance::Instance;
use dmn_core::placement::Placement;
use dmn_json::Json;

use crate::SolveRequest;

/// One timed stage of a solve run.
///
/// Engines derive these seconds from [`dmn_core::telemetry`] spans (via
/// the `PhaseTimings` shim in `dmn-approx`), so the report's phase
/// breakdown and the telemetry span ring always agree on where solve
/// time went.
#[derive(Debug, Clone)]
pub struct PhaseStat {
    /// Phase name (e.g. `facility-location`, `radius-add`).
    pub name: &'static str,
    /// Seconds spent in the phase, summed over the per-object times.
    /// Objects are timed on parallel worker threads, so this is summed
    /// busy time, not wall-clock time, and can exceed
    /// [`SolveReport::wall_seconds`].
    pub seconds: f64,
    /// Free-form detail (copy counts, backend, ...).
    pub detail: String,
}

impl PhaseStat {
    /// Creates a phase entry.
    pub fn new(name: &'static str, seconds: f64, detail: impl Into<String>) -> Self {
        PhaseStat {
            name,
            seconds,
            detail: detail.into(),
        }
    }
}

/// Capacity-model accounting of one capacitated solve: the feasibility
/// verdict, the greedy-repair baseline the native engine is gated
/// against, and the flow/search work that produced the final placement.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CapacityStats {
    /// The final placement respects the per-node copy capacities.
    pub feasible: bool,
    /// Cost of the greedy-repaired inner placement (the baseline the
    /// native engine must not exceed).
    pub repair_cost: f64,
    /// Cost of the flow seed (optimal capacitated single-copy placement),
    /// when one existed within the candidate sets.
    pub flow_seed_cost: Option<f64>,
    /// Cost of the final capacitated placement (equals the report's
    /// headline total under the same policy).
    pub final_cost: f64,
    /// Relative saving over the greedy repair:
    /// `(repair_cost − final_cost) / repair_cost`.
    pub margin_vs_repair: f64,
    /// Local-search moves applied.
    pub moves: usize,
    /// Local-search candidates priced.
    pub candidates: usize,
    /// Local-search passes over the object set.
    pub rounds: usize,
    /// Optimal client→copy assignment cost under the requested
    /// service-load budgets (`SolveRequest::load_capacities`), when set
    /// and feasible.
    pub assignment_cost: Option<f64>,
    /// Whether the service-load budgets admit a feasible assignment
    /// (`None` when no budgets were requested).
    pub load_feasible: Option<bool>,
}

/// The result of one [`Solver::solve`](crate::Solver::solve) call.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Registry name of the engine that produced the report.
    pub solver: &'static str,
    /// The computed placement (one non-empty copy set per object).
    pub placement: Placement,
    /// Full cost decomposition under [`SolveReport::policy`].
    pub cost: CostBreakdown,
    /// The update-cost accounting policy used for `cost`.
    pub policy: UpdatePolicy,
    /// Timed solve stages in execution order.
    pub phases: Vec<PhaseStat>,
    /// Per-object per-phase copy-set traces, when requested and the engine
    /// has phase structure.
    pub traces: Option<Vec<PhaseTrace>>,
    /// Engine metadata as key/value pairs (backend, native objective, ...).
    pub meta: Vec<(&'static str, String)>,
    /// End-to-end wall-clock seconds of the solve call.
    pub wall_seconds: f64,
    /// Capacity-model breakdown; `None` for non-capacitated solves.
    pub capacity: Option<CapacityStats>,
    /// The engine returned a valid but knowingly sub-optimal placement
    /// (e.g. a fallback after the solve budget expired). The placement is
    /// always feasible; only optimization quality was sacrificed.
    pub degraded: bool,
    /// The solve's wall-clock budget ([`RobustOpts::deadline_seconds`])
    /// expired before the engine finished refining. Implies `degraded`.
    ///
    /// [`RobustOpts::deadline_seconds`]: crate::RobustOpts
    pub deadline_exceeded: bool,
}

impl SolveReport {
    /// Assembles a report from an engine's raw placement: applies the
    /// optional capacity repair, evaluates the cost under the requested
    /// policy, and stamps the wall clock. This is the one constructor every
    /// engine (in-crate and third-party) funnels through, so request
    /// handling stays uniform.
    ///
    /// # Panics
    /// Panics when capacities are requested but infeasible (less total
    /// capacity than objects).
    #[allow(clippy::too_many_arguments)] // the one funnel for every engine's raw parts
    pub fn build(
        solver: &'static str,
        instance: &Instance,
        req: &SolveRequest,
        placement: Placement,
        mut phases: Vec<PhaseStat>,
        traces: Option<Vec<PhaseTrace>>,
        mut meta: Vec<(&'static str, String)>,
        started: std::time::Instant,
    ) -> SolveReport {
        let placement = match &req.cap.capacities {
            None => placement,
            Some(cap) => {
                let clock = std::time::Instant::now();
                let before = placement.total_copies();
                let repaired = dmn_approx::enforce_capacities(instance, &placement, cap)
                    .expect("capacity constraints must be feasible");
                phases.push(PhaseStat::new(
                    "capacity-repair",
                    clock.elapsed().as_secs_f64(),
                    format!("{} -> {} copies", before, repaired.total_copies()),
                ));
                repaired
            }
        };
        // A sparse-backend solve must stay sub-quadratic end to end, so its
        // cost is evaluated per object over copy-rooted Dijkstra rows
        // instead of the dense closure. The two dense fallbacks: exact
        // Steiner accounting enumerates over the full metric, and the
        // capacity repair above already forced the closure. Objects are
        // evaluated on the solve's worker cap and summed in object order.
        let sparse_eval = req.wants_sparse_metric()
            && req.cap.capacities.is_none()
            && req.policy != UpdatePolicy::ExactSteiner;
        let cost = if sparse_eval {
            evaluate_sparse_threads(instance, &placement, req.policy, req.max_threads)
        } else {
            evaluate_threads(instance, &placement, req.policy, req.max_threads)
        };
        // Every report surfaces the closure-build phase: engines on the
        // sparse path push their own `metric-build` entry (truncated rows);
        // everyone else gets the instance's dense APSP build time (0 when
        // the closure was injected or inherited rather than built here).
        if !phases.iter().any(|p| p.name == "metric-build") {
            phases.insert(
                0,
                PhaseStat::new(
                    "metric-build",
                    instance.metric_build_seconds(),
                    "dense APSP closure (cached on the instance)",
                ),
            );
        }
        meta.push(("policy", policy_name(req.policy).to_string()));
        SolveReport {
            solver,
            placement,
            cost,
            policy: req.policy,
            phases,
            traces,
            meta,
            wall_seconds: started.elapsed().as_secs_f64(),
            capacity: None,
            degraded: false,
            deadline_exceeded: false,
        }
    }

    /// Marks the report degraded (and optionally deadline-exceeded),
    /// returning it for chaining. Wrapper engines use this to propagate
    /// inner degradation through their own re-built reports.
    pub fn mark_degraded(mut self, deadline_exceeded: bool) -> SolveReport {
        self.degraded = true;
        self.deadline_exceeded |= deadline_exceeded;
        self
    }

    /// The metadata value under `key`, when present.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Total copies across all objects.
    pub fn total_copies(&self) -> usize {
        self.placement.total_copies()
    }

    /// Seconds spent building distance closures for this solve (the
    /// `metric-build` phase every report carries: dense APSP seconds, or
    /// the summed truncated-closure time on the sparse path).
    pub fn metric_build_seconds(&self) -> f64 {
        self.phases
            .iter()
            .find(|p| p.name == "metric-build")
            .map_or(0.0, |p| p.seconds)
    }

    /// A meta counter as a number (0 when absent or unparsable).
    fn meta_count(&self, key: &str) -> f64 {
        self.meta_value(key)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    }

    /// The machine-readable rendering of the report: cost breakdown,
    /// per-phase timings, FL counters, and the capacity section when
    /// present. This is the one serialization every consumer
    /// shares — the `sweep` binary and the `dmn-server` status
    /// endpoint both emit it, so field
    /// names stay diffable across tools.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("solver", Json::Str(self.solver.to_string())),
            (
                "fl_backend",
                Json::Str(self.meta_value("fl-backend").unwrap_or("-").to_string()),
            ),
            ("total_cost", Json::Num(self.cost.total())),
            ("storage_cost", Json::Num(self.cost.storage)),
            ("read_cost", Json::Num(self.cost.read)),
            ("update_cost", Json::Num(self.cost.update())),
            ("total_copies", Json::Num(self.total_copies() as f64)),
            ("wall_seconds", Json::Num(self.wall_seconds)),
            (
                "metric_build_seconds",
                Json::Num(self.metric_build_seconds()),
            ),
            (
                "metric_backend",
                Json::Str(
                    self.meta_value("metric-backend")
                        .unwrap_or("dense")
                        .to_string(),
                ),
            ),
            ("fl_moves", Json::Num(self.meta_count("fl-moves"))),
            ("fl_candidates", Json::Num(self.meta_count("fl-candidates"))),
            ("fl_repriced", Json::Num(self.meta_count("fl-repriced"))),
            ("degraded", Json::Bool(self.degraded)),
            ("deadline_exceeded", Json::Bool(self.deadline_exceeded)),
            (
                "phases",
                Json::arr(self.phases.iter().map(|p| {
                    Json::obj([
                        ("name", Json::Str(p.name.to_string())),
                        ("seconds", Json::Num(p.seconds)),
                    ])
                })),
            ),
        ];
        if let Some(c) = &self.capacity {
            fields.push((
                "capacity",
                Json::obj([
                    ("feasible", Json::Bool(c.feasible)),
                    ("repair_cost", Json::Num(c.repair_cost)),
                    (
                        "flow_seed_cost",
                        c.flow_seed_cost.map_or(Json::Null, Json::Num),
                    ),
                    ("final_cost", Json::Num(c.final_cost)),
                    ("margin_vs_repair", Json::Num(c.margin_vs_repair)),
                    ("moves", Json::Num(c.moves as f64)),
                    ("rounds", Json::Num(c.rounds as f64)),
                ]),
            ));
        }
        Json::obj(fields)
    }
}

/// Stable kebab-case name of an update policy.
pub fn policy_name(policy: UpdatePolicy) -> &'static str {
    match policy {
        UpdatePolicy::MstMulticast => "mst-multicast",
        UpdatePolicy::ExactSteiner => "exact-steiner",
        UpdatePolicy::UnicastStar => "unicast-star",
    }
}

fn fmt_seconds(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

impl fmt::Display for SolveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "solver {} | {} objects, {} copies | wall {}{}",
            self.solver,
            self.placement.num_objects(),
            self.total_copies(),
            fmt_seconds(self.wall_seconds),
            if self.deadline_exceeded {
                " | DEGRADED (deadline exceeded)"
            } else if self.degraded {
                " | DEGRADED"
            } else {
                ""
            }
        )?;
        writeln!(
            f,
            "  cost ({}): storage {:.2} + read {:.2} + update {:.2} = {:.2}",
            policy_name(self.policy),
            self.cost.storage,
            self.cost.read,
            self.cost.update(),
            self.cost.total()
        )?;
        for p in &self.phases {
            writeln!(
                f,
                "  phase {:<18} {:>10}  {}",
                p.name,
                fmt_seconds(p.seconds),
                p.detail
            )?;
        }
        if let Some(c) = &self.capacity {
            writeln!(
                f,
                "  capacitated: final {:.2} vs greedy repair {:.2} ({:+.1}% margin) | \
                 {} moves / {} candidates / {} rounds{}",
                c.final_cost,
                c.repair_cost,
                c.margin_vs_repair * 100.0,
                c.moves,
                c.candidates,
                c.rounds,
                match c.assignment_cost {
                    Some(a) => format!(" | load-capped assignment {a:.2}"),
                    None => String::new(),
                }
            )?;
        }
        for (k, v) in &self.meta {
            writeln!(f, "  {k} = {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmn_core::instance::ObjectWorkload;
    use dmn_graph::generators;

    fn tiny_instance() -> Instance {
        let g = generators::path(3, |_| 1.0);
        let mut inst = Instance::builder(g).uniform_storage_cost(5.0).build();
        let mut w = ObjectWorkload::new(3);
        w.reads[0] = 2.0;
        w.writes[2] = 3.0;
        inst.push_object(w);
        inst
    }

    #[test]
    fn build_evaluates_under_requested_policy() {
        let inst = tiny_instance();
        let req = SolveRequest::new();
        let placement = Placement::from_copy_sets(vec![vec![1]]);
        let report = SolveReport::build(
            "test",
            &inst,
            &req,
            placement,
            vec![PhaseStat::new("only", 0.001, "x")],
            None,
            vec![],
            std::time::Instant::now(),
        );
        // Matches the single_copy_costs fixture in dmn-core.
        assert_eq!(report.cost.total(), 10.0);
        assert_eq!(report.meta_value("policy"), Some("mst-multicast"));
        assert_eq!(report.total_copies(), 1);
    }

    #[test]
    fn build_applies_capacity_repair() {
        let g = generators::path(3, |_| 1.0);
        let mut inst = Instance::builder(g).uniform_storage_cost(0.1).build();
        for _ in 0..2 {
            inst.push_object(ObjectWorkload::from_sparse(3, [(0, 2.0)], []));
        }
        let req = SolveRequest::new().capacities(vec![1, 1, 1]);
        let piled = Placement::from_copy_sets(vec![vec![0], vec![0]]);
        let report = SolveReport::build(
            "test",
            &inst,
            &req,
            piled,
            vec![],
            None,
            vec![],
            std::time::Instant::now(),
        );
        assert!(dmn_approx::respects_capacities(
            &report.placement,
            &[1, 1, 1]
        ));
        // The repair phase plus the uniform metric-build entry (inserted
        // at the front of every report that lacks one).
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[0].name, "metric-build");
        assert_eq!(report.phases[1].name, "capacity-repair");
    }

    #[test]
    fn every_report_carries_a_metric_build_phase() {
        let inst = tiny_instance();
        let report = SolveReport::build(
            "test",
            &inst,
            &SolveRequest::new(),
            Placement::from_copy_sets(vec![vec![1]]),
            vec![],
            None,
            vec![],
            std::time::Instant::now(),
        );
        assert_eq!(report.phases[0].name, "metric-build");
        // The evaluation above forced the dense closure, so the build time
        // it reports is the instance's.
        assert_eq!(
            report.metric_build_seconds(),
            inst.metric_build_seconds(),
            "dense metric-build phase mirrors the instance's APSP timing"
        );
        let json = report.to_json();
        assert!(json.get("metric_build_seconds").is_some());
        assert_eq!(json.get("metric_backend").unwrap().as_str(), Some("dense"));
        // An engine that already supplied its own entry is left alone.
        let report = SolveReport::build(
            "test",
            &inst,
            &SolveRequest::new(),
            Placement::from_copy_sets(vec![vec![1]]),
            vec![PhaseStat::new("metric-build", 0.25, "sparse rows")],
            None,
            vec![],
            std::time::Instant::now(),
        );
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.metric_build_seconds(), 0.25);
    }

    #[test]
    fn to_json_covers_every_section_and_roundtrips() {
        let inst = tiny_instance();
        let mut report = SolveReport::build(
            "test",
            &inst,
            &SolveRequest::new(),
            Placement::from_copy_sets(vec![vec![1]]),
            vec![PhaseStat::new("alpha", 0.5, "detail")],
            None,
            vec![
                ("fl-moves", "7".into()),
                ("fl-repriced", "2".into()),
                ("fl-backend", "beta".into()),
            ],
            std::time::Instant::now(),
        );
        report.capacity = Some(CapacityStats {
            feasible: true,
            repair_cost: 12.0,
            final_cost: 10.0,
            margin_vs_repair: 1.0 / 6.0,
            ..Default::default()
        });
        let json = report.to_json();
        assert_eq!(json.get("solver").unwrap().as_str(), Some("test"));
        assert_eq!(json.get("total_cost").unwrap().as_f64(), Some(10.0));
        assert_eq!(json.get("fl_moves").unwrap().as_f64(), Some(7.0));
        assert_eq!(json.get("fl_repriced").unwrap().as_f64(), Some(2.0));
        assert!(report.to_string().contains("fl-repriced = 2"));
        assert_eq!(json.get("fl_backend").unwrap().as_str(), Some("beta"));
        assert_eq!(
            json.get("capacity").unwrap().get("repair_cost").unwrap(),
            &Json::Num(12.0)
        );
        let text = json.to_string_pretty();
        assert_eq!(dmn_json::parse(&text).unwrap(), json, "round-trips");
    }

    #[test]
    fn degraded_flags_default_false_and_serialize() {
        let inst = tiny_instance();
        let report = SolveReport::build(
            "test",
            &inst,
            &SolveRequest::new(),
            Placement::from_copy_sets(vec![vec![1]]),
            vec![],
            None,
            vec![],
            std::time::Instant::now(),
        );
        assert!(!report.degraded && !report.deadline_exceeded);
        let json = report.to_json();
        assert_eq!(json.get("degraded"), Some(&Json::Bool(false)));
        assert_eq!(json.get("deadline_exceeded"), Some(&Json::Bool(false)));
        assert!(!report.to_string().contains("DEGRADED"));

        let report = report.mark_degraded(true);
        assert!(report.degraded && report.deadline_exceeded);
        assert_eq!(report.to_json().get("degraded"), Some(&Json::Bool(true)));
        assert!(report.to_string().contains("DEGRADED (deadline exceeded)"));
    }

    #[test]
    fn display_renders_all_sections() {
        let inst = tiny_instance();
        let report = SolveReport::build(
            "test",
            &inst,
            &SolveRequest::new(),
            Placement::from_copy_sets(vec![vec![1]]),
            vec![PhaseStat::new("alpha", 0.5, "detail-text")],
            None,
            vec![("backend", "beta".into())],
            std::time::Instant::now(),
        );
        let text = report.to_string();
        assert!(text.contains("solver test"), "{text}");
        assert!(text.contains("alpha"), "{text}");
        assert!(text.contains("detail-text"), "{text}");
        assert!(text.contains("backend = beta"), "{text}");
        assert!(text.contains("= 10.00"), "{text}");
    }
}
