//! The native capacitated placement engine (`capacitated` / `cap:<inner>`).
//!
//! `SolveRequest::capacities` used to be honored by exactly one mechanism:
//! the greedy post-hoc repair (`dmn_approx::enforce_capacities`) applied
//! uniformly by [`SolveReport::build`]. That keeps every engine feasible
//! but optimizes nothing — over-full nodes are unpiled one cheapest move
//! at a time with no global view. [`CapacitatedSolver`] makes the capacity
//! constraint first-class instead:
//!
//! 1. **inner solve** — any base registry engine (default `approx`)
//!    produces the uncapacitated placement, i.e. the candidate open-copy
//!    sets;
//! 2. **two seeds** — the greedy repair of the inner placement, and the
//!    *flow seed* (`dmn_capacitated::single_copy_flow_placement`): the
//!    exact optimal capacitated single-copy placement by min-cost
//!    circulation over every finite-storage host for each object; the
//!    cheaper feasible seed wins;
//! 3. **capacitated local search**
//!    (`dmn_capacitated::capacitated_local_search`) — feasibility-
//!    preserving add/drop/swap refinement on the full objective, pricing
//!    moves through per-object nearest/second-nearest assignment tables;
//! 4. optionally, when `SolveRequest::load_capacities` is set, the
//!    **cross-object global assignment flow** reprices the final
//!    placement's serve legs under shared per-node service budgets.
//!
//! Because the search starts from the better of the two seeds and is
//! monotone cost-decreasing, the engine's cost never exceeds the greedy
//! repair's — the margin is reported in [`CapacityStats`] and gated in CI.
//! Without capacities in the request the engine is a transparent
//! pass-through to its inner engine.

use std::time::Instant;

use dmn_approx::enforce_capacities;
use dmn_capacitated::{
    all_allowed, assign_global, capacitated_local_search, single_copy_flow_placement,
    CapSearchConfig,
};
use dmn_core::cost::evaluate;
use dmn_core::instance::Instance;
use dmn_core::placement::Placement;

use crate::report::{CapacityStats, PhaseStat, SolveReport};
use crate::sharded::intern;
use crate::{SolveRequest, Solver, Unsupported};

/// A capacitated meta-engine over an inner registry engine.
///
/// Construct via [`CapacitatedSolver::approx`] (the canonical
/// `capacitated` entry, inner `approx`) or [`CapacitatedSolver::over`]
/// (any base engine, registry name `cap:<inner>`).
#[derive(Debug, Clone, Copy)]
pub struct CapacitatedSolver {
    inner: &'static str,
    name: &'static str,
    description: &'static str,
}

impl CapacitatedSolver {
    /// The canonical capacitated engine over the paper's approximation.
    pub fn approx() -> CapacitatedSolver {
        CapacitatedSolver {
            inner: "approx",
            name: "capacitated",
            description: "native capacitated engine: approx open sets -> best of greedy repair \
                 and min-cost-flow seed -> capacity-aware local search; cost <= greedy repair",
        }
    }

    /// A capacitated wrapper over any *base* (non-meta) registry engine.
    /// Returns `None` for unknown inner names and for nested meta engines;
    /// [`SolverSpec::parse`](crate::SolverSpec::parse) on the full
    /// `cap:<inner>` spelling reports the reason.
    pub fn over(inner: &str) -> Option<CapacitatedSolver> {
        match crate::spec::SolverSpec::parse(inner).ok()? {
            crate::spec::SolverSpec::Base(base) => Some(CapacitatedSolver::for_base(base)),
            _ => None,
        }
    }

    /// Parses any spelling of a capacitated engine name (`capacitated`,
    /// `cap:<inner>`); `None` when `name` is not capacitated-family.
    pub fn parse(name: &str) -> Option<CapacitatedSolver> {
        match crate::spec::SolverSpec::parse(name).ok()? {
            crate::spec::SolverSpec::Capacitated(inner) => match *inner {
                crate::spec::SolverSpec::Base(base) => Some(CapacitatedSolver::for_base(base)),
                _ => None,
            },
            _ => None,
        }
    }

    /// The engine over a known-canonical base name.
    fn for_base(base: &'static str) -> CapacitatedSolver {
        if base == "approx" {
            return CapacitatedSolver::approx();
        }
        CapacitatedSolver {
            inner: base,
            name: intern(format!("cap:{base}")),
            description: intern(format!(
                "native capacitated engine over {base}: flow seed + capacity-aware local \
                 search; cost <= greedy repair of {base}"
            )),
        }
    }

    /// The inner engine's registry name.
    pub fn inner_name(&self) -> &'static str {
        self.inner
    }
}

impl Solver for CapacitatedSolver {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn supports(&self, instance: &Instance) -> Result<(), Unsupported> {
        crate::registry::solvers::by_name(self.inner)
            .expect("inner engine registered")
            .supports(instance)
    }

    fn solve(&self, instance: &Instance, req: &SolveRequest) -> SolveReport {
        let started = Instant::now();
        let inner = crate::registry::solvers::by_name(self.inner).expect("inner engine registered");
        inner.supports(instance).expect("solver applicability");

        // The inner engine must hand over its *raw* open sets — stripping
        // the capacities here keeps the uniform repair in
        // `SolveReport::build` from pre-empting the native pipeline.
        let mut inner_req = req.clone();
        inner_req.cap.capacities = None;
        let inner_report = inner.solve(instance, &inner_req);

        if req.cap.capacities.is_none() {
            // No copy capacities to constrain: pass through — but a
            // service-load-only request still gets its assignment repriced
            // (the documented `load_capacities` contract does not depend
            // on copy caps being set).
            let mut report = inner_report;
            report.meta.push(("inner", self.inner.to_string()));
            match load_only_stats(instance, req, &report) {
                Some(stats) => {
                    report
                        .meta
                        .push(("capacity-model", "service-load only".into()));
                    if let Some(lf) = stats.load_feasible {
                        report.meta.push(("load-feasible", lf.to_string()));
                    }
                    report.capacity = Some(stats);
                }
                None => report
                    .meta
                    .push(("capacity-model", "none (no capacities requested)".into())),
            }
            report.solver = self.name();
            return report;
        }

        let mut phases = vec![PhaseStat::new(
            "inner-solve",
            inner_report.wall_seconds,
            format!(
                "{}: cost {:.2} uncapacitated",
                self.inner,
                inner_report.cost.total()
            ),
        )];
        let inner_degraded = inner_report.degraded;
        let inner_deadline = inner_report.deadline_exceeded;
        let fin = finish(instance, req, inner_report.placement);
        phases.extend(fin.phases);
        let mut meta = vec![("inner", self.inner.to_string())];
        meta.extend(fin.meta);
        let mut report = SolveReport::build(
            self.name(),
            instance,
            req,
            fin.placement,
            phases,
            None,
            meta,
            started,
        );
        report.capacity = Some(fin.stats);
        if inner_degraded {
            report = report.mark_degraded(inner_deadline);
        }
        report
    }
}

/// [`CapacityStats`] for a solve constrained only by service-load budgets
/// (`SolveRequest::load_capacities` without copy capacities): no repair or
/// search ran, so the copy-side fields collapse to the report's own cost,
/// and the assignment flow provides the load verdict. `None` when the
/// request has no load budgets either.
pub(crate) fn load_only_stats(
    instance: &Instance,
    req: &SolveRequest,
    report: &SolveReport,
) -> Option<CapacityStats> {
    let budgets = req.cap.load_capacities.as_ref()?;
    let (assignment_cost, load_feasible) = match assign_global(instance, &report.placement, budgets)
    {
        Some(a) => (Some(a.cost), Some(true)),
        None => (None, Some(false)),
    };
    let total = report.cost.total();
    Some(CapacityStats {
        feasible: true,
        repair_cost: total,
        flow_seed_cost: None,
        final_cost: total,
        margin_vs_repair: 0.0,
        moves: 0,
        candidates: 0,
        rounds: 0,
        assignment_cost,
        load_feasible,
    })
}

/// Output of the shared capacitated finishing pipeline.
pub(crate) struct CapFinish {
    pub placement: Placement,
    pub phases: Vec<PhaseStat>,
    pub meta: Vec<(&'static str, String)>,
    pub stats: CapacityStats,
}

/// The capacitated finishing pipeline on raw (possibly infeasible) open
/// sets: greedy repair vs flow seed, capacitated local search, optional
/// global load-capped assignment. Shared by [`CapacitatedSolver`] and the
/// post-merge pass of `sharded:capacitated`.
///
/// # Panics
/// Panics when the capacities cannot hold one copy per object (matching
/// the uniform repair's contract in [`SolveReport::build`]).
pub(crate) fn finish(instance: &Instance, req: &SolveRequest, raw: Placement) -> CapFinish {
    let cap = req
        .cap
        .capacities
        .as_ref()
        .expect("capacitated finish requires capacities");
    let cost_of = |p: &Placement| evaluate(instance, p, req.policy).total();

    let clock = Instant::now();
    let repaired =
        enforce_capacities(instance, &raw, cap).expect("capacity constraints must be feasible");
    let repair_cost = cost_of(&repaired);
    let repair_secs = clock.elapsed().as_secs_f64();

    let clock = Instant::now();
    let candidates = vec![all_allowed(instance); instance.num_objects()];
    let flow_seed = single_copy_flow_placement(instance, cap, &candidates);
    let flow_seed_cost = flow_seed.as_ref().map(cost_of);
    let flow_secs = clock.elapsed().as_secs_f64();

    let (start, start_cost, seed_name) = match (flow_seed, flow_seed_cost) {
        (Some(p), Some(fc)) if fc < repair_cost => (p, fc, "flow"),
        _ => (repaired, repair_cost, "greedy-repair"),
    };

    let clock = Instant::now();
    let (mut placement, search) =
        capacitated_local_search(instance, cap, &start, &CapSearchConfig::default());
    let mut final_cost = cost_of(&placement);
    // The incremental move pricing mirrors the evaluator's arithmetic, but
    // guard the monotonicity contract against float drift regardless: the
    // engine must never report worse than its seed (and hence the repair).
    if final_cost > start_cost {
        placement = start;
        final_cost = start_cost;
    }
    let search_secs = clock.elapsed().as_secs_f64();

    let (assignment_cost, load_feasible) = match &req.cap.load_capacities {
        None => (None, None),
        Some(budgets) => match assign_global(instance, &placement, budgets) {
            Some(a) => (Some(a.cost), Some(true)),
            None => (None, Some(false)),
        },
    };

    let stats = CapacityStats {
        feasible: dmn_approx::respects_capacities(&placement, cap),
        repair_cost,
        flow_seed_cost,
        final_cost,
        margin_vs_repair: if repair_cost > 0.0 {
            (repair_cost - final_cost) / repair_cost
        } else {
            0.0
        },
        moves: search.moves,
        candidates: search.candidates,
        rounds: search.rounds,
        assignment_cost,
        load_feasible,
    };
    let phases = vec![
        PhaseStat::new(
            "greedy-repair",
            repair_secs,
            format!("baseline cost {repair_cost:.2}"),
        ),
        PhaseStat::new(
            "flow-seed",
            flow_secs,
            match flow_seed_cost {
                Some(c) => format!("single-copy optimum {c:.2}"),
                None => "infeasible within candidates".to_string(),
            },
        ),
        PhaseStat::new(
            "cap-local-search",
            search_secs,
            format!(
                "{} moves / {} candidates / {} rounds -> cost {final_cost:.2}",
                search.moves, search.candidates, search.rounds
            ),
        ),
    ];
    let mut meta = vec![
        ("cap-seed", seed_name.to_string()),
        (
            "cap-margin-vs-repair",
            format!("{:.4}", stats.margin_vs_repair),
        ),
    ];
    if let Some(lf) = load_feasible {
        meta.push(("load-feasible", lf.to_string()));
    }
    CapFinish {
        placement,
        phases,
        meta,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn over_validates_inner_names() {
        assert_eq!(
            CapacitatedSolver::over("approx").unwrap().name(),
            "capacitated"
        );
        assert_eq!(
            CapacitatedSolver::over("krw").unwrap().name(),
            "capacitated"
        );
        let g = CapacitatedSolver::over("greedy-local").unwrap();
        assert_eq!(g.name(), "cap:greedy-local");
        assert_eq!(g.inner_name(), "greedy-local");
        assert!(CapacitatedSolver::over("no-such").is_none());
        assert!(
            CapacitatedSolver::over("sharded-approx").is_none(),
            "no nesting"
        );
        assert!(
            CapacitatedSolver::over("capacitated").is_none(),
            "no nesting"
        );
    }

    #[test]
    fn parse_accepts_both_spellings() {
        assert_eq!(
            CapacitatedSolver::parse("capacitated")
                .unwrap()
                .inner_name(),
            "approx"
        );
        assert_eq!(
            CapacitatedSolver::parse("cap:tree-dp").unwrap().name(),
            "cap:tree-dp"
        );
        assert_eq!(
            CapacitatedSolver::parse("cap:approx").unwrap().name(),
            "capacitated",
            "cap:approx collapses to the canonical name"
        );
        assert!(CapacitatedSolver::parse("approx").is_none());
        assert!(CapacitatedSolver::parse("cap:cap:approx").is_none());
    }
}
