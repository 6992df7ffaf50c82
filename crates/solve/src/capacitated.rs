//! The native capacitated placement engine (`capacitated`).
//!
//! Every engine honors `SolveRequest::capacities` through the greedy
//! post-hoc repair (`dmn_approx::enforce_capacities`) that
//! [`SolveReport::build`] applies uniformly. That keeps every engine
//! feasible but optimizes nothing — over-full nodes are unpiled one
//! cheapest move at a time with no global view. [`CapacitatedSolver`]
//! makes the capacity constraint first-class instead:
//!
//! 1. **inner solve** — `approx` produces the uncapacitated placement,
//!    i.e. the candidate open-copy sets;
//! 2. **two seeds** — the greedy repair of the inner placement, and the
//!    *flow seed* (`dmn_capacitated::single_copy_flow_placement`): the
//!    exact optimal capacitated single-copy placement by min-cost
//!    circulation over every finite-storage host for each object; the
//!    cheaper feasible seed wins;
//! 3. **capacitated local search**
//!    (`dmn_capacitated::capacitated_local_search`) — feasibility-
//!    preserving add/drop/swap refinement on the full objective, pricing
//!    moves through per-object nearest/second-nearest assignment tables.
//!
//! Because the search starts from the better of the two seeds and is
//! monotone cost-decreasing, the engine's cost never exceeds the greedy
//! repair's — the margin is reported in [`CapacityStats`] and gated in CI.
//! Without capacities in the request the engine is a transparent
//! pass-through to `approx`.

use std::time::Instant;

use dmn_approx::enforce_capacities;
use dmn_capacitated::{
    all_allowed, capacitated_local_search, single_copy_flow_placement, CapSearchConfig,
};
use dmn_core::cost::evaluate;
use dmn_core::instance::Instance;
use dmn_core::placement::Placement;

use crate::engines::ApproxSolver;
use crate::report::{CapacityStats, PhaseStat, SolveReport};
use crate::{SolveRequest, Solver};

/// The capacitated engine over the paper's approximation (`approx`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CapacitatedSolver;

impl Solver for CapacitatedSolver {
    fn name(&self) -> &'static str {
        "capacitated"
    }

    fn description(&self) -> &'static str {
        "native capacitated engine: approx open sets -> best of greedy repair \
         and min-cost-flow seed -> capacity-aware local search; cost <= greedy repair"
    }

    /// # Panics
    /// Panics when the capacities cannot hold one copy per object
    /// (matching the uniform repair's contract in [`SolveReport::build`]).
    fn solve(&self, instance: &Instance, req: &SolveRequest) -> SolveReport {
        let started = Instant::now();

        // `approx` must hand over its *raw* open sets — stripping the
        // capacities here keeps the uniform repair in `SolveReport::build`
        // from pre-empting the native pipeline.
        let mut inner_req = req.clone();
        inner_req.capacities = None;
        let inner_report = ApproxSolver.solve(instance, &inner_req);

        let Some(cap) = &req.capacities else {
            // No copy capacities to constrain: pass through.
            let mut report = inner_report;
            report.meta.push(("inner", "approx".to_string()));
            report
                .meta
                .push(("capacity-model", "none (no capacities requested)".into()));
            report.solver = self.name();
            return report;
        };
        let inner_phase = PhaseStat::new(
            "inner-solve",
            inner_report.wall_seconds,
            format!(
                "approx: cost {:.2} uncapacitated",
                inner_report.cost.total()
            ),
        );
        let cost_of = |p: &Placement| evaluate(instance, p, req.policy).total();

        let clock = Instant::now();
        let repaired = enforce_capacities(instance, &inner_report.placement, cap)
            .expect("capacity constraints must be feasible");
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
        // The incremental move pricing mirrors the evaluator's arithmetic,
        // but guard the monotonicity contract against float drift
        // regardless: the engine must never report worse than its seed (and
        // hence the repair).
        if final_cost > start_cost {
            placement = start;
            final_cost = start_cost;
        }
        let search_secs = clock.elapsed().as_secs_f64();

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
        };
        let phases = vec![
            inner_phase,
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
        let meta = vec![
            ("inner", "approx".to_string()),
            ("cap-seed", seed_name.to_string()),
            (
                "cap-margin-vs-repair",
                format!("{:.4}", stats.margin_vs_repair),
            ),
        ];
        let mut report = SolveReport::build(
            self.name(),
            instance,
            req,
            placement,
            phases,
            None,
            meta,
            started,
        );
        report.capacity = Some(stats);
        if inner_report.degraded {
            report = report.mark_degraded(inner_report.deadline_exceeded);
        }
        report
    }
}
