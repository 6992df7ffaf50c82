//! Adapters implementing [`Solver`] for every placement engine in the
//! workspace.
//!
//! Each adapter is a thin wrapper over the engine crate's existing entry
//! point — the algorithms themselves live (and stay) in `dmn-approx`,
//! `dmn-tree`, and `dmn-exact`; this module only standardizes their
//! invocation and reporting. Placements and native costs are bit-identical
//! to the direct calls (the golden-value tests in `tests/registry.rs` pin
//! that down).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dmn_approx::baselines;
use dmn_approx::{place_object_with, MetricSource, PhaseTimings, PhaseTrace, PlaceOutcome};
use dmn_core::faults;
use dmn_core::instance::{Instance, ObjectWorkload};
use dmn_core::parallel::{par_map_threads, par_map_threads_with};
use dmn_core::placement::Placement;
use dmn_core::telemetry;
use dmn_exact::solver::MAX_EXACT_NODES;
use dmn_exact::{optimal_placement, optimal_restricted};
use dmn_facility::FlWorkspace;
use dmn_graph::tree::RootedTree;
use dmn_tree::optimal_tree_general;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::report::{PhaseStat, SolveReport};
use crate::{unsupported, SolveRequest, Solver, Unsupported};

/// The always-feasible single-copy fallback used when a solve deadline
/// expires mid-run: the finite-storage node carrying the most of the
/// object's request mass (cheapest storage breaks ties). `O(n)` per
/// object — cheap enough that an expired deadline still terminates
/// promptly with a valid placement.
fn fallback_copy_set(storage_cost: &[f64], w: &ObjectWorkload) -> Vec<usize> {
    let mut best: Option<(usize, f64, f64)> = None;
    for (v, &cs) in storage_cost.iter().enumerate() {
        if !cs.is_finite() {
            continue;
        }
        let mass = w.request_mass(v);
        if best.is_none_or(|(_, bm, bcs)| mass > bm || (mass == bm && cs < bcs)) {
            best = Some((v, mass, cs));
        }
    }
    let (v, _, _) = best.expect("an object needs at least one finite-storage node");
    vec![v]
}

/// Seconds since `started`, less the dense APSP build that ran since
/// then ([`Instance::metric_build_seconds_since`]): [`SolveReport::build`]
/// reports that build as its own `metric-build` phase.
fn seconds_less_metric_build(instance: &Instance, started: Instant) -> f64 {
    started.elapsed().as_secs_f64() - instance.metric_build_seconds_since(started)
}

/// The paper's three-phase constant-factor approximation (Section 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct ApproxSolver;

impl Solver for ApproxSolver {
    fn name(&self) -> &'static str {
        "approx"
    }

    fn description(&self) -> &'static str {
        "SPAA'01 Section 2: FL + radius add + radius prune; constant-factor, \
         O(FL + n^2) per object, any network"
    }

    /// Solves every object through [`place_object_with`] on the requested
    /// metric source. The sparse backend
    /// ([`MetricBackend::Sparse`](crate::request::MetricBackend)) gives each
    /// object a truncated closure over a candidate ball around its clients,
    /// so the dense `O(n^2)` APSP table is never built. Of that closure it
    /// builds only the rows the phases read: the clients' rows (every
    /// ball row for a cold phase-1 backend that reads others) and the
    /// rows of copies that are not clients. It is trajectory-identical to
    /// the dense backend whenever an object's ball covers every node (the
    /// equivalence tests pin this). The report's meta carries the ball
    /// size as `sparse-candidate-rows` and the rows built as
    /// `sparse-rows-built`.
    fn solve(&self, instance: &Instance, req: &SolveRequest) -> SolveReport {
        let started = Instant::now();
        let cfg = req.approx_config();
        let opts = req.metric.sparse_opts();
        let sparse = req.wants_sparse_metric();
        let src = if sparse {
            MetricSource::Sparse(&instance.graph, &opts)
        } else {
            MetricSource::Dense(instance.metric())
        };
        // One facility-location workspace per worker thread, reused across
        // every object that worker processes. Objects are fanned out by
        // index so each can be paired with its warm phase-1 seed.
        let warm = req.fl.warm_placement.as_deref();
        let indices: Vec<usize> = (0..instance.objects.len()).collect();
        let expired_objects = AtomicUsize::new(0);
        let results: Vec<PlaceOutcome> =
            par_map_threads_with(&indices, req.max_threads, FlWorkspace::new, |ws, &x| {
                let w = &instance.objects[x];
                let _ = faults::hit(faults::points::SOLVE_PHASE1);
                if req.robust.expired(started) {
                    // Deadline checkpoint: objects already placed keep their
                    // optimized copy sets; this one gets the cheap fallback.
                    expired_objects.fetch_add(1, Ordering::Relaxed);
                    let set = fallback_copy_set(&instance.storage_cost, w);
                    let trace = PhaseTrace {
                        after_phase1: set.clone(),
                        after_phase2: set.clone(),
                        after_phase3: set,
                    };
                    return PlaceOutcome {
                        trace,
                        ..PlaceOutcome::default()
                    };
                }
                // One span per object wrapping the three per-phase spans
                // the algorithm itself emits.
                let span = telemetry::span(telemetry::spans::SOLVE_OBJECT);
                let seed = warm.and_then(|sets| sets.get(x)).map(Vec::as_slice);
                let placed = place_object_with(ws, src, &instance.storage_cost, w, &cfg, seed);
                span.finish();
                placed
            });
        let timings = results
            .iter()
            .fold(PhaseTimings::default(), |acc, r| acc.add(&r.timings));
        let sets: Vec<Vec<usize>> = results
            .iter()
            .map(|r| r.trace.after_phase3.clone())
            .collect();
        let (p1, p2, p3) = results.iter().fold((0, 0, 0), |(a, b, c), r| {
            (
                a + r.trace.after_phase1.len(),
                b + r.trace.after_phase2.len(),
                c + r.trace.after_phase3.len(),
            )
        });
        let candidate_rows: usize = results.iter().map(|r| r.candidates).sum();
        let rows_built: usize = results.iter().map(|r| r.rows_built).sum();
        let mut phases = Vec::new();
        if sparse {
            let metric_seconds: f64 = results.iter().map(|r| r.metric_seconds).sum();
            phases.push(PhaseStat::new(
                "metric-build",
                metric_seconds,
                format!(
                    "{rows_built} closure rows built for {candidate_rows} ball nodes over {} \
                     objects",
                    instance.num_objects()
                ),
            ));
        }
        phases.extend([
            PhaseStat::new(
                "facility-location",
                timings.facility,
                format!(
                    "{p1} copies opened ({}), {} moves / {} candidates / {} re-priced",
                    cfg.fl_solver.name(),
                    timings.fl_moves,
                    timings.fl_candidates,
                    timings.fl_repriced
                ),
            ),
            PhaseStat::new("radius-add", timings.radius_add, format!("-> {p2} copies")),
            PhaseStat::new(
                "radius-prune",
                timings.radius_prune,
                format!("-> {p3} copies"),
            ),
        ]);
        let mut meta = vec![
            ("fl-backend", cfg.fl_solver.name().to_string()),
            ("fl-moves", timings.fl_moves.to_string()),
            ("fl-candidates", timings.fl_candidates.to_string()),
            ("fl-repriced", timings.fl_repriced.to_string()),
            ("metric-backend", req.metric.backend.name().to_string()),
        ];
        if sparse {
            meta.push(("sparse-candidate-rows", candidate_rows.to_string()));
            meta.push(("sparse-rows-built", rows_built.to_string()));
        }
        if warm.is_some() {
            let seeded = results.iter().filter(|r| r.warm_seeded).count();
            meta.push(("warm-seeded-objects", seeded.to_string()));
        }
        let traces = req
            .collect_traces
            .then(|| results.into_iter().map(|r| r.trace).collect());
        let expired = expired_objects.load(Ordering::Relaxed);
        if expired > 0 {
            meta.push(("deadline-fallback-objects", expired.to_string()));
        }
        let report = SolveReport::build(
            self.name(),
            instance,
            req,
            Placement::from_copy_sets(sets),
            phases,
            traces,
            meta,
            started,
        );
        if expired > 0 {
            report.mark_degraded(true)
        } else {
            report
        }
    }
}

macro_rules! baseline_solver {
    ($(#[$doc:meta])* $ty:ident, $name:literal, $desc:literal, $solve:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $ty;

        impl Solver for $ty {
            fn name(&self) -> &'static str {
                $name
            }

            fn description(&self) -> &'static str {
                $desc
            }

            fn solve(&self, instance: &Instance, req: &SolveRequest) -> SolveReport {
                let started = Instant::now();
                #[allow(clippy::redundant_closure_call)]
                let placement: Placement = ($solve)(instance, req);
                let phases = vec![PhaseStat::new(
                    "placement",
                    seconds_less_metric_build(instance, started),
                    format!("{} copies", placement.total_copies()),
                )];
                SolveReport::build(
                    self.name(),
                    instance,
                    req,
                    placement,
                    phases,
                    None,
                    vec![],
                    started,
                )
            }
        }
    };
}

baseline_solver!(
    /// Baseline: a copy on every allowed node.
    FullReplicationSolver,
    "full-replication",
    "baseline: copy on every finite-storage node; O(n) per object",
    |instance: &Instance, _req: &SolveRequest| baselines::full_replication(instance)
);

baseline_solver!(
    /// Baseline: the exact 1-copy optimum per object.
    BestSingleSolver,
    "best-single",
    "baseline: exact 1-copy optimum (weighted 1-median incl. writes); O(n^2) per object",
    |instance: &Instance, _req: &SolveRequest| baselines::best_single_node(instance)
);

baseline_solver!(
    /// Baseline: `k` random allowed nodes per object (seeded).
    RandomKSolver,
    "random-k",
    "baseline: replication_degree random allowed nodes per object; seeded via SolveRequest",
    |instance: &Instance, req: &SolveRequest| {
        let mut rng = ChaCha8Rng::seed_from_u64(req.seed);
        baselines::random_k(instance, req.replication_degree, &mut rng)
    }
);

baseline_solver!(
    /// Baseline: add/drop/swap local search on the true objective.
    GreedyLocalSolver,
    "greedy-local",
    "baseline: add/drop/swap local search on the true objective; no guarantee, strong in practice",
    |instance: &Instance, _req: &SolveRequest| baselines::greedy_local(instance)
);

/// The paper's optimal tree algorithm (Section 3.2, reads + writes).
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeDpSolver;

impl Solver for TreeDpSolver {
    fn name(&self) -> &'static str {
        "tree-dp"
    }

    fn description(&self) -> &'static str {
        "SPAA'01 Section 3.2: optimal on trees via import/export tuple DP, \
         O(|X| * |V| * diam * log deg)"
    }

    fn supports(&self, instance: &Instance) -> Result<(), Unsupported> {
        if instance.graph.is_tree() {
            Ok(())
        } else {
            Err(unsupported("the tree DP needs a tree network"))
        }
    }

    fn solve(&self, instance: &Instance, req: &SolveRequest) -> SolveReport {
        let started = Instant::now();
        self.supports(instance).expect("solver applicability");
        let tree = RootedTree::from_graph(&instance.graph, 0);
        let solutions = par_map_threads(&instance.objects, req.max_threads, |w| {
            optimal_tree_general(&tree, &instance.storage_cost, w)
        });
        let native: f64 = solutions.iter().map(|s| s.cost).sum();
        let sets = solutions.into_iter().map(|s| s.copies).collect();
        let phases = vec![PhaseStat::new(
            "tree-dp",
            started.elapsed().as_secs_f64(),
            format!("{} objects", instance.num_objects()),
        )];
        let meta = vec![("native-cost", format!("{native}"))];
        SolveReport::build(
            self.name(),
            instance,
            req,
            Placement::from_copy_sets(sets),
            phases,
            None,
            meta,
            started,
        )
    }
}

macro_rules! exact_solver {
    ($(#[$doc:meta])* $ty:ident, $name:literal, $desc:literal, $f:path) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $ty;

        impl Solver for $ty {
            fn name(&self) -> &'static str {
                $name
            }

            fn description(&self) -> &'static str {
                $desc
            }

            fn supports(&self, instance: &Instance) -> Result<(), Unsupported> {
                let n = instance.num_nodes();
                if n <= MAX_EXACT_NODES {
                    Ok(())
                } else {
                    Err(unsupported(format!(
                        "exhaustive solver limited to {MAX_EXACT_NODES} nodes (instance has {n})"
                    )))
                }
            }

            fn solve(&self, instance: &Instance, req: &SolveRequest) -> SolveReport {
                let started = Instant::now();
                self.supports(instance).expect("solver applicability");
                let metric = instance.metric();
                let solutions = par_map_threads(&instance.objects, req.max_threads, |w| {
                    $f(metric, &instance.storage_cost, w)
                });
                let native: f64 = solutions.iter().map(|s| s.cost).sum();
                let sets = solutions.into_iter().map(|s| s.copies).collect();
                let phases = vec![PhaseStat::new(
                    "enumeration",
                    seconds_less_metric_build(instance, started),
                    format!("{} objects", instance.num_objects()),
                )];
                let meta = vec![("native-cost", format!("{native}"))];
                SolveReport::build(
                    self.name(),
                    instance,
                    req,
                    Placement::from_copy_sets(sets),
                    phases,
                    None,
                    meta,
                    started,
                )
            }
        }
    };
}

exact_solver!(
    /// Ground truth: exhaustive optimum with per-write optimal Steiner
    /// update sets.
    ExactSolver,
    "exact",
    "ground truth: exhaustive optimum, per-write optimal Steiner updates; O(3^n), n <= 16",
    optimal_placement
);

exact_solver!(
    /// Ground truth for Lemma 1: the optimal *restricted* placement.
    ExactRestrictedSolver,
    "exact-restricted",
    "Lemma 1 ground truth: optimal restricted placement (shared multicast tree, >= W mass \
     per copy); O(3^n), n <= 16",
    optimal_restricted
);

/// Meta-engine: the optimal tree DP when the network is a tree, the
/// constant-factor approximation otherwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct AutoSolver;

impl Solver for AutoSolver {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn description(&self) -> &'static str {
        "dispatch: optimal tree-dp on tree networks (exact), approx everywhere else"
    }

    fn solve(&self, instance: &Instance, req: &SolveRequest) -> SolveReport {
        let mut report = if instance.graph.is_tree() {
            TreeDpSolver.solve(instance, req)
        } else {
            ApproxSolver.solve(instance, req)
        };
        report
            .meta
            .push(("dispatched-to", report.solver.to_string()));
        report.solver = self.name();
        report
    }
}
