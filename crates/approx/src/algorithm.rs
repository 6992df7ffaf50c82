//! The three-phase approximation algorithm (Section 2.2).

use dmn_core::instance::{Instance, ObjectWorkload};
use dmn_core::parallel::par_map_threads_with;
use dmn_core::placement::Placement;
use dmn_core::radii::RadiusKernel;
use dmn_core::telemetry;
use dmn_facility::{FlInstance, FlWorkspace, LocalSearchConfig, NearestCopyOracle, SearchStats};
use dmn_graph::{Graph, Metric, NodeId, TruncatedClosure};

use crate::sparse_path::{candidate_set, SparseOpts};

/// Which UFL solver backs phase 1 (the facility-location crate's
/// [`Solver`](dmn_facility::Solver) under its phase-1 name).
pub use dmn_facility::Solver as FlSolverKind;

/// Phase-2 threshold (Section 2.2): add a copy at `v` while every copy is
/// farther than `STORAGE_ADD_FACTOR · rs(v)`. Lemma 8's constants hold
/// for exactly this value.
pub const STORAGE_ADD_FACTOR: f64 = 5.0;

/// Phase-3 threshold (Section 2.2): delete the copy at `u` when a surviving
/// copy `v` satisfies `ct(u, v) ≤ WRITE_PRUNE_FACTOR · rw(u)`. Lemma 8's
/// constants hold for exactly this value.
pub const WRITE_PRUNE_FACTOR: f64 = 4.0;

/// Configuration of the approximation algorithm.
#[derive(Debug, Clone, Default)]
pub struct ApproxConfig {
    /// Phase-1 facility location solver.
    pub fl_solver: FlSolverKind,
}

/// Copy sets after each phase, for the phase-ablation experiment (E8).
#[derive(Debug, Clone, Default)]
pub struct PhaseTrace {
    /// Copies after phase 1 (facility location).
    pub after_phase1: Vec<NodeId>,
    /// Copies after phase 2 (radius add).
    pub after_phase2: Vec<NodeId>,
    /// Copies after phase 3 (radius prune) — the final placement.
    pub after_phase3: Vec<NodeId>,
}

/// Per-phase wall-clock seconds (and phase-1 work counters) of one
/// per-object placement.
///
/// Each phase's time includes the radii it reads: phase 2 the storage
/// radii of every node, phase 3 the write radii of the copies it scans. A
/// closure row a sparse source builds during a phase is not phase time:
/// it is metric time ([`PlaceOutcome::metric_seconds`]).
///
/// Since the telemetry layer landed, these fields are shims over the one
/// span source: each phase is timed by a [`dmn_core::telemetry`] span
/// (`solve.facility`, `solve.radius-add`, `solve.radius-prune`), whose
/// returned elapsed seconds fill the fields below. `SolveReport` phase
/// stats sum the same values, so the report and the span ring can never
/// disagree about where solve time went.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Phase 1: facility location on the related instance.
    pub facility: f64,
    /// Phase 2: storage radii + radius-driven copy addition.
    pub radius_add: f64,
    /// Phase 3: write radii at the copies + radius-driven pruning.
    pub radius_prune: f64,
    /// Phase-1 local-search moves accepted (0 for non-local-search
    /// backends).
    pub fl_moves: usize,
    /// Phase-1 local-search candidate moves enumerated (0 for
    /// non-local-search backends).
    pub fl_candidates: usize,
    /// Phase-1 swaps the local search's shortlist re-priced exactly (0
    /// for non-local-search backends).
    pub fl_repriced: usize,
}

impl PhaseTimings {
    /// Component-wise sum.
    pub fn add(&self, o: &PhaseTimings) -> PhaseTimings {
        PhaseTimings {
            facility: self.facility + o.facility,
            radius_add: self.radius_add + o.radius_add,
            radius_prune: self.radius_prune + o.radius_prune,
            fl_moves: self.fl_moves + o.fl_moves,
            fl_candidates: self.fl_candidates + o.fl_candidates,
            fl_repriced: self.fl_repriced + o.fl_repriced,
        }
    }
}

/// Where one object's distances come from.
#[derive(Debug, Clone, Copy)]
pub enum MetricSource<'a> {
    /// The dense all-pairs closure over every node.
    Dense(&'a Metric),
    /// A truncated closure over a candidate ball around the object's
    /// clients, per object, with only the rows the phases read built
    /// (see [`crate::sparse_path`]).
    Sparse(&'a Graph, &'a SparseOpts),
}

/// Result of one per-object placement.
#[derive(Debug, Clone, Default)]
pub struct PlaceOutcome {
    /// Per-phase copy sets in global node ids.
    pub trace: PhaseTrace,
    /// Per-phase timings (facility / radius-add / radius-prune).
    pub timings: PhaseTimings,
    /// Seconds spent choosing the candidate ball and building closure
    /// rows (0 on a dense source).
    pub metric_seconds: f64,
    /// Size of the node set the object was solved over (every node on a
    /// dense source).
    pub candidates: usize,
    /// Closure rows built, one per node whose row a phase read (0 on a
    /// dense source).
    pub rows_built: usize,
    /// True when a warm seed survived sanitizing and started phase 1.
    pub warm_seeded: bool,
}

/// Places one object; returns the final copy set.
///
/// # Panics
/// Panics when the workload has no requests or every node has infinite
/// storage cost.
pub fn place_object(
    metric: &Metric,
    storage_cost: &[f64],
    workload: &ObjectWorkload,
    cfg: &ApproxConfig,
) -> Vec<NodeId> {
    place_object_in(&mut FlWorkspace::new(), metric, storage_cost, workload, cfg)
        .0
        .after_phase3
}

/// [`place_object_with`] on a dense metric with a cold start, keeping the
/// per-phase copy sets and timings.
pub fn place_object_in(
    ws: &mut FlWorkspace,
    metric: &Metric,
    storage_cost: &[f64],
    workload: &ObjectWorkload,
    cfg: &ApproxConfig,
) -> (PhaseTrace, PhaseTimings) {
    let src = MetricSource::Dense(metric);
    let out = place_object_with(ws, src, storage_cost, workload, cfg, None);
    (out.trace, out.timings)
}

/// Places one object with distances from `src`, on a caller-provided
/// facility-location workspace.
///
/// Hot paths ([`place_all`], the registry engines) hold one workspace per
/// worker thread of their order-preserving per-object map and reuse its
/// assignment tables and scratch buffers across all objects.
///
/// `warm` seeds the phase-1 local search (typically the object's copy set
/// from the previous time slot) instead of the best single facility, so a
/// placement that is still near-optimal converges in a handful of moves.
/// The seed is sanitized first: nodes out of range, outside a sparse
/// source's candidate ball, or with infinite storage cost are dropped, and
/// an empty remainder falls back to the cold start. Non-local-search
/// backends have no seedable state and run cold. Phases 2 and 3 do not
/// read the seed, so the Lemma-8 guarantee is untouched.
///
/// # Panics
/// Panics when the workload has no requests or every node has infinite
/// storage cost.
pub fn place_object_with(
    ws: &mut FlWorkspace,
    src: MetricSource<'_>,
    storage_cost: &[f64],
    workload: &ObjectWorkload,
    cfg: &ApproxConfig,
    warm: Option<&[NodeId]>,
) -> PlaceOutcome {
    workload.validate().expect("invalid workload");
    let w_total = workload.total_writes();
    let warm = warm.filter(|_| {
        matches!(
            cfg.fl_solver,
            FlSolverKind::LocalSearch
                | FlSolverKind::LocalSearchWarm
                | FlSolverKind::LocalSearchRef
        )
    });
    match src {
        MetricSource::Dense(metric) => {
            let n = metric.len();
            let masses = workload.request_masses();
            let seed = warm
                .and_then(|set| usable_seed(set.iter().copied().filter(|&v| v < n), storage_cost));
            let warm_seeded = seed.is_some();
            let rows = &mut Rows::Dense(metric);
            let (trace, timings) = run_phases(ws, rows, storage_cost, &masses, w_total, cfg, seed);
            PlaceOutcome {
                trace,
                timings,
                metric_seconds: 0.0,
                candidates: n,
                rows_built: 0,
                warm_seeded,
            }
        }
        MetricSource::Sparse(graph, opts) => {
            let span = telemetry::span(telemetry::spans::SOLVE_METRIC_BUILD);
            let cand = candidate_set(graph, storage_cost, workload, opts);
            let mut closure = TruncatedClosure::new(graph, &cand);
            let mut metric_seconds = span.finish();
            // Local index i ↔ global node cand[i]; every client is inside
            // the ball, so no request mass is lost.
            let cs: Vec<f64> = cand.iter().map(|&v| storage_cost[v]).collect();
            let masses: Vec<f64> = cand.iter().map(|&v| workload.request_mass(v)).collect();
            let seed = warm.and_then(|set| {
                usable_seed(set.iter().filter_map(|v| cand.binary_search(v).ok()), &cs)
            });
            let warm_seeded = seed.is_some();
            let rows = &mut Rows::Lazy(&mut closure, &mut metric_seconds);
            let (trace, timings) = run_phases(ws, rows, &cs, &masses, w_total, cfg, seed);
            // Back to global ids; `cand` is ascending, so sorted stays sorted.
            let lift = |local: Vec<NodeId>| local.into_iter().map(|i| cand[i]).collect();
            PlaceOutcome {
                trace: PhaseTrace {
                    after_phase1: lift(trace.after_phase1),
                    after_phase2: lift(trace.after_phase2),
                    after_phase3: lift(trace.after_phase3),
                },
                timings,
                metric_seconds,
                candidates: cand.len(),
                rows_built: closure.rows_built(),
                warm_seeded,
            }
        }
    }
}

/// The distance rows of one object's phases.
pub(crate) enum Rows<'r, 'g> {
    /// A dense metric: every row exists.
    Dense(&'r Metric),
    /// A truncated closure that builds each row when a phase first needs
    /// it, and the object's metric seconds, which every build adds to.
    Lazy(&'r mut TruncatedClosure<'g>, &'r mut f64),
}

impl Rows<'_, '_> {
    fn metric(&self) -> &Metric {
        match self {
            Rows::Dense(metric) => metric,
            Rows::Lazy(closure, _) => closure.metric(),
        }
    }

    fn is_built(&self, v: NodeId) -> bool {
        match self {
            Rows::Dense(_) => true,
            Rows::Lazy(closure, _) => closure.is_built(v),
        }
    }

    /// Builds the missing rows among `nodes` as one `solve.metric-build`
    /// span.
    fn request(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        if let Rows::Lazy(closure, seconds) = self {
            let span = telemetry::span(telemetry::spans::SOLVE_METRIC_BUILD);
            for v in nodes {
                closure.build_row(v);
            }
            **seconds += span.finish();
        }
    }
}

/// The usable part of a warm seed already in local ids: sites with finite
/// storage cost, sorted and deduplicated. `None` when nothing survives —
/// the seed is stale and the cold start is the honest fallback.
pub(crate) fn usable_seed(
    local: impl Iterator<Item = NodeId>,
    storage_cost: &[f64],
) -> Option<Vec<NodeId>> {
    let mut ok: Vec<NodeId> = local.filter(|&v| storage_cost[v].is_finite()).collect();
    ok.sort_unstable();
    ok.dedup();
    (!ok.is_empty()).then_some(ok)
}

/// Phases 1–3 for one object over local ids: `rows`, `storage_cost` and
/// `masses` index the same node set, and `seed` (when present) is a
/// sanitized phase-1 start for a local-search backend.
///
/// Every read of the phases lands on a row with a client or a copy at
/// its head: phase 1 reads the clients' rows (every row for a cold
/// backend that reads others), the radii read the clients' rows, the
/// oracle and phase 3 the copies' rows. Each row is requested from `rows`
/// before its first read.
///
/// The radii come from [`RadiusKernel`]'s prefix kernels, bit for bit the
/// values of the full [`RadiusTable`](dmn_core::radii::RadiusTable):
/// storage radii of every node for phase 2, and write radii of the
/// phase-2 copies only, since phase 3 reads no other.
pub(crate) fn run_phases(
    ws: &mut FlWorkspace,
    rows: &mut Rows<'_, '_>,
    storage_cost: &[f64],
    masses: &[f64],
    w_total: f64,
    cfg: &ApproxConfig,
    seed: Option<Vec<NodeId>>,
) -> (PhaseTrace, PhaseTimings) {
    let n = masses.len();
    let all_rows = seed.is_none() && !cfg.fl_solver.reads_only_client_rows();
    rows.request((0..n).filter(|&v| all_rows || masses[v] > 0.0));
    let mut timings = PhaseTimings::default();
    let span = telemetry::span(telemetry::spans::SOLVE_FACILITY);

    // Phase 1: facility location on the related problem (writes as reads).
    // Costs and demands are borrowed, not cloned, into the instance.
    let fl = FlInstance::new(rows.metric(), storage_cost, masses);
    let ls_cfg = LocalSearchConfig::default();
    let (sol, fl_stats) = match (cfg.fl_solver, seed) {
        // Only local-search backends receive a seed, and each runs its
        // own loop from it.
        (FlSolverKind::LocalSearchRef, Some(seed)) => (
            dmn_facility::local_search_reference_from(&fl, &seed, &ls_cfg),
            SearchStats::default(),
        ),
        (_, Some(seed)) => {
            let s = ws.local_search_from(&fl, &seed, &ls_cfg);
            (s, ws.last_stats())
        }
        (FlSolverKind::LocalSearch, None) => {
            let s = ws.local_search(&fl, &ls_cfg);
            (s, ws.last_stats())
        }
        (FlSolverKind::LocalSearchWarm, None) => {
            let s = dmn_facility::local_search_warm_in(ws, &fl, &ls_cfg);
            (s, ws.last_stats())
        }
        (other, None) => (other.solve(&fl), SearchStats::default()),
    };
    let after_phase1 = sol.open.clone();
    let mut copies = sol.open;
    debug_assert!(!copies.is_empty());
    timings.facility = span.finish();
    timings.fl_moves = fl_stats.moves;
    timings.fl_candidates = fl_stats.candidates;
    timings.fl_repriced = fl_stats.repriced;
    rows.request(copies.iter().copied());
    let mut span = telemetry::span(telemetry::spans::SOLVE_RADIUS_ADD);

    // Storage radii (Section 2.1) of every node for phase 2; phase 3
    // computes the write radii of the copies it scans.
    let mut radii = RadiusKernel::new(masses);
    let (_, storage_radius) = radii.storage_radii(rows.metric(), storage_cost);

    // Phase 2: while a node is farther than 5·rs(v) from every copy, store
    // a copy at v. (Order does not matter for the guarantee; we scan
    // round-robin until stable.) The oracle answers each query in O(1)
    // with the minimum over copies c of d(c, v).
    let mut oracle = NearestCopyOracle::new(n);
    oracle.reset(rows.metric(), &copies);
    loop {
        let mut added = false;
        for (v, &rs) in storage_radius.iter().enumerate() {
            // One search serves both the membership test and the
            // insertion point (copies is untouched in between).
            let pos = match copies.binary_search(&v) {
                Ok(_) => continue,
                Err(pos) => pos,
            };
            if !rs.is_finite() {
                continue; // storage at v can never pay off
            }
            if oracle.nearest_dist(v) > STORAGE_ADD_FACTOR * rs {
                copies.insert(pos, v);
                if !rows.is_built(v) {
                    // The row is metric time: cut this phase's span
                    // around it.
                    timings.radius_add += span.finish();
                    rows.request([v]);
                    span = telemetry::span(telemetry::spans::SOLVE_RADIUS_ADD);
                }
                oracle.add_copy(rows.metric(), v);
                added = true;
            }
        }
        if !added {
            break;
        }
    }
    let after_phase2 = copies.clone();
    timings.radius_add += span.finish();
    let span = telemetry::span(telemetry::spans::SOLVE_RADIUS_PRUNE);

    // Phase 3: scan copy holders in ascending write radius; the current
    // node keeps its copy and deletes every other copy u with
    // ct(u, v) <= 4·rw(u).
    if w_total > 0.0 {
        let metric = rows.metric();
        let write_radius = radii.write_radii(metric, w_total, &copies);
        let mut order: Vec<(f64, NodeId)> = write_radius.into_iter().zip(copies).collect();
        order.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("radii are not NaN")
                .then(a.1.cmp(&b.1))
        });
        let mut alive: Vec<bool> = vec![true; order.len()];
        for (i, &(_, v)) in order.iter().enumerate() {
            if !alive[i] {
                continue;
            }
            for (k, &(ru, u)) in order.iter().enumerate() {
                if k != i && alive[k] && metric.dist(u, v) <= WRITE_PRUNE_FACTOR * ru {
                    alive[k] = false;
                }
            }
        }
        copies = order
            .iter()
            .enumerate()
            .filter(|&(k, _)| alive[k])
            .map(|(_, &(_, v))| v)
            .collect();
        copies.sort_unstable();
    }
    assert!(
        !copies.is_empty(),
        "pruning never deletes the scanned survivor"
    );
    timings.radius_prune = span.finish();

    (
        PhaseTrace {
            after_phase1,
            after_phase2,
            after_phase3: copies,
        },
        timings,
    )
}

/// Places every object of an instance (objects are independent, so they are
/// placed in parallel; each worker thread reuses one facility-location
/// workspace across all objects it processes).
pub fn place_all(instance: &Instance, cfg: &ApproxConfig) -> Placement {
    let metric = instance.metric();
    let sets: Vec<Vec<NodeId>> =
        par_map_threads_with(&instance.objects, None, FlWorkspace::new, |ws, w| {
            place_object_in(ws, metric, &instance.storage_cost, w, cfg)
                .0
                .after_phase3
        });
    Placement::from_copy_sets(sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmn_core::cost::{evaluate_object, UpdatePolicy};
    use dmn_graph::dijkstra::apsp;
    use dmn_graph::generators;

    fn uniform_reads(n: usize) -> ObjectWorkload {
        let mut w = ObjectWorkload::new(n);
        for v in 0..n {
            w.reads[v] = 1.0;
        }
        w
    }

    #[test]
    fn free_storage_replicates_widely() {
        let g = generators::path(6, |_| 1.0);
        let m = apsp(&g);
        let w = uniform_reads(6);
        let copies = place_object(&m, &[0.0; 6], &w, &ApproxConfig::default());
        // Free storage + read-only: a copy at every requesting node is
        // optimal and phase 2 enforces it.
        assert_eq!(copies, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn expensive_storage_collapses_to_few_copies() {
        let g = generators::path(8, |_| 1.0);
        let m = apsp(&g);
        let w = uniform_reads(8);
        let copies = place_object(&m, &[1000.0; 8], &w, &ApproxConfig::default());
        assert!(copies.len() <= 2, "copies: {copies:?}");
    }

    #[test]
    fn heavy_writes_prune_replicas() {
        let g = generators::path(8, |_| 1.0);
        let m = apsp(&g);
        let mut w = uniform_reads(8);
        w.writes[0] = 100.0; // massive write traffic
        let cfg = ApproxConfig::default();
        let (tr, _) = place_object_in(&mut FlWorkspace::new(), &m, &[0.5; 8], &w, &cfg);
        // Before pruning, cheap storage replicates; writes must shrink the
        // copy set.
        let (cheap, no_prune) = (&tr.after_phase3, &tr.after_phase2);
        assert!(cheap.len() <= no_prune.len(), "{cheap:?} vs {no_prune:?}");
        assert!(cheap.len() <= 2, "heavy writes: {cheap:?}");
    }

    #[test]
    fn phases_trace_is_consistent() {
        let g = generators::grid(3, 3, |_, _| 1.0);
        let m = apsp(&g);
        let mut w = uniform_reads(9);
        w.writes[4] = 3.0;
        let cfg = ApproxConfig::default();
        let (tr, _) = place_object_in(&mut FlWorkspace::new(), &m, &[2.0; 9], &w, &cfg);
        assert!(!tr.after_phase1.is_empty());
        // Phase 2 only adds.
        for c in &tr.after_phase1 {
            assert!(tr.after_phase2.contains(c));
        }
        // Phase 3 only deletes.
        for c in &tr.after_phase3 {
            assert!(tr.after_phase2.contains(c));
        }
    }

    #[test]
    fn respects_forbidden_nodes() {
        let g = generators::path(4, |_| 1.0);
        let m = apsp(&g);
        let w = uniform_reads(4);
        let mut cs = vec![1.0; 4];
        cs[1] = f64::INFINITY;
        cs[2] = f64::INFINITY;
        let copies = place_object(&m, &cs, &w, &ApproxConfig::default());
        assert!(!copies.contains(&1) && !copies.contains(&2), "{copies:?}");
    }

    #[test]
    fn place_all_handles_multiple_objects() {
        let g = generators::grid(3, 3, |_, _| 1.0);
        let mut inst = Instance::builder(g).uniform_storage_cost(3.0).build();
        inst.push_object(uniform_reads(9));
        let mut w2 = ObjectWorkload::new(9);
        w2.writes[0] = 5.0;
        w2.reads[8] = 1.0;
        inst.push_object(w2);
        let p = place_all(&inst, &ApproxConfig::default());
        assert_eq!(p.num_objects(), 2);
        p.validate(9).unwrap();
        let c0 = evaluate_object(
            inst.metric(),
            &inst.storage_cost,
            &inst.objects[0],
            p.copies(0),
            UpdatePolicy::MstMulticast,
        );
        assert!(c0.total().is_finite());
    }

    #[test]
    fn warm_seed_is_sanitized_and_falls_back_cold() {
        let g = generators::grid(3, 3, |_, _| 1.0);
        let m = apsp(&g);
        let mut w = uniform_reads(9);
        w.writes[4] = 2.0;
        let mut cs = vec![2.0; 9];
        cs[3] = f64::INFINITY;
        let cfg = ApproxConfig::default();
        let cold = place_object(&m, &cs, &w, &cfg);

        // A seed full of garbage (forbidden node, out-of-range node,
        // duplicates) must survive: the sanitized remainder seeds the
        // search, and the result is still a valid copy set.
        let mut ws = FlWorkspace::new();
        let src = MetricSource::Dense(&m);
        let out = place_object_with(&mut ws, src, &cs, &w, &cfg, Some(&[3, 42, 0, 0, 8]));
        assert!(out.warm_seeded);
        let tr = out.trace;
        assert!(!tr.after_phase3.is_empty());
        assert!(tr.after_phase3.iter().all(|&v| v < 9 && cs[v].is_finite()));

        // An entirely-unusable seed falls back to the cold start exactly,
        // and does not count as seeded.
        for seed in [&[3, 42][..], &[]] {
            let out = place_object_with(&mut ws, src, &cs, &w, &cfg, Some(seed));
            assert!(!out.warm_seeded, "{seed:?}");
            assert_eq!(out.trace.after_phase3, cold);
        }
    }

    #[test]
    fn warm_seed_from_own_output_is_stable() {
        let g = generators::grid(3, 4, |u, v| ((u + v) % 3 + 1) as f64);
        let m = apsp(&g);
        let mut w = uniform_reads(12);
        w.writes[7] = 2.5;
        let cfg = ApproxConfig::default();
        let cold = place_object(&m, &[4.0; 12], &w, &cfg);
        // Re-solving seeded from the converged answer stays converged (the
        // seed is already a local optimum of phase 1's neighborhood plus
        // the deterministic radius phases).
        let mut ws = FlWorkspace::new();
        let src = MetricSource::Dense(&m);
        let out = place_object_with(&mut ws, src, &[4.0; 12], &w, &cfg, Some(&cold));
        assert!(!out.trace.after_phase3.is_empty());
        assert!(out.timings.facility >= 0.0);
    }

    #[test]
    fn warm_seed_ignored_by_non_local_search_backends() {
        let g = generators::path(6, |_| 1.0);
        let m = apsp(&g);
        let w = uniform_reads(6);
        let cfg = ApproxConfig {
            fl_solver: FlSolverKind::MettuPlaxton,
        };
        let cold = place_object(&m, &[1.0; 6], &w, &cfg);
        let mut ws = FlWorkspace::new();
        let src = MetricSource::Dense(&m);
        let out = place_object_with(&mut ws, src, &[1.0; 6], &w, &cfg, Some(&[5]));
        assert_eq!(
            out.trace.after_phase3, cold,
            "non-seedable backend runs cold"
        );
        assert!(!out.warm_seeded, "an ignored seed is not counted");
    }

    #[test]
    fn deterministic_given_same_input() {
        let g = generators::grid(3, 4, |u, v| ((u + v) % 3 + 1) as f64);
        let m = apsp(&g);
        let mut w = uniform_reads(12);
        w.writes[7] = 2.5;
        let a = place_object(&m, &[4.0; 12], &w, &ApproxConfig::default());
        let b = place_object(&m, &[4.0; 12], &w, &ApproxConfig::default());
        assert_eq!(a, b);
    }
}
