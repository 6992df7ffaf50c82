//! The two solve workloads: cold `approx` solves of a freshly built
//! instance, so the dense APSP or the truncated closures are paid by every
//! solve.
//!
//! The seed draws a permutation of the instance's objects (and the lookup
//! keys). Objects are placed independently, so every seed poses the same
//! problem: placements and solve-layer counts must repeat exactly, while
//! the order in which the solver's threads take objects changes.

use std::time::Instant;

use dmn_approx::{place_object_in, place_object_sparse_in, FlSolverKind, PhaseTrace};
use dmn_core::cost::{evaluate, evaluate_sparse, UpdatePolicy};
use dmn_core::instance::Instance;
use dmn_core::placement::Placement;
use dmn_facility::{local_search_warm_in, FlInstance, FlSolution, FlWorkspace, LocalSearchConfig};
use dmn_graph::{apsp, ball_candidates, shortest_paths, truncated_closure, Metric, NodeId};
use dmn_solve::{solvers, MetricBackend, SolveReport, SolveRequest, Solver};
use dmn_workloads::Scenario;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::stats::{median, nproc, reset_rss_peak, rss_peak_mib, secs};
use crate::{Args, Report};

/// One solve workload.
pub struct SolveWorkload {
    /// Scenario file, relative to the repository root.
    scenario: &'static str,
    /// Metric backend of every measured solve.
    backend: MetricBackend,
    /// Shortest-path lookups answered from each solved placement.
    lookups: usize,
}

/// The committed 100x100 grid: building truncated closures is nearly all
/// of the work; the dense path and the server are never touched.
pub const SPARSE_10K: SolveWorkload = SolveWorkload {
    scenario: "scenarios/grid_10k.json",
    backend: MetricBackend::Sparse,
    lookups: 16,
};

/// A 25x25 grid where every node is a client: phase-1 facility location
/// is nearly all of the work and no closure is built.
pub const DENSE_625: SolveWorkload = SolveWorkload {
    scenario: "perfbench/scenarios/dense_625.json",
    backend: MetricBackend::Dense,
    lookups: 256,
};

/// Fewest measured solves per run, however short `--seconds` is.
const MIN_SOLVES: usize = 3;

/// Set-ups timed before each solve, the last of them building the solved
/// instance. Spread over the window, they sample the load other tenants
/// put on shared CPUs across the whole run; a fixed count per solve keeps
/// the mix of set-ups that follow a solve and set-ups that follow a
/// set-up the same however many solves fit in the window.
const SETUPS_PER_SOLVE: usize = 3;

/// Relative tolerance of the cost cross-checks.
const COST_RTOL: f64 = 1e-9;

fn request(backend: MetricBackend) -> SolveRequest {
    SolveRequest::new()
        .metric_backend(backend)
        .collect_traces(true)
}

fn approx() -> Box<dyn Solver> {
    solvers::by_name("approx").expect("approx is registered")
}

/// The seed's object order: `perm[i]` is the scenario index of the
/// object presented at position `i`.
fn permutation(k: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..k).collect();
    perm.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    perm
}

/// Scenario parse plus `build_instance`, objects in the seed's order.
fn build(text: &str, seed: u64) -> Result<Instance, String> {
    let doc = dmn_json::parse(text)?;
    let scenario = Scenario::from_json(&doc)?;
    let mut instance = scenario.try_build_instance().map_err(|e| e.to_string())?;
    let mut objects: Vec<_> = std::mem::take(&mut instance.objects)
        .into_iter()
        .map(Some)
        .collect();
    instance.objects = permutation(objects.len(), seed)
        .into_iter()
        .map(|i| objects[i].take().expect("a permutation"))
        .collect();
    Ok(instance)
}

fn sets_of(placement: &Placement) -> Vec<Vec<NodeId>> {
    (0..placement.num_objects())
        .map(|x| placement.copies(x).to_vec())
        .collect()
}

/// The solve-layer counts that must repeat exactly for a given seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    closure_rows: usize,
    fl_moves: usize,
    fl_candidates: usize,
    copies: [usize; 3],
}

impl Counts {
    fn add_trace(&mut self, trace: &PhaseTrace) {
        self.copies[0] += trace.after_phase1.len();
        self.copies[1] += trace.after_phase2.len();
        self.copies[2] += trace.after_phase3.len();
    }

    fn of_report(report: &SolveReport) -> Counts {
        let meta = |key: &str| {
            report
                .meta_value(key)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        let mut counts = Counts {
            closure_rows: meta("sparse-candidate-rows"),
            fl_moves: meta("fl-moves"),
            fl_candidates: meta("fl-candidates"),
            copies: [0; 3],
        };
        for trace in report.traces.iter().flatten() {
            counts.add_trace(trace);
        }
        counts
    }
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

/// The output checks every solve report must pass.
fn check_report(report: &SolveReport, instance: &Instance, rep: &mut Report) {
    let n = instance.num_nodes();
    let invalid = if report.placement.num_objects() != instance.num_objects() {
        Some("object count differs from the instance".to_string())
    } else {
        (0..report.placement.num_objects()).find_map(|x| {
            let set = report.placement.copies(x);
            if set.is_empty() {
                return Some(format!("object {x} has no copy"));
            }
            set.iter().find_map(|&v| {
                if v >= n {
                    Some(format!("object {x} has a copy on node {v} of {n}"))
                } else if !instance.storage_cost[v].is_finite() {
                    Some(format!(
                        "object {x} has a copy on infinite-storage node {v}"
                    ))
                } else {
                    None
                }
            })
        })
    };
    rep.check("report_not_degraded", !report.degraded, || {
        format!("degraded, deadline_exceeded={}", report.deadline_exceeded)
    });
    if let Some(why) = invalid {
        // The cost of an invalid placement is not defined.
        rep.check("placement_valid", false, || why);
        return;
    }
    let cost = report.cost.total();
    let own = own_cost(instance, &report.placement, report.policy);
    rep.check(
        "cost_matches_independent",
        own.is_some_and(|own| rel_diff(cost, own) <= COST_RTOL),
        || format!("report {cost} vs the benchmark's own total {own:?}"),
    );
    // The report's cost comes from `evaluate` on the dense backend, so
    // the graph-side evaluator is an independent second opinion there.
    // On the sparse backend the report already is `evaluate_sparse`.
    if report.meta_value("metric-backend") == Some("dense") {
        let sparse = evaluate_sparse(instance, &report.placement, report.policy).total();
        rep.check(
            "cost_matches_evaluate_sparse",
            rel_diff(cost, sparse) <= COST_RTOL,
            || format!("report {cost} vs evaluate_sparse {sparse}"),
        );
    }
}

/// The total cost of a valid placement, computed by the benchmark itself
/// from the graph: one `shortest_paths` run from each copy gives every
/// node's nearest copy and the copies' pairwise distances, and Prim's
/// algorithm on those gives the multicast tree. `None` under exact
/// Steiner accounting, which the benchmark does not replicate.
fn own_cost(instance: &Instance, placement: &Placement, policy: UpdatePolicy) -> Option<f64> {
    if policy == UpdatePolicy::ExactSteiner {
        return None;
    }
    let mut total = 0.0;
    for (x, w) in instance.objects.iter().enumerate() {
        let copies = placement.copies(x);
        let rows: Vec<Vec<f64>> = copies
            .iter()
            .map(|&c| shortest_paths(&instance.graph, c).dist)
            .collect();
        total += copies
            .iter()
            .map(|&c| instance.storage_cost[c])
            .sum::<f64>();
        for v in 0..instance.num_nodes() {
            let (reads, writes) = (w.reads[v], w.writes[v]);
            if reads == 0.0 && writes == 0.0 {
                continue;
            }
            let nearest = rows.iter().map(|r| r[v]).fold(f64::INFINITY, f64::min);
            total += reads * nearest;
            // Each write reaches its nearest copy (multicast) or every
            // copy on its own (unicast star).
            total += writes
                * match policy {
                    UpdatePolicy::MstMulticast => nearest,
                    _ => rows.iter().map(|r| r[v]).sum(),
                };
        }
        if policy == UpdatePolicy::MstMulticast {
            total += w.total_writes() * mst_weight(&rows, copies);
        }
    }
    Some(total)
}

/// Weight of a minimum spanning tree of `copies`, by Prim's algorithm on
/// the distances `rows[i][copies[j]]`.
fn mst_weight(rows: &[Vec<f64>], copies: &[NodeId]) -> f64 {
    let k = copies.len();
    let mut reach: Vec<f64> = copies.iter().map(|&c| rows[0][c]).collect();
    let mut joined = vec![false; k];
    joined[0] = true;
    let mut weight = 0.0;
    for _ in 1..k {
        let j = (0..k)
            .filter(|&j| !joined[j])
            .min_by(|&a, &b| reach[a].total_cmp(&reach[b]))
            .expect("a copy is left to join");
        joined[j] = true;
        weight += reach[j];
        for i in 0..k {
            reach[i] = reach[i].min(rows[j][copies[i]]);
        }
    }
    weight
}

/// Answers `where-do-I-read(x, v)` from a solved placement without any
/// precomputed table: one `shortest_paths` run from the requester, then
/// the first nearest copy in copy order (the `PlacementSnapshot` rule).
fn lookup(instance: &Instance, placement: &Placement, x: usize, v: NodeId) -> (NodeId, f64) {
    let dist = shortest_paths(&instance.graph, v).dist;
    let mut best = (usize::MAX, f64::INFINITY);
    for &c in placement.copies(x) {
        if dist[c] < best.1 {
            best = (c, dist[c]);
        }
    }
    best
}

/// Runs one solve workload.
pub fn run(wl: &SolveWorkload, args: &Args, rep: &mut Report) -> Result<(), String> {
    let text = std::fs::read_to_string(wl.scenario)
        .map_err(|e| format!("{} (run from the repository root): {e}", wl.scenario))?;
    // A scenario that does not build fails the run before anything is timed.
    build(&text, args.seed)?;
    if args.trace {
        trace(wl, &text, args.seed, rep)
    } else {
        measure(wl, &text, args, rep)
    }
}

fn measure(wl: &SolveWorkload, text: &str, args: &Args, rep: &mut Report) -> Result<(), String> {
    let solver = approx();
    let req = request(wl.backend);
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed.wrapping_add(1));
    let (mut setup, mut solve, mut stale) = (vec![], vec![], vec![]);
    let (mut lookup_us, mut lookup_rate, mut rss) = (vec![], vec![], vec![]);
    let mut first: Option<(Vec<Vec<NodeId>>, Counts, f64)> = None;
    let window = Instant::now();
    while solve.len() < MIN_SOLVES || secs(window) < args.seconds {
        for _ in 1..SETUPS_PER_SOLVE {
            let t = Instant::now();
            std::hint::black_box(build(text, args.seed)?);
            setup.push(secs(t));
        }
        let t0 = Instant::now();
        let instance = build(text, args.seed)?;
        setup.push(secs(t0));
        reset_rss_peak();
        let t1 = Instant::now();
        let report = solver.solve(&instance, &req);
        solve.push(secs(t1));
        rep.attempted += 1;
        rep.failed += u64::from(report.degraded);
        let mut batch_busy = 0.0;
        for j in 0..wl.lookups {
            let x = rng.random_range(0..instance.num_objects());
            let v = rng.random_range(0..instance.num_nodes());
            let t = Instant::now();
            let (c, d) = lookup(&instance, &report.placement, x, v);
            let took = secs(t);
            batch_busy += took;
            lookup_us.push(took * 1e6);
            if j == 0 {
                stale.push(secs(t0));
            }
            rep.attempted += 1;
            let ok = report.placement.copies(x).contains(&c) && d.is_finite();
            rep.failed += u64::from(!ok);
            rep.check("lookup_answered", ok, || {
                format!("object {x} node {v}: got ({c}, {d}), not a reachable copy")
            });
            if wl.backend == MetricBackend::Dense {
                let expected = instance.metric().nearest_in(v, report.placement.copies(x));
                rep.check("lookup_nearest_copy", expected == Some((c, d)), || {
                    format!("object {x} node {v}: got ({c}, {d}), dense metric {expected:?}")
                });
            }
        }
        lookup_rate.push(wl.lookups as f64 / batch_busy);
        rss.push(rss_peak_mib());
        check_report(&report, &instance, rep);
        let placed = sets_of(&report.placement);
        let counts = Counts::of_report(&report);
        let cost = report.cost.total();
        match &first {
            None => first = Some((placed, counts, cost)),
            Some((p0, c0, cost0)) => {
                rep.check("placement_repeats", *p0 == placed, || {
                    format!("solve {} placed differently from solve 1", solve.len())
                });
                rep.check("counts_repeat", *c0 == counts, || {
                    format!("solve {}: {counts:?} vs {c0:?}", solve.len())
                });
                rep.check("cost_repeats", *cost0 == cost, || {
                    format!("solve {}: {cost} vs {cost0}", solve.len())
                });
            }
        }
    }
    let (_, counts, cost) = first.expect("at least one solve");
    rep.metric("solve_s", median(&solve), "s");
    rep.metric("cost_total", cost, "cost");
    rep.metric("setup_s", median(&setup), "s");
    rep.metric("rss_peak_mb", rss[0], "MiB");
    rep.metric("lookup_tput", median(&lookup_rate), "lookups/s");
    rep.metric("lookup_p50_us", median(&lookup_us), "us");
    rep.metric("staleness_s", median(&stale), "s");
    rep.metric(
        "ok_share",
        (rep.attempted - rep.failed) as f64 / rep.attempted as f64,
        "ratio",
    );
    eprintln!(
        "{} solves on {} threads, seconds {solve:.3?}, peak MiB {rss:.2?}; {} lookups; \
         set-up seconds {setup:.4?}; counts {counts:?}",
        solve.len(),
        nproc(),
        lookup_us.len()
    );
    Ok(())
}

/// Per-layer accumulators of the traced sequence.
#[derive(Default)]
struct Layers {
    apsp: f64,
    ball: f64,
    closure: f64,
    fl: f64,
    radius_add: f64,
    radius_prune: f64,
    evaluate: f64,
}

impl Layers {
    fn sum(&self) -> f64 {
        self.apsp
            + self.ball
            + self.closure
            + self.fl
            + self.radius_add
            + self.radius_prune
            + self.evaluate
    }
}

/// Phase-1 facility location exactly as the engine runs it for `kind`.
fn facility_location(ws: &mut FlWorkspace, fl: &FlInstance, kind: FlSolverKind) -> FlSolution {
    let cfg = LocalSearchConfig::default();
    match kind {
        FlSolverKind::LocalSearch => ws.local_search(fl, &cfg),
        FlSolverKind::LocalSearchWarm => local_search_warm_in(ws, fl, &cfg),
        other => panic!("the traced run does not replicate phase-1 backend {other:?}"),
    }
}

/// The traced solve layers of one instance, called one after the other on
/// this thread. Shared with the serve workload's traced run.
pub struct TracedSolve {
    layers: Layers,
    counts: Counts,
    distinct_sources: usize,
    settled_per_row: f64,
    placement: Vec<Vec<NodeId>>,
}

/// Runs the solve layers of `instance` one by one under `req`.
pub fn trace_layers(instance: Instance, req: &SolveRequest, rep: &mut Report) -> TracedSolve {
    let cfg = req.approx_config();
    let n = instance.num_nodes();
    let cs = instance.storage_cost.clone();
    let mut layers = Layers::default();
    let mut counts = Counts::default();
    let mut ws = FlWorkspace::new();
    let mut sets = Vec::with_capacity(instance.num_objects());
    let mut rows: Vec<(NodeId, f64)> = Vec::new();
    let instance = if req.wants_sparse_metric() {
        let opts = req.metric.sparse_opts();
        for (x, w) in instance.objects.iter().enumerate() {
            let clients: Vec<NodeId> = (0..n).filter(|&v| w.request_mass(v) > 0.0).collect();
            let target = ((clients.len() as f64 * opts.expansion).ceil() as usize)
                .max(opts.min_candidates)
                .min(n);
            let t = Instant::now();
            let mut cand = ball_candidates(&instance.graph, &clients, target);
            layers.ball += secs(t);
            if !cand.iter().any(|&v| cs[v].is_finite()) {
                cand.extend((0..n).filter(|&v| cs[v].is_finite()));
                cand.sort_unstable();
                cand.dedup();
            }
            let t = Instant::now();
            let metric = truncated_closure(&instance.graph, &cand);
            layers.closure += secs(t);
            for (i, &s) in cand.iter().enumerate() {
                let radius = (0..cand.len())
                    .map(|j| metric.dist(i, j))
                    .fold(0.0, f64::max);
                rows.push((s, radius));
            }
            counts.closure_rows += cand.len();
            let local_cs: Vec<f64> = cand.iter().map(|&v| cs[v]).collect();
            let masses: Vec<f64> = cand.iter().map(|&v| w.request_mass(v)).collect();
            let fl = FlInstance::new(&metric, &local_cs[..], &masses[..]);
            let t = Instant::now();
            let sol = facility_location(&mut ws, &fl, cfg.fl_solver);
            layers.fl += secs(t);
            tally_fl(&mut counts, &ws);
            let out = place_object_sparse_in(&mut ws, &instance.graph, &cs, w, &cfg, &opts);
            let opened: Vec<NodeId> = sol.open.iter().map(|&i| cand[i]).collect();
            check_phase1(x, &opened, &out.trace, rep);
            rep.check("trace_ball_size", out.candidates == cand.len(), || {
                format!("object {x}: {} vs {}", cand.len(), out.candidates)
            });
            layers.radius_add += out.timings.radius_add;
            layers.radius_prune += out.timings.radius_prune;
            counts.add_trace(&out.trace);
            sets.push(out.trace.after_phase3);
        }
        let placement = Placement::from_copy_sets(sets.clone());
        let t = Instant::now();
        let _ = evaluate_sparse(&instance, &placement, req.policy);
        layers.evaluate = secs(t);
        instance
    } else {
        let t = Instant::now();
        let metric: Metric = apsp(&instance.graph);
        layers.apsp = secs(t);
        let instance = instance.with_metric(metric);
        let metric = instance.metric();
        for (x, w) in instance.objects.iter().enumerate() {
            let masses = w.request_masses();
            let fl = FlInstance::new(metric, &cs[..], &masses[..]);
            let t = Instant::now();
            let sol = facility_location(&mut ws, &fl, cfg.fl_solver);
            layers.fl += secs(t);
            tally_fl(&mut counts, &ws);
            let (trace, timings) = place_object_in(&mut ws, metric, &cs, w, &cfg);
            check_phase1(x, &sol.open, &trace, rep);
            layers.radius_add += timings.radius_add;
            layers.radius_prune += timings.radius_prune;
            counts.add_trace(&trace);
            sets.push(trace.after_phase3);
        }
        let placement = Placement::from_copy_sets(sets.clone());
        let t = Instant::now();
        let _ = evaluate(&instance, &placement, req.policy);
        layers.evaluate = secs(t);
        instance
    };
    // Computed from outside: the nodes within each row's stopping radius
    // (its farthest target), one full Dijkstra per distinct source.
    rows.sort_by_key(|&(source, _)| source);
    let (mut distinct_sources, mut settled) = (0, 0);
    for group in rows.chunk_by(|a, b| a.0 == b.0) {
        let dist = shortest_paths(&instance.graph, group[0].0).dist;
        distinct_sources += 1;
        for &(_, radius) in group {
            settled += dist.iter().filter(|&&d| d <= radius).count();
        }
    }
    let settled_per_row = settled as f64 / rows.len().max(1) as f64;
    TracedSolve {
        layers,
        counts,
        distinct_sources,
        settled_per_row,
        placement: sets,
    }
}

fn tally_fl(counts: &mut Counts, ws: &FlWorkspace) {
    let stats = ws.last_stats();
    counts.fl_moves += stats.moves;
    counts.fl_candidates += stats.candidates;
}

fn check_phase1(x: usize, opened: &[NodeId], trace: &PhaseTrace, rep: &mut Report) {
    rep.check("trace_phase1_matches", opened == trace.after_phase1, || {
        format!(
            "object {x}: local search opened {opened:?}, the placement's phase 1 {:?}",
            trace.after_phase1
        )
    });
}

/// Times registry solves on one and on `nproc` threads and records the
/// solve-layer metrics of `traced`.
pub fn record_layers(
    traced: &TracedSolve,
    fresh: &dyn Fn() -> Result<Instance, String>,
    req: &SolveRequest,
    rep: &mut Report,
) -> Result<(), String> {
    let solver = approx();
    let req = &req.clone().collect_traces(true);
    let instance = fresh()?;
    let t = Instant::now();
    let single = solver.solve(&instance, &req.clone().max_threads(Some(1)));
    let busy = secs(t);
    check_report(&single, &instance, rep);
    let instance = fresh()?;
    let t = Instant::now();
    let parallel = solver.solve(&instance, req);
    let wall = secs(t);
    check_report(&parallel, &instance, rep);
    let threads = nproc().min(instance.num_objects()).max(1);
    for (label, report) in [("1", &single), ("nproc", &parallel)] {
        rep.check(
            &format!("trace_placement_vs_{label}_threads"),
            sets_of(&report.placement) == traced.placement,
            || "traced layer-by-layer placement differs from the registry solve".into(),
        );
        let c = Counts::of_report(report);
        let mut want = traced.counts;
        if !req.wants_sparse_metric() {
            want.closure_rows = 0;
        }
        rep.check(
            &format!("trace_counts_vs_{label}_threads"),
            c == want,
            || format!("registry {c:?} vs traced {want:?}"),
        );
    }
    let l = &traced.layers;
    let c = &traced.counts;
    rep.metric("graph.apsp_s", l.apsp, "s");
    rep.metric("graph.ball_s", l.ball, "s");
    rep.metric("graph.closure_s", l.closure, "s");
    rep.metric("graph.closure_rows", c.closure_rows as f64, "count");
    rep.metric(
        "graph.closure_distinct",
        traced.distinct_sources as f64,
        "count",
    );
    rep.metric(
        "graph.closure_settled_per_row",
        traced.settled_per_row,
        "nodes-computed",
    );
    rep.metric("facility.fl_s", l.fl, "s");
    rep.metric("facility.moves", c.fl_moves as f64, "count");
    rep.metric("facility.candidates", c.fl_candidates as f64, "count");
    rep.metric(
        "facility.accept_ratio",
        c.fl_moves as f64 / (c.fl_candidates.max(1)) as f64,
        "ratio",
    );
    rep.metric("approx.radius_add_s", l.radius_add, "s-reported");
    rep.metric("approx.radius_prune_s", l.radius_prune, "s-reported");
    rep.metric("approx.copies_p1", c.copies[0] as f64, "count");
    rep.metric("approx.copies_p2", c.copies[1] as f64, "count");
    rep.metric("approx.copies_p3", c.copies[2] as f64, "count");
    rep.metric("core.evaluate_s", l.evaluate, "s");
    rep.metric("solve.busy_s", busy, "s");
    rep.metric("solve.wall_s", wall, "s");
    rep.metric(
        "solve.parallel_eff",
        busy / (wall * threads as f64),
        "ratio",
    );
    rep.metric("solve.overhead_s", busy - l.sum(), "s");
    rep.metric("solve.threads", threads as f64, "count");
    rep.metric("env.nproc", nproc() as f64, "count");
    let share = |v: f64| 100.0 * v / busy;
    eprintln!(
        "layer shares of the single-thread solve ({busy:.3} s busy, {wall:.3} s wall on {threads} \
         threads): apsp {:.1}%, ball {:.1}%, closure {:.1}%, fl {:.1}%, radius-add {:.1}%, \
         radius-prune {:.1}%, evaluate {:.1}%",
        share(l.apsp),
        share(l.ball),
        share(l.closure),
        share(l.fl),
        share(l.radius_add),
        share(l.radius_prune),
        share(l.evaluate)
    );
    eprintln!(
        "tracing overhead: layers called one by one sum to {:.4} s against the untraced \
         single-thread solve's {busy:.4} s ({:+.1}%)",
        l.sum(),
        100.0 * (l.sum() - busy) / busy
    );
    Ok(())
}

fn trace(wl: &SolveWorkload, text: &str, seed: u64, rep: &mut Report) -> Result<(), String> {
    let t = Instant::now();
    let instance = build(text, seed)?;
    let build_s = secs(t);
    let req = request(wl.backend);
    let traced = trace_layers(instance, &req, rep);
    rep.attempted += 1;
    let fresh = || build(text, seed);
    rep.metric("workloads.build_s", build_s, "s");
    record_layers(&traced, &fresh, &req, rep)?;
    if wl.backend == MetricBackend::Dense {
        // Every node is a client, so the sparse backend's balls cover the
        // whole graph and it must place exactly like the dense backend.
        let instance = fresh()?;
        let sparse = approx().solve(&instance, &request(MetricBackend::Sparse));
        check_report(&sparse, &instance, rep);
        rep.check(
            "sparse_equals_dense",
            sets_of(&sparse.placement) == traced.placement,
            || "sparse-backend placement differs from the dense one".into(),
        );
    }
    crate::serve::absent_layers(rep);
    Ok(())
}
