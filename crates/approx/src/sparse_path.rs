//! The sparse metric source: the three-phase algorithm on a truncated
//! metric closure instead of the dense n×n matrix.
//!
//! Per object, the only nodes that matter are its clients (positive request
//! mass) and the candidate facility sites near them. With
//! [`MetricSource::Sparse`](crate::MetricSource), [`place_object_with`]
//!
//! 1. collects the clients and grows a candidate ball around them
//!    ([`dmn_graph::ball_candidates`], sized by [`SparseOpts::expansion`]),
//! 2. sets up the **exact** metric closure restricted to that set
//!    ([`dmn_graph::TruncatedClosure`]), and builds a row of it — one
//!    early-stopped Dijkstra — only for a node whose row a phase reads:
//!    each client, before phase 1; each phase-1 copy that is not a
//!    client, after it; each phase-2 addition that is not a client, as it
//!    is added. Phase 1 reads client rows only (the radii and the
//!    nearest-copy oracle read `d(client, ·)` and `d(copy, ·)`), unless a
//!    cold backend reads other rows
//!    ([`Solver::reads_only_client_rows`](dmn_facility::Solver::reads_only_client_rows));
//!    then every ball row is built before phase 1. It also maps any warm
//!    seed into the ball (seed nodes outside it are dropped), and
//! 3. runs the same three-phase pipeline as the dense source on the
//!    restricted instance,
//!
//! then maps the copy set back to global node ids. The rows built are
//! bit-identical to the eager [`dmn_graph::truncated_closure`]'s, so
//! building them on request changes no phase. When the candidate set
//! covers every node (e.g. every node is a client, or `expansion` is
//! large), the restricted closure is bit-identical to the dense `apsp`
//! rows and the whole trajectory — facility location, radii, both radius
//! phases — reproduces the dense path exactly, warm seeds included; with
//! a truncated set the result may differ because facilities outside the
//! ball are not considered, which the E16 experiment and the perf-smoke
//! `scale_ok` gate bound in cost.

use dmn_core::instance::ObjectWorkload;
use dmn_facility::FlWorkspace;
use dmn_graph::{ball_candidates, Graph, NodeId};

use crate::algorithm::{place_object_with, ApproxConfig, MetricSource, PlaceOutcome};

/// Knobs of the sparse metric source.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseOpts {
    /// Candidate-ball size as a multiple of the client count: the per-object
    /// facility candidate set has `max(min_candidates, ceil(expansion *
    /// |clients|))` nodes (clamped to the graph). Larger = closer to the
    /// dense path, slower.
    pub expansion: f64,
    /// Floor on the candidate-set size (keeps tiny objects from degenerate
    /// one-node balls).
    pub min_candidates: usize,
}

impl Default for SparseOpts {
    fn default() -> Self {
        SparseOpts {
            expansion: 3.0,
            min_candidates: 16,
        }
    }
}

/// [`place_object_with`] on the sparse source with a cold start.
///
/// # Panics
/// Panics when the workload has no requests or every node has infinite
/// storage cost.
pub fn place_object_sparse_in(
    ws: &mut FlWorkspace,
    graph: &Graph,
    storage_cost: &[f64],
    workload: &ObjectWorkload,
    cfg: &ApproxConfig,
    opts: &SparseOpts,
) -> PlaceOutcome {
    let src = MetricSource::Sparse(graph, opts);
    place_object_with(ws, src, storage_cost, workload, cfg, None)
}

/// The object's candidate set, ascending: its clients plus the ball around
/// them.
pub(crate) fn candidate_set(
    graph: &Graph,
    storage_cost: &[f64],
    workload: &ObjectWorkload,
    opts: &SparseOpts,
) -> Vec<NodeId> {
    let n = graph.num_nodes();
    assert_eq!(storage_cost.len(), n);
    let clients: Vec<NodeId> = (0..n).filter(|&v| workload.request_mass(v) > 0.0).collect();
    assert!(!clients.is_empty(), "workload has no requests");
    let target = ((clients.len() as f64 * opts.expansion).ceil() as usize)
        .max(opts.min_candidates)
        .min(n);
    let mut cand = ball_candidates(graph, &clients, target);
    if !cand.iter().any(|&v| storage_cost[v].is_finite()) {
        // Correctness fallback for pathological cost maps: every allowed
        // site sits outside the ball, so pull them all in.
        cand.extend((0..n).filter(|&v| storage_cost[v].is_finite()));
        cand.sort_unstable();
        cand.dedup();
    }
    cand
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{
        place_object_in, run_phases, usable_seed, FlSolverKind, PhaseTrace, Rows,
    };
    use dmn_graph::generators::{self, TransitStubParams};
    use dmn_graph::{apsp, truncated_closure, Metric};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn uniform_reads(n: usize) -> ObjectWorkload {
        let mut w = ObjectWorkload::new(n);
        for v in 0..n {
            w.reads[v] = 1.0 + (v % 3) as f64;
        }
        w
    }

    fn dense_trace(m: &Metric, cs: &[f64], w: &ObjectWorkload, cfg: &ApproxConfig) -> PhaseTrace {
        place_object_in(&mut FlWorkspace::new(), m, cs, w, cfg).0
    }

    fn sparse(
        g: &Graph,
        cs: &[f64],
        w: &ObjectWorkload,
        cfg: &ApproxConfig,
        opts: &SparseOpts,
    ) -> PlaceOutcome {
        place_object_sparse_in(&mut FlWorkspace::new(), g, cs, w, cfg, opts)
    }

    #[test]
    fn full_coverage_reproduces_dense_path_exactly() {
        // Every node is a client → the candidate set is the whole graph →
        // the truncated closure equals apsp bit for bit → identical phases.
        let g = generators::kary_tree(14, 2, |e| 1.0 + (e % 4) as f64 * 0.5);
        let m = apsp(&g);
        let mut w = uniform_reads(14);
        w.writes[3] = 2.0;
        let cs = vec![4.0; 14];
        let cfg = ApproxConfig::default();
        let dense = dense_trace(&m, &cs, &w, &cfg);
        let sparse = sparse(&g, &cs, &w, &cfg, &SparseOpts::default());
        assert_eq!(sparse.candidates, 14);
        assert_eq!(sparse.trace.after_phase1, dense.after_phase1);
        assert_eq!(sparse.trace.after_phase2, dense.after_phase2);
        assert_eq!(sparse.trace.after_phase3, dense.after_phase3);
    }

    #[test]
    fn large_expansion_reproduces_dense_on_partial_clients() {
        let g = generators::grid(5, 6, |u, v| 1.0 + ((u * v) % 3) as f64);
        let m = apsp(&g);
        let mut w = ObjectWorkload::new(30);
        w.reads[2] = 3.0;
        w.reads[17] = 1.0;
        w.writes[25] = 0.5;
        let cs = vec![3.0; 30];
        let cfg = ApproxConfig::default();
        let opts = SparseOpts {
            expansion: 1e9,
            ..SparseOpts::default()
        };
        let dense = dense_trace(&m, &cs, &w, &cfg);
        let sparse = sparse(&g, &cs, &w, &cfg, &opts);
        assert_eq!(sparse.candidates, 30, "expansion covers the graph");
        assert_eq!(sparse.trace.after_phase3, dense.after_phase3);
    }

    #[test]
    fn truncated_ball_stays_valid_and_local() {
        let g = generators::grid(8, 8, |_, _| 1.0);
        let mut w = ObjectWorkload::new(64);
        w.reads[0] = 5.0;
        w.reads[9] = 2.0; // clients in one corner
        let cs = vec![2.0; 64];
        let out = sparse(
            &g,
            &cs,
            &w,
            &ApproxConfig::default(),
            &SparseOpts::default(),
        );
        assert!(out.candidates < 64, "ball must truncate");
        assert!(!out.trace.after_phase3.is_empty());
        assert!(out.trace.after_phase3.iter().all(|&v| v < 64));
        assert!(
            out.trace.after_phase3.windows(2).all(|p| p[0] < p[1]),
            "sorted global ids"
        );
    }

    #[test]
    fn pulls_in_allowed_sites_when_ball_has_none() {
        // Storage is only allowed far from the clients: the fallback must
        // extend the candidate set instead of panicking.
        let g = generators::path(20, |_| 1.0);
        let mut w = ObjectWorkload::new(20);
        w.reads[0] = 1.0;
        w.reads[1] = 1.0;
        let mut cs = vec![f64::INFINITY; 20];
        cs[19] = 1.0;
        let opts = SparseOpts {
            expansion: 1.0,
            min_candidates: 2,
        };
        let out = sparse(&g, &cs, &w, &ApproxConfig::default(), &opts);
        assert_eq!(out.trace.after_phase3, vec![19]);
    }

    #[test]
    fn warm_seed_is_mapped_into_the_ball() {
        let g = generators::grid(8, 8, |_, _| 1.0);
        let mut w = ObjectWorkload::new(64);
        w.reads[0] = 5.0;
        w.reads[9] = 2.0;
        w.writes[1] = 1.0;
        let cs = vec![2.0; 64];
        let cfg = ApproxConfig::default();
        let opts = SparseOpts::default();
        let cold = sparse(&g, &cs, &w, &cfg, &opts);
        assert!(cold.candidates < 64, "ball must truncate");
        let mut ws = FlWorkspace::new();
        let src = MetricSource::Sparse(&g, &opts);

        // Node 63 is outside the corner ball and 500 outside the graph:
        // only node 9 survives, in local ids, and seeds phase 1.
        let out = place_object_with(&mut ws, src, &cs, &w, &cfg, Some(&[63, 500, 9]));
        assert!(out.warm_seeded);
        assert!(!out.trace.after_phase3.is_empty());
        assert!(out.trace.after_phase3.iter().all(|&v| v < 64));

        // A seed with nothing inside the ball runs cold, exactly.
        let out = place_object_with(&mut ws, src, &cs, &w, &cfg, Some(&[63, 500]));
        assert!(!out.warm_seeded);
        assert_eq!(out.trace.after_phase3, cold.trace.after_phase3);
        assert_eq!(out.timings.fl_moves, cold.timings.fl_moves);
    }

    /// The sparse path's phase sets over the same ball with every closure
    /// row built up front: `truncated_closure`, then the same phases.
    fn eager_trace(
        g: &Graph,
        cs: &[f64],
        w: &ObjectWorkload,
        cfg: &ApproxConfig,
        warm: Option<&[NodeId]>,
    ) -> PhaseTrace {
        let cand = candidate_set(g, cs, w, &SparseOpts::default());
        let metric = truncated_closure(g, &cand);
        let local_cs: Vec<f64> = cand.iter().map(|&v| cs[v]).collect();
        let masses: Vec<f64> = cand.iter().map(|&v| w.request_mass(v)).collect();
        let seed = warm.and_then(|set| {
            usable_seed(
                set.iter().filter_map(|v| cand.binary_search(v).ok()),
                &local_cs,
            )
        });
        let rows = &mut Rows::Dense(&metric);
        let w_total = w.total_writes();
        let (trace, _) = run_phases(
            &mut FlWorkspace::new(),
            rows,
            &local_cs,
            &masses,
            w_total,
            cfg,
            seed,
        );
        let lift = |local: Vec<NodeId>| local.into_iter().map(|i| cand[i]).collect();
        PhaseTrace {
            after_phase1: lift(trace.after_phase1),
            after_phase2: lift(trace.after_phase2),
            after_phase3: lift(trace.after_phase3),
        }
    }

    /// Places one object on the lazy sparse path and checks it against
    /// the eager closure: equal phase sets, and exactly the rows the phases
    /// read. Returns the outcome.
    fn assert_lazy_matches_eager(
        label: &str,
        g: &Graph,
        cs: &[f64],
        w: &ObjectWorkload,
        fl: FlSolverKind,
        warm: Option<&[NodeId]>,
    ) -> PlaceOutcome {
        let cfg = ApproxConfig { fl_solver: fl };
        let src = MetricSource::Sparse(g, &SparseOpts::default());
        let lazy = place_object_with(&mut FlWorkspace::new(), src, cs, w, &cfg, warm);
        let warm = warm.filter(|_| lazy.warm_seeded);
        let eager = eager_trace(g, cs, w, &cfg, warm);
        assert_eq!(lazy.trace.after_phase1, eager.after_phase1, "{label}");
        assert_eq!(lazy.trace.after_phase2, eager.after_phase2, "{label}");
        assert_eq!(lazy.trace.after_phase3, eager.after_phase3, "{label}");
        // Rows: the whole ball for a cold backend that reads other rows,
        // else the clients plus every copy of phases 1–2 off them.
        let clients = (0..g.num_nodes()).filter(|&v| w.request_mass(v) > 0.0);
        let off_clients = lazy
            .trace
            .after_phase2
            .iter()
            .filter(|&&v| w.request_mass(v) == 0.0);
        let want = if lazy.warm_seeded || fl.reads_only_client_rows() {
            clients.count() + off_clients.count()
        } else {
            lazy.candidates
        };
        assert_eq!(lazy.rows_built, want, "{label}: rows built");
        lazy
    }

    /// Networks with real-valued weights, on which a closure is symmetric
    /// only up to an ulp.
    fn real_weighted_graphs(rng: &mut ChaCha8Rng) -> Vec<(&'static str, Graph)> {
        let stub = TransitStubParams {
            transits: 3,
            stubs_per_transit: 2,
            nodes_per_stub: 9,
            transit_edge_cost: 19.7,
            uplink_cost: 7.3,
            stub_edge_cost: 1.1,
            stub_extra_edge_p: 0.3,
        };
        vec![
            ("gnp", generators::gnp_connected(56, 0.08, (0.7, 3.9), rng)),
            (
                "geometric",
                generators::random_geometric(56, 0.25, 10.0, rng),
            ),
            ("transit-stub", generators::transit_stub(stub, rng)),
        ]
    }

    /// A truncating object: `k` random clients with reads, some writes.
    fn random_object(n: usize, k: usize, rng: &mut ChaCha8Rng) -> ObjectWorkload {
        let mut w = ObjectWorkload::new(n);
        for _ in 0..k {
            let v = rng.random_range(0..n);
            w.reads[v] += rng.random_range(1.0..5.0);
            if rng.random_bool(0.4) {
                w.writes[v] += rng.random_range(0.2..2.0);
            }
        }
        w
    }

    /// Every phase-1 backend, cold and warm, on truncating workloads over
    /// real-valued networks with forbidden sites: building closure rows
    /// on request changes no phase set.
    #[test]
    fn lazy_rows_match_the_eager_closure_for_every_backend() {
        let mut rng = ChaCha8Rng::seed_from_u64(18);
        let mut seeded = 0;
        for (name, g) in real_weighted_graphs(&mut rng) {
            let n = g.num_nodes();
            for case in 0..3 {
                let cs: Vec<f64> = (0..n)
                    .map(|_| {
                        if rng.random_bool(0.15) {
                            f64::INFINITY
                        } else {
                            rng.random_range(1.0..8.0)
                        }
                    })
                    .collect();
                let w = random_object(n, 5, &mut rng);
                let warm: Vec<NodeId> = (0..4).map(|_| rng.random_range(0..n + 2)).collect();
                for fl in FlSolverKind::ALL {
                    for seed in [None, Some(&warm[..])] {
                        let label = format!("{name} case {case} {fl:?} warm {seed:?}");
                        let out = assert_lazy_matches_eager(&label, &g, &cs, &w, fl, seed);
                        assert!(out.candidates < n, "{label}: the ball must truncate");
                        seeded += usize::from(out.warm_seeded);
                    }
                }
            }
        }
        assert!(seeded > 0, "no warm seed reached phase 1");
    }

    /// Storage is forbidden on every client, so every copy sits off the
    /// clients and needs its own row, built after phase 1 or during
    /// phase 2. One client outweighs the rest by 10^8, so phase 1's
    /// relative-gain threshold leaves the light clients on the hotspot's
    /// copies and phase 2 adds copies near them.
    #[test]
    fn copies_off_the_clients_get_their_own_rows() {
        let mut rng = ChaCha8Rng::seed_from_u64(81);
        let mut phase2_rows = 0;
        for (name, g) in real_weighted_graphs(&mut rng) {
            let n = g.num_nodes();
            for case in 0..3 {
                let mut w = random_object(n, 8, &mut rng);
                w.reads[rng.random_range(0..n)] += 1e8;
                let cs: Vec<f64> = (0..n)
                    .map(|v| {
                        if w.request_mass(v) > 0.0 {
                            f64::INFINITY
                        } else {
                            rng.random_range(0.1..1.0)
                        }
                    })
                    .collect();
                let label = format!("{name} case {case}");
                let fl = FlSolverKind::LocalSearch;
                let out = assert_lazy_matches_eager(&label, &g, &cs, &w, fl, None);
                let clients = (0..n).filter(|&v| w.request_mass(v) > 0.0).count();
                let copies = out.trace.after_phase2.len();
                assert_eq!(out.rows_built, clients + copies, "{label}");
                phase2_rows += copies - out.trace.after_phase1.len();
            }
        }
        assert!(phase2_rows > 0, "no phase-2 copy needed a row of its own");
    }
}
