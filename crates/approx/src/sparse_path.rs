//! The sparse metric source: the three-phase algorithm on a truncated
//! metric closure instead of the dense n×n matrix.
//!
//! Per object, the only nodes that matter are its clients (positive request
//! mass) and the candidate facility sites near them. With
//! [`MetricSource::Sparse`](crate::MetricSource), [`place_object_with`]
//!
//! 1. collects the clients and grows a candidate ball around them
//!    ([`dmn_graph::ball_candidates`], sized by [`SparseOpts::expansion`]),
//! 2. builds the **exact** metric closure restricted to that set
//!    ([`dmn_graph::truncated_closure`] — one early-stopped Dijkstra per
//!    candidate, cached for the whole object), maps any warm seed into
//!    the ball (seed nodes outside it are dropped), and
//! 3. runs the same three-phase pipeline as the dense source on the
//!    restricted instance,
//!
//! then maps the copy set back to global node ids. When the candidate set
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
    use crate::algorithm::{place_object_in, PhaseTrace};
    use dmn_graph::{apsp, generators, Metric};

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
}
