//! E14 — Phase-1 scaling: the incremental local search vs the seed
//! implementation as the network grows.
//!
//! Phase 1 (the UFL solve) dominates the wall time of the three-phase
//! algorithm. The incremental fast path keeps nearest/second-nearest
//! assignment tables, prices all adds and swaps of an iteration in one
//! vectorizable sweep over the clients and each drop in one pass, instead
//! of the seed's from-scratch `O(|clients| · |open|)` scan per candidate,
//! so its advantage grows with both the node count and the open-set size.
//! This experiment measures, on random geometric networks of increasing
//! size: the seed local search (up to the size where it is
//! still tolerable), the incremental search (identical placements —
//! asserted), the Mettu–Plaxton warm start, and plain Mettu–Plaxton,
//! reporting wall clock, speedup, and the search counters.

use dmn_facility::{
    local_search, local_search_reference, local_search_warm_in, mettu_plaxton, FlInstance,
    FlWorkspace, LocalSearchConfig,
};
use dmn_graph::dijkstra::apsp;
use dmn_graph::generators;
use rand::Rng;

use super::{rng, time};
use crate::report::{Report, Table};

/// Node counts swept; the seed reference runs only up to
/// [`MAX_REFERENCE_NODES`] (it is quartic-ish in practice).
const SIZES: [usize; 4] = [50, 100, 200, 400];

/// Largest size the from-scratch reference is timed at.
const MAX_REFERENCE_NODES: usize = 200;

/// Runs E14 and returns its report.
pub fn run() -> Report {
    let mut report = Report::new(
        "E14",
        "phase-1 scaling: incremental assignment-table local search vs the seed implementation",
    );
    let cfg = LocalSearchConfig::default();
    let mut ws = FlWorkspace::new();
    let mut table = Table::new(
        "random geometric networks, per-size FL solve (one object)".to_string(),
        &[
            "n",
            "seed (ms)",
            "incr (ms)",
            "speedup",
            "moves",
            "cands",
            "warm (ms)",
            "warm moves",
            "mp (ms)",
            "warm/incr cost",
        ],
    );
    let mut speedups = Vec::new();
    for (i, &n) in SIZES.iter().enumerate() {
        let mut r = rng(14_000 + i as u64);
        let g = generators::random_geometric(n, (40.0 / n as f64).sqrt().min(0.9), 10.0, &mut r);
        let metric = apsp(&g);
        let open: Vec<f64> = (0..n).map(|_| r.random_range(1.0..8.0)).collect();
        let demand: Vec<f64> = (0..n).map(|_| r.random_range(0.0..3.0)).collect();
        let inst = FlInstance::new(&metric, open, demand);

        let (incr, incr_s) = time(|| ws.local_search(&inst, &cfg));
        let incr_stats = ws.last_stats();
        let (warm, warm_s) = time(|| local_search_warm_in(&mut ws, &inst, &cfg));
        let warm_stats = ws.last_stats();
        let (mp, mp_s) = time(|| mettu_plaxton(&inst));
        assert!(
            warm.cost <= mp.cost + 1e-9,
            "search must not hurt the start"
        );
        assert_eq!(
            local_search(&inst, &cfg).open,
            incr.open,
            "workspace and one-shot paths agree"
        );

        let (seed_cell, speedup_cell) = if n <= MAX_REFERENCE_NODES {
            let (seed, seed_s) = time(|| local_search_reference(&inst, &cfg));
            assert_eq!(seed.open, incr.open, "n = {n}: fast path diverged");
            let speedup = seed_s / incr_s.max(1e-12);
            speedups.push(speedup);
            (format!("{:.1}", seed_s * 1e3), format!("{speedup:.1}x"))
        } else {
            ("-".to_string(), "-".to_string())
        };
        table.row(vec![
            n.to_string(),
            seed_cell,
            format!("{:.1}", incr_s * 1e3),
            speedup_cell,
            incr_stats.moves.to_string(),
            incr_stats.candidates.to_string(),
            format!("{:.1}", warm_s * 1e3),
            warm_stats.moves.to_string(),
            format!("{:.2}", mp_s * 1e3),
            format!("{:.4}", warm.cost / incr.cost.max(1e-12)),
        ]);
    }
    report.table(table);
    let min_speedup = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    report.finding(format!(
        "identical placements at every measured size; the incremental search is at least \
         {min_speedup:.1}x faster than the seed implementation (growing with n and the \
         open-set size), and the Mettu–Plaxton warm start cuts the accepted-move count \
         further at matching quality"
    ));
    report
}
