//! Equivalence pinning for the incremental local search: across random
//! metric instances the assignment-table fast path must reproduce the
//! seed implementation ([`local_search_reference`]) *exactly* — same open
//! set, bit-identical reported cost (candidate costs are accumulated in
//! the same floating-point order) — including the edge cases the seed
//! handles: forbidden sites (`f64::INFINITY` opening cost) and zero-cost
//! facilities. Warm starts are pinned the same way against the reference
//! loop run from the same start, and the Mettu–Plaxton warm start is
//! cross-checked to never end worse than the cold start on the corpus.

use dmn_facility::{
    local_search, local_search_from, local_search_reference, local_search_reference_from,
    local_search_warm, mettu_plaxton, FlInstance, FlSolution, FlWorkspace, LocalSearchConfig,
};
use dmn_graph::dijkstra::apsp;
use dmn_graph::generators;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: u64 = 60;

fn random_instance(n: usize, seed: u64) -> (dmn_graph::Metric, Vec<f64>, Vec<f64>) {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let g = generators::gnp_connected(n, 0.4, (1.0, 8.0), &mut r);
    let m = apsp(&g);
    let open: Vec<f64> = (0..n).map(|_| r.random_range(0.5..10.0)).collect();
    let mut demand: Vec<f64> = (0..n).map(|_| r.random_range(0..4) as f64).collect();
    if demand.iter().all(|&d| d == 0.0) {
        demand[0] = 1.0;
    }
    (m, open, demand)
}

fn assert_equivalent(seed: u64, label: &str, fast: &FlSolution, reference: &FlSolution) {
    assert_eq!(
        fast.open, reference.open,
        "seed {seed} ({label}): open sets diverged"
    );
    // Candidate costs are accumulated in the reference's floating-point
    // order, so the reported cost must be *bit*-identical, not merely
    // within tolerance.
    assert_eq!(
        fast.cost.to_bits(),
        reference.cost.to_bits(),
        "seed {seed} ({label}): cost {} vs {}",
        fast.cost,
        reference.cost
    );
}

/// The fast path is placement- and cost-identical to the seed
/// implementation on random instances.
#[test]
fn incremental_matches_reference() {
    let cfg = LocalSearchConfig::default();
    let mut ws = FlWorkspace::new();
    for seed in 0..CASES {
        let mut r = ChaCha8Rng::seed_from_u64(700_000 + seed);
        let n = r.random_range(4..18);
        let (m, open, demand) = random_instance(n, seed);
        let inst = FlInstance::new(&m, open, demand);
        // Through a reused workspace (the hot-path configuration) and
        // through the one-shot free function.
        let fast_ws = ws.local_search(&inst, &cfg);
        let fast = local_search(&inst, &cfg);
        let reference = local_search_reference(&inst, &cfg);
        assert_equivalent(seed, "workspace", &fast_ws, &reference);
        assert_equivalent(seed, "one-shot", &fast, &reference);
        assert!(
            (inst.total_cost(&fast.open) - fast.cost).abs() < 1e-9,
            "seed {seed}: reported cost inconsistent with re-evaluation"
        );
    }
}

/// Forbidden sites (infinite opening cost) never open, and the fast path
/// still tracks the reference exactly.
#[test]
fn incremental_matches_reference_with_forbidden_sites() {
    let cfg = LocalSearchConfig::default();
    for seed in 0..CASES {
        let mut r = ChaCha8Rng::seed_from_u64(710_000 + seed);
        let n = r.random_range(5..16);
        let (m, mut open, demand) = random_instance(n, 31_000 + seed);
        // Forbid a random strict subset of the sites.
        for c in open.iter_mut().skip(1) {
            if r.random_bool(0.4) {
                *c = f64::INFINITY;
            }
        }
        let inst = FlInstance::new(&m, open, demand);
        let fast = local_search(&inst, &cfg);
        let reference = local_search_reference(&inst, &cfg);
        assert_equivalent(seed, "forbidden", &fast, &reference);
        assert!(
            fast.open.iter().all(|&f| inst.open_cost[f].is_finite()),
            "seed {seed}: opened a forbidden site"
        );
    }
}

/// Zero-cost facilities (ties and zero gains everywhere) exercise the
/// tie-breaking paths; the trajectories must still coincide.
#[test]
fn incremental_matches_reference_with_zero_cost_facilities() {
    let cfg = LocalSearchConfig::default();
    for seed in 0..CASES {
        let mut r = ChaCha8Rng::seed_from_u64(720_000 + seed);
        let n = r.random_range(4..14);
        let (m, mut open, demand) = random_instance(n, 62_000 + seed);
        for c in open.iter_mut() {
            if r.random_bool(0.5) {
                *c = 0.0;
            }
        }
        let inst = FlInstance::new(&m, open, demand);
        let fast = local_search(&inst, &cfg);
        let reference = local_search_reference(&inst, &cfg);
        assert_equivalent(seed, "zero-cost", &fast, &reference);
    }
}

/// Warm starts follow the reference trajectory from the same start, with
/// 20% of the sites forbidden: the Mettu–Plaxton start (the server's
/// default), every allowed site (the largest price table) and a random
/// half of the sites, all through one reused workspace.
#[test]
fn warm_starts_match_reference_from_the_same_start() {
    let cfg = LocalSearchConfig::default();
    let mut ws = FlWorkspace::new();
    for seed in 0..CASES {
        let mut r = ChaCha8Rng::seed_from_u64(750_000 + seed);
        let n = r.random_range(4..18);
        let (m, mut open, demand) = random_instance(n, 84_000 + seed);
        for c in open.iter_mut().skip(1) {
            if r.random_bool(0.2) {
                *c = f64::INFINITY;
            }
        }
        let inst = FlInstance::new(&m, open, demand);
        let sites = inst.sites();
        let mut half = sites.clone();
        half.shuffle(&mut r);
        half.truncate(sites.len().div_ceil(2));
        for (label, start) in [
            ("mettu-plaxton", mettu_plaxton(&inst).open),
            ("all sites", sites),
            ("random half", half),
        ] {
            let fast = ws.local_search_from(&inst, &start, &cfg);
            let reference = local_search_reference_from(&inst, &start, &cfg);
            assert_equivalent(seed, label, &fast, &reference);
        }
    }
}

/// The Mettu–Plaxton warm start never ends worse than the cold start on
/// the corpus, and its result is a genuine local optimum (re-running the
/// search from it is a fixed point).
#[test]
fn warm_start_never_worse_than_cold() {
    let cfg = LocalSearchConfig::default();
    for seed in 0..CASES {
        let mut r = ChaCha8Rng::seed_from_u64(730_000 + seed);
        let n = r.random_range(4..16);
        let (m, open, demand) = random_instance(n, 93_000 + seed);
        let inst = FlInstance::new(&m, open, demand);
        let cold = local_search(&inst, &cfg);
        let warm = local_search_warm(&inst, &cfg);
        assert!(
            warm.cost <= cold.cost + 1e-9,
            "seed {seed}: warm {} > cold {}",
            warm.cost,
            cold.cost
        );
        assert!(
            warm.cost <= mettu_plaxton(&inst).cost + 1e-9,
            "seed {seed}: local search made the start worse"
        );
        let again = local_search_from(&inst, &warm.open, &cfg);
        assert_eq!(again.open, warm.open, "seed {seed}: not a local optimum");
    }
}

/// Seeding from every allowed site at once (the full-replication start)
/// converges to a solution no worse than the cold start.
#[test]
fn full_start_converges() {
    let cfg = LocalSearchConfig::default();
    for seed in 0..20 {
        let mut r = ChaCha8Rng::seed_from_u64(740_000 + seed);
        let n = r.random_range(4..12);
        let (m, open, demand) = random_instance(n, 47_000 + seed);
        let inst = FlInstance::new(&m, open, demand);
        let sites = inst.sites();
        let from_full = local_search_from(&inst, &sites, &cfg);
        let cold = local_search(&inst, &cfg);
        assert!(
            from_full.cost <= cold.cost + 1e-9,
            "seed {seed}: full start {} > cold {}",
            from_full.cost,
            cold.cost
        );
        assert!(
            (inst.total_cost(&from_full.open) - from_full.cost).abs() < 1e-9,
            "seed {seed}"
        );
    }
}
