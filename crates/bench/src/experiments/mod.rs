//! The per-claim experiment suite (DESIGN.md §5).
//!
//! Each submodule measures one quantitative claim of the paper and returns
//! a [`crate::Report`]. The `experiments` binary dispatches on experiment
//! ids (`e1`..`e16`, `all`).

pub mod e10_approx_runtime;
pub mod e11_dynamic;
pub mod e12_extensions;
pub mod e13_thread_scaling;
pub mod e14_phase1_scaling;
pub mod e15_capacitated;
pub mod e16_sparse_metric;
pub mod e1_lemma1;
pub mod e2_approx_ratio;
pub mod e3_properness;
pub mod e4_tree_optimality;
pub mod e5_tree_runtime;
pub mod e6_write_sweep;
pub mod e7_load_model;
pub mod e8_phase_ablation;
pub mod e9_fl_ablation;

use dmn_core::instance::ObjectWorkload;
use dmn_graph::dijkstra::apsp;
use dmn_graph::{generators, Metric};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::Report;

/// Runs one experiment by id; `all` runs everything. Returns the reports.
pub fn run(id: &str) -> Vec<Report> {
    match id {
        "e1" => vec![e1_lemma1::run()],
        "e2" => vec![e2_approx_ratio::run()],
        "e3" => vec![e3_properness::run()],
        "e4" => vec![e4_tree_optimality::run()],
        "e5" => vec![e5_tree_runtime::run()],
        "e6" => vec![e6_write_sweep::run()],
        "e7" => vec![e7_load_model::run()],
        "e8" => vec![e8_phase_ablation::run()],
        "e9" => vec![e9_fl_ablation::run()],
        "e10" => vec![e10_approx_runtime::run()],
        "e11" => vec![e11_dynamic::run()],
        "e12" => vec![e12_extensions::run()],
        "e13" => vec![e13_thread_scaling::run()],
        "e14" => vec![e14_phase1_scaling::run()],
        "e15" => vec![e15_capacitated::run()],
        "e16" => vec![e16_sparse_metric::run()],
        "all" => vec![
            e1_lemma1::run(),
            e2_approx_ratio::run(),
            e3_properness::run(),
            e4_tree_optimality::run(),
            e5_tree_runtime::run(),
            e6_write_sweep::run(),
            e7_load_model::run(),
            e8_phase_ablation::run(),
            e9_fl_ablation::run(),
            e10_approx_runtime::run(),
            e11_dynamic::run(),
            e12_extensions::run(),
            e13_thread_scaling::run(),
            e14_phase1_scaling::run(),
            e15_capacitated::run(),
            e16_sparse_metric::run(),
        ],
        other => panic!("unknown experiment id: {other} (use e1..e16 or all)"),
    }
}

/// Deterministic RNG for an experiment/seed pair.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// A random small validation instance: connected G(n, p) network with
/// integer edge costs, storage costs scaled by `cs_scale`, and a mixed
/// workload with roughly `write_share` of the request mass as writes.
pub fn small_instance(
    n: usize,
    cs_scale: f64,
    write_share: f64,
    r: &mut ChaCha8Rng,
) -> (Metric, Vec<f64>, ObjectWorkload) {
    let p = 0.4;
    let g = generators::gnp_connected(n, p, (1.0, 6.0), r);
    let metric = apsp(&g);
    let cs: Vec<f64> = (0..n)
        .map(|_| cs_scale * r.random_range(1..=4) as f64)
        .collect();
    let mut w = ObjectWorkload::new(n);
    for v in 0..n {
        if r.random_bool(0.8) {
            let mass = r.random_range(1..=4) as f64;
            if r.random_bool(write_share.clamp(0.0, 1.0)) {
                w.writes[v] = mass;
            } else {
                w.reads[v] = mass;
            }
        }
    }
    if w.total_requests() == 0.0 {
        w.reads[0] = 1.0;
    }
    (metric, cs, w)
}

/// Wall-clock seconds of a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Maximum of a slice (0 for empty).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_instance_is_valid() {
        let mut r = rng(1);
        let (m, cs, w) = small_instance(8, 2.0, 0.4, &mut r);
        assert_eq!(m.len(), 8);
        assert_eq!(cs.len(), 8);
        assert!(w.validate().is_ok());
        m.check_axioms(1e-9).unwrap();
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(max(&[1.0, 3.0, 2.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
