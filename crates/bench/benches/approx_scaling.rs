//! Scaling of the 3-phase approximation algorithm (Theorem 7 — polynomial
//! time; this bench regenerates experiment E10's trend under criterion
//! statistics).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmn_approx::{place_object, ApproxConfig, FlSolverKind};
use dmn_core::instance::ObjectWorkload;
use dmn_graph::dijkstra::apsp;
use dmn_graph::generators;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_place(c: &mut Criterion) {
    let mut group = c.benchmark_group("approx_place_object");
    group.sample_size(10);
    for &n in &[128usize, 256, 512] {
        let radius = (8.0 / n as f64).sqrt();
        let g = generators::random_geometric(n, radius, 10.0, &mut ChaCha8Rng::seed_from_u64(11));
        let metric = apsp(&g);
        let mut w = ObjectWorkload::new(n);
        for v in 0..n {
            w.reads[v] = 1.0;
        }
        w.writes[0] = n as f64 * 0.05;
        let cs: Vec<f64> = (0..n).map(|v| 3.0 + (v % 3) as f64).collect();
        let cfg = ApproxConfig {
            fl_solver: FlSolverKind::MettuPlaxton,
        };
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| place_object(&metric, &cs, &w, &cfg))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_place);
criterion_main!(benches);
