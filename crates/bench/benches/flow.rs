//! Min-cost-flow benchmark at the sizes the capacitated engine produces
//! (matching the facility bench's 50/200/800 scaling).
//!
//! The cross-object *slot circulation* (`single_copy_flow_placement`) —
//! objects against per-node copy capacities with a lower bound of one
//! copy each — is the capacitated engine's flow seed. It runs the raw
//! successive-shortest-path engine, so a regression in `dmn_graph::flow`
//! shows up at exactly the sizes the solver pipeline cares about.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmn_capacitated::single_copy_flow_placement;
use dmn_core::instance::{Instance, ObjectWorkload};
use dmn_graph::generators;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn bench_flow(c: &mut Criterion) {
    // The full scaling sweep needs optimized code; the debug-mode smoke
    // run (`cargo test --benches`, one iteration per bench, no optimizer)
    // keeps only the small size so CI stays fast.
    let sizes: &[usize] = if cfg!(debug_assertions) {
        &[50]
    } else {
        &[50, 200, 800]
    };

    let mut group = c.benchmark_group("flow_seed");
    group.sample_size(10);
    for &n in sizes {
        let mut r = ChaCha8Rng::seed_from_u64(16);
        let radius = (16.0 / n as f64).sqrt().min(0.3);
        let g = generators::random_geometric(n, radius, 10.0, &mut r);
        let mut inst = Instance::builder(g).uniform_storage_cost(2.0).build();
        for _ in 0..(n / 8).max(4) {
            let mut w = ObjectWorkload::new(n);
            for v in 0..n {
                if r.random_bool(0.3) {
                    w.reads[v] = r.random_range(0.5..3.0);
                }
            }
            if w.total_requests() == 0.0 {
                w.reads[0] = 1.0;
            }
            inst.push_object(w);
        }
        inst.metric(); // hoist the APSP out of the measured region
        let cap = vec![1usize; n];
        let candidates: Vec<Vec<usize>> =
            vec![dmn_capacitated::all_allowed(&inst); inst.num_objects()];
        group.bench_with_input(
            BenchmarkId::new("single_copy_circulation", n),
            &(&inst, &cap, &candidates),
            |b, &(inst, cap, candidates)| {
                b.iter(|| single_copy_flow_placement(inst, cap, candidates).expect("feasible"))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_flow);
criterion_main!(benches);
