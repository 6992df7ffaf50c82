//! Substrate micro-benchmarks: shortest paths, MSTs, Steiner trees,
//! min-cost flow. These are the primitives every placement algorithm
//! leans on; regressions here propagate everywhere.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmn_graph::dijkstra::{apsp, shortest_paths};
use dmn_graph::flow::{min_cost_circulation, ArcSpec};
use dmn_graph::generators::{self, TransitStubParams};
use dmn_graph::mst::{kruskal, metric_mst_weight};
use dmn_graph::steiner::{dreyfus_wagner, steiner_2approx_weight};
use dmn_graph::truncated_closure;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn bench_shortest_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("dijkstra");
    for &n in &[256usize, 1024] {
        let g = generators::random_geometric(n, 0.15, 10.0, &mut ChaCha8Rng::seed_from_u64(1));
        group.bench_with_input(BenchmarkId::new("single_source", n), &g, |b, g| {
            b.iter(|| shortest_paths(g, 0))
        });
    }
    let g = generators::random_geometric(256, 0.15, 10.0, &mut ChaCha8Rng::seed_from_u64(1));
    group.bench_function("apsp_256", |b| b.iter(|| apsp(&g)));
    // The distance-only searches gain most where many keys tie: a unit
    // grid, as in the sparse solve's closure rows, against a real-weighted
    // transit-stub graph whose keys rarely tie.
    let grid = generators::grid(100, 100, |_, _| 1.0);
    let spread: Vec<usize> = (0..5)
        .flat_map(|r| (0..8).map(move |c| (10 + 20 * r) * 100 + 6 + 12 * c))
        .collect();
    group.bench_function("truncated_closure_grid_10k_40_targets", |b| {
        b.iter(|| truncated_closure(&grid, &spread))
    });
    let params = TransitStubParams {
        transits: 8,
        stubs_per_transit: 4,
        nodes_per_stub: 12,
        transit_edge_cost: 20.3,
        uplink_cost: 7.77,
        stub_edge_cost: 0.91,
        stub_extra_edge_p: 0.3,
    };
    let ts = generators::transit_stub(params, &mut ChaCha8Rng::seed_from_u64(4));
    group.bench_function("apsp_transit_stub_392", |b| b.iter(|| apsp(&ts)));
    group.finish();
}

fn bench_mst(c: &mut Criterion) {
    let mut group = c.benchmark_group("mst");
    let g = generators::gnp_connected(512, 0.05, (1.0, 9.0), &mut ChaCha8Rng::seed_from_u64(2));
    group.bench_function("kruskal_512", |b| b.iter(|| kruskal(&g)));
    let m = apsp(&generators::grid(12, 12, |_, _| 1.0));
    let nodes: Vec<usize> = (0..144).step_by(3).collect();
    group.bench_function("metric_mst_48_terminals", |b| {
        b.iter(|| metric_mst_weight(&m, &nodes))
    });
    group.finish();
}

fn bench_steiner(c: &mut Criterion) {
    let mut group = c.benchmark_group("steiner");
    let m = apsp(&generators::grid(4, 4, |_, _| 1.0));
    let terms: Vec<usize> = vec![0, 3, 12, 15, 5, 10];
    group.bench_function("dreyfus_wagner_6_terminals", |b| {
        b.iter(|| dreyfus_wagner(&m, &terms))
    });
    group.bench_function("metric_mst_2approx_6_terminals", |b| {
        b.iter(|| steiner_2approx_weight(&m, &terms))
    });
    group.finish();
}

fn bench_flow(c: &mut Criterion) {
    // Transportation instance: 40 clients x 8 copies with lower bounds.
    let mut r = ChaCha8Rng::seed_from_u64(3);
    let clients = 40usize;
    let copies = 8usize;
    let mut arcs = Vec::new();
    let s = 0usize;
    let t = 1 + clients + copies;
    for j in 0..clients {
        let mass = r.random_range(1..5) as f64;
        arcs.push(ArcSpec {
            u: s,
            v: 1 + j,
            lower: mass,
            upper: mass,
            cost: 0.0,
        });
        for i in 0..copies {
            arcs.push(ArcSpec {
                u: 1 + j,
                v: 1 + clients + i,
                lower: 0.0,
                upper: f64::INFINITY,
                cost: r.random_range(1..20) as f64,
            });
        }
    }
    for i in 0..copies {
        arcs.push(ArcSpec {
            u: 1 + clients + i,
            v: t,
            lower: 2.0,
            upper: f64::INFINITY,
            cost: 0.0,
        });
    }
    arcs.push(ArcSpec {
        u: t,
        v: s,
        lower: 0.0,
        upper: f64::INFINITY,
        cost: 0.0,
    });
    c.bench_function("min_cost_circulation_40x8", |b| {
        b.iter(|| min_cost_circulation(t + 1, &arcs).expect("feasible"))
    });
}

criterion_group!(
    benches,
    bench_shortest_paths,
    bench_mst,
    bench_steiner,
    bench_flow
);
criterion_main!(benches);
