//! Seeded property tests for the graph substrate: the same invariants the
//! original proptest suite checked, exercised over a deterministic seed
//! sweep (the offline build vendors its own RNG instead of proptest).

use dmn_graph::bfs::{hop_diameter, tree_hop_diameter};
use dmn_graph::dijkstra::{apsp, distances, shortest_paths};
use dmn_graph::generators::{self, TransitStubParams};
use dmn_graph::mst::{kruskal, prim};
use dmn_graph::steiner::{dreyfus_wagner, steiner_2approx_weight};
use dmn_graph::tree::{binarize, RootedTree};
use dmn_graph::{DisjointSets, Graph, NodeId, TruncatedClosure};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: u64 = 48;

/// Kruskal and Prim agree on total MST weight for connected graphs.
#[test]
fn mst_algorithms_agree() {
    for seed in 0..CASES {
        let mut r = ChaCha8Rng::seed_from_u64(seed);
        let n = r.random_range(3..25);
        let g = generators::gnp_connected(n, 0.3, (1.0, 9.0), &mut r);
        let k = kruskal(&g);
        let p = prim(&g);
        assert!((k.weight - p.weight).abs() < 1e-9, "seed {seed}");
        assert_eq!(k.edges.len(), n - 1, "seed {seed}");
        assert_eq!(p.edges.len(), n - 1, "seed {seed}");
    }
}

/// The metric closure of every generator family satisfies the axioms.
#[test]
fn generators_yield_metrics() {
    for seed in 0..CASES {
        let mut r = ChaCha8Rng::seed_from_u64(1000 + seed);
        let n = r.random_range(3..16);
        let g = match seed % 4 {
            0 => generators::gnp_connected(n, 0.4, (1.0, 5.0), &mut r),
            1 => generators::random_geometric(n, 0.4, 5.0, &mut r),
            2 => generators::prufer_tree(n, (1.0, 5.0), &mut r),
            _ => generators::ring(n.max(3), |i| (i % 3 + 1) as f64),
        };
        let m = apsp(&g);
        assert!(m.check_axioms(1e-9).is_ok(), "seed {seed}");
    }
}

/// Exact Steiner weight is sandwiched by the metric-MST 2-approximation:
/// `exact <= approx <= 2 * exact`.
#[test]
fn steiner_sandwich() {
    for seed in 0..CASES {
        let mut r = ChaCha8Rng::seed_from_u64(2000 + seed);
        let g = generators::gnp_connected(10, 0.35, (1.0, 7.0), &mut r);
        let m = apsp(&g);
        let k = r.random_range(2..6);
        let terms: Vec<usize> = (0..k).map(|i| (i * 7 + seed as usize) % 10).collect();
        let exact = dreyfus_wagner(&m, &terms);
        let approx = steiner_2approx_weight(&m, &terms);
        assert!(exact <= approx + 1e-9, "seed {seed}");
        assert!(approx <= 2.0 * exact + 1e-9, "seed {seed}");
    }
}

/// Steiner weight is monotone under adding terminals.
#[test]
fn steiner_monotone_in_terminals() {
    for seed in 0..CASES {
        let mut r = ChaCha8Rng::seed_from_u64(3000 + seed);
        let g = generators::gnp_connected(9, 0.4, (1.0, 5.0), &mut r);
        let m = apsp(&g);
        let small = vec![0usize, 3];
        let large = vec![0usize, 3, 6, 8];
        assert!(
            dreyfus_wagner(&m, &small) <= dreyfus_wagner(&m, &large) + 1e-9,
            "seed {seed}"
        );
    }
}

/// Dijkstra distances obey per-edge relaxation: d(v) <= d(u) + w(u,v).
#[test]
fn dijkstra_relaxation_fixpoint() {
    for seed in 0..CASES {
        let mut r = ChaCha8Rng::seed_from_u64(4000 + seed);
        let n = r.random_range(3..20);
        let g = generators::gnp_connected(n, 0.3, (1.0, 9.0), &mut r);
        let sp = shortest_paths(&g, 0);
        for e in g.edges() {
            assert!(sp.dist[e.v] <= sp.dist[e.u] + e.w + 1e-9, "seed {seed}");
            assert!(sp.dist[e.u] <= sp.dist[e.v] + e.w + 1e-9, "seed {seed}");
        }
    }
}

/// The graphs the distance-only kernel is pinned on: real weights without
/// ties, unit weights with many, zero-weight edges (a neighbour popped at
/// a node's own key), sums of 0.1/0.2/0.3 that tie up to an ulp, and a path
/// whose weights span 2^-40..2^40, so some sums absorb a weight.
fn kernel_graphs() -> Vec<(&'static str, Graph)> {
    let mut r = ChaCha8Rng::seed_from_u64(8000);
    let transit_stub = TransitStubParams {
        transits: 5,
        stubs_per_transit: 3,
        nodes_per_stub: 9,
        transit_edge_cost: 20.3,
        uplink_cost: 7.77,
        stub_edge_cost: 0.91,
        stub_extra_edge_p: 0.3,
    };
    vec![
        (
            "gnp",
            generators::gnp_connected(120, 0.05, (0.1, 9.7), &mut r),
        ),
        (
            "geometric",
            generators::random_geometric(150, 0.15, 10.0, &mut r),
        ),
        (
            "transit-stub",
            generators::transit_stub(transit_stub, &mut r),
        ),
        ("unit grid", generators::grid(15, 15, |_, _| 1.0)),
        (
            "zero-weight grid",
            generators::grid(14, 14, |u, v| match (u * 7 + v) % 5 {
                0 => 0.0,
                i => i as f64 * 0.1,
            }),
        ),
        (
            "zero-weight 3-ary tree",
            generators::kary_tree(200, 3, |i| {
                if i % 3 == 0 {
                    0.0
                } else {
                    (i % 5) as f64 * 0.7
                }
            }),
        ),
        (
            "2^±40 path",
            generators::path(60, |i| 2f64.powi((i as i32 * 37) % 81 - 40)),
        ),
    ]
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|d| d.to_bits()).collect()
}

/// `distances`, every `apsp` row and every `TruncatedClosure` row run on a
/// radix heap; they equal the binary-heap `shortest_paths` bit for bit. The
/// closure rows are taken over random target subsets, requested in shuffled
/// order, each search stopped once its targets have settled.
#[test]
fn distance_kernel_matches_shortest_paths_bitwise() {
    for (name, g) in kernel_graphs() {
        let n = g.num_nodes();
        let exact: Vec<Vec<u64>> = (0..n).map(|s| bits(&shortest_paths(&g, s).dist)).collect();
        let dense = apsp(&g);
        for (s, want) in exact.iter().enumerate() {
            assert_eq!(&bits(&distances(&g, s)), want, "{name}: distances from {s}");
            assert_eq!(&bits(dense.row(s)), want, "{name}: apsp row {s}");
        }
        let mut r = ChaCha8Rng::seed_from_u64(n as u64);
        for trial in 0..CASES {
            let mut targets: Vec<NodeId> = (0..n).collect();
            targets.shuffle(&mut r);
            targets.truncate(r.random_range(1..=n.min(24)));
            let mut closure = TruncatedClosure::new(&g, &targets);
            let mut order: Vec<usize> = (0..targets.len()).collect();
            order.shuffle(&mut r);
            order.truncate(r.random_range(1..=order.len()));
            for &i in &order {
                closure.build_row(i);
                let want: Vec<u64> = targets.iter().map(|&t| exact[targets[i]][t]).collect();
                assert_eq!(
                    bits(closure.metric().row(i)),
                    want,
                    "{name}, trial {trial}: row of {} over {targets:?}",
                    targets[i]
                );
            }
        }
    }
}

/// Binarization preserves all pairwise distances between original nodes
/// and keeps the node count linear.
#[test]
fn binarization_is_distance_preserving() {
    for seed in 0..CASES {
        let mut r = ChaCha8Rng::seed_from_u64(5000 + seed);
        let n = r.random_range(2..30);
        let g = generators::prufer_tree(n, (0.0, 6.0), &mut r);
        let t = RootedTree::from_graph(&g, 0);
        let b = binarize(&t);
        assert!(b.tree.max_children() <= 2, "seed {seed}");
        assert!(b.tree.len() <= 2 * n, "seed {seed}");
        for u in 0..n {
            for v in 0..n {
                assert!(
                    (b.tree.dist(u, v) - t.dist(u, v)).abs() < 1e-9,
                    "seed {seed}: dist({u}, {v})"
                );
            }
        }
    }
}

/// DSU matches a naive reachability model under random unions.
#[test]
fn dsu_matches_model() {
    for seed in 0..CASES {
        let mut r = ChaCha8Rng::seed_from_u64(6000 + seed);
        let ops = r.random_range(0..40);
        let mut dsu = DisjointSets::new(12);
        let mut model: Vec<usize> = (0..12).collect(); // representative by min
        for _ in 0..ops {
            let a = r.random_range(0..12);
            let b = r.random_range(0..12);
            dsu.union(a, b);
            let (ra, rb) = (model[a], model[b]);
            if ra != rb {
                for m in model.iter_mut() {
                    if *m == rb {
                        *m = ra;
                    }
                }
            }
        }
        for x in 0..12 {
            for y in 0..12 {
                assert_eq!(dsu.connected(x, y), model[x] == model[y], "seed {seed}");
            }
        }
    }
}

/// Tree double-BFS diameter equals the generic all-pairs hop diameter.
#[test]
fn tree_diameter_agrees() {
    for seed in 0..CASES {
        let mut r = ChaCha8Rng::seed_from_u64(7000 + seed);
        let n = r.random_range(2..40);
        let g = generators::prufer_tree(n, (1.0, 2.0), &mut r);
        assert_eq!(tree_hop_diameter(&g), hop_diameter(&g), "seed {seed}");
    }
}
