//! Property tests for the accounting simulator (seeded, deterministic).
//!
//! The invariants pinned here are the contract the competitive-analysis
//! harness stands on: rent pro-rating agrees with the static storage cost,
//! the cost decomposition adds up, a fixed strategy is exactly the static
//! cost of its placement, and the oracle raced against itself is 1.0.

use dmn_core::instance::{Instance, ObjectWorkload};
use dmn_dynamic::sim::{simulate, simulate_segmented, static_cost_on_stream, DynamicCost};
use dmn_dynamic::strategy::{standard_zoo, FixedStrategy};
use dmn_dynamic::stream::{empirical_workloads, sample_stream, Request, RequestKind, StreamConfig};
use dmn_dynamic::StaticOracle;
use dmn_graph::dijkstra::apsp;
use dmn_graph::generators;
use dmn_graph::{Graph, Metric};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn setup(seed: u64, n: usize, objects: usize) -> (Metric, Vec<f64>, Vec<ObjectWorkload>) {
    let (g, cs, workloads) = setup_graph(seed, n, objects);
    (apsp(&g), cs, workloads)
}

/// [`setup`]'s gnp graph itself, for callers that need an instance.
fn setup_graph(seed: u64, n: usize, objects: usize) -> (Graph, Vec<f64>, Vec<ObjectWorkload>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = generators::gnp_connected(n, 0.4, (1.0, 6.0), &mut rng);
    let cs: Vec<f64> = (0..n).map(|_| rng.random_range(1..=5) as f64).collect();
    let mut workloads = Vec::new();
    for _ in 0..objects {
        let mut w = ObjectWorkload::new(n);
        for v in 0..n {
            if rng.random_bool(0.7) {
                w.reads[v] = rng.random_range(1..=4) as f64;
            }
            if rng.random_bool(0.2) {
                w.writes[v] = rng.random_range(1..=2) as f64;
            }
        }
        if w.total_requests() == 0.0 {
            w.reads[0] = 1.0;
        }
        workloads.push(w);
    }
    (g, cs, workloads)
}

fn stationary(workloads: &[ObjectWorkload], length: usize, seed: u64) -> Vec<Request> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    sample_stream(
        workloads,
        &StreamConfig {
            length,
            ..Default::default()
        },
        &mut rng,
    )
}

/// Storage rent of copies held for the whole stream equals the static
/// `cs(v)` sum of the placement — exactly, not within a tolerance: the
/// simulator charges `cs(v) * (held / steps)` and `steps / steps == 1.0`.
#[test]
fn full_stream_rent_equals_static_storage_cost_exactly() {
    for seed in [1u64, 7, 23] {
        let (metric, cs, workloads) = setup(seed, 12, 3);
        let stream = stationary(&workloads, 500, seed ^ 0xabc);
        // A fixed multi-copy placement per object.
        let placement: Vec<Vec<usize>> = (0..workloads.len())
            .map(|x| vec![x % 12, (x + 5) % 12])
            .collect();
        let mut fixed = FixedStrategy;
        let cost = simulate(&metric, &cs, &placement, &stream, &mut fixed);
        let static_storage: f64 = placement.iter().flatten().map(|&v| cs[v]).sum();
        assert_eq!(
            cost.storage, static_storage,
            "seed {seed}: rent must equal the static storage cost bit-for-bit"
        );
    }
}

/// `DynamicCost::total()` is exactly serve + transfer + rent.
#[test]
fn total_is_serve_plus_transfer_plus_rent() {
    let (metric, cs, workloads) = setup(3, 10, 2);
    let stream = stationary(&workloads, 400, 99);
    let initial: Vec<Vec<usize>> = (0..2).map(|x| vec![x]).collect();
    for strategy in standard_zoo(2, &cs, stream.len()).iter_mut() {
        let c = simulate(&metric, &cs, &initial, &stream, strategy.as_mut());
        assert_eq!(
            c.total(),
            c.serve() + c.transfer + c.storage,
            "{}: decomposition must add up",
            strategy.name()
        );
        assert_eq!(c.serve(), c.read + c.write, "{}", strategy.name());
    }
}

/// A `FixedStrategy` run IS the static cost of its placement on the
/// stream: `simulate` and `static_cost_on_stream` agree bit-for-bit.
#[test]
fn fixed_strategy_matches_static_cost_on_stream() {
    let (metric, cs, workloads) = setup(11, 12, 3);
    let stream = stationary(&workloads, 600, 4242);
    let placement: Vec<Vec<usize>> = (0..3).map(|x| vec![(2 * x) % 12, (x + 7) % 12]).collect();
    let mut fixed = FixedStrategy;
    let a = simulate(&metric, &cs, &placement, &stream, &mut fixed);
    let b = static_cost_on_stream(&metric, &cs, &placement, &stream);
    assert_eq!(a, b);
    assert!(a.transfer == 0.0, "a fixed placement never transfers");
}

/// The oracle's empirical competitive ratio against itself is exactly 1.
#[test]
fn oracle_self_ratio_is_one() {
    let (g, cs, workloads) = setup_graph(17, 12, 2);
    let base = Instance::builder(g).storage_costs(cs.clone()).build();
    let metric = base.metric();
    let stream = stationary(&workloads, 500, 5);
    let emp = empirical_workloads(&stream, 2, 12);
    let placement = StaticOracle::approx().place_on(&base, &emp).unwrap();
    let reference = static_cost_on_stream(metric, &cs, &placement, &stream);
    // Racing the oracle placement (a fixed strategy) against itself.
    let mut fixed = FixedStrategy;
    let cost = simulate(metric, &cs, &placement, &stream, &mut fixed);
    assert_eq!(cost, reference);
    assert_eq!(cost.total() / reference.total(), 1.0);
}

/// Segmented simulation is a refinement: segment costs sum to the
/// unsegmented run (same strategy, same stream) for every zoo strategy.
#[test]
fn segments_sum_to_the_full_run() {
    let (metric, cs, workloads) = setup(29, 10, 2);
    let stream = stationary(&workloads, 300, 77);
    let initial: Vec<Vec<usize>> = (0..2).map(|x| vec![x]).collect();
    for (a, b) in standard_zoo(2, &cs, stream.len())
        .iter_mut()
        .zip(standard_zoo(2, &cs, stream.len()).iter_mut())
    {
        let full = simulate(&metric, &cs, &initial, &stream, a.as_mut());
        let segs = simulate_segmented(&metric, &cs, &initial, &stream, b.as_mut(), 70);
        assert_eq!(segs.len(), 300usize.div_ceil(70));
        let mut sum = DynamicCost::default();
        for s in &segs {
            sum += *s;
        }
        for (got, want) in [
            (sum.read, full.read),
            (sum.write, full.write),
            (sum.transfer, full.transfer),
            (sum.storage, full.storage),
        ] {
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "{}: segment sum {got} vs full {want}",
                a.name()
            );
        }
    }
}

/// Frequencies recovered from a sampled stationary stream converge to the
/// generating workload: per-atom empirical shares approach the generating
/// shares as the stream grows (seeded, deterministic tolerance).
#[test]
fn empirical_workloads_converge_to_the_generator() {
    let (_, _, workloads) = setup(41, 10, 2);
    let total_mass: f64 = workloads.iter().map(|w| w.total_requests()).sum();
    let mut last_err = f64::INFINITY;
    for &length in &[2_000usize, 32_000] {
        let stream = stationary(&workloads, length, 314);
        let emp = empirical_workloads(&stream, 2, 10);
        assert_eq!(
            emp.iter().map(|w| w.total_requests()).sum::<f64>(),
            length as f64,
            "unit mass per request"
        );
        // L1 distance between generating and empirical share vectors.
        let mut err = 0.0;
        for (w, e) in workloads.iter().zip(&emp) {
            for v in 0..10 {
                err += (w.reads[v] / total_mass - e.reads[v] / length as f64).abs();
                err += (w.writes[v] / total_mass - e.writes[v] / length as f64).abs();
            }
        }
        assert!(
            err < last_err,
            "longer streams must track the generator more closely ({err} !< {last_err})"
        );
        last_err = err;
    }
    assert!(
        last_err < 0.05,
        "32k-request empirical shares must be within 0.05 L1 of the generator, got {last_err}"
    );
}

/// `stream_workloads` (the sim-side re-export) and `empirical_workloads`
/// are the same function, and round-trip the stream's request counts.
#[test]
fn stream_workloads_reexport_roundtrip() {
    let stream = vec![
        Request {
            node: 1,
            object: 0,
            kind: RequestKind::Read,
        },
        Request {
            node: 2,
            object: 1,
            kind: RequestKind::Write,
        },
        Request {
            node: 1,
            object: 0,
            kind: RequestKind::Read,
        },
    ];
    let a = dmn_dynamic::sim::stream_workloads(&stream, 2, 4);
    let b = empirical_workloads(&stream, 2, 4);
    assert_eq!(a, b);
    assert_eq!(a[0].reads[1], 2.0);
    assert_eq!(a[1].writes[2], 1.0);
}
