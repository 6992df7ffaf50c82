//! Online data management: serving a live request stream whose interest
//! pattern drifts across the network.
//!
//! Races the full online strategy zoo (fixed placement, counting,
//! migration, rent-to-buy, migration-enabled counting) against the static
//! oracle on the same stream. The oracle is any engine of the solver
//! registry fed the stream's exact frequencies, reached through the
//! dynamic bridge — pick it with `--solver`:
//!
//! ```text
//! cargo run --release --example dynamic_stream
//! cargo run --release --example dynamic_stream -- --solver greedy-local
//! ```

use dmn::dynamic::bridge::{compete, StaticOracle};
use dmn::dynamic::strategy::standard_zoo;
use dmn::dynamic::stream::{sample_stream, StreamConfig};
use dmn::graph::generators::{transit_stub, TransitStubParams};
use dmn::prelude::*;
use dmn_workloads::{WorkloadGen, WorkloadParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let mut solver_name = "approx".to_string();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--solver" => {
                solver_name = it
                    .next()
                    .unwrap_or_else(|| {
                        eprintln!("missing value for --solver");
                        std::process::exit(2);
                    })
                    .clone();
            }
            other => {
                eprintln!("unknown argument '{other}' (usage: dynamic_stream [--solver NAME])");
                std::process::exit(2);
            }
        }
    }
    let Some(oracle) = StaticOracle::with_engine(&solver_name) else {
        eprintln!(
            "unknown solver '{solver_name}' (registered: {})",
            solvers::names().join(", ")
        );
        std::process::exit(2);
    };

    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let graph = transit_stub(TransitStubParams::default(), &mut rng);
    let n = graph.num_nodes();
    let cs: Vec<f64> = (0..n)
        .map(|v| if v < 4 { f64::INFINITY } else { 3.0 })
        .collect();
    let instance = Instance::builder(graph).storage_costs(cs.clone()).build();

    // Interest drifts: 3 phases, each rotating the requesting region.
    let objects = 4usize;
    let gen = WorkloadGen::new(
        n,
        WorkloadParams {
            num_objects: objects,
            write_fraction: 0.15,
            active_fraction: 0.25,
            base_mass: 100.0,
            ..Default::default()
        },
    );
    let workloads = gen.generate(&mut rng);
    let length = 5_000;
    let phases = 3;
    let stream = sample_stream(
        &workloads,
        &StreamConfig {
            length,
            phases,
            phase_shift: n / 3,
        },
        &mut rng,
    );
    println!(
        "network: {n} nodes, stream: {} requests in {phases} drifting phases, \
         oracle engine: {}\n",
        stream.len(),
        oracle.engine_name()
    );

    if let Err(why) = oracle.supports(&instance) {
        eprintln!("solver '{solver_name}' cannot run on this network: {why}");
        std::process::exit(2);
    }

    // All objects start from a single copy on the first storage-capable
    // node; the oracle places from the realized stream frequencies.
    let start: Vec<Vec<usize>> = (0..objects).map(|_| vec![4]).collect();
    let mut zoo = standard_zoo(objects, &cs, stream.len());
    let report = compete(
        &instance,
        &stream,
        objects,
        &oracle,
        &mut zoo,
        &start,
        length.div_ceil(phases),
    )
    .expect("support was probed above");
    print!("{report}");
    println!(
        "\nratios > 1: the oracle knows the whole stream, the online strategies do \
         not; the per-phase columns show adaptive strategies catching up after \
         each drift (any fixed placement goes stale)."
    );
}
