//! Acceptance coverage of the dynamic↔static bridge: `simulate` with
//! `StaticOracle(engine)` runs for **every** registry engine name on at
//! least one scenario of the committed `scenarios/` corpus (the corpus
//! deliberately spans the engines' support envelopes: `tree-dp` needs the
//! tree scenarios, the exhaustive engines need `ring-small`).

use std::path::PathBuf;

use dmn_dynamic::sim::{simulate, static_cost_on_stream};
use dmn_dynamic::strategy::FixedStrategy;
use dmn_dynamic::stream::{empirical_workloads, sample_stream, StreamConfig};
use dmn_dynamic::StaticOracle;
use dmn_solve::{solvers, SolveRequest};
use dmn_workloads::Scenario;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn corpus() -> Vec<Scenario> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    Scenario::load_corpus(&dir)
        .unwrap_or_else(|e| panic!("{e}"))
        .into_iter()
        .map(|(_, scenario)| scenario)
        // The bridge dense-solves whichever scenario an engine lands on;
        // the committed 10k-node scenario exists for the sparse backend
        // and would build an O(n^2) closure here.
        .filter(|scenario| scenario.nodes <= 2_000)
        .collect()
}

/// Every registry engine serves as the oracle on some corpus scenario,
/// and `simulate` runs its placement end to end with self-ratio 1.
#[test]
fn every_registry_engine_simulates_on_the_corpus() {
    let corpus = corpus();
    // Small corpus scenarios first so the exhaustive engines pick the
    // cheap ones and the test stays fast in debug mode.
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    order.sort_by_key(|&i| corpus[i].nodes);

    for name in solvers::names() {
        assert!(
            StaticOracle::with_engine(name).is_some(),
            "{name} is registered"
        );
        let mut ran = false;
        for &i in &order {
            let scenario = &corpus[i];
            let instance = scenario.build_instance();
            let mut req = SolveRequest::new();
            if let Some(cap) = scenario.capacity_vector(instance.num_nodes()) {
                req = req.capacities(cap);
            }
            let oracle = StaticOracle::with_engine(name)
                .expect("registered")
                .request(req);
            if oracle.supports(&instance).is_err() {
                continue;
            }
            let n = instance.num_nodes();
            let objects = instance.num_objects();
            let mut rng = ChaCha8Rng::seed_from_u64(scenario.seed ^ 0xBEEF);
            let stream = sample_stream(
                &instance.objects,
                &StreamConfig {
                    length: 300,
                    ..Default::default()
                },
                &mut rng,
            );
            let emp = empirical_workloads(&stream, objects, n);
            let placement = oracle
                .place_on(&instance, &emp)
                .unwrap_or_else(|e| panic!("{name} on {}: {e}", scenario.name));
            // `simulate` with the oracle placement held fixed.
            let mut fixed = FixedStrategy;
            let cost = simulate(
                instance.metric(),
                &instance.storage_cost,
                &placement,
                &stream,
                &mut fixed,
            );
            let reference = static_cost_on_stream(
                instance.metric(),
                &instance.storage_cost,
                &placement,
                &stream,
            );
            assert!(
                cost.total().is_finite() && cost.total() > 0.0,
                "{name} on {}: degenerate cost {cost:?}",
                scenario.name
            );
            assert_eq!(
                cost.total() / reference.total(),
                1.0,
                "{name} on {}: oracle self-ratio must be exactly 1",
                scenario.name
            );
            ran = true;
            break;
        }
        assert!(
            ran,
            "engine '{name}' ran on no corpus scenario — the corpus must cover \
             every registry engine's support envelope"
        );
    }
    let _ = StaticOracle::approx(); // the default constructor stays alive
}
