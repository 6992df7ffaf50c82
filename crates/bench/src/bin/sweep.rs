//! The corpus-wide solver + strategy sweep.
//!
//! Runs **every** solver of the `dmn-solve` registry (probing
//! `Solver::supports`, so `tree-dp` runs on the tree scenarios and the
//! exhaustive engines on the small ones) and **every** online strategy of
//! the dynamic zoo (raced against the `approx` oracle through the dynamic
//! bridge, plus per-engine oracle reference costs) across the committed
//! `scenarios/` corpus, and emits one JSON report.
//!
//! ```text
//! cargo run --release -p dmn-bench --bin sweep -- --out SWEEP.json
//! cargo run --release -p dmn-bench --bin sweep -- ring_small tree_uniform
//! cargo run --release -p dmn-bench --bin sweep -- --dir my/scenarios --out S.json
//! ```
//!
//! Positional arguments filter the corpus by file stem or scenario name;
//! no filter sweeps every `*.json` in the directory.

use std::path::PathBuf;

use dmn_dynamic::bridge::{compete_standard, StaticOracle};
use dmn_dynamic::sim::static_cost_on_stream;
use dmn_dynamic::stream::{sample_stream, StreamConfig};
use dmn_json::Json;
use dmn_solve::{solvers, SolveRequest};
use dmn_workloads::Scenario;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Node ceiling of the unfiltered sweep. Every row dense-solves through
/// the full registry (an O(n^2) closure per scenario), so the committed
/// 10k-node sparse scenario is skipped unless named explicitly — naming
/// it opts into the multi-hundred-megabyte dense closure on purpose.
const DENSE_SWEEP_NODE_CAP: usize = 2_000;

fn usage() -> ! {
    eprintln!(
        "usage: sweep [--out PATH] [--dir DIR] [scenario names...]\n\n\
         Sweeps every registry solver and every dynamic strategy across the\n\
         scenarios/ corpus (optionally filtered by file stem or scenario\n\
         name) and writes one JSON report (default SWEEP.json). Scenarios\n\
         beyond {DENSE_SWEEP_NODE_CAP} nodes are skipped unless named explicitly (the sweep\n\
         dense-solves every row)."
    );
    std::process::exit(2);
}

fn main() {
    let mut out = "SWEEP.json".to_string();
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut filters: Vec<String> = Vec::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("missing value for {what}");
                    usage()
                })
                .clone()
        };
        match arg.as_str() {
            "--out" => out = value("--out"),
            "--dir" => dir = PathBuf::from(value("--dir")),
            other if other.starts_with("--") => usage(),
            other => filters.push(other.to_string()),
        }
    }

    let corpus = Scenario::load_corpus(&dir).unwrap_or_else(|e| panic!("{e}"));

    // Resolve the filters up front (every filter must name a scenario)
    // so a typo fails fast instead of after the sweep work is done.
    let mut matched = vec![false; filters.len()];
    let selected: Vec<&(String, Scenario)> = corpus
        .iter()
        .filter(|(stem, scenario)| {
            if filters.is_empty() {
                if scenario.nodes > DENSE_SWEEP_NODE_CAP {
                    eprintln!(
                        "skipping {} ({} nodes > {DENSE_SWEEP_NODE_CAP}; name it explicitly \
                         to dense-sweep it anyway)",
                        scenario.name, scenario.nodes
                    );
                    return false;
                }
                return true;
            }
            let mut hit = false;
            for (i, f) in filters.iter().enumerate() {
                if f == stem || f == &scenario.name {
                    matched[i] = true;
                    hit = true;
                }
            }
            hit
        })
        .collect();
    for (i, hit) in matched.iter().enumerate() {
        assert!(
            *hit,
            "no scenario in {} matches '{}'",
            dir.display(),
            filters[i]
        );
    }
    assert!(!selected.is_empty(), "nothing to sweep");

    let mut scenario_docs = Vec::new();
    for (stem, scenario) in selected {
        eprintln!("sweeping {} ({stem})", scenario.name);
        scenario_docs.push(sweep_scenario(scenario));
    }

    let doc = Json::obj([
        ("generated_by", Json::Str("sweep".into())),
        (
            "registry",
            Json::obj([(
                "names",
                Json::arr(solvers::names().iter().map(|n| Json::Str(n.to_string()))),
            )]),
        ),
        ("scenarios", Json::Arr(scenario_docs)),
    ]);
    std::fs::write(&out, doc.to_string_pretty()).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("sweep: wrote {out}");
}

/// One scenario through every registry solver and the dynamic harness.
fn sweep_scenario(scenario: &Scenario) -> Json {
    let instance = scenario.build_instance();
    let n = instance.num_nodes();
    let objects = instance.num_objects();
    let cap = scenario.capacity_vector(n);
    let mut req = SolveRequest::new();
    if let Some(cap) = &cap {
        req = req.capacities(cap.clone());
    }

    // Static: every registry engine, probed. Supported engines emit the
    // shared `SolveReport::to_json` document (same field names as the
    // server status endpoint).
    let static_rows = Json::arr(solvers::all().iter().map(
        |solver| match solver.supports(&instance) {
            Ok(()) => {
                let report = solver.solve(&instance, &req);
                let mut row = report.to_json();
                if let Json::Obj(map) = &mut row {
                    map.insert("supported".into(), Json::Bool(true));
                }
                row
            }
            Err(why) => Json::obj([
                ("solver", Json::Str(solver.name().to_string())),
                ("supported", Json::Bool(false)),
                ("reason", Json::Str(why.to_string())),
            ]),
        },
    ));

    // Dynamic: one stream per the scenario's spec, the full zoo against
    // the approx oracle, plus every registry engine as an oracle reference.
    let spec = scenario.stream_spec();
    let mut rng = ChaCha8Rng::seed_from_u64(scenario.seed ^ 0xD15EA5E);
    let stream = sample_stream(
        &instance.objects,
        &StreamConfig {
            length: spec.length,
            phases: spec.phases,
            phase_shift: spec.phase_shift,
        },
        &mut rng,
    );
    let phase_len = spec.length.div_ceil(spec.phases.max(1));
    let oracle = StaticOracle::approx().request(req.clone());
    let competition = compete_standard(&instance, &stream, &oracle, phase_len)
        .expect("approx oracle runs on any network");
    print!("{competition}");

    let emp = dmn_dynamic::stream::empirical_workloads(&stream, objects, n);
    let oracle_refs = Json::arr(solvers::names().iter().map(|&name| {
        let oracle = StaticOracle::with_engine(name)
            .expect("registered")
            .request(req.clone());
        match oracle.place_on(&instance, &emp) {
            Ok(placement) => {
                let cost = static_cost_on_stream(
                    instance.metric(),
                    &instance.storage_cost,
                    &placement,
                    &stream,
                );
                Json::obj([
                    ("engine", Json::Str(name.to_string())),
                    ("supported", Json::Bool(true)),
                    ("total", Json::Num(cost.total())),
                ])
            }
            Err(why) => Json::obj([
                ("engine", Json::Str(name.to_string())),
                ("supported", Json::Bool(false)),
                ("reason", Json::Str(why.to_string())),
            ]),
        }
    }));

    Json::obj([
        ("name", Json::Str(scenario.name.clone())),
        ("nodes", Json::Num(n as f64)),
        ("objects", Json::Num(objects as f64)),
        ("capacitated", Json::Bool(cap.is_some())),
        ("static", static_rows),
        (
            "dynamic",
            Json::obj([
                (
                    "stream",
                    Json::obj([
                        ("length", Json::Num(spec.length as f64)),
                        ("phases", Json::Num(spec.phases as f64)),
                        ("phase_shift", Json::Num(spec.phase_shift as f64)),
                    ]),
                ),
                ("oracle_refs", oracle_refs),
                ("competition", competition.to_json()),
            ]),
        ),
    ])
}
