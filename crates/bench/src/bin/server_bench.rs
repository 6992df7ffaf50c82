//! Standalone trace-replay benchmark of the placement server.
//!
//! ```text
//! cargo run --release -p dmn-bench --bin server_bench                  # pinned smoke scenario
//! cargo run --release -p dmn-bench --bin server_bench -- scenarios/grid_drift.json
//! cargo run --release -p dmn-bench --bin server_bench -- --lookups 200000 --out SERVER.json
//! ```
//!
//! Prints the human summary and optionally writes the replay's JSON
//! section (the one `METRICS_ci.json` carries under `replay`).

use dmn_bench::server_bench;
use dmn_workloads::Scenario;

fn main() {
    let mut scenario_path: Option<String> = None;
    let mut lookups: Option<usize> = None;
    let mut out: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {what}"))
                .clone()
        };
        match arg.as_str() {
            "--lookups" => lookups = Some(value("--lookups").parse().expect("numeric count")),
            "--out" => out = Some(value("--out")),
            other if other.starts_with("--") => {
                panic!("unknown flag {other} (usage: server_bench [SCENARIO.json] [--lookups N] [--out PATH])")
            }
            other => scenario_path = Some(other.to_string()),
        }
    }

    let scenario = match &scenario_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
            let json = dmn_json::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
            Scenario::from_json(&json).unwrap_or_else(|e| panic!("scenario {path}: {e}"))
        }
        None => server_bench::smoke_scenario(),
    };

    println!(
        "server_bench: replaying '{}' ({} nodes)",
        scenario.name, scenario.nodes
    );
    let outcome = server_bench::replay_scenario(&scenario, lookups);
    println!(
        "  {} lookups in {:.3}s  ->  {:.0} lookups/s sustained",
        outcome.lookups, outcome.lookup_seconds, outcome.lookups_per_sec
    );
    println!(
        "  {} re-solves ({} background, {} forced), worst latency {:.3}s, final epoch {}",
        outcome.resolves,
        outcome.background_resolves,
        outcome.forced_resolves,
        outcome.max_resolve_seconds,
        outcome.final_epoch
    );
    for check in &outcome.swap_checks {
        println!(
            "  swap @epoch {:>3}: server {:.6} vs from-scratch {:.6} (|err| {:.2e})",
            check.epoch,
            check.server_cost,
            check.scratch_cost,
            (check.server_cost - check.scratch_cost).abs()
        );
    }
    println!(
        "  cost_matches_scratch: {}",
        if outcome.cost_matches_scratch {
            "yes"
        } else {
            "NO"
        }
    );
    if let Some(path) = out {
        std::fs::write(&path, outcome.to_json().to_string_pretty())
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("server_bench: wrote {path}");
    }
    if !outcome.cost_matches_scratch {
        std::process::exit(1);
    }
}
