//! Strategy comparison across topologies and workloads, driven by the
//! committed `scenarios/` corpus of serialized [`Scenario`] JSON files —
//! adding a scenario to the sweep is dropping a file in the directory,
//! adding a solver is adding its name to a list.
//!
//! Capacitated scenarios (a `"capacities"` block in the file) run every
//! solver under the constraint: the baselines go through the uniform
//! greedy repair, while the `capacitated` engine optimizes natively — its
//! column shows the margin the flow seed + capacity-aware local search
//! buys over the repair.
//!
//! ```text
//! cargo run --release --example scenario_sweep
//! ```

use std::path::PathBuf;

use dmn::prelude::*;
use dmn_workloads::Scenario;

const SOLVERS: [&str; 4] = ["approx", "greedy-local", "best-single", "full-replication"];

fn main() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let corpus = Scenario::load_corpus(&dir).unwrap_or_else(|e| panic!("{e}"));
    assert!(corpus.len() >= 6, "the corpus ships at least six scenarios");

    print!("{:<28} {:>5} {:>4}", "scenario", "nodes", "cap");
    for name in SOLVERS {
        print!(" {name:>16}");
    }
    println!(" {:>16}", "capacitated");
    for (_, scenario) in &corpus {
        // The example dense-solves every column; the committed 10k-node
        // scenario is the sparse backend's territory (see README
        // "Scaling" and perfbench's `solve-sparse-10k` workload).
        if scenario.nodes > 2_000 {
            println!(
                "{:<28} {:>5}    - skipped (dense sweep; solve it with --metric sparse)",
                scenario.name, scenario.nodes
            );
            continue;
        }
        let instance = scenario.build_instance();
        let n = instance.num_nodes();
        let cap = scenario.capacity_vector(n);

        let mut req = SolveRequest::new();
        if let Some(cap) = &cap {
            req = req.capacities(cap.clone());
        }
        print!(
            "{:<28} {:>5} {:>4}",
            scenario.name,
            n,
            cap.as_ref().map_or("-".to_string(), |c| c[0].to_string())
        );
        for name in SOLVERS {
            let report = solvers::by_name(name)
                .expect("registered")
                .solve(&instance, &req);
            print!(" {:>16.1}", report.cost.total());
        }
        // The native capacitated engine only differs under a constraint.
        match &cap {
            None => println!(" {:>16}", "-"),
            Some(cap) => {
                let report = solvers::by_name("capacitated")
                    .expect("registered")
                    .solve(&instance, &req);
                assert!(
                    dmn_approx::respects_capacities(&report.placement, cap),
                    "{}: capacitated engine must be feasible",
                    scenario.name
                );
                let stats = report.capacity.expect("capacity stats");
                // Positive = saved over the greedy repair, matching the
                // sign convention of E15 and SolveReport's Display.
                println!(
                    " {:>9.1} {:>4.1}% saved",
                    report.cost.total(),
                    stats.margin_vs_repair * 100.0
                );
            }
        }
    }
    println!(
        "\nthe approximation tracks the strong local-search heuristic on unconstrained \
         scenarios; under per-node capacities the native capacitated engine is always \
         feasible and its margin column shows the saving over greedy repair."
    );
}
