//! Experiment harness entry point.
//!
//! ```text
//! cargo run --release -p dmn-bench --bin experiments -- all
//! cargo run --release -p dmn-bench --bin experiments -- e2 e4
//! cargo run --release -p dmn-bench --bin experiments -- --solver approx
//! cargo run --release -p dmn-bench --bin experiments -- --solver tree-dp --nodes 64
//! cargo run --release -p dmn-bench --bin experiments -- --solver list
//! cargo run --release -p dmn-bench --bin experiments -- --solver capacitated \
//!     --capacities uniform:2
//! ```
//!
//! Reports print to stdout and are persisted as JSON under `results/`.
//! With `--solver <name>` any solver registered in `dmn-solve` is run on a
//! standard scenario suite (`--fl` picks the phase-1 backend,
//! `--capacities uniform:<k>` caps every node at `k` copies so any
//! experiment runs capacitated end-to-end) and its `SolveReport`s
//! (placements, cost breakdowns, per-phase timings) are printed.

use dmn_approx::FlSolverKind;
use dmn_bench::server_bench::smoke_scenario;
use dmn_solve::{solvers, MetricBackend, SolveRequest};
use dmn_workloads::{Scenario, TopologyKind, WorkloadParams};

fn usage() -> ! {
    eprintln!(
        "usage: experiments <e1..e16 | all>...\n       experiments --solver <name | list> \
         [--nodes N] [--objects K] [--seed S] [--fl KIND] \
         [--metric dense|sparse] [--capacities uniform:<k>]\n       \
         experiments chaos [--out PATH]\n       \
         experiments metrics [--out PATH]\n       \
         experiments timeline [--scenario PATH] [--engine NAME] [--out PATH]\n       \
         experiments fuzz [--cases N] [--seed S] [--regress DIR] [--out PATH]\n\n\
         --capacities uniform:<k> caps every node at k copies (any solver; engines\n\
         other than capacitated go through the greedy repair);\n\
         --metric sparse solves over per-object truncated closures instead of the\n\
         dense O(n^2) APSP table (the 10k-node path); timeline exits 1 unless the\n\
         warm chain adds fewer copies and phase-1 moves than cold within the pinned\n\
         cost premium. Only engines that consume warm seeds (approx and capacitated)\n\
         can pass; others solve both chains alike and read false, and\n\
         so do local-search-ref chains, whose reference loop reports 0 phase-1 moves."
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    if args[0] == "--solver" {
        run_solver_bench(&args[1..]);
        return;
    }
    if args[0] == "chaos" {
        run_chaos(&args[1..]);
        return;
    }
    if args[0] == "metrics" {
        run_metrics(&args[1..]);
        return;
    }
    if args[0] == "timeline" {
        run_timeline(&args[1..]);
        return;
    }
    if args[0] == "fuzz" {
        run_fuzz(&args[1..]);
        return;
    }
    for id in &args {
        for report in dmn_bench::experiments::run(id) {
            report.emit();
        }
    }
}

/// The timeline runner: per-slot re-solves (cold and warm-chained) plus
/// the dynamic zoo over a time-sliced scenario. Defaults to the pinned
/// `scenarios/grid_timeline.json` scenario and the `approx` engine;
/// `--scenario PATH` loads any scenario JSON with a `timeline` block.
/// Exits non-zero unless `TimelineReport::timeline_ok` holds, which
/// engines that ignore warm seeds never pass, nor a `local-search-ref`
/// phase 1, which reports 0 moves.
fn run_timeline(args: &[String]) {
    let mut out = "TIMELINE_ci.json".to_string();
    let mut engine = "approx".to_string();
    let mut scenario_path: Option<String> = None;
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
            "--engine" => engine = value("--engine"),
            "--scenario" => scenario_path = Some(value("--scenario")),
            _ => usage(),
        }
    }
    let scenario = match scenario_path {
        Some(path) => {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("timeline: could not read {path}: {e}");
                std::process::exit(1);
            });
            let json = dmn_json::parse(&text).unwrap_or_else(|e| {
                eprintln!("timeline: {path} is not valid JSON: {e}");
                std::process::exit(1);
            });
            Scenario::from_json(&json).unwrap_or_else(|e| {
                eprintln!("timeline: {path} is not a scenario: {e}");
                std::process::exit(1);
            })
        }
        None => dmn_bench::timeline::pinned_scenario(),
    };
    let report = match dmn_bench::timeline::run_timeline(&scenario, &engine, &SolveRequest::new()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("timeline: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = std::fs::write(&out, report.to_json().to_string_pretty()) {
        eprintln!("timeline: could not write {out}: {e}");
        std::process::exit(1);
    }
    let sum = |f: fn(&_) -> usize| report.slots.iter().map(f).sum::<usize>();
    println!(
        "timeline: {} slots of '{}' through {engine}; cold total {:.3}, warm total {:.3} \
         ({:+.2}% premium); copies added {} warm vs {} cold; phase-1 moves {} warm vs {} \
         cold; {} dynamic strategies replayed; artifact at {out}",
        report.slots.len(),
        report.scenario,
        report.cold_total(),
        report.warm_total(),
        100.0 * report.premium(),
        sum(|s| s.warm_moved),
        sum(|s| s.cold_moved),
        sum(|s| s.warm_fl_moves),
        sum(|s| s.cold_fl_moves),
        report.dynamic.len()
    );
    if !report.timeline_ok() {
        eprintln!("timeline: gate FAILED (see {out})");
        std::process::exit(1);
    }
}

/// The differential scenario fuzzer: seeded random timeline scenarios
/// through the registry engines (dense/sparse approx, approx on reversed
/// objects, native capacitated, tree-dp) with invariant checks; violations are minimized
/// and — with `--regress DIR` — written as replayable scenario JSON.
/// Exits non-zero when any case violates an invariant.
fn run_fuzz(args: &[String]) {
    let mut cfg = dmn_bench::fuzz::FuzzConfig::default();
    let mut out = "FUZZ_ci.json".to_string();
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
            "--cases" => cfg.cases = value("--cases").parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--regress" => cfg.regress_dir = Some(value("--regress").into()),
            "--out" => out = value("--out"),
            _ => usage(),
        }
    }
    let outcome = dmn_bench::fuzz::run_fuzz(&cfg);
    if let Err(e) = std::fs::write(&out, outcome.to_json().to_string_pretty()) {
        eprintln!("fuzz: could not write {out}: {e}");
        std::process::exit(1);
    }
    if !outcome.clean() {
        eprintln!(
            "fuzz: {} of {} cases VIOLATED an invariant (see {out}):",
            outcome.violations.len(),
            outcome.cases
        );
        for v in &outcome.violations {
            eprintln!("  case {} [{}] {}", v.case, v.kind, v.detail);
        }
        if let Some(dir) = &cfg.regress_dir {
            eprintln!("  minimized scenarios written to {}", dir.display());
        }
        std::process::exit(1);
    }
    println!(
        "fuzz: {} seeded timeline scenarios through {} engines ({}), zero panics, zero \
         invariant violations; artifact at {out}",
        outcome.cases,
        outcome.engines.len(),
        outcome.engines.join(", ")
    );
}

/// The chaos gate (`chaos_ok`, CI's chaos job): runs the seeded fault
/// schedule against the pinned smoke scenario, writes the `chaos`
/// artifact, and exits non-zero unless every injected fault class fired,
/// was absorbed, and the healed server's placements match from-scratch
/// solves.
fn run_chaos(args: &[String]) {
    let mut out = "CHAOS_ci.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out = it
                    .next()
                    .unwrap_or_else(|| {
                        eprintln!("missing value for --out");
                        usage()
                    })
                    .clone();
            }
            _ => usage(),
        }
    }
    let lookups = cfg!(debug_assertions).then_some(20_000);
    let outcome = dmn_bench::chaos_replay::chaos_replay(&smoke_scenario(), lookups);
    if let Err(e) = std::fs::write(&out, outcome.to_json().to_string_pretty()) {
        eprintln!("chaos: could not write {out}: {e}");
        std::process::exit(1);
    }
    if !outcome.gate() {
        eprintln!(
            "chaos: replay FAILED — panics {}, stalls {}, floods {}, wire faults {}, \
             failures {} ({} timeouts), shed {}, malformed {}/{} rejected, wire \
             recovered {}, recovered {} in {:.2}s, inconsistent lookups {}, cost \
             matches scratch {} (see {out})",
            outcome.solver_panics,
            outcome.stalled_resolves,
            outcome.event_floods,
            outcome.wire_faults,
            outcome.resolve_failures,
            outcome.watchdog_timeouts,
            outcome.shed_deltas,
            outcome.malformed_rejected,
            outcome.malformed_lines,
            outcome.wire_recovered,
            outcome.recovered,
            outcome.recovery_seconds,
            outcome.inconsistent_lookups,
            outcome.cost_matches_scratch
        );
        std::process::exit(1);
    }
    println!(
        "chaos: absorbed {} solver panic(s), {} stalled re-solve(s) ({} watchdog \
         timeout(s)), {} event flood(s) shedding {} deltas, and {} malformed wire \
         line(s); recovered in {:.2}s; {} lookups served with 0 inconsistencies; \
         post-recovery costs equal from-scratch; artifact at {out}",
        outcome.solver_panics,
        outcome.stalled_resolves,
        outcome.watchdog_timeouts,
        outcome.event_floods,
        outcome.shed_deltas,
        outcome.malformed_lines,
        outcome.recovery_seconds,
        outcome.lookups
    );
}

/// The metrics exporter: replays the pinned scenario with telemetry
/// armed and writes the registry's full state — Prometheus text
/// exposition, the JSON snapshot, the span ring as JSONL — plus the
/// replay's own outcome (with lookup p50/p99) to `METRICS_ci.json`.
fn run_metrics(args: &[String]) {
    let mut out = "METRICS_ci.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out = it
                    .next()
                    .unwrap_or_else(|| {
                        eprintln!("missing value for --out");
                        usage()
                    })
                    .clone();
            }
            _ => usage(),
        }
    }
    use dmn_core::telemetry;
    telemetry::set_enabled(true);
    let lookups = cfg!(debug_assertions).then_some(30_000);
    let replay = dmn_bench::server_bench::replay_scenario(&smoke_scenario(), lookups);
    let doc = dmn_json::Json::obj([
        (
            "prometheus",
            dmn_json::Json::Str(telemetry::prometheus_text()),
        ),
        ("snapshot", telemetry::snapshot_json()),
        ("spans_jsonl", dmn_json::Json::Str(telemetry::spans_jsonl())),
        ("replay", replay.to_json()),
    ]);
    if let Err(e) = std::fs::write(&out, doc.to_string_pretty()) {
        eprintln!("metrics: could not write {out}: {e}");
        std::process::exit(1);
    }
    if replay.latency_samples == 0 {
        eprintln!("metrics: replay recorded no lookup latency samples (see {out})");
        std::process::exit(1);
    }
    println!(
        "metrics: {} lookups replayed, {} latency samples (p50 {:.2e}s, p99 {:.2e}s); \
         registry exported to {out}",
        replay.lookups, replay.latency_samples, replay.lookup_p50, replay.lookup_p99
    );
}

/// Benchmarks one registered solver across the standard scenario suite.
fn run_solver_bench(args: &[String]) {
    let mut name = None;
    let mut nodes = 36usize;
    let mut objects = 4usize;
    let mut seed = 7u64;
    let mut fl = FlSolverKind::default();
    let mut metric = MetricBackend::default();
    let mut cap_per_node: Option<usize> = None;
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
            "--nodes" => nodes = value("--nodes").parse().unwrap_or_else(|_| usage()),
            "--objects" => objects = value("--objects").parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--fl" => {
                let v = value("--fl");
                fl = FlSolverKind::parse(&v).unwrap_or_else(|| {
                    eprintln!(
                        "unknown phase-1 solver '{v}' (use {})",
                        FlSolverKind::ALL.map(|k| k.name()).join(", ")
                    );
                    usage()
                });
            }
            "--metric" => {
                let v = value("--metric");
                metric = MetricBackend::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown metric backend '{v}' (use dense, sparse)");
                    usage()
                });
            }
            "--capacities" => {
                let v = value("--capacities");
                let Some(k) = v.strip_prefix("uniform:").and_then(|k| k.parse().ok()) else {
                    eprintln!("bad --capacities '{v}' (use uniform:<copies-per-node>)");
                    usage()
                };
                cap_per_node = Some(k);
            }
            other if name.is_none() => name = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(name) = name else { usage() };

    if name == "list" {
        println!("{:<18} description", "name");
        for s in solvers::all() {
            println!("{:<18} {}", s.name(), s.description());
        }
        return;
    }
    let solver = match solvers::resolve(&name) {
        Ok(solver) => solver,
        Err(why) => {
            eprintln!("{why} (registered: {})", solvers::names().join(", "));
            std::process::exit(2);
        }
    };

    // Grid dims chosen so rows * cols >= nodes stays comparable to the
    // other topologies (rather than silently truncating to a square).
    let rows = nodes.max(4).isqrt();
    let cols = nodes.max(4).div_ceil(rows);
    let suite = [
        ("grid", TopologyKind::Grid { rows, cols }),
        ("random-tree", TopologyKind::RandomTree),
        ("gnp", TopologyKind::Gnp),
        ("transit-stub", TopologyKind::TransitStub),
    ];
    let req = SolveRequest::new()
        .seed(seed)
        .fl_solver(fl)
        .metric_backend(metric);
    println!("solver: {} — {}\n", solver.name(), solver.description());
    for (label, topology) in suite {
        let scenario = Scenario {
            name: label.into(),
            topology,
            nodes,
            storage_cost: 4.0,
            workload: WorkloadParams {
                num_objects: objects,
                base_mass: 120.0,
                write_fraction: 0.2,
                ..Default::default()
            },
            seed,
            capacities: cap_per_node
                .map(|per_node| dmn_workloads::CapacitySpec::Uniform { per_node }),
            stream: None,
            drift: None,
            faults: None,
            timeline: None,
        };
        let instance = scenario.build_instance();
        let req = match scenario.capacity_vector(instance.num_nodes()) {
            Some(cap) => req.clone().capacities(cap),
            None => req.clone(),
        };
        match solver.supports(&instance) {
            Ok(()) => {
                let report = solver.solve(&instance, &req);
                println!("== scenario {label} ({} nodes) ==", instance.num_nodes());
                print!("{report}");
                println!();
            }
            Err(why) => {
                println!("== scenario {label}: skipped ({why}) ==\n");
            }
        }
    }
}
