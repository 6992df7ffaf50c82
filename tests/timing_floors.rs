//! The release timing floors, in one test so that no two measurements
//! share the machine's cores:
//!
//! * **phase-1 speedup**: one-thread `approx` solves of the pinned smoke
//!   instance with the incremental local search and with the seed
//!   from-scratch implementation (`local-search-ref`), best of two runs on
//!   each side, must differ by at least [`MIN_PHASE1_SPEEDUP`]×;
//! * **server replay**: [`PAIRS`] (disarmed, armed) pairs of the smoke
//!   scenario's drift-trace replay, alternating which side runs first.
//!   Every replay must pass `server_ok` (each settled snapshot costs what
//!   a from-scratch solve costs, over at least [`REPLAY_SEGMENTS`]
//!   re-solves), and no re-solve of any replay may take longer than
//!   [`MAX_RESOLVE_SECONDS`]. The median armed replay must answer
//!   [`MIN_LOOKUPS_PER_SEC`] lookups per second, and the median per-pair
//!   armed/disarmed throughput ratio must be at least
//!   [`MIN_THROUGHPUT_RATIO`] (`obs_ok`);
//! * **10k sparse wall clock**: the committed `scenarios/grid_10k.json`,
//!   solved by `approx` on the sparse backend, within
//!   [`MAX_10K_WALL_SECONDS`].
//!
//! Each floor fails the test as soon as it is measured. Debug timings
//! mean nothing, so debug builds ignore the test; run it with
//! `cargo test --release --test timing_floors -- --nocapture` to see the
//! measurements.

use dmn_approx::FlSolverKind;
use dmn_bench::server_bench::{
    replay_scenario_with, smoke_scenario, ReplayOutcome, REPLAY_SEGMENTS,
};
use dmn_solve::{solvers, MetricBackend, SolveReport, SolveRequest};
use dmn_workloads::Scenario;

/// Floor on seed phase-1 seconds over incremental phase-1 seconds.
const MIN_PHASE1_SPEEDUP: f64 = 5.0;

/// Floor on the median armed replay's lookups per second.
const MIN_LOOKUPS_PER_SEC: f64 = 1_000_000.0;

/// Ceiling on the worst re-solve of any replay.
const MAX_RESOLVE_SECONDS: f64 = 5.0;

/// Floor on the median per-pair armed/disarmed throughput ratio: arming
/// telemetry may cost at most 10% of lookup throughput.
const MIN_THROUGHPUT_RATIO: f64 = 0.90;

/// (disarmed, armed) replay pairs behind the throughput ratio. One pair's
/// ratio spreads over roughly 0.75–1.30 on a shared 2-vCPU machine while
/// its true value sits near 0.95–1.0, so a median of 7 pairs still read
/// below 0.90 in about 1 of 20 runs there; 21 pairs bring that near 1 in
/// 250.
const PAIRS: usize = 21;

/// Ceiling on the wall clock of the 10k-node sparse solve.
const MAX_10K_WALL_SECONDS: f64 = 3.0;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn phase1_seconds(report: &SolveReport) -> f64 {
    report
        .phases
        .iter()
        .find(|p| p.name == "facility-location")
        .expect("approx reports its phase 1")
        .seconds
}

fn server_ok(run: &ReplayOutcome) -> bool {
    run.cost_matches_scratch && run.resolves >= REPLAY_SEGMENTS as u64
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timings mean something only in release builds"
)]
fn release_timings_hold_their_floors() {
    let smoke = smoke_scenario();
    let instance = smoke.build_instance();
    let approx = solvers::by_name("approx").expect("approx registered");
    let incremental = SolveRequest::new().max_threads(Some(1));
    let reference = incremental.clone().fl_solver(FlSolverKind::LocalSearchRef);
    let best_phase1 = |req: &SolveRequest| {
        (0..2)
            .map(|_| phase1_seconds(&approx.solve(&instance, req)))
            .fold(f64::INFINITY, f64::min)
    };
    let speedup = best_phase1(&reference) / best_phase1(&incremental);
    println!("phase-1 speedup: {speedup:.1}x");
    assert!(
        speedup >= MIN_PHASE1_SPEEDUP,
        "phase-1 speedup {speedup:.1}x"
    );

    let mut worst_resolve = 0.0f64;
    let mut replay = |armed| {
        let run = replay_scenario_with(&smoke, None, armed);
        assert!(
            server_ok(&run),
            "server_ok failed (armed: {armed}): {run:?}"
        );
        assert!(
            run.max_resolve_seconds <= MAX_RESOLVE_SECONDS,
            "a re-solve took {:.3} s (armed: {armed})",
            run.max_resolve_seconds
        );
        worst_resolve = worst_resolve.max(run.max_resolve_seconds);
        run.lookups_per_sec
    };
    let (mut ratios, mut armed_rates) = (Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        let (disarmed, armed) = if pair % 2 == 0 {
            let disarmed = replay(false);
            (disarmed, replay(true))
        } else {
            let armed = replay(true);
            (replay(false), armed)
        };
        ratios.push(armed / disarmed);
        armed_rates.push(armed);
    }
    let (ratio, lookups_per_sec) = (median(ratios), median(armed_rates));
    println!(
        "replays: worst re-solve {worst_resolve:.3} s, armed {lookups_per_sec:.0} lookups/s, \
         median armed/disarmed ratio {ratio:.3}"
    );
    assert!(
        lookups_per_sec >= MIN_LOOKUPS_PER_SEC,
        "armed {lookups_per_sec:.0} lookups/s"
    );
    assert!(ratio >= MIN_THROUGHPUT_RATIO, "throughput ratio {ratio:.3}");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/grid_10k.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let grid = Scenario::from_json(&dmn_json::parse(&text).expect("valid JSON"))
        .expect("parses as a scenario")
        .build_instance();
    assert_eq!(grid.num_nodes(), 10_000);
    let sparse = SolveRequest::new().metric_backend(MetricBackend::Sparse);
    let wall_10k = approx.solve(&grid, &sparse).wall_seconds;
    println!("10k sparse solve: {wall_10k:.3} s");
    assert!(
        wall_10k <= MAX_10K_WALL_SECONDS,
        "10k sparse solve {wall_10k:.3} s"
    );
}
