//! The layered benchmark of the `dmn` workspace.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One invocation runs one workload
//! (`solve-sparse-10k`, `solve-dense-625` or `serve-tcp-drift`) and prints,
//! as the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer metrics, which are timed
//! from outside by calling each layer's public functions in sequence on one
//! thread. Human-readable detail goes to standard error. An output check
//! that fails is named on standard error, reported as `"correct": false`,
//! and makes the process exit with code 1. README.md lists the workloads,
//! the metrics and the checks.

mod serve;
mod solve;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: f64,
    /// Per-layer (`true`) or end-to-end (`false`) metrics.
    pub trace: bool,
    /// Sensitivity self-check only: arm a `delay` fault of this many
    /// milliseconds at `solve.phase1` for the whole run.
    pub phase1_delay_ms: Option<u64>,
}

const USAGE: &str =
    "usage: perfbench --workload <solve-sparse-10k|solve-dense-625|serve-tcp-drift> \
                     --seed <n> --seconds <s> --trace <0|1> [--phase1-delay-ms <ms>]";

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut delay) =
            (None, None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad("must be positive"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    })
                }
                "--phase1-delay-ms" => {
                    delay = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?)
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            phase1_delay_ms: delay,
        })
    }
}

/// What one run reports: metrics in print order, operation counts, and
/// the names of failed output checks.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted (solves, lookups, deltas).
    pub attempted: u64,
    /// Operations that failed (error replies, disconnects, degraded or
    /// panicked solves).
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// Records a metric. Names must be unique within a run.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(self.metrics.iter().all(|(n, _, _)| n != name), "{name}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records an output check; a failed one is named in the result.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            let line = format!("{name}: {}", detail());
            eprintln!("CHECK FAILED {line}");
            self.failures.push(line);
        }
    }

    fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Fails the run when a metric could not be measured.
    fn check_finite(&mut self) {
        let missing: Vec<String> = (self.metrics.iter())
            .filter(|(_, value, _)| !value.is_finite())
            .map(|(name, _, _)| name.clone())
            .collect();
        for name in missing {
            self.check("metric_measured", false, || format!("{name} is not finite"));
        }
    }

    fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let _faults = args.phase1_delay_ms.map(|ms| {
        use dmn_core::faults::{self, FaultAction, FaultPlan, FaultSpec};
        eprintln!("perfbench: self-check mode, {ms} ms delay armed at solve.phase1");
        faults::arm(&FaultPlan::new(
            0,
            vec![FaultSpec {
                times: 0,
                ..FaultSpec::once(faults::points::SOLVE_PHASE1, FaultAction::DelayMillis(ms))
            }],
        ))
    });
    let mut report = Report::default();
    let ran = match args.workload.as_str() {
        "solve-sparse-10k" => solve::run(&solve::SPARSE_10K, &args, &mut report),
        "solve-dense-625" => solve::run(&solve::DENSE_625, &args, &mut report),
        "serve-tcp-drift" => serve::run(&args, &mut report),
        other => Err(format!("unknown workload '{other}'\n{USAGE}")),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    report.check_finite();
    eprintln!(
        "perfbench: {} {} metrics, {} attempted, {} failed, {} checks failed",
        args.workload,
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        },
        report.attempted,
        report.failed,
        report.failures.len()
    );
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name:<34} {value:>16.6} {unit}");
    }
    let line = report.result_line();
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
