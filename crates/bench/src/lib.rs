//! Benchmarks and the per-claim experiment harness.
//!
//! The SPAA 2001 paper is a theory paper: it proves bounds instead of
//! reporting measurements. The `experiments` binary in this crate measures
//! every quantitative claim (see DESIGN.md §5 for the experiment index) and
//! prints `paper claim vs measured` tables; results are also written as
//! JSON under `results/`.
//!
//! Run all experiments:
//!
//! ```text
//! cargo run --release -p dmn-bench --bin experiments -- all
//! ```
//!
//! or a single one, e.g. `... -- e2`.

pub mod chaos_replay;
pub mod experiments;
pub mod fuzz;
pub mod perf_smoke;
pub mod report;
pub mod server_bench;
pub mod timeline;

pub use report::{Report, Table};
