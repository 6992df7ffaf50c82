//! Dynamic (online) data management on the paper's cost model.
//!
//! The SPAA 2001 paper solves the *static* problem — frequencies are known
//! up front. Its related-work section frames the *dynamic* setting
//! (Awerbuch–Bartal–Fiat; Maggs et al.; Meyer auf der Heide et al.), where
//! requests arrive online and the strategy may replicate, migrate, and
//! invalidate copies as it serves them. This crate provides that setting on
//! top of the same cost model so static and dynamic strategies are
//! comparable number-for-number:
//!
//! * [`stream`] — request streams: stationary samples of a static workload,
//!   non-stationary phase-shifting streams, and deterministic adversarial
//!   streams in the style of the online lower bounds,
//! * [`strategy`] — the online strategy zoo: the count-based
//!   replicate/invalidate scheme (the classic threshold mechanism inside
//!   the competitive tree strategies), single-copy migration, rent-to-buy
//!   (ski-rental) replication, migration-enabled counting under a copy
//!   budget, and a fixed-placement strategy,
//! * [`sim`] — the accounting simulator: serve costs per request, transfer
//!   costs for replication/migration, and storage *rent* pro-rated over the
//!   stream so a copy held for the whole stream costs exactly its static
//!   `cs(v)`; [`sim::simulate_segmented`] decomposes the run per phase,
//! * [`bridge`] — the dynamic↔static bridge: [`StaticOracle`] wraps **any**
//!   engine of the `dmn-solve` registry (`approx`, `tree-dp`,
//!   `capacitated`, ...) as the offline reference, and
//!   [`bridge::compete`] races a strategy set against it,
//! * [`report`] — [`CompetitiveReport`]: per-strategy serve/transfer/rent
//!   breakdowns with total and per-phase empirical competitive ratios,
//!   renderable as a table or JSON.
//!
//! The empirical "competitive ratio" reported by the harness is the cost
//! of the online strategy divided by the cost of the static-oracle
//! placement computed with full knowledge of the stream's frequencies.

pub mod bridge;
pub mod error;
pub mod migration;
pub mod replay;
pub mod report;
pub mod sim;
pub mod strategy;
pub mod stream;

pub use bridge::{compete, StaticOracle};
pub use error::DynamicError;
pub use migration::MigrationStrategy;
pub use replay::{try_replay_slots, ReplaySlot, SlotOutcome};
pub use report::{CompetitiveReport, StrategyRun};
pub use sim::{simulate, simulate_segmented, DynamicCost};
pub use strategy::{
    standard_zoo, CountingStrategy, DynamicStrategy, FixedStrategy, MigratoryCountingStrategy,
    RentToBuyStrategy,
};
pub use stream::{
    adversarial_stream, sample_stream, try_adversarial_stream, try_sample_stream,
    AdversarialConfig, Request, RequestKind, StreamConfig,
};
