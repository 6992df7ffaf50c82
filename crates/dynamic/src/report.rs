//! Competitive-analysis reports: per-strategy cost breakdowns and
//! empirical competitive ratios against a registry-solved offline oracle.

use dmn_graph::NodeId;
use dmn_json::Json;

use crate::sim::DynamicCost;

/// One online strategy's outcome over a stream.
#[derive(Debug, Clone)]
pub struct StrategyRun {
    /// Strategy name (see [`crate::strategy`]).
    pub strategy: String,
    /// Full-stream cost breakdown.
    pub cost: DynamicCost,
    /// Per-phase cost breakdowns (phase = one `phase_len` segment).
    pub phase_costs: Vec<DynamicCost>,
    /// Empirical competitive ratio: total cost / oracle total cost.
    pub ratio: f64,
    /// Per-phase ratios against the oracle's per-phase costs.
    pub phase_ratios: Vec<f64>,
}

/// The result of racing a set of online strategies against a static
/// oracle placement on one stream (see [`crate::bridge::compete`]).
#[derive(Debug, Clone)]
pub struct CompetitiveReport {
    /// Registry name of the engine the oracle solved with.
    pub oracle_engine: String,
    /// The oracle placement's full-stream cost.
    pub oracle_cost: DynamicCost,
    /// The oracle placement's per-phase costs.
    pub oracle_phase_costs: Vec<DynamicCost>,
    /// The oracle placement itself (per-object copy sets).
    pub oracle_placement: Vec<Vec<NodeId>>,
    /// One entry per raced strategy, in input order.
    pub runs: Vec<StrategyRun>,
    /// Stream length the costs were accumulated over.
    pub stream_len: usize,
    /// Segment length of the per-phase accounting.
    pub phase_len: usize,
}

impl CompetitiveReport {
    /// The run of a strategy by name, when raced.
    pub fn run(&self, strategy: &str) -> Option<&StrategyRun> {
        self.runs.iter().find(|r| r.strategy == strategy)
    }

    /// The empirical competitive ratio of a strategy by name.
    pub fn ratio_of(&self, strategy: &str) -> Option<f64> {
        self.run(strategy).map(|r| r.ratio)
    }

    /// The worst (largest) per-phase ratio of a strategy by name.
    pub fn worst_phase_ratio_of(&self, strategy: &str) -> Option<f64> {
        self.run(strategy).map(|r| {
            r.phase_ratios
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        })
    }

    /// Serializes the report (breakdown columns, total and per-phase
    /// ratios) for machine consumers (the `sweep` binary).
    pub fn to_json(&self) -> Json {
        let cost_json = |c: &DynamicCost| {
            Json::obj([
                ("read", Json::Num(c.read)),
                ("write", Json::Num(c.write)),
                ("transfer", Json::Num(c.transfer)),
                ("storage", Json::Num(c.storage)),
                ("total", Json::Num(c.total())),
            ])
        };
        Json::obj([
            ("oracle_engine", Json::Str(self.oracle_engine.clone())),
            ("oracle_cost", cost_json(&self.oracle_cost)),
            ("stream_len", Json::Num(self.stream_len as f64)),
            ("phase_len", Json::Num(self.phase_len as f64)),
            (
                "strategies",
                Json::arr(self.runs.iter().map(|r| {
                    Json::obj([
                        ("name", Json::Str(r.strategy.clone())),
                        ("cost", cost_json(&r.cost)),
                        ("ratio", Json::Num(r.ratio)),
                        (
                            "phase_ratios",
                            Json::arr(r.phase_ratios.iter().map(|&x| Json::Num(x))),
                        ),
                    ])
                })),
            ),
        ])
    }
}

impl std::fmt::Display for CompetitiveReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "competitive report — oracle: {} ({} requests, phase length {})",
            self.oracle_engine, self.stream_len, self.phase_len
        )?;
        writeln!(
            f,
            "{:<18} {:>10} {:>10} {:>10} {:>10} {:>8}  per-phase ratios",
            "strategy", "serve", "transfer", "rent", "TOTAL", "ratio"
        )?;
        let row = |f: &mut std::fmt::Formatter<'_>,
                   name: &str,
                   c: &DynamicCost,
                   ratio: f64,
                   phases: &[f64]|
         -> std::fmt::Result {
            let phase_str = phases
                .iter()
                .map(|r| format!("{r:.2}"))
                .collect::<Vec<_>>()
                .join(" ");
            writeln!(
                f,
                "{:<18} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>8.3}  {}",
                name,
                c.serve(),
                c.transfer,
                c.storage,
                c.total(),
                ratio,
                phase_str
            )
        };
        let unit_phases = vec![1.0; self.oracle_phase_costs.len()];
        row(
            f,
            &format!("oracle[{}]", self.oracle_engine),
            &self.oracle_cost,
            1.0,
            &unit_phases,
        )?;
        for r in &self.runs {
            row(f, &r.strategy, &r.cost, r.ratio, &r.phase_ratios)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> CompetitiveReport {
        let cost = DynamicCost {
            read: 10.0,
            write: 5.0,
            transfer: 2.0,
            storage: 3.0,
        };
        CompetitiveReport {
            oracle_engine: "approx".into(),
            oracle_cost: cost,
            oracle_phase_costs: vec![cost],
            oracle_placement: vec![vec![0]],
            runs: vec![StrategyRun {
                strategy: "counting".into(),
                cost: DynamicCost { read: 20.0, ..cost },
                phase_costs: vec![cost],
                ratio: 1.5,
                phase_ratios: vec![1.5],
            }],
            stream_len: 100,
            phase_len: 100,
        }
    }

    #[test]
    fn lookup_and_worst_phase() {
        let r = demo();
        assert_eq!(r.ratio_of("counting"), Some(1.5));
        assert_eq!(r.worst_phase_ratio_of("counting"), Some(1.5));
        assert!(r.ratio_of("nope").is_none());
    }

    #[test]
    fn json_and_display_carry_the_breakdown() {
        let r = demo();
        let json = r.to_json().to_string_pretty();
        for needle in [
            "\"oracle_engine\"",
            "\"approx\"",
            "\"counting\"",
            "\"ratio\"",
            "\"transfer\"",
            "\"phase_ratios\"",
        ] {
            assert!(json.contains(needle), "missing {needle}");
        }
        assert!(dmn_json::parse(&json).is_ok());
        let text = r.to_string();
        assert!(text.contains("oracle[approx]"));
        assert!(text.contains("counting"));
    }
}
