//! The online accounting simulator.
//!
//! Costs charged per request, consistent with the static model:
//!
//! * **read** — distance from the home to the nearest copy,
//! * **write** — distance to the nearest copy plus a metric-MST multicast
//!   over the copy set (the paper's achievable policy),
//! * **transfer** — replicating an object to a node costs the distance
//!   from the nearest existing copy (the object must be shipped there),
//! * **storage rent** — `cs(v) · (steps held / stream length)` per copy,
//!   so holding a copy for the whole stream costs exactly the static
//!   `cs(v)`; invalidation is free.
//!
//! The simulator is the model authority, mirroring the static problem's
//! invariants no matter what a strategy proposes: replication onto a
//! storage-forbidden node (`cs(v) = inf`) is ignored, and an invalidation
//! that would drop an object's last copy is ignored.

use dmn_core::instance::ObjectWorkload;
use dmn_graph::mst::metric_mst_weight;
use dmn_graph::{Metric, NodeId};

use crate::error::DynamicError;
use crate::replay::replay;
use crate::strategy::DynamicStrategy;
use crate::stream::{Request, RequestKind};

/// Cost decomposition of a simulated run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DynamicCost {
    /// Read service cost.
    pub read: f64,
    /// Write service + multicast cost.
    pub write: f64,
    /// Object transfer cost for replications.
    pub transfer: f64,
    /// Pro-rated storage rent.
    pub storage: f64,
}

impl DynamicCost {
    /// Total cost of the run.
    pub fn total(&self) -> f64 {
        self.read + self.write + self.transfer + self.storage
    }

    /// Service (read + write) cost — the "serve" column of reports.
    pub fn serve(&self) -> f64 {
        self.read + self.write
    }
}

impl std::ops::AddAssign for DynamicCost {
    fn add_assign(&mut self, rhs: DynamicCost) {
        self.read += rhs.read;
        self.write += rhs.write;
        self.transfer += rhs.transfer;
        self.storage += rhs.storage;
    }
}

/// What one request did to the model: the costs charged and the number of
/// replications that actually landed (the simulator may veto some).
pub(crate) struct StepOutcome {
    /// Transfer cost of the accepted replications.
    pub transfer: f64,
    /// Serve distance (read or write leg, before the multicast).
    pub serve: f64,
    /// Copies created this step — the placement-churn unit.
    pub copies_added: usize,
}

/// Applies one request to `set` under the model-authority rules of the
/// accounting loop ([`crate::replay::try_replay_slots`]): the strategy
/// reconfigures first, forbidden replications are rejected (cancelling
/// paired invalidations when *all* replications were rejected), last-copy
/// invalidations are ignored, then the request is served from the
/// resulting set.
pub(crate) fn apply_request(
    metric: &Metric,
    storage_cost: &[f64],
    set: &mut Vec<NodeId>,
    req: &Request,
    strategy: &mut dyn DynamicStrategy,
) -> Result<(StepOutcome, f64), DynamicError> {
    let rec = strategy.on_request(req, set, metric);
    let mut out = StepOutcome {
        transfer: 0.0,
        serve: 0.0,
        copies_added: 0,
    };
    let mut applied = 0usize;
    for &v in &rec.replicate_to {
        if v >= metric.len() || !storage_cost[v].is_finite() {
            continue;
        }
        if set.binary_search(&v).is_err() {
            let (_, d) = metric
                .nearest_in(v, set)
                .ok_or(DynamicError::EmptyCopySet { object: req.object })?;
            out.transfer += d;
            let pos = set.binary_search(&v).unwrap_err();
            set.insert(pos, v);
            out.copies_added += 1;
        }
        applied += 1;
    }
    if rec.replicate_to.is_empty() || applied > 0 {
        for &v in &rec.invalidate {
            if set.len() > 1 {
                if let Ok(pos) = set.binary_search(&v) {
                    set.remove(pos);
                }
            }
        }
    }

    let (_, d) = metric
        .nearest_in(req.node, set)
        .ok_or(DynamicError::EmptyCopySet { object: req.object })?;
    out.serve = d;
    let multicast = match req.kind {
        RequestKind::Read => 0.0,
        RequestKind::Write => metric_mst_weight(metric, set),
    };
    Ok((out, multicast))
}

/// Simulates `strategy` over `stream`, starting from `initial` copy sets.
///
/// # Panics
/// Panics when an object *starts* with no copies or a request references
/// an out-of-range object/node. Mid-stream, the simulator enforces the
/// model instead of panicking: forbidden replications (and the
/// invalidations paired with them) and last-copy invalidations are
/// ignored.
pub fn simulate(
    metric: &Metric,
    storage_cost: &[f64],
    initial: &[Vec<NodeId>],
    stream: &[Request],
    strategy: &mut dyn DynamicStrategy,
) -> DynamicCost {
    // One segment spans the whole stream (an empty stream still yields
    // one zero segment).
    let whole = stream.len().max(1);
    simulate_segmented(metric, storage_cost, initial, stream, strategy, whole)[0]
}

/// Simulates `strategy` over `stream` like [`simulate`], but returns the
/// cost decomposed into consecutive segments of `segment_len` requests
/// (the last segment may be shorter; an empty stream yields one zero
/// segment). Per-phase empirical competitive ratios on phase-shifting
/// streams are built on this: pass the stream's phase length and divide
/// per-segment totals.
///
/// The segments run through the slot replay's accounting loop, with the
/// whole stream as every segment's rent horizon: storage rent stays
/// pro-rated over the *whole* stream, so summing the segments reproduces
/// [`simulate`].
///
/// # Panics
/// Panics when `segment_len` is zero, an object *starts* with no copies,
/// or a request references an out-of-range object/node (the same
/// mid-stream enforcement rules as [`simulate`] apply).
pub fn simulate_segmented(
    metric: &Metric,
    storage_cost: &[f64],
    initial: &[Vec<NodeId>],
    stream: &[Request],
    strategy: &mut dyn DynamicStrategy,
    segment_len: usize,
) -> Vec<DynamicCost> {
    assert!(segment_len > 0, "segment length must be positive");
    let segments = stream
        .chunks(segment_len)
        .chain(stream.is_empty().then_some(stream))
        .map(|segment| (storage_cost, segment));
    replay(metric, segments, Some(stream.len()), initial, strategy)
        .unwrap_or_else(|e| panic!("{e}"))
        .into_iter()
        .map(|segment| segment.cost)
        .collect()
}

/// Normalizes and checks the initial copy sets: sorted, deduped,
/// non-empty, every node in range.
pub(crate) fn check_initial(
    initial: &[Vec<NodeId>],
    n: usize,
) -> Result<Vec<Vec<NodeId>>, DynamicError> {
    let mut copies: Vec<Vec<NodeId>> = initial.to_vec();
    for (x, set) in copies.iter_mut().enumerate() {
        set.sort_unstable();
        set.dedup();
        if set.is_empty() {
            return Err(DynamicError::EmptyInitialPlacement { object: x });
        }
        if let Some(&v) = set.last() {
            if v >= n {
                return Err(DynamicError::NodeOutOfRange { node: v, nodes: n });
            }
        }
    }
    Ok(copies)
}

/// Convenience: the cost a static placement incurs on a stream (a
/// [`crate::strategy::FixedStrategy`] run), e.g. the static-oracle
/// reference for empirical competitive ratios.
pub fn static_cost_on_stream(
    metric: &Metric,
    storage_cost: &[f64],
    placement: &[Vec<NodeId>],
    stream: &[Request],
) -> DynamicCost {
    let mut fixed = crate::strategy::FixedStrategy;
    simulate(metric, storage_cost, placement, stream, &mut fixed)
}

/// Empirical workloads helper re-exported for oracle construction.
pub fn stream_workloads(stream: &[Request], num_objects: usize, n: usize) -> Vec<ObjectWorkload> {
    crate::stream::empirical_workloads(stream, num_objects, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::StaticOracle;
    use crate::strategy::{CountingStrategy, FixedStrategy};
    use crate::stream::{sample_stream, StreamConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn line_metric() -> Metric {
        Metric::from_line(&[0.0, 1.0, 2.0, 3.0])
    }

    #[test]
    fn fixed_strategy_accounting_by_hand() {
        let m = line_metric();
        let cs = vec![4.0; 4];
        // One object with one copy at node 0; stream: read@3, write@1.
        let stream = vec![
            Request {
                node: 3,
                object: 0,
                kind: RequestKind::Read,
            },
            Request {
                node: 1,
                object: 0,
                kind: RequestKind::Write,
            },
        ];
        let mut fixed = FixedStrategy;
        let c = simulate(&m, &cs, &[vec![0]], &stream, &mut fixed);
        assert_eq!(c.read, 3.0);
        assert_eq!(c.write, 1.0); // single copy: no multicast
        assert_eq!(c.transfer, 0.0);
        // Rent: one copy, 2 steps, cs 4 over 2 steps = 4.
        assert!((c.storage - 4.0).abs() < 1e-12);
        assert!((c.total() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn counting_strategy_replicates_and_pays_transfer() {
        let m = line_metric();
        let cs = vec![0.1; 4];
        let read3 = Request {
            node: 3,
            object: 0,
            kind: RequestKind::Read,
        };
        let stream = vec![read3; 5];
        let mut s = CountingStrategy::new(1, 4, 2.0);
        let c = simulate(&m, &cs, &[vec![0]], &stream, &mut s);
        // Read 1 remote (3); read 2 reaches the threshold and replicates
        // before serving (transfer 3), all later reads are local.
        assert_eq!(c.transfer, 3.0);
        assert_eq!(c.read, 3.0);
    }

    #[test]
    fn read_heavy_counting_beats_fixed_single_copy() {
        let m = line_metric();
        let cs = vec![0.5; 4];
        let mut w = dmn_core::instance::ObjectWorkload::new(4);
        w.reads[2] = 5.0;
        w.reads[3] = 5.0;
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let stream = sample_stream(
            &[w],
            &StreamConfig {
                length: 400,
                ..Default::default()
            },
            &mut rng,
        );
        let mut counting = CountingStrategy::new(1, 4, 3.0);
        let dynamic = simulate(&m, &cs, &[vec![0]], &stream, &mut counting);
        let fixed = static_cost_on_stream(&m, &cs, &[vec![0]], &stream);
        assert!(
            dynamic.total() < 0.5 * fixed.total(),
            "dynamic {} vs fixed {}",
            dynamic.total(),
            fixed.total()
        );
    }

    #[test]
    fn oracle_reference_is_competitive_on_stationary_streams() {
        let m = line_metric();
        let cs = vec![1.0; 4];
        let mut w = dmn_core::instance::ObjectWorkload::new(4);
        w.reads[0] = 4.0;
        w.reads[3] = 4.0;
        w.writes[1] = 1.0;
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let stream = sample_stream(
            &[w],
            &StreamConfig {
                length: 600,
                ..Default::default()
            },
            &mut rng,
        );
        let emp = stream_workloads(&stream, 1, 4);
        let path = dmn_graph::generators::path(4, |_| 1.0);
        let base = dmn_core::instance::Instance::builder(path)
            .storage_costs(cs.clone())
            .build();
        let oracle = StaticOracle::approx().place_on(&base, &emp).unwrap();
        let oracle_cost = static_cost_on_stream(&m, &cs, &oracle, &stream);
        let mut counting = CountingStrategy::new(1, 4, 3.0);
        let dynamic = simulate(&m, &cs, &[vec![0]], &stream, &mut counting);
        let ratio = dynamic.total() / oracle_cost.total();
        assert!(
            ratio < 4.0,
            "empirical competitive ratio too large: {ratio}"
        );
    }

    #[test]
    #[should_panic(expected = "no copies")]
    fn empty_initial_placement_rejected() {
        let m = line_metric();
        let mut fixed = FixedStrategy;
        simulate(&m, &[1.0; 4], &[vec![]], &[], &mut fixed);
    }
}
