//! Slot-aligned stream replay: one strategy, one copy-set state, many
//! time slots with per-slot storage costs.
//!
//! The timeline runner drives the dynamic zoo over the *same* slot stream
//! the static engines re-solve on. Each slot carries its own storage-cost
//! vector (the timeline's cost multiplier applied to the base rent) and
//! its own request stream, rent is pro-rated *within* the slot (a copy
//! held for a whole slot pays that slot's `cs(v)` once), and the replay
//! reports per-slot costs plus the copies-moved churn series. Strategy
//! and copy-set state persist across slot boundaries — the whole point of
//! replaying a timeline online. [`crate::sim::simulate_segmented`] runs
//! through the same loop, with one price vector for every segment and
//! the whole stream as every segment's rent horizon.

use dmn_graph::{Metric, NodeId};

use crate::error::DynamicError;
use crate::sim::{apply_request, check_initial, DynamicCost};
use crate::strategy::DynamicStrategy;
use crate::stream::{Request, RequestKind};

/// One slot of a replay: the storage costs in force and the requests that
/// arrive while they are.
#[derive(Debug, Clone)]
pub struct ReplaySlot {
    /// Per-node storage cost during this slot.
    pub storage_cost: Vec<f64>,
    /// Requests of this slot, in arrival order.
    pub stream: Vec<Request>,
}

/// Per-slot outcome of a replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotOutcome {
    /// Cost decomposition of the slot.
    pub cost: DynamicCost,
    /// Copies the strategy created this slot (accepted replications) —
    /// the placement-churn metric.
    pub copies_moved: usize,
}

/// Replays `strategy` over the slot sequence, carrying copy sets and
/// strategy state across slot boundaries.
///
/// Rent is charged per slot: a copy held for `h` of a slot's `L` requests
/// owes `cs_slot(v) * h / L` (an empty-stream slot charges no rent — no
/// time passes). Summed over slots with identical storage costs this
/// reproduces [`crate::sim::simulate`]'s serve and transfer costs.
///
/// # Errors
/// Returns [`DynamicError`] when an object starts with no copies, a
/// request references an out-of-range object/node, or a slot's
/// storage-cost vector disagrees with the network size.
pub fn try_replay_slots(
    metric: &Metric,
    slots: &[ReplaySlot],
    initial: &[Vec<NodeId>],
    strategy: &mut dyn DynamicStrategy,
) -> Result<Vec<SlotOutcome>, DynamicError> {
    let slots = slots
        .iter()
        .map(|slot| (slot.storage_cost.as_slice(), slot.stream.as_slice()));
    replay(metric, slots, None, initial, strategy)
}

/// The accounting loop behind [`try_replay_slots`] and
/// [`crate::sim::simulate_segmented`]: each `(storage costs, requests)`
/// slot is served in order, and a copy held for `h` requests owes
/// `cs(v) * h / horizon` of that slot's rent, where `horizon` is
/// `rent_horizon` when given and the slot's own length otherwise (at
/// least 1 either way).
pub(crate) fn replay<'a>(
    metric: &Metric,
    slots: impl IntoIterator<Item = (&'a [f64], &'a [Request])>,
    rent_horizon: Option<usize>,
    initial: &[Vec<NodeId>],
    strategy: &mut dyn DynamicStrategy,
) -> Result<Vec<SlotOutcome>, DynamicError> {
    let n = metric.len();
    let mut copies = check_initial(initial, n)?;
    let mut outcomes = Vec::new();
    let mut held: Vec<Vec<usize>> = vec![vec![0; n]; copies.len()];

    for (storage_cost, stream) in slots {
        if storage_cost.len() != n {
            return Err(DynamicError::StorageCostLength {
                expected: n,
                got: storage_cost.len(),
            });
        }
        let steps = rent_horizon.unwrap_or(stream.len()).max(1) as f64;
        let mut cost = DynamicCost::default();
        let mut copies_moved = 0usize;
        for req in stream {
            if req.node >= n {
                return Err(DynamicError::NodeOutOfRange {
                    node: req.node,
                    nodes: n,
                });
            }
            if req.object >= copies.len() {
                return Err(DynamicError::ObjectOutOfRange {
                    object: req.object,
                    objects: copies.len(),
                });
            }
            let set = &mut copies[req.object];
            let (step, multicast) = apply_request(metric, storage_cost, set, req, strategy)?;
            cost.transfer += step.transfer;
            copies_moved += step.copies_added;
            match req.kind {
                RequestKind::Read => cost.read += step.serve,
                RequestKind::Write => cost.write += step.serve + multicast,
            }
            // Rent for this step: every object's held copies accrue, not
            // just the requested one's.
            for (x, set) in copies.iter().enumerate() {
                for &v in set.iter() {
                    held[x][v] += 1;
                }
            }
        }
        // Flush this slot's rent under this slot's prices.
        for per_object in held.iter_mut() {
            for (v, h) in per_object.iter_mut().enumerate() {
                if *h > 0 {
                    cost.storage += storage_cost[v] * (*h as f64 / steps);
                    *h = 0;
                }
            }
        }
        outcomes.push(SlotOutcome { cost, copies_moved });
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use crate::strategy::{CountingStrategy, FixedStrategy};

    fn line_metric() -> Metric {
        Metric::from_line(&[0.0, 1.0, 2.0, 3.0])
    }

    fn read(node: usize) -> Request {
        Request {
            node,
            object: 0,
            kind: RequestKind::Read,
        }
    }

    #[test]
    fn constant_cost_slots_reproduce_simulate() {
        let m = line_metric();
        let cs = vec![2.0; 4];
        let stream: Vec<Request> = (0..40).map(|i| read(i % 4)).collect();
        let whole = simulate(
            &m,
            &cs,
            &[vec![0]],
            &stream,
            &mut CountingStrategy::new(1, 4, 3.0),
        );
        let slots: Vec<ReplaySlot> = stream
            .chunks(10)
            .map(|c| ReplaySlot {
                storage_cost: cs.clone(),
                stream: c.to_vec(),
            })
            .collect();
        let outcomes = try_replay_slots(
            &m,
            &slots,
            &[vec![0]],
            &mut CountingStrategy::new(1, 4, 3.0),
        )
        .unwrap();
        assert_eq!(outcomes.len(), 4);
        let mut total = DynamicCost::default();
        for o in &outcomes {
            total += o.cost;
        }
        // Same loop, same serve and transfer bits; only the rent differs,
        // pro-rated per slot here and over the whole stream in `simulate`.
        assert_eq!(total.serve().to_bits(), whole.serve().to_bits());
        assert_eq!(total.transfer.to_bits(), whole.transfer.to_bits());
    }

    #[test]
    fn per_slot_storage_costs_change_the_rent() {
        let m = line_metric();
        let stream: Vec<Request> = (0..10).map(|_| read(0)).collect();
        let cheap = ReplaySlot {
            storage_cost: vec![1.0; 4],
            stream: stream.clone(),
        };
        let pricey = ReplaySlot {
            storage_cost: vec![5.0; 4],
            stream,
        };
        let outcomes =
            try_replay_slots(&m, &[cheap, pricey], &[vec![0]], &mut FixedStrategy).unwrap();
        // One copy held all slot: rent = cs(0) per slot.
        assert!((outcomes[0].cost.storage - 1.0).abs() < 1e-9);
        assert!((outcomes[1].cost.storage - 5.0).abs() < 1e-9);
    }

    #[test]
    fn copies_moved_counts_accepted_replications() {
        let m = line_metric();
        let cs = vec![0.1; 4];
        // Threshold 2: the second remote read from node 3 replicates.
        let slot = ReplaySlot {
            storage_cost: cs,
            stream: (0..5).map(|_| read(3)).collect(),
        };
        let outcomes = try_replay_slots(
            &m,
            &[slot],
            &[vec![0]],
            &mut CountingStrategy::new(1, 4, 2.0),
        )
        .unwrap();
        assert_eq!(outcomes[0].copies_moved, 1);
        assert_eq!(outcomes[0].cost.transfer, 3.0);
    }

    #[test]
    fn typed_errors_for_degenerate_slots() {
        let m = line_metric();
        let slot = ReplaySlot {
            storage_cost: vec![1.0; 4],
            stream: vec![read(0)],
        };
        let err = try_replay_slots(
            &m,
            std::slice::from_ref(&slot),
            &[vec![]],
            &mut FixedStrategy,
        )
        .unwrap_err();
        assert_eq!(err, DynamicError::EmptyInitialPlacement { object: 0 });

        let err = try_replay_slots(
            &m,
            std::slice::from_ref(&slot),
            &[vec![9]],
            &mut FixedStrategy,
        )
        .unwrap_err();
        assert_eq!(err, DynamicError::NodeOutOfRange { node: 9, nodes: 4 });

        let bad_cs = ReplaySlot {
            storage_cost: vec![1.0; 3],
            stream: vec![],
        };
        let err = try_replay_slots(&m, &[bad_cs], &[vec![0]], &mut FixedStrategy).unwrap_err();
        assert_eq!(
            err,
            DynamicError::StorageCostLength {
                expected: 4,
                got: 3
            }
        );

        let oob = ReplaySlot {
            storage_cost: vec![1.0; 4],
            stream: vec![Request {
                node: 0,
                object: 7,
                kind: RequestKind::Read,
            }],
        };
        let err = try_replay_slots(&m, &[oob], &[vec![0]], &mut FixedStrategy).unwrap_err();
        assert_eq!(
            err,
            DynamicError::ObjectOutOfRange {
                object: 7,
                objects: 1
            }
        );
    }
}
