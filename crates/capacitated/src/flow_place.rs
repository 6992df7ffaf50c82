//! Flow-based capacitated seeding: the optimal single-copy placement
//! under per-node copy capacities, as a min-cost circulation.
//!
//! With one copy per object, the total cost of a placement is *linear* in
//! the object→node assignment: placing object `x` alone on node `v` costs
//! exactly `cs(v) + Σ_u mass_x(u) · ct(u, v)` (storage plus every request
//! shipped to the single copy; a single copy has no multicast tree). The
//! capacitated single-copy problem — every object gets exactly one copy,
//! node `v` holds at most `cap(v)` copies — is therefore a transportation
//! problem, solved *exactly* by [`dmn_graph::flow::min_cost_circulation`]
//! with a lower bound of one copy per object.
//!
//! The result is the principled feasibility seed for the capacitated local
//! search: unlike the greedy repair (which starts from an infeasible
//! multi-copy placement and unpiles it myopically), the flow placement is
//! globally optimal in its class, and the search then re-adds replicas
//! wherever capacity allows and replication pays.

use dmn_core::cost::{evaluate_object, UpdatePolicy};
use dmn_core::instance::Instance;
use dmn_core::placement::Placement;
use dmn_graph::flow::{min_cost_circulation, ArcSpec};
use dmn_graph::NodeId;

/// Exact optimal single-copy placement under per-node copy capacities,
/// restricted to the `candidates` sets (one candidate list per object;
/// every candidate must have finite storage cost).
///
/// Returns `None` when no feasible assignment exists within the candidate
/// sets (callers fall back to the greedy repair).
pub fn single_copy_flow_placement(
    instance: &Instance,
    cap: &[usize],
    candidates: &[Vec<NodeId>],
) -> Option<Placement> {
    let n = instance.num_nodes();
    let k = instance.num_objects();
    assert_eq!(cap.len(), n, "capacity vector length mismatch");
    assert_eq!(candidates.len(), k, "one candidate set per object");
    let metric = instance.metric();

    // Circulation nodes: 0..k objects, then one slot vertex per network
    // node that appears in any candidate set, then a collector.
    let mut slot_of = vec![usize::MAX; n];
    let mut slot_nodes: Vec<NodeId> = Vec::new();
    for set in candidates {
        for &v in set {
            debug_assert!(
                instance.storage_cost[v].is_finite(),
                "candidate {v} forbidden"
            );
            if slot_of[v] == usize::MAX {
                slot_of[v] = slot_nodes.len();
                slot_nodes.push(v);
            }
        }
    }
    let slot_base = k;
    let collector = slot_base + slot_nodes.len();
    let total_nodes = collector + 1;

    let mut arcs: Vec<ArcSpec> = Vec::new();
    let mut choice_arcs: Vec<(usize, usize, NodeId)> = Vec::new(); // (arc idx, object, node)
    for (x, set) in candidates.iter().enumerate() {
        if set.is_empty() {
            return None;
        }
        for &v in set {
            let cost = evaluate_object(
                metric,
                &instance.storage_cost,
                &instance.objects[x],
                &[v],
                UpdatePolicy::MstMulticast,
            )
            .total();
            choice_arcs.push((arcs.len(), x, v));
            arcs.push(ArcSpec {
                u: x,
                v: slot_base + slot_of[v],
                lower: 0.0,
                upper: 1.0,
                cost,
            });
        }
    }
    for (s, &v) in slot_nodes.iter().enumerate() {
        arcs.push(ArcSpec {
            u: slot_base + s,
            v: collector,
            lower: 0.0,
            upper: cap[v] as f64,
            cost: 0.0,
        });
    }
    // Each object must place exactly one copy: a unit of circulation is
    // forced through every object vertex.
    for x in 0..k {
        arcs.push(ArcSpec {
            u: collector,
            v: x,
            lower: 1.0,
            upper: 1.0,
            cost: 0.0,
        });
    }
    let (_, flows) = min_cost_circulation(total_nodes, &arcs)?;

    // All bounds are integral, so successive-shortest-path flows are too;
    // read the chosen arc per object back with a wide margin.
    let mut sets: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    for &(arc, x, v) in &choice_arcs {
        if flows[arc] > 0.5 {
            sets[x].push(v);
        }
    }
    if sets.iter().any(Vec::is_empty) {
        return None;
    }
    Some(Placement::from_copy_sets(sets))
}

/// Every finite-storage node, the widest candidate set.
pub fn all_allowed(instance: &Instance) -> Vec<NodeId> {
    (0..instance.num_nodes())
        .filter(|&v| instance.storage_cost[v].is_finite())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmn_core::cost::evaluate;
    use dmn_core::instance::ObjectWorkload;
    use dmn_graph::generators;

    fn instance_with_hot_node(k: usize) -> Instance {
        // Node 0 is the cheap hub everyone wants; capacity forces spread.
        let g = generators::path(4, |_| 1.0);
        let mut inst = Instance::builder(g)
            .storage_costs(vec![0.5, 1.0, 1.0, 1.0])
            .build();
        for _ in 0..k {
            inst.push_object(ObjectWorkload::from_sparse(4, [(0, 4.0), (1, 1.0)], []));
        }
        inst
    }

    #[test]
    fn respects_slot_capacities_and_covers_every_object() {
        let inst = instance_with_hot_node(3);
        let cap = vec![1usize; 4];
        let cands: Vec<Vec<NodeId>> = vec![all_allowed(&inst); 3];
        let p = single_copy_flow_placement(&inst, &cap, &cands).expect("feasible");
        p.validate(4).unwrap();
        assert!(dmn_approx::respects_capacities(&p, &cap));
        assert_eq!(p.total_copies(), 3, "exactly one copy per object");
    }

    #[test]
    fn matches_brute_force_on_a_tiny_instance() {
        let inst = instance_with_hot_node(2);
        let cap = vec![1usize, 1, 1, 0];
        let cands: Vec<Vec<NodeId>> = vec![all_allowed(&inst); 2];
        let p = single_copy_flow_placement(&inst, &cap, &cands).expect("feasible");
        let flow_cost = evaluate(&inst, &p, UpdatePolicy::MstMulticast).total();
        // Brute force all feasible single-copy assignments.
        let mut best = f64::INFINITY;
        for a in 0..4usize {
            for b in 0..4usize {
                let mut load = [0usize; 4];
                load[a] += 1;
                load[b] += 1;
                if load.iter().zip(&cap).any(|(l, c)| l > c) {
                    continue;
                }
                let q = Placement::from_copy_sets(vec![vec![a], vec![b]]);
                best = best.min(evaluate(&inst, &q, UpdatePolicy::MstMulticast).total());
            }
        }
        assert!(
            (flow_cost - best).abs() < 1e-9,
            "flow {flow_cost} vs brute force {best}"
        );
    }

    #[test]
    fn infeasible_capacities_return_none() {
        let inst = instance_with_hot_node(3);
        let cands: Vec<Vec<NodeId>> = vec![all_allowed(&inst); 3];
        assert!(single_copy_flow_placement(&inst, &[1, 1, 0, 0], &cands).is_none());
        assert!(single_copy_flow_placement(&inst, &[1, 1, 1, 0], &cands).is_some());
    }
}
