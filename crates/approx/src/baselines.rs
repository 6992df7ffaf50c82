//! Baseline placement strategies the experiments compare against.
//!
//! None of these carries the paper's guarantee; they bracket the algorithm
//! from below (trivial strategies) and above (direct local search on the
//! true objective, a strong but guarantee-free heuristic).
//!
//! All baselines consume a whole [`Instance`] and produce a [`Placement`]
//! covering every object — the same surface the `dmn-solve` `Solver`
//! trait expects — and the non-trivial ones evaluate candidates under the
//! true objective (storage + read + MST-multicast update cost), so
//! transmission costs are never silently ignored.

use dmn_core::cost::{evaluate_object, UpdatePolicy};
use dmn_core::instance::{Instance, ObjectWorkload};
use dmn_core::placement::Placement;
use dmn_graph::{Metric, NodeId};
use rand::Rng;

/// A copy of every object on every node that is allowed to hold one
/// (finite storage cost).
pub fn full_replication(instance: &Instance) -> Placement {
    let all: Vec<NodeId> = allowed_nodes(&instance.storage_cost);
    assert!(!all.is_empty(), "no node may hold a copy");
    Placement::from_copy_sets(vec![all; instance.num_objects()])
}

/// Per object, the single node minimizing the true total cost (exact
/// 1-copy optimum, a weighted 1-median including write traffic).
pub fn best_single_node(instance: &Instance) -> Placement {
    per_object(instance, best_single_object)
}

/// Per object, `k` distinct random allowed nodes (baseline for "how much
/// does placement intelligence matter at equal replication degree").
pub fn random_k(instance: &Instance, k: usize, rng: &mut impl Rng) -> Placement {
    let sets = instance
        .objects
        .iter()
        .map(|_| random_k_object(&instance.storage_cost, k, rng))
        .collect();
    Placement::from_copy_sets(sets)
}

/// Per object, add/drop/swap local search directly on the true
/// data-management objective (including MST-multicast update cost). No
/// approximation guarantee — the update cost is not submodular in the copy
/// set — but a strong practical upper-bound reference.
pub fn greedy_local(instance: &Instance) -> Placement {
    per_object(instance, greedy_local_object)
}

fn per_object(
    instance: &Instance,
    f: impl Fn(&Metric, &[f64], &ObjectWorkload) -> Vec<NodeId>,
) -> Placement {
    let metric = instance.metric();
    let sets = instance
        .objects
        .iter()
        .map(|w| f(metric, &instance.storage_cost, w))
        .collect();
    Placement::from_copy_sets(sets)
}

fn allowed_nodes(storage_cost: &[f64]) -> Vec<NodeId> {
    (0..storage_cost.len())
        .filter(|&v| storage_cost[v].is_finite())
        .collect()
}

/// Single-object kernel of [`full_replication`].
pub fn full_replication_object(storage_cost: &[f64]) -> Vec<NodeId> {
    allowed_nodes(storage_cost)
}

/// Single-object kernel of [`best_single_node`].
pub fn best_single_object(
    metric: &Metric,
    storage_cost: &[f64],
    workload: &ObjectWorkload,
) -> Vec<NodeId> {
    // Each node is evaluated once; `min_by` keeps the first minimum.
    let (best, _) = (0..metric.len())
        .filter(|&v| storage_cost[v].is_finite())
        .map(|v| {
            let policy = UpdatePolicy::MstMulticast;
            (
                v,
                evaluate_object(metric, storage_cost, workload, &[v], policy).total(),
            )
        })
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("costs are not NaN"))
        .expect("at least one allowed node");
    vec![best]
}

/// Single-object kernel of [`random_k`].
pub fn random_k_object(storage_cost: &[f64], k: usize, rng: &mut impl Rng) -> Vec<NodeId> {
    let allowed = allowed_nodes(storage_cost);
    assert!(!allowed.is_empty());
    let k = k.clamp(1, allowed.len());
    let mut picked = Vec::with_capacity(k);
    let mut pool = allowed;
    for _ in 0..k {
        let i = rng.random_range(0..pool.len());
        picked.push(pool.swap_remove(i));
    }
    picked.sort_unstable();
    picked
}

/// Single-object kernel of [`greedy_local`].
pub fn greedy_local_object(
    metric: &Metric,
    storage_cost: &[f64],
    workload: &ObjectWorkload,
) -> Vec<NodeId> {
    let allowed = allowed_nodes(storage_cost);
    let cost_of = |set: &[NodeId]| -> f64 {
        evaluate_object(
            metric,
            storage_cost,
            workload,
            set,
            UpdatePolicy::MstMulticast,
        )
        .total()
    };
    let mut current = best_single_object(metric, storage_cost, workload);
    let mut cost = cost_of(&current);
    loop {
        let mut best: Option<(Vec<NodeId>, f64)> = None;
        let consider = |cand: Vec<NodeId>, best: &mut Option<(Vec<NodeId>, f64)>| {
            let c = cost_of(&cand);
            if c + 1e-9 < cost && best.as_ref().is_none_or(|(_, bc)| c < *bc) {
                *best = Some((cand, c));
            }
        };
        for &v in &allowed {
            if current.binary_search(&v).is_err() {
                let mut cand = current.clone();
                let pos = cand.binary_search(&v).unwrap_err();
                cand.insert(pos, v);
                consider(cand, &mut best);
            }
        }
        if current.len() > 1 {
            for i in 0..current.len() {
                let mut cand = current.clone();
                cand.remove(i);
                consider(cand, &mut best);
            }
        }
        for i in 0..current.len() {
            for &v in &allowed {
                if current.binary_search(&v).is_err() {
                    let mut cand = current.clone();
                    cand[i] = v;
                    cand.sort_unstable();
                    consider(cand, &mut best);
                }
            }
        }
        match best {
            Some((cand, c)) => {
                current = cand;
                cost = c;
            }
            None => break,
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmn_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn line_instance() -> Instance {
        // Two read clusters separated by a long gap.
        let positions = [0.0, 1.0, 2.0, 10.0, 11.0];
        let g = generators::path(5, |i| positions[i + 1] - positions[i]);
        let mut inst = Instance::builder(g).uniform_storage_cost(2.0).build();
        let mut w = ObjectWorkload::new(5);
        for v in 0..5 {
            w.reads[v] = 1.0;
        }
        inst.push_object(w);
        inst
    }

    #[test]
    fn full_replication_skips_forbidden() {
        let g = generators::path(4, |_| 1.0);
        let mut cs = vec![1.0; 4];
        cs[2] = f64::INFINITY;
        let mut inst = Instance::builder(g).storage_costs(cs).build();
        inst.push_object(ObjectWorkload::from_sparse(4, [(0, 1.0)], []));
        inst.push_object(ObjectWorkload::from_sparse(4, [(3, 1.0)], []));
        let p = full_replication(&inst);
        assert_eq!(p.num_objects(), 2);
        for x in 0..2 {
            assert_eq!(p.copies(x), &[0, 1, 3]);
        }
    }

    #[test]
    fn best_single_is_a_median() {
        let inst = line_instance();
        let p = best_single_node(&inst);
        // Node 2 minimizes total read distance on this line.
        assert_eq!(p.copies(0), &[2]);
    }

    #[test]
    fn random_k_is_deterministic_per_seed() {
        let g = generators::path(10, |_| 1.0);
        let mut inst = Instance::builder(g).uniform_storage_cost(1.0).build();
        inst.push_object(ObjectWorkload::from_sparse(10, [(0, 1.0)], []));
        let mut r1 = ChaCha8Rng::seed_from_u64(1);
        let mut r2 = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(random_k(&inst, 3, &mut r1), random_k(&inst, 3, &mut r2));
        let p = random_k(&inst, 100, &mut r1);
        assert_eq!(p.copies(0).len(), 10, "k clamps to the allowed count");
    }

    #[test]
    fn greedy_local_improves_on_single_copy_for_read_heavy() {
        let inst = line_instance();
        let single = best_single_node(&inst);
        let local = greedy_local(&inst);
        let cost =
            |p: &Placement| dmn_core::cost::evaluate(&inst, p, UpdatePolicy::MstMulticast).total();
        assert!(cost(&local) <= cost(&single) + 1e-9);
        // Two clusters -> two copies is strictly better here.
        assert!(local.copies(0).len() >= 2, "local: {:?}", local.copies(0));
    }

    #[test]
    fn greedy_local_keeps_single_copy_under_heavy_writes() {
        let g = generators::path(3, |_| 1.0);
        let mut inst = Instance::builder(g).uniform_storage_cost(0.5).build();
        let mut w = ObjectWorkload::new(3);
        w.reads[0] = 1.0;
        w.reads[2] = 1.0;
        w.writes[1] = 50.0;
        inst.push_object(w);
        let local = greedy_local(&inst);
        assert_eq!(local.copies(0).len(), 1, "heavy writes forbid replication");
    }
}
