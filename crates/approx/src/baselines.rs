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

use dmn_core::cost::{evaluate_object, CostBreakdown, UpdatePolicy};
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
    vec![best_single_with_cost(metric, storage_cost, workload).0]
}

/// The 1-copy optimum of one object and its cost under
/// [`UpdatePolicy::MstMulticast`]: the first allowed node of least total
/// cost, with the [`evaluate_object`] breakdown of `[node]` bit for bit.
///
/// One row-major sweep over the clients in ascending order prices every
/// node at once: client `u` adds `fr·d(u, v)` to `v`'s read cost and
/// `fw·d(u, v)` to its write legs, in the order `evaluate_object` adds
/// them for the copy set `[v]`. A single copy's MST weighs nothing.
///
/// # Panics
/// Panics when no node may hold a copy.
fn best_single_with_cost(
    metric: &Metric,
    storage_cost: &[f64],
    workload: &ObjectWorkload,
) -> (NodeId, CostBreakdown) {
    let n = metric.len();
    let (mut read, mut write_serve) = (vec![0.0; n], vec![0.0; n]);
    for u in 0..workload.num_nodes() {
        let (fr, fw) = (workload.reads[u], workload.writes[u]);
        if fr == 0.0 && fw == 0.0 {
            continue;
        }
        let row = metric.row(u);
        for ((r, s), &d) in read.iter_mut().zip(&mut write_serve).zip(row) {
            *r += fr * d;
            *s += fw * d;
        }
    }
    // `min_by` keeps the first minimum.
    (0..n)
        .filter(|&v| storage_cost[v].is_finite())
        .map(|v| {
            let mut cost = CostBreakdown::default();
            cost.storage += storage_cost[v];
            cost.read = read[v];
            cost.write_serve = write_serve[v];
            (v, cost)
        })
        .min_by(|a, b| {
            a.1.total()
                .partial_cmp(&b.1.total())
                .expect("costs are not NaN")
        })
        .expect("at least one allowed node")
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
    fn best_single_sweep_matches_the_per_node_evaluation_bitwise() {
        for seed in 0..60u64 {
            let mut r = ChaCha8Rng::seed_from_u64(seed);
            let n = r.random_range(2..30);
            // Unit weights and whole masses on every third seed, so that
            // candidates tie and the first minimum must win.
            let unit = seed % 3 == 0;
            let weights = if unit { (1.0, 1.0) } else { (0.5, 7.0) };
            let g = generators::gnp_connected(n, 0.2, weights, &mut r);
            let mass = |r: &mut ChaCha8Rng| {
                if unit {
                    r.random_range(1..3u32) as f64
                } else {
                    r.random_range(0.1..3.0)
                }
            };
            let m = dmn_graph::dijkstra::apsp(&g);
            // Forbidden nodes, but never all of them.
            let mut cs: Vec<f64> = (0..n)
                .map(|_| {
                    if r.random_bool(0.3) {
                        f64::INFINITY
                    } else if unit {
                        1.0
                    } else {
                        r.random_range(0.0..5.0)
                    }
                })
                .collect();
            cs[r.random_range(0..n)] = 1.0;
            // Nodes that only read, only write, both or neither; every
            // other object has no writes at all.
            let mut w = ObjectWorkload::new(n);
            for v in 0..n {
                match r.random_range(0..4u32) {
                    0 => w.reads[v] = mass(&mut r),
                    1 if seed % 2 == 0 => w.writes[v] = mass(&mut r),
                    2 => {
                        w.reads[v] = mass(&mut r);
                        if seed % 2 == 0 {
                            w.writes[v] = mass(&mut r);
                        }
                    }
                    _ => {}
                }
            }
            w.reads[r.random_range(0..n)] += 1.0;
            // The golden: one `evaluate_object` per allowed node.
            let policy = UpdatePolicy::MstMulticast;
            let want = (0..n)
                .filter(|&v| cs[v].is_finite())
                .map(|v| (v, evaluate_object(&m, &cs, &w, &[v], policy)))
                .min_by(|a, b| a.1.total().partial_cmp(&b.1.total()).unwrap())
                .unwrap();
            let got = best_single_with_cost(&m, &cs, &w);
            assert_eq!(got.0, want.0, "seed {seed}");
            let bits = |c: &CostBreakdown| {
                [c.storage, c.read, c.write_serve, c.multicast, c.total()].map(f64::to_bits)
            };
            assert_eq!(
                bits(&got.1),
                bits(&want.1),
                "seed {seed}: {:?} vs {:?}",
                got.1,
                want.1
            );
            assert_eq!(best_single_object(&m, &cs, &w), vec![want.0]);
        }
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
