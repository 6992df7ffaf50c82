//! Cost evaluation: storage + read + update, under pluggable update
//! policies.
//!
//! The paper's model (Section 1.1) charges
//!
//! * `cs(v)` per copy of an object on node `v`,
//! * `ct(h(r), s(r))` per read request `r` (nearest copy), and
//! * `sum over e in E_Ur of multiplicity(e) * ct(e)` per write request,
//!   where the update set `E_Ur` carries the update from the home to every
//!   copy.
//!
//! The *policy* decides the update set:
//!
//! * [`UpdatePolicy::MstMulticast`] — the paper's achievable strategy
//!   (Section 2): a message from the home to the nearest copy, then one
//!   update along a minimum spanning tree of the copy set in the metric.
//!   Claim 2 bounds this within a factor 2 of the optimal update set.
//! * [`UpdatePolicy::ExactSteiner`] — the information-theoretic optimum:
//!   each write pays a minimum Steiner tree connecting its home with all
//!   copies. Exponential in the copy count; reserved for validation-scale
//!   instances (this is the cost the exact OPT solvers use).
//! * [`UpdatePolicy::UnicastStar`] — a naive baseline that updates every
//!   copy with an individual point-to-point message.

use dmn_graph::mst::metric_mst_weight;
use dmn_graph::steiner::dreyfus_wagner;
use dmn_graph::{Graph, Metric, NodeId};

use crate::instance::{Instance, ObjectWorkload};
use crate::parallel::par_map_threads;
use crate::placement::Placement;

/// How write updates are routed to the copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePolicy {
    /// Home → nearest copy, then multicast along the metric MST of the
    /// copy set (the paper's strategy; within 2x of optimal updates).
    MstMulticast,
    /// Per-write minimum Steiner tree over `{home} ∪ copies` — the optimal
    /// update set. Only for small copy sets (exact Steiner is exponential).
    ExactSteiner,
    /// One unicast message from the home to every copy (naive baseline).
    UnicastStar,
}

/// Additive cost decomposition of a placement.
///
/// `write_serve` is the home→nearest-copy leg of writes, which the paper's
/// restricted-cost accounting folds into the read cost; keeping it separate
/// lets experiments report both views.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostBreakdown {
    /// Sum of `cs(v)` over copies.
    pub storage: f64,
    /// Read requests to their nearest copies.
    pub read: f64,
    /// Write requests' home → nearest copy legs (0 under
    /// [`UpdatePolicy::ExactSteiner`], which charges the whole tree).
    pub write_serve: f64,
    /// Multicast/update traffic distributing writes to all copies.
    pub multicast: f64,
}

impl CostBreakdown {
    /// Total cost.
    pub fn total(&self) -> f64 {
        self.storage + self.read + self.write_serve + self.multicast
    }

    /// Update cost in the paper's sense (everything writes pay).
    pub fn update(&self) -> f64 {
        self.write_serve + self.multicast
    }

    /// Read cost in the *restricted* accounting of Section 2, where the
    /// home→nearest-copy legs of writes count as read cost.
    pub fn restricted_read(&self) -> f64 {
        self.read + self.write_serve
    }

    /// Component-wise sum.
    pub fn add(&self, o: &CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            storage: self.storage + o.storage,
            read: self.read + o.read,
            write_serve: self.write_serve + o.write_serve,
            multicast: self.multicast + o.multicast,
        }
    }
}

/// Evaluates the cost of serving `workload` from `copies` under `policy`.
///
/// # Panics
/// Panics when `copies` is empty (no copy to serve requests) or when
/// [`UpdatePolicy::ExactSteiner`] is used with more than 19 copies.
pub fn evaluate_object(
    metric: &Metric,
    storage_cost: &[f64],
    workload: &ObjectWorkload,
    copies: &[NodeId],
    policy: UpdatePolicy,
) -> CostBreakdown {
    assert!(!copies.is_empty(), "an object needs at least one copy");
    let mut out = CostBreakdown::default();
    for &c in copies {
        out.storage += storage_cost[c];
    }
    let w_total = workload.total_writes();
    // Nearest-copy service for reads, and for the write message legs under
    // the multicast policy.
    for v in 0..workload.num_nodes() {
        let fr = workload.reads[v];
        let fw = workload.writes[v];
        if fr == 0.0 && fw == 0.0 {
            continue;
        }
        let (_, d) = metric.nearest_in(v, copies).expect("copies is non-empty");
        out.read += fr * d;
        match policy {
            UpdatePolicy::MstMulticast => out.write_serve += fw * d,
            UpdatePolicy::ExactSteiner => {
                if fw > 0.0 {
                    let mut terms = Vec::with_capacity(copies.len() + 1);
                    terms.extend_from_slice(copies);
                    terms.push(v);
                    out.multicast += fw * dreyfus_wagner(metric, &terms);
                }
            }
            UpdatePolicy::UnicastStar => {
                if fw > 0.0 {
                    let star: f64 = copies.iter().map(|&c| metric.dist(v, c)).sum();
                    out.multicast += fw * star;
                }
            }
        }
    }
    if policy == UpdatePolicy::MstMulticast && w_total > 0.0 {
        out.multicast += w_total * metric_mst_weight(metric, copies);
    }
    out
}

/// Evaluates one object of an instance.
pub fn evaluate_object_of(
    instance: &Instance,
    placement: &Placement,
    x: usize,
    policy: UpdatePolicy,
) -> CostBreakdown {
    evaluate_object(
        instance.metric(),
        &instance.storage_cost,
        &instance.objects[x],
        placement.copies(x),
        policy,
    )
}

/// Evaluates a whole placement: the sum of per-object costs (the model
/// treats objects independently).
pub fn evaluate(instance: &Instance, placement: &Placement, policy: UpdatePolicy) -> CostBreakdown {
    evaluate_threads(instance, placement, policy, Some(1))
}

/// [`evaluate`] with the objects spread over at most `max_threads`
/// workers (`None` = all CPUs). The per-object costs are summed in object
/// order, so every cap returns the same bits.
pub fn evaluate_threads(
    instance: &Instance,
    placement: &Placement,
    policy: UpdatePolicy,
    max_threads: Option<usize>,
) -> CostBreakdown {
    sum_objects(instance, placement, max_threads, |x| {
        evaluate_object_of(instance, placement, x, policy)
    })
}

/// Checks that `placement` fits `instance`, costs every object on up to
/// `max_threads` workers and folds the costs in object order.
fn sum_objects(
    instance: &Instance,
    placement: &Placement,
    max_threads: Option<usize>,
    cost: impl Fn(usize) -> CostBreakdown + Sync,
) -> CostBreakdown {
    assert_eq!(placement.num_objects(), instance.num_objects());
    placement
        .validate(instance.num_nodes())
        .expect("placement must be servable");
    let objects: Vec<usize> = (0..instance.num_objects()).collect();
    par_map_threads(&objects, max_threads, |&x| cost(x))
        .iter()
        .fold(CostBreakdown::default(), |acc, c| acc.add(c))
}

/// Evaluates one object **without any dense closure**: one Dijkstra per
/// copy (`O(|copies| (n + m) log n)`) gives exact distances from every
/// copy, which covers nearest-copy service, the unicast star, and the
/// pairwise copy distances of the MST multicast. This is how the sparse
/// solve path prices 10^4-node placements that a dense `apsp` could not
/// hold in memory.
///
/// Distances are read from the copy's Dijkstra run (`d(c, v)`), so totals
/// can differ from [`evaluate_object`] by floating-point ulps (metric
/// closures are only symmetric up to rounding).
///
/// # Panics
/// Panics when `copies` is empty or `policy` is
/// [`UpdatePolicy::ExactSteiner`] (exact Steiner needs the dense metric).
pub fn evaluate_object_on_graph(
    graph: &Graph,
    storage_cost: &[f64],
    workload: &ObjectWorkload,
    copies: &[NodeId],
    policy: UpdatePolicy,
) -> CostBreakdown {
    assert!(!copies.is_empty(), "an object needs at least one copy");
    assert!(
        policy != UpdatePolicy::ExactSteiner,
        "ExactSteiner evaluation requires the dense metric path"
    );
    let rows: Vec<Vec<f64>> = copies
        .iter()
        .map(|&c| dmn_graph::distances(graph, c))
        .collect();
    let mut out = CostBreakdown::default();
    for &c in copies {
        out.storage += storage_cost[c];
    }
    for v in 0..workload.num_nodes() {
        let fr = workload.reads[v];
        let fw = workload.writes[v];
        if fr == 0.0 && fw == 0.0 {
            continue;
        }
        let d = rows
            .iter()
            .map(|r| r[v])
            .min_by(|a, b| a.partial_cmp(b).expect("distances are not NaN"))
            .expect("copies is non-empty");
        out.read += fr * d;
        match policy {
            UpdatePolicy::MstMulticast => out.write_serve += fw * d,
            UpdatePolicy::UnicastStar => {
                if fw > 0.0 {
                    let star: f64 = rows.iter().map(|r| r[v]).sum();
                    out.multicast += fw * star;
                }
            }
            UpdatePolicy::ExactSteiner => unreachable!("rejected above"),
        }
    }
    let w_total = workload.total_writes();
    if policy == UpdatePolicy::MstMulticast && w_total > 0.0 {
        // Pairwise copy distances from the per-copy rows → a k×k metric.
        let k = copies.len();
        let mut d = vec![0.0; k * k];
        for i in 0..k {
            for (j, &cj) in copies.iter().enumerate() {
                d[i * k + j] = rows[i][cj];
            }
        }
        let local = Metric::from_matrix(k, d);
        let all: Vec<NodeId> = (0..k).collect();
        out.multicast += w_total * metric_mst_weight(&local, &all);
    }
    out
}

/// Evaluates a whole placement graph-side (see
/// [`evaluate_object_on_graph`]): never touches `instance.metric()`, so a
/// sparse solve stays sub-quadratic end to end.
pub fn evaluate_sparse(
    instance: &Instance,
    placement: &Placement,
    policy: UpdatePolicy,
) -> CostBreakdown {
    evaluate_sparse_threads(instance, placement, policy, Some(1))
}

/// [`evaluate_sparse`] with the objects spread over at most
/// `max_threads` workers, summed in object order like
/// [`evaluate_threads`].
pub fn evaluate_sparse_threads(
    instance: &Instance,
    placement: &Placement,
    policy: UpdatePolicy,
    max_threads: Option<usize>,
) -> CostBreakdown {
    sum_objects(instance, placement, max_threads, |x| {
        evaluate_object_on_graph(
            &instance.graph,
            &instance.storage_cost,
            &instance.objects[x],
            placement.copies(x),
            policy,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmn_graph::dijkstra::apsp;
    use dmn_graph::generators;

    /// Path 0-1-2 with unit edges; cs = 5 everywhere.
    fn setup() -> (Metric, Vec<f64>, ObjectWorkload) {
        let g = generators::path(3, |_| 1.0);
        let m = apsp(&g);
        let cs = vec![5.0; 3];
        let mut w = ObjectWorkload::new(3);
        w.reads[0] = 2.0; // 2 reads at node 0
        w.writes[2] = 3.0; // 3 writes at node 2
        (m, cs, w)
    }

    #[test]
    fn single_copy_costs() {
        let (m, cs, w) = setup();
        // Copy only on node 1: reads pay 2*1, writes pay 3*1 to reach the
        // copy; a single copy needs no multicast.
        let c = evaluate_object(&m, &cs, &w, &[1], UpdatePolicy::MstMulticast);
        assert_eq!(c.storage, 5.0);
        assert_eq!(c.read, 2.0);
        assert_eq!(c.write_serve, 3.0);
        assert_eq!(c.multicast, 0.0);
        assert_eq!(c.total(), 10.0);
        assert_eq!(c.restricted_read(), 5.0);
    }

    #[test]
    fn two_copies_mst_multicast() {
        let (m, cs, w) = setup();
        // Copies on 0 and 2: reads/writes are local (distance 0), but every
        // write multicasts over the MST {0,2} of weight 2.
        let c = evaluate_object(&m, &cs, &w, &[0, 2], UpdatePolicy::MstMulticast);
        assert_eq!(c.storage, 10.0);
        assert_eq!(c.read, 0.0);
        assert_eq!(c.write_serve, 0.0);
        assert_eq!(c.multicast, 3.0 * 2.0);
        assert_eq!(c.total(), 16.0);
    }

    #[test]
    fn exact_steiner_per_write() {
        let (m, cs, w) = setup();
        // Copies on 0 and 2; writer sits on a copy: Steiner({2,0,2}) = 2.
        let c = evaluate_object(&m, &cs, &w, &[0, 2], UpdatePolicy::ExactSteiner);
        assert_eq!(c.write_serve, 0.0);
        assert_eq!(c.multicast, 3.0 * 2.0);
        // Writer off-copy: copy on 0 only, writes at 2 pay the 0-2 path.
        let c1 = evaluate_object(&m, &cs, &w, &[0], UpdatePolicy::ExactSteiner);
        assert_eq!(c1.multicast, 3.0 * 2.0);
        assert_eq!(c1.read, 0.0);
    }

    #[test]
    fn unicast_star_is_most_expensive_with_many_copies() {
        let (m, cs, w) = setup();
        let copies = vec![0, 1, 2];
        let mst = evaluate_object(&m, &cs, &w, &copies, UpdatePolicy::MstMulticast);
        let star = evaluate_object(&m, &cs, &w, &copies, UpdatePolicy::UnicastStar);
        // Star from node 2: distances 2 + 1 + 0 = 3 per write vs MST 2.
        assert_eq!(star.multicast, 3.0 * 3.0);
        assert_eq!(mst.multicast, 3.0 * 2.0);
        assert!(star.total() >= mst.total());
    }

    #[test]
    fn steiner_never_exceeds_mst_policy() {
        let g = generators::grid(3, 3, |u, v| ((u + 2 * v) % 3 + 1) as f64);
        let m = apsp(&g);
        let cs = vec![1.0; 9];
        let mut w = ObjectWorkload::new(9);
        w.reads[0] = 1.0;
        w.writes[4] = 2.0;
        w.writes[8] = 1.0;
        for copies in [vec![0], vec![0, 8], vec![1, 3, 7], vec![0, 2, 6, 8]] {
            let e = evaluate_object(&m, &cs, &w, &copies, UpdatePolicy::ExactSteiner);
            let p = evaluate_object(&m, &cs, &w, &copies, UpdatePolicy::MstMulticast);
            assert!(
                e.update() <= p.update() + 1e-9,
                "copies {copies:?}: exact {} > policy {}",
                e.update(),
                p.update()
            );
            // Claim 2: the MST policy is within 2x of optimal updates.
            assert!(p.update() <= 2.0 * e.update() + 1e-9, "copies {copies:?}");
        }
    }

    #[test]
    fn whole_instance_evaluation_sums_objects() {
        let g = generators::path(3, |_| 1.0);
        let mut inst = Instance::builder(g).uniform_storage_cost(5.0).build();
        let mut w1 = ObjectWorkload::new(3);
        w1.reads[0] = 2.0;
        w1.writes[2] = 3.0;
        let w2 = ObjectWorkload::from_sparse(3, [(1, 4.0)], []);
        inst.push_object(w1);
        inst.push_object(w2);
        let p = Placement::from_copy_sets(vec![vec![1], vec![1]]);
        let c = evaluate(&inst, &p, UpdatePolicy::MstMulticast);
        // Object 1: 10 (see single_copy_costs); object 2: storage 5, read 0.
        assert_eq!(c.total(), 15.0);
    }

    #[test]
    #[should_panic(expected = "at least one copy")]
    fn empty_copy_set_panics() {
        let (m, cs, w) = setup();
        evaluate_object(&m, &cs, &w, &[], UpdatePolicy::MstMulticast);
    }

    #[test]
    fn graph_side_evaluation_matches_dense() {
        let g = generators::grid(4, 4, |u, v| 1.0 + ((u + v) % 3) as f64 * 0.5);
        let m = apsp(&g);
        let cs: Vec<f64> = (0..16).map(|v| 2.0 + (v % 4) as f64).collect();
        let mut w = ObjectWorkload::new(16);
        w.reads[1] = 2.0;
        w.reads[14] = 1.5;
        w.writes[7] = 0.75;
        for copies in [vec![0], vec![3, 12], vec![2, 8, 15]] {
            for policy in [UpdatePolicy::MstMulticast, UpdatePolicy::UnicastStar] {
                let dense = evaluate_object(&m, &cs, &w, &copies, policy);
                let sparse = evaluate_object_on_graph(&g, &cs, &w, &copies, policy);
                assert!(
                    (dense.total() - sparse.total()).abs() < 1e-9,
                    "{copies:?} {policy:?}: {} vs {}",
                    dense.total(),
                    sparse.total()
                );
                assert!((dense.storage - sparse.storage).abs() < 1e-12);
                assert!((dense.read - sparse.read).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn evaluate_sparse_sums_whole_instance() {
        let g = generators::path(3, |_| 1.0);
        let mut inst = Instance::builder(g).uniform_storage_cost(5.0).build();
        let mut w1 = ObjectWorkload::new(3);
        w1.reads[0] = 2.0;
        w1.writes[2] = 3.0;
        inst.push_object(w1);
        inst.push_object(ObjectWorkload::from_sparse(3, [(1, 4.0)], []));
        let p = Placement::from_copy_sets(vec![vec![1], vec![1]]);
        let c = evaluate_sparse(&inst, &p, UpdatePolicy::MstMulticast);
        assert_eq!(c.total(), 15.0);
        assert_eq!(inst.metric_build_seconds(), 0.0, "dense closure untouched");
    }

    #[test]
    fn every_thread_cap_sums_the_same_bits() {
        let g = generators::grid(4, 4, |u, v| 1.0 + ((u + v) % 3) as f64 * 0.3);
        let mut inst = Instance::builder(g).uniform_storage_cost(2.5).build();
        let mut sets = Vec::new();
        for x in 0..7 {
            let reads = (0..16).map(|v| (v, 0.1 * ((v * 7 + x) % 5) as f64));
            inst.push_object(ObjectWorkload::from_sparse(16, reads, [(x, 0.7)]));
            sets.push(vec![x, 15 - x]);
        }
        let p = Placement::from_copy_sets(sets);
        let bits =
            |c: CostBreakdown| [c.storage, c.read, c.write_serve, c.multicast].map(f64::to_bits);
        for policy in [UpdatePolicy::MstMulticast, UpdatePolicy::UnicastStar] {
            let dense = bits(evaluate(&inst, &p, policy));
            let sparse = bits(evaluate_sparse(&inst, &p, policy));
            for cap in [Some(1), Some(2), Some(3), None] {
                assert_eq!(bits(evaluate_threads(&inst, &p, policy, cap)), dense);
                assert_eq!(
                    bits(evaluate_sparse_threads(&inst, &p, policy, cap)),
                    sparse
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "dense metric path")]
    fn graph_side_evaluation_rejects_exact_steiner() {
        let g = generators::path(3, |_| 1.0);
        let mut w = ObjectWorkload::new(3);
        w.reads[0] = 1.0;
        evaluate_object_on_graph(&g, &[1.0; 3], &w, &[0], UpdatePolicy::ExactSteiner);
    }
}
