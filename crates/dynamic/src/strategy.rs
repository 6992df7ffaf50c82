//! Online placement strategies.
//!
//! A strategy owns the copy sets and reacts to each request *before* it is
//! served: it may replicate the object to new nodes (paying the transfer
//! distance from the nearest existing copy) and invalidate copies (free —
//! dropping data costs nothing in the model). The simulator then charges
//! the serve cost under the resulting placement.

use dmn_graph::{Metric, NodeId};

use crate::stream::{Request, RequestKind};

/// Reconfiguration decided by a strategy for one request.
#[derive(Debug, Clone, Default)]
pub struct Reconfiguration {
    /// Nodes receiving a new copy (transfer cost = distance from the
    /// nearest pre-existing copy each).
    pub replicate_to: Vec<NodeId>,
    /// Nodes whose copy is dropped (free).
    pub invalidate: Vec<NodeId>,
}

/// An online data management strategy.
pub trait DynamicStrategy {
    /// Called per request before serving; returns the reconfiguration to
    /// apply. `copies` is the current copy set of the requested object.
    fn on_request(&mut self, req: &Request, copies: &[NodeId], metric: &Metric) -> Reconfiguration;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Never reconfigures: serves everything from the initial placement.
#[derive(Debug, Clone)]
pub struct FixedStrategy;

impl DynamicStrategy for FixedStrategy {
    fn on_request(&mut self, _: &Request, _: &[NodeId], _: &Metric) -> Reconfiguration {
        Reconfiguration::default()
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

/// The classic count-based threshold scheme (the mechanism inside the
/// competitive tree/network strategies of the paper's related work):
///
/// * a node that accumulates `threshold` reads of an object since the last
///   write replicates it locally (paying one transfer), and
/// * a write invalidates every copy except the one nearest to the writer
///   (then pays the update to the survivors — which is just that one).
///
/// With `threshold ~ replication cost / read benefit` this is 3-competitive
/// against an adversary on a single link and constant-competitive on trees.
#[derive(Debug, Clone)]
pub struct CountingStrategy {
    threshold: f64,
    /// read counters per (object, node), reset on writes.
    counters: Vec<Vec<f64>>,
}

impl CountingStrategy {
    /// Creates the strategy for `num_objects` objects over `n` nodes.
    pub fn new(num_objects: usize, n: usize, threshold: f64) -> Self {
        assert!(threshold > 0.0);
        CountingStrategy {
            threshold,
            counters: vec![vec![0.0; n]; num_objects],
        }
    }
}

impl DynamicStrategy for CountingStrategy {
    fn on_request(&mut self, req: &Request, copies: &[NodeId], metric: &Metric) -> Reconfiguration {
        let mut out = Reconfiguration::default();
        match req.kind {
            RequestKind::Read => {
                if copies.binary_search(&req.node).is_ok() {
                    return out; // already local
                }
                let c = &mut self.counters[req.object][req.node];
                *c += 1.0;
                if *c >= self.threshold {
                    *c = 0.0;
                    out.replicate_to.push(req.node);
                }
            }
            RequestKind::Write => {
                // Reset all read progress for this object and collapse the
                // copy set to the copy nearest the writer.
                for c in &mut self.counters[req.object] {
                    *c = 0.0;
                }
                if copies.len() > 1 {
                    // copies.len() > 1 guarantees nearest_in succeeds; a
                    // defensive None (degenerate input) is a no-op, not a
                    // panic.
                    if let Some((keep, _)) = metric.nearest_in(req.node, copies) {
                        out.invalidate = copies.iter().copied().filter(|&v| v != keep).collect();
                    }
                }
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "counting"
    }
}

/// Rent-to-buy (ski-rental) replication.
///
/// The classic rent-or-buy argument applied per (object, node): a node
/// without a copy "rents" by paying the serve distance per remote request;
/// once the accumulated rent matches the "buy" price — the transfer
/// distance plus the storage rent the new copy will owe for the remainder
/// of the stream — it replicates. Symmetrically, a held copy that has
/// accrued more idle storage rent since its last local request than it
/// would cost to re-fetch is dropped. Both rules are the 2-competitive
/// break-even policy of the ski-rental problem.
#[derive(Debug, Clone)]
pub struct RentToBuyStrategy {
    storage_cost: Vec<f64>,
    steps: f64,
    /// Accumulated remote serve cost per (object, node).
    paid: Vec<Vec<f64>>,
    /// Accumulated idle storage rent per (object, node) holding a copy.
    idle: Vec<Vec<f64>>,
    /// Global step of the last request seen per object.
    last_seen: Vec<usize>,
    clock: usize,
}

impl RentToBuyStrategy {
    /// Creates the strategy for `num_objects` objects over the network's
    /// storage-cost vector; `stream_len` is the stream length the rent is
    /// pro-rated over (matching the simulator's accounting).
    pub fn new(num_objects: usize, storage_cost: &[f64], stream_len: usize) -> Self {
        let n = storage_cost.len();
        RentToBuyStrategy {
            storage_cost: storage_cost.to_vec(),
            steps: stream_len.max(1) as f64,
            paid: vec![vec![0.0; n]; num_objects],
            idle: vec![vec![0.0; n]; num_objects],
            last_seen: vec![0; num_objects],
            clock: 0,
        }
    }
}

impl DynamicStrategy for RentToBuyStrategy {
    fn on_request(&mut self, req: &Request, copies: &[NodeId], metric: &Metric) -> Reconfiguration {
        let mut out = Reconfiguration::default();
        self.clock += 1;
        let x = req.object;
        // Idle rent accrued by this object's copies since its last request.
        let elapsed = (self.clock - self.last_seen[x]) as f64;
        self.last_seen[x] = self.clock;
        for &v in copies {
            self.idle[x][v] += elapsed * self.storage_cost[v] / self.steps;
        }
        if copies.binary_search(&req.node).is_ok() {
            // Local service: the copy earned its rent.
            self.idle[x][req.node] = 0.0;
        } else if req.kind == RequestKind::Read {
            // Only reads accumulate toward a buy: a new copy serves reads
            // locally but makes every write *more* expensive (one more
            // multicast leaf), so remote writes never justify one. An
            // empty copy set (degenerate input) is a no-op.
            let Some((_, d)) = metric.nearest_in(req.node, copies) else {
                return out;
            };
            let paid = &mut self.paid[x][req.node];
            *paid += d;
            // Buy price: ship the object + rent owed for the rest of the
            // stream.
            let remaining = (self.steps - self.clock as f64).max(0.0) / self.steps;
            if *paid >= d + self.storage_cost[req.node] * remaining {
                *paid = 0.0;
                self.idle[x][req.node] = 0.0;
                out.replicate_to.push(req.node);
            }
        }
        // Drop copies whose idle rent exceeds their re-fetch distance —
        // but never the last copy, and never one serving the requester.
        let mut kept = copies.len() + out.replicate_to.len();
        for &v in copies {
            if kept <= 1 || v == req.node {
                continue;
            }
            let refetch = copies
                .iter()
                .chain(out.replicate_to.iter())
                .filter(|&&u| u != v)
                .map(|&u| metric.dist(v, u))
                .fold(f64::INFINITY, f64::min);
            if self.idle[x][v] >= refetch {
                self.idle[x][v] = 0.0;
                out.invalidate.push(v);
                kept -= 1;
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "rent-to-buy"
    }
}

/// Migration-enabled counting: the count-based replication rule of
/// [`CountingStrategy`] under a hard copy budget. When a node earns a
/// replica while the budget is exhausted, the copy farthest from the new
/// reader *migrates* there (replicate + invalidate in one step) instead of
/// growing the set — the data-migration paradigm grafted onto the
/// allocation strategy. Writes collapse to the copy nearest the writer,
/// exactly like plain counting.
#[derive(Debug, Clone)]
pub struct MigratoryCountingStrategy {
    threshold: f64,
    max_copies: usize,
    counters: Vec<Vec<f64>>,
}

impl MigratoryCountingStrategy {
    /// Creates the strategy for `num_objects` objects over `n` nodes with
    /// at most `max_copies` copies per object.
    pub fn new(num_objects: usize, n: usize, threshold: f64, max_copies: usize) -> Self {
        assert!(threshold > 0.0 && max_copies >= 1);
        MigratoryCountingStrategy {
            threshold,
            max_copies,
            counters: vec![vec![0.0; n]; num_objects],
        }
    }
}

impl DynamicStrategy for MigratoryCountingStrategy {
    fn on_request(&mut self, req: &Request, copies: &[NodeId], metric: &Metric) -> Reconfiguration {
        let mut out = Reconfiguration::default();
        match req.kind {
            RequestKind::Read => {
                if copies.binary_search(&req.node).is_ok() {
                    return out;
                }
                let c = &mut self.counters[req.object][req.node];
                *c += 1.0;
                if *c >= self.threshold {
                    *c = 0.0;
                    out.replicate_to.push(req.node);
                    if copies.len() >= self.max_copies {
                        // Budget exhausted: the farthest copy migrates
                        // (total_cmp tolerates NaN distances; an empty
                        // set is a plain replication).
                        if let Some(far) = copies.iter().copied().max_by(|&a, &b| {
                            metric
                                .dist(req.node, a)
                                .total_cmp(&metric.dist(req.node, b))
                        }) {
                            out.invalidate.push(far);
                        }
                    }
                }
            }
            RequestKind::Write => {
                for c in &mut self.counters[req.object] {
                    *c = 0.0;
                }
                if copies.len() > 1 {
                    if let Some((keep, _)) = metric.nearest_in(req.node, copies) {
                        out.invalidate = copies.iter().copied().filter(|&v| v != keep).collect();
                    }
                }
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "counting+migrate"
    }
}

/// The standard strategy zoo compared by the harness, the `sweep` binary,
/// and E11: every online strategy, constructed with its conventional
/// parameters for `num_objects` objects on the given network.
pub fn standard_zoo(
    num_objects: usize,
    storage_cost: &[f64],
    stream_len: usize,
) -> Vec<Box<dyn DynamicStrategy>> {
    let n = storage_cost.len();
    vec![
        Box::new(FixedStrategy),
        Box::new(CountingStrategy::new(num_objects, n, 4.0)),
        Box::new(crate::migration::MigrationStrategy::new(
            num_objects,
            n,
            3.0,
        )),
        Box::new(RentToBuyStrategy::new(
            num_objects,
            storage_cost,
            stream_len,
        )),
        Box::new(MigratoryCountingStrategy::new(num_objects, n, 4.0, 3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_replicates_after_threshold_reads() {
        let m = Metric::from_line(&[0.0, 5.0]);
        let mut s = CountingStrategy::new(1, 2, 3.0);
        let read = Request {
            node: 1,
            object: 0,
            kind: RequestKind::Read,
        };
        let copies = vec![0];
        assert!(s.on_request(&read, &copies, &m).replicate_to.is_empty());
        assert!(s.on_request(&read, &copies, &m).replicate_to.is_empty());
        let r3 = s.on_request(&read, &copies, &m);
        assert_eq!(r3.replicate_to, vec![1]);
    }

    #[test]
    fn counting_write_invalidates_to_single_copy() {
        let m = Metric::from_line(&[0.0, 1.0, 9.0]);
        let mut s = CountingStrategy::new(1, 3, 2.0);
        let write = Request {
            node: 2,
            object: 0,
            kind: RequestKind::Write,
        };
        let r = s.on_request(&write, &[0, 1], &m);
        // Keeps node 1 (nearest to writer 2), drops node 0.
        assert_eq!(r.invalidate, vec![0]);
        assert!(r.replicate_to.is_empty());
    }

    #[test]
    fn counting_write_resets_read_progress() {
        let m = Metric::from_line(&[0.0, 5.0]);
        let mut s = CountingStrategy::new(1, 2, 2.0);
        let read = Request {
            node: 1,
            object: 0,
            kind: RequestKind::Read,
        };
        let write = Request {
            node: 0,
            object: 0,
            kind: RequestKind::Write,
        };
        let copies = vec![0];
        s.on_request(&read, &copies, &m);
        s.on_request(&write, &copies, &m);
        // Counter was reset: the next read must not trigger replication.
        assert!(s.on_request(&read, &copies, &m).replicate_to.is_empty());
        assert_eq!(s.on_request(&read, &copies, &m).replicate_to, vec![1]);
    }

    #[test]
    fn rent_to_buy_replicates_after_break_even() {
        let m = Metric::from_line(&[0.0, 5.0]);
        // Buy price at node 1 ≈ transfer 5 + storage 5 (full stream left),
        // so one remote read (paid 5) rents and the second (paid 10) buys.
        let mut s = RentToBuyStrategy::new(1, &[0.0, 5.0], 1000);
        let read = Request {
            node: 1,
            object: 0,
            kind: RequestKind::Read,
        };
        let copies = vec![0];
        assert!(s.on_request(&read, &copies, &m).replicate_to.is_empty());
        let r = s.on_request(&read, &copies, &m);
        assert_eq!(r.replicate_to, vec![1]);
    }

    #[test]
    fn rent_to_buy_drops_idle_copies_but_never_the_last() {
        let m = Metric::from_line(&[0.0, 2.0]);
        // Heavy storage rent: a copy at node 1 idles while node 0 reads.
        let mut s = RentToBuyStrategy::new(1, &[0.0, 50.0], 10);
        let read0 = Request {
            node: 0,
            object: 0,
            kind: RequestKind::Read,
        };
        let mut dropped = false;
        for _ in 0..10 {
            let r = s.on_request(&read0, &[0, 1], &m);
            assert!(!r.invalidate.contains(&0), "never drops the serving copy");
            dropped |= r.invalidate.contains(&1);
        }
        assert!(dropped, "idle expensive copy must be dropped");
        // The reconfiguration never leaves the object copyless, no matter
        // how idle a lone copy gets.
        let mut s = RentToBuyStrategy::new(1, &[50.0, 50.0], 10);
        for _ in 0..10 {
            let r = s.on_request(&read0, &[1], &m);
            assert!(1 + r.replicate_to.len() > r.invalidate.len());
        }
    }

    #[test]
    fn migratory_counting_respects_the_copy_budget() {
        let m = Metric::from_line(&[0.0, 1.0, 2.0, 3.0]);
        let mut s = MigratoryCountingStrategy::new(1, 4, 1.0, 2);
        let read = |node| Request {
            node,
            object: 0,
            kind: RequestKind::Read,
        };
        // Budget 2 with copies {0, 1}: a replica earned at 3 migrates the
        // farthest copy (0) there.
        let r = s.on_request(&read(3), &[0, 1], &m);
        assert_eq!(r.replicate_to, vec![3]);
        assert_eq!(r.invalidate, vec![0]);
        // Below budget: plain replication, no migration.
        let r = s.on_request(&read(2), &[0], &m);
        assert_eq!(r.replicate_to, vec![2]);
        assert!(r.invalidate.is_empty());
    }

    #[test]
    fn standard_zoo_names_are_unique_and_stable() {
        let zoo = standard_zoo(2, &[1.0; 5], 100);
        let names: Vec<_> = zoo.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "fixed",
                "counting",
                "migration",
                "rent-to-buy",
                "counting+migrate"
            ]
        );
    }

    #[test]
    fn local_reads_do_not_count() {
        let m = Metric::from_line(&[0.0, 5.0]);
        let mut s = CountingStrategy::new(1, 2, 1.0);
        let read = Request {
            node: 0,
            object: 0,
            kind: RequestKind::Read,
        };
        let r = s.on_request(&read, &[0], &m);
        assert!(r.replicate_to.is_empty() && r.invalidate.is_empty());
    }
}
