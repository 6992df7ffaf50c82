//! Add/drop/swap local search for UFL, with an incremental fast path.
//!
//! The heuristic analyzed by Korupolu, Plaxton & Rajaraman (SODA 1998, the
//! paper's reference 8): starting from any solution, repeatedly apply the
//! best of *add a facility*, *drop a facility*, or *swap one in for one
//! out* while the improvement is significant. With a relative improvement
//! threshold `ε`, the number of iterations is polynomial and the result is
//! a `5 + O(ε)` approximation.
//!
//! # The incremental fast path
//!
//! The textbook formulation re-prices every candidate from scratch: an
//! `O(|clients| · |open|)` nearest-copy scan per candidate and
//! `O(|sites|² · |clients| · |open|)` per iteration (the seed
//! implementation, kept verbatim as [`local_search_reference`]). The fast
//! path ([`FlWorkspace`]) instead maintains, per client `v`, the nearest
//! and second-nearest *open* facility — Whitaker's assignment tables —
//! written `d₁(v)` and `d₂(v)` below. A client's share of any candidate's
//! cost is then one lookup and at most one comparison:
//!
//! * **add `f`** — client `v` pays `min(d₁(v), ct(v, f))`;
//! * **drop `g`** — `v` pays `d₂(v)` if its nearest is `g`, else `d₁(v)`
//!   (the second-nearest table is exactly "who serves me if my facility
//!   closes");
//! * **swap `g → f`** — the two compose: `v` pays `min(alt(v), ct(v, f))`
//!   where `alt(v) = d₂(v)` if `v`'s nearest is `g`, else `d₁(v)`.
//!
//! Each drop is priced by its own `O(|clients|)` pass. Adds and swaps are
//! priced together, once per iteration, in a table with one column per
//! node `f`: row 0 holds the adds, and row `1 + i` the swaps that close
//! `open[i]`. Every entry starts at its candidate's opening cost; one
//! sweep over the clients in ascending order then adds client `v`'s share
//! to every entry, reading `ct(v, f)` contiguously from `v`'s own metric
//! row. `alt(v)` is fixed along a row, so the inner loop over `f` carries
//! no dependency and vectorizes, yet each entry still receives exactly
//! the floating-point operations of a single-candidate pass, in the same
//! order (Rust never contracts `a * b + c` into a fused multiply-add, so
//! every vector lane rounds like the scalar loop). The table holds
//! `(|open| + 1) · n` prices, at most the `n²` of the metric itself.
//!
//! Candidate costs are accumulated in the *same floating-point order* as
//! the reference (`opening cost in sorted facility order, then
//! demand-weighted distances in ascending client order`), distances are
//! read from the client's row like the reference's `nearest_in` (`apsp`
//! matrices are only symmetric up to an ulp, so the transposed `ct(f, v)`
//! could flip a strict comparison), candidates are enumerated in the same
//! order with the same strict-improvement tie-breaking, and the accepted
//! move's cost is that exact candidate cost — so the fast path's
//! trajectory, open set, and reported cost are bit-identical to the
//! reference (pinned by `tests/incremental.rs`, from cold and warm
//! starts). The assignment tables are touched only when a move is
//! *accepted*: an add updates them in `O(|clients|)`, a drop/swap rescans
//! only the clients that pointed at the closed facility.

use dmn_graph::NodeId;

use crate::instance::{FlInstance, FlSolution};

/// Tuning knobs for [`local_search`].
#[derive(Debug, Clone)]
pub struct LocalSearchConfig {
    /// A move must improve the current cost by more than
    /// `min_relative_gain * cost` to be taken (guarantees polynomially many
    /// iterations).
    pub min_relative_gain: f64,
    /// Hard cap on iterations (defense in depth; rarely reached).
    pub max_iterations: usize,
}

impl Default for LocalSearchConfig {
    fn default() -> Self {
        LocalSearchConfig {
            min_relative_gain: 1e-6,
            max_iterations: 10_000,
        }
    }
}

/// Counters of one local-search run (how much work the search did).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Accepted moves (= iterations that improved the solution).
    pub moves: usize,
    /// Candidate moves priced across all iterations.
    pub candidates: usize,
}

impl SearchStats {
    /// Component-wise sum.
    pub fn add(&self, o: &SearchStats) -> SearchStats {
        SearchStats {
            moves: self.moves + o.moves,
            candidates: self.candidates + o.candidates,
        }
    }
}

/// A candidate move over the current open set.
#[derive(Debug, Clone, Copy)]
enum Move {
    /// Open facility `f`.
    Add(NodeId),
    /// Close the facility at position `i` of the sorted open set.
    Drop(usize),
    /// Close position `i`, open facility `f`.
    Swap(usize, NodeId),
}

const NO_FACILITY: NodeId = usize::MAX;

/// Reusable state for the incremental local search: the per-client
/// nearest / second-nearest assignment tables, the current iteration's
/// add and swap prices, and client/site scratch.
///
/// One workspace serves any number of consecutive solves (the hot path
/// reuses one per worker thread across all objects); buffers are resized,
/// never reallocated, when sizes repeat.
#[derive(Debug, Default)]
pub struct FlWorkspace {
    /// Nearest open facility per node (valid for clients).
    nearest: Vec<NodeId>,
    /// Distance to the nearest open facility.
    near_d: Vec<f64>,
    /// Second-nearest open facility per node.
    second: Vec<NodeId>,
    /// Distance to the second-nearest open facility.
    second_d: Vec<f64>,
    /// Positive-demand nodes of the current instance.
    clients: Vec<NodeId>,
    /// Finite-opening-cost nodes of the current instance.
    sites: Vec<NodeId>,
    /// Add and swap prices of the current iteration, `n` per row: row 0,
    /// column `f` is the cost of `open + {f}`; row `1 + i`, column `f` the
    /// cost of `open - {open[i]} + {f}`. Open and forbidden columns are
    /// filled but never read.
    prices: Vec<f64>,
    /// Counters of the most recent run.
    stats: SearchStats,
}

impl FlWorkspace {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        FlWorkspace::default()
    }

    /// Counters of the most recent `local_search*` call on this workspace.
    pub fn last_stats(&self) -> SearchStats {
        self.stats
    }

    /// Incremental add/drop/swap local search from the best
    /// single-facility start (the classical heuristic; bit-identical
    /// results to [`local_search_reference`], see the module docs).
    pub fn local_search(&mut self, inst: &FlInstance, cfg: &LocalSearchConfig) -> FlSolution {
        self.prepare(inst);
        let start = best_single(inst, &self.sites);
        self.search(inst, vec![start], cfg)
    }

    /// Incremental local search seeded from an arbitrary facility set
    /// (sorted + deduplicated internally; all sites must be allowed).
    ///
    /// # Panics
    /// Panics when `initial` is empty or contains a forbidden
    /// (infinite-opening-cost) site.
    pub fn local_search_from(
        &mut self,
        inst: &FlInstance,
        initial: &[NodeId],
        cfg: &LocalSearchConfig,
    ) -> FlSolution {
        self.prepare(inst);
        let mut open: Vec<NodeId> = initial.to_vec();
        open.sort_unstable();
        open.dedup();
        assert!(!open.is_empty(), "warm start needs at least one facility");
        assert!(
            open.iter().all(|&f| inst.open_cost[f].is_finite()),
            "warm start contains a forbidden site"
        );
        self.search(inst, open, cfg)
    }

    /// Refreshes the client/site lists for `inst` and clears the counters.
    fn prepare(&mut self, inst: &FlInstance) {
        self.stats = SearchStats::default();
        self.clients.clear();
        self.sites.clear();
        for v in 0..inst.len() {
            if inst.demand[v] > 0.0 {
                self.clients.push(v);
            }
            if inst.open_cost[v].is_finite() {
                self.sites.push(v);
            }
        }
    }

    /// The search loop. Enumeration order, thresholding, and tie-breaking
    /// mirror [`local_search_reference`] move for move.
    fn search(
        &mut self,
        inst: &FlInstance,
        mut open: Vec<NodeId>,
        cfg: &LocalSearchConfig,
    ) -> FlSolution {
        let n = inst.len();
        let mut cost = inst.total_cost(&open);
        self.rebuild_tables(inst, &open);
        for _ in 0..cfg.max_iterations {
            self.fill_prices(inst, &open);
            let threshold = cost * (1.0 - cfg.min_relative_gain);
            let mut best: Option<(Move, f64)> = None;
            let mut candidates = 0usize;
            let consider = |mv: Move, c: f64, best: &mut Option<(Move, f64)>| {
                if c < threshold && best.as_ref().is_none_or(|(_, bc)| c < *bc) {
                    *best = Some((mv, c));
                }
            };
            // Adds.
            for &f in &self.sites {
                if open.binary_search(&f).is_err() {
                    candidates += 1;
                    consider(Move::Add(f), self.prices[f], &mut best);
                }
            }
            // Drops.
            if open.len() > 1 {
                for i in 0..open.len() {
                    candidates += 1;
                    let c = self.price_drop(inst, &open, i);
                    consider(Move::Drop(i), c, &mut best);
                }
            }
            // Swaps.
            for i in 0..open.len() {
                for &f in &self.sites {
                    if open.binary_search(&f).is_err() {
                        candidates += 1;
                        let c = self.prices[(i + 1) * n + f];
                        consider(Move::Swap(i, f), c, &mut best);
                    }
                }
            }
            self.stats.candidates += candidates;
            match best {
                Some((mv, c)) => {
                    self.apply(inst, &mut open, mv);
                    cost = c;
                    self.stats.moves += 1;
                }
                None => break,
            }
        }
        FlSolution { open, cost }
    }

    /// Fills `prices` with the exact cost of every add and swap over
    /// `open`: one sweep over the clients in ascending order, each adding
    /// its share to every entry (see the module docs).
    fn fill_prices(&mut self, inst: &FlInstance, open: &[NodeId]) {
        let n = inst.len();
        self.prices.clear();
        if open.len() == self.sites.len() {
            // Every site is open: no add or swap exists.
            return;
        }
        for skip in std::iter::once(None).chain((0..open.len()).map(Some)) {
            self.prices
                .extend((0..n).map(|f| opening_cost_edited(inst, open, skip, Some(f))));
        }
        for &v in &self.clients {
            let (w, dist) = (inst.demand[v], inst.metric.row(v));
            let (g, d1, d2) = (self.nearest[v], self.near_d[v], self.second_d[v]);
            for (k, row) in self.prices.chunks_exact_mut(n).enumerate() {
                let alt = if k > 0 && open[k - 1] == g { d2 } else { d1 };
                for (c, &d) in row.iter_mut().zip(dist) {
                    *c += w * alt.min(d);
                }
            }
        }
    }

    /// Exact cost of `open - {open[i]}` via the second-nearest table.
    fn price_drop(&self, inst: &FlInstance, open: &[NodeId], i: usize) -> f64 {
        let g = open[i];
        let mut c = opening_cost_edited(inst, open, Some(i), None);
        for &v in &self.clients {
            let d = if self.nearest[v] == g {
                self.second_d[v]
            } else {
                self.near_d[v]
            };
            c += inst.demand[v] * d;
        }
        c
    }

    /// Applies an accepted move to `open` and patches the assignment
    /// tables incrementally.
    fn apply(&mut self, inst: &FlInstance, open: &mut Vec<NodeId>, mv: Move) {
        match mv {
            Move::Add(f) => {
                let pos = open.binary_search(&f).expect_err("f was closed");
                open.insert(pos, f);
                self.absorb_open(inst, f);
            }
            Move::Drop(i) => {
                let g = open.remove(i);
                for ci in 0..self.clients.len() {
                    let v = self.clients[ci];
                    if self.nearest[v] == g || self.second[v] == g {
                        self.rescan(inst, open, v);
                    }
                }
            }
            Move::Swap(i, f) => {
                let g = open.remove(i);
                let pos = open.binary_search(&f).expect_err("f was closed");
                open.insert(pos, f);
                for ci in 0..self.clients.len() {
                    let v = self.clients[ci];
                    if self.nearest[v] == g || self.second[v] == g {
                        self.rescan(inst, open, v);
                    } else {
                        self.absorb_open_for(inst, v, f);
                    }
                }
            }
        }
    }

    /// Folds a newly opened facility into every client's tables: O(|clients|).
    fn absorb_open(&mut self, inst: &FlInstance, f: NodeId) {
        for ci in 0..self.clients.len() {
            self.absorb_open_for(inst, self.clients[ci], f);
        }
    }

    /// Folds a newly opened facility into one client's tables: O(1).
    fn absorb_open_for(&mut self, inst: &FlInstance, v: NodeId, f: NodeId) {
        let d = inst.metric.dist(v, f);
        if d < self.near_d[v] {
            self.second[v] = self.nearest[v];
            self.second_d[v] = self.near_d[v];
            self.nearest[v] = f;
            self.near_d[v] = d;
        } else if d < self.second_d[v] {
            self.second[v] = f;
            self.second_d[v] = d;
        }
    }

    /// Recomputes one client's two nearest open facilities from scratch.
    fn rescan(&mut self, inst: &FlInstance, open: &[NodeId], v: NodeId) {
        let row = inst.metric.row(v);
        let (mut n1, mut d1) = (NO_FACILITY, f64::INFINITY);
        let (mut n2, mut d2) = (NO_FACILITY, f64::INFINITY);
        for &g in open {
            let d = row[g];
            if d < d1 {
                (n2, d2) = (n1, d1);
                (n1, d1) = (g, d);
            } else if d < d2 {
                (n2, d2) = (g, d);
            }
        }
        self.nearest[v] = n1;
        self.near_d[v] = d1;
        self.second[v] = n2;
        self.second_d[v] = d2;
    }

    /// Sizes the tables for `inst` and rescans every client.
    fn rebuild_tables(&mut self, inst: &FlInstance, open: &[NodeId]) {
        let n = inst.len();
        self.nearest.clear();
        self.nearest.resize(n, NO_FACILITY);
        self.near_d.clear();
        self.near_d.resize(n, f64::INFINITY);
        self.second.clear();
        self.second.resize(n, NO_FACILITY);
        self.second_d.clear();
        self.second_d.resize(n, f64::INFINITY);
        for ci in 0..self.clients.len() {
            self.rescan(inst, open, self.clients[ci]);
        }
    }
}

/// Opening cost of `open` with position `skip` removed and facility `add`
/// inserted, summed in ascending facility order — the same floating-point
/// order as [`FlInstance::opening_cost`] on the edited set. The sum is
/// meaningful only when `add` is not already open.
fn opening_cost_edited(
    inst: &FlInstance,
    open: &[NodeId],
    skip: Option<usize>,
    add: Option<NodeId>,
) -> f64 {
    let mut c = 0.0;
    let mut pending = add;
    for (i, &g) in open.iter().enumerate() {
        if let Some(f) = pending {
            if f < g {
                c += inst.open_cost[f];
                pending = None;
            }
        }
        if Some(i) != skip {
            c += inst.open_cost[g];
        }
    }
    if let Some(f) = pending {
        c += inst.open_cost[f];
    }
    c
}

/// Runs add/drop/swap local search from the best single-facility start
/// (incremental fast path; results are bit-identical to
/// [`local_search_reference`]).
pub fn local_search(inst: &FlInstance, cfg: &LocalSearchConfig) -> FlSolution {
    FlWorkspace::new().local_search(inst, cfg)
}

/// Runs the incremental local search from an arbitrary starting facility
/// set (see [`FlWorkspace::local_search_from`]).
pub fn local_search_from(
    inst: &FlInstance,
    initial: &[NodeId],
    cfg: &LocalSearchConfig,
) -> FlSolution {
    FlWorkspace::new().local_search_from(inst, initial, cfg)
}

/// Runs the incremental local search warm-started from the Mettu–Plaxton
/// greedy (fast 3-approximation start): the search begins near a good
/// solution and typically needs a handful of moves instead of growing the
/// open set one add at a time from a single facility.
pub fn local_search_warm(inst: &FlInstance, cfg: &LocalSearchConfig) -> FlSolution {
    local_search_warm_in(&mut FlWorkspace::new(), inst, cfg)
}

/// [`local_search_warm`] on a caller-provided workspace.
pub fn local_search_warm_in(
    ws: &mut FlWorkspace,
    inst: &FlInstance,
    cfg: &LocalSearchConfig,
) -> FlSolution {
    let start = crate::mettu_plaxton::mettu_plaxton(inst);
    ws.local_search_from(inst, &start.open, cfg)
}

/// The original from-scratch implementation (the seed of this module),
/// kept verbatim as the equivalence reference for the incremental fast
/// path: `tests/incremental.rs` and the CI perf smoke pin
/// `local_search == local_search_reference` move for move — identical
/// open sets with bit-identical reported costs.
pub fn local_search_reference(inst: &FlInstance, cfg: &LocalSearchConfig) -> FlSolution {
    // Start: cheapest single facility.
    local_search_reference_from(inst, &[best_single(inst, &inst.sites())], cfg)
}

/// The reference loop of [`local_search_reference`] started from an
/// arbitrary non-empty facility set (sorted + deduplicated internally):
/// the equivalence reference for [`FlWorkspace::local_search_from`].
pub fn local_search_reference_from(
    inst: &FlInstance,
    initial: &[NodeId],
    cfg: &LocalSearchConfig,
) -> FlSolution {
    let sites = inst.sites();
    let clients = inst.clients();
    let mut open: Vec<NodeId> = initial.to_vec();
    open.sort_unstable();
    open.dedup();
    let mut cost = inst.total_cost(&open);

    for _ in 0..cfg.max_iterations {
        let threshold = cost * (1.0 - cfg.min_relative_gain);
        let mut best: Option<(Vec<NodeId>, f64)> = None;
        let consider = |cand: Vec<NodeId>, c: f64, best: &mut Option<(Vec<NodeId>, f64)>| {
            if c < threshold && best.as_ref().is_none_or(|(_, bc)| c < *bc) {
                *best = Some((cand, c));
            }
        };
        // Adds.
        for &f in &sites {
            if open.binary_search(&f).is_err() {
                let mut cand = open.clone();
                cand.push(f);
                cand.sort_unstable();
                let c = quick_cost(inst, &clients, &cand);
                consider(cand, c, &mut best);
            }
        }
        // Drops.
        if open.len() > 1 {
            for i in 0..open.len() {
                let mut cand = open.clone();
                cand.remove(i);
                let c = quick_cost(inst, &clients, &cand);
                consider(cand, c, &mut best);
            }
        }
        // Swaps.
        for i in 0..open.len() {
            for &f in &sites {
                if open.binary_search(&f).is_err() {
                    let mut cand = open.clone();
                    cand[i] = f;
                    cand.sort_unstable();
                    let c = quick_cost(inst, &clients, &cand);
                    consider(cand, c, &mut best);
                }
            }
        }
        match best {
            Some((cand, c)) => {
                open = cand;
                cost = c;
            }
            None => break,
        }
    }
    FlSolution { open, cost }
}

fn best_single(inst: &FlInstance, sites: &[NodeId]) -> NodeId {
    *sites
        .iter()
        .min_by(|&&a, &&b| {
            inst.total_cost(&[a])
                .partial_cmp(&inst.total_cost(&[b]))
                .expect("costs are not NaN")
        })
        .expect("at least one site")
}

/// Total cost restricted to the pre-filtered client list (avoids scanning
/// zero-demand nodes in the hot loop).
fn quick_cost(inst: &FlInstance, clients: &[NodeId], open: &[NodeId]) -> f64 {
    let mut c = inst.opening_cost(open);
    for &v in clients {
        let (_, d) = inst.metric.nearest_in(v, open).expect("non-empty");
        c += inst.demand[v] * d;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmn_graph::Metric;

    #[test]
    fn opens_both_clusters_when_cheap() {
        // Two demand clusters far apart; facilities cost 1 — cheaper than
        // any connection, so everything opens.
        let m = Metric::from_line(&[0.0, 1.0, 100.0, 101.0]);
        let inst = FlInstance::new(&m, vec![1.0; 4], vec![5.0, 5.0, 5.0, 5.0]);
        let s = local_search(&inst, &LocalSearchConfig::default());
        assert_eq!(s.open, vec![0, 1, 2, 3]);
        assert!((s.cost - 4.0).abs() < 1e-9, "cost = {}", s.cost);
        // With pricier facilities, one per cluster is optimal.
        let inst2 = FlInstance::new(&m, vec![8.0; 4], vec![5.0, 5.0, 5.0, 5.0]);
        let s2 = local_search(&inst2, &LocalSearchConfig::default());
        assert_eq!(s2.open.len(), 2, "{:?}", s2.open);
        assert!(
            s2.open[0] <= 1 && s2.open[1] >= 2,
            "one per cluster: {:?}",
            s2.open
        );
        assert!((s2.cost - 26.0).abs() < 1e-9, "cost = {}", s2.cost);
    }

    #[test]
    fn single_facility_when_opening_is_expensive() {
        let m = Metric::from_line(&[0.0, 1.0, 2.0]);
        let inst = FlInstance::new(&m, vec![100.0; 3], vec![1.0, 1.0, 1.0]);
        let s = local_search(&inst, &LocalSearchConfig::default());
        assert_eq!(s.open, vec![1], "median of the line");
        assert!((s.cost - 102.0).abs() < 1e-9);
    }

    #[test]
    fn respects_forbidden_sites() {
        let m = Metric::from_line(&[0.0, 1.0, 2.0]);
        let inst = FlInstance::new(
            &m,
            vec![f64::INFINITY, 1.0, f64::INFINITY],
            vec![3.0, 0.0, 3.0],
        );
        let s = local_search(&inst, &LocalSearchConfig::default());
        assert_eq!(s.open, vec![1]);
    }

    #[test]
    fn zero_cost_facilities_open_everywhere_needed() {
        let m = Metric::from_line(&[0.0, 10.0, 20.0]);
        let inst = FlInstance::new(&m, vec![0.0; 3], vec![1.0, 1.0, 1.0]);
        let s = local_search(&inst, &LocalSearchConfig::default());
        assert_eq!(s.open, vec![0, 1, 2]);
        assert_eq!(s.cost, 0.0);
    }

    #[test]
    fn fast_path_matches_reference_on_fixtures() {
        let m = Metric::from_line(&[0.0, 1.0, 3.0, 7.0, 100.0, 103.0]);
        for open_cost in [1.0, 4.0, 20.0, 200.0] {
            let inst = FlInstance::new(&m, vec![open_cost; 6], vec![2.0, 0.0, 1.0, 3.0, 5.0, 1.0]);
            let fast = local_search(&inst, &LocalSearchConfig::default());
            let seed = local_search_reference(&inst, &LocalSearchConfig::default());
            assert_eq!(fast.open, seed.open, "open_cost {open_cost}");
            assert_eq!(
                fast.cost.to_bits(),
                seed.cost.to_bits(),
                "open_cost {open_cost}: {} vs {}",
                fast.cost,
                seed.cost
            );
        }
    }

    #[test]
    fn warm_start_converges_and_counts_work() {
        let m = Metric::from_line(&[0.0, 2.0, 4.0, 50.0, 52.0]);
        let inst = FlInstance::new(&m, vec![3.0; 5], vec![1.0; 5]);
        let mut ws = FlWorkspace::new();
        let warm = local_search_warm_in(&mut ws, &inst, &LocalSearchConfig::default());
        let stats = ws.last_stats();
        let cold = local_search(&inst, &LocalSearchConfig::default());
        assert!(warm.cost <= cold.cost + 1e-9);
        assert!((inst.total_cost(&warm.open) - warm.cost).abs() < 1e-9);
        // The warm start begins near a good solution: strictly fewer
        // moves than the cold search needs to grow its open set.
        let mut ws_cold = FlWorkspace::new();
        ws_cold.local_search(&inst, &LocalSearchConfig::default());
        assert!(stats.moves <= ws_cold.last_stats().moves);
        assert!(ws_cold.last_stats().candidates > 0);
    }

    #[test]
    fn workspace_is_reusable_across_instances() {
        let mut ws = FlWorkspace::new();
        let m1 = Metric::from_line(&[0.0, 1.0, 9.0]);
        let m2 = Metric::from_line(&[0.0, 5.0, 6.0, 7.0, 30.0]);
        let i1 = FlInstance::new(&m1, vec![2.0; 3], vec![1.0, 2.0, 3.0]);
        let i2 = FlInstance::new(&m2, vec![4.0; 5], vec![1.0; 5]);
        let cfg = LocalSearchConfig::default();
        let a1 = ws.local_search(&i1, &cfg);
        let a2 = ws.local_search(&i2, &cfg);
        let b1 = local_search(&i1, &cfg);
        let b2 = local_search(&i2, &cfg);
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
    }

    #[test]
    #[should_panic(expected = "forbidden site")]
    fn warm_start_rejects_forbidden_sites() {
        let m = Metric::from_line(&[0.0, 1.0]);
        let inst = FlInstance::new(&m, vec![1.0, f64::INFINITY], vec![1.0, 1.0]);
        local_search_from(&inst, &[1], &LocalSearchConfig::default());
    }
}
