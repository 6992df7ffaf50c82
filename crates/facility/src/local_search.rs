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
//! written `d₁(v)` and `d₂(v)` below (`d₂ = ∞` while one site is open).
//! A client's share of any candidate's cost is then one lookup and at most
//! one comparison:
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
//! node `f`: row 0 holds the adds, and row `1 + k` the swaps that close
//! `open[k]`. Row 0 starts at each add's opening cost, every other row at
//! zero, and one sweep over the clients in ascending order touches two
//! rows per client, reading `ct(v, f)` contiguously from `v`'s own metric
//! row:
//!
//! * row 0 gets `w_v · min(d₁(v), ct(v, f))` — after the sweep it holds
//!   the exact add prices `P₀[f]`;
//! * row `1 + k(v)`, where `open[k(v)]` is `v`'s nearest site, gets
//!   `w_v · (min(d₂(v), ct(v, f)) − min(d₁(v), ct(v, f)))`. Summed over
//!   the clients served by `open[k]` this is the correction `D[k][f]`.
//!
//! In exact arithmetic `swap(k, f) = P₀[f] − cs(open[k]) + D[k][f]`: only
//! the clients of `open[k]` pay more than in the add of `f`, and they pay
//! exactly their correction. This is Whitaker's gain − loss + extra,
//! grouped differently (Resende & Werneck, "A fast swap-based local
//! search procedure for location problems", 2007). The inner loops carry
//! no dependency across `f` and vectorize; Rust never contracts
//! `a * b + c` into a fused multiply-add, so every vector lane rounds like
//! the scalar loop. The table holds `(|open| + 1) · n` prices, at most the
//! `n²` of the metric itself.
//!
//! # Shortlist, then exact re-pricing
//!
//! The add prices are exact: each entry receives the floating-point
//! operations of a single-candidate pass, in the same order. The swap
//! estimates `e = (P₀[f] − cs(open[k])) + D[k][f]` round differently from
//! an exact swap pass, so they only decide which swaps to price exactly.
//! With `m` clients and `p` open sites, standard recursive-summation
//! bounds put the estimate and the exact pass each within
//! `γ_{m+p+3} · Q` of the real-valued swap cost, where `γ_k ≈ k·ε/2`,
//! `Q` is the sum of the magnitudes of all terms, `Q ≤ (|e| + 4Z) / (1 −
//! γ_{m+p+3})`, and `Z = Σ_{g ∈ open} |cs(g)| + max_f |cs(f)|` (every term
//! but the opening costs is non-negative, as `d₂ ≥ d₁`). Each swap row
//! therefore ends the iteration holding the *floor* `e − s(e)` of its
//! swap's exact price, with the slack `s(e) = 4(m + p + 4)·ε·(|e| + 4Z)`
//! plus the least positive normal (for underflow). That is about four
//! times the bound, which also covers the rounding of the slack and of the
//! comparisons below. The *ceiling* is the least of the exact add prices
//! and the swap estimates' upper ends `e + s(e)`: some candidate costs at
//! most that much.
//!
//! Enumeration then runs in the reference's order. A swap whose floor
//! lies above the ceiling is strictly dearer than some candidate, and one
//! whose floor lies above the acceptance threshold cannot be accepted, so
//! neither can be the first strict minimum below the threshold: it is
//! skipped. Every other swap — including every NaN or infinite estimate,
//! whose floor is NaN — is re-priced by an exact pass in the reference's
//! order, opening cost first, then `+= w · min(alt(v), ct(v, f))` over
//! ascending clients. The rule that picks the move is then unchanged, and
//! the skipped swaps still count as enumerated candidates. The band is
//! what keeps the pick: with a zero slack, the 12×12 unit-grid case of
//! `dmn-solve`'s `fl_equivalence` takes other moves than the reference.
//!
//! The cold start is the cheapest single site. One row-major sweep adds
//! `w_v · ct(v, f)` over ascending clients to a per-site accumulator,
//! which is exactly `connection_cost(&[f])`, and the first strict minimum
//! of `cs(f) + conn(f)` in site order is the reference's `min_by` pick.
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
//! only the clients that pointed at the closed facility. Every read lands
//! on a client's row, so a metric whose rows are built on demand needs
//! no other row.

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
    /// Candidate moves enumerated across all iterations.
    pub candidates: usize,
    /// Swaps the shortlist kept and re-priced exactly (every other swap
    /// was provably not the pick; see the module docs).
    pub repriced: usize,
}

impl SearchStats {
    /// Component-wise sum.
    pub fn add(&self, o: &SearchStats) -> SearchStats {
        SearchStats {
            moves: self.moves + o.moves,
            candidates: self.candidates + o.candidates,
            repriced: self.repriced + o.repriced,
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
    /// The sites not open in the current iteration, ascending.
    closed: Vec<NodeId>,
    /// Add and swap prices of the current iteration, `n` per row: row 0,
    /// column `f` is the exact cost of `open + {f}`; row `1 + k`, column
    /// `f` a floor under the exact cost of `open - {open[k]} + {f}`,
    /// derived from the correction sum `D[k][f]` of the clients that
    /// `open[k]` serves (module docs). Only closed sites' columns are
    /// read. The cold start borrows row 0 for its connection sums.
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
        let start = self.cheapest_single(inst);
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

    /// The cheapest single site, as `best_single` picks it: one row-major
    /// sweep sums each site's connection cost over ascending clients (the
    /// operations of `connection_cost(&[f])`), then the first minimum of
    /// `cs(f) + conn(f)` in site order wins.
    fn cheapest_single(&mut self, inst: &FlInstance) -> NodeId {
        let conn = &mut self.prices;
        conn.clear();
        conn.resize(inst.len(), 0.0);
        for &v in &self.clients {
            let w = inst.demand[v];
            for (c, &d) in conn.iter_mut().zip(inst.metric.row(v)) {
                *c += w * d;
            }
        }
        self.sites
            .iter()
            .map(|&f| (f, inst.open_cost[f] + conn[f]))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("costs are not NaN"))
            .expect("at least one site")
            .0
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
            let ceiling = self.fill_prices(inst, &open);
            let threshold = cost * (1.0 - cfg.min_relative_gain);
            let mut best: Option<(Move, f64)> = None;
            let consider = |mv: Move, c: f64, best: &mut Option<(Move, f64)>| {
                if c < threshold && best.as_ref().is_none_or(|(_, bc)| c < *bc) {
                    *best = Some((mv, c));
                }
            };
            // Adds.
            for &f in &self.closed {
                consider(Move::Add(f), self.prices[f], &mut best);
            }
            // Drops.
            let drops = if open.len() > 1 { open.len() } else { 0 };
            for i in 0..drops {
                let c = self.price_drop(inst, &open, i);
                consider(Move::Drop(i), c, &mut best);
            }
            // Swaps: one whose floor lies above the bar is strictly dearer
            // than some candidate or not below the threshold, so it cannot
            // be the pick; every other swap is re-priced exactly.
            let bar = threshold.min(ceiling);
            for i in 0..open.len() {
                for &f in &self.closed {
                    if self.prices[(i + 1) * n + f] > bar {
                        continue;
                    }
                    self.stats.repriced += 1;
                    let c = self.price_swap(inst, &open, i, f);
                    consider(Move::Swap(i, f), c, &mut best);
                }
            }
            self.stats.candidates += (open.len() + 1) * self.closed.len() + drops;
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

    /// Lists the closed sites and prices their adds and swaps over
    /// `open`: row 0 of `prices` gets every add's exact cost, row `1 + k`
    /// a floor under every swap's exact cost, all from one sweep over the
    /// clients that touches two rows per client. Returns the ceiling:
    /// some add or swap costs at most that much (see the module docs).
    fn fill_prices(&mut self, inst: &FlInstance, open: &[NodeId]) -> f64 {
        let n = inst.len();
        self.closed.clear();
        let closed = self.sites.iter().filter(|f| open.binary_search(f).is_err());
        self.closed.extend(closed);
        self.prices.clear();
        if self.closed.is_empty() {
            // Every site is open: no add or swap exists.
            return f64::INFINITY;
        }
        self.prices
            .extend((0..n).map(|f| opening_cost_edited(inst, open, None, Some(f))));
        self.prices.resize((open.len() + 1) * n, 0.0);
        let (adds, swaps) = self.prices.split_at_mut(n);
        for &v in &self.clients {
            let (w, dist) = (inst.demand[v], inst.metric.row(v));
            let (d1, d2) = (self.near_d[v], self.second_d[v]);
            match open.binary_search(&self.nearest[v]) {
                Ok(k) => {
                    let extra = &mut swaps[k * n..(k + 1) * n];
                    for ((a, x), &d) in adds.iter_mut().zip(extra).zip(dist) {
                        let near = d1.min(d);
                        *a += w * near;
                        *x += w * (d2.min(d) - near);
                    }
                }
                // No open site within reach: every swap prices `v` as
                // the adds do.
                Err(_) => {
                    for (a, &d) in adds.iter_mut().zip(dist) {
                        *a += w * d1.min(d);
                    }
                }
            }
        }
        let gamma = 4.0 * (self.clients.len() + open.len() + 4) as f64 * f64::EPSILON;
        let largest = self.closed.iter().map(|&f| inst.open_cost[f].abs());
        let z = open.iter().map(|&g| inst.open_cost[g].abs()).sum::<f64>()
            + largest.fold(0.0, f64::max);
        let mut ceiling = self
            .closed
            .iter()
            .map(|&f| adds[f])
            .fold(f64::INFINITY, f64::min);
        for (k, extra) in swaps.chunks_exact_mut(n).enumerate() {
            let closing = inst.open_cost[open[k]];
            for &f in &self.closed {
                let e = (adds[f] - closing) + extra[f];
                let slack = gamma * (e.abs() + 4.0 * z) + f64::MIN_POSITIVE;
                ceiling = ceiling.min(e + slack);
                extra[f] = e - slack;
            }
        }
        ceiling
    }

    /// Exact cost of `open - {open[i]} + {f}`, in the reference's order.
    fn price_swap(&self, inst: &FlInstance, open: &[NodeId], i: usize, f: NodeId) -> f64 {
        let g = open[i];
        let mut c = opening_cost_edited(inst, open, Some(i), Some(f));
        for &v in &self.clients {
            let alt = if self.nearest[v] == g {
                self.second_d[v]
            } else {
                self.near_d[v]
            };
            c += inst.demand[v] * alt.min(inst.metric.dist(v, f));
        }
        c
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
    fn fast_path_matches_reference_across_unreachable_sites() {
        // Two components with no path between them: some clients start
        // with no open site in reach, and a swap that strands a client
        // has an infinite estimate, so the shortlist must keep it.
        let inf = f64::INFINITY;
        #[rustfmt::skip]
        let d = vec![
            0.0, 1.0, 2.0, inf, inf,
            1.0, 0.0, 1.0, inf, inf,
            2.0, 1.0, 0.0, inf, inf,
            inf, inf, inf, 0.0, 3.0,
            inf, inf, inf, 3.0, 0.0,
        ];
        let m = Metric::from_matrix(5, d);
        for open_cost in [0.5, 2.0, 50.0] {
            let inst = FlInstance::new(&m, vec![open_cost; 5], vec![1.0, 2.0, 0.0, 1.0, 3.0]);
            let cfg = LocalSearchConfig::default();
            let mut ws = FlWorkspace::new();
            let fast = ws.local_search(&inst, &cfg);
            let seed = local_search_reference(&inst, &cfg);
            assert_eq!(fast.open, seed.open, "open_cost {open_cost}");
            assert_eq!(
                fast.cost.to_bits(),
                seed.cost.to_bits(),
                "open_cost {open_cost}"
            );
            assert!(fast.cost.is_finite(), "both components get a site");
            assert!(ws.last_stats().repriced > 0);
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
