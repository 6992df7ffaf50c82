//! Write radii, storage radii and storage numbers (Section 2.1).
//!
//! For a node `v`, let `R^z_v` be the `z` requests closest to `v` and
//! `d(v, z)` their average distance from `v`. The paper defines
//!
//! * the **write radius** `rw(v) := d(v, W)` with `W` the total write
//!   frequency of the object, and
//! * the **storage number** `zs(v)` and **storage radius** `rs(v)` chosen
//!   such that
//!   `(zs − 1)·rs ≤ cs(v) < zs·rs` and `d(v, zs − 1) ≤ rs < d(v, zs)`.
//!
//! Both radii estimate how far the nearest copy *should* be from `v` in a
//! good placement: within `~rw(v)` a copy pays off against write traffic;
//! within `~rs(v)` it pays off against its storage cost.
//!
//! Requests are weighted (a node with frequency `f` contributes `f` unit
//! requests at its location), so `z` ranges over the reals and the
//! cumulative distance function `g(z) = z · d(v, z)` is piecewise linear.

use dmn_graph::{Metric, NodeId};

/// Per-node distance profile: requests sorted by distance with prefix sums.
///
/// `g(z)` = sum of distances of the `z` closest request units; `d(v, z)`
/// = `g(z) / z`.
///
/// The profile of node `v` reads `d(u, v)` from each client `u`'s row,
/// not `v`'s own row. A sparse metric source then needs only the clients'
/// rows, and both sources read the same entries, so they agree bit for
/// bit even where a closure is symmetric only up to an ulp.
///
/// The full profile is the reference the radii are defined by: a stable
/// sort of every client, by distance with ties in client order. The
/// kernels behind [`RadiusTable`] ([`RadiusKernel`]) sort only a prefix
/// of that order, and fall back to completing it into this profile where
/// the prefix cannot decide.
#[derive(Debug, Clone, Default)]
pub struct DistanceProfile {
    /// (distance, request mass at that distance), sorted by distance.
    entries: Vec<(f64, f64)>,
    /// Prefix sums of mass.
    cum_mass: Vec<f64>,
    /// Prefix sums of mass * distance.
    cum_cost: Vec<f64>,
}

impl DistanceProfile {
    /// Builds the profile of node `v` against the request `masses`
    /// (combined read + write frequency per node), from `d(u, v)` for
    /// every client `u` in ascending order.
    pub fn new(metric: &Metric, masses: &[f64], v: NodeId) -> Self {
        let mut entries: Vec<(f64, f64)> = masses
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m > 0.0)
            .map(|(u, &m)| (metric.dist(u, v), m))
            .collect();
        entries.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("distances are not NaN"));
        let mut profile = DistanceProfile::default();
        for (d, m) in entries {
            profile.push(d, m);
        }
        profile
    }

    /// Appends an entry no closer than the last one.
    fn push(&mut self, d: f64, m: f64) {
        let (m_acc, c_acc) = self.last_sums();
        self.entries.push((d, m));
        self.cum_mass.push(m_acc + m);
        self.cum_cost.push(c_acc + m * d);
    }

    /// (mass, cost) of every entry so far.
    fn last_sums(&self) -> (f64, f64) {
        match (self.cum_mass.last(), self.cum_cost.last()) {
            (Some(&m), Some(&c)) => (m, c),
            _ => (0.0, 0.0),
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.cum_mass.clear();
        self.cum_cost.clear();
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// The distance of the first entry that brings the mass to `z`.
    fn dist_covering(&self, z: f64) -> f64 {
        let i = self.cum_mass.partition_point(|&m| m < z);
        self.entries[i.min(self.len() - 1)].0
    }

    /// Total request mass in the profile.
    pub fn total_mass(&self) -> f64 {
        self.last_sums().0
    }

    /// `g(z)`: the summed distance of the `z` closest request units
    /// (`f64::INFINITY` when `z` exceeds the total mass — there is no such
    /// request set).
    pub fn cum_dist(&self, z: f64) -> f64 {
        if z <= 0.0 {
            return 0.0;
        }
        if z > self.total_mass() + 1e-12 {
            return f64::INFINITY;
        }
        // Binary search for the first prefix covering mass z.
        let i = self.cum_mass.partition_point(|&m| m < z);
        let i = i.min(self.entries.len() - 1);
        let (prev_mass, prev_cost) = if i == 0 {
            (0.0, 0.0)
        } else {
            (self.cum_mass[i - 1], self.cum_cost[i - 1])
        };
        prev_cost + (z - prev_mass) * self.entries[i].0
    }

    /// `d(v, z)`: average distance of the `z` closest request units
    /// (0 for `z <= 0`).
    pub fn avg_dist(&self, z: f64) -> f64 {
        if z <= 0.0 {
            return 0.0;
        }
        self.cum_dist(z) / z
    }

    /// The paper's storage number `zs(v)` and storage radius `rs(v)` for
    /// storage cost `cs`: the smallest integer `z` with `g(z) > cs`, and a
    /// radius from `[d(v, zs−1), d(v, zs)) ∩ (cs/zs, cs/(zs−1)]`.
    ///
    /// When even all requests together cost no more than `cs`
    /// (`g(total) <= cs`), storing a copy for `v`'s neighbourhood can never
    /// pay off and `(zs, rs) = (∞, ∞)` is returned.
    ///
    /// Degenerate boundary: when `cs` is so small that the paper's strict
    /// bracket `(zs−1)·rs <= cs < zs·rs` admits no radius (e.g. `cs = 0`
    /// with request mass at distance 0 — the bracket demands `rs <= 0` and
    /// `rs > 0` simultaneously), the closed-boundary value satisfying
    /// `(zs−1)·rs <= cs <= zs·rs` is returned instead. Every inequality
    /// the paper's proofs actually use (Lemma 4's case split, Claim 10's
    /// `cs <= zs·rs`) holds non-strictly, so the guarantee is unaffected.
    pub fn storage_number_and_radius(&self, cs: f64) -> (f64, f64) {
        let total = self.total_mass();
        if self.cum_dist(total) <= cs {
            return (f64::INFINITY, f64::INFINITY);
        }
        let zs = first_exceeding(total.ceil() as u64, |z| self.cum_dist(z) > cs);
        (zs, self.storage_radius(zs, cs))
    }

    /// The storage radius for storage number `zs`, read from
    /// `d(v, zs − 1)` and `d(v, min(zs, total))`.
    fn storage_radius(&self, zs: f64, cs: f64) -> f64 {
        debug_assert!(zs >= 1.0);
        let d_lo = self.avg_dist(zs - 1.0);
        let d_hi = self.avg_dist(zs.min(self.total_mass())); // g(zs) may interpolate past the last request
        let lo_bound = d_lo.max(cs / zs);
        let hi_bound = if zs > 1.0 {
            d_hi.min(cs / (zs - 1.0))
        } else {
            d_hi
        };
        if hi_bound > lo_bound {
            0.5 * (lo_bound + hi_bound)
        } else {
            lo_bound
        }
    }
}

/// The smallest integer `z` in `0..=hi` with `exceeds(z)`, by bisection
/// (`hi` when none below it does). `g` is nondecreasing and piecewise
/// linear, so this finds the storage number.
fn first_exceeding(hi: u64, exceeds: impl Fn(f64) -> bool) -> f64 {
    let (mut lo, mut hi) = (0u64, hi);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if exceeds(mid as f64) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo as f64
}

/// All radii of one object over the whole node set.
///
/// The placement pipeline calls [`RadiusKernel`] directly: phase 2 reads
/// storage radii at every node, but phase 3 reads write radii only at the
/// copies it scans. The table is for readers of every radius, such as
/// the properness check.
#[derive(Debug, Clone)]
pub struct RadiusTable {
    /// Write radius `rw(v) = d(v, W)`.
    pub write_radius: Vec<f64>,
    /// Storage radius `rs(v)`.
    pub storage_radius: Vec<f64>,
    /// Storage number `zs(v)` (∞ when a copy near `v` can never pay off).
    pub storage_number: Vec<f64>,
}

impl RadiusTable {
    /// Computes write and storage radii for every node.
    ///
    /// * `masses` — combined request mass per node (`fr + fw`),
    /// * `total_writes` — the paper's `W`,
    /// * `storage_cost` — `cs` per node.
    ///
    /// Both [`RadiusKernel`] sweeps over every node; each value is the
    /// one the node's full [`DistanceProfile`] gives, bit for bit.
    pub fn compute(
        metric: &Metric,
        masses: &[f64],
        total_writes: f64,
        storage_cost: &[f64],
    ) -> Self {
        let n = metric.len();
        assert_eq!(masses.len(), n);
        let mut kernel = RadiusKernel::new(masses);
        let (storage_number, storage_radius) = kernel.storage_radii(metric, storage_cost);
        let all: Vec<NodeId> = (0..n).collect();
        let write_radius = kernel.write_radii(metric, total_writes, &all);
        RadiusTable {
            write_radius,
            storage_radius,
            storage_number,
        }
    }

    /// `max(rw(v), rs(v))` — the paper's proximity requirement for proper
    /// placements.
    pub fn max_radius(&self, v: NodeId) -> f64 {
        self.write_radius[v].max(self.storage_radius[v])
    }
}

/// Nodes whose profile entries a [`RadiusKernel`] sweep gathers at once.
const GATHER_BLOCK: usize = 16;

/// The per-node radius kernels of one object: each decision reads a
/// sorted prefix of the node's [`DistanceProfile`], exactly as long as
/// the decision needs, and gives the full profile's bits.
///
/// * **Prefix.** The entries with `d ≤ r` are a prefix of the profile's
///   order (by distance, ties in client order), so their prefix sums are
///   the profile's own. A sweep keeps them in client order and sorts them
///   stably on `(d + 0.0).to_bits()`, which orders non-negative distances
///   like the profile's `partial_cmp` (`−0.0` and `+0.0` tie). `r` starts
///   at the distance the previous node's decision needed (at the smallest
///   positive distance when that was 0) and doubles until the prefix
///   decides; each doubling sorts only the entries it adds.
/// * **Error band.** A profile sums its total mass `T` in its own order.
///   The kernel knows only `T′`, the client-order sum, and
///   `err = 2(c+1)·ε·T′` over `c` clients: any two summation orders of `c`
///   non-negative terms differ by less than that.
/// * **Storage number.** A prefix with cost above `cs` and mass below
///   `T′ − err < T` decides: `g(z)` beyond its mass is at least its cost,
///   so the profile's bisection, run once for each of `⌈T′ − err⌉` and
///   `⌈T′ + err⌉` (one of which is `⌈T⌉`), gets the same answers from the
///   prefix. The kernel takes `zs` when both runs agree and `zs` lies
///   within the prefix mass, which makes `g(zs − 1)` and `g(zs)` exact too.
/// * **Write radius.** A prefix with mass at least `W` gives `g(W)`.
/// * **Fallback.** The kernel completes the prefix into the full profile
///   (sorting only the entries it lacks) and asks that: when the first
///   prefix costs no more than `cs` and neither does the client-order
///   `Σm·d` beyond its own error band (storage cannot pay there, `cs = ∞`
///   included, and doubling would reach every client), when
///   `W ≥ T′ − err`, when the error band spans more than one integer or
///   the two bisections disagree, and when the prefix reaches every
///   client (no clients at all included). Such a node sorts no more than
///   the full profile does.
#[derive(Debug, Clone)]
pub struct RadiusKernel {
    clients: Clients,
    /// `block[b * c + j] = d(clients[j], v)` for the `b`-th node of one
    /// gathered block.
    block: Vec<f64>,
    prefix: Prefix,
}

/// One object's clients and the bounds on its total mass.
#[derive(Debug, Clone)]
struct Clients {
    /// The nodes with request mass, ascending.
    nodes: Vec<NodeId>,
    /// Their masses, in the same order.
    mass: Vec<f64>,
    /// `T′ − err`: below the total mass in every summation order (−∞ when
    /// `T′` is infinite).
    mass_floor: f64,
    /// The bisection brackets `⌈T′ − err⌉` and `⌈T′ + err⌉`; `None` when
    /// `⌈T⌉` may lie strictly between them.
    brackets: Option<(u64, u64)>,
}

impl RadiusKernel {
    /// The kernel for one object's request `masses` (combined read +
    /// write frequency per node).
    pub fn new(masses: &[f64]) -> Self {
        let nodes: Vec<NodeId> = (0..masses.len()).filter(|&u| masses[u] > 0.0).collect();
        let mass: Vec<f64> = nodes.iter().map(|&u| masses[u]).collect();
        let total: f64 = mass.iter().sum();
        let err = 2.0 * (mass.len() + 1) as f64 * f64::EPSILON * total;
        let (lo, hi) = ((total - err).ceil(), (total + err).ceil());
        RadiusKernel {
            block: vec![0.0; GATHER_BLOCK * nodes.len()],
            clients: Clients {
                nodes,
                mass,
                // An infinite total bounds nothing.
                mass_floor: if err.is_finite() {
                    total - err
                } else {
                    f64::NEG_INFINITY
                },
                brackets: (hi - lo <= 1.0).then_some((lo as u64, hi as u64)),
            },
            prefix: Prefix::default(),
        }
    }

    /// Storage numbers `zs(v)` and storage radii `rs(v)` of every node for
    /// storage costs `storage_cost`, as
    /// [`DistanceProfile::storage_number_and_radius`] gives them.
    pub fn storage_radii(&mut self, metric: &Metric, storage_cost: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n = metric.len();
        assert_eq!(storage_cost.len(), n);
        let (mut numbers, mut radii) = (vec![0.0; n], vec![0.0; n]);
        let mut reach = 0.0;
        let all: Vec<NodeId> = (0..n).collect();
        // Sweeping `0..n`, the `v`-th node is node `v`.
        self.sweep(metric, &all, |clients, prefix, v, dists| {
            (numbers[v], radii[v]) = prefix.storage(clients, dists, storage_cost[v], &mut reach);
        });
        (numbers, radii)
    }

    /// Write radii `rw(v) = d(v, W)` at `nodes`, in that order, as
    /// [`DistanceProfile::avg_dist`] gives them (0 when `W = 0`).
    pub fn write_radii(
        &mut self,
        metric: &Metric,
        total_writes: f64,
        nodes: &[NodeId],
    ) -> Vec<f64> {
        let mut radii = vec![0.0; nodes.len()];
        if total_writes > 0.0 {
            let mut reach = 0.0;
            self.sweep(metric, nodes, |clients, prefix, b, dists| {
                radii[b] = prefix.write(clients, dists, total_writes, &mut reach);
            });
        }
        radii
    }

    /// Calls `decide(clients, prefix, b, dists)` for the `b`-th of `nodes`
    /// in order, with `dists[j] = d(clients[j], nodes[b])`. Each client
    /// row is read 16 nodes at a time, so the gather stays row-major
    /// instead of walking one column per node.
    fn sweep(
        &mut self,
        metric: &Metric,
        nodes: &[NodeId],
        mut decide: impl FnMut(&Clients, &mut Prefix, usize, &[f64]),
    ) {
        let RadiusKernel {
            clients,
            block,
            prefix,
        } = self;
        let c = clients.nodes.len();
        for (k, chunk) in nodes.chunks(GATHER_BLOCK).enumerate() {
            for (j, &u) in clients.nodes.iter().enumerate() {
                let row = metric.row(u);
                for (b, &v) in chunk.iter().enumerate() {
                    block[b * c + j] = row[v];
                }
            }
            for b in 0..chunk.len() {
                let dists = &block[b * c..(b + 1) * c];
                decide(clients, prefix, k * GATHER_BLOCK + b, dists);
            }
        }
    }
}

/// The sorted prefix of one node's profile that its decision has read.
#[derive(Debug, Clone, Default)]
struct Prefix {
    profile: DistanceProfile,
    /// Every entry with `d ≤ reach` is in `profile`, and no other.
    reach: f64,
    /// The sort keys and client indices of the entries one extension
    /// adds.
    fresh: Vec<(u64, usize)>,
}

impl Prefix {
    /// The storage number and radius of the node whose client distances
    /// are `dists`; `reach` carries the distance the decision needed on
    /// to the next node.
    fn storage(
        &mut self,
        clients: &Clients,
        dists: &[f64],
        cs: f64,
        reach: &mut f64,
    ) -> (f64, f64) {
        self.restart();
        match self.storage_from_prefix(clients, dists, cs, reach) {
            Some(decided) => decided,
            None => self.complete(clients, dists).storage_number_and_radius(cs),
        }
    }

    /// [`Prefix::storage`] from the shortest prefix that decides; `None`
    /// when only the full profile can.
    fn storage_from_prefix(
        &mut self,
        clients: &Clients,
        dists: &[f64],
        cs: f64,
        reach: &mut f64,
    ) -> Option<(f64, f64)> {
        let (lo, hi) = clients.brackets?;
        let mut r = start_radius(dists, *reach);
        let mut pays = false;
        loop {
            self.extend(clients, dists, r);
            if self.profile.len() == dists.len() || r == f64::INFINITY {
                return None;
            }
            let (mass, cost) = self.profile.last_sums();
            if cost > cs {
                if mass >= clients.mass_floor {
                    return None;
                }
                let exceeds = |z: f64| z > mass || self.profile.cum_dist(z) > cs;
                let zs = first_exceeding(lo, exceeds);
                if hi != lo && first_exceeding(hi, exceeds) != zs {
                    return None;
                }
                if zs <= mass {
                    *reach = self.profile.dist_covering(zs);
                    return Some((zs, self.profile.storage_radius(zs, cs)));
                }
            } else if !pays {
                // Before the first doubling: where all requests together
                // barely cost `cs`, doubling would reach every client.
                let total: f64 = dists.iter().zip(&clients.mass).map(|(&d, &m)| m * d).sum();
                let band = 2.0 * (dists.len() + 1) as f64 * f64::EPSILON;
                pays = total * (1.0 - band) > cs;
                if !pays {
                    return None;
                }
            }
            r *= 2.0;
        }
    }

    /// The write radius `d(v, w)` of the node whose client distances are
    /// `dists`, for `w > 0`; `reach` as in [`Prefix::storage`].
    fn write(&mut self, clients: &Clients, dists: &[f64], w: f64, reach: &mut f64) -> f64 {
        self.restart();
        match self.write_from_prefix(clients, dists, w, reach) {
            Some(decided) => decided,
            None => self.complete(clients, dists).avg_dist(w),
        }
    }

    /// [`Prefix::write`] from the shortest prefix with mass `w`; `None`
    /// when only the full profile can decide.
    fn write_from_prefix(
        &mut self,
        clients: &Clients,
        dists: &[f64],
        w: f64,
        reach: &mut f64,
    ) -> Option<f64> {
        if w >= clients.mass_floor {
            return None;
        }
        let mut r = start_radius(dists, *reach);
        loop {
            self.extend(clients, dists, r);
            if self.profile.total_mass() >= w {
                *reach = self.profile.dist_covering(w);
                return Some(self.profile.avg_dist(w));
            }
            if self.profile.len() == dists.len() || r == f64::INFINITY {
                return None;
            }
            r *= 2.0;
        }
    }

    fn restart(&mut self) {
        self.profile.clear();
        self.reach = f64::NEG_INFINITY;
    }

    /// Adds every entry with `reach < d ≤ r`, sorted like the profile.
    fn extend(&mut self, clients: &Clients, dists: &[f64], r: f64) {
        let lo = self.reach;
        self.fresh.clear();
        for (j, &d) in dists.iter().enumerate() {
            if d <= r && d > lo {
                self.fresh.push(((d + 0.0).to_bits(), j));
            }
        }
        self.fresh.sort_by_key(|&(key, _)| key);
        for &(_, j) in &self.fresh {
            self.profile.push(dists[j], clients.mass[j]);
        }
        self.reach = r;
    }

    /// The node's full profile: the prefix with every other entry added.
    fn complete(&mut self, clients: &Clients, dists: &[f64]) -> &DistanceProfile {
        self.extend(clients, dists, f64::INFINITY);
        assert_eq!(self.profile.len(), dists.len(), "distances are not NaN");
        &self.profile
    }
}

/// The first prefix radius for a node: `reach` when positive, else the
/// smallest positive distance (∞ when there is none).
fn start_radius(dists: &[f64], reach: f64) -> f64 {
    if reach > 0.0 {
        return reach;
    }
    dists
        .iter()
        .copied()
        .filter(|&d| d > 0.0)
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Requests: mass 2 at distance 0, mass 1 at distance 4, mass 3 at
    /// distance 10 (from a line metric).
    fn profile() -> DistanceProfile {
        let m = Metric::from_line(&[0.0, 0.0, 4.0, 10.0]);
        let masses = vec![1.0, 1.0, 1.0, 3.0];
        DistanceProfile::new(&m, &masses, 0)
    }

    #[test]
    fn cumulative_and_average_distances() {
        let p = profile();
        assert_eq!(p.total_mass(), 6.0);
        assert_eq!(p.cum_dist(0.0), 0.0);
        assert_eq!(p.cum_dist(2.0), 0.0);
        assert_eq!(p.cum_dist(3.0), 4.0);
        assert_eq!(p.cum_dist(2.5), 2.0, "interpolates inside an entry");
        assert_eq!(p.cum_dist(4.0), 14.0);
        assert_eq!(p.cum_dist(6.0), 34.0);
        assert!(p.cum_dist(6.5).is_infinite());
        assert_eq!(p.avg_dist(4.0), 3.5);
        assert_eq!(p.avg_dist(0.0), 0.0);
    }

    #[test]
    fn avg_dist_is_monotone_in_z() {
        let p = profile();
        let mut last = 0.0;
        for i in 0..=60 {
            let z = i as f64 * 0.1;
            let d = p.avg_dist(z);
            assert!(d + 1e-12 >= last, "avg_dist must be nondecreasing at z={z}");
            last = d;
        }
    }

    #[test]
    fn storage_number_definition_holds() {
        let p = profile();
        for cs in [0.0, 0.5, 3.0, 4.0, 7.9, 14.0, 20.0, 33.9] {
            let (zs, rs) = p.storage_number_and_radius(cs);
            assert!(zs.is_finite(), "cs={cs}");
            // Defining inequalities of the paper (allowing the closed
            // boundary our midpoint choice may hit):
            let g_before = p.cum_dist(zs - 1.0);
            let g_after = p.cum_dist(zs);
            assert!(g_before <= cs + 1e-9, "cs={cs}: g(zs-1)={g_before}");
            assert!(g_after > cs - 1e-9, "cs={cs}: g(zs)={g_after}");
            assert!(rs + 1e-9 >= p.avg_dist(zs - 1.0), "cs={cs}");
            assert!((zs - 1.0) * rs <= cs + 1e-9, "cs={cs}: lower bracket");
            assert!(cs <= zs * rs + 1e-9, "cs={cs}: upper bracket");
        }
    }

    #[test]
    fn storage_radius_infinite_when_storage_never_pays() {
        let p = profile();
        // g(total) = 34; storing costs more than serving everything.
        let (zs, rs) = p.storage_number_and_radius(34.0);
        assert!(zs.is_infinite());
        assert!(rs.is_infinite());
    }

    #[test]
    fn radius_table_on_a_path() {
        // Path metric 0-1-2 with unit edges; one read everywhere, one write
        // at node 2. W = 1.
        let m = Metric::from_line(&[0.0, 1.0, 2.0]);
        let masses = vec![1.0, 1.0, 2.0];
        let cs = vec![1.5; 3];
        let t = RadiusTable::compute(&m, &masses, 1.0, &cs);
        // rw(v) = distance of the single closest request = 0 for everyone
        // (every node has local request mass).
        assert_eq!(t.write_radius, vec![0.0; 3]);
        // zs(0): g(1)=0, g(2)=1 (node1), g(3)=3 -> first g > 1.5 is z=3.
        assert_eq!(t.storage_number[0], 3.0);
        assert!(t.storage_radius[0] > 0.0 && t.storage_radius[0].is_finite());
        assert_eq!(t.max_radius(0), t.storage_radius[0]);
    }

    #[test]
    fn write_radius_zero_for_read_only() {
        let m = Metric::from_line(&[0.0, 5.0]);
        let t = RadiusTable::compute(&m, &[1.0, 1.0], 0.0, &[1.0, 1.0]);
        assert_eq!(t.write_radius, vec![0.0, 0.0]);
    }

    #[test]
    fn empty_profile_never_pays() {
        let m = Metric::from_line(&[0.0, 1.0]);
        let p = DistanceProfile::new(&m, &[0.0, 0.0], 0);
        assert_eq!(p.total_mass(), 0.0);
        let (zs, rs) = p.storage_number_and_radius(0.0);
        assert!(zs.is_infinite() && rs.is_infinite());
    }
}
