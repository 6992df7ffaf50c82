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
#[derive(Debug, Clone)]
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
        DistanceProfile::from_entries(
            masses
                .iter()
                .enumerate()
                .filter(|&(_, &m)| m > 0.0)
                .map(|(u, &m)| (metric.dist(u, v), m))
                .collect(),
        )
    }

    /// The profile of `(distance, mass)` pairs in ascending client order.
    fn from_entries(mut entries: Vec<(f64, f64)>) -> Self {
        entries.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("distances are not NaN"));
        let mut cum_mass = Vec::with_capacity(entries.len());
        let mut cum_cost = Vec::with_capacity(entries.len());
        let (mut m_acc, mut c_acc) = (0.0, 0.0);
        for &(d, m) in &entries {
            m_acc += m;
            c_acc += m * d;
            cum_mass.push(m_acc);
            cum_cost.push(c_acc);
        }
        DistanceProfile {
            entries,
            cum_mass,
            cum_cost,
        }
    }

    /// Total request mass in the profile.
    pub fn total_mass(&self) -> f64 {
        self.cum_mass.last().copied().unwrap_or(0.0)
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
        // Smallest integer zs with g(zs) > cs. g is nondecreasing and
        // piecewise linear; scan by binary search on integers.
        let (mut lo, mut hi) = (0u64, total.ceil() as u64);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.cum_dist(mid as f64) > cs {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let zs = lo as f64;
        debug_assert!(zs >= 1.0);
        let d_lo = self.avg_dist(zs - 1.0);
        let d_hi = self.avg_dist(zs.min(total)); // g(zs) may interpolate past the last request
        let lo_bound = d_lo.max(cs / zs);
        let hi_bound = if zs > 1.0 {
            d_hi.min(cs / (zs - 1.0))
        } else {
            d_hi
        };
        let rs = if hi_bound > lo_bound {
            0.5 * (lo_bound + hi_bound)
        } else {
            lo_bound
        };
        (zs, rs)
    }
}

/// All radii of one object over the whole node set.
#[derive(Debug, Clone)]
pub struct RadiusTable {
    /// Write radius `rw(v) = d(v, W)`.
    pub write_radius: Vec<f64>,
    /// Storage radius `rs(v)`.
    pub storage_radius: Vec<f64>,
    /// Storage number `zs(v)` (∞ when a copy near `v` can never pay off).
    pub storage_number: Vec<f64>,
}

/// Nodes whose profile entries [`RadiusTable::compute`] gathers at once.
const GATHER_BLOCK: usize = 16;

impl RadiusTable {
    /// Computes write and storage radii for every node.
    ///
    /// * `masses` — combined request mass per node (`fr + fw`),
    /// * `total_writes` — the paper's `W`,
    /// * `storage_cost` — `cs` per node.
    ///
    /// Reads only the clients' rows (see [`DistanceProfile`]). Each
    /// client row is read 16 nodes at a time, so the gather stays
    /// row-major instead of walking one column per node.
    pub fn compute(
        metric: &Metric,
        masses: &[f64],
        total_writes: f64,
        storage_cost: &[f64],
    ) -> Self {
        let n = metric.len();
        assert_eq!(masses.len(), n);
        assert_eq!(storage_cost.len(), n);
        let clients: Vec<(NodeId, f64)> = masses
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m > 0.0)
            .map(|(u, &m)| (u, m))
            .collect();
        let c = clients.len();
        let mut write_radius = vec![0.0; n];
        let mut storage_radius = vec![0.0; n];
        let mut storage_number = vec![0.0; n];
        // block[b * c + j] = d(clients[j], v0 + b).
        let mut block = vec![0.0; GATHER_BLOCK * c];
        for v0 in (0..n).step_by(GATHER_BLOCK) {
            let width = GATHER_BLOCK.min(n - v0);
            for (j, &(u, _)) in clients.iter().enumerate() {
                for (b, &d) in metric.row(u)[v0..v0 + width].iter().enumerate() {
                    block[b * c + j] = d;
                }
            }
            for (b, v) in (v0..v0 + width).enumerate() {
                let dists = &block[b * c..(b + 1) * c];
                let entries = dists.iter().zip(&clients).map(|(&d, &(_, m))| (d, m));
                let profile = DistanceProfile::from_entries(entries.collect());
                write_radius[v] = if total_writes > 0.0 {
                    profile.avg_dist(total_writes)
                } else {
                    0.0
                };
                let (zs, rs) = profile.storage_number_and_radius(storage_cost[v]);
                storage_number[v] = zs;
                storage_radius[v] = rs;
            }
        }
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
