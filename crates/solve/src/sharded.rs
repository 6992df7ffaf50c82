//! Sharded parallel solving: partition the object set across worker
//! shards, solve each shard with an inner registry engine, merge reports.
//!
//! The paper's placement problem decomposes per object — each object's
//! facility-location solve and radius refinement is independent of every
//! other object's — so the object set can be split across N worker shards
//! and the per-shard placements concatenated without changing the answer.
//! [`ShardedSolver`] does exactly that on top of any registered inner
//! engine: it extracts one [`Instance::object_subset`] per shard, runs the
//! shards through [`dmn_core::parallel::par_map_threads`] with each inner
//! solve pinned to a single thread (the shard fan-out is the only source
//! of parallelism, so wall-clock scales with the shard count instead of
//! oversubscribing nested pools), and scatters the sub-placements back
//! into input order.
//!
//! Two invariants keep the sharded answer bit-identical to the sequential
//! one:
//!
//! * the merge is a pure scatter — object `x`'s copy set comes from
//!   exactly the shard that owned `x`, so any partition of the objects
//!   yields the same [`Placement`];
//! * the optional capacity repair is *global* across objects, so it is
//!   stripped from the inner requests and applied once post-merge by
//!   [`SolveReport::build`] — exactly where the sequential engines apply
//!   it.
//!
//! The one engine this cannot hold for is `random-k`, which draws all its
//! objects from a single sequential RNG stream: sharding re-seeds the
//! stream per shard, so `sharded:random-k` is deterministic per request
//! but not placement-identical to `random-k`.

use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use dmn_core::instance::Instance;
use dmn_core::parallel::par_map_threads;
use dmn_core::placement::Placement;

use crate::report::{PhaseStat, ShardStat, SolveReport};
use crate::{SolveRequest, Solver, Unsupported};

/// How a sharded engine splits the objects of an instance across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Object `x` goes to shard `x mod shards` (the default).
    #[default]
    RoundRobin,
    /// Longest-processing-time greedy on per-object request mass: heaviest
    /// object first, each to the currently lightest shard. Balances wall
    /// clock when workloads are skewed.
    CostWeighted,
}

impl PartitionStrategy {
    /// Every strategy, in presentation order.
    pub const ALL: [PartitionStrategy; 2] = [
        PartitionStrategy::RoundRobin,
        PartitionStrategy::CostWeighted,
    ];

    /// Stable kebab-case name (CLI value).
    pub fn name(self) -> &'static str {
        match self {
            PartitionStrategy::RoundRobin => "round-robin",
            PartitionStrategy::CostWeighted => "cost-weighted",
        }
    }

    /// Parses a kebab-case strategy name.
    pub fn parse(name: &str) -> Option<PartitionStrategy> {
        PartitionStrategy::ALL
            .into_iter()
            .find(|s| s.name() == name)
    }
}

impl std::fmt::Display for PartitionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Splits object indices `0..num_objects` into at most `shards` non-empty
/// groups under `strategy`. Every index appears in exactly one group;
/// groups are internally sorted ascending so merges are order-stable.
pub fn partition_objects(
    instance: &Instance,
    shards: usize,
    strategy: PartitionStrategy,
) -> Vec<Vec<usize>> {
    let k = instance.num_objects();
    let s = shards.clamp(1, k.max(1));
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); s];
    match strategy {
        PartitionStrategy::RoundRobin => {
            for x in 0..k {
                parts[x % s].push(x);
            }
        }
        PartitionStrategy::CostWeighted => {
            // LPT greedy; ties break on index / shard id, so the split is
            // deterministic for any workload.
            let mut order: Vec<usize> = (0..k).collect();
            order.sort_by(|&a, &b| {
                let (wa, wb) = (
                    instance.objects[a].total_requests(),
                    instance.objects[b].total_requests(),
                );
                wb.partial_cmp(&wa)
                    .expect("finite request masses")
                    .then(a.cmp(&b))
            });
            let mut load = vec![0.0f64; s];
            for x in order {
                let target = (0..s)
                    .min_by(|&a, &b| {
                        load[a]
                            .partial_cmp(&load[b])
                            .expect("finite")
                            .then(a.cmp(&b))
                    })
                    .expect("at least one shard");
                load[target] += instance.objects[x].total_requests();
                parts[target].push(x);
            }
            for part in &mut parts {
                part.sort_unstable();
            }
        }
    }
    parts.retain(|p| !p.is_empty() || k == 0);
    if parts.is_empty() {
        parts.push(Vec::new());
    }
    parts
}

/// Interns a dynamically-built registry name so trait methods can hand out
/// `&'static str`. The pool is tiny (one entry per distinct `sharded:*` /
/// `cap:*` lookup) and deduplicated, so the leak is bounded.
pub(crate) fn intern(s: String) -> &'static str {
    static POOL: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let mut pool = POOL
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .expect("name pool unpoisoned");
    if let Some(&existing) = pool.iter().find(|&&e| e == s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.into_boxed_str());
    pool.push(leaked);
    leaked
}

/// A meta-engine that shards the object set across parallel workers and
/// delegates each shard to an inner registry engine.
///
/// Construct via [`ShardedSolver::approx`] (the canonical `sharded-approx`
/// entry) or [`ShardedSolver::over`] (any inner engine, registry name
/// `sharded:<inner>`). Shard count and partition strategy come from the
/// [`SolveRequest`] (`shards`, `partition`).
#[derive(Debug, Clone, Copy)]
pub struct ShardedSolver {
    inner: &'static str,
    name: &'static str,
    description: &'static str,
}

impl ShardedSolver {
    /// The canonical sharded wrapper over the paper's approximation.
    pub fn approx() -> ShardedSolver {
        ShardedSolver {
            inner: "approx",
            name: "sharded-approx",
            description: "approx partitioned across worker shards (objects are independent); \
                 identical placement, wall-clock scales with SolveRequest::shards",
        }
    }

    /// A sharded wrapper over any *base* (non-sharded) registry engine,
    /// or over the capacitated family (`sharded:capacitated` /
    /// `sharded:cap:<inner>`: shards solve the capacitated engine's inner
    /// uncapacitated, the flow seed + capacitated local search run
    /// globally post-merge). Returns `None` for unknown inner names and
    /// for nested sharding; [`SolverSpec::parse`](crate::SolverSpec::parse)
    /// on the full `sharded:<inner>` spelling reports the reason.
    pub fn over(inner: &str) -> Option<ShardedSolver> {
        match crate::spec::SolverSpec::parse(inner).ok()? {
            crate::spec::SolverSpec::Sharded(_) => None,
            crate::spec::SolverSpec::Base("approx") => Some(ShardedSolver::approx()),
            crate::spec::SolverSpec::Base(base) => Some(ShardedSolver {
                inner: base,
                name: intern(format!("sharded:{base}")),
                description: intern(format!(
                    "{base} partitioned across worker shards; per-object engines merge \
                     losslessly (random-k reseeds per shard)"
                )),
            }),
            spec @ crate::spec::SolverSpec::Capacitated(_) => {
                let canonical = spec.name();
                let cap = crate::capacitated::CapacitatedSolver::parse(canonical)
                    .expect("capacitated spec round-trips");
                Some(ShardedSolver {
                    inner: canonical,
                    name: intern(format!("sharded:{canonical}")),
                    description: intern(format!(
                        "{} sharded: shards solve {} uncapacitated, the capacitated \
                         flow seed + local search run globally post-merge",
                        canonical,
                        cap.inner_name()
                    )),
                })
            }
        }
    }

    /// The inner engine's registry name.
    pub fn inner_name(&self) -> &'static str {
        self.inner
    }

    /// Effective shard count for `req` on an instance with `num_objects`
    /// objects: the requested count, or one shard per CPU when `0`, always
    /// clamped to the object count.
    pub fn effective_shards(req: &SolveRequest, num_objects: usize) -> usize {
        let requested = if req.shard.count == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            req.shard.count
        };
        requested.clamp(1, num_objects.max(1))
    }
}

impl Solver for ShardedSolver {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn supports(&self, instance: &Instance) -> Result<(), Unsupported> {
        crate::registry::solvers::by_name(self.inner)
            .expect("inner engine registered")
            .supports(instance)
    }

    fn solve(&self, instance: &Instance, req: &SolveRequest) -> SolveReport {
        let started = Instant::now();
        // For the capacitated family the shards solve the *capacitated
        // engine's inner* uncapacitated; the flow seed and capacitated
        // local search are global passes applied to the merged placement
        // below (capacity is a cross-object constraint, like the repair).
        let cap_family = crate::capacitated::CapacitatedSolver::parse(self.inner);
        let shard_engine = match &cap_family {
            Some(cap) => cap.inner_name(),
            None => self.inner,
        };
        let inner =
            crate::registry::solvers::by_name(shard_engine).expect("inner engine registered");
        inner.supports(instance).expect("solver applicability");

        // Force the metric closure once; object_subset shares the cached
        // table, so shard workers never redo the APSP. A sparse-backend
        // request never touches the dense closure — each shard builds its
        // own per-object truncated closures — so skip the O(n^2) force.
        if !req.wants_sparse_metric() {
            instance.metric();
        }
        let k = instance.num_objects();
        let shard_count = ShardedSolver::effective_shards(req, k);
        let parts = partition_objects(instance, shard_count, req.shard.partition);

        // Capacity repair is a cross-object constraint: strip it from the
        // inner solves and let SolveReport::build apply it to the merged
        // placement, exactly as the sequential engines do. Each shard runs
        // single-threaded — the shard fan-out below is the parallelism.
        let mut inner_req = req.clone();
        inner_req.cap.capacities = None;
        inner_req.shard.max_threads = Some(1);
        let warm = inner_req.fl.warm_placement.take();

        // `object_subset` renumbers the shard's objects 0.., so each shard
        // gets the warm seeds of exactly the objects it owns, in its order.
        let subs: Vec<(Vec<usize>, Instance, SolveRequest)> = parts
            .into_iter()
            .map(|idx| {
                let sub = instance.object_subset(&idx);
                let mut sub_req = inner_req.clone();
                sub_req.fl.warm_placement = warm.as_ref().map(|sets| {
                    idx.iter()
                        .map(|&x| sets.get(x).cloned().unwrap_or_default())
                        .collect()
                });
                (idx, sub, sub_req)
            })
            .collect();
        let shard_reports: Vec<SolveReport> = par_map_threads(
            &subs,
            req.shard.max_threads.or(Some(shard_count)),
            |(_, sub, sub_req)| inner.solve(sub, sub_req),
        );

        // Scatter sub-placements (and traces, when every shard produced
        // them) back to the original object indices.
        let mut sets: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut traces = vec![None; k];
        for ((idx, _, _), rep) in subs.iter().zip(&shard_reports) {
            for (j, &x) in idx.iter().enumerate() {
                sets[x] = rep.placement.copies(j).to_vec();
                if let Some(tr) = &rep.traces {
                    traces[x] = Some(tr[j].clone());
                }
            }
        }
        let traces = (req.collect_traces && traces.iter().all(Option::is_some))
            .then(|| traces.into_iter().map(|t| t.expect("checked")).collect());

        // Aggregate inner phases by name (summed seconds, first-appearance
        // order) and keep the per-shard wall/cost breakdown.
        let mut phases: Vec<PhaseStat> = Vec::new();
        for rep in &shard_reports {
            for p in &rep.phases {
                match phases.iter_mut().find(|q| q.name == p.name) {
                    Some(q) => q.seconds += p.seconds,
                    None => phases.push(PhaseStat::new(
                        p.name,
                        p.seconds,
                        format!("summed over {} shards", shard_reports.len()),
                    )),
                }
            }
        }
        let shard_stats: Vec<ShardStat> = subs
            .iter()
            .zip(&shard_reports)
            .enumerate()
            .map(|(s, ((idx, _, _), rep))| ShardStat {
                shard: s,
                objects: idx.len(),
                seconds: rep.wall_seconds,
                cost: rep.cost.total(),
            })
            .collect();

        let mut meta = vec![
            ("inner", self.inner.to_string()),
            ("shards", shard_stats.len().to_string()),
            ("partition", req.shard.partition.to_string()),
        ];
        // Any degraded shard degrades the merged result.
        let degraded = shard_reports.iter().any(|r| r.degraded);
        let deadline_exceeded = shard_reports.iter().any(|r| r.deadline_exceeded);
        let merged = Placement::from_copy_sets(sets);
        // The capacitated global pass post-merge (when requested);
        // feasibility then makes `build`'s uniform repair a no-op check.
        let mut capacity = None;
        let merged = match (&cap_family, &req.cap.capacities) {
            (Some(_), Some(_)) => {
                let fin = crate::capacitated::finish(instance, req, merged);
                phases.extend(fin.phases);
                meta.extend(fin.meta);
                capacity = Some(fin.stats);
                fin.placement
            }
            _ => merged,
        };
        let mut report = SolveReport::build(
            self.name(),
            instance,
            req,
            merged,
            phases,
            traces,
            meta,
            started,
        );
        report.shard_stats = shard_stats;
        // A service-load-only capacitated request (no copy caps) still
        // gets its assignment flow verdict, mirroring the sequential
        // engine's pass-through branch.
        if capacity.is_none() && cap_family.is_some() && req.cap.capacities.is_none() {
            if let Some(stats) = crate::capacitated::load_only_stats(instance, req, &report) {
                if let Some(lf) = stats.load_feasible {
                    report.meta.push(("load-feasible", lf.to_string()));
                }
                capacity = Some(stats);
            }
        }
        report.capacity = capacity;
        if degraded {
            report = report.mark_degraded(deadline_exceeded);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmn_core::instance::ObjectWorkload;
    use dmn_graph::generators;

    fn instance_with_masses(masses: &[f64]) -> Instance {
        let g = generators::path(4, |_| 1.0);
        let mut inst = Instance::builder(g).uniform_storage_cost(2.0).build();
        for &m in masses {
            inst.push_object(ObjectWorkload::from_sparse(4, [(0, m)], []));
        }
        inst
    }

    fn flatten_sorted(parts: &[Vec<usize>]) -> Vec<usize> {
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn strategies_cover_every_object_exactly_once() {
        let inst = instance_with_masses(&[1.0, 5.0, 2.0, 9.0, 3.0, 3.0, 1.0]);
        for strategy in PartitionStrategy::ALL {
            for shards in 1..=9 {
                let parts = partition_objects(&inst, shards, strategy);
                assert!(parts.len() <= shards.max(1), "{strategy} {shards}");
                assert!(parts.iter().all(|p| !p.is_empty()), "{strategy} {shards}");
                assert_eq!(
                    flatten_sorted(&parts),
                    (0..7).collect::<Vec<_>>(),
                    "{strategy} with {shards} shards lost or duplicated objects"
                );
            }
        }
    }

    #[test]
    fn round_robin_shape() {
        let inst = instance_with_masses(&[1.0; 5]);
        assert_eq!(
            partition_objects(&inst, 2, PartitionStrategy::RoundRobin),
            vec![vec![0, 2, 4], vec![1, 3]]
        );
    }

    #[test]
    fn cost_weighted_balances_skewed_masses() {
        // One 10-mass object vs four 1-mass objects: LPT puts the heavy
        // object alone and groups the light ones.
        let inst = instance_with_masses(&[10.0, 1.0, 1.0, 1.0, 1.0]);
        let parts = partition_objects(&inst, 2, PartitionStrategy::CostWeighted);
        assert_eq!(parts, vec![vec![0], vec![1, 2, 3, 4]]);
    }

    #[test]
    fn strategy_parse_roundtrip() {
        for s in PartitionStrategy::ALL {
            assert_eq!(PartitionStrategy::parse(s.name()), Some(s));
        }
        assert_eq!(PartitionStrategy::parse("no-such"), None);
        assert_eq!(PartitionStrategy::default(), PartitionStrategy::RoundRobin);
    }

    #[test]
    fn effective_shards_clamps() {
        let auto = SolveRequest::new();
        assert!(ShardedSolver::effective_shards(&auto, 100) >= 1);
        let four = SolveRequest::new().shards(4);
        assert_eq!(ShardedSolver::effective_shards(&four, 100), 4);
        assert_eq!(ShardedSolver::effective_shards(&four, 2), 2);
        assert_eq!(ShardedSolver::effective_shards(&four, 0), 1);
    }

    #[test]
    fn over_validates_inner_names() {
        assert_eq!(
            ShardedSolver::over("approx").unwrap().name(),
            "sharded-approx"
        );
        assert_eq!(ShardedSolver::over("krw").unwrap().name(), "sharded-approx");
        let t = ShardedSolver::over("tree-dp").unwrap();
        assert_eq!(t.name(), "sharded:tree-dp");
        assert_eq!(t.inner_name(), "tree-dp");
        assert!(ShardedSolver::over("no-such").is_none());
        assert!(
            ShardedSolver::over("sharded-approx").is_none(),
            "no nesting"
        );
        assert!(
            ShardedSolver::over("sharded:tree-dp").is_none(),
            "no nesting"
        );
    }

    #[test]
    fn interned_names_are_stable() {
        let a = ShardedSolver::over("best-single").unwrap();
        let b = ShardedSolver::over("best-single").unwrap();
        assert!(std::ptr::eq(a.name(), b.name()), "intern pool deduplicates");
    }
}
