//! Problem instances: a network plus per-object read/write frequencies.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use dmn_graph::dijkstra::apsp;
use dmn_graph::{Graph, Metric, NodeId};

/// Read and write request frequencies of one shared data object.
///
/// Frequencies are non-negative real weights; the paper's natural-number
/// frequencies are the integral special case. `reads[v]` is `fr(v, x)` and
/// `writes[v]` is `fw(v, x)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectWorkload {
    /// Read frequency per node (`fr`).
    pub reads: Vec<f64>,
    /// Write frequency per node (`fw`).
    pub writes: Vec<f64>,
}

impl ObjectWorkload {
    /// An object with zero frequencies everywhere on an `n`-node network.
    pub fn new(n: usize) -> Self {
        ObjectWorkload {
            reads: vec![0.0; n],
            writes: vec![0.0; n],
        }
    }

    /// Builds a workload from explicit `(node, frequency)` lists.
    pub fn from_sparse(
        n: usize,
        reads: impl IntoIterator<Item = (NodeId, f64)>,
        writes: impl IntoIterator<Item = (NodeId, f64)>,
    ) -> Self {
        let mut w = ObjectWorkload::new(n);
        for (v, f) in reads {
            w.reads[v] += f;
        }
        for (v, f) in writes {
            w.writes[v] += f;
        }
        w
    }

    /// Number of nodes the workload is defined over.
    pub fn num_nodes(&self) -> usize {
        self.reads.len()
    }

    /// Total read frequency.
    pub fn total_reads(&self) -> f64 {
        self.reads.iter().sum()
    }

    /// Total write frequency — the paper's `W`.
    pub fn total_writes(&self) -> f64 {
        self.writes.iter().sum()
    }

    /// Total request mass (reads + writes). After the restricted-cost
    /// split, reads and the write→nearest-copy legs are accounted
    /// identically, so most of the machinery only needs this combined mass.
    pub fn total_requests(&self) -> f64 {
        self.total_reads() + self.total_writes()
    }

    /// Combined request mass at `v` (`fr(v) + fw(v)`).
    #[inline]
    pub fn request_mass(&self, v: NodeId) -> f64 {
        self.reads[v] + self.writes[v]
    }

    /// Per-node combined request masses.
    pub fn request_masses(&self) -> Vec<f64> {
        (0..self.num_nodes())
            .map(|v| self.request_mass(v))
            .collect()
    }

    /// True when the object is never written.
    pub fn is_read_only(&self) -> bool {
        self.writes.iter().all(|&w| w == 0.0)
    }

    /// Checks frequencies are finite and non-negative.
    pub fn validate(&self) -> Result<(), String> {
        assert_eq!(self.reads.len(), self.writes.len());
        for (v, (&r, &w)) in self.reads.iter().zip(&self.writes).enumerate() {
            if !(r.is_finite() && r >= 0.0) {
                return Err(format!("read frequency at node {v} is invalid: {r}"));
            }
            if !(w.is_finite() && w >= 0.0) {
                return Err(format!("write frequency at node {v} is invalid: {w}"));
            }
        }
        if self.total_requests() == 0.0 {
            return Err("object has no requests at all".into());
        }
        Ok(())
    }
}

/// Why an instance (or a piece of one) failed validation.
///
/// [`InstanceBuilder::try_build`] and [`Instance::try_push_object`]
/// return these where the panicking [`InstanceBuilder::build`] /
/// [`Instance::push_object`] entry points would abort; loaders that
/// handle untrusted input (scenario files, the server's event stream)
/// use the `try_` forms and surface the error in-band.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// The network has no nodes.
    EmptyNetwork,
    /// The network is not connected, so distances are undefined.
    Disconnected,
    /// The storage-cost vector is sized for a different network.
    StorageCostLength { expected: usize, got: usize },
    /// A storage cost is negative or NaN (`+inf` is allowed: it forbids
    /// copies on the node).
    BadStorageCost { node: usize, value: f64 },
    /// An object workload is sized for a different network.
    WorkloadSize {
        object: usize,
        expected: usize,
        got: usize,
    },
    /// An object workload has a NaN/negative/infinite frequency or no
    /// requests at all.
    BadWorkload { object: usize, reason: String },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::EmptyNetwork => write!(f, "instance needs at least one node"),
            ValidationError::Disconnected => write!(f, "the network must be connected"),
            ValidationError::StorageCostLength { expected, got } => write!(
                f,
                "storage cost vector length mismatch: {got} costs for {expected} nodes"
            ),
            ValidationError::BadStorageCost { node, value } => {
                write!(f, "storage cost at node {node} invalid: {value}")
            }
            ValidationError::WorkloadSize {
                object,
                expected,
                got,
            } => write!(
                f,
                "object {object} workload sized for {got} nodes on a {expected}-node network"
            ),
            ValidationError::BadWorkload { object, reason } => {
                write!(f, "object {object}: {reason}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// A static data management instance: network, storage costs, objects.
#[derive(Debug)]
pub struct Instance {
    /// The network; edge weights are the transmission costs `ct`.
    pub graph: Graph,
    /// Storage cost `cs(v)` per node.
    pub storage_cost: Vec<f64>,
    /// The shared objects with their request frequencies.
    pub objects: Vec<ObjectWorkload>,
    metric: OnceLock<Arc<Metric>>,
    /// When this instance started building its dense closure, and the
    /// wall-clock seconds the build took (unset when the metric was
    /// injected, inherited from a parent view, or never forced).
    metric_build: OnceLock<(Instant, f64)>,
}

impl Instance {
    /// Starts building an instance over `graph`.
    pub fn builder(graph: Graph) -> InstanceBuilder {
        InstanceBuilder {
            graph,
            storage_cost: None,
        }
    }

    /// Number of network nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of objects.
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// Appends an object workload.
    ///
    /// # Panics
    /// Panics when the workload is sized for a different network or has
    /// invalid frequencies.
    pub fn push_object(&mut self, w: ObjectWorkload) {
        assert_eq!(w.num_nodes(), self.num_nodes(), "workload size mismatch");
        w.validate().expect("invalid workload");
        self.objects.push(w);
    }

    /// Appends an object workload, returning a typed error instead of
    /// panicking when it is sized for a different network or carries
    /// invalid frequencies.
    pub fn try_push_object(&mut self, w: ObjectWorkload) -> Result<(), ValidationError> {
        let object = self.objects.len();
        if w.num_nodes() != self.num_nodes() {
            return Err(ValidationError::WorkloadSize {
                object,
                expected: self.num_nodes(),
                got: w.num_nodes(),
            });
        }
        w.validate()
            .map_err(|reason| ValidationError::BadWorkload { object, reason })?;
        self.objects.push(w);
        Ok(())
    }

    /// The metric closure `ct(u, v)` of the network, computed on first use
    /// and cached (behind an `Arc`, so sub-views share it for free).
    pub fn metric(&self) -> &Metric {
        self.metric
            .get_or_init(|| {
                let clock = Instant::now();
                let m = Arc::new(apsp(&self.graph));
                let _ = self
                    .metric_build
                    .set((clock, clock.elapsed().as_secs_f64()));
                m
            })
            .as_ref()
    }

    /// Seconds spent building the dense metric closure of *this* instance
    /// (0.0 when it was never built here — injected, shared, or still
    /// lazy).
    pub fn metric_build_seconds(&self) -> f64 {
        self.metric_build.get().map_or(0.0, |&(_, seconds)| seconds)
    }

    /// [`Instance::metric_build_seconds`] when the build started at or
    /// after `since`, else 0.0: the build a solve that started at `since`
    /// paid for. Reports surface this as the `metric-build` phase.
    pub fn metric_build_seconds_since(&self, since: Instant) -> f64 {
        match self.metric_build.get() {
            Some(&(start, seconds)) if start >= since => seconds,
            _ => 0.0,
        }
    }

    /// Overrides the cached metric (used when a cheaper construction is
    /// available, e.g. tree distances, or in tests).
    pub fn with_metric(mut self, metric: Metric) -> Self {
        assert_eq!(metric.len(), self.num_nodes());
        self.metric = OnceLock::from(Arc::new(metric));
        self
    }

    /// A sub-instance over the same network holding only the objects at
    /// `indices` (in the given order). The already-computed metric closure
    /// is shared with the sub-view (an `Arc` clone, no `O(n^2)` copy), so a
    /// reordered view (the order-equivalence checks) never recomputes APSP;
    /// callers that care should force it first with [`Instance::metric`].
    ///
    /// # Panics
    /// Panics when an index is out of range.
    pub fn object_subset(&self, indices: &[usize]) -> Instance {
        let objects = indices
            .iter()
            .map(|&x| {
                assert!(x < self.num_objects(), "object index {x} out of range");
                self.objects[x].clone()
            })
            .collect();
        let metric = match self.metric.get() {
            Some(m) => OnceLock::from(Arc::clone(m)),
            None => OnceLock::new(),
        };
        Instance {
            graph: self.graph.clone(),
            storage_cost: self.storage_cost.clone(),
            objects,
            metric,
            metric_build: OnceLock::new(),
        }
    }
}

/// Builder for [`Instance`].
pub struct InstanceBuilder {
    graph: Graph,
    storage_cost: Option<Vec<f64>>,
}

impl InstanceBuilder {
    /// Sets an explicit per-node storage cost vector `cs`.
    pub fn storage_costs(mut self, cs: Vec<f64>) -> Self {
        self.storage_cost = Some(cs);
        self
    }

    /// Sets the same storage cost on every node.
    pub fn uniform_storage_cost(mut self, c: f64) -> Self {
        self.storage_cost = Some(vec![c; self.graph.num_nodes()]);
        self
    }

    /// Finishes the instance (no objects yet; add them with
    /// [`Instance::push_object`]).
    ///
    /// # Panics
    /// Panics when the graph is disconnected, the storage-cost vector has
    /// the wrong length, or a storage cost is negative/non-finite.
    /// Storage costs may be `f64::INFINITY` to forbid copies on a node.
    pub fn build(self) -> Instance {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`InstanceBuilder::build`], but returns a typed
    /// [`ValidationError`] instead of panicking — the entry point for
    /// untrusted input (scenario files, wire protocols).
    pub fn try_build(self) -> Result<Instance, ValidationError> {
        let n = self.graph.num_nodes();
        if n == 0 {
            return Err(ValidationError::EmptyNetwork);
        }
        if !self.graph.is_connected() {
            return Err(ValidationError::Disconnected);
        }
        let cs = self.storage_cost.unwrap_or_else(|| vec![0.0; n]);
        if cs.len() != n {
            return Err(ValidationError::StorageCostLength {
                expected: n,
                got: cs.len(),
            });
        }
        for (v, &c) in cs.iter().enumerate() {
            // +inf is a legal "never store here"; negative and NaN are not.
            if c < 0.0 || c.is_nan() {
                return Err(ValidationError::BadStorageCost { node: v, value: c });
            }
        }
        Ok(Instance {
            graph: self.graph,
            storage_cost: cs,
            objects: Vec::new(),
            metric: OnceLock::new(),
            metric_build: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmn_graph::generators;

    #[test]
    fn builder_defaults_and_push() {
        let g = generators::path(4, |_| 1.0);
        let mut inst = Instance::builder(g).uniform_storage_cost(3.0).build();
        assert_eq!(inst.storage_cost, vec![3.0; 4]);
        let mut w = ObjectWorkload::new(4);
        w.reads[0] = 2.0;
        w.writes[3] = 1.0;
        inst.push_object(w);
        assert_eq!(inst.num_objects(), 1);
        assert_eq!(inst.objects[0].total_requests(), 3.0);
        assert_eq!(inst.objects[0].total_writes(), 1.0);
        assert!(!inst.objects[0].is_read_only());
    }

    #[test]
    fn metric_is_cached_shortest_paths() {
        let g = generators::path(3, |i| (i + 1) as f64); // edges 1, 2
        let inst = Instance::builder(g).build();
        assert_eq!(inst.metric().dist(0, 2), 3.0);
        assert_eq!(inst.metric().dist(2, 1), 2.0);
    }

    #[test]
    fn sparse_workload_accumulates() {
        let w = ObjectWorkload::from_sparse(3, [(0, 1.0), (0, 2.0)], [(2, 4.0)]);
        assert_eq!(w.reads[0], 3.0);
        assert_eq!(w.writes[2], 4.0);
        assert_eq!(w.request_mass(0), 3.0);
        assert_eq!(w.total_requests(), 7.0);
    }

    #[test]
    fn workload_validation() {
        let w = ObjectWorkload::new(3);
        assert!(w.validate().is_err(), "empty workload rejected");
        let w = ObjectWorkload::from_sparse(3, [(1, 1.0)], []);
        assert!(w.validate().is_ok());
    }

    #[test]
    fn object_subset_shares_metric_and_reorders() {
        let g = generators::path(3, |_| 1.0);
        let mut inst = Instance::builder(g).uniform_storage_cost(2.0).build();
        for v in 0..3 {
            inst.push_object(ObjectWorkload::from_sparse(3, [(v, 1.0 + v as f64)], []));
        }
        let _ = inst.metric(); // force, so the subset shares the closure
        let sub = inst.object_subset(&[2, 0]);
        assert_eq!(sub.num_objects(), 2);
        assert_eq!(sub.objects[0], inst.objects[2]);
        assert_eq!(sub.objects[1], inst.objects[0]);
        assert_eq!(sub.storage_cost, inst.storage_cost);
        // The cached closure is *shared*, not copied: same allocation.
        assert!(std::ptr::eq(inst.metric(), sub.metric()));
        assert_eq!(sub.metric().dist(0, 2), 2.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn object_subset_rejects_bad_index() {
        let g = generators::path(2, |_| 1.0);
        let mut inst = Instance::builder(g).build();
        inst.push_object(ObjectWorkload::from_sparse(2, [(0, 1.0)], []));
        let _ = inst.object_subset(&[1]);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_graph_rejected() {
        let g = Graph::new(2);
        Instance::builder(g).build();
    }

    #[test]
    fn try_build_returns_typed_errors() {
        let err = Instance::builder(Graph::new(0)).try_build().unwrap_err();
        assert_eq!(err, ValidationError::EmptyNetwork);

        let err = Instance::builder(Graph::new(2)).try_build().unwrap_err();
        assert_eq!(err, ValidationError::Disconnected);

        let g = generators::path(3, |_| 1.0);
        let err = Instance::builder(g)
            .storage_costs(vec![1.0])
            .try_build()
            .unwrap_err();
        assert_eq!(
            err,
            ValidationError::StorageCostLength {
                expected: 3,
                got: 1
            }
        );

        let g = generators::path(2, |_| 1.0);
        let err = Instance::builder(g)
            .storage_costs(vec![0.0, -2.0])
            .try_build()
            .unwrap_err();
        assert!(matches!(
            err,
            ValidationError::BadStorageCost { node: 1, .. }
        ));
        assert!(err.to_string().contains("node 1"), "{err}");
    }

    #[test]
    fn try_push_object_returns_typed_errors() {
        let g = generators::path(2, |_| 1.0);
        let mut inst = Instance::builder(g).build();
        let err = inst.try_push_object(ObjectWorkload::new(3)).unwrap_err();
        assert_eq!(
            err,
            ValidationError::WorkloadSize {
                object: 0,
                expected: 2,
                got: 3
            }
        );
        let mut bad = ObjectWorkload::new(2);
        bad.reads[0] = f64::NAN;
        assert!(matches!(
            inst.try_push_object(bad),
            Err(ValidationError::BadWorkload { object: 0, .. })
        ));
        assert!(inst
            .try_push_object(ObjectWorkload::from_sparse(2, [(0, 1.0)], []))
            .is_ok());
        assert_eq!(inst.num_objects(), 1);
    }

    #[test]
    fn infinite_storage_cost_allowed() {
        let g = generators::path(2, |_| 1.0);
        let inst = Instance::builder(g)
            .storage_costs(vec![0.0, f64::INFINITY])
            .build();
        assert!(inst.storage_cost[1].is_infinite());
    }
}
