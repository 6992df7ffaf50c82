//! The placement server core: live instance, epoch swaps, background
//! re-optimization.
//!
//! [`ServerHandle::start`] solves the initial instance once through the
//! `dmn-solve` registry and publishes epoch 1. From then on two planes
//! run concurrently:
//!
//! * the **read plane** ([`ServerHandle::lookup`]) answers
//!   `where-do-I-read` from the current [`PlacementSnapshot`] behind an
//!   `RwLock<Arc<_>>` — the write lock is held only for the pointer swap,
//!   so readers never block on a solve and never observe a torn
//!   placement (each snapshot is immutable);
//! * the **write plane** ([`ServerHandle::apply`]) mutates the live
//!   instance under a separate mutex and accumulates *drift*: the
//!   absolute request mass shifted since the last accepted solve.
//!   Structural churn (object add/remove, node up/down) re-solves
//!   immediately; demand drift re-solves once it exceeds
//!   [`ServerConfig::resolve_threshold`] times the baseline mass.
//!
//! Re-solves run on one background worker thread and swap in an
//! epoch-incremented snapshot on completion. Each re-solve is a cold
//! solve of the live instance; the default request seeds its phase-1
//! local search from Mettu–Plaxton ([`FlSolverKind::LocalSearchWarm`]),
//! not from the incumbent placement. Drift that arrives *during* a solve
//! survives the swap (the worker only subtracts the drift it captured),
//! so a demand shift can never be silently absorbed by an older solve.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use dmn_core::cost::CostBreakdown;
use dmn_core::faults::{self, Injected};
use dmn_core::instance::{Instance, ObjectWorkload};
use dmn_core::placement::Placement;
use dmn_core::telemetry::{self, Counter, Gauge, Histogram};
use dmn_graph::{Graph, Metric, NodeId};
use dmn_json::Json;
use dmn_solve::{solvers, FlSolverKind, SolveRequest};

use crate::event::Event;
use crate::snapshot::{Lookup, PlacementSnapshot};

/// Locks a mutex, healing poison: an injected (or real) panic on another
/// thread must not cascade into every later request — the protected
/// state is only ever mutated under short, crash-consistent critical
/// sections, so the value behind a poisoned lock is still valid.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn read_clean<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_clean<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

fn wait_clean<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// Configuration of a placement server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Registry name of the placement engine (any `dmn-solve` solver).
    pub solver: String,
    /// Solve-time options; re-solves reuse it verbatim. The default
    /// selects [`FlSolverKind::LocalSearchWarm`], so every solve's phase-1
    /// local search starts from Mettu–Plaxton (not from the incumbent
    /// placement).
    pub request: SolveRequest,
    /// Demand drift tolerated before a re-solve, as a fraction of the
    /// baseline request mass (structural churn always re-solves).
    pub resolve_threshold: f64,
    /// Run the background re-solve worker. When `false`, the placement
    /// only changes through explicit [`ServerHandle::resolve_now`] calls.
    pub background: bool,
    /// Enable the process-wide [`dmn_core::telemetry`] registry when the
    /// server starts (the default), so a live daemon always answers the
    /// `metrics` wire request with real data. `false` leaves the
    /// registry's enabled flag untouched — it never disables telemetry
    /// another component turned on. Lookup latency is *sampled* (every
    /// [`LOOKUP_SAMPLE_INTERVAL`]th lookup), keeping the enabled
    /// overhead within the `obs_ok` timing floor's 10 % budget.
    pub telemetry: bool,
    /// Self-healing knobs (watchdog, retries, backpressure).
    pub resilience: ResilienceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            solver: "approx".into(),
            request: SolveRequest::new().fl_solver(FlSolverKind::LocalSearchWarm),
            resolve_threshold: 0.02,
            background: true,
            telemetry: true,
            resilience: ResilienceConfig::default(),
        }
    }
}

/// One lookup in this many is latency-sampled into the telemetry
/// histogram (power of two; the hot path masks the lookup counter with
/// `interval - 1`). 256 keeps the amortized clock cost well under the
/// `obs_ok` gate's 10 % budget even where `Instant::now` is a real
/// syscall, while a million-lookup replay still lands ~4k samples.
pub const LOOKUP_SAMPLE_INTERVAL: u64 = 256;

/// Knobs of the server's self-healing machinery. A failed or timed-out
/// re-solve never takes the server down: the last good epoch stays
/// live, the captured drift stays charged (so the trigger re-arms), and
/// the worker retries with exponential backoff up to
/// [`ResilienceConfig::max_retries`] consecutive attempts — after that
/// it waits for the next event to kick it again.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Watchdog timeout for a single re-solve attempt, in seconds. A
    /// solve still running past it is abandoned (its result discarded)
    /// and counted as a failure. `f64::INFINITY` never abandons a solve.
    pub solve_timeout_seconds: f64,
    /// Consecutive failed attempts before the worker stops auto-retrying
    /// (events re-arm it; `resolve_now` always makes a fresh attempt).
    pub max_retries: u32,
    /// First retry delay in seconds; doubles per consecutive failure.
    pub backoff_base_seconds: f64,
    /// Ceiling on the retry delay in seconds.
    pub backoff_max_seconds: f64,
    /// Bound on the pending demand-delta queue. A burst larger than this
    /// sheds its *oldest* deltas (newest state wins; structural events
    /// are never shed) and counts them in
    /// [`ResolveHealth::shed_deltas`].
    pub event_queue_capacity: usize,
    /// Per-connection TCP read timeout in seconds; a client that stalls
    /// mid-line longer than this is disconnected instead of pinning its
    /// handler thread forever.
    pub read_timeout_seconds: f64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            solve_timeout_seconds: 30.0,
            max_retries: 3,
            backoff_base_seconds: 0.05,
            backoff_max_seconds: 2.0,
            event_queue_capacity: 4096,
            read_timeout_seconds: 30.0,
        }
    }
}

/// Health of the background re-solve pipeline, surfaced in
/// [`ServerHandle::status`] (the `health` block of the TCP `status`
/// response).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResolveHealth {
    /// Failed attempts since the last successful epoch swap.
    pub consecutive_failures: u32,
    /// Failed attempts over the server's lifetime.
    pub total_failures: u64,
    /// Re-solve attempts abandoned by the watchdog.
    pub timeouts: u64,
    /// What the most recent failure said (panic message, timeout, ...).
    pub last_error: Option<String>,
    /// Current retry delay in seconds (0 when healthy).
    pub backoff_seconds: f64,
    /// Demand deltas shed by the bounded event queue.
    pub shed_deltas: u64,
    /// The snapshot being served was produced by a degraded solve
    /// (deadline fallback placements).
    pub last_epoch_degraded: bool,
}

impl ResolveHealth {
    /// True when the server is knowingly serving stale or sub-optimal
    /// state: re-solves are failing, or the live epoch is degraded.
    pub fn degraded(&self) -> bool {
        self.consecutive_failures > 0 || self.last_epoch_degraded
    }

    /// The `health` block of the status document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("degraded", Json::Bool(self.degraded())),
            (
                "consecutive_failures",
                Json::Num(self.consecutive_failures as f64),
            ),
            ("total_failures", Json::Num(self.total_failures as f64)),
            ("timeouts", Json::Num(self.timeouts as f64)),
            (
                "last_error",
                self.last_error
                    .as_ref()
                    .map_or(Json::Null, |e| Json::Str(e.clone())),
            ),
            ("backoff_seconds", Json::Num(self.backoff_seconds)),
            ("shed_deltas", Json::Num(self.shed_deltas as f64)),
            ("last_epoch_degraded", Json::Bool(self.last_epoch_degraded)),
        ])
    }
}

/// The cells behind [`ResolveHealth`]. Every hot counter is an atomic,
/// so [`ServerHandle::status`] and [`ServerHandle::health`] assemble
/// their snapshot lock-free — a stalled or long-running re-solve can
/// never block the read path. Only the failure *message* sits behind a
/// mutex, held for single assignments and never across a solve.
#[derive(Debug, Default)]
struct HealthCells {
    consecutive_failures: AtomicU32,
    total_failures: AtomicU64,
    timeouts: AtomicU64,
    /// Deltas shed by the bounded event queue (moved here from the
    /// state mutex so shedding and reading never contend).
    shed_deltas: AtomicU64,
    /// Current retry backoff, stored as `f64::to_bits`.
    backoff_bits: AtomicU64,
    last_epoch_degraded: AtomicBool,
    last_error: Mutex<Option<String>>,
}

impl HealthCells {
    /// The public snapshot; all counter reads are relaxed loads.
    fn snapshot(&self) -> ResolveHealth {
        ResolveHealth {
            consecutive_failures: self.consecutive_failures.load(Ordering::Relaxed),
            total_failures: self.total_failures.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            last_error: lock_clean(&self.last_error).clone(),
            backoff_seconds: f64::from_bits(self.backoff_bits.load(Ordering::Relaxed)),
            shed_deltas: self.shed_deltas.load(Ordering::Relaxed),
            last_epoch_degraded: self.last_epoch_degraded.load(Ordering::Relaxed),
        }
    }
}

/// Why the server rejected a call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The configured solver name is not in the registry. Carries the
    /// registry's explanation, which names the bad spelling
    /// (`aprox` → `unknown solver "aprox"`).
    UnknownSolver(String),
    /// The configured solver cannot run on the instance.
    Unsupported(String),
    /// No live placed object has this id (never assigned, removed, or
    /// currently parked with zero demand).
    UnknownObject(u64),
    /// A node id beyond the network size.
    NodeOutOfRange(NodeId),
    /// A structurally invalid event (bad frequencies, last node down...).
    BadEvent(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::UnknownSolver(reason) => write!(f, "unknown solver: {reason}"),
            ServerError::Unsupported(why) => write!(f, "solver unsupported: {why}"),
            ServerError::UnknownObject(id) => write!(f, "unknown object {id}"),
            ServerError::NodeOutOfRange(v) => write!(f, "node {v} out of range"),
            ServerError::BadEvent(why) => write!(f, "bad event: {why}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// What applying an [`Event`] did.
#[derive(Debug, Clone, PartialEq)]
pub enum Applied {
    /// A demand delta landed; `drift` is the mass actually shifted after
    /// clamping frequencies at zero.
    Delta {
        /// Target object.
        object: u64,
        /// Drift mass charged against the re-solve threshold.
        drift: f64,
    },
    /// A new object was admitted under the returned stable id.
    ObjectAdded {
        /// The assigned id (dense, never reused).
        object: u64,
    },
    /// The object was removed; its id will never answer again.
    ObjectRemoved {
        /// The removed id.
        object: u64,
    },
    /// The node went out of service.
    NodeDown {
        /// The affected node.
        node: NodeId,
    },
    /// The node returned to service.
    NodeUp {
        /// The affected node.
        node: NodeId,
    },
}

/// Counters of a running server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerStats {
    /// Lookups answered (including failed id resolutions).
    pub lookups: u64,
    /// Events applied.
    pub events: u64,
    /// Completed re-solves (epoch swaps past the initial solve).
    pub resolves: u64,
    /// Wall seconds of the most recent solve (initial solve included).
    pub last_resolve_seconds: f64,
    /// Worst solve wall time observed.
    pub max_resolve_seconds: f64,
}

/// One object of the live instance, keyed by stable id.
#[derive(Debug, Clone)]
struct ObjectState {
    id: u64,
    reads: Vec<f64>,
    writes: Vec<f64>,
}

impl ObjectState {
    /// Request mass that currently reaches the solver (down nodes muted).
    fn effective_mass(&self, node_down: &[bool]) -> f64 {
        (0..self.reads.len())
            .filter(|&v| !node_down[v])
            .map(|v| self.reads[v] + self.writes[v])
            .sum()
    }
}

/// The mutable instance the next re-solve will be computed from.
#[derive(Debug)]
struct LiveState {
    base_storage: Vec<f64>,
    node_down: Vec<bool>,
    /// Live objects only; removal swap-compacts the vec, so memory tracks
    /// the live population rather than every id ever created.
    objects: Vec<ObjectState>,
    /// Stable id -> current slot in `objects` (O(1) event application).
    slots: HashMap<u64, usize>,
    next_id: u64,
    /// Absolute request mass shifted since the last accepted solve.
    drift_mass: f64,
    /// Total live mass at the last accepted solve (threshold base).
    baseline_mass: f64,
    /// Structural events (add/remove/up/down) since the last solve.
    structural: u64,
    /// Validated demand deltas awaiting application. Normally drained
    /// within the same [`ServerHandle::apply`] call that enqueued them;
    /// the bound only bites under event floods, where the *oldest*
    /// deltas are shed (structural events never queue here).
    pending_deltas: VecDeque<PendingDelta>,
}

/// A validated demand delta in the bounded apply queue.
#[derive(Debug, Clone, Copy)]
struct PendingDelta {
    object: u64,
    node: NodeId,
    read_delta: f64,
    write_delta: f64,
}

impl LiveState {
    /// Enqueues a validated delta, shedding the *oldest* queued deltas
    /// when the bound is hit — the newest demand information wins.
    /// Returns how many deltas were shed; the caller charges them to
    /// the health counter behind [`ResolveHealth::shed_deltas`].
    fn enqueue_delta(&mut self, delta: PendingDelta, capacity: usize) -> u64 {
        let mut shed = 0;
        while self.pending_deltas.len() >= capacity.max(1) {
            self.pending_deltas.pop_front();
            shed += 1;
        }
        self.pending_deltas.push_back(delta);
        shed
    }

    /// Applies every queued delta in arrival order, charging the drift
    /// accounting per delta. Returns the drift of the last delta applied
    /// (the caller's own event, which is always enqueued last and never
    /// shed). Deltas for objects removed since validation are dropped.
    fn drain_deltas(&mut self) -> f64 {
        let mut last = 0.0;
        while let Some(d) = self.pending_deltas.pop_front() {
            let Some(&slot) = self.slots.get(&d.object) else {
                continue;
            };
            let obj = &mut self.objects[slot];
            let new_reads = (obj.reads[d.node] + d.read_delta).max(0.0);
            let new_writes = (obj.writes[d.node] + d.write_delta).max(0.0);
            let drift =
                (new_reads - obj.reads[d.node]).abs() + (new_writes - obj.writes[d.node]).abs();
            obj.reads[d.node] = new_reads;
            obj.writes[d.node] = new_writes;
            self.drift_mass += drift;
            last = drift;
        }
        last
    }

    fn live_mass(&self) -> f64 {
        self.objects
            .iter()
            .map(|o| o.effective_mass(&self.node_down))
            .sum()
    }

    /// Materializes the live instance: down nodes get infinite storage
    /// cost and muted demand; zero-mass ("parked") objects are
    /// excluded. Returns the instance plus the stable id of each dense
    /// object slot. Deterministic: two calls on the same state produce
    /// identical instances, which is what makes the snapshot cost
    /// bitwise-comparable to a from-scratch solve.
    fn build_instance(&self, graph: &Graph, metric: &Metric) -> (Instance, Vec<u64>) {
        let n = graph.num_nodes();
        let mut cs = self.base_storage.clone();
        for (cost, &down) in cs.iter_mut().zip(&self.node_down) {
            if down {
                *cost = f64::INFINITY;
            }
        }
        let mut instance = Instance::builder(graph.clone())
            .storage_costs(cs)
            .build()
            .with_metric(metric.clone());
        let mut ids = Vec::new();
        for obj in &self.objects {
            let mut w = ObjectWorkload::new(n);
            for v in 0..n {
                if !self.node_down[v] {
                    w.reads[v] = obj.reads[v];
                    w.writes[v] = obj.writes[v];
                }
            }
            if w.total_requests() <= 0.0 {
                continue; // parked until demand returns
            }
            instance.push_object(w);
            ids.push(obj.id);
        }
        (instance, ids)
    }
}

/// Background-worker handshake.
#[derive(Debug, Default)]
struct ResolveSync {
    pending: bool,
    in_flight: bool,
    shutdown: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct ResolveTimings {
    last_seconds: f64,
    max_seconds: f64,
}

struct Inner {
    graph: Graph,
    /// The metric closure, computed once; node churn does not change the
    /// network, so every epoch shares it.
    metric: Metric,
    cfg: ServerConfig,
    state: Mutex<LiveState>,
    snapshot: RwLock<Arc<PlacementSnapshot>>,
    sync: Mutex<ResolveSync>,
    cv: Condvar,
    /// Last solve's `SolveReport::to_json` (the status endpoint reuses
    /// the shared report serialization).
    report_json: Mutex<Json>,
    timings: Mutex<ResolveTimings>,
    health: HealthCells,
    lookups: AtomicU64,
    events: AtomicU64,
    resolves: AtomicU64,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Interned telemetry handles, resolved once at start so hot paths
    /// never touch the registry lock.
    lookup_latency: &'static Histogram,
    queue_depth: &'static Gauge,
    shed_total: &'static Counter,
    resolve_attempts: &'static Counter,
    resolve_failures: &'static Counter,
    epoch_swaps: &'static Counter,
}

/// A handle on a running placement server (clone freely; all clones
/// address the same server).
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
}

impl ServerHandle {
    /// Solves `instance` once with the configured engine and starts
    /// serving it as epoch 1 (spawning the background re-solve worker
    /// unless [`ServerConfig::background`] is off). Objects get stable
    /// ids `0..k` in instance order.
    ///
    /// # Errors
    /// [`ServerError::UnknownSolver`] / [`ServerError::Unsupported`] when
    /// the configured engine cannot run on the instance.
    pub fn start(instance: &Instance, cfg: ServerConfig) -> Result<ServerHandle, ServerError> {
        if cfg.telemetry {
            // Enable-only: a server never turns off telemetry some other
            // component (or an operator) switched on.
            telemetry::set_enabled(true);
        }
        let solver =
            solvers::resolve(&cfg.solver).map_err(|u| ServerError::UnknownSolver(u.reason))?;
        solver
            .supports(instance)
            .map_err(|u| ServerError::Unsupported(u.reason))?;
        let metric = instance.metric().clone();
        let n = instance.num_nodes();
        let mut state = LiveState {
            base_storage: instance.storage_cost.clone(),
            node_down: vec![false; n],
            objects: instance
                .objects
                .iter()
                .enumerate()
                .map(|(x, w)| ObjectState {
                    id: x as u64,
                    reads: w.reads.clone(),
                    writes: w.writes.clone(),
                })
                .collect(),
            slots: (0..instance.num_objects()).map(|x| (x as u64, x)).collect(),
            next_id: instance.num_objects() as u64,
            drift_mass: 0.0,
            baseline_mass: 0.0,
            structural: 0,
            pending_deltas: VecDeque::new(),
        };
        state.baseline_mass = state.live_mass();

        let (initial, ids) = state.build_instance(&instance.graph, &metric);
        let t0 = Instant::now();
        let report = solver.solve(&initial, &cfg.request);
        let seconds = t0.elapsed().as_secs_f64();
        let snapshot = PlacementSnapshot::build(
            1,
            &cfg.solver,
            &metric,
            report.placement.clone(),
            report.cost,
            ids,
            seconds,
        );

        let background = cfg.background;
        let health = HealthCells::default();
        health
            .last_epoch_degraded
            .store(report.degraded, Ordering::Relaxed);
        let inner = Arc::new(Inner {
            graph: instance.graph.clone(),
            metric,
            cfg,
            state: Mutex::new(state),
            snapshot: RwLock::new(Arc::new(snapshot)),
            sync: Mutex::new(ResolveSync::default()),
            cv: Condvar::new(),
            report_json: Mutex::new(report.to_json()),
            timings: Mutex::new(ResolveTimings {
                last_seconds: seconds,
                max_seconds: seconds,
            }),
            health,
            lookups: AtomicU64::new(0),
            events: AtomicU64::new(0),
            resolves: AtomicU64::new(0),
            worker: Mutex::new(None),
            lookup_latency: telemetry::histogram(telemetry::names::SERVER_LOOKUP_SECONDS),
            queue_depth: telemetry::gauge(telemetry::names::SERVER_QUEUE_DEPTH),
            shed_total: telemetry::counter(telemetry::names::SERVER_SHED_DELTAS_TOTAL),
            resolve_attempts: telemetry::counter(telemetry::names::SERVER_RESOLVE_ATTEMPTS_TOTAL),
            resolve_failures: telemetry::counter(telemetry::names::SERVER_RESOLVE_FAILURES_TOTAL),
            epoch_swaps: telemetry::counter(telemetry::names::SERVER_EPOCH_SWAPS_TOTAL),
        });

        if background {
            let worker_inner = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name("dmn-server-resolve".into())
                .spawn(move || Inner::worker_loop(worker_inner))
                .expect("spawn re-solve worker");
            *lock_clean(&inner.worker) = Some(handle);
        }
        Ok(ServerHandle { inner })
    }

    /// `where-do-I-read(object, node)`: two array loads against the
    /// current snapshot plus one relaxed counter bump — never blocked by
    /// a running re-solve.
    ///
    /// # Errors
    /// [`ServerError::NodeOutOfRange`] / [`ServerError::UnknownObject`].
    #[inline]
    pub fn lookup(&self, object: u64, node: NodeId) -> Result<Lookup, ServerError> {
        let prev = self.inner.lookups.fetch_add(1, Ordering::Relaxed);
        // Sampled latency: every LOOKUP_SAMPLE_INTERVAL-th lookup is
        // clocked into the `dmn_server_lookup_seconds` histogram. Two
        // `Instant::now()` calls can cost several times the lookup
        // itself (containers without a vDSO clock pay a real syscall),
        // so sampling keeps the amortized cost inside the obs_ok gate's
        // 10 % budget while the quantiles stay statistically sound.
        // Mask test first: all but one-in-interval lookups branch-predict
        // straight past both the registry load and the clock.
        let start =
            (prev & (LOOKUP_SAMPLE_INTERVAL - 1) == 0 && telemetry::enabled()).then(Instant::now);
        let snap = read_clean(&self.inner.snapshot);
        let served = if node >= snap.num_nodes() {
            Err(ServerError::NodeOutOfRange(node))
        } else {
            snap.lookup(object, node)
                .ok_or(ServerError::UnknownObject(object))
        };
        if let Some(start) = start {
            self.inner
                .lookup_latency
                .record(start.elapsed().as_secs_f64());
        }
        served
    }

    /// The current snapshot (an `Arc` clone; hold it for a consistent
    /// multi-lookup view of one epoch).
    pub fn snapshot(&self) -> Arc<PlacementSnapshot> {
        Arc::clone(&read_clean(&self.inner.snapshot))
    }

    /// Current epoch (1 = initial solve).
    pub fn epoch(&self) -> u64 {
        read_clean(&self.inner.snapshot).epoch
    }

    /// Applies a churn event to the live instance and charges the drift
    /// accounting; when the accumulated drift crosses the threshold (or
    /// the event is structural) the background worker is kicked.
    ///
    /// # Errors
    /// The event-specific [`ServerError`] without mutating any state.
    pub fn apply(&self, event: &Event) -> Result<Applied, ServerError> {
        let n = self.inner.graph.num_nodes();
        // The chaos harness can inject a transient failure or a synthetic
        // churn burst here; both are no-ops when no plan is armed.
        let flood = match faults::hit(faults::points::EVENT_APPLY) {
            Some(Injected::TransientError) => {
                return Err(ServerError::BadEvent(
                    "transient fault injected at event.apply".into(),
                ))
            }
            Some(Injected::FloodEvents(count)) => count,
            None => 0,
        };
        let capacity = self.inner.cfg.resilience.event_queue_capacity;
        let mut st = lock_clean(&self.inner.state);
        if flood > 0 && !st.objects.is_empty() {
            // A deterministic flood burst, routed through the bounded
            // queue exactly like wire deltas: bursts past the capacity
            // shed their oldest entries.
            let ids: Vec<u64> = st.objects.iter().map(|o| o.id).collect();
            let mut shed = 0u64;
            for i in 0..flood {
                shed += st.enqueue_delta(
                    PendingDelta {
                        object: ids[i % ids.len()],
                        node: i % n,
                        read_delta: if i % 2 == 0 { 1.0 } else { -1.0 },
                        write_delta: 0.0,
                    },
                    capacity,
                );
            }
            if shed > 0 {
                self.inner
                    .health
                    .shed_deltas
                    .fetch_add(shed, Ordering::Relaxed);
                self.inner.shed_total.add(shed);
            }
        }
        let applied = match event {
            Event::DemandDelta {
                object,
                node,
                read_delta,
                write_delta,
            } => {
                if *node >= n {
                    return Err(ServerError::NodeOutOfRange(*node));
                }
                if !read_delta.is_finite() || !write_delta.is_finite() {
                    return Err(ServerError::BadEvent("non-finite delta".into()));
                }
                if !st.slots.contains_key(object) {
                    return Err(ServerError::UnknownObject(*object));
                }
                let shed = st.enqueue_delta(
                    PendingDelta {
                        object: *object,
                        node: *node,
                        read_delta: *read_delta,
                        write_delta: *write_delta,
                    },
                    capacity,
                );
                if shed > 0 {
                    self.inner
                        .health
                        .shed_deltas
                        .fetch_add(shed, Ordering::Relaxed);
                    self.inner.shed_total.add(shed);
                }
                let drift = st.drain_deltas();
                Applied::Delta {
                    object: *object,
                    drift,
                }
            }
            Event::ObjectAdd { reads, writes } => {
                let mut object = ObjectState {
                    id: st.next_id,
                    reads: vec![0.0; n],
                    writes: vec![0.0; n],
                };
                for &(v, f) in reads.iter().chain(writes) {
                    if v >= n {
                        return Err(ServerError::NodeOutOfRange(v));
                    }
                    if !f.is_finite() || f < 0.0 {
                        return Err(ServerError::BadEvent(format!(
                            "invalid frequency {f} at node {v}"
                        )));
                    }
                }
                for &(v, f) in reads {
                    object.reads[v] += f;
                }
                for &(v, f) in writes {
                    object.writes[v] += f;
                }
                let mass = object.effective_mass(&st.node_down);
                if mass <= 0.0 {
                    return Err(ServerError::BadEvent(
                        "new object has no demand on live nodes".into(),
                    ));
                }
                let id = object.id;
                let slot = st.objects.len();
                st.objects.push(object);
                st.slots.insert(id, slot);
                st.next_id += 1;
                st.drift_mass += mass;
                st.structural += 1;
                Applied::ObjectAdded { object: id }
            }
            Event::ObjectRemove { object } => {
                let slot = st
                    .slots
                    .remove(object)
                    .ok_or(ServerError::UnknownObject(*object))?;
                let removed = st.objects.swap_remove(slot);
                if let Some(moved_id) = st.objects.get(slot).map(|o| o.id) {
                    st.slots.insert(moved_id, slot);
                }
                let mass = removed.effective_mass(&st.node_down);
                st.drift_mass += mass;
                st.structural += 1;
                Applied::ObjectRemoved { object: *object }
            }
            Event::NodeDown { node } => {
                if *node >= n {
                    return Err(ServerError::NodeOutOfRange(*node));
                }
                if !st.node_down[*node] {
                    // Refuse rather than panic later: after this node goes
                    // down the next solve needs at least one live node that
                    // can actually hold a copy (finite storage cost).
                    let placeable_left = (0..n)
                        .filter(|&v| {
                            v != *node && !st.node_down[v] && st.base_storage[v].is_finite()
                        })
                        .count();
                    if placeable_left == 0 {
                        return Err(ServerError::BadEvent(
                            "cannot take the last live finite-storage node down".into(),
                        ));
                    }
                    st.node_down[*node] = true;
                    let muted: f64 = st
                        .objects
                        .iter()
                        .map(|o| o.reads[*node] + o.writes[*node])
                        .sum();
                    st.drift_mass += muted;
                    st.structural += 1;
                }
                Applied::NodeDown { node: *node }
            }
            Event::NodeUp { node } => {
                if *node >= n {
                    return Err(ServerError::NodeOutOfRange(*node));
                }
                if st.node_down[*node] {
                    st.node_down[*node] = false;
                    let restored: f64 = st
                        .objects
                        .iter()
                        .map(|o| o.reads[*node] + o.writes[*node])
                        .sum();
                    st.drift_mass += restored;
                    st.structural += 1;
                }
                Applied::NodeUp { node: *node }
            }
        };
        self.inner.events.fetch_add(1, Ordering::Relaxed);
        if telemetry::enabled() {
            self.inner.queue_depth.set(st.pending_deltas.len() as i64);
        }
        let trigger = st.structural > 0
            || st.drift_mass
                > self.inner.cfg.resolve_threshold * st.baseline_mass.max(f64::MIN_POSITIVE);
        drop(st);
        if trigger {
            Inner::trigger(&self.inner);
        }
        Ok(applied)
    }

    /// Re-solves the live instance on the calling thread (serialized with
    /// the background worker) and swaps the snapshot in. Returns the new
    /// epoch. This is also the only way placements change when the server
    /// runs with [`ServerConfig::background`] off.
    pub fn resolve_now(&self) -> u64 {
        {
            let mut sync = lock_clean(&self.inner.sync);
            while sync.in_flight {
                sync = wait_clean(&self.inner.cv, sync);
            }
            sync.pending = false;
            sync.in_flight = true;
        }
        Inner::resolve_and_swap(&self.inner);
        let mut sync = lock_clean(&self.inner.sync);
        sync.in_flight = false;
        self.inner.cv.notify_all();
        drop(sync);
        self.epoch()
    }

    /// Blocks until no re-solve is pending or in flight.
    pub fn wait_idle(&self) {
        let mut sync = lock_clean(&self.inner.sync);
        while sync.pending || sync.in_flight {
            sync = wait_clean(&self.inner.cv, sync);
        }
    }

    /// The live instance as the next re-solve would see it, with the
    /// stable id of each dense object slot. A from-scratch solve of this
    /// instance with [`ServerConfig::request`] must cost exactly what the
    /// server's own re-solve reports — the equality the benchmark gates on.
    pub fn export_instance(&self) -> (Instance, Vec<u64>) {
        let st = lock_clean(&self.inner.state);
        st.build_instance(&self.inner.graph, &self.inner.metric)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        let timings = *lock_clean(&self.inner.timings);
        ServerStats {
            lookups: self.inner.lookups.load(Ordering::Relaxed),
            events: self.inner.events.load(Ordering::Relaxed),
            resolves: self.inner.resolves.load(Ordering::Relaxed),
            last_resolve_seconds: timings.last_seconds,
            max_resolve_seconds: timings.max_seconds,
        }
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.inner.cfg
    }

    /// Status document for the wire protocol: drift accounting, counters,
    /// and the last solve's full shared-format report
    /// ([`SolveReport::to_json`](dmn_solve::SolveReport::to_json)).
    pub fn status(&self) -> Json {
        let snap = self.snapshot();
        let stats = self.stats();
        let (drift_mass, baseline_mass, live_objects) = {
            let st = lock_clean(&self.inner.state);
            (st.drift_mass, st.baseline_mass, st.objects.len())
        };
        let health = self.inner.health.snapshot();
        Json::obj([
            ("epoch", Json::Num(snap.epoch as f64)),
            ("solver", Json::Str(self.inner.cfg.solver.clone())),
            ("nodes", Json::Num(self.inner.graph.num_nodes() as f64)),
            ("objects_live", Json::Num(live_objects as f64)),
            ("objects_placed", Json::Num(snap.num_objects() as f64)),
            ("cost_total", Json::Num(snap.cost.total())),
            ("drift_mass", Json::Num(drift_mass)),
            ("baseline_mass", Json::Num(baseline_mass)),
            (
                "resolve_threshold",
                Json::Num(self.inner.cfg.resolve_threshold),
            ),
            ("lookups", Json::Num(stats.lookups as f64)),
            ("events", Json::Num(stats.events as f64)),
            ("resolves", Json::Num(stats.resolves as f64)),
            (
                "last_resolve_seconds",
                Json::Num(stats.last_resolve_seconds),
            ),
            ("max_resolve_seconds", Json::Num(stats.max_resolve_seconds)),
            ("health", health.to_json()),
            ("report", lock_clean(&self.inner.report_json).clone()),
        ])
    }

    /// Current health of the re-solve pipeline (also embedded in
    /// [`ServerHandle::status`] as the `health` block). Lock-free: every
    /// hot field is an atomic cell, so this succeeds promptly even while
    /// a re-solve is stalled mid-flight.
    pub fn health(&self) -> ResolveHealth {
        self.inner.health.snapshot()
    }

    /// Stops the background worker (waiting out any in-flight solve).
    /// Idempotent; the handle still answers lookups afterwards, but the
    /// placement is frozen.
    pub fn shutdown(&self) {
        {
            let mut sync = lock_clean(&self.inner.sync);
            sync.shutdown = true;
            self.inner.cv.notify_all();
        }
        if let Some(worker) = lock_clean(&self.inner.worker).take() {
            let _ = worker.join();
        }
    }
}

impl Inner {
    /// Requests a background re-solve (no-op without a worker).
    fn trigger(inner: &Arc<Inner>) {
        if !inner.cfg.background {
            return;
        }
        let mut sync = lock_clean(&inner.sync);
        if !sync.shutdown {
            sync.pending = true;
            inner.cv.notify_all();
        }
    }

    fn worker_loop(inner: Arc<Inner>) {
        loop {
            {
                let mut sync = lock_clean(&inner.sync);
                // `in_flight` may be held by a `resolve_now` caller; waking
                // past it would run two concurrent solves (duplicate epochs,
                // double-settled drift).
                while (!sync.pending || sync.in_flight) && !sync.shutdown {
                    sync = wait_clean(&inner.cv, sync);
                }
                if sync.shutdown {
                    return;
                }
                sync.pending = false;
                sync.in_flight = true;
            }
            let published = Inner::resolve_and_swap(&inner);
            // A failed attempt self-retries (with backoff) only while under
            // the cap; past it the worker goes quiet until the next event
            // re-arms the trigger.
            let retry_backoff = if published {
                None
            } else {
                let consecutive = inner.health.consecutive_failures.load(Ordering::Relaxed);
                (consecutive <= inner.cfg.resilience.max_retries)
                    .then(|| f64::from_bits(inner.health.backoff_bits.load(Ordering::Relaxed)))
            };
            let mut sync = lock_clean(&inner.sync);
            sync.in_flight = false;
            inner.cv.notify_all();
            if let Some(backoff) = retry_backoff {
                if !sync.shutdown {
                    sync.pending = true;
                    if backoff > 0.0 {
                        // Sleep on the condvar so shutdown (or fresh churn)
                        // can cut the backoff short.
                        let (guard, _) = inner
                            .cv
                            .wait_timeout(sync, Duration::from_secs_f64(backoff))
                            .unwrap_or_else(|e| e.into_inner());
                        drop(guard);
                    }
                }
            }
        }
    }

    /// One re-solve: materialize the live instance, solve (supervised),
    /// publish the next epoch, settle the drift accounting. Callers own
    /// the `in_flight` flag. Returns `true` when a new epoch was
    /// published; on failure the last good epoch stays live, the captured
    /// churn stays charged (so the trigger re-arms), and the failure is
    /// recorded in [`ResolveHealth`].
    fn resolve_and_swap(inner: &Arc<Inner>) -> bool {
        inner.resolve_attempts.inc();
        let attempt_span = telemetry::span(telemetry::spans::SERVER_RESOLVE_ATTEMPT);
        let (instance, ids, drift_captured, structural_captured) = {
            let st = lock_clean(&inner.state);
            let (instance, ids) = st.build_instance(&inner.graph, &inner.metric);
            (instance, ids, st.drift_mass, st.structural)
        };

        let t0 = Instant::now();
        let attempt = if instance.num_objects() == 0 {
            // Everything parked or removed: serve the empty placement.
            Ok((
                Placement::new(0),
                CostBreakdown::default(),
                Json::obj([
                    ("solver", Json::Str(inner.cfg.solver.clone())),
                    ("total_cost", Json::Num(0.0)),
                    ("total_copies", Json::Num(0.0)),
                ]),
                false,
            ))
        } else {
            Inner::attempt_solve(inner, instance)
        };
        let seconds = t0.elapsed().as_secs_f64();
        attempt_span.finish();

        let (placement, cost, report_json, degraded) = match attempt {
            Ok(out) => out,
            Err(failure) => {
                let resilience = &inner.cfg.resilience;
                let h = &inner.health;
                let consecutive = h.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
                h.total_failures.fetch_add(1, Ordering::Relaxed);
                if failure.timed_out {
                    h.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                *lock_clean(&h.last_error) = Some(failure.message);
                let doublings = consecutive.saturating_sub(1).min(30);
                let backoff = (resilience.backoff_base_seconds * 2f64.powi(doublings as i32))
                    .min(resilience.backoff_max_seconds);
                h.backoff_bits.store(backoff.to_bits(), Ordering::Relaxed);
                inner.resolve_failures.inc();
                return false;
            }
        };

        let swap_span = telemetry::span(telemetry::spans::SERVER_EPOCH_SWAP);
        let next_epoch = read_clean(&inner.snapshot).epoch + 1;
        let snapshot = Arc::new(PlacementSnapshot::build(
            next_epoch,
            &inner.cfg.solver,
            &inner.metric,
            placement,
            cost,
            ids,
            seconds,
        ));
        // The swap: the write lock is held for one pointer assignment.
        *write_clean(&inner.snapshot) = snapshot;
        *lock_clean(&inner.report_json) = report_json;
        {
            let mut timings = lock_clean(&inner.timings);
            timings.last_seconds = seconds;
            timings.max_seconds = timings.max_seconds.max(seconds);
        }
        inner.resolves.fetch_add(1, Ordering::Relaxed);
        inner.epoch_swaps.inc();
        {
            let h = &inner.health;
            h.consecutive_failures.store(0, Ordering::Relaxed);
            h.backoff_bits.store(0f64.to_bits(), Ordering::Relaxed);
            *lock_clean(&h.last_error) = None;
            h.last_epoch_degraded.store(degraded, Ordering::Relaxed);
        }

        let rearm = {
            let mut st = lock_clean(&inner.state);
            // Only the churn this solve actually saw is settled; anything
            // that arrived mid-solve stays charged.
            st.drift_mass = (st.drift_mass - drift_captured).max(0.0);
            st.structural = st.structural.saturating_sub(structural_captured);
            st.baseline_mass = st.live_mass();
            st.structural > 0
                || st.drift_mass
                    > inner.cfg.resolve_threshold * st.baseline_mass.max(f64::MIN_POSITIVE)
        };
        swap_span.finish();
        if rearm {
            Inner::trigger(inner);
        }
        true
    }

    /// Runs one solve attempt behind the crash boundary: panics are
    /// caught, injected transients surface as errors, and the watchdog
    /// abandons a stuck solve on its supervised thread instead of wedging
    /// the worker.
    fn attempt_solve(inner: &Arc<Inner>, instance: Instance) -> Result<SolveOutput, SolveFailure> {
        let solver_name = inner.cfg.solver.clone();
        let request = inner.cfg.request.clone();
        let run = move |instance: &Instance| -> Result<SolveOutput, SolveFailure> {
            if let Some(Injected::TransientError) = faults::hit(faults::points::SERVER_RESOLVE) {
                return Err(SolveFailure::error(
                    "transient fault injected at server.resolve",
                ));
            }
            let solver = solvers::by_name(&solver_name).expect("validated at start");
            let report = solver.solve(instance, &request);
            Ok((
                report.placement.clone(),
                report.cost,
                report.to_json(),
                report.degraded,
            ))
        };
        let limit = inner.cfg.resilience.solve_timeout_seconds;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::Builder::new()
            .name("dmn-server-solve".into())
            .spawn(move || {
                // Catch inside the supervised thread so a panicking solve
                // still reports back instead of being indistinguishable
                // from a hang.
                let outcome = catch_unwind(AssertUnwindSafe(|| run(&instance)));
                let _ = tx.send(outcome);
            })
            .expect("spawn supervised solve");
        // An infinite (or overflowing) limit saturates, and `recv_timeout`
        // blocks outright when its deadline overflows.
        let wait = Duration::try_from_secs_f64(limit.max(0.0)).unwrap_or(Duration::MAX);
        match rx.recv_timeout(wait) {
            Ok(Ok(result)) => result,
            Ok(Err(payload)) => Err(SolveFailure::panic(payload)),
            // The abandoned thread's eventual send lands in a dropped
            // channel and is discarded.
            Err(_) => Err(SolveFailure::timeout(limit)),
        }
    }
}

/// What a published epoch carries out of one solve attempt.
type SolveOutput = (Placement, CostBreakdown, Json, bool);

/// Why a solve attempt published nothing.
struct SolveFailure {
    message: String,
    timed_out: bool,
}

impl SolveFailure {
    fn error(message: &str) -> SolveFailure {
        SolveFailure {
            message: message.into(),
            timed_out: false,
        }
    }

    fn timeout(limit: f64) -> SolveFailure {
        SolveFailure {
            message: format!("re-solve watchdog expired after {limit}s; attempt abandoned"),
            timed_out: true,
        }
    }

    fn panic(payload: Box<dyn std::any::Any + Send>) -> SolveFailure {
        let what = if let Some(s) = payload.downcast_ref::<&str>() {
            format!("re-solve panicked: {s}")
        } else if let Some(s) = payload.downcast_ref::<String>() {
            format!("re-solve panicked: {s}")
        } else {
            "re-solve panicked".into()
        };
        SolveFailure {
            message: what,
            timed_out: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmn_graph::generators;

    /// A 6-node path with two objects; background worker off so tests
    /// control every re-solve.
    fn test_server() -> ServerHandle {
        test_server_with(ServerConfig {
            background: false,
            ..ServerConfig::default()
        })
    }

    fn test_server_with(cfg: ServerConfig) -> ServerHandle {
        let graph = generators::path(6, |_| 1.0);
        let mut instance = Instance::builder(graph).uniform_storage_cost(2.0).build();
        instance.push_object(ObjectWorkload::from_sparse(
            6,
            [(0, 8.0), (1, 2.0)],
            [(0, 1.0)],
        ));
        instance.push_object(ObjectWorkload::from_sparse(6, [(5, 6.0)], [(4, 1.0)]));
        ServerHandle::start(&instance, cfg).expect("approx runs anywhere")
    }

    #[test]
    fn initial_epoch_serves_consistent_lookups() {
        let server = test_server();
        assert_eq!(server.epoch(), 1);
        let snap = server.snapshot();
        for object in 0..2u64 {
            let slot = snap.slot_of(object).unwrap();
            for v in 0..6 {
                let l = server.lookup(object, v).unwrap();
                assert!(snap.placement.copies(slot).contains(&l.node));
            }
        }
        assert!(server.lookup(7, 0).is_err(), "unknown id");
        assert!(server.lookup(0, 6).is_err(), "node out of range");
        assert_eq!(server.stats().lookups, 14);
    }

    #[test]
    fn delta_clamps_and_charges_applied_drift_only() {
        let server = test_server();
        // Object 0 has 2.0 reads at node 1; draining 5.0 clamps at zero,
        // so only 2.0 counts as drift.
        let applied = server
            .apply(&Event::DemandDelta {
                object: 0,
                node: 1,
                read_delta: -5.0,
                write_delta: 0.0,
            })
            .unwrap();
        assert_eq!(
            applied,
            Applied::Delta {
                object: 0,
                drift: 2.0
            }
        );
        let (instance, ids) = server.export_instance();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(instance.objects[0].reads[1], 0.0);
        assert_eq!(instance.objects[0].reads[0], 8.0, "other nodes untouched");
    }

    #[test]
    fn drained_object_parks_and_returns() {
        let server = test_server();
        // Drain object 1 completely: it parks (excluded from the next
        // epoch) but stays alive for future demand.
        for (node, reads, writes) in [(5, -6.0, 0.0), (4, 0.0, -1.0)] {
            server
                .apply(&Event::DemandDelta {
                    object: 1,
                    node,
                    read_delta: reads,
                    write_delta: writes,
                })
                .unwrap();
        }
        server.resolve_now();
        assert_eq!(server.epoch(), 2);
        assert!(
            matches!(server.lookup(1, 0), Err(ServerError::UnknownObject(1))),
            "parked objects do not answer"
        );
        assert!(server.lookup(0, 0).is_ok());

        server
            .apply(&Event::DemandDelta {
                object: 1,
                node: 3,
                read_delta: 4.0,
                write_delta: 0.0,
            })
            .unwrap();
        server.resolve_now();
        let l = server.lookup(1, 3).expect("back in service");
        assert_eq!(l.epoch, 3);
    }

    #[test]
    fn object_churn_assigns_fresh_ids() {
        let server = test_server();
        let applied = server
            .apply(&Event::ObjectAdd {
                reads: vec![(2, 5.0)],
                writes: vec![],
            })
            .unwrap();
        assert_eq!(applied, Applied::ObjectAdded { object: 2 });
        server.apply(&Event::ObjectRemove { object: 0 }).unwrap();
        assert!(
            matches!(
                server.apply(&Event::ObjectRemove { object: 0 }),
                Err(ServerError::UnknownObject(0))
            ),
            "double remove fails"
        );
        server.resolve_now();
        assert!(server.lookup(0, 0).is_err(), "removed id never answers");
        assert!(server.lookup(1, 0).is_ok());
        let l = server.lookup(2, 2).unwrap();
        assert_eq!(l.distance, 0.0, "demand node hosts the only copy");

        let again = server
            .apply(&Event::ObjectAdd {
                reads: vec![(0, 1.0)],
                writes: vec![],
            })
            .unwrap();
        assert_eq!(
            again,
            Applied::ObjectAdded { object: 3 },
            "ids never reused"
        );
    }

    #[test]
    fn node_down_evicts_copies_and_mutes_demand() {
        let server = test_server();
        // Object 1 reads from node 5; force node 5 down.
        let before = server.lookup(1, 5).unwrap();
        server.apply(&Event::NodeDown { node: 5 }).unwrap();
        server.resolve_now();
        let snap = server.snapshot();
        for object in 0..2u64 {
            if let Some(slot) = snap.slot_of(object) {
                assert!(
                    !snap.placement.copies(slot).contains(&5),
                    "no copies on a down node"
                );
            }
        }
        let (instance, _) = server.export_instance();
        assert!(instance.storage_cost[5].is_infinite());
        assert_eq!(instance.objects[1].reads[5], 0.0, "demand muted");

        server.apply(&Event::NodeUp { node: 5 }).unwrap();
        server.resolve_now();
        let after = server.lookup(1, 5).unwrap();
        assert_eq!(after.node, before.node, "recovery restores the placement");
        assert_eq!(after.epoch, 3);
    }

    #[test]
    fn last_live_node_cannot_go_down() {
        let graph = generators::path(2, |_| 1.0);
        let mut instance = Instance::builder(graph).uniform_storage_cost(1.0).build();
        instance.push_object(ObjectWorkload::from_sparse(2, [(0, 3.0)], []));
        let cfg = ServerConfig {
            background: false,
            ..ServerConfig::default()
        };
        let server = ServerHandle::start(&instance, cfg).unwrap();
        server.apply(&Event::NodeDown { node: 1 }).unwrap();
        assert!(matches!(
            server.apply(&Event::NodeDown { node: 0 }),
            Err(ServerError::BadEvent(_))
        ));
    }

    #[test]
    fn resolve_cost_matches_from_scratch_solve() {
        let server = test_server();
        server
            .apply(&Event::DemandDelta {
                object: 0,
                node: 4,
                read_delta: 9.0,
                write_delta: 0.0,
            })
            .unwrap();
        server.resolve_now();
        let snap = server.snapshot();
        let (instance, _) = server.export_instance();
        let solver = solvers::by_name(&server.config().solver).unwrap();
        let scratch = solver.solve(&instance, &server.config().request);
        assert!(
            (snap.cost.total() - scratch.cost.total()).abs() <= 1e-9,
            "server {} vs scratch {}",
            snap.cost.total(),
            scratch.cost.total()
        );
        assert_eq!(snap.placement, scratch.placement);
    }

    #[test]
    fn status_reports_drift_and_reuses_report_json() {
        let server = test_server();
        server
            .apply(&Event::DemandDelta {
                object: 0,
                node: 2,
                read_delta: 1.5,
                write_delta: 0.0,
            })
            .unwrap();
        let status = server.status();
        assert_eq!(status.get("epoch").and_then(Json::as_usize), Some(1));
        assert_eq!(status.get("drift_mass").and_then(Json::as_f64), Some(1.5));
        assert_eq!(status.get("objects_live").and_then(Json::as_usize), Some(2));
        let report = status.get("report").expect("embedded solve report");
        assert_eq!(
            report.get("solver").and_then(Json::as_str),
            Some("approx"),
            "status embeds the shared SolveReport serialization"
        );
        assert!(report.get("total_cost").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn unknown_solver_and_unsupported_are_rejected() {
        let graph = generators::path(3, |_| 1.0);
        let mut instance = Instance::builder(graph).build();
        instance.push_object(ObjectWorkload::from_sparse(3, [(0, 1.0)], []));
        let bad = ServerConfig {
            solver: "no-such-engine".into(),
            ..ServerConfig::default()
        };
        assert!(matches!(
            ServerHandle::start(&instance, bad),
            Err(ServerError::UnknownSolver(_))
        ));
        let tree_only = ServerConfig {
            solver: "tree-dp".into(),
            background: false,
            ..ServerConfig::default()
        };
        // A path *is* a tree, so tree-dp runs; use a non-tree network.
        let grid = generators::grid(3, 3, |_, _| 1.0);
        let mut grid_inst = Instance::builder(grid).build();
        grid_inst.push_object(ObjectWorkload::from_sparse(9, [(0, 1.0)], []));
        assert!(matches!(
            ServerHandle::start(&grid_inst, tree_only),
            Err(ServerError::Unsupported(_))
        ));
    }

    #[test]
    fn foreground_and_background_resolves_never_collide() {
        let graph = generators::path(8, |_| 1.0);
        let mut instance = Instance::builder(graph).uniform_storage_cost(1.5).build();
        instance.push_object(ObjectWorkload::from_sparse(8, [(0, 12.0)], []));
        let cfg = ServerConfig {
            resolve_threshold: 0.01,
            ..ServerConfig::default()
        };
        let server = ServerHandle::start(&instance, cfg).unwrap();
        // Structural churn kicks the worker on every iteration while the
        // foreground forces its own solve: the worker must never wake
        // into a solve that resolve_now() already owns. A collision
        // publishes a duplicate epoch and double-settles the churn,
        // breaking both invariants checked below.
        for x in 0..20u64 {
            server
                .apply(&Event::ObjectAdd {
                    reads: vec![((x as usize) % 8, 2.0)],
                    writes: vec![],
                })
                .unwrap();
            server.resolve_now();
        }
        server.wait_idle();
        assert_eq!(
            server.epoch(),
            1 + server.stats().resolves,
            "every completed solve published a unique epoch"
        );
        let status = server.status();
        assert_eq!(
            status.get("drift_mass").and_then(Json::as_f64),
            Some(0.0),
            "all churn settled exactly once"
        );
        server.shutdown();
    }

    #[test]
    fn background_worker_resolves_past_threshold() {
        let graph = generators::path(5, |_| 1.0);
        let mut instance = Instance::builder(graph).uniform_storage_cost(1.0).build();
        instance.push_object(ObjectWorkload::from_sparse(5, [(0, 10.0)], []));
        let cfg = ServerConfig {
            resolve_threshold: 0.1,
            ..ServerConfig::default()
        };
        let server = ServerHandle::start(&instance, cfg).unwrap();
        // Below threshold: no re-solve may be pending.
        server
            .apply(&Event::DemandDelta {
                object: 0,
                node: 1,
                read_delta: 0.5,
                write_delta: 0.0,
            })
            .unwrap();
        server.wait_idle();
        // Crossing the threshold kicks the worker.
        server
            .apply(&Event::DemandDelta {
                object: 0,
                node: 4,
                read_delta: 20.0,
                write_delta: 0.0,
            })
            .unwrap();
        server.wait_idle();
        assert!(server.epoch() >= 2, "threshold crossing re-solved");
        assert!(server.stats().resolves >= 1);
        let status = server.status();
        assert_eq!(
            status.get("drift_mass").and_then(Json::as_f64),
            Some(0.0),
            "drift settled by the swap"
        );
        server.shutdown();
        let epoch = server.epoch();
        assert!(server.lookup(0, 0).is_ok(), "lookups survive shutdown");
        assert_eq!(server.epoch(), epoch, "placement frozen after shutdown");
    }

    #[test]
    fn infinite_watchdog_never_abandons_a_solve() {
        let mut cfg = ServerConfig {
            background: false,
            ..ServerConfig::default()
        };
        cfg.resilience.solve_timeout_seconds = f64::INFINITY;
        let server = test_server_with(cfg);
        server
            .apply(&Event::DemandDelta {
                object: 0,
                node: 2,
                read_delta: 3.0,
                write_delta: 0.0,
            })
            .unwrap();
        assert_eq!(server.resolve_now(), 2);
        assert_eq!(server.health().timeouts, 0);
    }

    #[test]
    fn node_down_refused_when_only_infinite_storage_remains() {
        let graph = generators::path(3, |_| 1.0);
        let mut instance = Instance::builder(graph)
            .storage_costs(vec![1.0, f64::INFINITY, 1.0])
            .build();
        instance.push_object(ObjectWorkload::from_sparse(3, [(0, 3.0), (2, 2.0)], []));
        let cfg = ServerConfig {
            background: false,
            ..ServerConfig::default()
        };
        let server = ServerHandle::start(&instance, cfg).unwrap();
        server.apply(&Event::NodeDown { node: 0 }).unwrap();
        // Node 1 is still up but can never hold a copy; downing node 2
        // would leave the next solve nowhere to place anything.
        match server.apply(&Event::NodeDown { node: 2 }) {
            Err(ServerError::BadEvent(msg)) => {
                assert!(msg.contains("finite-storage"), "{msg}")
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
        server.apply(&Event::NodeUp { node: 0 }).unwrap();
        server.apply(&Event::NodeDown { node: 2 }).unwrap();
        server.resolve_now();
        assert!(server.lookup(0, 0).is_ok(), "placements survive the churn");
    }

    #[test]
    fn degraded_epoch_surfaces_in_health() {
        let cfg = ServerConfig {
            background: false,
            request: SolveRequest::new()
                .fl_solver(FlSolverKind::LocalSearchWarm)
                .deadline(0.0),
            ..ServerConfig::default()
        };
        let server = test_server_with(cfg);
        let health = server.health();
        assert!(health.last_epoch_degraded, "deadline fallback epoch");
        assert!(health.degraded());
        assert_eq!(
            health.consecutive_failures, 0,
            "degraded is not the same as failed"
        );
        assert!(
            server.lookup(0, 0).is_ok(),
            "a degraded epoch still serves every object"
        );
    }
}
