//! Process-wide telemetry: counters, gauges, log-scale latency
//! histograms, and span tracing.
//!
//! Three primitives, all registered in one process-global registry:
//!
//! * **[`Counter`] / [`Gauge`]** — lock-free atomic cells interned by
//!   name ([`counter`], [`gauge`]). Handles are `&'static`, so hot paths
//!   resolve the name once and then pay a single relaxed atomic op per
//!   record.
//! * **[`Histogram`]** — a fixed-bucket log-scale latency histogram
//!   (16 linear sub-buckets per power of two, covering ~1 ns to ~17 Gs).
//!   Recording is O(1): the bucket index is extracted from the raw f64
//!   bits (exponent + top mantissa bits), so bucketing is deterministic
//!   — no `log2` rounding wobble across platforms. Quantiles read from a
//!   [`HistogramSnapshot`] carry a pinned relative-error bound of
//!   `1/32` (≈ 3.2 %, the half-width of the widest sub-bucket);
//!   snapshots merge associatively and round-trip through JSON.
//! * **[`Span`]** — a lightweight timed region ([`span`] /
//!   [`Span::finish`]). Spans *always* measure (the returned elapsed
//!   seconds feed `SolveReport` phase stats, which must exist even with
//!   telemetry off) but only *record* into a bounded ring buffer
//!   (capacity [`SPAN_RING_CAPACITY`]) when the registry is enabled.
//!   The ring exports as JSONL via [`spans_jsonl`].
//!
//! # Disarm / overhead contract
//!
//! Mirroring [`crate::faults`]: the registry holds one process-global
//! `enabled` flag, and **the disabled cost of any telemetry decision is
//! a single relaxed atomic load** ([`enabled`]). Hot paths guard their
//! instrumentation on it — e.g. the server samples lookup latency only
//! when `enabled()` — and [`Span::finish`] checks it before touching
//! the ring. Counters and gauges are so cheap (one relaxed RMW) that
//! call sites may record unconditionally; the flag gates everything
//! that costs more than an atomic op. The `obs_ok` timing floor pins
//! the end-to-end consequence: telemetry-enabled sustained lookup
//! throughput stays within 10 % of disabled.
//!
//! The enabled flag, the histograms and the span ring are process-global
//! (like the fault armory). A test that toggles the flag or asserts on
//! a registry histogram or the ring runs in a test binary where no other
//! test flips the flag or records into them.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use dmn_json::Json;

/// Canonical metric names. Instrumented code references these constants
/// so dashboards, the Prometheus exposition, and assertions can't drift
/// apart. Labelled counters append `{key="value"}` to a base name — the
/// exposition prints interned names verbatim.
pub mod names {
    /// Sampled lookup service latency on the server hot path (seconds).
    pub const SERVER_LOOKUP_SECONDS: &str = "dmn_server_lookup_seconds";
    /// Current pending-delta queue depth (gauge).
    pub const SERVER_QUEUE_DEPTH: &str = "dmn_server_event_queue_depth";
    /// Deltas shed by the bounded event queue (counter).
    pub const SERVER_SHED_DELTAS_TOTAL: &str = "dmn_server_shed_deltas_total";
    /// Re-solve attempts started (counter).
    pub const SERVER_RESOLVE_ATTEMPTS_TOTAL: &str = "dmn_server_resolve_attempts_total";
    /// Re-solve attempts that failed (error, timeout, or panic).
    pub const SERVER_RESOLVE_FAILURES_TOTAL: &str = "dmn_server_resolve_failures_total";
    /// Epoch swaps published (counter).
    pub const SERVER_EPOCH_SWAPS_TOTAL: &str = "dmn_server_epoch_swaps_total";
    /// Base name for per-point fault-fired counters; see
    /// [`fault_fired_total`](super::fault_fired_total).
    pub const FAULTS_FIRED_TOTAL: &str = "dmn_faults_fired_total";
}

/// Canonical span names (one per timed region).
pub mod spans {
    /// Phase 1 of one object's solve: facility location.
    pub const SOLVE_FACILITY: &str = "solve.facility";
    /// Phase 2: radius-based copy addition.
    pub const SOLVE_RADIUS_ADD: &str = "solve.radius-add";
    /// Phase 3: write-radius pruning.
    pub const SOLVE_RADIUS_PRUNE: &str = "solve.radius-prune";
    /// Truncated-closure build on the sparse metric path.
    pub const SOLVE_METRIC_BUILD: &str = "solve.metric-build";
    /// One whole object's placement (all phases).
    pub const SOLVE_OBJECT: &str = "solve.object";
    /// One re-solve attempt in the server worker.
    pub const SERVER_RESOLVE_ATTEMPT: &str = "server.resolve-attempt";
    /// Publishing a new placement epoch (snapshot swap + drift settle).
    pub const SERVER_EPOCH_SWAP: &str = "server.epoch-swap";
}

/// Spans recorded beyond this are kept newest-first: the ring drops its
/// oldest record on overflow.
pub const SPAN_RING_CAPACITY: usize = 4096;

/// The pinned relative-error bound on histogram quantiles: half the
/// width of the widest sub-bucket, `(1/16)/2 = 1/32`. Property tests
/// assert observed error stays below this.
pub const HISTOGRAM_RELATIVE_ERROR: f64 = 1.0 / 32.0;

// Histogram geometry: 16 linear sub-buckets per power of two, octaves
// 2^-30 .. 2^34 (~0.93 ns to ~1.7e10 s). Out-of-range values clamp to
// the edge buckets.
const SUB_BUCKETS: usize = 16;
const MIN_EXP: i32 = -30;
const OCTAVES: usize = 64;
const NUM_BUCKETS: usize = OCTAVES * SUB_BUCKETS;

/// A monotonically increasing atomic counter.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins atomic gauge.
#[derive(Debug)]
pub struct Gauge(AtomicI64);

impl Gauge {
    fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the current value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the current value by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The bucket a value lands in, from its raw IEEE-754 bits: unbiased
/// exponent selects the octave, the top 4 mantissa bits the sub-bucket.
/// Deterministic — no floating-point log involved.
fn bucket_index(v: f64) -> usize {
    if !v.is_finite() || v <= 0.0 {
        return 0;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let sub = ((bits >> 48) & 0xf) as i64;
    let idx = (exp - MIN_EXP as i64) * SUB_BUCKETS as i64 + sub;
    idx.clamp(0, NUM_BUCKETS as i64 - 1) as usize
}

/// The representative value reported for a bucket: its midpoint. Each
/// sub-bucket spans `[2^e·(1+s/16), 2^e·(1+(s+1)/16))`, so the midpoint
/// is within [`HISTOGRAM_RELATIVE_ERROR`] of every member.
fn bucket_value(idx: usize) -> f64 {
    let exp = MIN_EXP + (idx / SUB_BUCKETS) as i32;
    let sub = (idx % SUB_BUCKETS) as f64;
    2f64.powi(exp) * (1.0 + (sub + 0.5) / SUB_BUCKETS as f64)
}

fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

fn atomic_f64_extreme(cell: &AtomicU64, v: f64, keep: impl Fn(f64, f64) -> bool) {
    let mut cur = cell.load(Ordering::Relaxed);
    while keep(v, f64::from_bits(cur)) {
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A fixed-bucket log-scale histogram with lock-free O(1) recording.
/// See the module docs for the bucket geometry and error bound.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one observation. Negative and non-finite values clamp to
    /// zero (the underflow bucket). Safe to call from any thread; the
    /// total count is exact under concurrency.
    pub fn record(&self, v: f64) {
        let v = if v.is_finite() && v > 0.0 { v } else { 0.0 };
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, v);
        atomic_f64_extreme(&self.min_bits, v, |a, b| a < b);
        atomic_f64_extreme(&self.max_bits, v, |a, b| a > b);
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect();
        let (min, max) = if count == 0 {
            (0.0, 0.0)
        } else {
            (
                f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
                f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            )
        };
        HistogramSnapshot {
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min,
            max,
            buckets,
        }
    }

    /// Zeroes the histogram, so a benchmark run reads quantiles of its
    /// own records only. Records made concurrently with the reset may be
    /// half-counted.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A plain-data copy of a [`Histogram`], with quantile reads, merging,
/// and JSON round-tripping. `buckets` holds sparse
/// `(bucket index, count)` pairs in ascending index order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Total observations (exact).
    pub count: u64,
    /// Sum of observations (subject to float addition order under
    /// concurrent recording).
    pub sum: f64,
    /// Smallest observation; `0.0` when empty.
    pub min: f64,
    /// Largest observation; `0.0` when empty.
    pub max: f64,
    /// Sparse non-empty buckets, ascending by index.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`q` in `[0, 1]`): the representative value of
    /// the bucket containing the rank-`⌈q·count⌉` observation, clamped
    /// into `[min, max]`. Relative error vs. the true quantile is
    /// bounded by [`HISTOGRAM_RELATIVE_ERROR`]. Returns `0.0` when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_value(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean observation; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The merge of two snapshots: per-bucket count sums, summed `sum`,
    /// combined extremes. Associative and commutative on every field
    /// except `sum` (float addition order), whose bucket-derived
    /// quantiles are unaffected.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets: BTreeMap<usize, u64> = self.buckets.iter().copied().collect();
        for &(idx, n) in &other.buckets {
            *buckets.entry(idx).or_insert(0) += n;
        }
        let (min, max) = match (self.count, other.count) {
            (0, _) => (other.min, other.max),
            (_, 0) => (self.min, self.max),
            _ => (self.min.min(other.min), self.max.max(other.max)),
        };
        HistogramSnapshot {
            count: self.count + other.count,
            sum: self.sum + other.sum,
            min,
            max,
            buckets: buckets.into_iter().collect(),
        }
    }

    /// JSON rendering: stored fields plus derived `p50`/`p95`/`p99`
    /// (recomputed, not stored, so [`from_json`](Self::from_json)
    /// round-trips exactly).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::Num(self.count as f64)),
            ("sum", Json::Num(self.sum)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("p50", Json::Num(self.quantile(0.50))),
            ("p95", Json::Num(self.quantile(0.95))),
            ("p99", Json::Num(self.quantile(0.99))),
            (
                "buckets",
                Json::arr(
                    self.buckets.iter().map(|&(idx, n)| {
                        Json::Arr(vec![Json::Num(idx as f64), Json::Num(n as f64)])
                    }),
                ),
            ),
        ])
    }

    /// Parses a snapshot previously rendered by
    /// [`to_json`](Self::to_json).
    ///
    /// # Errors
    /// A message naming the missing or malformed field.
    pub fn from_json(doc: &Json) -> Result<HistogramSnapshot, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("histogram snapshot needs numeric '{key}'"))
        };
        let buckets = doc
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or("histogram snapshot needs a 'buckets' array")?
            .iter()
            .map(|pair| {
                let pair = pair.as_arr().filter(|p| p.len() == 2);
                let idx = pair.and_then(|p| p[0].as_usize());
                let n = pair.and_then(|p| p[1].as_usize());
                match (idx, n) {
                    (Some(idx), Some(n)) => Ok((idx, n as u64)),
                    _ => Err("histogram bucket must be an [index, count] pair".to_string()),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(HistogramSnapshot {
            count: num("count")? as u64,
            sum: num("sum")?,
            min: num("min")?,
            max: num("max")?,
            buckets,
        })
    }
}

/// One finished span in the ring buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (see [`spans`]).
    pub name: &'static str,
    /// Start time, seconds since the registry's process epoch.
    pub start_seconds: f64,
    /// Wall-clock duration in seconds.
    pub duration_seconds: f64,
}

impl SpanRecord {
    /// The JSONL line form (compact, single line).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.to_string())),
            ("start", Json::Num(self.start_seconds)),
            ("seconds", Json::Num(self.duration_seconds)),
        ])
    }
}

/// An open timed region; see [`span`].
#[must_use = "a span measures nothing until finished"]
pub struct Span {
    name: &'static str,
    start: Instant,
}

impl Span {
    /// Ends the span, returning its wall-clock seconds. The elapsed
    /// time is always measured; the record enters the ring buffer only
    /// when telemetry is enabled.
    pub fn finish(self) -> f64 {
        let seconds = self.start.elapsed().as_secs_f64();
        if enabled() {
            let r = registry();
            let start_seconds = self.start.saturating_duration_since(r.epoch).as_secs_f64();
            let mut ring = heal(r.spans.lock());
            if ring.len() == SPAN_RING_CAPACITY {
                ring.pop_front();
            }
            ring.push_back(SpanRecord {
                name: self.name,
                start_seconds,
                duration_seconds: seconds,
            });
        }
        seconds
    }
}

/// Opens a span. Cost when telemetry is disabled: one `Instant::now()`
/// here and one relaxed load + clock read in [`Span::finish`] — cheap
/// enough for per-phase and per-object solve instrumentation, too
/// expensive for per-lookup use (the server samples instead).
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: Instant::now(),
    }
}

struct Registry {
    enabled: AtomicBool,
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
    spans: Mutex<VecDeque<SpanRecord>>,
    epoch: Instant,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        enabled: AtomicBool::new(false),
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
        spans: Mutex::new(VecDeque::new()),
        epoch: Instant::now(),
    })
}

fn heal<'a, T>(
    r: Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    // Registry state is counters and plain records; a panic while a
    // guard was live leaves it consistent.
    r.unwrap_or_else(|e| e.into_inner())
}

/// True when telemetry recording is enabled. One relaxed atomic load —
/// this is the whole disarmed cost of a guarded instrumentation site.
#[inline]
pub fn enabled() -> bool {
    registry().enabled.load(Ordering::Relaxed)
}

/// Enables or disables recording process-wide.
pub fn set_enabled(on: bool) {
    registry().enabled.store(on, Ordering::SeqCst);
}

/// The counter interned under `name`; created zeroed on first use.
/// Resolve once and keep the `&'static` handle on hot paths — interning
/// takes the registry lock.
pub fn counter(name: &str) -> &'static Counter {
    let mut map = heal(registry().counters.lock());
    if let Some(c) = map.get(name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::new(Counter::new()));
    map.insert(name.to_string(), c);
    c
}

/// The gauge interned under `name`; created zeroed on first use.
pub fn gauge(name: &str) -> &'static Gauge {
    let mut map = heal(registry().gauges.lock());
    if let Some(g) = map.get(name) {
        return g;
    }
    let g: &'static Gauge = Box::leak(Box::new(Gauge::new()));
    map.insert(name.to_string(), g);
    g
}

/// The histogram interned under `name`; created empty on first use.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut map = heal(registry().histograms.lock());
    if let Some(h) = map.get(name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    map.insert(name.to_string(), h);
    h
}

/// The per-point fault-fired counter
/// (`dmn_faults_fired_total{point="<point>"}`). [`crate::faults`] bumps
/// this whenever a fault fires, so chaos harnesses and the metrics
/// endpoint share one counting path.
pub fn fault_fired_total(point: &str) -> &'static Counter {
    counter(&format!(
        "{}{{point=\"{point}\"}}",
        names::FAULTS_FIRED_TOTAL
    ))
}

/// A copy of the span ring, oldest first.
pub fn spans_snapshot() -> Vec<SpanRecord> {
    heal(registry().spans.lock()).iter().cloned().collect()
}

/// The span ring as JSONL: one compact
/// `{"name":...,"start":...,"seconds":...}` object per line, oldest
/// first. Empty string when no spans were recorded.
pub fn spans_jsonl() -> String {
    let mut out = String::new();
    for rec in heal(registry().spans.lock()).iter() {
        out.push_str(&rec.to_json().to_string_compact());
        out.push('\n');
    }
    out
}

/// The whole registry as one JSON document: counters and gauges by
/// name, histogram snapshots (with derived p50/p95/p99), and the span
/// ring occupancy. This is the `"snapshot"` half of the server's
/// `{"op":"metrics"}` response and the body of `METRICS_ci.json`.
pub fn snapshot_json() -> Json {
    let r = registry();
    let counters: BTreeMap<String, Json> = heal(r.counters.lock())
        .iter()
        .map(|(k, c)| (k.clone(), Json::Num(c.get() as f64)))
        .collect();
    let gauges: BTreeMap<String, Json> = heal(r.gauges.lock())
        .iter()
        .map(|(k, g)| (k.clone(), Json::Num(g.get() as f64)))
        .collect();
    let histograms: BTreeMap<String, Json> = heal(r.histograms.lock())
        .iter()
        .map(|(k, h)| (k.clone(), h.snapshot().to_json()))
        .collect();
    let spans_recorded = heal(r.spans.lock()).len();
    Json::obj([
        ("enabled", Json::Bool(enabled())),
        ("counters", Json::Obj(counters)),
        ("gauges", Json::Obj(gauges)),
        ("histograms", Json::Obj(histograms)),
        (
            "spans",
            Json::obj([
                ("recorded", Json::Num(spans_recorded as f64)),
                ("capacity", Json::Num(SPAN_RING_CAPACITY as f64)),
            ]),
        ),
    ])
}

/// The registry in Prometheus text exposition format: counters and
/// gauges as single samples, histograms as summaries
/// (`{quantile="…"}` samples plus `_sum` / `_count`). Labelled names
/// print verbatim; `# TYPE` lines cover each base name once.
pub fn prometheus_text() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let r = registry();
    let mut typed: Option<String> = None;
    let mut type_line = |out: &mut String, name: &str, kind: &str| {
        let base = name.split('{').next().unwrap_or(name);
        if typed.as_deref() != Some(base) {
            let _ = writeln!(out, "# TYPE {base} {kind}");
            typed = Some(base.to_string());
        }
    };
    for (name, c) in heal(r.counters.lock()).iter() {
        type_line(&mut out, name, "counter");
        let _ = writeln!(out, "{name} {}", c.get());
    }
    for (name, g) in heal(r.gauges.lock()).iter() {
        type_line(&mut out, name, "gauge");
        let _ = writeln!(out, "{name} {}", g.get());
    }
    for (name, h) in heal(r.histograms.lock()).iter() {
        type_line(&mut out, name, "summary");
        let s = h.snapshot();
        for (q, label) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
            let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", s.quantile(q));
        }
        let _ = writeln!(out, "{name}_sum {}", s.sum);
        let _ = writeln!(out, "{name}_count {}", s.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* — property tests must not depend on
    /// external RNG crates or ambient entropy.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// Uniform in [0, 1).
        fn f64(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn bucketing_is_deterministic_and_monotone() {
        let mut prev = 0;
        for i in 0..2000 {
            let v = 1e-9 * (1.25f64).powi(i % 100) * (1.0 + i as f64);
            let idx = bucket_index(v);
            assert_eq!(idx, bucket_index(v), "same value, same bucket");
            // The representative stays within the pinned relative error
            // for in-range values.
            let rep = bucket_value(idx);
            assert!(
                (rep - v).abs() / v <= HISTOGRAM_RELATIVE_ERROR + 1e-12,
                "value {v} bucket {idx} rep {rep}"
            );
            let _ = prev;
            prev = idx;
        }
        // Monotone: larger values never land in smaller buckets.
        let mut last = 0;
        for i in 0..500 {
            let v = 1e-8 * (1.1f64).powi(i);
            let idx = bucket_index(v);
            assert!(idx >= last, "bucket index is monotone in the value");
            last = idx;
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(f64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_stay_within_the_pinned_relative_error() {
        // Three seeded shapes: uniform, log-uniform (heavy dynamic
        // range), and a bimodal latency-like mix.
        for (seed, shape) in [(7u64, 0), (99, 1), (1234, 2)] {
            let mut rng = Rng(seed);
            let h = Histogram::new();
            let mut values: Vec<f64> = (0..20_000)
                .map(|_| match shape {
                    0 => 1e-6 + rng.f64() * 1e-3,
                    1 => 1e-9 * 10f64.powf(rng.f64() * 6.0),
                    _ => {
                        if rng.f64() < 0.9 {
                            5e-8 + rng.f64() * 5e-8
                        } else {
                            1e-3 + rng.f64() * 1e-3
                        }
                    }
                })
                .collect();
            for &v in &values {
                h.record(v);
            }
            values.sort_by(f64::total_cmp);
            let snap = h.snapshot();
            assert_eq!(snap.count, 20_000);
            for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999] {
                let approx = snap.quantile(q);
                let exact = exact_quantile(&values, q);
                let rel = (approx - exact).abs() / exact;
                assert!(
                    rel <= HISTOGRAM_RELATIVE_ERROR,
                    "seed {seed} shape {shape} q {q}: approx {approx} exact {exact} rel {rel}"
                );
            }
            assert_eq!(snap.min, values[0]);
            assert_eq!(snap.max, values[values.len() - 1]);
            assert!(snap.quantile(1.0) <= snap.max + 1e-18);
        }
    }

    #[test]
    fn merge_is_associative_and_matches_recording_everything_once() {
        let mut rng = Rng(42);
        let parts: Vec<Vec<f64>> = (0..3)
            .map(|_| {
                (0..5_000)
                    .map(|_| 1e-7 * (1.0 + rng.f64() * 999.0))
                    .collect()
            })
            .collect();
        let snaps: Vec<HistogramSnapshot> = parts
            .iter()
            .map(|vs| {
                let h = Histogram::new();
                for &v in vs {
                    h.record(v);
                }
                h.snapshot()
            })
            .collect();
        let whole = {
            let h = Histogram::new();
            for vs in &parts {
                for &v in vs {
                    h.record(v);
                }
            }
            h.snapshot()
        };
        let left = snaps[0].merge(&snaps[1]).merge(&snaps[2]);
        let right = snaps[0].merge(&snaps[1].merge(&snaps[2]));
        // Bucket counts, count, and extremes associate exactly.
        assert_eq!(left.buckets, right.buckets);
        assert_eq!(left.count, right.count);
        assert_eq!(left.min, right.min);
        assert_eq!(left.max, right.max);
        assert_eq!(left.buckets, whole.buckets);
        assert_eq!(left.count, whole.count);
        // Quantiles are bucket-derived, hence identical.
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(left.quantile(q), whole.quantile(q));
        }
        // Merging with an empty snapshot is the identity on buckets.
        let empty = HistogramSnapshot::default();
        assert_eq!(whole.merge(&empty).buckets, whole.buckets);
        assert_eq!(empty.merge(&whole).min, whole.min);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-6);
        }
        let snap = h.snapshot();
        let text = snap.to_json().to_string_pretty();
        let back = HistogramSnapshot::from_json(&dmn_json::parse(&text).expect("valid json"))
            .expect("snapshot parses");
        assert_eq!(back, snap);
        // Derived quantiles are present for consumers.
        let doc = dmn_json::parse(&text).unwrap();
        assert!(doc.get("p50").unwrap().as_f64().unwrap() > 0.0);
        assert!(doc.get("p99").unwrap().as_f64().unwrap() > 0.0);
        // Malformed documents are rejected with a field name.
        let err = HistogramSnapshot::from_json(&Json::obj([("count", Json::Num(1.0))]))
            .expect_err("missing fields");
        assert!(err.contains("buckets"), "{err}");
        let err = HistogramSnapshot::from_json(&Json::obj([("buckets", Json::arr([]))]))
            .expect_err("missing numeric fields");
        assert!(err.contains("count"), "{err}");
    }

    #[test]
    fn concurrent_recorders_keep_the_total_count_exact() {
        let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut rng = Rng(0x9e37 + t as u64);
                    for _ in 0..100_000 {
                        h.record(1e-8 * (1.0 + rng.f64() * 1e6));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("recorder thread");
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 400_000, "total count is exact");
        assert_eq!(
            snap.buckets.iter().map(|&(_, n)| n).sum::<u64>(),
            400_000,
            "bucket counts account for every record"
        );
        assert!(snap.min > 0.0 && snap.max <= 1e-8 * (1.0 + 1e6));
    }

    /// The enabled flag and the span ring are process-global, so the
    /// cases that flip the flag or read the registry run one after
    /// another in this one test. No other test in this binary flips the
    /// flag, records a span or uses these names.
    #[test]
    fn registry_cases_run_in_sequence() {
        registry_interns_counters_gauges_histograms();
        spans_record_only_when_enabled_but_always_time();
        span_ring_is_bounded_and_drops_oldest();
        exposition_covers_counters_gauges_and_histogram_summaries();
    }

    fn registry_interns_counters_gauges_histograms() {
        let c = counter("test_registry_counter_total");
        let c2 = counter("test_registry_counter_total");
        assert!(std::ptr::eq(c, c2), "same name, same cell");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = gauge("test_registry_gauge");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        let h = histogram("test_registry_hist_seconds");
        assert!(std::ptr::eq(h, histogram("test_registry_hist_seconds")));
        h.record(0.5);
        assert_eq!(h.snapshot().count, 1);
        h.reset();
        assert_eq!(h.snapshot().count, 0);
    }

    /// Runs on the empty ring of a fresh process.
    fn spans_record_only_when_enabled_but_always_time() {
        set_enabled(false);
        let s = span("test.span.disabled");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let secs = s.finish();
        assert!(secs >= 0.002, "spans measure even when disabled: {secs}");
        assert!(spans_snapshot().is_empty(), "disabled spans don't record");

        set_enabled(true);
        let s = span("test.span.enabled");
        let _ = s.finish();
        let recorded = spans_snapshot();
        assert_eq!(recorded.len(), 1);
        assert_eq!(recorded[0].name, "test.span.enabled");
        assert!(recorded[0].duration_seconds >= 0.0);
        let jsonl = spans_jsonl();
        assert!(jsonl.contains("test.span.enabled"), "{jsonl}");
        assert_eq!(jsonl.lines().count(), 1);
        dmn_json::parse(jsonl.lines().next().unwrap()).expect("JSONL lines parse");
        set_enabled(false);
    }

    fn span_ring_is_bounded_and_drops_oldest() {
        set_enabled(true);
        for _ in 0..SPAN_RING_CAPACITY + 10 {
            span("test.span.flood").finish();
        }
        let ring = spans_snapshot();
        assert_eq!(ring.len(), SPAN_RING_CAPACITY);
        assert!(
            ring.iter().all(|r| r.name == "test.span.flood"),
            "the oldest records were dropped"
        );
        set_enabled(false);
    }

    fn exposition_covers_counters_gauges_and_histogram_summaries() {
        counter("test_expo_requests_total").add(3);
        fault_fired_total("test.point").add(2);
        gauge("test_expo_depth").set(11);
        let h = histogram("test_expo_seconds");
        for i in 1..=100 {
            h.record(i as f64 * 1e-4);
        }
        let text = prometheus_text();
        assert!(
            text.contains("# TYPE test_expo_requests_total counter"),
            "{text}"
        );
        assert!(text.contains("test_expo_requests_total 3"), "{text}");
        assert!(
            text.contains("dmn_faults_fired_total{point=\"test.point\"} 2"),
            "{text}"
        );
        assert!(text.contains("# TYPE test_expo_depth gauge"), "{text}");
        assert!(text.contains("test_expo_depth 11"), "{text}");
        assert!(text.contains("# TYPE test_expo_seconds summary"), "{text}");
        assert!(
            text.contains("test_expo_seconds{quantile=\"0.99\"}"),
            "{text}"
        );
        assert!(text.contains("test_expo_seconds_count 100"), "{text}");

        let snap = snapshot_json();
        assert_eq!(
            snap.get("counters")
                .unwrap()
                .get("test_expo_requests_total")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        assert_eq!(
            snap.get("gauges").unwrap().get("test_expo_depth").unwrap(),
            &Json::Num(11.0)
        );
        let hist = snap
            .get("histograms")
            .unwrap()
            .get("test_expo_seconds")
            .unwrap();
        assert_eq!(hist.get("count").unwrap().as_f64(), Some(100.0));
        assert!(hist.get("p99").unwrap().as_f64().unwrap() > 0.0);
        // The whole snapshot stays valid JSON end to end.
        dmn_json::parse(&snap.to_string_pretty()).expect("snapshot round-trips");
    }
}
