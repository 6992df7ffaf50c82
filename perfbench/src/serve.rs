//! The serving workload: an in-process `dmn-server` with its default
//! configuration, answering line-delimited JSON over loopback TCP through
//! `tcp::serve`.
//!
//! * Phase A is read-only: closed loops on `nproc` connections (at most
//!   two) keep [`PIPELINE`] lookups in flight; it gives `lookup_tput`.
//! * Round trips, read-only: one lookup in flight on each of the same
//!   connections; they give `lookup_p50_us`.
//! * Phase B is open-loop: lookups are due every `1 / RATE` seconds and are
//!   timed from that due time, so a stalled generator shows up as latency.
//!   Bursts of demand deltas on the same connection move request mass
//!   between nodes of one object (and the next burst moves it back), each
//!   crossing the re-solve threshold with its last delta. A burst goes out
//!   as soon as the previous one has taken effect, so the server re-solves
//!   back to back; `staleness_s` runs from that delta's acknowledgement to
//!   the first lookup answered from a newer epoch.
//!
//! The load comes from at most `nproc` client threads and connections.
//! Every lookup reply is checked against an independent nearest-copy
//! table of the snapshot of the epoch it names.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dmn_core::cost::evaluate;
use dmn_core::instance::Instance;
use dmn_graph::{apsp, Metric, NodeId};
use dmn_server::tcp::{self, Request};
use dmn_server::{Event, PlacementSnapshot, ServerConfig, ServerHandle};
use dmn_solve::solvers;
use dmn_workloads::Scenario;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::stats::{median, nproc, ns_per_call, quantile, rss_peak_mib, secs};
use crate::{solve, Args, Report};

/// The perf-smoke scenario: a 15x15 grid with 32 objects.
const SCENARIO: &str = "perfbench/scenarios/serve_225.json";
/// Server set-ups timed before the measured server starts, and again
/// after phase A, after the round trips and after phase B; `setup_s` is
/// the median of those and the measured server's own. Each includes a
/// cold solve, which runs as fast as other tenants of the shared CPUs let
/// it: on a 2-vCPU VM, 15 set-ups in a row at the start of each run put
/// the medians of five runs 15% apart (quartiles over median).
const SETUPS_PER_GROUP: usize = 4;
/// Lookups in flight on the phase-A connection.
const PIPELINE: usize = 64;
/// Phase-B lookup rate (lookups per second): under half of what one
/// connection sustained when its client and handler threads shared a CPU.
const RATE: f64 = 10_000.0;
/// Nodes a delta burst drains, and as many it fills.
const BURST_NODES: usize = 96;
/// Shares of `--seconds` spent in phase A and in round trips; phase B
/// takes the rest.
const PHASE_A_SHARE: f64 = 0.2;
const PHASE_B_SHARE: f64 = 0.3;
/// Relative tolerance of the settled-cost check.
const COST_RTOL: f64 = 1e-9;

fn build(text: &str) -> Result<Instance, String> {
    let doc = dmn_json::parse(text)?;
    let scenario = Scenario::from_json(&doc)?;
    scenario.try_build_instance().map_err(|e| e.to_string())
}

/// A started server with one client connection.
struct Running {
    handle: ServerHandle,
    addr: std::net::SocketAddr,
    serve: JoinHandle<std::io::Result<()>>,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// `ServerHandle::start` plus bind, accept loop and connect; returns the
/// running server, the whole set-up time and the time of `start` alone.
fn start(instance: &Instance) -> Result<(Running, f64, f64), String> {
    let t = Instant::now();
    let handle = ServerHandle::start(instance, ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let start_s = secs(t);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let served = handle.clone();
    let serve = std::thread::spawn(move || tcp::serve(listener, served));
    let writer = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    writer.set_nodelay(true).map_err(|e| e.to_string())?;
    let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
    Ok((
        Running {
            handle,
            addr,
            serve,
            reader,
            writer,
        },
        secs(t),
        start_s,
    ))
}

/// Times `count` set-ups of fresh servers, each stopped again.
fn timed_setups(
    text: &str,
    count: usize,
    setup: &mut Vec<f64>,
    start_s: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..count {
        let (run, total, start_only) = start(&build(text)?)?;
        setup.push(total);
        start_s.push(start_only);
        stop(run)?;
    }
    Ok(())
}

/// Sends `quit`, waits for the listener and the re-solve worker to end.
fn stop(mut running: Running) -> Result<(), String> {
    running
        .writer
        .write_all(b"{\"op\":\"quit\"}\n")
        .map_err(|e| format!("quit: {e}"))?;
    let mut ack = String::new();
    running
        .reader
        .read_line(&mut ack)
        .map_err(|e| format!("quit ack: {e}"))?;
    drop(running.reader);
    drop(running.writer);
    running
        .serve
        .join()
        .map_err(|_| "the accept loop panicked".to_string())?
        .map_err(|e| format!("accept loop: {e}"))?;
    running.handle.shutdown();
    Ok(())
}

/// The value of `"key":` in a compact JSON reply line.
fn field<'a>(line: &'a str, pattern: &str) -> Option<&'a str> {
    let start = line.find(pattern)? + pattern.len();
    let rest = &line[start..];
    Some(&rest[..rest.find([',', '}']).unwrap_or(rest.len())])
}

fn lookup_line(object: u64, node: NodeId) -> String {
    format!("{{\"op\":\"lookup\",\"object\":{object},\"node\":{node}}}\n")
}

/// Checks lookup replies against the snapshot of the epoch they name.
struct Verifier {
    handle: ServerHandle,
    /// The benchmark's own metric closure of the served graph.
    metric: Metric,
    /// The newest captured epoch and its `(copy, distance)` per
    /// `object * n + node`. One connection's replies never name an older
    /// epoch than an earlier reply did, so older tables are dropped and
    /// the client's memory does not grow with the number of re-solves.
    table: Option<(u64, Vec<(NodeId, f64)>)>,
    /// Solve seconds of each captured epoch after the first.
    resolve_seconds: Vec<f64>,
    /// Highest epoch named by any reply so far.
    newest: u64,
    /// Replies naming an epoch whose snapshot could not be captured.
    unmatched: u64,
    /// Replies that are not the nearest copy of their epoch's snapshot.
    wrong: u64,
    first_wrong: Option<String>,
}

impl Verifier {
    fn new(handle: &ServerHandle, instance: &Instance) -> Verifier {
        Verifier {
            handle: handle.clone(),
            metric: apsp(&instance.graph),
            table: None,
            resolve_seconds: Vec::new(),
            newest: 0,
            unmatched: 0,
            wrong: 0,
            first_wrong: None,
        }
    }

    /// Captures the snapshot of `epoch` if it is still the current one.
    fn capture(&mut self, epoch: u64) -> bool {
        if self.table.as_ref().is_some_and(|(e, _)| *e == epoch) {
            return true;
        }
        let snap = self.handle.snapshot();
        if snap.epoch != epoch {
            return false;
        }
        let n = self.metric.len();
        let span = snap.ids.iter().max().map_or(0, |&id| id as usize + 1);
        let mut table = vec![(usize::MAX, f64::NAN); span * n];
        for (slot, &id) in snap.ids.iter().enumerate() {
            let copies = snap.placement.copies(slot);
            for v in 0..n {
                // First minimum in copy order, as `PlacementSnapshot::build`.
                let mut best = (usize::MAX, f64::INFINITY);
                for &c in copies {
                    let d = self.metric.dist(v, c);
                    if d < best.1 {
                        best = (c, d);
                    }
                }
                table[id as usize * n + v] = best;
            }
        }
        if epoch > 1 {
            self.resolve_seconds.push(snap.resolve_seconds);
        }
        self.table = Some((epoch, table));
        true
    }

    /// Adds another connection's verdicts to this one.
    fn absorb(&mut self, other: Verifier) {
        self.unmatched += other.unmatched;
        self.wrong += other.wrong;
        if self.first_wrong.is_none() {
            self.first_wrong = other.first_wrong;
        }
    }

    /// Checks one lookup reply; returns its epoch, or `None` for an error
    /// reply.
    fn lookup(&mut self, object: u64, node: NodeId, line: &str) -> Option<u64> {
        if field(line, "\"ok\":") != Some("true") {
            return None;
        }
        let epoch: u64 = field(line, "\"epoch\":")?.parse().ok()?;
        let served: NodeId = field(line, "\"node\":")?.parse().ok()?;
        let distance: f64 = field(line, "\"distance\":")?.parse().ok()?;
        self.newest = self.newest.max(epoch);
        if !self.capture(epoch) {
            self.unmatched += 1;
            return Some(epoch);
        }
        let n = self.metric.len();
        let (_, table) = self.table.as_ref().expect("captured above");
        let expected = table
            .get(object as usize * n + node)
            .copied()
            .unwrap_or((usize::MAX, f64::NAN));
        if expected != (served, distance) {
            self.wrong += 1;
            self.first_wrong.get_or_insert_with(|| {
                format!("epoch {epoch} object {object} node {node}: got {line:?}, expected {expected:?}")
            });
        }
        Some(epoch)
    }
}

/// Phase-A and phase-B tallies.
#[derive(Default)]
struct Traffic {
    attempted: u64,
    errors: u64,
    disconnects: u64,
}

/// One phase-A connection: a closed loop keeping `depth` lookups in
/// flight until `seconds` have passed. Returns the lookups answered.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    verifier: &mut Verifier,
    keys: &[(u64, NodeId)],
    depth: usize,
    start: Instant,
    seconds: f64,
    traffic: &mut Traffic,
) -> u64 {
    let mut keys = keys.iter().cycle();
    let mut in_flight = VecDeque::with_capacity(depth);
    let mut send = |in_flight: &mut VecDeque<(u64, NodeId)>| {
        let &(object, node) = keys.next().expect("keys cycle");
        in_flight.push_back((object, node));
        traffic.attempted += 1;
        writer.write_all(lookup_line(object, node).as_bytes())
    };
    let mut open = true;
    for _ in 0..depth {
        open &= send(&mut in_flight).is_ok();
    }
    let mut answered = 0u64;
    let mut line = String::new();
    while let Some((object, node)) = in_flight.pop_front() {
        line.clear();
        if !matches!(reader.read_line(&mut line), Ok(l) if l > 0) {
            traffic.disconnects += 1;
            traffic.errors += 1 + in_flight.len() as u64;
            break;
        }
        answered += 1;
        if verifier.lookup(object, node, line.trim_end()).is_none() {
            traffic.errors += 1;
        }
        // The clock is read once per pipeline's worth of replies.
        if open && answered.is_multiple_of(depth as u64) && secs(start) >= seconds {
            open = false;
        }
        if open && send(&mut in_flight).is_err() {
            traffic.disconnects += 1;
            open = false;
        }
    }
    answered
}

/// Round-trip samples a [`Reservoir`] keeps per connection.
const RESERVOIR: usize = 1 << 16;

/// A uniform sample of at most [`RESERVOIR`] values (Algorithm R). Round
/// trips are a closed loop, so their count grows with throughput; keeping
/// a fixed-size sample keeps the client's memory, and with it
/// `rss_peak_mb`, the same however fast the server answers.
struct Reservoir {
    kept: Vec<f64>,
    seen: usize,
    rng: ChaCha8Rng,
}

impl Reservoir {
    fn new(seed: u64) -> Reservoir {
        Reservoir {
            kept: Vec::with_capacity(RESERVOIR),
            seen: 0,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.kept.len() < RESERVOIR {
            self.kept.push(value);
        } else {
            let slot = self.rng.random_range(0..self.seen);
            if slot < RESERVOIR {
                self.kept[slot] = value;
            }
        }
    }
}

/// Read-only round trips on one connection with one lookup in flight.
/// Returns a uniform sample of the lookups' latencies in microseconds.
fn ping_pong(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    verifier: &mut Verifier,
    keys: &[(u64, NodeId)],
    seconds: f64,
    traffic: &mut Traffic,
    mut latency_us: Reservoir,
) -> Reservoir {
    let mut line = String::new();
    let start = Instant::now();
    for &(object, node) in keys.iter().cycle() {
        let t = Instant::now();
        if t.duration_since(start).as_secs_f64() >= seconds {
            break;
        }
        traffic.attempted += 1;
        line.clear();
        let answered = writer
            .write_all(lookup_line(object, node).as_bytes())
            .is_ok()
            && matches!(reader.read_line(&mut line), Ok(l) if l > 0);
        if !answered {
            traffic.disconnects += 1;
            traffic.errors += 1;
            break;
        }
        latency_us.push(secs(t) * 1e6);
        if verifier.lookup(object, node, line.trim_end()).is_none() {
            traffic.errors += 1;
        }
    }
    latency_us
}

/// Client connections of phase A and of the round trips: `nproc`, at most
/// two. With one, the client and the server's handler thread often share
/// one CPU, and throughput and round trips swung by up to 2x between
/// runs; two keep both CPUs busy.
fn connections() -> usize {
    nproc().clamp(1, 2)
}

/// Runs `f` on [`connections`] connections at once, one client thread
/// each: the set-up's own connection and fresh ones that close afterwards.
/// `f` gets the connection's index; results come back in that order.
fn on_connections<T: Send>(
    run: &mut Running,
    verifier: &mut Verifier,
    instance: &Instance,
    traffic: &mut Traffic,
    f: impl Fn(usize, &mut BufReader<TcpStream>, &mut TcpStream, &mut Verifier, &mut Traffic) -> T
        + Sync,
) -> Result<Vec<T>, String> {
    let mut extra = Vec::new();
    for _ in 1..connections() {
        let writer = TcpStream::connect(run.addr).map_err(|e| format!("connect: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        extra.push((
            reader,
            writer,
            Verifier::new(&run.handle, instance),
            Traffic::default(),
        ));
    }
    let results = std::thread::scope(|scope| {
        let f = &f;
        let others: Vec<_> = extra
            .iter_mut()
            .enumerate()
            .map(|(i, (reader, writer, verifier, traffic))| {
                scope.spawn(move || f(i + 1, reader, writer, verifier, traffic))
            })
            .collect();
        let own = f(0, &mut run.reader, &mut run.writer, verifier, traffic);
        std::iter::once(own)
            .chain(others.into_iter().map(|h| h.join().expect("client thread")))
            .collect()
    });
    for (_, _, other, tally) in extra {
        verifier.absorb(other);
        traffic.attempted += tally.attempted;
        traffic.errors += tally.errors;
        traffic.disconnects += tally.disconnects;
    }
    Ok(results)
}

/// One request of the phase-B schedule.
#[derive(Clone, Copy)]
enum Sent {
    Lookup {
        object: u64,
        node: NodeId,
    },
    /// A demand delta; `last` marks the burst's threshold-crossing one.
    Delta {
        last: bool,
    },
}

/// A scheduled request as the reader sees it.
struct Meta {
    due: f64,
    sent: f64,
    what: Sent,
}

/// Phase-B results.
#[derive(Default)]
struct PhaseB {
    latency_us: Vec<f64>,
    lag_us: Vec<f64>,
    staleness_s: Vec<f64>,
    /// Bursts acknowledged.
    bursts: usize,
}

/// Plans delta bursts in pairs on one object. The first burst moves `q`
/// read mass from each of [`BURST_NODES`] nodes to each of
/// [`BURST_NODES`] other nodes; the second moves it back with deltas that
/// restore every frequency bit for bit, so no object ever drains and each
/// pair leaves the instance exactly as it found it. Every delta charges
/// about `q` of drift; `q` is sized so that all but the last delta of a
/// burst stay half a delta under the re-solve threshold and the last one
/// crosses it. Only nodes holding at least `2q` take part, which keeps
/// every drain unclamped and every restoring delta exact (Sterbenz).
struct BurstPlanner {
    reads: Vec<Vec<f64>>,
    /// Objects with at least `2 * BURST_NODES` nodes holding `2q`.
    eligible: Vec<usize>,
    q: f64,
    rng: ChaCha8Rng,
}

impl BurstPlanner {
    fn new(instance: &Instance, threshold_share: f64, seed: u64) -> Result<Self, String> {
        let total: f64 = instance.objects.iter().map(|w| w.total_requests()).sum();
        let deltas = (2 * BURST_NODES) as f64;
        // A multiple of 2^-20 keeps the wire form short.
        let q = (threshold_share * total / (deltas - 0.5) * 1_048_576.0).floor() / 1_048_576.0;
        let reads: Vec<Vec<f64>> = instance.objects.iter().map(|w| w.reads.clone()).collect();
        let eligible: Vec<usize> = (0..reads.len())
            .filter(|&x| reads[x].iter().filter(|&&r| r >= 2.0 * q).count() >= 2 * BURST_NODES)
            .collect();
        if eligible.is_empty() {
            return Err("no object has enough mass on enough nodes for a delta burst".into());
        }
        Ok(BurstPlanner {
            reads,
            eligible,
            q,
            rng: ChaCha8Rng::seed_from_u64(seed),
        })
    }

    /// The next pair: the burst that moves mass away, then the one that
    /// moves it back.
    fn pair(&mut self) -> [Vec<Event>; 2] {
        let q = self.q;
        let object = self.eligible[self.rng.random_range(0..self.eligible.len())];
        let reads = &self.reads[object];
        let mut nodes: Vec<NodeId> = (0..reads.len()).filter(|&v| reads[v] >= 2.0 * q).collect();
        nodes.shuffle(&mut self.rng);
        let (drained, filled) = nodes[..2 * BURST_NODES].split_at(BURST_NODES);
        let delta = |node: NodeId, read_delta: f64| Event::DemandDelta {
            object: object as u64,
            node,
            read_delta,
            write_delta: 0.0,
        };
        let away = drained
            .iter()
            .map(|&v| delta(v, -q))
            .chain(filled.iter().map(|&v| delta(v, q)));
        let back = drained
            .iter()
            .map(|&v| delta(v, reads[v] - (reads[v] - q)))
            .chain(filled.iter().map(|&v| delta(v, reads[v] - (reads[v] + q))));
        [away.collect(), back.collect()]
    }
}

/// Phase B: open-loop lookups at [`RATE`] beside delta bursts, each burst
/// sent as soon as a lookup has been answered from the epoch the previous
/// burst caused, so the server re-solves back to back.
fn phase_b(
    run: Running,
    mut verifier: Verifier,
    mut planner: BurstPlanner,
    seconds: f64,
    rng: &mut ChaCha8Rng,
    traffic: &mut Traffic,
) -> Result<(Running, Verifier, PhaseB), String> {
    let n = run.handle.snapshot().num_nodes();
    let objects = run.handle.snapshot().ids.clone();
    let keys: Vec<(u64, NodeId)> = (0..1 << 16)
        .map(|_| {
            (
                objects[rng.random_range(0..objects.len())],
                rng.random_range(0..n),
            )
        })
        .collect();
    let Running {
        handle,
        addr,
        serve,
        mut reader,
        writer,
    } = run;
    let (tx, rx) = mpsc::channel::<Meta>();
    // Bursts whose new epoch the reader has seen answer a lookup.
    let resolved = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let sender = {
        let mut writer = writer.try_clone().map_err(|e| e.to_string())?;
        let resolved = Arc::clone(&resolved);
        std::thread::spawn(move || -> bool {
            // The reader learns of every request before its line is sent.
            let mut send = |line: &str, due: f64, what: Sent| {
                let sent = secs(start);
                tx.send(Meta { due, sent, what }).is_ok()
                    && writer.write_all(line.as_bytes()).is_ok()
            };
            let burst_lines = |burst: &[Event]| -> Vec<String> {
                burst
                    .iter()
                    .map(|e| Request::Event(e.clone()).to_json().to_string_compact() + "\n")
                    .collect()
            };
            let (mut i, mut bursts) = (0usize, 0usize);
            let mut back = Vec::new();
            loop {
                let due = i as f64 / RATE;
                if due >= seconds {
                    break;
                }
                if resolved.load(Ordering::SeqCst) == bursts {
                    let lines = if bursts % 2 == 0 {
                        let [away, undo] = planner.pair();
                        back = burst_lines(&undo);
                        burst_lines(&away)
                    } else {
                        std::mem::take(&mut back)
                    };
                    let now = secs(start);
                    for (j, line) in lines.iter().enumerate() {
                        if !send(
                            line,
                            now,
                            Sent::Delta {
                                last: j + 1 == lines.len(),
                            },
                        ) {
                            return false;
                        }
                    }
                    bursts += 1;
                }
                let now = secs(start);
                if due > now {
                    std::thread::sleep(Duration::from_secs_f64(due - now));
                }
                let (object, node) = keys[i % keys.len()];
                if !send(
                    &lookup_line(object, node),
                    due,
                    Sent::Lookup { object, node },
                ) {
                    return false;
                }
                i += 1;
            }
            // Leave the demand as it was found: a pair cut short gets its
            // second burst after the last lookup.
            let now = secs(start);
            back.iter().enumerate().all(|(j, line)| {
                send(
                    line,
                    now,
                    Sent::Delta {
                        last: j + 1 == back.len(),
                    },
                )
            })
        })
    };
    let receiver = std::thread::spawn(move || {
        let mut out = PhaseB::default();
        let mut tally = Traffic::default();
        let mut pending: Option<(f64, u64)> = None;
        let mut line = String::new();
        let mut connected = true;
        for meta in rx {
            tally.attempted += 1;
            line.clear();
            if !connected || !matches!(reader.read_line(&mut line), Ok(l) if l > 0) {
                connected = false;
                tally.errors += 1;
                continue;
            }
            let now = secs(start);
            match meta.what {
                Sent::Lookup { object, node } => {
                    out.latency_us.push((now - meta.due) * 1e6);
                    out.lag_us.push((meta.sent - meta.due) * 1e6);
                    match verifier.lookup(object, node, line.trim_end()) {
                        None => tally.errors += 1,
                        Some(epoch) => {
                            if let Some((acked, base)) = pending {
                                if epoch > base {
                                    out.staleness_s.push(now - acked);
                                    pending = None;
                                    resolved.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                        }
                    }
                }
                Sent::Delta { last } => {
                    if field(&line, "\"ok\":") != Some("true") {
                        tally.errors += 1;
                    }
                    if last {
                        out.bursts += 1;
                        pending = Some((now, verifier.newest));
                    }
                }
            }
        }
        tally.disconnects = u64::from(!connected);
        (reader, verifier, out, tally)
    });
    let sent_all = sender
        .join()
        .map_err(|_| "the phase-B writer panicked".to_string())?;
    let (reader, verifier, out, tally) = receiver
        .join()
        .map_err(|_| "the phase-B reader panicked".to_string())?;
    traffic.attempted += tally.attempted;
    traffic.errors += tally.errors;
    traffic.disconnects += tally.disconnects + u64::from(!sent_all);
    let run = Running {
        handle,
        addr,
        serve,
        reader,
        writer,
    };
    Ok((run, verifier, out))
}

/// Settles the server on the final demand and checks the settled
/// snapshot. Returns its cost.
fn settle(handle: &ServerHandle, rep: &mut Report) -> f64 {
    handle.wait_idle();
    handle.resolve_now();
    let snap = handle.snapshot();
    let (instance, ids) = handle.export_instance();
    let policy = handle.config().request.policy;
    let evaluated = evaluate(&instance, &snap.placement, policy).total();
    let cost = snap.cost.total();
    rep.check(
        "settled_cost_matches_evaluate",
        snap.ids == ids
            && (cost - evaluated).abs() <= COST_RTOL * cost.abs().max(evaluated.abs()).max(1.0),
        || format!("snapshot cost {cost} vs evaluate on export_instance() {evaluated}"),
    );
    cost
}

/// Folds server health into the tallies and checks it.
fn check_health(handle: &ServerHandle, rep: &mut Report) {
    let health = handle.health();
    rep.failed +=
        health.total_failures + u64::from(health.last_epoch_degraded) + health.shed_deltas;
    rep.check(
        "server_solves_healthy",
        health.total_failures == 0 && !health.last_epoch_degraded,
        || format!("{health:?}"),
    );
    rep.check("no_shed_deltas", health.shed_deltas == 0, || {
        format!(
            "{} demand deltas shed by the event queue",
            health.shed_deltas
        )
    });
}

fn check_traffic(verifier: &Verifier, traffic: &Traffic, rep: &mut Report) {
    rep.attempted += traffic.attempted;
    rep.failed += traffic.errors + traffic.disconnects + verifier.unmatched;
    rep.check("replies_nearest_copy", verifier.wrong == 0, || {
        format!(
            "{} wrong replies, first: {}",
            verifier.wrong,
            verifier.first_wrong.as_deref().unwrap_or("")
        )
    });
    rep.check(
        "replies_matched_to_snapshot",
        verifier.unmatched == 0,
        || {
            format!(
                "{} replies name an epoch that was not captured",
                verifier.unmatched
            )
        },
    );
    rep.check("no_disconnects", traffic.disconnects == 0, || {
        format!("{} disconnects", traffic.disconnects)
    });
    rep.check("no_error_replies", traffic.errors == 0, || {
        format!("{} requests got an error reply or none", traffic.errors)
    });
}

/// Percentiles of `samples`, drawn uniformly from `count` measurements.
fn percentile_line(name: &str, samples: &[f64], count: usize) -> String {
    let drawn = if samples.len() < count {
        format!(" (percentiles of a uniform sample of {})", samples.len())
    } else {
        String::new()
    };
    format!(
        "{name}: p50 {:.1} p90 {:.1} p99 {:.1} max {:.1} us over {count} samples{drawn}",
        quantile(samples, 0.5),
        quantile(samples, 0.9),
        quantile(samples, 0.99),
        quantile(samples, 1.0),
    )
}

/// Runs the serving workload.
pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let text = std::fs::read_to_string(SCENARIO)
        .map_err(|e| format!("{SCENARIO} (run from the repository root): {e}"))?;
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
    let (mut setup, mut start_s) = (Vec::new(), Vec::new());
    timed_setups(&text, SETUPS_PER_GROUP, &mut setup, &mut start_s)?;
    let instance = build(&text)?;
    let (mut run, total, start_only) = start(&instance)?;
    setup.push(total);
    start_s.push(start_only);
    let t = Instant::now();
    let trace_s = if args.trace {
        Some(trace_layers(&run, &instance, rep)?)
    } else {
        None
    };
    let trace_seconds = secs(t);
    let mut verifier = Verifier::new(&run.handle, &instance);
    let mut traffic = Traffic::default();
    let a_seconds = args.seconds * PHASE_A_SHARE;
    let b_seconds = args.seconds * PHASE_B_SHARE;
    let c_seconds = args.seconds - a_seconds - b_seconds;
    let keys: Vec<(u64, NodeId)> = (0..1 << 16)
        .map(|_| {
            (
                rng.random_range(0..instance.num_objects()) as u64,
                rng.random_range(0..instance.num_nodes()),
            )
        })
        .collect();
    let conns = connections();
    let share = keys.len() / conns;
    let start = Instant::now();
    let answered: u64 = on_connections(
        &mut run,
        &mut verifier,
        &instance,
        &mut traffic,
        |i, r, w, v, t| {
            let keys = &keys[i * share..];
            closed_loop(r, w, v, keys, PIPELINE / conns, start, a_seconds, t)
        },
    )?
    .into_iter()
    .sum();
    let tput = answered as f64 / secs(start);
    timed_setups(&text, SETUPS_PER_GROUP, &mut setup, &mut start_s)?;
    let round_trips = on_connections(
        &mut run,
        &mut verifier,
        &instance,
        &mut traffic,
        |i, r, w, v, t| {
            let sample = Reservoir::new(i as u64);
            ping_pong(r, w, v, &keys[i * share..], b_seconds, t, sample)
        },
    )?;
    let round_trip_count: usize = round_trips.iter().map(|r| r.seen).sum();
    let round_trip_us: Vec<f64> = round_trips.into_iter().flat_map(|r| r.kept).collect();
    timed_setups(&text, SETUPS_PER_GROUP, &mut setup, &mut start_s)?;
    let threshold = run.handle.config().resolve_threshold;
    let planner = BurstPlanner::new(&instance, threshold, rng.random_range(0..u64::MAX))?;
    let (run, verifier, churn) =
        phase_b(run, verifier, planner, c_seconds, &mut rng, &mut traffic)?;
    let rss = rss_peak_mib();
    check_traffic(&verifier, &traffic, rep);
    // Every burst must have been seen to take effect, except the last one
    // sent before the phase ended and the one sent after it.
    rep.check(
        "bursts_take_effect",
        churn.bursts >= 2 && churn.staleness_s.len() + 2 >= churn.bursts,
        || {
            format!(
                "{} bursts, {} answered from a newer epoch",
                churn.bursts,
                churn.staleness_s.len()
            )
        },
    );
    // Every epoch so far came from a background re-solve in phase B.
    let background = run.handle.stats().resolves;
    let cost = settle(&run.handle, rep);
    check_health(&run.handle, rep);
    timed_setups(&text, SETUPS_PER_GROUP, &mut setup, &mut start_s)?;
    eprintln!(
        "phase A: {tput:.0} lookups/s with {PIPELINE} in flight on {conns} connections over \
         {a_seconds:.1} s; one in flight for {b_seconds:.1} s; phase B: {RATE} lookups/s for \
         {c_seconds:.1} s beside {} delta bursts",
        churn.bursts
    );
    eprintln!(
        "{}",
        percentile_line(
            "round trip, one in flight",
            &round_trip_us,
            round_trip_count
        )
    );
    eprintln!(
        "{}",
        percentile_line(
            "latency beside re-solves",
            &churn.latency_us,
            churn.latency_us.len()
        )
    );
    eprintln!(
        "{}",
        percentile_line(
            "generator lag beside re-solves",
            &churn.lag_us,
            churn.lag_us.len()
        )
    );
    eprintln!(
        "staleness {:.3?} s; background re-solves {background}, solve seconds {:.3?}",
        churn.staleness_s, verifier.resolve_seconds
    );
    eprintln!("set-ups {setup:.3?} s, of which ServerHandle::start {start_s:.3?} s");
    if let Some(layers) = trace_s {
        // Per lookup on one connection: each runs its own closed loop.
        let per_lookup_ns = 1e9 * conns as f64 / tput;
        let wire_ns = per_lookup_ns - layers.parse_ns - layers.respond_ns - layers.serialize_ns;
        let values = [
            median(&start_s),
            layers.snapshot_build_s,
            layers.resolve_s,
            layers.apply_us,
            run.handle.stats().resolves as f64,
            background as f64,
            layers.lookup_ns,
            layers.cost_vs_scratch,
            layers.parse_ns,
            layers.respond_ns,
            layers.serialize_ns,
            layers.reply_bytes,
            wire_ns,
            quantile(&churn.latency_us, 0.9),
            quantile(&churn.latency_us, 0.99),
            quantile(&churn.lag_us, 0.99),
            churn.latency_us.len() as f64,
        ];
        for ((name, unit), value) in SERVE_LAYERS.into_iter().zip(values) {
            rep.metric(name, value, unit);
        }
        eprintln!(
            "phase-A lookup of {per_lookup_ns:.0} ns per connection: parse {:.0}, respond {:.0}, \
             serialize {:.0}, wire {wire_ns:.0} (wire = the rest: syscalls, wake-ups and client \
             work); traced layers took {trace_seconds:.1} s",
            layers.parse_ns, layers.respond_ns, layers.serialize_ns
        );
    } else {
        rep.metric("solve_s", median(&verifier.resolve_seconds), "s");
        rep.metric("cost_total", cost, "cost");
        rep.metric("setup_s", median(&setup), "s");
        rep.metric("rss_peak_mb", rss, "MiB");
        rep.metric("lookup_tput", tput, "lookups/s");
        rep.metric("lookup_p50_us", median(&round_trip_us), "us");
        rep.metric("staleness_s", median(&churn.staleness_s), "s");
        rep.metric(
            "ok_share",
            (rep.attempted - rep.failed) as f64 / rep.attempted.max(1) as f64,
            "ratio",
        );
    }
    stop(run)
}

/// Layer timings of the traced serving run.
struct ServeLayers {
    snapshot_build_s: f64,
    resolve_s: f64,
    apply_us: f64,
    lookup_ns: f64,
    cost_vs_scratch: f64,
    parse_ns: f64,
    respond_ns: f64,
    serialize_ns: f64,
    reply_bytes: f64,
}

/// Times the serving layers' public calls, plus the solve layers of the
/// served instance, on this thread.
fn trace_layers(
    run: &Running,
    instance: &Instance,
    rep: &mut Report,
) -> Result<ServeLayers, String> {
    let handle = &run.handle;
    let cfg = handle.config().clone();
    let text = std::fs::read_to_string(SCENARIO).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let fresh = build(&text)?;
    rep.metric("workloads.build_s", secs(t), "s");
    let traced = solve::trace_layers(fresh, &cfg.request, rep);
    rep.attempted += 1;
    let fresh = || build(&text);
    solve::record_layers(&traced, &fresh, &cfg.request, rep)?;

    let snap = handle.snapshot();
    let metric = instance.metric();
    let mut builds = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let built = PlacementSnapshot::build(
            snap.epoch,
            &snap.solver,
            metric,
            snap.placement.clone(),
            snap.cost,
            snap.ids.clone(),
            snap.resolve_seconds,
        );
        builds.push(secs(t));
        std::hint::black_box(built);
    }
    let n = instance.num_nodes();
    let k = instance.num_objects() as u64;
    let mut i = 0usize;
    let lookup_ns = ns_per_call(20, 100_000, || {
        i += 1;
        std::hint::black_box(handle.lookup(i as u64 % k, i % n).ok());
    });
    let line = lookup_line(1, n / 2);
    let line = line.trim_end();
    let parse_ns = ns_per_call(20, 20_000, || {
        std::hint::black_box(Request::parse(std::hint::black_box(line)).ok());
    });
    let request = Request::parse(line)?;
    let respond_ns = ns_per_call(20, 20_000, || {
        std::hint::black_box(tcp::respond(handle, &request));
    });
    let reply = tcp::respond(handle, &request);
    let serialize_ns = ns_per_call(20, 20_000, || {
        std::hint::black_box(reply.to_string_compact());
    });
    let reply_bytes = reply.to_string_compact().len() as f64 + 1.0;

    // A separate server, so applied deltas and forced re-solves leave the
    // measured one untouched.
    let side = ServerHandle::start(instance, cfg.clone()).map_err(|e| e.to_string())?;
    let mut planner = BurstPlanner::new(instance, cfg.resolve_threshold, 7)?;
    let mut apply_us = Vec::new();
    for event in planner.pair().iter().flatten() {
        let t = Instant::now();
        let applied = side.apply(event);
        apply_us.push(secs(t) * 1e6);
        rep.check("apply_ok", applied.is_ok(), || format!("{applied:?}"));
    }
    side.wait_idle();
    let mut resolves = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        side.resolve_now();
        resolves.push(secs(t));
    }
    let settled = settle(&side, rep);
    let (exported, _) = side.export_instance();
    let scratch = solvers::by_name(&cfg.solver)
        .ok_or("server solver is not registered")?
        .solve(&exported, &cfg.request);
    side.shutdown();
    Ok(ServeLayers {
        snapshot_build_s: median(&builds),
        resolve_s: median(&resolves),
        apply_us: median(&apply_us),
        lookup_ns,
        cost_vs_scratch: settled / scratch.cost.total(),
        parse_ns,
        respond_ns,
        serialize_ns,
        reply_bytes,
    })
}

/// The serving layers' per-layer metrics and units, in print order.
const SERVE_LAYERS: [(&str, &str); 17] = [
    ("server.start_s", "s"),
    ("server.snapshot_build_s", "s"),
    ("server.resolve_s", "s"),
    ("server.apply_us", "us"),
    ("server.resolves", "count"),
    ("server.background_resolves", "count"),
    ("server.lookup_ns", "ns"),
    ("server.cost_vs_scratch", "ratio"),
    ("tcp.parse_ns", "ns"),
    ("tcp.respond_ns", "ns"),
    ("json.serialize_ns", "ns"),
    ("tcp.reply_bytes", "bytes"),
    ("tcp.wire_ns", "ns"),
    ("tcp.p90_us", "us"),
    ("tcp.p99_us", "us"),
    ("tcp.gen_lag_us", "us"),
    ("tcp.samples", "count"),
];

/// The serving layers' metrics on a workload that never serves.
pub fn absent_layers(rep: &mut Report) {
    for (name, unit) in SERVE_LAYERS {
        rep.metric(name, 0.0, unit);
    }
}
