//! Placement-as-a-service quickstart: start an in-process [`ServerHandle`]
//! on a small mesh, answer `where-do-I-read` lookups from the hot
//! snapshot, push demand drift past the re-solve threshold, and watch the
//! background re-optimizer swap in a new epoch.
//!
//! ```text
//! cargo run --release --example server_lookup
//! ```
//!
//! The same server speaks line-delimited JSON over TCP via the
//! `dmn-server` binary — see README §Server.

use dmn::prelude::*;
use dmn_server::{Event, ServerConfig, ServerHandle};

fn main() {
    // A 6x6 mesh with unit links; storage costs 4 per copy.
    let graph = dmn::graph::generators::grid(6, 6, |_, _| 1.0);
    let mut instance = Instance::builder(graph).uniform_storage_cost(4.0).build();

    // Two objects: one read everywhere, one hot in the top-left corner.
    let mut shared = ObjectWorkload::new(36);
    for v in 0..36 {
        shared.reads[v] = 1.0;
    }
    shared.writes[0] = 0.5;
    instance.push_object(shared);

    let mut corner = ObjectWorkload::new(36);
    corner.reads[1] = 20.0;
    corner.writes[1] = 2.0;
    instance.push_object(corner);

    // Solve once, then serve lookups from the precomputed nearest-copy
    // table. Re-solves run on a background thread once accumulated drift
    // passes 2% of the baseline request mass.
    let server = ServerHandle::start(
        &instance,
        ServerConfig {
            resolve_threshold: 0.02,
            ..ServerConfig::default()
        },
    )
    .expect("the default engine runs on any instance");

    println!(
        "epoch {}: cost {:.2}",
        server.epoch(),
        server.snapshot().cost.total()
    );
    for node in [0, 17, 35] {
        let hit = server.lookup(0, node).expect("object 0 is placed");
        println!(
            "  read object 0 from node {node:>2} -> copy at {} (distance {:.1})",
            hit.node, hit.distance
        );
    }

    // The corner workload migrates to the opposite corner; each delta
    // charges drift, and the threshold crossing wakes the re-optimizer.
    for _ in 0..4 {
        server
            .apply(&Event::DemandDelta {
                object: 1,
                node: 1,
                read_delta: -5.0,
                write_delta: 0.0,
            })
            .expect("valid delta");
        server
            .apply(&Event::DemandDelta {
                object: 1,
                node: 34,
                read_delta: 5.0,
                write_delta: 0.0,
            })
            .expect("valid delta");
    }
    server.wait_idle();

    let snap = server.snapshot();
    println!(
        "epoch {}: cost {:.2} after {} re-solve(s); object 1 copies now at {:?}",
        snap.epoch,
        snap.cost.total(),
        server.stats().resolves,
        server.snapshot().placement.copies(1)
    );
    let hit = server.lookup(1, 34).expect("object 1 is placed");
    println!(
        "  read object 1 from node 34 -> copy at {} (distance {:.1})",
        hit.node, hit.distance
    );

    // The server armed the process-wide telemetry registry at start
    // (ServerConfig::telemetry): every epoch swap and re-solve attempt
    // is counted, and lookup latency is sampled into a histogram. The
    // same data answers `{"op": "metrics"}` on the TCP frontend.
    use dmn_core::telemetry;
    let swaps = telemetry::counter(telemetry::names::SERVER_EPOCH_SWAPS_TOTAL).get();
    let latency = telemetry::histogram(telemetry::names::SERVER_LOOKUP_SECONDS).snapshot();
    println!(
        "telemetry: {swaps} epoch swap(s); {} sampled lookup(s), p99 {:.1e}s",
        latency.count,
        latency.quantile(0.99)
    );
    server.shutdown();
}
