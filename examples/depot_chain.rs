//! Ablation: how many depots should a path have?
//!
//! Builds a long six-segment WAN (total RTT ≈ 90 ms, random loss on each
//! segment) with a potential depot at every interior POP, then measures
//! an 8 MB transfer cascading through 0–4 evenly spaced depots. More
//! depots shorten each sublink's RTT (faster ramp/recovery) but add
//! session setup and store-and-forward overhead — the trade-off the
//! paper's future-work section poses.
//!
//! ```text
//! cargo run --release --example depot_chain
//! ```

use lsl::netsim::{Dur, LinkSpec, LossModel, NodeId, Topology, TopologyBuilder};
use lsl::session::endpoint::{SendMode, SenderState};
use lsl::session::{BulkSender, Depot, DepotConfig, Hop, LslPath, SessionId, SinkServer};
use lsl::tcp::{Net, TcpConfig};

const SEGMENTS: usize = 6;
const SINK_PORT: u16 = 5001;
const DEPOT_PORT: u16 = 7001;

fn build() -> (Topology, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let mut nodes = vec![b.node("src")];
    for i in 1..SEGMENTS {
        nodes.push(b.node(&format!("pop{i}")));
    }
    nodes.push(b.node("dst"));
    for w in 0..SEGMENTS {
        b.duplex(
            nodes[w],
            nodes[w + 1],
            LinkSpec::new(155_000_000, Dur::from_micros(7500))
                .with_loss(LossModel::bernoulli(4e-5)),
        );
    }
    (b.build(), nodes)
}

/// Interior node indices for `n` evenly spaced depots.
fn depot_positions(n: usize) -> Vec<usize> {
    (1..=n)
        .map(|k| (k * SEGMENTS / (n + 1)).clamp(1, SEGMENTS - 1))
        .collect()
}

fn run(n_depots: usize, seed: u64) -> f64 {
    let (topo, nodes) = build();
    let mut net = Net::new(topo.into_sim(seed));
    let tcp = TcpConfig {
        time_wait: Dur::from_millis(1),
        ..TcpConfig::default()
    };
    let positions = depot_positions(n_depots);
    let mut depots: Vec<Depot> = positions
        .iter()
        .map(|&p| {
            Depot::new(
                &mut net,
                nodes[p],
                DepotConfig {
                    port: DEPOT_PORT,
                    tcp: tcp.clone(),
                    ..DepotConfig::default()
                },
            )
        })
        .collect();
    let dst = *nodes.last().unwrap();
    let mut sink = SinkServer::new(&mut net, dst, SINK_PORT, n_depots > 0, tcp.clone());
    let (path, mode) = if n_depots == 0 {
        (
            LslPath::direct(Hop::new(dst, SINK_PORT)),
            SendMode::DirectTcp,
        )
    } else {
        (
            LslPath::via(
                positions
                    .iter()
                    .map(|&p| Hop::new(nodes[p], DEPOT_PORT))
                    .collect(),
                Hop::new(dst, SINK_PORT),
            ),
            SendMode::Lsl,
        )
    };
    let size = 8u64 << 20;
    let mut sender = BulkSender::start(
        &mut net,
        nodes[0],
        &path,
        SessionId(seed as u128),
        size,
        mode,
        tcp,
        None,
        None,
    );
    let started = sender.started_at;
    while let Some(ev) = net.poll() {
        if sender.handle(&mut net, &ev).consumed() || sink.handle(&mut net, &ev).consumed() {
            continue;
        }
        for d in &mut depots {
            if d.handle(&mut net, &ev).consumed() {
                break;
            }
        }
    }
    assert_eq!(sender.state(), SenderState::Done);
    let done = sink.take_outcomes();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].bytes, size);
    size as f64 * 8.0 / (done[0].completed_at - started).as_secs_f64()
}

fn main() {
    println!("Cascade-depth ablation: 8 MB over a ~90 ms lossy WAN\n");
    println!(
        "{:>7} {:>10} {:>16} {:>10}",
        "depots", "sublinks", "goodput Mbit/s", "vs direct"
    );
    let iters = 3u64;
    let mut baseline = 0.0;
    for n in 0..=4usize {
        let mean = (0..iters).map(|i| run(n, 300 + i)).sum::<f64>() / iters as f64;
        if n == 0 {
            baseline = mean;
        }
        println!(
            "{:>7} {:>10} {:>16.2} {:>+9.1}%",
            n,
            n + 1,
            mean / 1e6,
            (mean / baseline - 1.0) * 100.0
        );
    }
    println!(
        "\nEach added depot halves-ish the per-sublink RTT (better ramp and\n\
         recovery) but adds setup and relay overhead; gains saturate and\n\
         eventually reverse — the scalability trade-off of §VII."
    );
}
