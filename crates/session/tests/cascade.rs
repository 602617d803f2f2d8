//! End-to-end LSL session tests: cascades of 1–4 depots, digest
//! verification, backpressure, overheads, and the core LSL effect.

use lsl_netsim::{Dur, LinkSpec, LossModel, NodeId, Topology, TopologyBuilder};
use lsl_session::endpoint::{payload_chunk, SendMode, SenderState};
use lsl_session::{
    BulkSender, ClientState, Depot, DepotConfig, Handled, Hop, LslHeader, LslPath, RecoveryConfig,
    Request, Resume, RoutePlan, SessionClient, SessionError, SessionEvent, SessionId, SinkServer,
    StripeReq, TransferStatus, WireError, HEADER_FLAG_DIGEST, RESUME_BLOCK,
};
use lsl_tcp::{AppEvent, Net, SockEvent, TcpConfig};

const SINK_PORT: u16 = 5000;
const DEPOT_PORT: u16 = 7000;

/// Source — depot(s) — sink in a chain; every inter-node link identical.
fn chain_topology(n_middle: usize, bw: u64, delay: Dur, loss: f64) -> (Topology, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let mut nodes = vec![b.node("src")];
    for i in 0..n_middle {
        nodes.push(b.node(&format!("d{i}")));
    }
    nodes.push(b.node("sink"));
    for w in 0..nodes.len() - 1 {
        b.duplex(
            nodes[w],
            nodes[w + 1],
            LinkSpec::new(bw, delay).with_loss(LossModel::bernoulli(loss)),
        );
    }
    (b.build(), nodes)
}

struct Harness {
    net: Net,
    depots: Vec<Depot>,
    sink: SinkServer,
    sender: BulkSender,
}

impl Harness {
    fn run(mut self) -> (Net, Vec<Depot>, SinkServer, BulkSender) {
        while let Some(ev) = self.net.poll() {
            if self.sender.handle(&mut self.net, &ev).consumed() {
                continue;
            }
            if self.sink.handle(&mut self.net, &ev).consumed() {
                continue;
            }
            let mut handled = false;
            for d in &mut self.depots {
                if d.handle(&mut self.net, &ev).consumed() {
                    handled = true;
                    break;
                }
            }
            let _ = handled;
        }
        (self.net, self.depots, self.sink, self.sender)
    }
}

fn run_cascade(
    n_depots: usize,
    total: u64,
    loss: f64,
    seed: u64,
) -> (
    Vec<lsl_session::TransferOutcome>,
    Vec<lsl_session::DepotStats>,
    SenderState,
    f64,
) {
    let (topo, nodes) = chain_topology(n_depots, 50_000_000, Dur::from_millis(5), loss);
    let mut net = Net::new(topo.into_sim(seed));
    let tcp = TcpConfig {
        time_wait: Dur::from_millis(10),
        ..TcpConfig::default()
    };
    let depots: Vec<Depot> = (0..n_depots)
        .map(|i| {
            Depot::new(
                &mut net,
                nodes[1 + i],
                DepotConfig {
                    port: DEPOT_PORT,
                    relay_buf: 256 * 1024,
                    tcp: tcp.clone(),
                    setup_delay: lsl_netsim::Dur::ZERO,
                    trace_downstream: None,
                },
            )
        })
        .collect();
    let sink_node = *nodes.last().unwrap();
    let sink = SinkServer::new(&mut net, sink_node, SINK_PORT, true, tcp.clone());
    let path = LslPath::via(
        (0..n_depots)
            .map(|i| Hop::new(nodes[1 + i], DEPOT_PORT))
            .collect(),
        Hop::new(sink_node, SINK_PORT),
    );
    let sender = BulkSender::start(
        &mut net,
        nodes[0],
        &path,
        SessionId(42),
        total,
        SendMode::lsl(),
        tcp,
        None,
        None,
    );
    let h = Harness {
        net,
        depots,
        sink,
        sender,
    };
    let (net, depots, mut sink, sender) = h.run();
    let dstats = depots.iter().map(|d| d.stats().clone()).collect();
    (
        sink.take_outcomes(),
        dstats,
        sender.state(),
        net.now().as_secs_f64(),
    )
}

#[test]
fn single_depot_relays_intact_with_digest() {
    let (done, dstats, state, _) = run_cascade(1, 1 << 20, 0.0, 1);
    assert_eq!(state, SenderState::Done);
    assert_eq!(done.len(), 1);
    let out = &done[0];
    assert_eq!(out.bytes, 1 << 20);
    assert_eq!(out.session, Some(SessionId(42)));
    assert_eq!(out.digest_ok, Some(true));
    assert!(out.content_ok);
    assert_eq!(dstats[0].sessions_accepted, 1);
    assert!(dstats[0].bytes_relayed >= 1 << 20);
    assert_eq!(dstats[0].header_errors, 0);
}

#[test]
fn cascade_depth_2_and_3_and_4() {
    for depth in [2usize, 3, 4] {
        let (done, dstats, state, _) = run_cascade(depth, 300_000, 0.0, depth as u64);
        assert_eq!(state, SenderState::Done, "depth {depth}");
        assert_eq!(done.len(), 1, "depth {depth}");
        assert_eq!(done[0].bytes, 300_000);
        assert_eq!(done[0].digest_ok, Some(true));
        assert!(done[0].content_ok);
        for (i, ds) in dstats.iter().enumerate() {
            assert_eq!(ds.sessions_accepted, 1, "depot {i} at depth {depth}");
            assert_eq!(ds.header_errors, 0);
        }
    }
}

#[test]
fn cascade_survives_loss_on_every_sublink() {
    let (done, _, state, _) = run_cascade(2, 500_000, 0.01, 99);
    assert_eq!(state, SenderState::Done);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].bytes, 500_000);
    assert_eq!(done[0].digest_ok, Some(true));
    assert!(done[0].content_ok);
}

/// The sender always flags a digest now, but a header with the flag
/// clear is still wire input the sink accepts: the stream is
/// pattern-checked and not hashed.
#[test]
fn digestless_header_is_only_pattern_checked() {
    let (topo, nodes) = chain_topology(0, 50_000_000, Dur::from_millis(5), 0.0);
    let mut net = Net::new(topo.into_sim(3));
    let (src, dst) = (nodes[0], *nodes.last().unwrap());
    let mut sink = SinkServer::new(&mut net, dst, SINK_PORT, true, TcpConfig::default());
    let header = LslHeader {
        session: SessionId(42),
        flags: 0,
        length: 100_000,
        resume: None,
        stripe: None,
        route: Vec::new(),
    };
    let mut stream = Vec::from(&header.encode().unwrap()[..]);
    stream.extend_from_slice(&payload_chunk(0, 100_000));
    let reply = hand_attempt(&mut net, &mut sink, src, dst, stream.into());
    assert_eq!(reply, [0x4b], "version-1 confirm is the one byte");
    let done = sink.take_outcomes();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].status, TransferStatus::Complete);
    assert_eq!(done[0].bytes, 100_000);
    assert_eq!(done[0].digest_ok, None);
    assert!(done[0].content_ok);
}

#[test]
fn zero_length_session() {
    let (done, _, state, _) = run_cascade(1, 0, 0.0, 4);
    assert_eq!(state, SenderState::Done);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].bytes, 0);
    assert_eq!(done[0].digest_ok, Some(true), "digest of empty stream");
}

#[test]
fn depot_buffer_stays_bounded() {
    // Fast inbound, slow outbound: the relay buffer must cap, not grow
    // with the transfer (the paper's "small, short-lived" buffers).
    let mut b = TopologyBuilder::new();
    let src = b.node("src");
    let dep = b.node("depot");
    let sink = b.node("sink");
    b.duplex(src, dep, LinkSpec::new(100_000_000, Dur::from_millis(1)));
    b.duplex(dep, sink, LinkSpec::new(2_000_000, Dur::from_millis(1)));
    let mut net = Net::new(b.build().into_sim(7));
    let tcp = TcpConfig::default();
    let relay_buf = 128 * 1024;
    let depot = Depot::new(
        &mut net,
        dep,
        DepotConfig {
            port: DEPOT_PORT,
            relay_buf,
            tcp: tcp.clone(),
            setup_delay: lsl_netsim::Dur::ZERO,
            trace_downstream: None,
        },
    );
    let sinksrv = SinkServer::new(&mut net, sink, SINK_PORT, true, tcp.clone());
    let path = LslPath::via(vec![Hop::new(dep, DEPOT_PORT)], Hop::new(sink, SINK_PORT));
    let sender = BulkSender::start(
        &mut net,
        src,
        &path,
        SessionId(1),
        2 << 20,
        SendMode::lsl(),
        tcp,
        None,
        None,
    );
    let (_, depots, sinksrv, _) = Harness {
        net,
        depots: vec![depot],
        sink: sinksrv,
        sender,
    }
    .run();
    assert_eq!(sinksrv.outcomes().len(), 1);
    assert_eq!(sinksrv.outcomes()[0].digest_ok, Some(true));
    assert!(
        depots[0].stats().max_buffered <= relay_buf,
        "relay buffered {} > cap {relay_buf}",
        depots[0].stats().max_buffered
    );
}

#[test]
fn lsl_beats_direct_on_split_lossy_path_and_loses_when_tiny() {
    // The LSL effect end-to-end in the simulator: a 2×30 ms lossy path.
    let build = || {
        let mut b = TopologyBuilder::new();
        let src = b.node("src");
        let pop = b.node("pop");
        let dst = b.node("dst");
        b.duplex(
            src,
            pop,
            LinkSpec::new(100_000_000, Dur::from_millis(15)).with_loss(LossModel::bernoulli(2e-4)),
        );
        b.duplex(
            pop,
            dst,
            LinkSpec::new(100_000_000, Dur::from_millis(15)).with_loss(LossModel::bernoulli(2e-4)),
        );
        (b.build(), src, pop, dst)
    };
    let tcp = || TcpConfig {
        time_wait: Dur::from_millis(10),
        ..TcpConfig::default()
    };

    let run_one = |via_depot: bool, total: u64, seed: u64| -> f64 {
        let (topo, src, pop, dst) = build();
        let mut net = Net::new(topo.into_sim(seed));
        let depots = if via_depot {
            vec![Depot::new(
                &mut net,
                pop,
                DepotConfig {
                    port: DEPOT_PORT,
                    relay_buf: 256 * 1024,
                    tcp: tcp(),
                    // Per-session depot processing: the cost that makes
                    // LSL lose on tiny transfers.
                    setup_delay: Dur::from_millis(50),
                    trace_downstream: None,
                },
            )]
        } else {
            Vec::new()
        };
        let sink = SinkServer::new(&mut net, dst, SINK_PORT, via_depot, tcp());
        let (path, mode) = if via_depot {
            (
                LslPath::via(vec![Hop::new(pop, DEPOT_PORT)], Hop::new(dst, SINK_PORT)),
                SendMode::lsl(),
            )
        } else {
            (
                LslPath::direct(Hop::new(dst, SINK_PORT)),
                SendMode::DirectTcp,
            )
        };
        let sender = BulkSender::start(
            &mut net,
            src,
            &path,
            SessionId(9),
            total,
            mode,
            tcp(),
            None,
            None,
        );
        let started = sender.started_at;
        let (net, _, sink, _) = Harness {
            net,
            depots,
            sink,
            sender,
        }
        .run();
        let done = sink.outcomes();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].bytes, total);
        assert!(done[0].content_ok);
        let _ = net;
        (done[0].completed_at - started).as_secs_f64()
    };

    // Large transfer: average over a few seeds; LSL should win clearly.
    let big = 8u64 << 20;
    let avg = |via: bool| -> f64 { (0..5).map(|s| run_one(via, big, 100 + s)).sum::<f64>() / 5.0 };
    let t_direct = avg(false);
    let t_lsl = avg(true);
    assert!(
        t_lsl < t_direct,
        "LSL ({t_lsl:.3}s) must beat direct ({t_direct:.3}s) at 8 MB"
    );

    // Tiny transfer: the extra handshake makes LSL slower.
    let small = 16u64 << 10;
    let t_direct_s = run_one(false, small, 7);
    let t_lsl_s = run_one(true, small, 7);
    assert!(
        t_lsl_s > t_direct_s,
        "LSL ({t_lsl_s:.4}s) should lose to direct ({t_direct_s:.4}s) at 16 KB"
    );
}

#[test]
fn concurrent_sessions_through_one_depot() {
    let (topo, nodes) = chain_topology(1, 50_000_000, Dur::from_millis(5), 0.0);
    let mut net = Net::new(topo.into_sim(11));
    let tcp = TcpConfig::default();
    let mut depot = Depot::new(
        &mut net,
        nodes[1],
        DepotConfig {
            port: DEPOT_PORT,
            relay_buf: 256 * 1024,
            tcp: tcp.clone(),
            setup_delay: lsl_netsim::Dur::ZERO,
            trace_downstream: None,
        },
    );
    let mut sink = SinkServer::new(&mut net, nodes[2], SINK_PORT, true, tcp.clone());
    let path = LslPath::via(
        vec![Hop::new(nodes[1], DEPOT_PORT)],
        Hop::new(nodes[2], SINK_PORT),
    );
    let mut senders: Vec<BulkSender> = (0..4)
        .map(|i| {
            BulkSender::start(
                &mut net,
                nodes[0],
                &path,
                SessionId(1000 + i),
                200_000,
                SendMode::lsl(),
                tcp.clone(),
                None,
                None,
            )
        })
        .collect();
    while let Some(ev) = net.poll() {
        if senders
            .iter_mut()
            .any(|s| s.handle(&mut net, &ev).consumed())
        {
            continue;
        }
        if sink.handle(&mut net, &ev).consumed() {
            continue;
        }
        let _ = depot.handle(&mut net, &ev);
    }
    let done = sink.take_outcomes();
    assert_eq!(done.len(), 4);
    let mut ids: Vec<u128> = done.iter().map(|o| o.session.unwrap().0).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![1000, 1001, 1002, 1003]);
    for o in &done {
        assert_eq!(o.bytes, 200_000);
        assert_eq!(o.digest_ok, Some(true));
    }
    assert_eq!(depot.stats().sessions_accepted, 4);
    assert_eq!(depot.active_sessions(), 0);
}

/// Hand-drive one raw LSL attempt from `src` to the sink: push `stream`
/// (header, payload, trailer) whenever the socket will take it, FIN when
/// it is out, and return the sink's confirmation reply.
fn hand_attempt(
    net: &mut Net,
    sink: &mut SinkServer,
    src: NodeId,
    dst: NodeId,
    stream: bytes::Bytes,
) -> Vec<u8> {
    hand_attempt_to(net, src, dst, SINK_PORT, stream, |net, ev| {
        sink.handle(net, ev)
    })
}

/// [`hand_attempt`] toward any listener at `dst:port`, whose events
/// `peer` handles.
fn hand_attempt_to(
    net: &mut Net,
    src: NodeId,
    dst: NodeId,
    port: u16,
    stream: bytes::Bytes,
    mut peer: impl FnMut(&mut Net, &AppEvent) -> Handled,
) -> Vec<u8> {
    let sock = net.connect(src, dst, port, TcpConfig::default());
    let mut sent = 0usize;
    let mut reply = Vec::new();
    let mut closed = false;
    while let Some(ev) = net.poll() {
        if peer(net, &ev).consumed() {
            continue;
        }
        let AppEvent::Sock { sock: s, event } = &ev else {
            continue;
        };
        if *s != sock {
            continue;
        }
        if matches!(event, SockEvent::Readable) {
            reply.extend_from_slice(&net.recv(sock, 64));
        }
        if matches!(
            event,
            SockEvent::Connected | SockEvent::Writable | SockEvent::Readable
        ) {
            if sent < stream.len() {
                sent += net.send(sock, &stream.slice(sent..));
            }
            if sent == stream.len() && !closed {
                net.close(sock);
                closed = true;
            }
        }
    }
    assert!(closed, "stream never fully handed to the socket");
    reply
}

/// The MD5 block `block` of a `total`-byte stream carries when the
/// stream follows the generator pattern (its final block may be short).
fn expected_block_digest(block: u64, total: u64) -> [u8; 16] {
    const B: u64 = lsl_session::RESUME_BLOCK;
    let start = (block * B).min(total);
    let len = B.min(total - start);
    lsl_digest::md5(&payload_chunk(start, len as usize))
}

/// A ranged attempt's body as the sender frames it: each of blocks
/// `[start, end)` followed by its MD5, then the hash-list trailer (the
/// MD5 of those digests).
fn ranged_frame(start: u64, end: u64, total: u64) -> Vec<u8> {
    const B: u64 = lsl_session::RESUME_BLOCK;
    let (mut frame, mut list) = (Vec::new(), Vec::new());
    for b in start..end {
        let lo = b * B;
        frame.extend_from_slice(&payload_chunk(lo, (B.min(total - lo)) as usize));
        frame.extend_from_slice(&expected_block_digest(b, total));
        list.extend_from_slice(&expected_block_digest(b, total));
    }
    frame.extend_from_slice(&lsl_digest::md5(&list));
    frame
}

/// A corrupted byte at frame offset `flip(k)` of the first attempt —
/// in block k's payload or in its in-band digest — fails the attempt's
/// digest and freezes certification at block k; the retransfer is
/// granted exactly the block range from there to the end, frames that
/// range alone, and completes the session's certification.
fn corruption_freezes_certification_and_resume_grants_the_rest(flip: impl Fn(u64) -> usize) {
    const B: u64 = lsl_session::RESUME_BLOCK;
    let (topo, nodes) = chain_topology(0, 50_000_000, Dur::from_millis(5), 0.0);
    let mut net = Net::new(topo.into_sim(13));
    let (src, dst) = (nodes[0], *nodes.last().unwrap());
    let mut sink = SinkServer::new(&mut net, dst, SINK_PORT, true, TcpConfig::default());
    let session = SessionId(0x77);
    // Four full blocks and a short fifth; block k arrives corrupted.
    let total = 4 * B + B / 2;
    let blocks = lsl_session::stream_blocks(total);
    let k = 2;
    let header = |offset: u64| LslHeader {
        session,
        flags: HEADER_FLAG_DIGEST,
        length: total,
        resume: Some(Resume {
            offset,
            verified_block: match offset / B {
                0 => lsl_session::NO_VERIFIED_BLOCK,
                n => n - 1,
            },
        }),
        stripe: None,
        route: Vec::new(),
    };
    let grant_of = |reply: &[u8]| {
        assert_eq!(reply.len(), 9, "version-2 confirm is 9 bytes");
        assert_eq!(reply[0], 0x4b);
        u64::from_be_bytes(reply[1..9].try_into().unwrap())
    };

    // Attempt 1: the whole stream framed with the clean blocks' digests
    // and hash list (the sender's view), one byte flipped in transit.
    let mut stream = Vec::from(&header(0).encode().unwrap()[..]);
    let body_at = stream.len();
    stream.extend_from_slice(&ranged_frame(0, blocks, total));
    stream[body_at + flip(k)] ^= 0x01;
    let reply = hand_attempt(&mut net, &mut sink, src, dst, stream.into());
    assert_eq!(grant_of(&reply), 0);
    let first = sink.take_outcomes();
    assert_eq!(first.len(), 1);
    assert_eq!(
        first[0].status,
        TransferStatus::Failed(lsl_session::SessionError::DigestMismatch)
    );
    assert_eq!(first[0].digest_ok, Some(false));
    assert_eq!(
        first[0].verified_blocks, k,
        "certification froze at block k"
    );
    assert_eq!(first[0].blocks_certified, k);
    assert_eq!(sink.session_certified(session), k);

    // Attempt 2: asks to resume at k and is granted exactly k·B; frames
    // blocks [k, blocks) alone.
    let mut stream = Vec::from(&header(k * B).encode().unwrap()[..]);
    stream.extend_from_slice(&ranged_frame(k, blocks, total));
    let reply = hand_attempt(&mut net, &mut sink, src, dst, stream.into());
    assert_eq!(grant_of(&reply), k * B);
    let second = sink.take_outcomes();
    assert_eq!(second.len(), 1);
    let o = &second[0];
    assert_eq!(o.status, TransferStatus::Complete);
    assert_eq!(o.digest_ok, Some(true));
    assert!(o.content_ok);
    assert_eq!(o.resume_offset, k * B);
    assert_eq!(o.bytes, total);
    assert_eq!(o.attempt_bytes, total - k * B);
    assert_eq!(o.stripe, None);
    assert_eq!(o.blocks_certified, blocks - k);
    assert_eq!(o.verified_blocks, blocks);
    assert_eq!(sink.session_certified(session), blocks);
    assert_eq!(sink.stripe_regrants(), 0);
}

/// Each framed block is its payload plus a 16-byte digest.
const FRAMED_BLOCK: u64 = lsl_session::RESUME_BLOCK + 16;

#[test]
fn digest_mismatch_freezes_certification_and_resume_grants_the_rest() {
    // A payload byte of block k.
    corruption_freezes_certification_and_resume_grants_the_rest(|k| {
        (k * FRAMED_BLOCK + 100) as usize
    });
}

#[test]
fn a_flipped_in_band_digest_freezes_certification_too() {
    // A byte of block k's in-band digest.
    corruption_freezes_certification_and_resume_grants_the_rest(|k| {
        (k * FRAMED_BLOCK + lsl_session::RESUME_BLOCK + 5) as usize
    });
}

/// A header that reaches the sink with hops still to go is misrouted
/// wire input: the sink fails the attempt with a typed wire error and
/// resets the conn instead of taking the simulation down.
#[test]
fn sink_rejects_a_header_with_route_hops_left() {
    let (topo, nodes) = chain_topology(0, 50_000_000, Dur::from_millis(5), 0.0);
    let mut net = Net::new(topo.into_sim(21));
    let (src, dst) = (nodes[0], *nodes.last().unwrap());
    let mut sink = SinkServer::new(&mut net, dst, SINK_PORT, true, TcpConfig::default());
    let header = LslHeader {
        session: SessionId(0x31),
        flags: HEADER_FLAG_DIGEST,
        length: 1000,
        resume: None,
        stripe: None,
        route: vec![Hop::new(dst, SINK_PORT)],
    };
    let reply = hand_attempt(&mut net, &mut sink, src, dst, header.encode().unwrap());
    assert!(reply.is_empty(), "no confirmation for a rejected header");
    let done = sink.take_outcomes();
    assert_eq!(done.len(), 1);
    assert_eq!(
        done[0].status,
        TransferStatus::Failed(SessionError::Wire(WireError::ResidualRoute))
    );
    assert_eq!(done[0].session, Some(SessionId(0x31)));
}

/// A stripe request on an until-FIN stream has no block range to grant:
/// the sink rejects it with a typed wire error, before opening any
/// session state.
#[test]
fn sink_rejects_a_stripe_request_without_a_length() {
    let (topo, nodes) = chain_topology(0, 50_000_000, Dur::from_millis(5), 0.0);
    let mut net = Net::new(topo.into_sim(22));
    let (src, dst) = (nodes[0], *nodes.last().unwrap());
    let mut sink = SinkServer::new(&mut net, dst, SINK_PORT, true, TcpConfig::default());
    let session = SessionId(0x32);
    let header = LslHeader {
        session,
        flags: HEADER_FLAG_DIGEST,
        length: u64::MAX,
        resume: None,
        stripe: Some(StripeReq {
            start_block: 0,
            end_block: 2,
        }),
        route: Vec::new(),
    };
    let reply = hand_attempt(&mut net, &mut sink, src, dst, header.encode().unwrap());
    assert!(reply.is_empty(), "no grant for a rejected header");
    let done = sink.take_outcomes();
    assert_eq!(done.len(), 1);
    assert_eq!(
        done[0].status,
        TransferStatus::Failed(SessionError::Wire(WireError::UnframedRange))
    );
    assert_eq!(done[0].session, Some(session));
    assert_eq!(sink.session_certified(session), 0);
}

/// A request the sink cannot frame — an until-FIN stream has no block
/// lengths or trailer position, a digestless resume no in-band digests
/// — is rejected with a typed wire error before any reply, naming its
/// session. That holds for a plain v1 header with the digest flag too.
#[test]
fn sink_rejects_a_resume_request_it_cannot_frame() {
    let (topo, nodes) = chain_topology(0, 50_000_000, Dur::from_millis(5), 0.0);
    let mut net = Net::new(topo.into_sim(23));
    let (src, dst) = (nodes[0], *nodes.last().unwrap());
    let mut sink = SinkServer::new(&mut net, dst, SINK_PORT, true, TcpConfig::default());
    for (session, flags, length, resume) in [
        (
            SessionId(0x33),
            HEADER_FLAG_DIGEST,
            u64::MAX,
            Some(Resume::fresh()),
        ),
        (SessionId(0x34), 0, 2 * RESUME_BLOCK, Some(Resume::fresh())),
        (SessionId(0x35), HEADER_FLAG_DIGEST, u64::MAX, None),
    ] {
        let header = LslHeader {
            session,
            flags,
            length,
            resume,
            stripe: None,
            route: Vec::new(),
        };
        let reply = hand_attempt(&mut net, &mut sink, src, dst, header.encode().unwrap());
        assert!(reply.is_empty(), "no confirmation for a rejected header");
        let done = sink.take_outcomes();
        assert_eq!(done.len(), 1);
        assert_eq!(
            done[0].status,
            TransferStatus::Failed(SessionError::Wire(WireError::UnframedRange))
        );
        assert_eq!(done[0].session, Some(session));
        assert_eq!(sink.session_certified(session), 0);
    }
}

/// A depot asked to relay toward a node outside the topology counts a
/// header error and tears the relay down; it never opens the onward
/// sublink.
#[test]
fn depot_rejects_a_next_hop_outside_the_topology() {
    let (topo, nodes) = chain_topology(1, 50_000_000, Dur::from_millis(5), 0.0);
    let mut net = Net::new(topo.into_sim(23));
    let (src, depot_node) = (nodes[0], nodes[1]);
    let mut depot = Depot::new(&mut net, depot_node, DepotConfig::default());
    let header = LslHeader {
        session: SessionId(0x33),
        flags: HEADER_FLAG_DIGEST,
        length: 1000,
        resume: None,
        stripe: None,
        route: vec![Hop::new(lsl_netsim::NodeId(99), SINK_PORT)],
    };
    let stream = header.encode().unwrap();
    let reply = hand_attempt_to(&mut net, src, depot_node, DEPOT_PORT, stream, |net, ev| {
        depot.handle(net, ev)
    });
    assert!(reply.is_empty());
    let stats = depot.stats();
    assert_eq!(stats.sessions_accepted, 1);
    assert_eq!(stats.header_errors, 1);
    assert_eq!(depot.active_sessions(), 0);
}

/// Run one LSL attempt carrying `request` against a fake sink: a bare
/// listener on the sink port that answers the header with the confirm
/// byte plus `grant`. Returns the sender and whether the fake sink saw
/// its conn reset.
fn against_fake_grant(request: Request, grant: &[u8]) -> (Net, BulkSender, bool) {
    let (topo, nodes) = chain_topology(0, 50_000_000, Dur::from_millis(5), 0.0);
    let mut net = Net::new(topo.into_sim(24));
    let (src, dst) = (nodes[0], *nodes.last().unwrap());
    let listener = net.listen(dst, SINK_PORT, TcpConfig::default());
    let mut sender = BulkSender::start(
        &mut net,
        src,
        &LslPath::direct(Hop::new(dst, SINK_PORT)),
        SessionId(0x34),
        4 * RESUME_BLOCK + RESUME_BLOCK / 2,
        SendMode::lsl(),
        TcpConfig::default(),
        None,
        Some(request),
    );
    let mut replied = false;
    let mut reset = false;
    while let Some(ev) = net.poll() {
        if sender.handle(&mut net, &ev).consumed() {
            continue;
        }
        let AppEvent::Sock { sock, event } = ev else {
            continue;
        };
        match event {
            SockEvent::Readable if sock != listener && !replied => {
                let _header = net.recv(sock, 1 << 10);
                let mut reply = vec![0x4b];
                reply.extend_from_slice(grant);
                assert_eq!(net.send(sock, &reply.into()), 1 + grant.len());
                replied = true;
            }
            SockEvent::Error(_) => reset = true,
            _ => {}
        }
    }
    assert!(replied, "the header never reached the fake sink");
    (net, sender, reset)
}

/// The sender checks the sink's grant: a resume offset off a block
/// boundary, or a stripe range outside the request, fails the attempt
/// with its typed mismatch and resets the sublink.
#[test]
fn sender_rejects_a_malformed_grant() {
    let misaligned = RESUME_BLOCK + 1;
    let (net, sender, reset) =
        against_fake_grant(Request::Resume(Resume::fresh()), &misaligned.to_be_bytes());
    assert_eq!(
        sender.state(),
        SenderState::Failed(SessionError::ResumeMismatch {
            granted: misaligned
        })
    );
    assert!(reset, "the sender must abort its sublink");
    assert!(net.state(sender.sock()).is_none_or(|s| s.is_closed()));

    let request = StripeReq {
        start_block: 1,
        end_block: 3,
    };
    let mut outside = 1u64.to_be_bytes().to_vec();
    outside.extend_from_slice(&4u64.to_be_bytes());
    let (net, sender, reset) = against_fake_grant(Request::Stripe(request), &outside);
    assert_eq!(
        sender.state(),
        SenderState::Failed(SessionError::StripeMismatch {
            granted_start: 1,
            granted_end: 4
        })
    );
    assert!(reset, "the sender must abort its sublink");
    assert!(net.state(sender.sock()).is_none_or(|s| s.is_closed()));
}

/// A one-lane [`SessionClient`] through one depot whose first `rewrite`
/// completed sink outcomes reach it as `Failed(DigestMismatch)`, as if
/// the delivery check had failed. Returns the client's end state and
/// its retransfer and terminal events.
fn session_with_failed_checks(rewrite: usize) -> (ClientState, Vec<SessionEvent>) {
    let (topo, nodes) = chain_topology(1, 50_000_000, Dur::from_millis(5), 0.0);
    let mut net = Net::new(topo.into_sim(31));
    let tcp = TcpConfig {
        time_wait: Dur::from_millis(10),
        ..TcpConfig::default()
    };
    let config = DepotConfig {
        port: DEPOT_PORT,
        tcp: tcp.clone(),
        ..DepotConfig::default()
    };
    let mut depot = Depot::new(&mut net, nodes[1], config);
    let mut sink = SinkServer::new(&mut net, nodes[2], SINK_PORT, true, tcp.clone());
    let path = LslPath::via(
        vec![Hop::new(nodes[1], DEPOT_PORT)],
        Hop::new(nodes[2], SINK_PORT),
    );
    let plan = RoutePlan::builder().path(path).build().unwrap();
    let mut client = SessionClient::start(
        &mut net,
        nodes[0],
        plan,
        SessionId(0x51),
        3 * RESUME_BLOCK,
        SendMode::lsl(),
        tcp,
        RecoveryConfig::default(),
        None,
    );
    let mut left = rewrite;
    while let Some(ev) = net.poll() {
        if !client.handle(&mut net, &ev).consumed() && !sink.handle(&mut net, &ev).consumed() {
            let _ = depot.handle(&mut net, &ev);
        }
        for mut outcome in sink.take_outcomes() {
            if outcome.ok() && left > 0 {
                left -= 1;
                outcome.status = TransferStatus::Failed(SessionError::DigestMismatch);
            }
            client.on_outcome(&mut net, &outcome);
        }
        if client.is_done() {
            break;
        }
    }
    let events = client.take_events().into_iter().map(|(_, e)| e);
    let ends = events.filter(|e| {
        matches!(
            e,
            SessionEvent::Retransfer { .. } | SessionEvent::Completed | SessionEvent::Failed(_)
        )
    });
    (client.state(), ends.collect())
}

/// A failed delivery check burns one of the lane's retransfers; with
/// every check failing, the default budget of two runs out.
#[test]
fn failed_delivery_checks_retransfer_until_the_budget_runs_out() {
    let exhausted = SessionError::RetransfersExhausted;
    assert_eq!(
        session_with_failed_checks(usize::MAX),
        (
            ClientState::Failed(exhausted),
            vec![
                SessionEvent::Retransfer { attempt: 1 },
                SessionEvent::Retransfer { attempt: 2 },
                SessionEvent::Failed(exhausted),
            ]
        )
    );
    assert_eq!(
        session_with_failed_checks(1),
        (
            ClientState::Done,
            vec![
                SessionEvent::Retransfer { attempt: 1 },
                SessionEvent::Completed
            ]
        )
    );
}
