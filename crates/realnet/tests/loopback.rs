//! Real-TCP integration: cascaded sessions through live `lsd` depots on
//! loopback.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::sync::atomic::Ordering;

use lsl_netsim::{Dur, LinkSpec, TopologyBuilder};
use lsl_realnet::{LsdServer, LslListener, LslStream};
use lsl_session::endpoint::{payload_chunk, SendMode, SenderState, SESSION_CONFIRM};
use lsl_session::{BulkSender, Hop, LslHeader, LslPath, SessionId};
use lsl_tcp::{AppEvent, Net, SockEvent, TcpConfig};

fn patterned(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + 7) % 251) as u8).collect()
}

fn run_session(depots: &[SocketAddr], payload: &[u8]) -> (Vec<u8>, Option<bool>, SessionId) {
    let listener = LslListener::bind((Ipv4Addr::LOCALHOST, 0).into()).unwrap();
    let sink_addr = listener.local_addr().unwrap();
    let payload_owned = payload.to_vec();
    let depots_owned = depots.to_vec();
    let t = std::thread::spawn(move || {
        let mut s = LslStream::connect(
            SessionId(0xabc),
            &depots_owned,
            sink_addr,
            payload_owned.len() as u64,
            true,
            true,
        )
        .unwrap();
        // Write in awkward chunk sizes to exercise partial writes.
        for chunk in payload_owned.chunks(7919) {
            s.write_all(chunk).unwrap();
        }
        s.finish().unwrap();
    });
    let sess = listener.accept().unwrap();
    let id = sess.session();
    let (got, digest_ok) = sess.read_all().unwrap();
    t.join().unwrap();
    (got, digest_ok, id)
}

#[test]
fn one_depot_cascade() {
    let depot = LsdServer::spawn((Ipv4Addr::LOCALHOST, 0).into()).unwrap();
    let payload = patterned(1 << 20);
    let (got, digest_ok, id) = run_session(&[depot.addr()], &payload);
    assert_eq!(got, payload);
    assert_eq!(digest_ok, Some(true));
    assert_eq!(id, SessionId(0xabc));
    assert_eq!(depot.counters().sessions.load(Ordering::Relaxed), 1);
    // The depot adds a session's relayed bytes only once both pump
    // directions end, which can trail the sink's read of the last byte.
    let relayed = || depot.counters().bytes_relayed.load(Ordering::Relaxed);
    for _ in 0..1000 {
        if relayed() >= 1 << 20 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(relayed() >= 1 << 20, "relayed {} B", relayed());
    depot.shutdown();
}

#[test]
fn three_depot_cascade() {
    let d1 = LsdServer::spawn((Ipv4Addr::LOCALHOST, 0).into()).unwrap();
    let d2 = LsdServer::spawn((Ipv4Addr::LOCALHOST, 0).into()).unwrap();
    let d3 = LsdServer::spawn((Ipv4Addr::LOCALHOST, 0).into()).unwrap();
    let payload = patterned(300_000);
    let (got, digest_ok, _) = run_session(&[d1.addr(), d2.addr(), d3.addr()], &payload);
    assert_eq!(got, payload);
    assert_eq!(digest_ok, Some(true));
    for d in [d1, d2, d3] {
        assert_eq!(d.counters().sessions.load(Ordering::Relaxed), 1);
        d.shutdown();
    }
}

#[test]
fn empty_payload_session() {
    let depot = LsdServer::spawn((Ipv4Addr::LOCALHOST, 0).into()).unwrap();
    let (got, digest_ok, _) = run_session(&[depot.addr()], &[]);
    assert!(got.is_empty());
    assert_eq!(digest_ok, Some(true));
    depot.shutdown();
}

#[test]
fn concurrent_sessions_share_one_depot() {
    let depot = LsdServer::spawn((Ipv4Addr::LOCALHOST, 0).into()).unwrap();
    let depot_addr = depot.addr();
    let threads: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let payload = patterned(100_000 + i * 13);
                let (got, ok, _) = run_session(&[depot_addr], &payload);
                assert_eq!(got, payload);
                assert_eq!(ok, Some(true));
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(depot.counters().sessions.load(Ordering::Relaxed), 4);
    depot.shutdown();
}

#[test]
fn depot_to_unreachable_next_hop_fails_sync_connect() {
    let depot = LsdServer::spawn((Ipv4Addr::LOCALHOST, 0).into()).unwrap();
    // Next hop: a port with (almost certainly) no listener. The depot's
    // onward connect fails, it drops the sublink, and our synchronous
    // confirmation read sees EOF — so connect() must return an error.
    let dead: SocketAddr = (Ipv4Addr::LOCALHOST, 1).into();
    let result = LslStream::connect(SessionId(1), &[depot.addr()], dead, 10, true, true);
    assert!(
        result.is_err(),
        "sync connect through a dead route must fail"
    );
    depot.shutdown();
}

/// The body (payload and trailer) the simulator's v1 sender streams for
/// a `len`-byte session, read raw off a simulated socket that confirms
/// the session once its header is in.
fn simulated_v1_body(len: u64) -> Vec<u8> {
    let mut b = TopologyBuilder::new();
    let (src, dst) = (b.node("src"), b.node("dst"));
    b.duplex(
        src,
        dst,
        LinkSpec::new(1_000_000_000, Dur::from_micros(100)),
    );
    let mut net = Net::new(b.build().into_sim(1));
    let listener = net.listen(dst, 5000, TcpConfig::default());
    let path = LslPath::direct(Hop::new(dst, 5000));
    let tcp = TcpConfig::default();
    let mut sender = BulkSender::start(
        &mut net,
        src,
        &path,
        SessionId(1),
        len,
        SendMode::Lsl,
        tcp,
        None,
        None,
    );
    let (mut conn, mut raw, mut header_len) = (None, Vec::new(), None);
    while let Some(ev) = net.poll() {
        if sender.handle(&mut net, &ev).consumed() {
            continue;
        }
        let AppEvent::Sock { sock, event } = ev else {
            continue;
        };
        match event {
            SockEvent::Accepted { conn: c } if sock == listener => conn = Some(c),
            SockEvent::Readable | SockEvent::PeerFin if Some(sock) == conn => {
                raw.extend_from_slice(&net.recv(sock, usize::MAX));
                if header_len.is_none() {
                    if let Some((_, used)) = LslHeader::decode(&raw).unwrap() {
                        header_len = Some(used);
                        let confirm = bytes::Bytes::from_static(&[SESSION_CONFIRM]);
                        assert_eq!(net.send(sock, &confirm), 1);
                    }
                }
                if net.at_eof(sock) {
                    net.close(sock);
                }
            }
            _ => {}
        }
    }
    assert_eq!(sender.state(), SenderState::Done);
    raw.split_off(header_len.expect("header arrived"))
}

/// One wire version, one rule: the body an `LslStream` sends, read raw
/// off a plain TCP listener, is the simulator's v1 body for the same
/// payload, trailer included, for lengths that are and are not whole
/// numbers of 64 KiB blocks and for an empty stream; the writes cut
/// blocks at odd places.
#[test]
fn real_and_simulated_v1_trailers_agree() {
    for len in [5 * 65_536 + 1_234, 2 * 65_536, 0] {
        let payload = payload_chunk(0, len);
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let mut s =
                LslStream::connect(SessionId(2), &[], addr, len as u64, true, false).unwrap();
            for chunk in payload.chunks(7919) {
                s.write_all(chunk).unwrap();
            }
            s.finish().unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let mut raw = Vec::new();
        conn.read_to_end(&mut raw).unwrap();
        drop(conn);
        t.join().unwrap();
        let (_, used) = LslHeader::decode(&raw).unwrap().unwrap();
        let sim = simulated_v1_body(len as u64);
        assert_eq!(raw.len() - used, len + 16, "len {len}");
        assert_eq!(raw[raw.len() - 16..], sim[sim.len() - 16..], "len {len}");
        assert_eq!(raw[used..], sim[..], "len {len}");
    }
}
