//! Real-TCP integration: cascaded sessions through live `lsd` depots on
//! loopback.

use std::io::Write;
use std::net::{Ipv4Addr, SocketAddr};
use std::sync::atomic::Ordering;

use lsl_realnet::{LsdServer, LslListener, LslStream};
use lsl_session::SessionId;

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
