//! Calibrated unit-cost probes: the public building blocks timed alone,
//! each as the median of three passes of about 50 ms.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::time::Instant;

use lsl_netsim::NodeId;
use lsl_session::endpoint::payload_chunk;
use lsl_session::{Hop, LslHeader, SessionId};
use lsl_tcp::{Flags, Segment};

use crate::Metrics;

const PASS_S: f64 = 0.05;

/// Median ns per call of `f`, calibrated so one pass takes `PASS_S`.
fn ns_per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut iters: u64 = 1;
    let per_call = loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt >= 2e-3 {
            break dt / iters as f64;
        }
        iters *= 4;
    };
    let iters = ((PASS_S / per_call).ceil() as u64).max(1);
    let mut passes = [0.0f64; 3];
    for p in &mut passes {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        *p = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;
    }
    passes.sort_by(f64::total_cmp);
    passes[1]
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / ns * 1e3
}

/// Kernel loopback copy of `len` bytes with no LSL framing, hashing or
/// relay: the ceiling for `realnet_relay`. MB/s.
fn raw_tcp_mb_per_s(len: usize) -> std::io::Result<f64> {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
    let addr = listener.local_addr()?;
    let t0 = Instant::now();
    let writer = std::thread::spawn(move || -> std::io::Result<()> {
        let mut s = TcpStream::connect(addr)?;
        let buf = vec![0x5au8; 64 << 10];
        let mut left = len;
        while left > 0 {
            let n = left.min(buf.len());
            s.write_all(&buf[..n])?;
            left -= n;
        }
        Ok(())
    });
    let (mut conn, _) = listener.accept()?;
    let mut buf = vec![0u8; 64 << 10];
    let mut got = 0usize;
    loop {
        let n = conn.read(&mut buf)?;
        if n == 0 {
            break;
        }
        got += n;
    }
    let wall = t0.elapsed().as_secs_f64();
    writer
        .join()
        .map_err(|_| std::io::Error::other("raw writer panicked"))??;
    if got != len {
        return Err(std::io::Error::other(format!(
            "raw copy moved {got} of {len} bytes"
        )));
    }
    Ok(len as f64 / 1e6 / wall)
}

pub fn run_all(m: &mut Metrics) {
    let data = payload_chunk(0, 1 << 20);
    let ns = ns_per_call(|| lsl_digest::md5(&data));
    m.set("digest.md5.mb_per_s", mb_per_s(data.len(), ns));

    let len = 256 << 10;
    let ns = ns_per_call(|| payload_chunk(12_345, len));
    m.set("session.payload_chunk.mb_per_s", mb_per_s(len, ns));

    let seg = Segment {
        src_port: 40000,
        dst_port: 5001,
        seq: 123_456_789,
        ack: 987_654_321,
        flags: Flags::ACK,
        wnd: 8 << 20,
        mss: None,
    };
    m.set(
        "tcp.segment_codec.ns",
        ns_per_call(|| Segment::decode(&seg.encode()).expect("segment round-trips")),
    );

    let header = LslHeader {
        session: SessionId(42),
        flags: 1,
        length: 64 << 20,
        resume: None,
        stripe: None,
        route: vec![Hop::new(NodeId(1), 7001), Hop::new(NodeId(2), 5001)],
    };
    m.set(
        "session.header_codec.ns",
        ns_per_call(|| {
            let e = header.encode().expect("header encodes");
            LslHeader::decode(&e).expect("header decodes")
        }),
    );

    // Median of three 64 MiB copies.
    let mut raw: Vec<f64> = (0..3)
        .filter_map(|_| raw_tcp_mb_per_s(64 << 20).ok())
        .collect();
    if !raw.is_empty() {
        m.set("realnet.raw_tcp.mb_per_s", crate::median(&mut raw));
    }
}
