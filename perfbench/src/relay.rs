//! `realnet_relay`: real kernel TCP over the host's loopback interface.
//! One `LsdServer` depot sits between `LslStream` and `LslListener`,
//! with digest and sync confirm on. Each cycle is one 64 MiB session
//! followed by `SMALL_PER_CYCLE` 64 KiB sessions.
//!
//! One client thread opens and writes the sessions; the sink runs on
//! the main thread. The depot's own threads belong to the program under
//! test. The payload is a seed-derived byte stream; a small session
//! carries a seed-chosen slice of it. None of the simulator, tcp or
//! session-engine code runs here.

use std::io::Write as _;
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lsl_realnet::{DepotHandle, LsdServer, LslListener, LslStream};
use lsl_session::SessionId;

use crate::span::{Layer, Tracer};
use crate::{mix, percentile, Metrics, Outcome, Workload};

const BIG: usize = 64 << 20;
const SMALL: usize = 64 << 10;
const SMALL_PER_CYCLE: usize = 100;
/// Bytes the depot relays per session beyond the payload: the 16-byte
/// digest trailer and the one-byte confirmation.
const RELAY_OVERHEAD: u64 = 17;
/// Client-side write granularity.
const WRITE_CHUNK: usize = 256 << 10;

struct Job {
    id: u64,
    offset: usize,
    len: usize,
}

/// What the client thread reports for one session.
struct Sent {
    connect_s: f64,
    write_s: f64,
    result: Result<(), String>,
}

struct Client {
    jobs: Option<Sender<Job>>,
    done: Receiver<Sent>,
    thread: Option<JoinHandle<()>>,
}

impl Client {
    fn spawn(payload: Arc<Vec<u8>>, depot: SocketAddr, sink: SocketAddr) -> Client {
        let (jobs, job_rx) = channel::<Job>();
        let (done_tx, done) = channel::<Sent>();
        let thread = std::thread::spawn(move || {
            for job in job_rx {
                let sent = send_one(&payload, depot, sink, &job);
                if sent.result.is_err() {
                    // Unblock the sink's accept; it then fails on the
                    // missing header.
                    let _ = TcpStream::connect(sink);
                }
                if done_tx.send(sent).is_err() {
                    break;
                }
            }
        });
        Client {
            jobs: Some(jobs),
            done,
            thread: Some(thread),
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        drop(self.jobs.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn send_one(payload: &[u8], depot: SocketAddr, sink: SocketAddr, job: &Job) -> Sent {
    let t0 = Instant::now();
    let stream = LslStream::connect(
        SessionId(u128::from(job.id)),
        &[depot],
        sink,
        job.len as u64,
        true,
        true,
    );
    let connect_s = t0.elapsed().as_secs_f64();
    let mut stream = match stream {
        Ok(s) => s,
        Err(e) => {
            return Sent {
                connect_s,
                write_s: 0.0,
                result: Err(format!("connect: {e}")),
            }
        }
    };
    let t1 = Instant::now();
    let data = &payload[job.offset..job.offset + job.len];
    let mut result = data
        .chunks(WRITE_CHUNK)
        .try_for_each(|c| stream.write_all(c))
        .map_err(|e| format!("write: {e}"));
    if result.is_ok() {
        result = stream.finish().map_err(|e| format!("finish: {e}"));
    }
    Sent {
        connect_s,
        write_s: t1.elapsed().as_secs_f64(),
        result,
    }
}

pub struct RealnetRelay {
    seed: u64,
    payload: Arc<Vec<u8>>,
    listener: LslListener,
    depot: Option<DepotHandle>,
    client: Client,
    /// Bytes the depot should have relayed so far.
    relayed_expected: u64,
    acc: Acc,
}

#[derive(Default)]
struct Acc {
    connect_ms: Vec<f64>,
    big_bytes: u64,
    big_write_s: f64,
    big_read_s: f64,
    /// Depot counters when set-up ended.
    depot_base: (u64, u64, u64),
}

impl RealnetRelay {
    fn depot(&self) -> &DepotHandle {
        self.depot.as_ref().expect("depot runs until drop")
    }

    /// Depot counters `(sessions, bytes_relayed, header_errors)`, once
    /// the relay threads have accounted every finished session (they
    /// add after the session's last byte, so wait up to a second).
    fn settled_counters(&self) -> (u64, u64, u64) {
        let c = self.depot().counters();
        let deadline = Instant::now() + Duration::from_secs(1);
        while c.bytes_relayed.load(Ordering::SeqCst) < self.relayed_expected
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        (
            c.sessions.load(Ordering::SeqCst),
            c.bytes_relayed.load(Ordering::SeqCst),
            c.header_errors.load(Ordering::SeqCst),
        )
    }

    fn run_session(&mut self, id: u64, offset: usize, len: usize, tr: &mut Tracer) -> Outcome {
        let job = Job { id, offset, len };
        self.client
            .jobs
            .as_ref()
            .expect("client runs until drop")
            .send(job)
            .expect("client thread alive");
        let t_read = Instant::now();
        let received = tr.span(Layer::RealnetSink, || {
            let sess = self.listener.accept()?;
            let header = (sess.session(), sess.announced_length());
            let (data, digest_ok) = sess.read_all()?;
            Ok::<_, std::io::Error>((header, data, digest_ok))
        });
        let read_s = t_read.elapsed().as_secs_f64();
        let sent = self.client.done.recv().expect("client thread alive");
        self.relayed_expected += len as u64 + RELAY_OVERHEAD;

        let breach = tr.span(Layer::Verify, || {
            let expected = &self.payload[offset..offset + len];
            match (&sent.result, &received) {
                (Err(e), _) => Some(format!("client: {e}")),
                (_, Err(e)) => Some(format!("sink: {e}")),
                (Ok(()), Ok(((sid, announced), data, digest_ok))) => {
                    if *sid != SessionId(u128::from(id)) || *announced != len as u64 {
                        Some(format!("header {sid:?} length {announced}"))
                    } else if data.len() != len {
                        Some(format!("received {} of {len} bytes", data.len()))
                    } else if *digest_ok != Some(true) {
                        Some(format!("digest {digest_ok:?}"))
                    } else if data[..] != expected[..] {
                        Some("payload differs from the pattern".to_string())
                    } else {
                        None
                    }
                }
            }
        });

        if tr.is_on() {
            self.acc.connect_ms.push(sent.connect_s * 1e3);
            if len == BIG {
                self.acc.big_bytes += len as u64;
                self.acc.big_write_s += sent.write_s;
                self.acc.big_read_s += read_s;
            }
        }
        Outcome {
            wall_s: 0.0,
            sim_s: 0.0,
            bytes: if breach.is_none() { len as u64 } else { 0 },
            completed: breach.is_none(),
            wall_sample: len == SMALL,
            group_peak_rss_mb: None,
            fingerprint: format!(
                "session {id} offset {offset} len {len} ok {}",
                breach.is_none()
            ),
            breach,
        }
    }
}

/// Seed-derived payload: a xorshift byte stream.
fn payload(seed: u64) -> Vec<u8> {
    let mut x = mix(seed, 0, 0) | 1;
    let mut out = Vec::with_capacity(BIG);
    while out.len() < BIG {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

impl Workload for RealnetRelay {
    fn setup(seed: u64) -> RealnetRelay {
        let payload = Arc::new(payload(seed));
        let localhost: SocketAddr = (Ipv4Addr::LOCALHOST, 0).into();
        let depot = LsdServer::spawn(localhost).expect("spawn depot on loopback");
        let listener = LslListener::bind(localhost).expect("bind sink on loopback");
        let sink_addr = listener.local_addr().expect("sink address");
        let client = Client::spawn(Arc::clone(&payload), depot.addr(), sink_addr);
        let mut w = RealnetRelay {
            seed,
            payload,
            listener,
            depot: Some(depot),
            client,
            relayed_expected: 0,
            acc: Acc::default(),
        };
        // Warm-up: a few small sessions through the fresh depot.
        let mut off = Tracer::new(false, 0);
        for k in 0..3 {
            let out = w.run_session(1_000_000 + k, 0, SMALL, &mut off);
            assert!(
                out.breach.is_none(),
                "warm-up session failed: {:?}",
                out.breach
            );
        }
        w.acc.depot_base = w.settled_counters();
        w
    }

    fn group(&self) -> usize {
        1 + SMALL_PER_CYCLE
    }

    fn session(&mut self, i: usize, tr: &mut Tracer) -> Outcome {
        if i.is_multiple_of(self.group()) {
            self.run_session(i as u64, 0, BIG, tr)
        } else {
            let offset = (mix(self.seed, i as u64, 1) % (BIG - SMALL) as u64) as usize;
            self.run_session(i as u64, offset, SMALL, tr)
        }
    }

    fn layer_metrics(&mut self, _tr: &Tracer, _sessions: usize, m: &mut Metrics) {
        let (s, b, e) = self.settled_counters();
        let (s0, b0, e0) = self.acc.depot_base;
        m.set("realnet.depot.sessions", (s - s0) as f64);
        m.set("realnet.depot.bytes_relayed", (b - b0) as f64);
        m.set("realnet.depot.header_errors", (e - e0) as f64);
        m.set(
            "realnet.connect.ms_p50",
            percentile(&mut self.acc.connect_ms, 50.0),
        );
        if self.acc.big_bytes > 0 {
            let mb = self.acc.big_bytes as f64 / 1e6;
            m.set("realnet.write.mb_per_s", mb / self.acc.big_write_s);
            m.set("realnet.read_all.mb_per_s", mb / self.acc.big_read_s);
        }
        m.set("session.useful_byte_ratio", 1.0);
    }
}

impl Drop for RealnetRelay {
    fn drop(&mut self) {
        if let Some(d) = self.depot.take() {
            d.shutdown();
        }
    }
}
