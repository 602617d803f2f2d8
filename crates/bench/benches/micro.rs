//! Micro-benchmarks for the building blocks: digest, codecs, simulator
//! event rate, TCP transfer rate, depot relay, forecasting, campaign
//! scaling.
//!
//! Self-contained `harness = false` runner (no criterion: the build
//! environment is offline). Each benchmark is calibrated to the
//! measurement window, then timed over three fixed-count passes and
//! reported as the median ns/iter (plus MB/s where a byte throughput
//! is meaningful). Invoke with `cargo bench -p lsl-bench`; with
//! `BENCH_SMOKE=1` each benchmark runs a single smoke iteration.
//!
//! Either way the run emits `BENCH_netsim.json` at the workspace root:
//! a machine-readable perf trajectory (simulator events/sec, 1 MiB and
//! 16 MiB case 1 transfer wall time, the 16 MiB one also as a ranged
//! attempt that both ends certify block by block, MD5 throughput for
//! one input and for eight 64 KiB inputs at a time, 16 MiB loopback
//! relay rate, campaign wall time at 1 and N jobs, and the ns/iter of
//! the segment and LSL header codecs and of the NWS mixture update)
//! that CI checks for shape and future PRs diff against. The
//! `BASELINE_*` constants pin each row's figure from before the work
//! that moved it, so the change stays visible in the artifact itself.

use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

use bytes::Bytes;
use lsl_netsim::{Dur, LinkSpec, LossModel, NodeId, Packet, TopologyBuilder};
use lsl_nws::AdaptiveMixture;
use lsl_session::endpoint::SendMode;
use lsl_session::{
    stream_blocks, BulkSender, Depot, DepotConfig, Hop, LslHeader, LslPath, Request, Resume,
    SenderState, SessionId, SinkServer,
};
use lsl_tcp::{Net, Segment};
use lsl_workloads::{case1, default_jobs, run_campaign, run_transfer, Mode, RunConfig};

/// Wall time per measured pass; three passes are taken per benchmark.
const TARGET_MEASURE_S: f64 = 0.25;
/// Hard ceiling on the per-pass iteration count.
const MAX_ITERS: u64 = 1 << 24;

/// 1 MiB case 1 wall time recorded on this host immediately before
/// the event-engine hot-path refactor (BTreeMap route table, BTreeSet
/// timer registry, copying `Bytes`), for trajectory context in the
/// emitted JSON.
const BASELINE_RUN_WALL_S_1MB_DIRECT: f64 = 0.006019;
/// Packet-heavy and timer-heavy event rates of the scheduler the
/// indexed heap replaced (two hierarchical timer wheels with overflow
/// heaps), measured alongside the heap on a 2-core x86-64 KVM VM
/// (Intel Xeon): medians of five alternated runs.
const BASELINE_EVENTS_PER_SEC: f64 = 1_971_015.0;
const BASELINE_TIMER_EVENTS_PER_SEC: f64 = 6_076_908.0;
/// 16 MiB case 1 transfers recorded immediately before the per-byte
/// path work (sender generating a fresh 256 KiB chunk per wakeup,
/// per-byte `% 251` pattern, looped MD5 compression), on a 2-core
/// x86-64 KVM VM (Intel Xeon) that runs the 1 MiB direct case in
/// 0.0100 s.
const BASELINE_RUN_WALL_S_16MB_DIRECT: f64 = 1.003680;
const BASELINE_RUN_WALL_S_16MB_DEPOT: f64 = 1.111879;
/// The ranged 16 MiB case 1 transfer recorded immediately before the
/// sink hashed landed blocks eight at a time (it hashed each block
/// alone as it landed), on the same 2-core KVM VM: median of four runs
/// alternated with the change.
const BASELINE_RUN_WALL_S_16MB_RANGED: f64 = 0.082450;
/// 1 MiB MD5 throughput and the 16 MiB loopback relay rate recorded
/// immediately before the streaming sink verify and the shortened MD5
/// step chain (the sink read a whole session before hashing any of
/// it), on the same 2-core KVM VM: medians of six runs.
const BASELINE_MD5_MB_PER_S: f64 = 475.1;
const BASELINE_REALNET_RELAY_MB_PER_S: f64 = 193.2;

struct Bench {
    smoke: bool,
}

impl Bench {
    fn new() -> Bench {
        // NOTE: cargo compiles `[[bench]]` targets with `--cfg test`
        // even when `harness = false`, so a `cfg!(test)` check here
        // would be *always* true and silently turn `cargo bench` into
        // a smoke run. Smoke mode is therefore opt-in by env only.
        let smoke = std::env::var_os("BENCH_SMOKE").is_some();
        Bench { smoke }
    }

    /// Time `f`, returning the median ns/iter of three measured passes
    /// (or a single rough pass in smoke mode).
    fn run<T>(&self, name: &str, bytes_per_iter: Option<u64>, mut f: impl FnMut() -> T) -> f64 {
        if self.smoke {
            let t0 = Instant::now();
            black_box(f());
            let ns = t0.elapsed().as_secs_f64() * 1e9;
            println!("{name:<40} smoke ok");
            return ns;
        }
        // Calibration: probe until one batch takes >= ~1 ms of wall
        // time, scaling the iteration count from the *measured* rate
        // (clamped to x2..x100 per step) rather than a blind fixed
        // multiplier — a fixed x4 can overshoot the whole measurement
        // window on fast machines once the batch is near the target.
        let mut iters: u64 = 1;
        let per_iter_s = loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let dt = t0.elapsed().as_secs_f64();
            if dt >= 1e-3 || iters >= MAX_ITERS {
                break dt / iters as f64;
            }
            let grow = if dt > 0.0 {
                ((1e-3 / dt) * 1.5) as u64
            } else {
                100
            };
            iters = iters.saturating_mul(grow.clamp(2, 100)).min(MAX_ITERS);
        };
        // Measured passes: a fixed iteration count sized to the window,
        // so a pass cannot overshoot by an extra batch.
        let pass_iters =
            ((TARGET_MEASURE_S / per_iter_s.max(1e-12)).ceil() as u64).clamp(1, MAX_ITERS);
        let mut passes = [0.0f64; 3];
        for p in &mut passes {
            let t0 = Instant::now();
            for _ in 0..pass_iters {
                black_box(f());
            }
            *p = t0.elapsed().as_secs_f64() * 1e9 / pass_iters as f64;
        }
        passes.sort_by(|a, b| a.total_cmp(b));
        let ns_per_iter = passes[1];
        match bytes_per_iter {
            Some(b) => {
                let mbps = b as f64 * 1e9 / ns_per_iter / 1e6;
                println!("{name:<40} {ns_per_iter:>12.0} ns/iter {mbps:>10.1} MB/s");
            }
            None => println!("{name:<40} {ns_per_iter:>12.0} ns/iter"),
        }
        ns_per_iter
    }
}

/// MD5 at 1 KiB, 64 KiB and 1 MiB; returns the 1 MiB MB/s.
fn bench_md5(b: &Bench) -> f64 {
    let mut ns = 0.0;
    for size in [1usize << 10, 64 << 10, 1 << 20] {
        let data = vec![0xa5u8; size];
        ns = b.run(&format!("md5/{size}"), Some(size as u64), || {
            lsl_digest::md5(&data)
        });
    }
    (1 << 20) as f64 * 1e3 / ns.max(1e-9)
}

/// `md5_many` over `LANES` (eight) 64 KiB inputs, a ranged sender's
/// group of blocks; returns the aggregate MB/s.
fn bench_md5_lanes(b: &Bench) -> f64 {
    const BLOCK: usize = 64 << 10;
    let bytes = (lsl_digest::LANES * BLOCK) as u64;
    let data: Vec<Vec<u8>> = (0..lsl_digest::LANES)
        .map(|i| vec![0xa5 ^ i as u8; BLOCK])
        .collect();
    let inputs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let ns = b.run(
        &format!("md5_many/{}x{BLOCK}", inputs.len()),
        Some(bytes),
        || lsl_digest::md5_many(&inputs),
    );
    bytes as f64 * 1e3 / ns.max(1e-9)
}

/// Segment and LSL header encode+decode round trips; returns
/// (segment ns, header ns).
fn bench_codecs(b: &Bench) -> (f64, f64) {
    let seg = Segment {
        src_port: 40000,
        dst_port: 5001,
        seq: 123456789,
        ack: 987654321,
        flags: lsl_tcp::Flags::ACK,
        wnd: 8 << 20,
        mss: None,
    };
    let segment_ns = b.run("segment_encode_decode", None, || {
        let e = seg.encode();
        Segment::decode(&e).expect("valid")
    });
    let header = LslHeader {
        session: SessionId(42),
        flags: 1,
        length: 64 << 20,
        resume: None,
        stripe: None,
        route: vec![Hop::new(NodeId(1), 7001), Hop::new(NodeId(2), 5001)],
    };
    let header_ns = b.run("lsl_header_encode_decode", None, || {
        let e = header.encode().expect("encodable");
        LslHeader::decode(&e).expect("valid").expect("complete")
    });
    (segment_ns, header_ns)
}

/// One pass of the event-rate scenario: 1000 packets through a lossy
/// 2-hop path. Returns the number of `sim.next()` events processed.
fn event_rate_scenario() -> u64 {
    let mut tb = TopologyBuilder::new();
    let a = tb.node("a");
    let r = tb.node("r");
    let z = tb.node("z");
    tb.duplex(a, r, LinkSpec::new(1_000_000_000, Dur::from_micros(100)));
    tb.duplex(
        r,
        z,
        LinkSpec::new(1_000_000_000, Dur::from_micros(100)).with_loss(LossModel::bernoulli(0.01)),
    );
    let mut sim = tb.build().into_sim(1);
    for _ in 0..1000 {
        sim.send(
            a,
            Packet::tcp(a, z, Bytes::new(), Bytes::from_static(&[0u8; 1000])),
        );
    }
    let mut n = 0u64;
    while sim.next().is_some() {
        n += 1;
    }
    n
}

/// Raw event-loop rate; returns events/sec.
fn bench_simulator_events(b: &Bench) -> f64 {
    let events_per_run = event_rate_scenario();
    let ns_per_iter = b.run("netsim_1000_packets_2hop", None, event_rate_scenario);
    events_per_run as f64 * 1e9 / ns_per_iter.max(1e-9)
}

/// Timer-heavy scenario: 2000 timers held armed with RTO-style churn
/// (every fire cancels a pseudo-random victim and re-arms it plus
/// itself, every 4th fire sends a packet), 10k fire budget, then drain.
/// This is the workload shape a chaos campaign imposes — dominated by
/// arm/cancel/fire traffic rather than packet serialization — and the
/// one the scheduler's cancelled-entry handling shows up in. Returns
/// the number of externally visible events processed.
fn timer_heavy_scenario() -> u64 {
    const ARMED: u64 = 2_000;
    const FIRE_BUDGET: u64 = 10_000;
    let spread = |i: u64, salt: u64| {
        let h = (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt).wrapping_mul(0x2545_f491_4f6c_dd1d);
        Dur::from_micros(500 + h % 100_000)
    };
    let mut tb = TopologyBuilder::new();
    let a = tb.node("a");
    let r = tb.node("r");
    let z = tb.node("z");
    tb.duplex(a, r, LinkSpec::new(1_000_000_000, Dur::from_micros(100)));
    tb.duplex(
        r,
        z,
        LinkSpec::new(1_000_000_000, Dur::from_micros(100)).with_loss(LossModel::bernoulli(0.01)),
    );
    let mut sim = tb.build().into_sim(1);
    let mut handles = Vec::with_capacity(ARMED as usize);
    for i in 0..ARMED {
        handles.push(sim.set_timer(a, lsl_netsim::Time::ZERO + spread(i, 1), i));
    }
    let mut fires = 0u64;
    let mut n = 0u64;
    while let Some(out) = sim.next() {
        n += 1;
        if let lsl_netsim::Output::Timer { token, .. } = out {
            fires += 1;
            if fires <= FIRE_BUDGET {
                let victim = fires.wrapping_mul(31) % ARMED;
                sim.cancel_timer(handles[victim as usize]);
                handles[victim as usize] = sim.set_timer(a, sim.now() + spread(fires, 2), victim);
                if victim != token {
                    handles[token as usize] = sim.set_timer(a, sim.now() + spread(fires, 3), token);
                }
                if fires.is_multiple_of(4) {
                    sim.send(
                        a,
                        Packet::tcp(a, z, Bytes::new(), Bytes::from_static(&[0u8; 300])),
                    );
                }
            }
        }
    }
    n
}

/// Timer-heavy event rate; returns events/sec.
fn bench_simulator_timer_events(b: &Bench) -> f64 {
    let events_per_run = timer_heavy_scenario();
    let ns_per_iter = b.run("netsim_timer_heavy_churn", None, timer_heavy_scenario);
    events_per_run as f64 * 1e9 / ns_per_iter.max(1e-9)
}

/// End-to-end simulated case 1 transfers of `mib` MiB; returns
/// (direct, via-depot) wall seconds per run.
fn bench_tcp_transfer(b: &Bench, mib: u64) -> (f64, f64) {
    let case = case1();
    let size = mib << 20;
    let wall = |mode: Mode, label: &str| {
        let name = format!("sim_transfer_{mib}MB/{label}");
        let ns = b.run(&name, Some(size), || {
            run_transfer(&case, &RunConfig::builder(size, mode).seed(1).build()).duration_s
        });
        ns / 1e9
    };
    (
        wall(Mode::Direct, "direct"),
        wall(Mode::ViaDepot, "via_depot"),
    )
}

/// One 16 MiB case 1 transfer via the depot that asks for a fresh
/// resume, so the attempt is ranged: each 64 KiB block carries its MD5
/// in band, and both ends hash the blocks up to eight at a time. The
/// same configuration as the `via_depot` row but for the request, built
/// from the public sender, depot and sink. Returns wall seconds per run.
fn bench_ranged_transfer(b: &Bench) -> f64 {
    let size = 16 << 20;
    let ns = b.run("sim_transfer_16MB/ranged", Some(size), || {
        ranged_transfer(size)
    });
    ns / 1e9
}

/// Run one ranged `size`-byte case 1 transfer via the depot; returns
/// the payload bytes the sink certified.
fn ranged_transfer(size: u64) -> u64 {
    let case = case1();
    let cfg = RunConfig::builder(size, Mode::ViaDepot).seed(1).build();
    let mut net = Net::new(case.topo.into_sim(cfg.seed));
    let mut depot = Depot::new(
        &mut net,
        case.depot,
        DepotConfig {
            port: cfg.depot_port,
            relay_buf: cfg.relay_buf,
            tcp: cfg.tcp.clone(),
            setup_delay: cfg.depot_setup_delay,
            trace_downstream: None,
        },
    );
    let mut sink = SinkServer::new(&mut net, case.dst, cfg.sink_port, true, cfg.tcp.clone());
    let path = LslPath::via(
        vec![Hop::new(case.depot, cfg.depot_port)],
        Hop::new(case.dst, cfg.sink_port),
    );
    let session = SessionId(cfg.seed as u128 + 1);
    let mut sender = BulkSender::start(
        &mut net,
        case.src,
        &path,
        session,
        size,
        SendMode::lsl(),
        cfg.tcp.clone(),
        None,
        Some(Request::Resume(Resume::fresh())),
    );
    while let Some(ev) = net.poll() {
        if !sender.handle(&mut net, &ev).consumed() && !sink.handle(&mut net, &ev).consumed() {
            let _ = depot.handle(&mut net, &ev);
        }
    }
    assert_eq!(sender.state(), SenderState::Done);
    let outcomes = sink.take_outcomes();
    assert!(outcomes.len() == 1 && outcomes[0].ok() && outcomes[0].bytes == size);
    let certified = sink.session_certified(session);
    assert_eq!(certified, stream_blocks(size));
    outcomes[0].bytes
}

/// 100 adaptive-mixture updates and a prediction; returns ns.
fn bench_forecasting(b: &Bench) -> f64 {
    b.run("nws_mixture_update_x100", None, || {
        let mut m = AdaptiveMixture::standard();
        for i in 0..100 {
            m.update(10.0 + (i % 7) as f64);
        }
        m.predict()
    })
}

/// 16 MiB sessions through one loopback `lsd` depot, digest and sync
/// confirm on; returns MB/s. Big enough that the sink's MD5 pass shows.
fn bench_realnet_relay(b: &Bench) -> f64 {
    use lsl_realnet::{LsdServer, LslListener, LslStream};
    use std::net::Ipv4Addr;
    use std::sync::Arc;
    const SIZE: usize = 16 << 20;
    let depot = LsdServer::spawn((Ipv4Addr::LOCALHOST, 0).into()).expect("spawn depot");
    let depot_addr = depot.addr();
    let payload = Arc::new(vec![0x5au8; SIZE]);
    let ns = b.run(
        "realnet_relay_16MB/loopback_cascade",
        Some(SIZE as u64),
        || {
            let listener = LslListener::bind((Ipv4Addr::LOCALHOST, 0).into()).expect("bind");
            let sink_addr = listener.local_addr().expect("addr");
            let payload = Arc::clone(&payload);
            let t = std::thread::spawn(move || {
                let mut s = LslStream::connect(
                    SessionId(1),
                    &[depot_addr],
                    sink_addr,
                    payload.len() as u64,
                    true,
                    true,
                )
                .expect("connect");
                s.write_all(&payload).expect("write");
                s.finish().expect("finish");
            });
            let (data, ok) = listener.accept().expect("accept").read_all().expect("read");
            t.join().expect("join");
            assert_eq!(ok, Some(true));
            data.len()
        },
    );
    SIZE as f64 * 1e3 / ns.max(1e-9)
}

/// Campaign scaling: the same 8-run transfer campaign executed at
/// jobs=1 and jobs=N. Returns (n, wall_s at 1 job, wall_s at N jobs);
/// both campaigns produce bitwise-identical result vectors, so the
/// only difference is wall time.
fn bench_campaign(b: &Bench) -> (usize, f64, f64) {
    let case = case1();
    let runs = if b.smoke { 2 } else { 8 };
    let campaign = |jobs: usize| {
        run_campaign(runs, jobs, |i| {
            run_transfer(
                &case,
                &RunConfig::builder(256 << 10, Mode::ViaDepot)
                    .seed(100 + i as u64)
                    .build(),
            )
            .goodput_bps
        })
    };
    let n = default_jobs().max(4);
    let time = |jobs: usize| {
        let passes = if b.smoke { 1 } else { 3 };
        let mut walls: Vec<f64> = (0..passes)
            .map(|_| {
                let t0 = Instant::now();
                black_box(campaign(jobs));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        walls.sort_by(|a, b| a.total_cmp(b));
        walls[walls.len() / 2]
    };
    let w1 = time(1);
    let wn = time(n);
    let seq = campaign(1);
    let par = campaign(n);
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(par.iter()) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "campaign output must not depend on jobs"
        );
    }
    println!(
        "campaign_{runs}x256KB/jobs1_vs_jobs{n}       {:>9.3} s vs {:>9.3} s ({:.2}x)",
        w1,
        wn,
        w1 / wn.max(1e-9)
    );
    (n, w1, wn)
}

/// Hand-rolled JSON emission (offline build: no serde) of `rows`, then
/// the `BASELINE_*` figures; each row is (key, value, decimals).
/// Written to the workspace root so the trajectory lives next to the
/// sources it measures; override the path with `BENCH_OUT`.
fn write_json(smoke: bool, rows: &[(&str, f64, usize)]) {
    let path = std::env::var_os("BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_netsim.json")
        });
    let baseline = [
        ("netsim_events_per_sec", BASELINE_EVENTS_PER_SEC, 0),
        (
            "netsim_timer_events_per_sec",
            BASELINE_TIMER_EVENTS_PER_SEC,
            0,
        ),
        ("run_wall_s_1mb_direct", BASELINE_RUN_WALL_S_1MB_DIRECT, 6),
        ("run_wall_s_16mb_direct", BASELINE_RUN_WALL_S_16MB_DIRECT, 6),
        ("run_wall_s_16mb_depot", BASELINE_RUN_WALL_S_16MB_DEPOT, 6),
        ("run_wall_s_16mb_ranged", BASELINE_RUN_WALL_S_16MB_RANGED, 6),
        ("md5_mb_per_s", BASELINE_MD5_MB_PER_S, 1),
        ("realnet_relay_mb_per_s", BASELINE_REALNET_RELAY_MB_PER_S, 1),
    ];
    let fields = |rows: &[(&str, f64, usize)], indent: &str| {
        rows.iter()
            .map(|(k, v, decimals)| format!("{indent}\"{k}\": {v:.decimals$}"))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"smoke\": {smoke},\n{},\n  \"baseline\": {{\n{}\n  }}\n}}\n",
        fields(rows, "  "),
        fields(&baseline, "    "),
    );
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let b = Bench::new();
    let md5_mb_per_s = bench_md5(&b);
    let md5_lanes_mb_per_s = bench_md5_lanes(&b);
    let (segment_ns, header_ns) = bench_codecs(&b);
    let events_per_sec = bench_simulator_events(&b);
    let timer_events_per_sec = bench_simulator_timer_events(&b);
    let (direct_s, depot_s) = bench_tcp_transfer(&b, 1);
    let (direct16_s, depot16_s) = bench_tcp_transfer(&b, 16);
    let ranged16_s = bench_ranged_transfer(&b);
    let nws_ns = bench_forecasting(&b);
    let realnet_relay_mb_per_s = bench_realnet_relay(&b);
    let (jobs_n, w1, wn) = bench_campaign(&b);
    write_json(
        b.smoke,
        &[
            ("netsim_events_per_sec", events_per_sec, 0),
            ("netsim_timer_events_per_sec", timer_events_per_sec, 0),
            ("run_wall_s_1mb_direct", direct_s, 6),
            ("run_wall_s_1mb_depot", depot_s, 6),
            ("run_wall_s_16mb_direct", direct16_s, 6),
            ("run_wall_s_16mb_depot", depot16_s, 6),
            ("run_wall_s_16mb_ranged", ranged16_s, 6),
            ("md5_mb_per_s", md5_mb_per_s, 1),
            ("md5_lanes_mb_per_s", md5_lanes_mb_per_s, 1),
            ("realnet_relay_mb_per_s", realnet_relay_mb_per_s, 1),
            ("campaign_jobs", jobs_n as f64, 0),
            ("campaign_wall_s_jobs1", w1, 6),
            ("campaign_wall_s_jobsN", wn, 6),
            ("segment_encode_decode_ns", segment_ns, 1),
            ("lsl_header_encode_decode_ns", header_ns, 1),
            ("nws_mixture_update_x100_ns", nws_ns, 1),
        ],
    );
}
