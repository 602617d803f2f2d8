//! Scheduler-scale benchmark: event-engine throughput as a function of
//! armed-timer count and of concurrent-session count.
//!
//! `BENCH_netsim.json`'s events/sec figure measures one fixed small
//! workload; this bench measures how the engine *scales* — the property
//! ROADMAP item 3 (million-session depots) actually needs. Two curves:
//!
//! * **timer curve** — a churn workload holding N timers armed at all
//!   times (every fire cancels one pseudo-random victim and re-arms
//!   two), with delays spread from 1 ms to minutes so every wheel level
//!   and the far-future overflow path is exercised. This is the
//!   RTO-rearm pattern N concurrent TCP flows impose on the engine.
//! * **session curve** — N self-clocked "sessions", each a timer that
//!   sends a packet over a shared 2-hop path and re-arms, mixing
//!   timer-class and link-class events the way a real transfer
//!   campaign does.
//! * **striped sessions/sec** — end-to-end striped transfers through
//!   the full stack on the three-depot topology, with the degraded
//!   single-cascade run as its baseline: the dispatcher's own price.
//!
//! Self-contained `harness = false` runner like `micro.rs` (offline
//! build: no criterion). Emits `BENCH_scale.json` at the workspace root
//! (override with `BENCH_SCALE_OUT`); `BENCH_SMOKE=1` shrinks the event
//! budget to a shape-check. `BASELINE_*` pin the numbers recorded on
//! this host immediately before the scheduler overhaul (single global
//! `BinaryHeap` carrying full event payloads), so the artifact itself
//! shows the trajectory.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use lsl_netsim::{
    Dur, LinkSpec, NodeId, Output, Packet, Simulator, StormPlan, Time, TopologyBuilder,
};
use lsl_workloads::{Campaign, CampaignConfig, ClientKind, Scenario};

/// Externally visible events to process per measurement (setup excluded).
const EVENT_BUDGET: u64 = 400_000;
const SMOKE_BUDGET: u64 = 4_000;

/// Armed-timer counts for the timer-churn curve.
const TIMER_POINTS: [usize; 4] = [100, 1_000, 10_000, 100_000];
/// Concurrent-session counts for the mixed-workload curve.
const SESSION_POINTS: [usize; 4] = [16, 128, 1_024, 8_192];

/// Baselines recorded against the pre-overhaul engine (global
/// `BinaryHeap<Reverse<HeapEntry>>`, payloads inline in heap entries),
/// same host, same budgets. Index-aligned with the point arrays.
const BASELINE_TIMER_EPS: [f64; 4] = [5_036_958.0, 3_585_315.0, 2_021_984.0, 587_381.0];
const BASELINE_SESSION_EPS: [f64; 4] = [5_433_395.0, 4_266_112.0, 3_784_222.0, 4_439_009.0];

/// Deterministic delay spreader: maps (index, salt) onto 1 ms..=512 ms
/// with every 64th draw stretched into the far-future band (2..=33 s)
/// so the overflow path stays on the measured profile.
fn spread_delay(i: u64, salt: u64) -> Dur {
    let h = (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt).wrapping_mul(0x2545_f491_4f6c_dd1d);
    if i % 64 == 63 {
        Dur::from_millis(2_000 + h % 31_000)
    } else {
        Dur::from_millis(1 + h % 512)
    }
}

/// Hold `armed` timers live while processing `budget` fires: every fire
/// cancels one pseudo-random victim and re-arms both the victim and the
/// fired slot. Returns measured wall seconds.
fn timer_churn(armed: usize, budget: u64) -> f64 {
    let mut b = TopologyBuilder::new();
    let a = b.node("a");
    let z = b.node("z");
    b.duplex(a, z, LinkSpec::new(1_000_000_000, Dur::from_micros(100)));
    let mut sim = b.build().into_sim(7);
    let mut handles = Vec::with_capacity(armed);
    for i in 0..armed as u64 {
        handles.push(sim.set_timer(a, Time::ZERO + spread_delay(i, 1), i));
    }
    let mut fires = 0u64;
    let t0 = Instant::now();
    while fires < budget {
        match sim.next() {
            Some(Output::Timer { token, .. }) => {
                fires += 1;
                let victim = ((fires.wrapping_mul(31)) % armed as u64) as usize;
                sim.cancel_timer(handles[victim]);
                handles[victim] =
                    sim.set_timer(a, sim.now() + spread_delay(fires, 2), victim as u64);
                if victim as u64 != token {
                    handles[token as usize] =
                        sim.set_timer(a, sim.now() + spread_delay(fires, 3), token);
                }
            }
            Some(_) => {}
            None => unreachable!("self-sustaining churn ran dry"),
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(
        sim.pending_timers(),
        armed,
        "churn must hold the armed count"
    );
    black_box(sim.now());
    wall
}

/// `sessions` self-clocked senders: each timer fire sends one 512 B
/// packet a→r→z and re-arms 1..=8 ms out. Counts *all* externally
/// visible events (timers, deliveries) against the budget. Returns
/// (events processed, wall seconds).
fn session_mix(sessions: usize, budget: u64) -> (u64, f64) {
    let mut b = TopologyBuilder::new();
    let a = b.node("a");
    let r = b.node("r");
    let z = b.node("z");
    b.duplex(a, r, LinkSpec::new(1_000_000_000, Dur::from_micros(100)));
    b.duplex(r, z, LinkSpec::new(1_000_000_000, Dur::from_micros(100)));
    let mut sim = b.build().into_sim(7);
    for s in 0..sessions as u64 {
        sim.set_timer(a, Time::ZERO + Dur::from_micros(1 + (s * 131) % 8_000), s);
    }
    let mut events = 0u64;
    let t0 = Instant::now();
    while events < budget {
        match sim.next() {
            Some(Output::Timer { token, .. }) => {
                events += 1;
                send_session_packet(&mut sim, a, z, token);
                let period = Dur::from_micros(1_000 + (token * 977 + events) % 7_000);
                sim.set_timer(a, sim.now() + period, token);
            }
            Some(_) => events += 1,
            None => unreachable!("self-clocked sessions ran dry"),
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    black_box(sim.now());
    (events, wall)
}

fn send_session_packet(sim: &mut Simulator, a: NodeId, z: NodeId, _session: u64) {
    sim.send(
        a,
        Packet::tcp(a, z, Bytes::new(), Bytes::from_static(&[0u8; 512])),
    );
}

/// End-to-end striped sessions per wall second: `n` calm striped
/// transfers on the three-depot topology driven to verified completion
/// through the full stack (client, depots, sink, block ledger). The
/// `max_cascades = 1` run is the single-cascade baseline — same
/// harness, plain [`SessionClient`](lsl_session::SessionClient) — so
/// the pair prices the dispatcher itself, not the topology.
fn striped_sessions_per_sec(smoke: bool, max_cascades: usize) -> f64 {
    let n: u64 = if smoke { 2 } else { 16 };
    let mut cfg = CampaignConfig {
        size: 256 * 1024,
        ..CampaignConfig::default()
    };
    cfg.stripe.max_cascades = max_cascades;
    let t0 = Instant::now();
    for seed in 0..n {
        let r = Scenario {
            campaign: Campaign::Striped,
            client: ClientKind::Striped,
            storm: StormPlan {
                seed,
                atoms: Vec::new(),
            },
            cfg: cfg.clone(),
        }
        .run();
        assert!(r.completed(), "calm striped run failed: {:?}", r.state);
        black_box(r.certified);
    }
    n as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// Median-of-3 events/sec for one measurement closure (single pass in
/// smoke mode).
fn median_eps(smoke: bool, mut f: impl FnMut() -> (u64, f64)) -> f64 {
    let passes = if smoke { 1 } else { 3 };
    let mut rates: Vec<f64> = (0..passes)
        .map(|_| {
            let (events, wall) = f();
            events as f64 / wall.max(1e-9)
        })
        .collect();
    rates.sort_by(|x, y| x.total_cmp(y));
    rates[rates.len() / 2]
}

fn write_json(smoke: bool, timer_eps: &[f64], session_eps: &[f64], striped: (f64, f64)) {
    let path = std::env::var_os("BENCH_SCALE_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scale.json")
        });
    let curve = |points: &[usize], eps: &[f64], key: &str| -> String {
        points
            .iter()
            .zip(eps)
            .map(|(p, e)| format!("    {{ \"{key}\": {p}, \"events_per_sec\": {e:.0} }}"))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"smoke\": {smoke},\n  \"timer_curve\": [\n{}\n  ],\n  \"session_curve\": [\n{}\n  ],\n  \"striped\": {{\n    \"sessions_per_sec\": {:.2},\n    \"single_cascade_sessions_per_sec\": {:.2}\n  }},\n  \"baseline\": {{\n    \"timer_curve\": [\n{}\n    ],\n    \"session_curve\": [\n{}\n    ]\n  }}\n}}\n",
        curve(&TIMER_POINTS, timer_eps, "armed"),
        curve(&SESSION_POINTS, session_eps, "sessions"),
        striped.0,
        striped.1,
        curve(&TIMER_POINTS, &BASELINE_TIMER_EPS, "armed")
            .replace("    {", "      {"),
        curve(&SESSION_POINTS, &BASELINE_SESSION_EPS, "sessions")
            .replace("    {", "      {"),
    );
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let budget = if smoke { SMOKE_BUDGET } else { EVENT_BUDGET };

    let mut timer_eps = Vec::new();
    for (i, &armed) in TIMER_POINTS.iter().enumerate() {
        let eps = median_eps(smoke, || (budget, timer_churn(armed, budget)));
        println!(
            "scale/timer_churn/{armed:<7} {eps:>12.0} events/sec  (baseline {:.0})",
            BASELINE_TIMER_EPS[i]
        );
        timer_eps.push(eps);
    }

    let mut session_eps = Vec::new();
    for (i, &sessions) in SESSION_POINTS.iter().enumerate() {
        let eps = median_eps(smoke, || session_mix(sessions, budget));
        println!(
            "scale/session_mix/{sessions:<6} {eps:>12.0} events/sec  (baseline {:.0})",
            BASELINE_SESSION_EPS[i]
        );
        session_eps.push(eps);
    }

    let striped = striped_sessions_per_sec(smoke, 3);
    let single = striped_sessions_per_sec(smoke, 1);
    println!("scale/striped_sessions   {striped:>12.2} sessions/sec  (single-cascade {single:.2})");

    write_json(smoke, &timer_eps, &session_eps, (striped, single));
}
