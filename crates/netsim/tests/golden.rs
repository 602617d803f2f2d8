//! Golden-trace pin: a fixed scenario under a fixed seed must produce
//! exactly the event stream it produced when this file was recorded.
//! Aggregate-equality tests (`determinism_same_seed_same_trace`) only
//! prove a run equals *itself*; this test proves the engine's behaviour
//! is unchanged across refactors of its internals — the contract the
//! hot-path data-structure work (dense route table, generation-stamped
//! timer handles, the event scheduler, allocation reuse) must preserve
//! byte for byte.

use bytes::Bytes;
use lsl_netsim::{
    Dur, FaultKind, FaultPlan, LinkId, LinkSpec, LossModel, NodeId, Output, Packet, Time,
    TopologyBuilder,
};

/// FNV-1a over the externally visible event stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Mix a fault event into the stream hash: kind discriminant + subject id.
fn push_fault(hash: &mut Fnv, kind: FaultKind) {
    let (tag, id) = match kind {
        FaultKind::LinkDown(l) => (1, l.0 as u64),
        FaultKind::LinkUp(l) => (2, l.0 as u64),
        FaultKind::NodeDown(n) => (3, n.0 as u64),
        FaultKind::NodeUp(n) => (4, n.0 as u64),
        FaultKind::SublinkRst(n) => (5, n.0 as u64),
    };
    hash.push(tag);
    hash.push(id);
}

/// A lossy two-hop forwarding path with interleaved timers: exercises
/// the route lookup on every relayed segment, the loss RNG, and both
/// the fire and cancel sides of the timer machinery.
fn run_scenario(seed: u64) -> (u64, u64, u64, u64) {
    run_scenario_with(seed, FaultPlan::new())
}

fn run_scenario_with(seed: u64, plan: FaultPlan) -> (u64, u64, u64, u64) {
    let mut b = TopologyBuilder::new();
    let a = b.node("a");
    let r = b.node("r");
    let z = b.node("z");
    b.duplex(a, r, LinkSpec::new(8_000_000, Dur::from_millis(5)));
    b.duplex(
        r,
        z,
        LinkSpec::new(8_000_000, Dur::from_millis(7)).with_loss(LossModel::bernoulli(0.05)),
    );
    let mut sim = b.build().into_sim(seed);

    for i in 0..300 {
        sim.send(
            a,
            Packet::tcp(a, z, Bytes::new(), Bytes::from(vec![0u8; 64 + i])),
        );
    }
    let mut handles = Vec::new();
    for i in 0..50u64 {
        let h = sim.set_timer(r, Time::ZERO + Dur::from_millis(3 * i + 1), 1000 + i);
        handles.push(h);
    }
    // Cancel every third timer before anything fires.
    for h in handles.iter().step_by(3) {
        sim.cancel_timer(*h);
    }
    sim.install_faults(plan);

    let mut hash = Fnv::new();
    let mut delivered = 0u64;
    let mut fired = 0u64;
    while let Some(out) = sim.next() {
        match out {
            Output::Deliver { node, packet } => {
                hash.push(1);
                hash.push(node.0 as u64);
                hash.push(packet.id);
                hash.push(packet.data.len() as u64);
                hash.push(sim.now().0);
                delivered += 1;
            }
            Output::Timer { node, token } => {
                hash.push(2);
                hash.push(node.0 as u64);
                hash.push(token);
                hash.push(sim.now().0);
                fired += 1;
            }
            Output::Fault(ev) => {
                hash.push(3);
                push_fault(&mut hash, ev.kind);
                hash.push(sim.now().0);
            }
        }
    }
    assert_eq!(sim.route(a, z), Some(sim.route(a, r).expect("route a->r")));
    assert_eq!(NodeId(1), r);
    (hash.0, delivered, fired, sim.now().0)
}

#[test]
fn golden_trace_is_pinned() {
    let (hash, delivered, fired, end) = run_scenario(42);
    // Values recorded from the engine before the hot-path refactor
    // (BTreeMap route table, BTreeSet timer registry). Any divergence
    // means same-seed runs are no longer reproducible across versions.
    println!("golden: hash={hash:#018x} delivered={delivered} fired={fired} end={end}");
    assert_eq!(
        fired, 33,
        "50 timers armed, 17 cancelled (indices 0,3,…,48)"
    );
    assert_eq!((hash, delivered, end), GOLDEN_SEED42);
}

#[test]
fn golden_differs_across_seeds() {
    assert_ne!(run_scenario(42).0, run_scenario(43).0);
}

/// The same scenario with faults layered on: the relay's forward link
/// flaps mid-burst (flushing its queue, losing the serializing frame),
/// then the relay itself crashes and restarts. Pins that fault schedules
/// are part of the deterministic trace — same plan + same seed must
/// stay byte-identical forever.
fn fault_plan() -> FaultPlan {
    let t = |ms| Time::ZERO + Dur::from_millis(ms);
    FaultPlan::new()
        // Link 2 is r->z (links are allocated in duplex pairs: 0 a->r,
        // 1 r->a, 2 r->z, 3 z->r).
        .link_flap(t(20), LinkId(2), Dur::from_millis(15))
        .node_crash(t(60), NodeId(1), Dur::from_millis(10))
        .sublink_rst(t(90), NodeId(2))
}

#[test]
fn golden_fault_trace_is_pinned() {
    let (hash, delivered, fired, end) = run_scenario_with(42, fault_plan());
    println!("golden-fault: hash={hash:#018x} delivered={delivered} fired={fired} end={end}");
    assert_eq!(fired, 33, "faults must not disturb the timer machinery");
    assert!(
        delivered < GOLDEN_SEED42.1,
        "the outage and crash must cost deliveries"
    );
    assert_eq!((hash, delivered, end), GOLDEN_FAULT_SEED42);
}

#[test]
fn golden_fault_trace_differs_across_seeds() {
    assert_ne!(
        run_scenario_with(42, fault_plan()).0,
        run_scenario_with(43, fault_plan()).0
    );
}

/// `(event-stream hash, delivered count, quiescence time ns)` for seed
/// 42, recorded from the pre-refactor engine (BTreeMap routes, BTreeSet
/// timer registry) and required of every engine since.
const GOLDEN_SEED42: (u64, u64, u64) = (0xa866_ab40_b44d_52d9, 287, 148_000_000);

/// Same shape for the fault scenario ([`fault_plan`] + seed 42),
/// recorded when fault injection landed: the flap and crash cost 90 of
/// the 287 deliveries but leave quiescence time and timer count alone.
const GOLDEN_FAULT_SEED42: (u64, u64, u64) = (0x2c97_3573_1a17_ed3f, 197, 148_000_000);
