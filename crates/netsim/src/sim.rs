//! The discrete-event engine.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::link::{Enqueue, Link};
use crate::packet::{LinkId, NodeId, Packet};
use crate::sched::{Key, Scheduler};
use crate::stats::LinkStats;
use crate::time::{Dur, Time};

/// What the simulator hands back to the protocol layer.
#[derive(Debug)]
pub enum Output {
    /// `packet` reached its destination node.
    Deliver { node: NodeId, packet: Packet },
    /// A timer armed with [`Simulator::set_timer`] fired.
    Timer { node: NodeId, token: u64 },
    /// A scheduled [`FaultPlan`] entry fired. The simulator has already
    /// applied its own side of the fault (link/node state, queue
    /// flushes); the protocol layer applies its side (killing sockets,
    /// starting recovery).
    Fault(FaultEvent),
}

/// What a measurement-plane probe of a forwarding path observes — the
/// raw material for NWS-style bandwidth/RTT/loss forecasts. Computed
/// from current simulator state by [`Simulator::probe_path`], so it is
/// deterministic for a given event history.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PathProbe {
    /// Narrowest configured link rate on the forward path, bits/s.
    pub bandwidth_bps: u64,
    /// Round-trip propagation plus the standing queue wait ahead of
    /// the probe, both directions.
    pub rtt: Dur,
    /// Combined mean stochastic loss across the forward path.
    pub loss: f64,
    /// Every node and link on both directions currently up.
    pub up: bool,
}

/// Handle for cancelling a pending timer: the scheduler's
/// generation-stamped `(slot, generation)` key for the timer's event,
/// so a handle kept past its timer's firing can never cancel the
/// unrelated event that later reuses the slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerHandle(Key);

/// A scheduled occurrence. Kept `Copy` and small (≤ 32 bytes, pinned
/// by a test): the scheduler moves these through its arena; anything
/// bulky — the packet payload — lives in the simulator's packet arena
/// and is named here by slot id.
#[derive(Clone, Copy)]
enum Event {
    /// The packet at the head of the link finished serializing.
    TxDone(LinkId),
    /// The packet in arena slot `.1` arrives at the receiving end of
    /// link `.0`.
    Arrive(LinkId, u32),
    Timer {
        node: NodeId,
        token: u64,
    },
    /// A scheduled fault (index into `Simulator::faults`) takes effect.
    Fault(u32),
}

/// Home for in-flight packet payloads: `Event::Arrive` carries a slot
/// id instead of the ~100-byte `Packet`, keeping scheduler entries at
/// 24 bytes. Slots are recycled through a free list; each is occupied
/// for exactly one propagation interval.
#[derive(Default)]
struct PacketArena {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl PacketArena {
    fn put(&mut self, p: Packet) -> u32 {
        match self.free.pop() {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                debug_assert!(s.is_none(), "free-listed packet slot still occupied");
                *s = Some(p);
                i
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(Some(p));
                i
            }
        }
    }

    fn take(&mut self, i: u32) -> Packet {
        let p = self.slots[i as usize]
            .take()
            .expect("arrival names an empty packet slot");
        self.free.push(i);
        p
    }
}

/// The network simulator: nodes, links, routes, timers, and the event
/// scheduler. Construct via [`crate::TopologyBuilder`].
pub struct Simulator {
    now: Time,
    sched: Scheduler<Event>,
    packets: PacketArena,
    pub(crate) links: Vec<Link>,
    num_nodes: usize,
    /// Dense next-hop table, `routes[node * num_nodes + dst]` = raw
    /// outgoing link id, [`NO_ROUTE`] if absent. The route lookup is on
    /// the per-segment forwarding path, so it is a flat indexed load
    /// rather than a `BTreeMap` walk.
    routes: Vec<u32>,
    rng: SmallRng,
    next_packet_id: u64,
    armed_timers: usize,
    /// Installed fault schedule; `Event::Fault` indexes into this.
    faults: Vec<FaultEvent>,
    /// One flag per fault entry: set when it fires (each fires once).
    faults_fired: Vec<bool>,
    /// Per-node up/down state; all nodes start up.
    node_up: Vec<bool>,
    /// `next()` calls since the last timer-accounting audit.
    #[cfg(debug_assertions)]
    calls_since_audit: u32,
}

/// Sentinel for "no next hop" in the dense route table.
const NO_ROUTE: u32 = u32::MAX;

/// How many `next()` calls between timer-accounting audits (debug
/// builds): the audit walks the whole scheduler heap, so it runs
/// amortized, not per event.
#[cfg(debug_assertions)]
const TIMER_AUDIT_PERIOD: u32 = 4096;

impl Simulator {
    pub(crate) fn new(num_nodes: usize, links: Vec<Link>, seed: u64) -> Simulator {
        Simulator {
            now: Time::ZERO,
            sched: Scheduler::new(),
            packets: PacketArena::default(),
            links,
            num_nodes,
            routes: vec![NO_ROUTE; num_nodes * num_nodes],
            rng: SmallRng::seed_from_u64(seed),
            next_packet_id: 1,
            armed_timers: 0,
            faults: Vec::new(),
            faults_fired: Vec::new(),
            node_up: vec![true; num_nodes],
            #[cfg(debug_assertions)]
            calls_since_audit: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Install a static next-hop route: traffic at `node` destined for
    /// `dst` leaves on `link`.
    pub fn set_route(&mut self, node: NodeId, dst: NodeId, link: LinkId) {
        let l = &self.links[link.0 as usize];
        assert_eq!(l.from, node, "route's link does not originate at node");
        self.routes[node.0 as usize * self.num_nodes + dst.0 as usize] = link.0;
    }

    /// Next-hop lookup. `None` when either node is outside the topology
    /// or `dst` is unreachable from `node`.
    pub fn route(&self, node: NodeId, dst: NodeId) -> Option<LinkId> {
        let n = self.num_nodes;
        if node.0 as usize >= n || dst.0 as usize >= n {
            return None;
        }
        match self.routes[node.0 as usize * n + dst.0 as usize] {
            NO_ROUTE => None,
            l => Some(LinkId(l)),
        }
    }

    /// Install a fault schedule. Every entry is scheduled immediately,
    /// so it interleaves deterministically with traffic and fires
    /// exactly once at its scheduled time. May be called more than
    /// once; entries accumulate. Panics on out-of-range link/node ids or
    /// times in the past — a malformed plan is an experiment bug.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        for ev in plan.into_entries() {
            assert!(ev.at >= self.now, "fault scheduled in the past: {ev:?}");
            match ev.kind {
                FaultKind::LinkDown(l) | FaultKind::LinkUp(l) => {
                    assert!((l.0 as usize) < self.links.len(), "unknown link in {ev:?}");
                }
                FaultKind::NodeDown(n) | FaultKind::NodeUp(n) | FaultKind::SublinkRst(n) => {
                    assert!((n.0 as usize) < self.num_nodes, "unknown node in {ev:?}");
                }
            }
            let idx = self.faults.len() as u32;
            self.faults.push(ev);
            self.faults_fired.push(false);
            self.schedule(ev.at, Event::Fault(idx));
        }
    }

    /// Number of installed fault entries that have fired so far.
    pub fn faults_fired(&self) -> usize {
        self.faults_fired.iter().filter(|f| **f).count()
    }

    /// Number of installed fault entries.
    pub fn faults_installed(&self) -> usize {
        self.faults.len()
    }

    /// Whether a node is currently up (not crashed).
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.node_up[node.0 as usize]
    }

    /// Whether a link is currently up (carrying traffic).
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.links[link.0 as usize].is_up()
    }

    /// Inject a packet at `from` (its origin or a forwarding node). The
    /// packet is routed hop by hop toward `packet.dst`. Returns the
    /// unique packet id assigned.
    ///
    /// Panics if no route exists — a misconfigured topology is a bug in
    /// the experiment, not a runtime condition to tolerate. A send from
    /// a crashed node is silently discarded (the host is dead; any
    /// straggling protocol action there produces nothing).
    pub fn send(&mut self, from: NodeId, mut packet: Packet) -> u64 {
        if packet.id == 0 {
            packet.id = self.next_packet_id;
            self.next_packet_id += 1;
        }
        let id = packet.id;
        if !self.node_up[from.0 as usize] {
            return id;
        }
        let raw = self.routes[from.0 as usize * self.num_nodes + packet.dst.0 as usize];
        if raw == NO_ROUTE {
            panic!("no route from {:?} to {:?}", from, packet.dst);
        }
        self.offer_to_link(LinkId(raw), packet);
        id
    }

    fn offer_to_link(&mut self, link_id: LinkId, packet: Packet) {
        let link = &mut self.links[link_id.0 as usize];
        match link.enqueue(packet) {
            Enqueue::Started(d) => self.schedule(self.now + d, Event::TxDone(link_id)),
            Enqueue::Queued | Enqueue::Dropped => {}
        }
    }

    /// Arm a timer at absolute time `at`. The returned handle cancels it.
    pub fn set_timer(&mut self, node: NodeId, at: Time, token: u64) -> TimerHandle {
        assert!(at >= self.now, "timer set in the past");
        self.armed_timers += 1;
        TimerHandle(self.sched.insert(at, Event::Timer { node, token }))
    }

    /// Cancel a pending timer: the scheduler entry is purged on the
    /// spot, so a cancelled timer is never revisited at pop time.
    /// Cancelling an already-fired or already-cancelled timer is a
    /// no-op: the handle's generation no longer matches its slot, so it
    /// cannot touch the event that reused the slot.
    pub fn cancel_timer(&mut self, handle: TimerHandle) {
        if let Some(purged) = self.sched.cancel(handle.0) {
            debug_assert!(
                matches!(purged, Event::Timer { .. }),
                "timer handle named a non-timer event"
            );
            self.armed_timers -= 1;
        }
    }

    /// Number of timers armed and not yet fired/cancelled.
    pub fn pending_timers(&self) -> usize {
        self.armed_timers
    }

    /// Live `Timer` entries actually resident in the scheduler — the
    /// leak probe behind the timer-accounting assertion. Walks the whole
    /// scheduler heap: for tests and audits, not the hot path.
    #[doc(hidden)]
    pub fn debug_live_timer_entries(&self) -> usize {
        self.sched
            .count_live_where(|e| matches!(e, Event::Timer { .. }))
    }

    /// Snapshot of a link's counters.
    pub fn link_stats(&self, link: LinkId) -> &LinkStats {
        &self.links[link.0 as usize].stats
    }

    /// Endpoints of a link as `(from, to)`.
    pub fn link_endpoints(&self, link: LinkId) -> (NodeId, NodeId) {
        let l = &self.links[link.0 as usize];
        (l.from, l.to)
    }

    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The chain of links a packet from `node` to `dst` traverses, by
    /// walking the static next-hop table. `None` when no route exists.
    /// Bounded by the link count, so a cyclic routing misconfiguration
    /// reads as "no path" rather than a hang.
    pub fn path_links(&self, node: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        let mut at = node;
        let mut chain = Vec::new();
        while at != dst {
            if chain.len() > self.links.len() {
                return None; // routing loop
            }
            let l = self.route(at, dst)?;
            chain.push(l);
            at = self.links[l.0 as usize].to;
        }
        Some(chain)
    }

    /// A measurement-plane probe of the forwarding path `src → dst`:
    /// the observables an NWS-style sensor would extract from a small
    /// probe exchange, computed from current simulator state (so it
    /// sees congestion queues and injected faults, deterministically).
    /// `None` when either direction has no route.
    pub fn probe_path(&self, src: NodeId, dst: NodeId) -> Option<PathProbe> {
        let fwd = self.path_links(src, dst)?;
        let rev = self.path_links(dst, src)?;
        let mut up = self.node_is_up(src) && self.node_is_up(dst);
        let mut bandwidth_bps = u64::MAX;
        let mut rtt_ns = 0u64;
        let mut pass = 1.0f64;
        for (dir, links) in [(true, &fwd), (false, &rev)] {
            for &l in links {
                let link = &self.links[l.0 as usize];
                up = up && link.is_up() && self.node_is_up(link.to);
                rtt_ns = rtt_ns.saturating_add(link.spec.prop_delay.0);
                // Standing queue ahead of the probe.
                let rate = link.spec.bandwidth_bps.max(1);
                let wait = (link.queued_bytes() as u128 * 8 * 1_000_000_000) / rate as u128;
                rtt_ns = rtt_ns.saturating_add(u64::try_from(wait).unwrap_or(u64::MAX));
                if dir {
                    // Data flows forward; bandwidth and loss are
                    // forward-direction properties.
                    bandwidth_bps = bandwidth_bps.min(link.spec.bandwidth_bps);
                    pass *= 1.0 - link.spec.loss.mean_loss();
                }
            }
        }
        Some(PathProbe {
            bandwidth_bps,
            rtt: Dur(rtt_ns),
            loss: 1.0 - pass,
            up,
        })
    }

    /// Apply the simulator-side effects of a fault. Upper-layer effects
    /// (socket teardown, relay-state flush) happen when the caller sees
    /// the returned [`Output::Fault`].
    fn apply_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::LinkDown(l) => {
                self.links[l.0 as usize].set_down();
            }
            FaultKind::LinkUp(l) => self.links[l.0 as usize].set_up(),
            FaultKind::NodeDown(n) => {
                self.node_up[n.0 as usize] = false;
                // A crashed host's NIC queues die with it: flush waiting
                // packets on every outgoing link. (The frame currently
                // serializing is discarded at its TxDone; arrivals are
                // discarded on delivery.)
                for link in &mut self.links {
                    if link.from == n {
                        link.flush_queue();
                    }
                }
            }
            FaultKind::NodeUp(n) => self.node_up[n.0 as usize] = true,
            // Purely an upper-layer signal; no simulator state changes.
            FaultKind::SublinkRst(_) => {}
        }
    }

    fn schedule(&mut self, at: Time, event: Event) {
        debug_assert!(at >= self.now);
        self.sched.insert(at, event);
    }

    /// Advance the simulation to the next externally visible event and
    /// return it; `None` when no events remain. Deliberately not an
    /// `Iterator`: callers inject new packets between calls, which an
    /// iterator borrow would forbid.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Output> {
        #[cfg(debug_assertions)]
        self.audit_timer_accounting();
        while let Some((at, event)) = self.sched.pop() {
            debug_assert!(
                at >= self.now,
                "event-time-monotonic: popped {at:?} with now {:?}",
                self.now
            );
            self.now = at;
            match event {
                Event::TxDone(link_id) => {
                    // One link resolution covers the whole completion:
                    // drain, fault check, loss draw, and ledger updates
                    // all go through the same borrow.
                    let link = &mut self.links[link_id.0 as usize];
                    let (packet, next_tx) = link.tx_done();
                    // A fault between tx start and tx end kills the frame:
                    // the transmitter is gone (node crash) or the medium is
                    // (link down).
                    let faulted = !link.is_up() || !self.node_up[link.from.0 as usize];
                    let mut arrive_after = None;
                    if faulted {
                        link.stats.on_drop_fault();
                        #[cfg(debug_assertions)]
                        {
                            link.lost_bytes += packet.wire_len() as u64;
                            link.check_conservation();
                        }
                    } else {
                        // Loss is drawn when the packet leaves the
                        // transmitter: it occupied serialization time
                        // either way.
                        let lost = link.spec.loss.sample(&mut self.rng);
                        if lost {
                            link.stats.on_drop_loss();
                        }
                        #[cfg(debug_assertions)]
                        {
                            let wire = packet.wire_len() as u64;
                            if lost {
                                link.lost_bytes += wire;
                            } else {
                                link.inflight_bytes += wire;
                            }
                            link.check_conservation();
                        }
                        if !lost {
                            arrive_after = Some(link.spec.prop_delay);
                        }
                    }
                    // Scheduling order (next TxDone before Arrive) is a
                    // determinism contract: it fixes the seq numbers.
                    if let Some(d) = next_tx {
                        self.schedule(self.now + d, Event::TxDone(link_id));
                    }
                    if let Some(prop) = arrive_after {
                        let pslot = self.packets.put(packet);
                        self.schedule(self.now + prop, Event::Arrive(link_id, pslot));
                    }
                }
                Event::Arrive(link_id, pslot) => {
                    let packet = self.packets.take(pslot);
                    let link = &mut self.links[link_id.0 as usize];
                    let to = link.to;
                    // Arrival at a crashed node (destination or forwarder):
                    // the bits reached a dead host and vanish.
                    if !self.node_up[to.0 as usize] {
                        link.stats.on_drop_fault();
                        #[cfg(debug_assertions)]
                        {
                            let wire = packet.wire_len() as u64;
                            link.inflight_bytes -= wire;
                            link.lost_bytes += wire;
                            link.check_conservation();
                        }
                        continue;
                    }
                    #[cfg(debug_assertions)]
                    {
                        let wire = packet.wire_len() as u64;
                        link.inflight_bytes -= wire;
                        link.delivered_bytes += wire;
                        link.check_conservation();
                    }
                    if to == packet.dst {
                        return Some(Output::Deliver { node: to, packet });
                    }
                    // Forward through an intermediate router.
                    let raw = self.routes[to.0 as usize * self.num_nodes + packet.dst.0 as usize];
                    if raw == NO_ROUTE {
                        panic!("router {:?} has no route to {:?}", to, packet.dst);
                    }
                    self.offer_to_link(LinkId(raw), packet);
                }
                Event::Timer { node, token } => {
                    // Cancelled timers are purged at cancel time, so a
                    // popped timer always fires.
                    self.armed_timers -= 1;
                    return Some(Output::Timer { node, token });
                }
                Event::Fault(idx) => {
                    let ev = self.faults[idx as usize];
                    debug_assert!(
                        !self.faults_fired[idx as usize],
                        "fault entry fired twice: {ev:?}"
                    );
                    self.faults_fired[idx as usize] = true;
                    self.apply_fault(ev.kind);
                    // Rare event, off the per-packet path: telemetry here
                    // cannot perturb the events/sec budget.
                    lsl_obs::instant(self.now.0, "netsim.fault", ev.kind.index());
                    lsl_obs::counter_add("netsim.fault.fired", ev.kind.index(), 1);
                    return Some(Output::Fault(ev));
                }
            }
        }
        None
    }

    /// Amortized audit (debug builds): the armed-timer counter must
    /// equal the live `Timer` entries resident in the scheduler. Any
    /// drift means a cancel leaked its entry or purged the wrong one.
    /// Runs between `next()` calls, where no popped timer is still
    /// waiting for its decrement.
    #[cfg(debug_assertions)]
    fn audit_timer_accounting(&mut self) {
        self.calls_since_audit += 1;
        if self.calls_since_audit < TIMER_AUDIT_PERIOD {
            return;
        }
        self.calls_since_audit = 0;
        let live = self.debug_live_timer_entries();
        debug_assert_eq!(
            live, self.armed_timers,
            "timer-accounting: live timer entries in the scheduler vs timers armed"
        );
    }

    /// Export every link's end-of-run counters into the `lsl-obs`
    /// metrics registry (gauges keyed by the link's cached raw id).
    /// Called once at the end of an instrumented run — keeping this out
    /// of the event loop keeps telemetry off the per-packet hot path.
    pub fn record_obs_link_metrics(&self) {
        if !lsl_obs::is_enabled() {
            return;
        }
        for link in &self.links {
            link.stats.export_obs(u64::from(link.id.0));
        }
    }

    /// Drain events until the queue is empty or the next event lies
    /// past `deadline`. Returns outputs that occurred (used by tests;
    /// real protocol loops call [`Simulator::next`] directly).
    pub fn run_collect(&mut self, deadline: Time) -> Vec<Output> {
        let mut out = Vec::new();
        while let Some(at) = self.sched.peek_time() {
            if at > deadline {
                break;
            }
            if let Some(o) = self.next() {
                out.push(o);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::loss::LossModel;
    use crate::time::Dur;
    use crate::topo::TopologyBuilder;
    use bytes::Bytes;

    fn two_node_sim(loss: LossModel) -> (Simulator, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.node("a");
        let c = b.node("c");
        b.duplex(
            a,
            c,
            LinkSpec::new(8_000_000, Dur::from_millis(5)).with_loss(loss),
        );
        let topo = b.build();
        (topo.into_sim(1), a, c)
    }

    fn pkt(src: NodeId, dst: NodeId, n: usize) -> Packet {
        Packet::tcp(src, dst, Bytes::new(), Bytes::from(vec![0u8; n]))
    }

    #[test]
    fn event_fits_hot_size_budget() {
        // Scheduler entries carry `Event` through the arena; payloads
        // (packets) must stay out-of-line for the arena to stay small.
        assert!(
            std::mem::size_of::<Event>() <= 32,
            "Event grew past 32 bytes: {}",
            std::mem::size_of::<Event>()
        );
    }

    #[test]
    fn delivery_timing_is_serialization_plus_prop() {
        let (mut sim, a, c) = two_node_sim(LossModel::None);
        // 962 wire bytes at 8 Mbit/s = 962 us, plus 5 ms prop.
        sim.send(a, pkt(a, c, 962 - 38));
        match sim.next() {
            Some(Output::Deliver { node, .. }) => {
                assert_eq!(node, c);
                assert_eq!(sim.now(), Time::ZERO + Dur::from_micros(962 + 5000));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fifo_delivery_order() {
        let (mut sim, a, c) = two_node_sim(LossModel::None);
        for i in 0..10 {
            sim.send(a, pkt(a, c, 100 + i));
        }
        let mut sizes = Vec::new();
        while let Some(Output::Deliver { packet, .. }) = sim.next() {
            sizes.push(packet.data.len());
        }
        assert_eq!(sizes, (0..10).map(|i| 100 + i).collect::<Vec<_>>());
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        let (mut sim, a, _c) = two_node_sim(LossModel::None);
        let h1 = sim.set_timer(a, Time::ZERO + Dur::from_millis(10), 1);
        let _h2 = sim.set_timer(a, Time::ZERO + Dur::from_millis(5), 2);
        let _h3 = sim.set_timer(a, Time::ZERO + Dur::from_millis(15), 3);
        sim.cancel_timer(h1);
        let mut tokens = Vec::new();
        while let Some(Output::Timer { token, .. }) = sim.next() {
            tokens.push(token);
        }
        assert_eq!(tokens, vec![2, 3]);
        assert_eq!(sim.pending_timers(), 0);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let (mut sim, a, c) = two_node_sim(LossModel::None);
        let h = sim.set_timer(a, Time::ZERO + Dur::from_millis(1), 9);
        assert!(sim.next().is_some());
        sim.cancel_timer(h); // already fired: no panic

        // The fired timer freed its scheduler slot. A packet's TxDone
        // takes it next, then (once that pops) its Arrive; a new timer
        // sits beside them. The stale handle must cancel none of them.
        sim.send(a, pkt(a, c, 100));
        sim.set_timer(a, sim.now() + Dur::from_millis(20), 10);
        sim.cancel_timer(h);
        assert_eq!(sim.pending_timers(), 1);
        let mut outs = Vec::new();
        while let Some(out) = sim.next() {
            sim.cancel_timer(h);
            outs.push(match out {
                Output::Deliver { node, .. } => (node, None),
                Output::Timer { node, token } => (node, Some(token)),
                Output::Fault(ev) => panic!("unexpected {ev:?}"),
            });
        }
        assert_eq!(outs, vec![(c, None), (a, Some(10))]);
        assert_eq!(sim.pending_timers(), 0);
        assert_eq!(sim.debug_live_timer_entries(), 0);
    }

    #[test]
    fn cancel_purges_scheduler_entry_immediately() {
        let (mut sim, a, _c) = two_node_sim(LossModel::None);
        let mut handles = Vec::new();
        for i in 0..100 {
            handles.push(sim.set_timer(a, Time::ZERO + Dur::from_millis(1 + i), i));
        }
        assert_eq!(sim.debug_live_timer_entries(), 100);
        for h in handles.iter().step_by(2) {
            sim.cancel_timer(*h);
        }
        // Purge-on-cancel: the entries are gone *now*, not at pop time.
        assert_eq!(sim.pending_timers(), 50);
        assert_eq!(sim.debug_live_timer_entries(), 50);
        let mut fired = 0;
        while sim.next().is_some() {
            fired += 1;
        }
        assert_eq!(fired, 50);
        assert_eq!(sim.pending_timers(), 0);
        assert_eq!(
            sim.debug_live_timer_entries(),
            0,
            "scheduler leaked entries"
        );
    }

    #[test]
    fn timer_audit_sees_no_drift_when_its_turn_lands_on_a_timer() {
        // More timers than one audit period (4096 calls), at distinct
        // times, so the audited call is one that fires a timer. The
        // audit runs between calls; run mid-call, it would count the
        // popped timer as armed but no longer resident and report drift.
        let (mut sim, a, _c) = two_node_sim(LossModel::None);
        let n = 5_000;
        for i in 0..n {
            sim.set_timer(a, Time::ZERO + Dur::from_micros(1 + i), i);
        }
        let mut fired = 0;
        while let Some(Output::Timer { token, .. }) = sim.next() {
            assert_eq!(token, fired);
            fired += 1;
        }
        assert_eq!(fired, n);
        assert_eq!(sim.pending_timers(), 0);
    }

    #[test]
    #[should_panic(expected = "timer set in the past")]
    fn past_timer_panics() {
        let (mut sim, a, c) = two_node_sim(LossModel::None);
        sim.send(a, pkt(a, c, 10));
        let _ = sim.next(); // advances now
        sim.set_timer(a, Time::ZERO, 0);
    }

    #[test]
    fn loss_drops_packets_and_counts() {
        let (mut sim, a, c) = two_node_sim(LossModel::bernoulli(0.5));
        for _ in 0..1000 {
            sim.send(a, pkt(a, c, 100));
        }
        let mut delivered = 0;
        while sim.next().is_some() {
            delivered += 1;
        }
        let stats = sim.link_stats(LinkId(0));
        assert_eq!(stats.drops_loss + delivered, 1000);
        assert!(delivered > 350 && delivered < 650, "delivered {delivered}");
    }

    #[test]
    fn forwarding_through_router() {
        let mut b = TopologyBuilder::new();
        let a = b.node("a");
        let r = b.node("r");
        let c = b.node("c");
        b.duplex(a, r, LinkSpec::new(8_000_000, Dur::from_millis(2)));
        b.duplex(r, c, LinkSpec::new(8_000_000, Dur::from_millis(3)));
        let mut sim = b.build().into_sim(1);
        sim.send(a, pkt(a, c, 962 - 38));
        match sim.next() {
            Some(Output::Deliver { node, packet }) => {
                assert_eq!(node, c);
                assert_eq!(packet.src, a);
                // Two serializations (store-and-forward) + both prop delays.
                assert_eq!(sim.now(), Time::ZERO + Dur::from_micros(2 * 962 + 5000));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let (_, a, c) = two_node_sim(LossModel::bernoulli(0.2));
            let mut sim = {
                // rebuild with chosen seed
                let mut b = TopologyBuilder::new();
                let a2 = b.node("a");
                let c2 = b.node("c");
                b.duplex(
                    a2,
                    c2,
                    LinkSpec::new(8_000_000, Dur::from_millis(5))
                        .with_loss(LossModel::bernoulli(0.2)),
                );
                assert_eq!((a2, c2), (a, c));
                b.build().into_sim(seed)
            };
            for _ in 0..200 {
                sim.send(a, pkt(a, c, 100));
            }
            let mut trace = Vec::new();
            while let Some(Output::Deliver { packet, .. }) = sim.next() {
                trace.push((packet.id, sim.now()));
            }
            trace
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn same_timestamp_events_dispatch_in_insertion_order() {
        let (mut sim, a, _c) = two_node_sim(LossModel::None);
        let t = Time::ZERO + Dur::from_millis(1);
        for token in 0..50 {
            sim.set_timer(a, t, token);
        }
        let mut tokens = Vec::new();
        while let Some(Output::Timer { token, .. }) = sim.next() {
            tokens.push(token);
        }
        assert_eq!(tokens, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fault_entries_fire_exactly_once_at_their_tick() {
        let (mut sim, a, c) = two_node_sim(LossModel::None);
        let t = |ms| Time::ZERO + Dur::from_millis(ms);
        sim.install_faults(
            FaultPlan::new()
                .link_flap(t(10), LinkId(0), Dur::from_millis(5))
                .node_crash(t(30), c, Dur::from_millis(2))
                .sublink_rst(t(40), a),
        );
        assert_eq!(sim.faults_installed(), 5);
        let mut seen = Vec::new();
        while let Some(out) = sim.next() {
            if let Output::Fault(ev) = out {
                assert_eq!(ev.at, sim.now(), "fault fired off its scheduled tick");
                seen.push(ev);
            }
        }
        assert_eq!(sim.faults_fired(), 5, "each entry fires exactly once");
        assert_eq!(seen.len(), 5);
        assert_eq!(
            seen[0],
            FaultEvent {
                at: t(10),
                kind: FaultKind::LinkDown(LinkId(0))
            }
        );
        assert_eq!(
            seen[1],
            FaultEvent {
                at: t(15),
                kind: FaultKind::LinkUp(LinkId(0))
            }
        );
        assert_eq!(
            seen[2],
            FaultEvent {
                at: t(30),
                kind: FaultKind::NodeDown(c)
            }
        );
        assert_eq!(
            seen[3],
            FaultEvent {
                at: t(32),
                kind: FaultKind::NodeUp(c)
            }
        );
        assert_eq!(
            seen[4],
            FaultEvent {
                at: t(40),
                kind: FaultKind::SublinkRst(a)
            }
        );
    }

    #[test]
    fn down_link_drops_offers_and_flushes_queue() {
        let (mut sim, a, c) = two_node_sim(LossModel::None);
        // Queue several packets, then take the link down at t=0.5 ms —
        // mid-serialization of the first (962 us) packet.
        for _ in 0..5 {
            sim.send(a, pkt(a, c, 962 - 38));
        }
        sim.install_faults(
            FaultPlan::new().link_down(Time::ZERO + Dur::from_micros(500), LinkId(0)),
        );
        let mut delivered = 0;
        while let Some(out) = sim.next() {
            if matches!(out, Output::Deliver { .. }) {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 0, "nothing survives a mid-serialization outage");
        // 1 serializing + 4 flushed = 5 fault drops; offers after the
        // outage are also counted.
        assert_eq!(sim.link_stats(LinkId(0)).drops_fault, 5);
        assert!(!sim.link_is_up(LinkId(0)));
        sim.send(a, pkt(a, c, 100));
        assert!(sim.next().is_none());
        assert_eq!(sim.link_stats(LinkId(0)).drops_fault, 6);
    }

    #[test]
    fn link_comes_back_after_flap() {
        let (mut sim, a, c) = two_node_sim(LossModel::None);
        sim.install_faults(FaultPlan::new().link_flap(Time::ZERO, LinkId(0), Dur::from_millis(5)));
        // Drain the two fault events.
        assert!(matches!(sim.next(), Some(Output::Fault(_))));
        assert!(matches!(sim.next(), Some(Output::Fault(_))));
        assert!(sim.link_is_up(LinkId(0)));
        sim.send(a, pkt(a, c, 100));
        assert!(matches!(sim.next(), Some(Output::Deliver { .. })));
    }

    #[test]
    fn crashed_node_discards_arrivals_until_restart() {
        let (mut sim, a, c) = two_node_sim(LossModel::None);
        sim.install_faults(FaultPlan::new().node_crash(Time::ZERO, c, Dur::from_millis(1)));
        assert!(matches!(sim.next(), Some(Output::Fault(_)))); // NodeDown
        assert!(!sim.node_is_up(c));
        sim.send(a, pkt(a, c, 100)); // arrives ~5.138 ms, after restart
        sim.send(c, pkt(c, a, 100)); // send from crashed node: discarded
        let mut delivered = Vec::new();
        while let Some(out) = sim.next() {
            if let Output::Deliver { node, .. } = out {
                delivered.push(node);
            }
        }
        assert!(sim.node_is_up(c));
        assert_eq!(
            delivered,
            vec![c],
            "post-restart arrival delivered; dead-node send lost"
        );
    }

    #[test]
    fn arrival_during_crash_window_is_dropped() {
        let (mut sim, a, c) = two_node_sim(LossModel::None);
        // Packet arrives at 962 us + 5 ms ≈ 5.96 ms; crash covers [1, 10] ms.
        sim.send(a, pkt(a, c, 962 - 38));
        sim.install_faults(FaultPlan::new().node_crash(
            Time::ZERO + Dur::from_millis(1),
            c,
            Dur::from_millis(9),
        ));
        let mut delivered = 0;
        while let Some(out) = sim.next() {
            if matches!(out, Output::Deliver { .. }) {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 0);
        assert_eq!(sim.link_stats(LinkId(0)).drops_fault, 1);
    }

    #[test]
    fn run_collect_does_not_overshoot_deadline() {
        let (mut sim, a, _c) = two_node_sim(LossModel::None);
        for i in 0..10 {
            sim.set_timer(a, Time::ZERO + Dur::from_millis(i), i);
        }
        let out = sim.run_collect(Time::ZERO + Dur::from_millis(4));
        assert_eq!(out.len(), 5, "timers at 0..=4 ms only");
        assert!(sim.now() <= Time::ZERO + Dur::from_millis(4));
        assert_eq!(sim.pending_timers(), 5);
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn fault_plan_unknown_link_rejected() {
        let (mut sim, _a, _c) = two_node_sim(LossModel::None);
        sim.install_faults(FaultPlan::new().link_down(Time::ZERO, LinkId(99)));
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn missing_route_panics() {
        let mut b = TopologyBuilder::new();
        let a = b.node("a");
        let c = b.node("c");
        b.duplex(a, c, LinkSpec::new(8_000_000, Dur::from_millis(1)));
        let mut sim = b.build().into_sim_without_routes(1);
        sim.send(a, pkt(a, c, 10));
    }

    /// A node id past the topology has no route, in either direction:
    /// the lookup must not read a neighbouring row of the flat table
    /// (node 2 of a 2-node sim would alias row 1's entry for node 0).
    #[test]
    fn route_is_none_outside_the_topology() {
        let (sim, a, c) = two_node_sim(LossModel::None);
        assert!(sim.route(a, c).is_some());
        for outside in [NodeId(2), NodeId(99)] {
            assert_eq!(sim.route(a, outside), None);
            assert_eq!(sim.route(outside, a), None);
        }
    }

    /// a —10Mbit/5ms— b —2Mbit/20ms— c, with Bernoulli loss on the
    /// second hop.
    fn chain_sim() -> (Simulator, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.node("a");
        let m = b.node("b");
        let c = b.node("c");
        b.duplex(a, m, LinkSpec::new(10_000_000, Dur::from_millis(5)));
        b.duplex(
            m,
            c,
            LinkSpec::new(2_000_000, Dur::from_millis(20)).with_loss(LossModel::bernoulli(0.01)),
        );
        (b.build().into_sim(1), a, m, c)
    }

    #[test]
    fn path_links_walks_next_hop_chain() {
        let (sim, a, m, c) = chain_sim();
        let chain = sim.path_links(a, c).unwrap();
        assert_eq!(chain.len(), 2);
        assert_eq!(sim.path_links(a, a).unwrap(), vec![]);
        assert_eq!(sim.path_links(a, m).unwrap().len(), 1);

        // No routing table at all: an honest miss, not a panic.
        let mut b = TopologyBuilder::new();
        let x = b.node("x");
        let y = b.node("y");
        b.duplex(x, y, LinkSpec::new(8_000_000, Dur::from_millis(1)));
        let bare = b.build().into_sim_without_routes(1);
        assert_eq!(bare.path_links(x, y), None);
    }

    #[test]
    fn probe_path_reports_static_path_properties() {
        let (sim, a, _m, c) = chain_sim();
        let p = sim.probe_path(a, c).unwrap();
        assert_eq!(p.bandwidth_bps, 2_000_000, "narrowest forward hop");
        assert_eq!(p.rtt, Dur::from_millis(2 * (5 + 20)), "idle path: 2x prop");
        assert!((p.loss - 0.01).abs() < 1e-12, "forward mean loss");
        assert!(p.up);
    }

    #[test]
    fn probe_path_sees_queues_and_faults() {
        let (mut sim, a, _m, c) = chain_sim();
        // Five queued kB-ish packets behind the probe add queue wait to
        // the observed RTT.
        let idle_rtt = sim.probe_path(a, c).unwrap().rtt;
        for _ in 0..5 {
            sim.send(a, pkt(a, c, 962 - 38));
        }
        let busy = sim.probe_path(a, c).unwrap();
        assert!(busy.rtt > idle_rtt, "standing queue inflates probe RTT");

        // A down link on the reverse path flips the reachability bit.
        sim.install_faults(FaultPlan::new().link_down(Time::ZERO, LinkId(1)));
        while sim.next().is_some() {}
        let down = sim.probe_path(a, c).unwrap();
        assert!(!down.up);
    }
}
