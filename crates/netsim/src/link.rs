//! Unidirectional store-and-forward links with drop-tail queues.

use std::collections::VecDeque;

use crate::loss::LossModel;
use crate::packet::{LinkId, NodeId, Packet};
use crate::stats::LinkStats;
use crate::time::{Dur, Time};

/// Default drop-tail queue capacity: 256 KB, roughly 170 full-size
/// segments — a plausible router buffer for the paper's era.
pub const DEFAULT_QUEUE_BYTES: u64 = 256 * 1024;

/// Static description of a unidirectional link.
#[derive(Clone, Debug)]
pub struct LinkSpec {
    /// Transmission rate in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub prop_delay: Dur,
    /// Drop-tail FIFO capacity in bytes (queued, not counting the packet
    /// currently serializing).
    pub queue_bytes: u64,
    /// Stochastic loss process applied per transmitted packet.
    pub loss: LossModel,
}

impl LinkSpec {
    /// A clean link with the default queue and no stochastic loss.
    pub fn new(bandwidth_bps: u64, prop_delay: Dur) -> LinkSpec {
        LinkSpec {
            bandwidth_bps,
            prop_delay,
            queue_bytes: DEFAULT_QUEUE_BYTES,
            loss: LossModel::None,
        }
    }

    /// Builder-style loss model override.
    pub fn with_loss(mut self, loss: LossModel) -> LinkSpec {
        self.loss = loss;
        self
    }

    /// Builder-style queue capacity override.
    pub fn with_queue_bytes(mut self, bytes: u64) -> LinkSpec {
        self.queue_bytes = bytes;
        self
    }
}

/// Outcome of offering a packet to a link.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Enqueue {
    /// Link was idle: transmission starts now and completes after the
    /// returned serialization delay.
    Started(Dur),
    /// Packet queued behind others; a `TxDone` chain will reach it.
    Queued,
    /// Drop-tail overflow; packet discarded.
    Dropped,
}

/// Runtime state of a link inside the simulator.
pub(crate) struct Link {
    /// The link's own id, cached at construction so per-event stats/obs
    /// recording never re-derives it from a table position.
    pub id: LinkId,
    pub from: NodeId,
    pub to: NodeId,
    pub spec: LinkSpec,
    pub stats: LinkStats,
    /// FIFO of packets; front element is the one currently serializing
    /// when `busy` is true.
    queue: VecDeque<Packet>,
    queued_bytes: u64,
    busy: bool,
    /// Packets propagating toward `to`, each with its arrival time and
    /// the scheduler seq reserved for its arrival. Sorted by
    /// `(time, seq)`: the simulator keeps one `Arrive` entry in its
    /// scheduler, keyed by the front.
    flight: VecDeque<(Time, u64, Packet)>,
    /// Fault-injection state: a down link accepts nothing and loses the
    /// frame it was serializing when the outage hit.
    up: bool,
    /// Conservation ledger (debug builds): every wire byte a link
    /// accepts must be exactly one of delivered, lost, propagating, or
    /// still held (queued/serializing).
    #[cfg(debug_assertions)]
    pub(crate) delivered_bytes: u64,
    #[cfg(debug_assertions)]
    pub(crate) lost_bytes: u64,
    #[cfg(debug_assertions)]
    pub(crate) inflight_bytes: u64,
}

impl Link {
    pub fn new(id: LinkId, from: NodeId, to: NodeId, spec: LinkSpec) -> Link {
        assert!(spec.bandwidth_bps > 0, "link bandwidth must be positive");
        Link {
            id,
            from,
            to,
            spec,
            stats: LinkStats::default(),
            queue: VecDeque::new(),
            queued_bytes: 0,
            busy: false,
            flight: VecDeque::new(),
            up: true,
            #[cfg(debug_assertions)]
            delivered_bytes: 0,
            #[cfg(debug_assertions)]
            lost_bytes: 0,
            #[cfg(debug_assertions)]
            inflight_bytes: 0,
        }
    }

    /// Offer a packet. Queue accounting counts only *waiting* packets, so
    /// an idle link always accepts (matching a router that can always put
    /// one packet on the wire).
    pub fn enqueue(&mut self, packet: Packet) -> Enqueue {
        if !self.up {
            self.stats.on_drop_fault();
            return Enqueue::Dropped;
        }
        let size = packet.wire_len() as u64;
        if !self.busy {
            debug_assert!(self.queue.is_empty());
            self.busy = true;
            self.queue.push_back(packet);
            self.stats.on_accept(size);
            Enqueue::Started(Dur::serialization(size, self.spec.bandwidth_bps))
        } else if self.queued_bytes + size > self.spec.queue_bytes {
            self.stats.on_drop_queue();
            Enqueue::Dropped
        } else {
            self.queued_bytes += size;
            self.queue.push_back(packet);
            self.stats.on_accept(size);
            // Waiting packets only: the queue front is serializing.
            self.stats
                .observe_queue_depth(self.queued_bytes, (self.queue.len() - 1) as u64);
            Enqueue::Queued
        }
    }

    /// Current serialization finished: pop the transmitted packet and, if
    /// more are waiting, start the next one (returning its serialization
    /// delay).
    pub fn tx_done(&mut self) -> (Packet, Option<Dur>) {
        debug_assert!(self.busy);
        let done = self.queue.pop_front().expect("tx_done with empty queue");
        if let Some(next) = self.queue.front() {
            let size = next.wire_len() as u64;
            self.queued_bytes -= size;
            (
                done,
                Some(Dur::serialization(size, self.spec.bandwidth_bps)),
            )
        } else {
            self.busy = false;
            (done, None)
        }
    }

    /// Put a transmitted packet on the wire, arriving at `at` under the
    /// reserved scheduler `seq`. Returns whether the flight queue was
    /// empty, i.e. whether the link needs a new `Arrive` entry.
    pub fn launch(&mut self, at: Time, seq: u64, packet: Packet) -> bool {
        debug_assert!(
            self.flight.back().is_none_or(|b| (b.0, b.1) < (at, seq)),
            "link-flight-order: link {:?}->{:?} launched an arrival at ({at:?}, {seq}) \
             behind a later one",
            self.from,
            self.to
        );
        self.flight.push_back((at, seq, packet));
        self.flight.len() == 1
    }

    /// Take the packet at the front of the flight queue; also return
    /// the `(time, seq)` of the next one to arrive, if any.
    pub fn land(&mut self) -> (Packet, Option<(Time, u64)>) {
        let (_, _, packet) = self.flight.pop_front().expect("arrival on an empty link");
        (packet, self.flight.front().map(|f| (f.0, f.1)))
    }

    /// Bytes currently waiting (excludes the serializing packet).
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Byte conservation: accepted wire bytes must equal the sum of
    /// delivered, lost, propagating, and held bytes. Any drift means a
    /// packet was duplicated or silently vanished inside the engine.
    #[cfg(debug_assertions)]
    pub(crate) fn check_conservation(&self) {
        let serializing = if self.busy {
            self.queue.front().map_or(0, |p| p.wire_len() as u64)
        } else {
            0
        };
        let accounted = self.delivered_bytes
            + self.lost_bytes
            + self.inflight_bytes
            + self.queued_bytes
            + serializing;
        debug_assert_eq!(
            self.stats.tx_bytes,
            accounted,
            "link-byte-conservation: link {:?}->{:?} accepted vs accounted bytes \
             (delivered {} + lost {} + in flight {} + held {})",
            self.from,
            self.to,
            self.delivered_bytes,
            self.lost_bytes,
            self.inflight_bytes,
            self.queued_bytes + serializing
        );
    }

    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Fault injection: the link goes down. Waiting packets are flushed
    /// (counted as `drops_fault`); the frame currently serializing stays
    /// at the queue front so its pending `TxDone` event finds it — the
    /// simulator discards it there because the link is down.
    pub(crate) fn set_down(&mut self) {
        self.up = false;
        self.flush_queue();
    }

    /// Fault injection: the link carries traffic again.
    pub(crate) fn set_up(&mut self) {
        self.up = true;
    }

    /// Discard every *waiting* packet (the serializing one, if any, is
    /// owned by its pending `TxDone` event and must stay at the front).
    pub(crate) fn flush_queue(&mut self) {
        let keep = usize::from(self.busy);
        while self.queue.len() > keep {
            let p = self.queue.pop_back().expect("len > keep");
            self.stats.on_drop_fault();
            #[cfg(debug_assertions)]
            {
                self.lost_bytes += p.wire_len() as u64;
            }
            let _ = p;
        }
        self.queued_bytes = 0;
        #[cfg(debug_assertions)]
        self.check_conservation();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn pkt(n: usize) -> Packet {
        Packet::tcp(
            NodeId(0),
            NodeId(1),
            Bytes::new(),
            Bytes::from(vec![0u8; n]),
        )
    }

    fn link(queue_bytes: u64) -> Link {
        Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            LinkSpec::new(8_000_000, Dur::from_millis(1)).with_queue_bytes(queue_bytes),
        )
    }

    #[test]
    fn idle_link_starts_immediately() {
        let mut l = link(1000);
        // 962-byte wire packet at 8 Mbit/s = 962 us.
        match l.enqueue(pkt(962 - 38)) {
            Enqueue::Started(d) => assert_eq!(d, Dur::from_micros(962)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(l.busy);
        assert_eq!(l.queued_bytes(), 0);
    }

    #[test]
    fn fifo_order_and_tx_chain() {
        let mut l = link(1 << 20);
        assert!(matches!(l.enqueue(pkt(100)), Enqueue::Started(_)));
        assert_eq!(l.enqueue(pkt(200)), Enqueue::Queued);
        assert_eq!(l.enqueue(pkt(300)), Enqueue::Queued);
        let (p1, next) = l.tx_done();
        assert_eq!(p1.data.len(), 100);
        assert!(next.is_some());
        let (p2, next) = l.tx_done();
        assert_eq!(p2.data.len(), 200);
        assert!(next.is_some());
        let (p3, next) = l.tx_done();
        assert_eq!(p3.data.len(), 300);
        assert!(next.is_none());
        assert!(!l.busy);
    }

    #[test]
    fn drop_tail_overflow() {
        let mut l = link(500);
        assert!(matches!(l.enqueue(pkt(100)), Enqueue::Started(_)));
        // 400-byte payload → 438 wire bytes fits in 500.
        assert_eq!(l.enqueue(pkt(400)), Enqueue::Queued);
        // Next packet would exceed the 500-byte queue: dropped.
        assert_eq!(l.enqueue(pkt(100)), Enqueue::Dropped);
        assert_eq!(l.stats.drops_queue, 1);
        assert_eq!(l.stats.tx_packets, 2);
    }

    #[test]
    fn queue_bytes_tracks_waiting_only() {
        let mut l = link(1 << 20);
        l.enqueue(pkt(62)); // serializing, not queued
        assert_eq!(l.queued_bytes(), 0);
        l.enqueue(pkt(62)); // 100 wire bytes waiting
        assert_eq!(l.queued_bytes(), 100);
        l.tx_done();
        assert_eq!(l.queued_bytes(), 0);
    }

    #[test]
    fn stats_max_queue_high_water() {
        let mut l = link(1 << 20);
        l.enqueue(pkt(62));
        l.enqueue(pkt(62));
        l.enqueue(pkt(62));
        assert_eq!(l.stats.max_queue_bytes, 200);
        assert_eq!(l.stats.max_queue_pkts, 2, "serializing packet not counted");
        l.tx_done();
        l.enqueue(pkt(62));
        // High-water marks persist.
        assert_eq!(l.stats.max_queue_bytes, 200);
        assert_eq!(l.stats.max_queue_pkts, 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "link-byte-conservation")]
    fn skewed_ledger_fails_the_conservation_check() {
        let mut l = link(1 << 20);
        l.enqueue(pkt(62)); // 100 wire bytes, held while serializing
        l.check_conservation();
        l.lost_bytes += 1; // one byte counted twice
        l.check_conservation();
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = Link::new(LinkId(0), NodeId(0), NodeId(1), LinkSpec::new(0, Dur::ZERO));
    }
}
