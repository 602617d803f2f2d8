//! [`Net`]: the socket API plus the event pump tying per-node TCP stacks
//! to the network simulator.

use std::collections::VecDeque;

use bytes::Bytes;
use lsl_netsim::{Dur, FaultEvent, FaultKind, NodeId, Output, Simulator, Time};
use lsl_trace::ConnTrace;

use crate::config::TcpConfig;
use crate::socket::{SockEvent, TcpState};
use crate::stack::TcpStack;

/// Identifies a socket: the node it lives on plus its slot there.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SockId {
    pub node: NodeId,
    pub idx: u32,
}

/// Events surfaced to the experiment/application driver by [`Net::poll`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppEvent {
    /// Socket readiness changed.
    Sock { sock: SockId, event: SockEvent },
    /// An application timer armed via [`Net::set_app_timer`] fired.
    Timer { node: NodeId, token: u64 },
    /// An installed fault fired. The TCP layer has already applied its
    /// side (a crashed node's stack is wiped, a sublink RST aborts its
    /// established connections); session layers react next.
    Fault(FaultEvent),
}

/// Application timers are distinguished from internal TCP timers by the
/// top token bit.
const APP_TIMER_BIT: u64 = 1 << 63;

/// The simulated internet: a [`Simulator`] plus one TCP stack per node
/// and a BSD-socket-shaped API. Drive it by alternating [`Net::poll`]
/// with socket calls.
pub struct Net {
    sim: Simulator,
    stacks: Vec<TcpStack>,
    pending: VecDeque<AppEvent>,
    /// Scratch buffer reused across dispatches.
    scratch: Vec<(u32, SockEvent)>,
}

impl Net {
    pub fn new(sim: Simulator) -> Net {
        let stacks = (0..sim.num_nodes())
            .map(|i| TcpStack::new(NodeId(i as u32)))
            .collect();
        Net {
            sim,
            stacks,
            pending: VecDeque::new(),
            scratch: Vec::new(),
        }
    }

    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// Direct simulator access (link stats, route edits).
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    // ------------------------------------------------------------------
    // Socket API
    // ------------------------------------------------------------------

    /// Bind a listener on `port`. Established connections arrive as
    /// [`SockEvent::Accepted`] events on the returned socket.
    pub fn listen(&mut self, node: NodeId, port: u16, cfg: TcpConfig) -> SockId {
        let idx = self.stacks[node.0 as usize].listen(port, cfg);
        SockId { node, idx }
    }

    /// Active open toward `peer:port`. Completion arrives as
    /// [`SockEvent::Connected`] (or an error event).
    pub fn connect(&mut self, node: NodeId, peer: NodeId, port: u16, cfg: TcpConfig) -> SockId {
        let idx =
            self.stacks[node.0 as usize].connect(&mut self.sim, &mut self.scratch, peer, port, cfg);
        self.flush_scratch(node);
        SockId { node, idx }
    }

    /// Enqueue outbound bytes; returns how many were accepted. A short
    /// write arms a [`SockEvent::Writable`] wakeup for when space frees.
    pub fn send(&mut self, sock: SockId, data: &Bytes) -> usize {
        let r = self.stacks[sock.node.0 as usize]
            .with_tcb(&mut self.sim, &mut self.scratch, sock.idx, |tcb, ctx| {
                tcb.send(ctx, data)
            })
            .unwrap_or(0);
        self.flush_scratch(sock.node);
        r
    }

    /// Free space in the send buffer.
    pub fn send_space(&self, sock: SockId) -> u64 {
        self.stacks[sock.node.0 as usize]
            .peek_tcb(sock.idx)
            .map_or(0, |t| t.send_space())
    }

    /// Read up to `max` in-order bytes.
    pub fn recv(&mut self, sock: SockId, max: usize) -> Bytes {
        let r = self.stacks[sock.node.0 as usize]
            .with_tcb(&mut self.sim, &mut self.scratch, sock.idx, |tcb, ctx| {
                tcb.recv(ctx, max)
            })
            .unwrap_or_default();
        self.flush_scratch(sock.node);
        r
    }

    /// Bytes ready to read.
    pub fn recv_available(&self, sock: SockId) -> u64 {
        self.stacks[sock.node.0 as usize]
            .peek_tcb(sock.idx)
            .map_or(0, |t| t.recv_available())
    }

    /// Peer closed and all data has been read.
    pub fn at_eof(&self, sock: SockId) -> bool {
        self.stacks[sock.node.0 as usize]
            .peek_tcb(sock.idx)
            .is_some_and(|t| t.at_eof())
    }

    /// Graceful close (FIN after pending data).
    pub fn close(&mut self, sock: SockId) {
        self.stacks[sock.node.0 as usize].with_tcb(
            &mut self.sim,
            &mut self.scratch,
            sock.idx,
            |tcb, ctx| tcb.close(ctx),
        );
        self.flush_scratch(sock.node);
    }

    /// Hard reset.
    pub fn abort(&mut self, sock: SockId) {
        self.stacks[sock.node.0 as usize].with_tcb(
            &mut self.sim,
            &mut self.scratch,
            sock.idx,
            |tcb, ctx| tcb.abort(ctx),
        );
        self.flush_scratch(sock.node);
    }

    pub fn state(&self, sock: SockId) -> Option<TcpState> {
        self.stacks[sock.node.0 as usize].state(sock.idx)
    }

    /// Begin capturing a sender-side trace on this socket.
    pub fn enable_trace(&mut self, sock: SockId, label: &str) {
        self.stacks[sock.node.0 as usize].enable_trace(sock.idx, label);
    }

    /// Detach the captured trace.
    pub fn take_trace(&mut self, sock: SockId) -> Option<ConnTrace> {
        self.stacks[sock.node.0 as usize].take_trace(sock.idx)
    }

    /// Release a closed socket's resources.
    pub fn release(&mut self, sock: SockId) {
        self.stacks[sock.node.0 as usize].release(sock.idx);
    }

    /// Smoothed RTT estimate of a connection, if measured yet.
    pub fn srtt(&self, sock: SockId) -> Option<Dur> {
        self.stacks[sock.node.0 as usize]
            .peek_tcb(sock.idx)
            .and_then(|t| t.srtt())
    }

    /// Current congestion window (diagnostics).
    pub fn cwnd(&self, sock: SockId) -> Option<u64> {
        self.stacks[sock.node.0 as usize]
            .peek_tcb(sock.idx)
            .map(|t| t.cwnd())
    }

    /// Arm an application timer; it returns from [`Net::poll`] as
    /// [`AppEvent::Timer`]. `token` must leave the top bit clear.
    pub fn set_app_timer(&mut self, node: NodeId, at: Time, token: u64) {
        assert_eq!(token & APP_TIMER_BIT, 0, "token top bit is reserved");
        self.sim.set_timer(node, at, token | APP_TIMER_BIT);
    }

    // ------------------------------------------------------------------
    // Event pump
    // ------------------------------------------------------------------

    fn flush_scratch(&mut self, node: NodeId) {
        for (idx, event) in self.scratch.drain(..) {
            self.pending.push_back(AppEvent::Sock {
                sock: SockId { node, idx },
                event,
            });
        }
    }

    /// Advance the simulation until the next application-visible event.
    /// Returns `None` when the simulation has fully quiesced.
    pub fn poll(&mut self) -> Option<AppEvent> {
        loop {
            if let Some(ev) = self.pending.pop_front() {
                return Some(ev);
            }
            match self.sim.next()? {
                Output::Deliver { node, packet } => {
                    self.stacks[node.0 as usize].on_packet(
                        &mut self.sim,
                        &mut self.scratch,
                        packet,
                    );
                    self.flush_scratch(node);
                }
                Output::Timer { node, token } => {
                    if token & APP_TIMER_BIT != 0 {
                        return Some(AppEvent::Timer {
                            node,
                            token: token & !APP_TIMER_BIT,
                        });
                    }
                    self.stacks[node.0 as usize].on_timer(&mut self.sim, &mut self.scratch, token);
                    self.flush_scratch(node);
                }
                Output::Fault(ev) => {
                    // Queue the fault before any socket events it causes,
                    // so the application can interpret those in context.
                    self.pending.push_back(AppEvent::Fault(ev));
                    match ev.kind {
                        FaultKind::NodeDown(n) => {
                            // Volatile state dies with the host: no FINs, no
                            // RSTs, no local events — peers discover the
                            // crash through their own retransmission timers.
                            self.stacks[n.0 as usize].crash(&mut self.sim);
                        }
                        FaultKind::NodeUp(_) => {
                            // The stack was wiped at crash time; the host
                            // restarts empty. Applications re-listen when
                            // they see this event.
                        }
                        FaultKind::SublinkRst(n) => {
                            // Abort every live connection on the node: RST
                            // to each peer, local sockets closed.
                            self.stacks[n.0 as usize]
                                .abort_connections(&mut self.sim, &mut self.scratch);
                            self.flush_scratch(n);
                        }
                        // Link faults are the simulator's own affair; TCP
                        // discovers them through loss and RTO.
                        FaultKind::LinkDown(_) | FaultKind::LinkUp(_) => {}
                    }
                }
            }
        }
    }

    /// Run until quiescence, discarding events (teardown helper).
    pub fn drain(&mut self) {
        while self.poll().is_some() {}
    }
}
