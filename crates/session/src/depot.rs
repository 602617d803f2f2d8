//! The simulated `lsd` depot: a user-level, unprivileged relay process.
//!
//! A depot accepts an LSL sublink, reads the header, opens the next-hop
//! sublink from the loose source route, forwards the (shortened) header
//! and then performs a transport-to-transport binding: bytes are pumped
//! between the two TCP connections through a **small, short-lived relay
//! buffer** (the paper's defining contrast with long-lived logistical
//! storage allocations). When the buffer is full the depot simply stops
//! reading, so TCP flow control propagates backpressure hop by hop.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use lsl_netsim::{Dur, FaultKind, NodeId, Time};
use lsl_tcp::{AppEvent, Net, SockEvent, SockId, TcpConfig};

use crate::client::CLIENT_TIMER_TAG;
use crate::endpoint::SINK_TIMER_TAG;
use crate::error::Handled;
use crate::header::LslHeader;
use crate::route::Hop;

/// Depot tuning.
#[derive(Clone, Debug)]
pub struct DepotConfig {
    /// Listening port.
    pub port: u16,
    /// Relay buffer cap per direction, bytes. The paper's depots use
    /// small, short-lived buffers; 256 KB default.
    pub relay_buf: usize,
    /// TCP configuration for both the accepted and onward sublinks.
    pub tcp: TcpConfig,
    /// Session-setup processing time: the gap between parsing an LSL
    /// header and initiating the onward sublink. The paper's `lsd` is an
    /// unprivileged user-level daemon; per-session costs (scheduling,
    /// name resolution, socket setup on a loaded depot host) are what
    /// make LSL lose on small transfers (Fig 5's left edge).
    pub setup_delay: Dur,
    /// When set, capture a sender-side trace on every *downstream*
    /// sublink under this label — the paper's tcpdump at each sublink's
    /// sending host (sublink 2's sender is the depot).
    pub trace_downstream: Option<String>,
}

impl Default for DepotConfig {
    fn default() -> Self {
        DepotConfig {
            port: 7000,
            relay_buf: 256 * 1024,
            tcp: TcpConfig::default(),
            setup_delay: Dur::ZERO,
            trace_downstream: None,
        }
    }
}

impl DepotConfig {
    /// Validated construction; see [`DepotConfigBuilder`].
    pub fn builder() -> DepotConfigBuilder {
        DepotConfigBuilder {
            cfg: DepotConfig::default(),
        }
    }
}

/// Builder for [`DepotConfig`] that rejects nonsensical configurations
/// at construction time instead of letting them produce a depot that
/// can never accept a session.
#[derive(Clone, Debug)]
pub struct DepotConfigBuilder {
    cfg: DepotConfig,
}

impl DepotConfigBuilder {
    pub fn port(mut self, port: u16) -> Self {
        self.cfg.port = port;
        self
    }

    pub fn tcp(mut self, tcp: TcpConfig) -> Self {
        self.cfg.tcp = tcp;
        self
    }

    pub fn setup_delay(mut self, delay: Dur) -> Self {
        self.cfg.setup_delay = delay;
        self
    }

    /// Validate and produce the config.
    ///
    /// # Panics
    ///
    /// On a port of 0 (the simulated stack has no wildcard bind).
    pub fn build(self) -> DepotConfig {
        assert!(self.cfg.port != 0, "depot port 0 is not bindable");
        self.cfg
    }
}

/// Counters exposed for experiments and tests.
#[derive(Clone, Debug, Default)]
pub struct DepotStats {
    pub sessions_accepted: u64,
    pub sessions_completed: u64,
    pub bytes_relayed: u64,
    /// High-water mark of a single relay direction's buffer.
    pub max_buffered: usize,
    pub header_errors: u64,
    pub aborted: u64,
}

/// One direction of a relay: `from`'s receive stream feeds `to`'s send
/// stream through a bounded buffer.
struct Pipe {
    from: SockId,
    to: SockId,
    buf: VecDeque<Bytes>,
    buffered: usize,
    fin_propagated: bool,
}

impl Pipe {
    fn new(from: SockId, to: SockId) -> Pipe {
        Pipe {
            from,
            to,
            buf: VecDeque::new(),
            buffered: 0,
            fin_propagated: false,
        }
    }
}

enum RelayState {
    /// Reading the LSL header from the upstream connection.
    ReadingHeader { hdr_buf: Vec<u8> },
    /// Header parsed; waiting out the depot's session-setup processing
    /// time before initiating the onward connect.
    SettingUp {
        next: Hop,
        fwd_header: Bytes,
        staged: Vec<Bytes>,
        staged_bytes: usize,
    },
    /// Next-hop connect in flight; holds the header to forward and any
    /// payload that arrived with (after) the header.
    Connecting {
        fwd_header: Bytes,
        staged: Vec<Bytes>,
        staged_bytes: usize,
    },
    /// Both sublinks up: pumping.
    Relaying { pipes: [Pipe; 2] },
    /// Torn down (waiting for Closed events).
    Dead,
}

struct Relay {
    up: SockId,
    down: Option<SockId>,
    state: RelayState,
    /// Monotonic session number, embedded in setup-timer tokens so a
    /// stale timer cannot act on a reused relay slot.
    gen: u64,
    up_closed: bool,
    down_closed: bool,
}

/// Setup-timer tokens pack `(gen, slot)`; slots use the low bits.
const SLOT_BITS: u32 = 20;

/// A depot instance bound to one node+port.
pub struct Depot {
    node: NodeId,
    listener: SockId,
    cfg: DepotConfig,
    relays: Vec<Option<Relay>>,
    by_sock: BTreeMap<SockId, usize>,
    next_gen: u64,
    stats: DepotStats,
    finished_traces: Vec<lsl_trace::ConnTrace>,
    /// The depot host is down: all socket state is gone; ignore events
    /// until the restart fault brings a fresh stack.
    crashed: bool,
}

impl Depot {
    /// Bind the depot's listener.
    pub fn new(net: &mut Net, node: NodeId, cfg: DepotConfig) -> Depot {
        let listener = net.listen(node, cfg.port, cfg.tcp.clone());
        Depot {
            node,
            listener,
            cfg,
            relays: Vec::new(),
            by_sock: BTreeMap::new(),
            next_gen: 0,
            stats: DepotStats::default(),
            finished_traces: Vec::new(),
            crashed: false,
        }
    }

    /// Traces captured on downstream sublinks of completed relays (when
    /// [`DepotConfig::trace_downstream`] is set).
    pub fn take_traces(&mut self) -> Vec<lsl_trace::ConnTrace> {
        std::mem::take(&mut self.finished_traces)
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn port(&self) -> u16 {
        self.cfg.port
    }

    pub fn stats(&self) -> &DepotStats {
        &self.stats
    }

    /// Active relay sessions (for load-balancing policies).
    pub fn active_sessions(&self) -> usize {
        self.relays.iter().flatten().count()
    }

    /// Feed one event; [`Handled::Consumed`] means it was this depot's.
    ///
    /// Fault notifications are broadcast: the depot reacts to its own
    /// host's crash/restart but still returns [`Handled::NotMine`] so
    /// the driver keeps offering the fault to other components.
    pub fn handle(&mut self, net: &mut Net, ev: &AppEvent) -> Handled {
        let AppEvent::Sock { sock, event } = ev else {
            match ev {
                // Setup-delay timers carry a packed (gen, slot) token.
                // Client- and sink-tagged timers belong to a
                // SessionClient / SinkServer that may live on this node;
                // leave them alone.
                AppEvent::Timer { node, token }
                    if *node == self.node && token & (CLIENT_TIMER_TAG | SINK_TIMER_TAG) == 0 =>
                {
                    self.on_setup_timer(net, *token);
                    return Handled::Consumed;
                }
                AppEvent::Fault(f) => self.on_fault(net, f.kind),
                _ => {}
            }
            return Handled::NotMine;
        };
        if self.crashed {
            // Events for sockets that died with the host race the fault
            // notification in the same poll batch; nothing to do.
            return Handled::NotMine;
        }
        if *sock == self.listener {
            if let SockEvent::Accepted { conn } = event {
                self.on_accept(net.now(), *conn);
            }
            return Handled::Consumed;
        }
        let Some(&idx) = self.by_sock.get(sock) else {
            return Handled::NotMine;
        };
        match event {
            SockEvent::Connected => self.on_down_connected(net, idx),
            SockEvent::Readable | SockEvent::Writable | SockEvent::PeerFin => self.pump(net, idx),
            SockEvent::Closed => self.on_closed(net, idx, *sock),
            SockEvent::Error(_) => self.on_error(net, idx),
            SockEvent::Accepted { .. } => unreachable!("relay socket cannot accept"),
        }
        Handled::Consumed
    }

    /// React to an injected fault on this depot's host.
    fn on_fault(&mut self, net: &mut Net, kind: FaultKind) {
        match kind {
            FaultKind::NodeDown(n) if n == self.node => {
                // The host crashed: every socket (listener and relays)
                // vanished with the TCP stack. Drop the volatile relay
                // state; peers discover via their own timers/RSTs.
                self.stats.aborted += self.relays.iter().flatten().count() as u64;
                for relay in self.relays.iter().flatten() {
                    lsl_obs::span_end(net.now().0, "depot.relay", relay.gen);
                }
                self.relays.clear();
                self.by_sock.clear();
                self.crashed = true;
            }
            FaultKind::NodeUp(n) if n == self.node && self.crashed => {
                // Restart: the `lsd` daemon comes back up with a fresh
                // stack and re-binds its port. Relay state is not
                // recovered — sessions in flight at the crash are lost
                // and the *endpoints* recover them (end-to-end argument).
                self.listener = net.listen(self.node, self.cfg.port, self.cfg.tcp.clone());
                self.crashed = false;
            }
            _ => {}
        }
    }

    fn on_accept(&mut self, t: Time, conn: SockId) {
        self.stats.sessions_accepted += 1;
        self.next_gen += 1;
        lsl_obs::span_begin(t.0, "depot.relay", self.next_gen);
        let relay = Relay {
            up: conn,
            down: None,
            state: RelayState::ReadingHeader {
                hdr_buf: Vec::new(),
            },
            gen: self.next_gen,
            up_closed: false,
            down_closed: false,
        };
        let idx = if let Some(i) = self.relays.iter().position(Option::is_none) {
            self.relays[i] = Some(relay);
            i
        } else {
            self.relays.push(Some(relay));
            self.relays.len() - 1
        };
        self.by_sock.insert(conn, idx);
        lsl_obs::gauge_max("depot.active_relays", 0, self.active_sessions() as u64);
    }

    fn relay_mut(&mut self, idx: usize) -> &mut Relay {
        self.relays[idx].as_mut().expect("relay slot live")
    }

    fn on_down_connected(&mut self, net: &mut Net, idx: usize) {
        let relay = self.relay_mut(idx);
        let down = relay.down.expect("Connected only fires on down");
        let RelayState::Connecting {
            fwd_header,
            staged,
            staged_bytes,
        } = std::mem::replace(&mut relay.state, RelayState::Dead)
        else {
            // Connected on an already-dead relay: ignore.
            return;
        };
        // Forward the shortened header, then enter relay mode with the
        // staged payload pre-loaded in the up→down pipe.
        let n = net.send(down, &fwd_header);
        debug_assert_eq!(n, fwd_header.len(), "header must fit the fresh send buffer");
        let up = relay.up;
        let mut up_down = Pipe::new(up, down);
        up_down.buf = staged.into();
        up_down.buffered = staged_bytes;
        let down_up = Pipe::new(down, up);
        relay.state = RelayState::Relaying {
            pipes: [up_down, down_up],
        };
        self.pump(net, idx);
    }

    fn pump(&mut self, net: &mut Net, idx: usize) {
        // Header phase first (may transition state).
        let relay = self.relay_mut(idx);
        if matches!(relay.state, RelayState::ReadingHeader { .. }) {
            self.read_header(net, idx);
            return;
        }
        let cap = self.cfg.relay_buf;
        let relay = self.relay_mut(idx);
        let RelayState::Relaying { pipes } = &mut relay.state else {
            return;
        };
        let mut relayed = 0u64;
        let mut max_buffered = 0usize;
        for pipe in pipes.iter_mut() {
            loop {
                let mut progress = false;
                // Drain buffer into the downstream send buffer.
                while let Some(chunk) = pipe.buf.front_mut() {
                    let n = net.send(pipe.to, chunk);
                    relayed += n as u64;
                    pipe.buffered -= n;
                    progress |= n > 0;
                    if n == chunk.len() {
                        pipe.buf.pop_front();
                    } else {
                        let rest = chunk.slice(n..);
                        *chunk = rest;
                        break; // downstream full
                    }
                }
                // Refill from the upstream receive buffer.
                while pipe.buffered < cap {
                    let want = cap - pipe.buffered;
                    let chunk = net.recv(pipe.from, want);
                    if chunk.is_empty() {
                        break;
                    }
                    pipe.buffered += chunk.len();
                    max_buffered = max_buffered.max(pipe.buffered);
                    pipe.buf.push_back(chunk);
                    progress = true;
                }
                if !progress {
                    break;
                }
            }
            // Propagate EOF once everything has been flushed through.
            if !pipe.fin_propagated && pipe.buf.is_empty() && net.at_eof(pipe.from) {
                net.close(pipe.to);
                pipe.fin_propagated = true;
            }
            // Relay-buffer conservation: the byte counter must equal the
            // chunks actually held, and never exceed the configured cap.
            debug_assert_eq!(
                pipe.buffered,
                pipe.buf.iter().map(Bytes::len).sum::<usize>(),
                "relay-buffer-conservation: pipe {:?}->{:?} counter vs bytes held",
                pipe.from,
                pipe.to
            );
            debug_assert!(
                pipe.buffered <= cap,
                "relay-buffer-bound: pipe {:?}->{:?} buffers {} B over cap {} B",
                pipe.from,
                pipe.to,
                pipe.buffered,
                cap
            );
        }
        self.stats.bytes_relayed += relayed;
        self.stats.max_buffered = self.stats.max_buffered.max(max_buffered);
        lsl_obs::gauge_max("depot.relay.max_buffered", 0, max_buffered as u64);
    }

    fn read_header(&mut self, net: &mut Net, idx: usize) {
        let up = self.relay_mut(idx).up;
        // Own the header buffer while we work so later self-calls are
        // borrow-free; the state is restored on the incomplete path.
        let RelayState::ReadingHeader { mut hdr_buf } =
            std::mem::replace(&mut self.relay_mut(idx).state, RelayState::Dead)
        else {
            unreachable!("checked by caller");
        };
        // Read whatever is available; headers are tiny.
        loop {
            let chunk = net.recv(up, 4096);
            if chunk.is_empty() {
                break;
            }
            hdr_buf.extend_from_slice(&chunk);
            match LslHeader::decode(&hdr_buf) {
                Ok(None) => continue,
                Ok(Some((header, used))) => {
                    let leftover = Bytes::from(hdr_buf.split_off(used));
                    // A depot can never be the final destination, and
                    // relays only toward a node it has a route to.
                    let routed = |(next, _): &(Hop, LslHeader)| {
                        net.sim().route(self.node, next.node).is_some()
                    };
                    let Some((next, fwd)) = header.pop_hop().filter(routed) else {
                        self.stats.header_errors += 1;
                        self.teardown(net, idx);
                        return;
                    };
                    // Popping a hop only shortens a route the decoder
                    // already bounded, so re-encoding cannot fail; the
                    // guard keeps the relay total anyway.
                    let Ok(fwd_header) = fwd.encode() else {
                        self.stats.header_errors += 1;
                        self.teardown(net, idx);
                        return;
                    };
                    let staged_bytes = leftover.len();
                    let staged = if leftover.is_empty() {
                        Vec::new()
                    } else {
                        vec![leftover]
                    };
                    if self.cfg.setup_delay > Dur::ZERO {
                        // Model per-session depot processing before the
                        // onward connect is even initiated.
                        let at = net.now() + self.cfg.setup_delay;
                        let relay = self.relay_mut(idx);
                        let token = (relay.gen << SLOT_BITS) | idx as u64;
                        net.set_app_timer(self.node, at, token);
                        self.relay_mut(idx).state = RelayState::SettingUp {
                            next,
                            fwd_header,
                            staged,
                            staged_bytes,
                        };
                    } else {
                        self.open_downstream(net, idx, next, fwd_header, staged, staged_bytes);
                    }
                    return;
                }
                Err(_) => {
                    self.stats.header_errors += 1;
                    self.teardown(net, idx);
                    return;
                }
            }
        }
        // Upstream closed before a complete header arrived.
        if net.at_eof(up) {
            self.stats.header_errors += 1;
            self.teardown(net, idx);
        } else {
            self.relay_mut(idx).state = RelayState::ReadingHeader { hdr_buf };
        }
    }

    /// Session-setup processing time elapsed: initiate the onward connect.
    fn on_setup_timer(&mut self, net: &mut Net, token: u64) {
        let idx = (token & ((1 << SLOT_BITS) - 1)) as usize;
        let gen = token >> SLOT_BITS;
        let Some(relay) = self.relays.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if relay.gen != gen {
            // Stale timer: the slot was reaped and reused.
            return;
        }
        match std::mem::replace(&mut relay.state, RelayState::Dead) {
            RelayState::SettingUp {
                next,
                fwd_header,
                staged,
                staged_bytes,
            } => self.open_downstream(net, idx, next, fwd_header, staged, staged_bytes),
            // Stale timer: the relay died (or the slot was reused) while
            // the timer was in flight. Put the state back untouched.
            other => relay.state = other,
        }
    }

    fn open_downstream(
        &mut self,
        net: &mut Net,
        idx: usize,
        next: Hop,
        fwd_header: Bytes,
        staged: Vec<Bytes>,
        staged_bytes: usize,
    ) {
        let down = net.connect(self.node, next.node, next.port, self.cfg.tcp.clone());
        if let Some(label) = &self.cfg.trace_downstream {
            net.enable_trace(down, label);
        }
        let relay = self.relay_mut(idx);
        relay.down = Some(down);
        relay.state = RelayState::Connecting {
            fwd_header,
            staged,
            staged_bytes,
        };
        self.by_sock.insert(down, idx);
    }

    fn on_error(&mut self, net: &mut Net, idx: usize) {
        self.stats.aborted += 1;
        self.teardown(net, idx);
    }

    fn teardown(&mut self, net: &mut Net, idx: usize) {
        let relay = self.relay_mut(idx);
        relay.state = RelayState::Dead;
        let (up, down) = (relay.up, relay.down);
        net.abort(up);
        if let Some(d) = down {
            net.abort(d);
        }
        self.reap(net, idx);
    }

    fn on_closed(&mut self, net: &mut Net, idx: usize, sock: SockId) {
        let relay = self.relay_mut(idx);
        if sock == relay.up {
            relay.up_closed = true;
        }
        if relay.down == Some(sock) {
            relay.down_closed = true;
        }
        self.reap(net, idx);
    }

    /// Free the relay once both sockets are gone.
    fn reap(&mut self, net: &mut Net, idx: usize) {
        let relay = self.relay_mut(idx);
        let up_done = relay.up_closed || net.state(relay.up).is_none_or(|s| s.is_closed());
        let down_done = match relay.down {
            None => true,
            Some(d) => relay.down_closed || net.state(d).is_none_or(|s| s.is_closed()),
        };
        if up_done && down_done {
            let relay = self.relays[idx].take().expect("live");
            self.by_sock.remove(&relay.up);
            net.release(relay.up);
            if let Some(d) = relay.down {
                self.by_sock.remove(&d);
                if let Some(trace) = net.take_trace(d) {
                    self.finished_traces.push(trace);
                }
                net.release(d);
            }
            if !matches!(relay.state, RelayState::Dead) {
                self.stats.sessions_completed += 1;
            }
            lsl_obs::span_end(net.now().0, "depot.relay", relay.gen);
        }
    }
}
