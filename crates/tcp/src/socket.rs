//! The transmission control block (TCB): one connection's full state
//! machine — handshake, data transfer, congestion control, loss
//! recovery, flow control and teardown.

use bytes::Bytes;
use lsl_netsim::{NodeId, Packet, Simulator, Time, TimerHandle};
use lsl_trace::{ConnTrace, Dir, SegFlags, SegRecord};

use crate::cc::{Cc, CcAction};
use crate::config::TcpConfig;
use crate::rcvbuf::RecvBuf;
use crate::rto::RtoEstimator;
use crate::segment::{Flags, Segment};
use crate::sndbuf::SendBuf;

/// Connection states (RFC 793 §3.2; LISTEN lives in the stack).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpState {
    SynSent,
    SynRcvd,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    LastAck,
    Closing,
    TimeWait,
    Closed,
}

impl TcpState {
    /// May the local application still enqueue data?
    pub fn can_send(self) -> bool {
        matches!(self, TcpState::Established | TcpState::CloseWait)
    }

    /// Is the connection fully over?
    pub fn is_closed(self) -> bool {
        self == TcpState::Closed
    }
}

/// Terminal connection errors surfaced to the application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpError {
    /// Connection attempt rejected (RST in SYN-SENT).
    Refused,
    /// Reset by peer after establishment.
    Reset,
    /// Retransmissions exhausted.
    TimedOut,
}

/// Readiness notifications delivered through [`crate::Net::poll`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SockEvent {
    /// Active open completed.
    Connected,
    /// A listener produced an established connection.
    Accepted { conn: crate::net::SockId },
    /// New in-order data is available to read.
    Readable,
    /// Send-buffer space opened after a full-buffer `send`.
    Writable,
    /// Peer closed its sending direction (EOF after draining).
    PeerFin,
    /// Connection fully closed.
    Closed,
    /// Connection failed.
    Error(TcpError),
}

/// Timer kinds multiplexed into netsim timer tokens.
pub(crate) const TIMER_RTO: u64 = 0;
pub(crate) const TIMER_DELACK: u64 = 1;
pub(crate) const TIMER_TIMEWAIT: u64 = 2;

/// Mutable context the stack lends to TCB operations.
pub(crate) struct Ctx<'a> {
    pub sim: &'a mut Simulator,
    pub node: NodeId,
    /// Slot index of this TCB in its stack.
    pub idx: u32,
    pub events: &'a mut Vec<(u32, SockEvent)>,
}

impl Ctx<'_> {
    fn timer_token(&self, kind: u64) -> u64 {
        (self.idx as u64) << 3 | kind
    }

    fn push(&mut self, ev: SockEvent) {
        self.events.push((self.idx, ev));
    }
}

/// One connection's state.
pub(crate) struct Tcb {
    pub state: TcpState,
    pub cfg: TcpConfig,
    pub local_port: u16,
    pub peer: NodeId,
    pub peer_port: u16,
    /// Listener slot that spawned this connection (passive open).
    pub parent_listener: Option<u32>,

    // --- send side ---
    snd_una: u64,
    snd_nxt: u64,
    /// Highest sequence ever sent; `snd_nxt` can fall below it after the
    /// post-RTO go-back-N rollback, and anything below it is a
    /// retransmission for trace purposes.
    snd_max: u64,
    /// Peer's advertised window.
    snd_wnd: u64,
    sndbuf: SendBuf,
    cc: Cc,
    rto: RtoEstimator,
    rto_timer: Option<TimerHandle>,
    /// One in-flight RTT sample: (sequence the ACK must reach, send time).
    rtt_sample: Option<(u64, Time)>,
    /// Consecutive RTO expirations without progress.
    retx_count: u32,
    /// Effective MSS (min of ours and the peer's SYN option).
    mss: u32,
    app_closed: bool,
    fin_seq: Option<u64>,

    // --- receive side ---
    rcvbuf: RecvBuf,
    /// Peer's FIN has been consumed (rcv side sequence includes it).
    rcv_fin: bool,
    delack_timer: Option<TimerHandle>,
    segs_since_ack: u32,
    last_adv_wnd: u64,
    time_wait_timer: Option<TimerHandle>,

    // --- app readiness edge-triggers ---
    want_write: bool,

    pub trace: Option<ConnTrace>,
}

impl Tcb {
    /// Active open: construct and send the SYN.
    pub fn connect(
        ctx: &mut Ctx,
        cfg: TcpConfig,
        local_port: u16,
        peer: NodeId,
        peer_port: u16,
    ) -> Tcb {
        cfg.check();
        let mut tcb = Tcb::new_raw(cfg, local_port, peer, peer_port, TcpState::SynSent, None);
        tcb.send_syn(ctx, false);
        tcb.arm_rto(ctx);
        tcb
    }

    /// Passive open: a listener received this SYN.
    pub fn accept_syn(
        ctx: &mut Ctx,
        cfg: TcpConfig,
        local_port: u16,
        peer: NodeId,
        peer_port: u16,
        syn: &Segment,
        parent: u32,
    ) -> Tcb {
        cfg.check();
        let mut tcb = Tcb::new_raw(
            cfg,
            local_port,
            peer,
            peer_port,
            TcpState::SynRcvd,
            Some(parent),
        );
        tcb.handle_peer_syn(syn);
        tcb.send_syn(ctx, true);
        tcb.arm_rto(ctx);
        tcb
    }

    fn new_raw(
        cfg: TcpConfig,
        local_port: u16,
        peer: NodeId,
        peer_port: u16,
        state: TcpState,
        parent_listener: Option<u32>,
    ) -> Tcb {
        let cc = Cc::new(cfg.algo, cfg.mss, cfg.init_cwnd(), cfg.init_ssthresh);
        let rto = RtoEstimator::new(cfg.initial_rto, cfg.min_rto, cfg.max_rto);
        let last_adv_wnd = cfg.recv_buf;
        Tcb {
            state,
            local_port,
            peer,
            peer_port,
            parent_listener,
            snd_una: 0,
            snd_nxt: 1, // SYN occupies sequence 0
            snd_max: 1,
            snd_wnd: 0,
            sndbuf: SendBuf::new(1, cfg.send_buf),
            cc,
            rto,
            rto_timer: None,
            rtt_sample: None,
            retx_count: 0,
            mss: cfg.mss,
            app_closed: false,
            fin_seq: None,
            rcvbuf: RecvBuf::new(1, cfg.recv_buf), // re-based on peer ISS (0 by convention)
            rcv_fin: false,
            delack_timer: None,
            segs_since_ack: 0,
            last_adv_wnd,
            time_wait_timer: None,
            want_write: false,
            trace: None,
            cfg,
        }
    }

    fn handle_peer_syn(&mut self, syn: &Segment) {
        // Both ends use ISS 0, so the receive space always starts at 1.
        debug_assert_eq!(syn.seq, 0, "simulator TCP uses ISS 0");
        if let Some(peer_mss) = syn.mss {
            self.mss = self.mss.min(peer_mss as u32);
        }
        self.snd_wnd = syn.wnd;
    }

    // ------------------------------------------------------------------
    // Segment emission
    // ------------------------------------------------------------------

    /// Current acknowledgment number: everything received in order,
    /// including the peer's FIN once consumed.
    fn rcv_ack(&self) -> u64 {
        self.rcvbuf.rcv_nxt() + self.rcv_fin as u64
    }

    fn emit(&mut self, ctx: &mut Ctx, seq: u64, flags: Flags, data: Bytes, retx: bool) {
        let wnd = self.rcvbuf.window();
        let seg = Segment {
            src_port: self.local_port,
            dst_port: self.peer_port,
            seq,
            ack: if flags.ack { self.rcv_ack() } else { 0 },
            flags,
            wnd,
            mss: flags
                .syn
                .then_some(self.cfg.mss.min(u16::MAX as u32) as u16),
        };
        if let Some(trace) = &mut self.trace {
            trace.push(SegRecord {
                t: ctx.sim.now(),
                dir: Dir::Tx,
                seq,
                ack: seg.ack,
                len: data.len() as u32,
                flags: SegFlags {
                    syn: flags.syn,
                    fin: flags.fin,
                    ack: flags.ack,
                    rst: flags.rst,
                },
                retx,
            });
        }
        if flags.ack {
            self.last_adv_wnd = wnd;
            self.segs_since_ack = 0;
            self.cancel_delack(ctx);
        }
        let packet = Packet::tcp(ctx.node, self.peer, seg.encode(), data);
        ctx.sim.send(ctx.node, packet);
    }

    fn send_syn(&mut self, ctx: &mut Ctx, is_syn_ack: bool) {
        let flags = if is_syn_ack {
            Flags::SYN_ACK
        } else {
            Flags::SYN
        };
        self.emit(ctx, 0, flags, Bytes::new(), self.retx_count > 0);
    }

    fn send_ack(&mut self, ctx: &mut Ctx) {
        self.emit(ctx, self.snd_nxt, Flags::ACK, Bytes::new(), false);
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn arm_rto(&mut self, ctx: &mut Ctx) {
        if let Some(h) = self.rto_timer.take() {
            ctx.sim.cancel_timer(h);
        }
        let at = ctx.sim.now() + self.rto.current();
        self.rto_timer = Some(ctx.sim.set_timer(ctx.node, at, ctx.timer_token(TIMER_RTO)));
    }

    fn cancel_rto(&mut self, ctx: &mut Ctx) {
        if let Some(h) = self.rto_timer.take() {
            ctx.sim.cancel_timer(h);
        }
    }

    fn arm_delack(&mut self, ctx: &mut Ctx) {
        let Some(d) = self.cfg.delack else {
            self.send_ack(ctx);
            return;
        };
        if self.delack_timer.is_none() {
            let at = ctx.sim.now() + d;
            self.delack_timer = Some(ctx.sim.set_timer(
                ctx.node,
                at,
                ctx.timer_token(TIMER_DELACK),
            ));
        }
    }

    fn cancel_delack(&mut self, ctx: &mut Ctx) {
        if let Some(h) = self.delack_timer.take() {
            ctx.sim.cancel_timer(h);
        }
    }

    fn enter_time_wait(&mut self, ctx: &mut Ctx) {
        self.state = TcpState::TimeWait;
        self.cancel_rto(ctx);
        if self.time_wait_timer.is_none() {
            let at = ctx.sim.now() + self.cfg.time_wait;
            self.time_wait_timer = Some(ctx.sim.set_timer(
                ctx.node,
                at,
                ctx.timer_token(TIMER_TIMEWAIT),
            ));
        }
    }

    fn become_closed(&mut self, ctx: &mut Ctx, error: Option<TcpError>) {
        if self.state == TcpState::Closed {
            return;
        }
        self.state = TcpState::Closed;
        self.cancel_rto(ctx);
        self.cancel_delack(ctx);
        if let Some(h) = self.time_wait_timer.take() {
            ctx.sim.cancel_timer(h);
        }
        match error {
            Some(e) => ctx.push(SockEvent::Error(e)),
            None => ctx.push(SockEvent::Closed),
        }
    }

    // ------------------------------------------------------------------
    // Application interface (via the stack)
    // ------------------------------------------------------------------

    /// Enqueue outbound data; returns bytes accepted.
    pub fn send(&mut self, ctx: &mut Ctx, data: &Bytes) -> usize {
        if !self.state.can_send()
            && self.state != TcpState::SynSent
            && self.state != TcpState::SynRcvd
        {
            return 0;
        }
        if self.app_closed {
            return 0;
        }
        let n = self.sndbuf.write(data);
        if n < data.len() {
            self.want_write = true;
        }
        self.try_output(ctx);
        n
    }

    pub fn send_space(&self) -> u64 {
        if self.app_closed {
            0
        } else {
            self.sndbuf.space()
        }
    }

    /// Dequeue up to `max` in-order received bytes.
    pub fn recv(&mut self, ctx: &mut Ctx, max: usize) -> Bytes {
        let out = self.rcvbuf.read(max);
        if !out.is_empty() {
            self.maybe_window_update(ctx);
        }
        out
    }

    pub fn recv_available(&self) -> u64 {
        self.rcvbuf.available()
    }

    /// Peer FIN consumed and all data drained?
    pub fn at_eof(&self) -> bool {
        self.rcv_fin && self.rcvbuf.available() == 0
    }

    /// Graceful close of our sending direction; FIN goes out once the
    /// send buffer drains.
    pub fn close(&mut self, ctx: &mut Ctx) {
        if self.app_closed {
            return;
        }
        self.app_closed = true;
        self.want_write = false;
        if self.state == TcpState::SynSent {
            // Nothing established yet: just tear down.
            self.become_closed(ctx, None);
            return;
        }
        self.try_output(ctx);
    }

    /// Hard reset.
    pub fn abort(&mut self, ctx: &mut Ctx) {
        if self.state != TcpState::Closed {
            self.emit(ctx, self.snd_nxt, Flags::RST, Bytes::new(), false);
            self.become_closed(ctx, None);
        }
    }

    /// Fault injection: the host died. Cancel pending sim timers (they
    /// must not fire into a restarted stack) and silently forget the
    /// connection — no RST, no FIN, no socket event.
    pub(crate) fn crash(&mut self, sim: &mut Simulator) {
        if let Some(h) = self.rto_timer.take() {
            sim.cancel_timer(h);
        }
        if let Some(h) = self.delack_timer.take() {
            sim.cancel_timer(h);
        }
        if let Some(h) = self.time_wait_timer.take() {
            sim.cancel_timer(h);
        }
        self.state = TcpState::Closed;
    }

    /// After the application reads, re-advertise the window if it opened
    /// substantially (RFC 1122's SWS avoidance on the receive side).
    fn maybe_window_update(&mut self, ctx: &mut Ctx) {
        let wnd = self.rcvbuf.window();
        let threshold = (2 * self.mss as u64).min(self.cfg.recv_buf / 2);
        if wnd > self.last_adv_wnd && wnd - self.last_adv_wnd >= threshold {
            self.send_ack(ctx);
        }
    }

    // ------------------------------------------------------------------
    // Output engine
    // ------------------------------------------------------------------

    /// Unacknowledged sequence span (includes virtual SYN/FIN octets).
    fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Send-side structural invariants, asserted in debug builds after
    /// every ACK-driven transition: the sequence space must stay ordered
    /// (`snd_una ≤ snd_nxt ≤ snd_max`) and the congestion window bounded
    /// (at least one MSS so progress is always possible, and below a
    /// sanity ceiling that recovery inflation must never pierce).
    fn check_invariants(&self) {
        debug_assert!(
            self.snd_una <= self.snd_nxt && self.snd_nxt <= self.snd_max,
            "seq-space-order: snd_una {} / snd_nxt {} / snd_max {} out of order",
            self.snd_una,
            self.snd_nxt,
            self.snd_max
        );
        const CWND_CEILING: u64 = 1 << 30;
        debug_assert!(
            self.cc.cwnd >= self.mss as u64 && self.cc.cwnd <= CWND_CEILING,
            "cwnd-bounds: cwnd {} outside [{}, {}]",
            self.cc.cwnd,
            self.mss,
            CWND_CEILING
        );
    }

    /// Push out as much as the congestion and flow-control windows allow.
    pub fn try_output(&mut self, ctx: &mut Ctx) {
        if !matches!(
            self.state,
            TcpState::Established
                | TcpState::CloseWait
                | TcpState::FinWait1
                | TcpState::Closing
                | TcpState::LastAck
        ) {
            return;
        }
        loop {
            let avail = self.sndbuf.end_seq().saturating_sub(self.snd_nxt);
            if avail > 0 {
                let wnd = self.cc.cwnd.min(self.snd_wnd);
                let flight = self.flight();
                let usable = wnd.saturating_sub(flight);
                let mut len = avail.min(usable).min(self.mss as u64);
                // Zero-window probe: with nothing in flight, force one
                // byte out so the RTO machinery keeps probing until the
                // peer reopens (classic persist behaviour).
                if len == 0 && self.snd_wnd == 0 && flight == 0 {
                    len = 1;
                }
                if len == 0 {
                    break;
                }
                let data = self.sndbuf.read(self.snd_nxt, len as u32);
                let seq = self.snd_nxt;
                self.snd_nxt += len;
                let retx = seq < self.snd_max;
                self.snd_max = self.snd_max.max(self.snd_nxt);
                self.emit(ctx, seq, Flags::ACK, data, retx);
                if self.rtt_sample.is_none() && !retx {
                    self.rtt_sample = Some((self.snd_nxt, ctx.sim.now()));
                }
                if self.rto_timer.is_none() {
                    self.arm_rto(ctx);
                }
                continue;
            }
            break;
        }
        // FIN once the application closed and everything is out.
        if self.app_closed && self.snd_nxt == self.sndbuf.end_seq() {
            match self.fin_seq {
                None if matches!(self.state, TcpState::Established | TcpState::CloseWait) => {
                    let seq = self.snd_nxt;
                    self.fin_seq = Some(seq);
                    self.snd_nxt += 1;
                    self.snd_max = self.snd_max.max(self.snd_nxt);
                    self.emit(ctx, seq, Flags::FIN_ACK, Bytes::new(), false);
                    self.state = match self.state {
                        TcpState::Established => TcpState::FinWait1,
                        TcpState::CloseWait => TcpState::LastAck,
                        s => s,
                    };
                    if self.rto_timer.is_none() {
                        self.arm_rto(ctx);
                    }
                }
                // Post-rollback: the FIN position was reached again, so
                // re-emit it (state already transitioned the first time).
                Some(f) if f == self.snd_nxt => {
                    self.snd_nxt += 1;
                    self.emit(ctx, f, Flags::FIN_ACK, Bytes::new(), true);
                    if self.rto_timer.is_none() {
                        self.arm_rto(ctx);
                    }
                }
                _ => {}
            }
        }
    }

    /// Retransmit the first unacknowledged segment (fast retransmit, RTO,
    /// or a NewReno hole fill).
    fn retransmit_one(&mut self, ctx: &mut Ctx) {
        // Invalidate any RTT sample overlapping the retransmission (Karn).
        self.rtt_sample = None;
        if self.state == TcpState::SynSent {
            self.send_syn(ctx, false);
            return;
        }
        if self.state == TcpState::SynRcvd {
            self.send_syn(ctx, true);
            return;
        }
        if let Some(fin) = self.fin_seq {
            if self.snd_una == fin {
                self.emit(ctx, fin, Flags::FIN_ACK, Bytes::new(), true);
                return;
            }
        }
        let end = self.sndbuf.end_seq();
        let len = (end.saturating_sub(self.snd_una)).min(self.mss as u64);
        if len == 0 {
            return;
        }
        let data = self.sndbuf.read(self.snd_una, len as u32);
        self.emit(ctx, self.snd_una, Flags::ACK, data, true);
    }

    // ------------------------------------------------------------------
    // Timer expirations (dispatched by the stack)
    // ------------------------------------------------------------------

    pub fn on_timer(&mut self, ctx: &mut Ctx, kind: u64) {
        match kind {
            TIMER_RTO => self.on_rto(ctx),
            TIMER_DELACK => {
                self.delack_timer = None;
                if self.state != TcpState::Closed {
                    self.send_ack(ctx);
                }
            }
            TIMER_TIMEWAIT => {
                self.time_wait_timer = None;
                self.become_closed(ctx, None);
            }
            _ => unreachable!("unknown timer kind {kind}"),
        }
    }

    fn on_rto(&mut self, ctx: &mut Ctx) {
        self.rto_timer = None;
        match self.state {
            TcpState::SynSent | TcpState::SynRcvd => {
                self.retx_count += 1;
                if self.retx_count > self.cfg.max_syn_retries {
                    self.become_closed(ctx, Some(TcpError::TimedOut));
                    return;
                }
                self.rto.on_timeout();
                self.retransmit_one(ctx);
                self.arm_rto(ctx);
            }
            TcpState::Closed | TcpState::TimeWait => {}
            _ => {
                if self.flight() == 0 {
                    return; // everything got acked in the meantime
                }
                self.retx_count += 1;
                if self.retx_count > self.cfg.max_data_retries {
                    self.become_closed(ctx, Some(TcpError::TimedOut));
                    return;
                }
                self.cc.on_rto(self.flight());
                lsl_obs::counter_add("tcp.retransmit.rto", 0, 1);
                self.rto.on_timeout();
                // Go-back-N: rewind to the first unacknowledged byte and
                // let the output engine resend under the collapsed cwnd.
                // The slow-start clock then recovers the rest of the lost
                // window instead of waiting out one backoff per hole.
                self.rtt_sample = None;
                self.snd_nxt = self.snd_una;
                self.try_output(ctx);
                self.arm_rto(ctx);
                self.check_invariants();
            }
        }
    }

    // ------------------------------------------------------------------
    // Segment arrival
    // ------------------------------------------------------------------

    pub fn on_segment(&mut self, ctx: &mut Ctx, seg: Segment, data: Bytes) {
        if let Some(trace) = &mut self.trace {
            trace.push(SegRecord {
                t: ctx.sim.now(),
                dir: Dir::Rx,
                seq: seg.seq,
                ack: seg.ack,
                len: data.len() as u32,
                flags: SegFlags {
                    syn: seg.flags.syn,
                    fin: seg.flags.fin,
                    ack: seg.flags.ack,
                    rst: seg.flags.rst,
                },
                retx: false,
            });
        }

        if seg.flags.rst {
            let err = if self.state == TcpState::SynSent {
                TcpError::Refused
            } else {
                TcpError::Reset
            };
            self.become_closed(ctx, Some(err));
            return;
        }

        match self.state {
            TcpState::Closed => {}
            TcpState::SynSent => self.on_segment_syn_sent(ctx, seg),
            TcpState::SynRcvd => self.on_segment_syn_rcvd(ctx, seg, data),
            TcpState::TimeWait => {
                // Retransmitted FIN: peer missed our ACK.
                if seg.flags.fin {
                    self.send_ack(ctx);
                }
            }
            _ => self.on_segment_established(ctx, seg, data),
        }
    }

    fn on_segment_syn_sent(&mut self, ctx: &mut Ctx, seg: Segment) {
        if seg.flags.syn && seg.flags.ack && seg.ack == 1 {
            self.handle_peer_syn(&seg);
            self.snd_una = 1;
            self.retx_count = 0;
            self.state = TcpState::Established;
            self.cancel_rto(ctx);
            self.send_ack(ctx);
            ctx.push(SockEvent::Connected);
            self.try_output(ctx);
        }
        // Bare SYN (simultaneous open) is out of scope: the experiment
        // drivers never do it, and RFC-correct handling would add states
        // without exercising anything the paper measures.
    }

    fn on_segment_syn_rcvd(&mut self, ctx: &mut Ctx, seg: Segment, data: Bytes) {
        if seg.flags.syn && !seg.flags.ack {
            // Duplicate SYN: our SYN-ACK was lost. RTO will resend.
            return;
        }
        if seg.flags.ack && seg.ack >= 1 {
            self.snd_una = self.snd_una.max(1);
            self.snd_wnd = seg.wnd;
            self.retx_count = 0;
            self.state = TcpState::Established;
            self.cancel_rto(ctx);
            let conn = crate::net::SockId {
                node: ctx.node,
                idx: ctx.idx,
            };
            if let Some(listener) = self.parent_listener {
                // Delivered against the listener socket by the stack.
                ctx.events.push((listener, SockEvent::Accepted { conn }));
            }
            // The handshake ACK may carry data already.
            if !data.is_empty() || seg.flags.fin {
                self.on_segment_established(ctx, seg, data);
            }
            self.try_output(ctx);
        }
    }

    fn on_segment_established(&mut self, ctx: &mut Ctx, seg: Segment, data: Bytes) {
        let data_len = data.len() as u64;
        let had_data = !data.is_empty();

        // --- ACK processing -------------------------------------------
        if seg.flags.ack {
            if seg.ack > self.snd_una && seg.ack <= self.snd_max {
                self.on_new_ack(ctx, &seg);
            } else if seg.ack == self.snd_una
                && self.flight() > 0
                && !had_data
                && !seg.flags.fin
                && seg.wnd == self.snd_wnd
            {
                // Classic duplicate ACK.
                match self.cc.on_dup_ack(self.snd_nxt, self.flight()) {
                    CcAction::FastRetransmit => {
                        lsl_obs::counter_add("tcp.retransmit.fast", 0, 1);
                        lsl_obs::hist_observe("tcp.cwnd_on_loss", self.cc.cwnd);
                        self.retransmit_one(ctx);
                        self.arm_rto(ctx);
                    }
                    _ => {
                        // Inflation may open room for new transmissions.
                        self.try_output(ctx);
                    }
                }
            } else {
                // Window update or stale ack: track the window and see if
                // transmission can resume.
                self.snd_wnd = seg.wnd;
                self.try_output(ctx);
            }
            self.check_invariants();
        }

        // --- data processing ------------------------------------------
        if had_data {
            let advanced = self.rcvbuf.on_segment(seg.seq, data);
            if advanced {
                ctx.push(SockEvent::Readable);
                self.segs_since_ack += 1;
                // Immediate ACK every 2nd segment, or instantly when a
                // hole was just filled (fast-retransmit feedback).
                if self.segs_since_ack >= 2 || self.rcvbuf.has_holes() {
                    self.send_ack(ctx);
                } else {
                    self.arm_delack(ctx);
                }
            } else {
                // Out-of-order, duplicate or out-of-window: immediate
                // duplicate ACK so the sender's fast retransmit engages.
                self.send_ack(ctx);
            }
        }

        // --- FIN processing -------------------------------------------
        if seg.flags.fin && !self.rcv_fin {
            let fin_seq = seg.seq + data_len;
            if fin_seq == self.rcvbuf.rcv_nxt() {
                self.rcv_fin = true;
                self.send_ack(ctx);
                ctx.push(SockEvent::PeerFin);
                match self.state {
                    TcpState::Established => self.state = TcpState::CloseWait,
                    TcpState::FinWait1 => {
                        // Our FIN not yet acked → simultaneous close.
                        self.state = TcpState::Closing;
                    }
                    TcpState::FinWait2 => {
                        self.enter_time_wait(ctx);
                        self.become_closed_if_instant(ctx);
                    }
                    _ => {}
                }
            }
            // Otherwise data is still missing; the FIN will come again.
        }
    }

    /// TIME-WAIT with a zero configured dwell collapses immediately
    /// (tests use this to avoid draining timers).
    fn become_closed_if_instant(&mut self, ctx: &mut Ctx) {
        if self.cfg.time_wait.is_zero() {
            self.become_closed(ctx, None);
        }
    }

    fn on_new_ack(&mut self, ctx: &mut Ctx, seg: &Segment) {
        let acked = seg.ack - self.snd_una;
        self.snd_una = seg.ack;
        // After a go-back-N rollback the peer may acknowledge past the
        // rewound snd_nxt (it had later data buffered): skip re-sending
        // what it already holds.
        self.snd_nxt = self.snd_nxt.max(seg.ack);
        self.snd_wnd = seg.wnd;
        self.retx_count = 0;

        // Release acknowledged payload (clamp to data space: the ack may
        // cover our FIN, which is not in the buffer).
        let data_end = self.sndbuf.end_seq();
        self.sndbuf.ack_to(seg.ack.min(data_end));

        // RTT sampling (Karn-safe: sample is dropped on retransmission).
        if let Some((target, sent_at)) = self.rtt_sample {
            if seg.ack >= target {
                self.rto.on_sample(ctx.sim.now() - sent_at);
                self.rtt_sample = None;
            }
        }

        if self.cc.on_new_ack(acked, self.snd_una) == CcAction::RetransmitHole {
            lsl_obs::counter_add("tcp.retransmit.hole", 0, 1);
            self.retransmit_one(ctx);
        }
        // Cwnd evolution sample: one histogram observation per
        // cumulative ACK (cheap: a thread-local flag check when the
        // recorder is off).
        lsl_obs::hist_observe("tcp.cwnd", self.cc.cwnd);

        // FIN-of-ours acknowledged?
        if let Some(fin) = self.fin_seq {
            if seg.ack > fin {
                match self.state {
                    TcpState::FinWait1 => self.state = TcpState::FinWait2,
                    TcpState::Closing => {
                        self.enter_time_wait(ctx);
                        self.become_closed_if_instant(ctx);
                    }
                    TcpState::LastAck => {
                        self.become_closed(ctx, None);
                        return;
                    }
                    _ => {}
                }
            }
        }

        // Timer management: rearm while data is in flight.
        if self.flight() > 0 {
            self.arm_rto(ctx);
        } else {
            self.cancel_rto(ctx);
        }

        // Wake a blocked writer once per block.
        if self.want_write && self.sndbuf.space() > 0 && !self.app_closed {
            self.want_write = false;
            ctx.push(SockEvent::Writable);
        }

        self.try_output(ctx);
    }

    pub fn is_fully_closed(&self) -> bool {
        self.state == TcpState::Closed
    }

    /// Smoothed RTT estimate (for NWS sensors).
    pub fn srtt(&self) -> Option<lsl_netsim::Dur> {
        self.rto.srtt()
    }

    /// Current congestion window in bytes (diagnostics/ablations).
    pub fn cwnd(&self) -> u64 {
        self.cc.cwnd
    }
}
