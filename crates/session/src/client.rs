//! Session-layer recovery: one engine for every session, single or
//! striped.
//!
//! The paper's session layer gives the *endpoints* responsibility for
//! end-to-end correctness (the depots hold only small, volatile relay
//! buffers). [`SessionClient`] is that endpoint logic. It drives one or
//! more *lanes* — a lane is a route plus the [`BulkSender`] attempt
//! riding it — and when a lane's attempt dies it decides, in order,
//! whether to
//!
//! 1. **reconnect** over the same route with capped exponential backoff,
//! 2. **fail over** to the best-ranked candidate route no live lane is
//!    using (see [`rank_candidates`]),
//! 3. **degrade** to a direct TCP path when every depot route is gone,
//! 4. retire the lane; the last lane's death gives up with
//!    [`SessionError::RoutesExhausted`].
//!
//! Every session runs one recovery posture. Only the reconnect budget
//! and the first backoff delay are settable ([`RecoveryConfig`]); the
//! 2 s backoff cap, the 500 ms progress watchdog, the budget of two
//! retransfers per lane and the direct fallback are fixed.
//!
//! Every attempt is one [`BulkSender::start`] with one [`Request`]. A
//! one-lane session is the single cascade: its lane carries the whole
//! stream with a fresh [`Resume`] request (v2 header) and streams from
//! the offset the sink grants from its own ledger — the last
//! contiguously verified [`RESUME_BLOCK`] boundary — so reconnects,
//! failovers and retransfers resend only unverified bytes; the client
//! keeps no verified floor of its own. An N-lane session
//! ([`crate::StripedSession`]) is RAIL's striped array: each lane
//! carries block-range chunks with [`StripeReq`] requests (v3 header),
//! and only the dispatch policy — even macro-stripes, work stealing,
//! k-of-n tail, re-striping a dead lane's blocks — is multi-lane. The
//! ladder, watchdog, timers, events and teardown are the same code for
//! both, and so is the one table of block digests every ranged attempt
//! reads, which hashes each block once per session.
//!
//! Verified delivery failures (digest/content mismatch, truncation)
//! reported by the sink trigger a bounded **retransfer** on the lane
//! that carried the range. Every decision is recorded as a timestamped
//! [`SessionEvent`], which experiments export as a recovery timeline.
//!
//! Detection does not rely on TCP alone: an idle-but-dead sublink (a
//! depot host that crashed while the sender awaited the session
//! confirmation) produces no segments and thus no RTO, so a per-lane
//! progress watchdog declares the attempt [`SessionError::Stalled`] when
//! no byte moves for a full timeout window.

use std::collections::VecDeque;
use std::rc::Rc;

use lsl_netsim::{Dur, NodeId, Time};
use lsl_tcp::{AppEvent, Net};

use crate::endpoint::{
    stream_blocks, BlockDigests, BulkSender, Request, SendMode, SenderState, TransferOutcome,
    RESUME_BLOCK,
};
use crate::error::{Handled, SessionError, SessionEvent};
use crate::header::{Resume, StripeReq};
use crate::id::SessionId;
use crate::plan::RoutePlan;
use crate::route::LslPath;
use crate::score::rank_candidates;
use crate::stripe::{chop, partition, Chunk, LaneStat, REDUNDANT_TAIL};

/// App-timer tokens with this bit belong to a [`SessionClient`], not to
/// a depot that happens to share the node. (Bit 63 is the net-layer
/// app-timer discriminator; bit 62 is ours.)
pub const CLIENT_TIMER_TAG: u64 = 1 << 62;

/// Session-id bits a timer token carries (token bits 32..62).
const TOKEN_SESSION_MASK: u64 = 0x3fff_ffff;
/// Lane-index bits a timer token carries (token bits 28..32).
const TOKEN_LANE_MASK: u64 = 0xf;
/// Generation bits a timer token carries (token bits 0..28).
const TOKEN_GEN_MASK: u64 = 0x0fff_ffff;

/// Proactive-reroute hysteresis: the live route's forecast score must be
/// at least this many times worse than the best alternative before the
/// client abandons a working sublink mid-stream. A reroute costs a fresh
/// cascade setup, so a marginal forecast edge must not cause flapping.
const REROUTE_HYSTERESIS: u64 = 2;

/// Reconnect delays double per attempt up to this ceiling.
const BACKOFF_CAP: Dur = Dur::from_secs(2);

/// Progress watchdog: a lane's attempt is declared
/// [`SessionError::Stalled`] when the socket accepts no byte for this
/// long, so an idle-dead sublink is noticed in well under a second.
const PROGRESS_TIMEOUT: Dur = Dur::from_millis(500);

/// Retransfers allowed per lane after failed delivery checks. Each
/// retransfer resumes past whatever the sink already verified.
const MAX_RETRANSFERS: u32 = 2;

/// The reconnect ladder, applied per lane: the only settable part of
/// recovery (the module docs list the fixed rest). The default is
/// impatient, so a dead depot costs sim-seconds, not minutes: one
/// reconnect per route after 200 ms.
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Reconnection attempts per route before failing over.
    pub max_reconnects: u32,
    /// First reconnect delay; doubles per attempt up to the 2 s cap.
    pub backoff_base: Dur,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            max_reconnects: 1,
            backoff_base: Dur::from_millis(200),
        }
    }
}

impl RecoveryConfig {
    /// Delay before reconnect attempt `attempt` (1-based):
    /// `backoff_base` doubling per attempt, capped at `BACKOFF_CAP`.
    fn backoff(&self, attempt: u32) -> Dur {
        let exp = attempt.saturating_sub(1).min(16);
        (self.backoff_base * 2u64.pow(exp)).min(BACKOFF_CAP)
    }
}

/// A client timer token: [`CLIENT_TIMER_TAG`], 30 bits of session id (so
/// concurrent clients on one node ignore each other's timers), 4 bits of
/// lane index and 28 bits of the lane's timer generation.
pub fn client_timer_token(session: SessionId, lane: usize, gen: u64) -> u64 {
    let sid = (session.0 as u64) & TOKEN_SESSION_MASK;
    CLIENT_TIMER_TAG
        | (sid << 32)
        | ((lane as u64 & TOKEN_LANE_MASK) << 28)
        | (gen & TOKEN_GEN_MASK)
}

/// Where the client is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientState {
    /// An attempt is in flight (or its outcome is awaited).
    Running,
    /// Backing off before the next reconnect (no lane has an attempt in
    /// flight).
    Backoff,
    /// The sink verified a complete delivery.
    Done,
    /// Recovery exhausted its options.
    Failed(SessionError),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LaneState {
    /// No chunk in hand (queues dry, redundancy budget spent).
    Idle,
    /// An attempt is in flight.
    Running,
    /// Backing off before re-attempting.
    Backoff,
    /// Routes exhausted; its work was re-striped onto survivors.
    Dead,
}

/// One cascade of the session: a route, the attempt riding it, its
/// recovery counters and watchdog, and (striped only) the chunk it is
/// carrying plus its share of the dispatch queue.
struct Lane {
    route: usize,
    state: LaneState,
    sender: Option<BulkSender>,
    /// The chunk in flight, kept across reconnects of the same lane:
    /// the re-attempt re-requests it and the sink's grant skips whatever
    /// certified before the failure. Always `None` on a one-lane
    /// session, whose lane carries the whole stream.
    chunk: Option<Chunk>,
    queue: VecDeque<Chunk>,
    /// Reconnect attempts burned on the current route.
    reconnects: u32,
    retransfers: u32,
    /// Progress snapshot at the last watchdog check.
    last_progress: u64,
    /// Timer generation; a fired token with a stale generation is void.
    timer_gen: u64,
    /// Id of the current attempt's `session.attempt` /
    /// `session.sublink.establish` obs spans.
    attempt: u64,
    /// Whether the current attempt reached `Established` (closes the
    /// establish span exactly once).
    established: bool,
    /// Sim time of the first unrecovered `SublinkDown`, for the
    /// `session.recovery_ns` fault-recovery-latency histogram.
    down_since: Option<Time>,
    dispatched: u64,
    stolen: u64,
    redundant: u64,
}

/// A recovering session endpoint: drives [`BulkSender`] attempts on one
/// or more lanes across a ranked list of candidate routes until the sink
/// verifies delivery or the [`RecoveryConfig`] budgets run out.
pub struct SessionClient {
    node: NodeId,
    session: SessionId,
    total: u64,
    mode: SendMode,
    tcp: lsl_tcp::TcpConfig,
    trace_label: Option<String>,
    plan: RoutePlan,
    /// Candidates spent by the recovery ladder (reconnect budget
    /// exhausted); never offered again unless a fresh score revives them.
    dead: Vec<bool>,
    cfg: RecoveryConfig,
    lanes: Vec<Lane>,
    /// The stream's block digests, read by every ranged attempt on
    /// every lane, so each block is hashed once per session.
    digests: Rc<BlockDigests>,
    /// k-of-n tail attempts left (striped sessions only).
    redundant_left: u32,
    /// `Running` until terminal; [`SessionClient::state`] derives
    /// `Backoff` from the lanes.
    state: ClientState,
    events: Vec<(Time, SessionEvent)>,
    /// Attempt ordinal across the whole client lifetime: the id source
    /// of the per-attempt obs spans.
    attempt_seq: u64,
    /// Highest absolute stream offset any attempt reached; a resume
    /// grant below it means the gap is resent
    /// (`session.bytes_resent_after_resume`).
    high_offset: u64,
    pub started_at: Time,
    pub finished_at: Option<Time>,
}

impl SessionClient {
    /// Begin a single-cascade session: connect the first attempt over
    /// the best route.
    ///
    /// `plan` is the validated candidate set (see [`RoutePlan`]); the
    /// client starts on the best-ranked candidate — forecast score
    /// ascending when scores are present, plan order otherwise. When no
    /// depot-free candidate is present, a direct path is appended as the
    /// last resort. Resume is negotiated whenever `mode` is
    /// [`SendMode::Lsl`], the only mode that can certify blocks.
    #[allow(clippy::too_many_arguments)] // one-shot constructor mirroring BulkSender::start
    pub fn start(
        net: &mut Net,
        node: NodeId,
        plan: RoutePlan,
        session: SessionId,
        total: u64,
        mode: SendMode,
        tcp: lsl_tcp::TcpConfig,
        recovery: RecoveryConfig,
        trace_label: Option<&str>,
    ) -> SessionClient {
        Self::open(
            net,
            node,
            plan,
            session,
            total,
            mode,
            tcp,
            1,
            recovery,
            trace_label,
        )
    }

    /// Begin a session over `min(max_lanes, plan.len())` lanes on the
    /// top-ranked candidates (one lane for a sub-2-block stream).
    #[allow(clippy::too_many_arguments)] // shared body of both public constructors
    pub(crate) fn open(
        net: &mut Net,
        node: NodeId,
        mut plan: RoutePlan,
        session: SessionId,
        total: u64,
        mode: SendMode,
        tcp: lsl_tcp::TcpConfig,
        max_lanes: usize,
        recovery: RecoveryConfig,
        trace_label: Option<&str>,
    ) -> SessionClient {
        let total_blocks = stream_blocks(total);
        let n = if total_blocks < 2 {
            1
        } else {
            max_lanes.min(plan.len())
        };
        if !plan.has_depot_free() {
            // A direct path to the plan's own destination always
            // validates, so the Result carries no information here.
            let _ = plan.push_failover(LslPath::direct(plan.dst()));
        }
        // Lanes ride the top-ranked candidates (forecast score ascending
        // when scored, plan order otherwise). Striped lanes get even
        // contiguous macro-stripes; a lone lane carries the whole stream
        // and queues nothing.
        let scores: Vec<Option<u64>> = plan.candidates().iter().map(|c| c.score).collect();
        let routes = rank_candidates(&scores)[..n].to_vec();
        let stripes = match n {
            1 => vec![(0, 0)],
            _ => partition(total_blocks, n),
        };
        let lanes = routes
            .iter()
            .zip(stripes)
            .map(|(&route, (a, b))| Lane {
                route,
                state: LaneState::Idle,
                sender: None,
                chunk: None,
                queue: chop(a, b),
                reconnects: 0,
                retransfers: 0,
                last_progress: 0,
                timer_gen: 0,
                attempt: 0,
                established: false,
                down_since: None,
                dispatched: 0,
                stolen: 0,
                redundant: 0,
            })
            .collect();
        let mut client = SessionClient {
            node,
            session,
            total,
            mode,
            tcp,
            trace_label: trace_label.map(str::to_owned),
            dead: vec![false; plan.len()],
            plan,
            cfg: recovery,
            lanes,
            digests: Rc::new(BlockDigests::new(total, (0, total_blocks))),
            redundant_left: REDUNDANT_TAIL,
            state: ClientState::Running,
            events: Vec::new(),
            attempt_seq: 0,
            high_offset: 0,
            started_at: net.now(),
            finished_at: None,
        };
        lsl_obs::span_begin(net.now().0, "session.client", session.0 as u64);
        client.pump_idle(net);
        client
    }

    pub fn session(&self) -> SessionId {
        self.session
    }

    pub fn state(&self) -> ClientState {
        let any = |s| self.lanes.iter().any(|l| l.state == s);
        match self.state {
            ClientState::Running if !any(LaneState::Running) && any(LaneState::Backoff) => {
                ClientState::Backoff
            }
            s => s,
        }
    }

    pub fn is_done(&self) -> bool {
        matches!(self.state, ClientState::Done | ClientState::Failed(_))
    }

    /// The route lane 0 currently (or last) uses, as an index into the
    /// candidate list passed to [`SessionClient::start`].
    pub fn route_index(&self) -> usize {
        self.lanes[0].route
    }

    /// The validated candidate set, including any appended direct
    /// fallback and the latest forecast scores.
    pub fn plan(&self) -> &RoutePlan {
        &self.plan
    }

    /// The path lane 0 currently (or last) uses.
    pub fn current_path(&self) -> &LslPath {
        &self.plan.candidates()[self.route_index()].path
    }

    /// Lane 0's active sublink socket, if an attempt is in flight — lets
    /// a measurement plane piggyback passive RTT observations off live
    /// session traffic.
    pub fn sock(&self) -> Option<lsl_tcp::SockId> {
        self.lanes[0].sender.as_ref().map(BulkSender::sock)
    }

    /// Number of lanes (concurrent cascades) the session runs.
    pub fn cascades(&self) -> usize {
        self.lanes.len()
    }

    /// Per-lane dispatch statistics (empty for a one-lane session, which
    /// dispatches no chunks).
    pub fn lane_stats(&self) -> Vec<LaneStat> {
        if self.lanes.len() == 1 {
            return Vec::new();
        }
        self.lanes
            .iter()
            .map(|l| LaneStat {
                route: l.route,
                blocks_dispatched: l.dispatched,
                blocks_stolen: l.stolen,
                redundant_attempts: l.redundant,
                dead: l.state == LaneState::Dead,
            })
            .collect()
    }

    /// The timestamped lifecycle so far.
    pub fn events(&self) -> &[(Time, SessionEvent)] {
        &self.events
    }

    pub fn take_events(&mut self) -> Vec<(Time, SessionEvent)> {
        std::mem::take(&mut self.events)
    }

    /// Record a lifecycle event concerning lane `i` (any lane for the
    /// session-wide `Completed`/`Failed`) and mirror it into the
    /// observability plane: recovery arms become instants, establishment
    /// closes the attempt's establish span, recovery latency feeds a
    /// histogram.
    fn push_event(&mut self, net: &Net, i: usize, ev: SessionEvent) {
        let t = net.now();
        let sid = self.session.0 as u64;
        let lane = &mut self.lanes[i];
        match &ev {
            SessionEvent::Established => {
                if !lane.established {
                    lane.established = true;
                    lsl_obs::span_end(t.0, "session.sublink.establish", lane.attempt);
                }
                if let Some(down) = lane.down_since.take() {
                    lsl_obs::hist_observe("session.recovery_ns", (t - down).0);
                }
            }
            SessionEvent::Confirmed => lsl_obs::instant(t.0, "session.confirmed", sid),
            SessionEvent::SublinkDown(_) => {
                lsl_obs::instant(t.0, "session.sublink.down", sid);
                lane.down_since.get_or_insert(t);
            }
            SessionEvent::Reconnecting { attempt, .. } => {
                lsl_obs::instant(t.0, "session.reconnect", *attempt as u64);
            }
            SessionEvent::FailedOver { route } => {
                lsl_obs::instant(t.0, "session.failover", *route as u64);
            }
            SessionEvent::Rerouted { to, .. } => {
                lsl_obs::instant(t.0, "session.reroute", *to as u64);
            }
            SessionEvent::Degraded => {
                lsl_obs::instant(t.0, "session.degrade", lane.route as u64);
            }
            SessionEvent::Retransfer { attempt } => {
                lsl_obs::instant(t.0, "session.retransfer", *attempt as u64);
            }
            SessionEvent::Resumed { from_block, offset } => {
                lsl_obs::instant(t.0, "session.resume", *from_block);
                lsl_obs::gauge_set("session.resume_offset", sid, *offset);
                lsl_obs::counter_add(
                    "session.bytes_resent_after_resume",
                    0,
                    self.high_offset.saturating_sub(*offset),
                );
            }
            SessionEvent::StripeLost { cascade, .. } => {
                lsl_obs::instant(t.0, "session.stripe.lost", *cascade as u64);
            }
            SessionEvent::StripeRebalanced { to, .. } => {
                lsl_obs::instant(t.0, "session.stripe.rebalance", *to as u64);
            }
            SessionEvent::Completed => {
                lsl_obs::instant(t.0, "session.completed", sid);
                lsl_obs::span_end(t.0, "session.client", sid);
            }
            SessionEvent::Failed(_) => {
                lsl_obs::instant(t.0, "session.failed", sid);
                lsl_obs::span_end(t.0, "session.client", sid);
            }
        }
        self.events.push((t, ev));
    }

    fn arm_timer(&mut self, net: &mut Net, i: usize, delay: Dur) {
        self.lanes[i].timer_gen += 1;
        let token = client_timer_token(self.session, i, self.lanes[i].timer_gen);
        net.set_app_timer(self.node, net.now() + delay, token);
    }

    /// Give every idle lane work (initial kick, and after a re-stripe).
    fn pump_idle(&mut self, net: &mut Net) {
        for i in 0..self.lanes.len() {
            if self.lanes[i].state == LaneState::Idle && self.lanes[i].sender.is_none() {
                self.dispatch(net, i);
            }
        }
    }

    /// Start lane `i` on its next piece of work. A lone lane carries the
    /// whole stream. A striped lane takes its next chunk: own queue
    /// first, then steal from the back of the longest surviving queue,
    /// then (tail only) a redundant re-request of a chunk in flight
    /// elsewhere.
    fn dispatch(&mut self, net: &mut Net, i: usize) {
        if self.is_done() || self.lanes[i].state == LaneState::Dead {
            return;
        }
        if self.lanes.len() > 1 && self.lanes[i].chunk.is_none() {
            let mut chunk = self.lanes[i].queue.pop_front();
            if chunk.is_none() {
                // Work-stealing: the longest queue loses its tail chunk.
                let victim = (0..self.lanes.len())
                    .filter(|&j| j != i && !self.lanes[j].queue.is_empty())
                    .max_by_key(|&j| (self.lanes[j].queue.len(), usize::MAX - j));
                if let Some(j) = victim {
                    chunk = self.lanes[j].queue.pop_back();
                    if let Some(c) = &chunk {
                        self.lanes[i].stolen += c.blocks();
                        lsl_obs::counter_add("stripe.blocks_stolen", i as u64, c.blocks());
                    }
                }
            }
            if chunk.is_none() && self.redundant_left > 0 {
                // k-of-n tail: double up on a chunk a slower lane is
                // still carrying. The sink discards the duplicates.
                let target = (0..self.lanes.len())
                    .filter(|&j| j != i && self.lanes[j].state != LaneState::Dead)
                    .find_map(|j| self.lanes[j].chunk.as_ref());
                if let Some(c) = target {
                    chunk = Some(Chunk {
                        start: c.start,
                        end: c.end,
                        lost_at: None,
                    });
                    self.redundant_left -= 1;
                    self.lanes[i].redundant += 1;
                    lsl_obs::counter_add("stripe.redundant_dispatch", i as u64, 1);
                }
            }
            let Some(mut c) = chunk else {
                self.lanes[i].state = LaneState::Idle;
                return;
            };
            if let Some(lost) = c.lost_at.take() {
                // This chunk came off a dead lane: it is now safely
                // re-striped; record how long the blocks sat orphaned.
                let blocks = c.blocks();
                lsl_obs::hist_observe("session.stripe.rebalance_ns", (net.now() - lost).0);
                self.push_event(net, i, SessionEvent::StripeRebalanced { to: i, blocks });
            }
            self.lanes[i].dispatched += c.blocks();
            lsl_obs::counter_add("stripe.blocks_dispatched", i as u64, c.blocks());
            self.lanes[i].chunk = Some(c);
        }
        self.start_attempt(net, i);
    }

    /// Open a cascade on lane `i`'s route: a v3 chunk request for a
    /// striped lane, the whole stream with a v2 resume request for a
    /// lone one (none when the send mode cannot certify blocks). The
    /// sink grants a resume from its own ledger, so the request
    /// advertises nothing.
    fn start_attempt(&mut self, net: &mut Net, i: usize) {
        self.attempt_seq += 1;
        let lane = &mut self.lanes[i];
        lane.attempt = self.attempt_seq;
        lane.established = false;
        lsl_obs::span_begin(net.now().0, "session.attempt", lane.attempt);
        lsl_obs::span_begin(net.now().0, "session.sublink.establish", lane.attempt);
        let path = &self.plan.candidates()[lane.route].path;
        let label = self.trace_label.as_deref();
        let request = match &lane.chunk {
            Some(c) => Some(Request::Stripe(StripeReq {
                start_block: c.start,
                end_block: c.end,
            })),
            None => (self.mode == SendMode::Lsl).then(|| Request::Resume(Resume::fresh())),
        };
        let sender = BulkSender::start(
            net,
            self.node,
            path,
            self.session,
            self.total,
            self.mode,
            self.tcp.clone(),
            label,
            request,
        )
        .sharing(&self.digests);
        lane.last_progress = sender.progress();
        lane.sender = Some(sender);
        lane.state = LaneState::Running;
        self.arm_timer(net, i, PROGRESS_TIMEOUT);
    }

    /// Drop lane `i`'s attempt (failed, finished or torn down).
    fn discard_sender(&mut self, net: &mut Net, i: usize) {
        let lane = &mut self.lanes[i];
        let Some(s) = lane.sender.take() else {
            return;
        };
        self.high_offset = self.high_offset.max(s.stream_offset());
        net.abort(s.sock());
        if !lane.established {
            // Attempt died while connecting: close the establish span so
            // the trace pairs up.
            lane.established = true;
            lsl_obs::span_end(net.now().0, "session.sublink.establish", lane.attempt);
        }
        lsl_obs::span_end(net.now().0, "session.attempt", lane.attempt);
    }

    /// Lane `i`'s attempt died with `err`: reconnect, fail over, degrade,
    /// or retire the lane.
    fn on_attempt_failed(&mut self, net: &mut Net, i: usize, err: SessionError) {
        self.push_event(net, i, SessionEvent::SublinkDown(err));
        self.discard_sender(net, i);
        if self.lanes[i].reconnects < self.cfg.max_reconnects {
            self.lanes[i].reconnects += 1;
            let attempt = self.lanes[i].reconnects;
            let delay = self.cfg.backoff(attempt);
            self.push_event(net, i, SessionEvent::Reconnecting { attempt, delay });
            self.lanes[i].state = LaneState::Backoff;
            self.arm_timer(net, i, delay);
            return;
        }
        // This route is spent: fail over to the best candidate no live
        // lane holds — forecast score ascending when scores are present,
        // plan order otherwise (the next-in-list ladder for static plans).
        self.dead[self.lanes[i].route] = true;
        let next = self.free_routes().next();
        if let Some(next) = next {
            self.lanes[i].route = next;
            self.lanes[i].reconnects = 0;
            if self.plan.candidates()[next].path.depots.is_empty() {
                self.push_event(net, i, SessionEvent::Degraded);
            } else {
                self.push_event(net, i, SessionEvent::FailedOver { route: next });
            }
            self.start_attempt(net, i);
            return;
        }
        self.kill_lane(net, i);
    }

    /// Candidates the ladder may move a lane to, best first: not spent,
    /// not held by a live lane.
    fn free_routes(&self) -> impl Iterator<Item = usize> + '_ {
        let scores: Vec<Option<u64>> = self.plan.candidates().iter().map(|c| c.score).collect();
        rank_candidates(&scores).into_iter().filter(|&r| {
            !self.dead[r]
                && !self
                    .lanes
                    .iter()
                    .any(|l| l.route == r && l.state != LaneState::Dead)
        })
    }

    /// The best *scored* free alternative to lane `i`'s route, when
    /// lane `i`'s own score is gone or `worse(own, alternative)`.
    /// Unscored (static and striped) plans never have one.
    fn better_route(&self, i: usize, worse: impl Fn(u64, u64) -> bool) -> Option<usize> {
        let (to, alt) = self
            .free_routes()
            .find_map(|r| self.plan.candidates()[r].score.map(|s| (r, s)))?;
        let own = self.plan.candidates()[self.lanes[i].route].score;
        own.is_none_or(|c| worse(c, alt)).then_some(to)
    }

    /// Lane `i` is out of routes. The last live lane's death fails the
    /// session; otherwise its unverified blocks go back on the dispatch
    /// queue of the survivors, which are kicked so the re-striped work
    /// starts moving immediately.
    fn kill_lane(&mut self, net: &mut Net, i: usize) {
        self.lanes[i].state = LaneState::Dead;
        let survivors: Vec<usize> = (0..self.lanes.len())
            .filter(|&j| self.lanes[j].state != LaneState::Dead)
            .collect();
        if survivors.is_empty() {
            self.fail(net, SessionError::RoutesExhausted);
            return;
        }
        let now = net.now();
        let lane = &mut self.lanes[i];
        let orphans: Vec<Chunk> = lane
            .chunk
            .take()
            .into_iter()
            .chain(lane.queue.drain(..))
            .collect();
        let blocks = orphans.iter().map(Chunk::blocks).sum();
        self.push_event(net, i, SessionEvent::StripeLost { cascade: i, blocks });
        // Round-robin the orphans across survivors; stealing evens out
        // any imbalance this leaves.
        for (k, mut c) in orphans.into_iter().enumerate() {
            c.lost_at = Some(now);
            self.lanes[survivors[k % survivors.len()]]
                .queue
                .push_back(c);
        }
        self.pump_idle(net);
    }

    /// Feed fresh forecast scores (index-aligned with
    /// [`SessionClient::plan`]; `None` = the forecaster has no usable
    /// prediction for that candidate), then consider a proactive
    /// re-route of each running lane: when its route's forecast has
    /// degraded to at least `REROUTE_HYSTERESIS`× the best free
    /// alternative's predicted time — or vanished entirely — the lane
    /// abandons the working sublink *before* it fails, resuming on the
    /// new route via the sink's block grant. Static sessions never call
    /// this, so their timelines are untouched.
    ///
    /// A `Some` score also *revives* a candidate the ladder had written
    /// off: a spent route the sensors now see healthy (its outage
    /// repaired) goes back into the failover rotation, where a blind
    /// ladder would have exhausted its list.
    pub fn update_scores(&mut self, net: &mut Net, scores: &[Option<u64>]) {
        for (i, s) in scores.iter().enumerate() {
            self.plan.set_score(i, *s);
            if s.is_some() {
                self.dead[i] = false;
            }
        }
        for i in 0..self.lanes.len() {
            // A finished sender's outcome is pending at the sink: too
            // late to reroute.
            let live = self.lanes[i].state == LaneState::Running
                && self.lanes[i].sender.as_ref().is_some_and(|s| !s.is_done());
            let Some(to) = live
                .then(|| {
                    self.better_route(i, |own, alt| own >= alt.saturating_mul(REROUTE_HYSTERESIS))
                })
                .flatten()
            else {
                continue;
            };
            let from = self.lanes[i].route;
            self.push_event(net, i, SessionEvent::Rerouted { from, to });
            self.discard_sender(net, i);
            self.lanes[i].route = to;
            self.lanes[i].reconnects = 0;
            self.start_attempt(net, i);
        }
    }

    fn fail(&mut self, net: &mut Net, err: SessionError) {
        self.finish(net, ClientState::Failed(err), SessionEvent::Failed(err));
    }

    /// Terminal state: record it, abort every outstanding attempt
    /// (redundant stragglers included) and void all timers.
    fn finish(&mut self, net: &mut Net, state: ClientState, ev: SessionEvent) {
        self.push_event(net, 0, ev);
        self.state = state;
        self.finished_at.get_or_insert(net.now());
        for i in 0..self.lanes.len() {
            self.discard_sender(net, i);
            self.lanes[i].timer_gen += 1;
        }
    }

    /// Feed one event; [`Handled::Consumed`] means it was this client's
    /// (a lane's watchdog/retry timer or a lane's active sublink socket).
    pub fn handle(&mut self, net: &mut Net, ev: &AppEvent) -> Handled {
        if let AppEvent::Timer { node, token } = ev {
            let sid = (self.session.0 as u64) & TOKEN_SESSION_MASK;
            if *node != self.node
                || token & CLIENT_TIMER_TAG == 0
                || (token >> 32) & TOKEN_SESSION_MASK != sid
            {
                return Handled::NotMine;
            }
            let lane = ((token >> 28) & TOKEN_LANE_MASK) as usize;
            if lane < self.lanes.len() {
                self.on_timer(net, lane, token & TOKEN_GEN_MASK);
            }
            return Handled::Consumed;
        }
        let hit = self.lanes.iter_mut().enumerate().find_map(|(i, lane)| {
            let s = lane.sender.as_mut()?;
            let before = s.state();
            s.handle(net, ev).consumed().then(|| (i, before, s.state()))
        });
        let Some((i, before, after)) = hit else {
            return Handled::NotMine;
        };
        match after {
            _ if before == after => {}
            SenderState::AwaitingConfirm | SenderState::Streaming
                if before == SenderState::Connecting =>
            {
                self.push_event(net, i, SessionEvent::Established);
            }
            // An attempt whose granted range fits the send buffer goes
            // straight from the grant to Done: it was confirmed too.
            SenderState::Streaming | SenderState::Done
                if before == SenderState::AwaitingConfirm =>
            {
                self.push_event(net, i, SessionEvent::Confirmed);
                // A non-zero grant means this attempt skips the verified
                // prefix: surface the resume decision.
                let granted = self.lanes[i]
                    .sender
                    .as_ref()
                    .and_then(BulkSender::resume_granted);
                if let Some(offset) = granted.filter(|&g| g > 0) {
                    let from_block = offset / RESUME_BLOCK;
                    self.push_event(net, i, SessionEvent::Resumed { from_block, offset });
                }
            }
            SenderState::Failed(err) => self.on_attempt_failed(net, i, err),
            _ => {}
        }
        Handled::Consumed
    }

    fn on_timer(&mut self, net: &mut Net, i: usize, gen: u64) {
        if gen != self.lanes[i].timer_gen & TOKEN_GEN_MASK || self.is_done() {
            return; // stale generation
        }
        match self.lanes[i].state {
            LaneState::Backoff => {
                // Backoff elapsed. Before reconnecting over the same
                // route, re-score the free candidates: if the forecast
                // now ranks one strictly better than the route that just
                // dropped us, reconnect *there* instead.
                if let Some(to) = self.better_route(i, |own, alt| own > alt) {
                    let from = self.lanes[i].route;
                    self.push_event(net, i, SessionEvent::Rerouted { from, to });
                    self.lanes[i].route = to;
                    self.lanes[i].reconnects = 0;
                }
                self.start_attempt(net, i);
            }
            LaneState::Running => {
                // Watchdog tick: stalled unless some byte moved.
                let Some(progress) = self.lanes[i]
                    .sender
                    .as_ref()
                    .filter(|s| !s.is_done())
                    .map(BulkSender::progress)
                else {
                    return; // outcome pending at the sink; nothing to watch
                };
                if progress == self.lanes[i].last_progress {
                    self.on_attempt_failed(net, i, SessionError::Stalled);
                } else {
                    self.lanes[i].last_progress = progress;
                    self.arm_timer(net, i, PROGRESS_TIMEOUT);
                }
            }
            LaneState::Idle | LaneState::Dead => {}
        }
    }

    /// The harness observed a sink outcome for this session. The session
    /// is delivered when the sink verified the whole stream — a
    /// whole-stream attempt's verdict, or the block ledger certifying
    /// every block for a striped one. Otherwise the outcome belongs to
    /// the lane whose finished attempt carried its range: a certified
    /// chunk frees the lane for its next one, a failed delivery check
    /// burns one of the lane's retransfers and re-requests the range.
    pub fn on_outcome(&mut self, net: &mut Net, outcome: &TransferOutcome) {
        if self.is_done() {
            return;
        }
        debug_assert!(
            outcome.session.is_none() || outcome.session == Some(self.session),
            "outcome routed to the wrong client"
        );
        let delivered = match outcome.stripe {
            None => outcome.ok(),
            Some(_) => outcome.session_verified >= stream_blocks(self.total),
        };
        if delivered {
            self.finish(net, ClientState::Done, SessionEvent::Completed);
            return;
        }
        // Only a completed-but-unverified attempt is ours to act on
        // here. If the sublink instead died mid-stream, the sender's own
        // failure handling (or its watchdog) drives the reconnect — the
        // sink outcome is just the other half of the same event — and
        // outcomes of attempts already aborted match no lane.
        let Some(i) = self.lanes.iter().position(|l| {
            l.sender.as_ref().is_some_and(|s| {
                s.state() == SenderState::Done && s.stripe_granted() == outcome.stripe
            })
        }) else {
            return;
        };
        if outcome.ok() {
            self.discard_sender(net, i);
            let lane = &mut self.lanes[i];
            lane.chunk = None;
            lane.reconnects = 0;
            lane.state = LaneState::Idle;
            self.dispatch(net, i);
        } else if self.lanes[i].retransfers < MAX_RETRANSFERS {
            self.lanes[i].retransfers += 1;
            let attempt = self.lanes[i].retransfers;
            self.push_event(net, i, SessionEvent::Retransfer { attempt });
            self.discard_sender(net, i);
            self.start_attempt(net, i);
        } else {
            self.fail(net, SessionError::RetransfersExhausted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depot::{Depot, DepotConfig};
    use crate::endpoint::SinkServer;
    use crate::route::Hop;
    use crate::stripe::{StripeConfig, StripedSession};
    use lsl_netsim::{FaultPlan, LinkSpec, TopologyBuilder};
    use lsl_tcp::TcpConfig;

    const DEPOT_PORT: u16 = 7000;
    const SINK_PORT: u16 = 5000;

    /// A lossless star: `src — pop — dst`, with three depot spurs off
    /// the POP. Returns the net (with `faults` installed; the closure
    /// gets the depot nodes), the depots, the sink, the source and the
    /// plan of one single-depot cascade per spur.
    fn star(
        faults: impl FnOnce(&[NodeId]) -> FaultPlan,
    ) -> (Net, Vec<Depot>, SinkServer, NodeId, RoutePlan) {
        let mut b = TopologyBuilder::new();
        let (src, pop, dst) = (b.node("src"), b.node("pop"), b.node("dst"));
        let nodes: Vec<NodeId> = ["a", "b", "c"].iter().map(|n| b.node(n)).collect();
        b.duplex(src, pop, LinkSpec::new(100_000_000, Dur::from_millis(1)));
        b.duplex(pop, dst, LinkSpec::new(622_000_000, Dur::from_millis(13)));
        for &d in &nodes {
            b.duplex(pop, d, LinkSpec::new(1_000_000_000, Dur::from_micros(1500)));
        }
        let mut sim = b.build().into_sim(1);
        sim.install_faults(faults(&nodes));
        let mut net = Net::new(sim);
        let tcp = TcpConfig::default();
        let depot_cfg = DepotConfig::builder()
            .port(DEPOT_PORT)
            .tcp(tcp.clone())
            .setup_delay(Dur::from_millis(5))
            .build();
        let depots = nodes
            .iter()
            .map(|&d| Depot::new(&mut net, d, depot_cfg.clone()))
            .collect();
        let sink = SinkServer::new(&mut net, dst, SINK_PORT, true, tcp);
        let plan = nodes
            .iter()
            .fold(RoutePlan::builder(), |b, &d| {
                b.path(LslPath::via(
                    vec![Hop::new(d, DEPOT_PORT)],
                    Hop::new(dst, SINK_PORT),
                ))
            })
            .build()
            .expect("single-depot cascades");
        (net, depots, sink, src, plan)
    }

    /// Run `client` to its end: events go to the client, the sink, then
    /// the depots, and each sink outcome goes back to the client.
    fn drive(
        net: &mut Net,
        depots: &mut [Depot],
        sink: &mut SinkServer,
        client: &mut SessionClient,
    ) {
        while let Some(ev) = net.poll() {
            if !client.handle(net, &ev).consumed() && !sink.handle(net, &ev).consumed() {
                for d in depots.iter_mut() {
                    if d.handle(net, &ev).consumed() {
                        break;
                    }
                }
            }
            for o in sink.take_outcomes() {
                client.on_outcome(net, &o);
            }
            if client.is_done() {
                break;
            }
        }
        assert_eq!(client.state(), ClientState::Done);
    }

    /// Sixteen blocks (1 MiB): two groups of eight.
    const SIXTEEN: u64 = 16 * RESUME_BLOCK;

    /// A striped session over the star's three depot cascades (plus the
    /// direct fallback); `faults` as for [`star`]. Lane death is
    /// immediate (no reconnects), so a lane whose depot crashes moves to
    /// the next free route at once, and dies when none is left.
    fn striped(faults: impl FnOnce(&[NodeId]) -> FaultPlan) -> SessionClient {
        let (mut net, mut depots, mut sink, src, plan) = star(faults);
        let cfg = StripeConfig {
            max_cascades: 3,
            recovery: RecoveryConfig {
                max_reconnects: 0,
                ..RecoveryConfig::default()
            },
        };
        let tcp = TcpConfig::default();
        let session = SessionId(7);
        let mut client: SessionClient =
            StripedSession::start(&mut net, src, plan, session, SIXTEEN, tcp, cfg, None).into();
        drive(&mut net, &mut depots, &mut sink, &mut client);
        assert_eq!(sink.session_certified(session), 16);
        client
    }

    /// The session hashed each of its sixteen blocks exactly once at
    /// the sender, in one `md5_many` call per group of eight.
    fn assert_hashed_once(client: &SessionClient) {
        let table = &client.digests;
        assert_eq!(table.bytes.get(), SIXTEEN, "bytes hashed");
        assert_eq!(table.calls.get(), 16u64.div_ceil(8), "md5_many calls");
    }

    /// A calm three-lane striped session: every lane carries chunks,
    /// the redundant tail doubles up on some, and still each block is
    /// hashed once, eight at a time.
    #[test]
    fn a_striped_session_hashes_each_block_once_across_its_lanes() {
        let client = striped(|_| FaultPlan::new());
        let stats = client.lane_stats();
        assert_eq!(stats.len(), 3);
        assert!(stats.iter().all(|l| l.blocks_dispatched > 0), "{stats:?}");
        assert_hashed_once(&client);
    }

    /// Depots a and b crash for good mid-transfer. The first lane to
    /// notice degrades to the direct path; the second finds every route
    /// spent or held and dies, its chunks are re-striped onto the
    /// survivors, and they send those blocks with digests from the
    /// session's table, hashing nothing again.
    #[test]
    fn a_restriped_chunk_is_not_hashed_again() {
        let client = striped(|d| {
            let at = Time::ZERO + Dur::from_millis(330);
            FaultPlan::new().node_down(at, d[0]).node_down(at, d[1])
        });
        let events: Vec<&SessionEvent> = client.events().iter().map(|(_, e)| e).collect();
        assert!(
            events.iter().any(|e| matches!(e, SessionEvent::Degraded)),
            "{events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, SessionEvent::StripeLost { blocks, .. } if *blocks > 0)),
            "{events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, SessionEvent::StripeRebalanced { .. })),
            "{events:?}"
        );
        assert_hashed_once(&client);
    }

    /// A one-lane session's first attempt is cut by a reset at its
    /// depot; the resumed attempt starts past the verified prefix and
    /// hashes no block its predecessor hashed.
    #[test]
    fn a_resumed_attempt_reads_its_predecessors_digests() {
        let (mut net, mut depots, mut sink, src, plan) =
            star(|d| FaultPlan::new().sublink_rst(Time::ZERO + Dur::from_millis(320), d[0]));
        let mut client = SessionClient::start(
            &mut net,
            src,
            plan,
            SessionId(8),
            SIXTEEN,
            SendMode::Lsl,
            TcpConfig::default(),
            RecoveryConfig::default(),
            None,
        );
        drive(&mut net, &mut depots, &mut sink, &mut client);
        let resumed = client.events().iter().find_map(|(_, e)| match e {
            SessionEvent::Resumed { from_block, .. } => Some(*from_block),
            _ => None,
        });
        assert!(resumed.is_some_and(|b| b > 0), "{:?}", client.events());
        assert_hashed_once(&client);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = RecoveryConfig::default();
        let delays: Vec<Dur> = (1u32..=8).map(|n| cfg.backoff(n)).collect();
        assert_eq!(delays[0], Dur::from_millis(200));
        assert_eq!(delays[1], Dur::from_millis(400));
        assert_eq!(delays[2], Dur::from_millis(800));
        assert_eq!(*delays.last().unwrap(), BACKOFF_CAP);
        assert!(delays.windows(2).all(|w| w[0] <= w[1]));
        // The drill's slower ladder reaches the same cap.
        let slow = RecoveryConfig {
            max_reconnects: 3,
            backoff_base: Dur::from_millis(300),
        };
        assert_eq!(slow.backoff(3), Dur::from_millis(1200));
        assert_eq!(slow.backoff(4), BACKOFF_CAP);
        // The exponent saturates instead of overflowing.
        assert_eq!(cfg.backoff(u32::MAX), BACKOFF_CAP);
    }

    #[test]
    fn timer_tokens_embed_tag_session_lane_and_generation() {
        let (a, b) = (SessionId(0x1111), SessionId(0x2222));
        // Two sessions on one node never consume each other's timers.
        assert_ne!(client_timer_token(a, 0, 1), client_timer_token(b, 0, 1));
        // Two lanes of one session never collide, at any generation.
        for gen in [0, 1, TOKEN_GEN_MASK] {
            let lanes: Vec<u64> = (0..16).map(|l| client_timer_token(a, l, gen)).collect();
            for (i, x) in lanes.iter().enumerate() {
                assert!(lanes[i + 1..].iter().all(|y| y != x), "lane {i} collides");
            }
        }
        assert_ne!(client_timer_token(a, 0, 1), client_timer_token(a, 0, 2));
        // The fields decode back out exactly as `handle` reads them.
        let t = client_timer_token(SessionId(0x3fff_ffff), 15, TOKEN_GEN_MASK);
        assert!(t & CLIENT_TIMER_TAG != 0);
        assert_eq!(t >> 63, 0, "bit 63 is the net layer's");
        assert_eq!((t >> 32) & TOKEN_SESSION_MASK, 0x3fff_ffff);
        assert_eq!((t >> 28) & TOKEN_LANE_MASK, 15);
        assert_eq!(t & TOKEN_GEN_MASK, TOKEN_GEN_MASK);
    }
}
