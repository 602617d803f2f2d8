//! One harness for every fault campaign: a [`Scenario`] in, a
//! [`RunReport`] out.
//!
//! A scenario is a campaign kind (which picks the topology and the
//! session-id base), a client kind, a fault storm and the run's size
//! and bounds. [`Scenario::run`] builds the simulator, depots and sink,
//! drives the client to a terminal state under a sim-time + event-count
//! bound, and checks the campaign contract:
//!
//! 1. the run **terminates** within the bound (no hang, no wedge),
//! 2. the client ends in verified delivery or a typed
//!    [`SessionError`](lsl_session::SessionError) — `Done` without a
//!    digest-verified sink outcome is a violation, and a striped `Done`
//!    also needs the sink's block ledger to certify every block,
//! 3. **no verified block is ever re-sent**: a resumed attempt is
//!    granted at least the verified boundary of attempts that finished
//!    before it was accepted, and the sink's `stripe_regrants` counter
//!    stays zero.
//!
//! The structural checks inside the stack (link byte conservation, TCP
//! sequence-space order, relay-buffer bounds) are `debug_assert!`s: a
//! debug-build run that breaks one panics rather than reporting.
//!
//! The campaigns differ only in the scenarios they feed it:
//!
//! * [`Campaign::Faults`] — the four scripted [`Drill`]s on the two-depot
//!   [`failover_case`];
//! * [`Campaign::Chaos`] — seeded storms of 1–5 fault atoms (link flaps,
//!   depot crashes, client-host RSTs) on the same topology;
//! * [`Campaign::Routing`] — the same storms, each run with the plain
//!   client (plan order, blind next-in-list failover) and again
//!   forecast-routed (the closed NWS loop of [`ForecastPlane`]);
//! * [`Campaign::Striped`] — RAIL-style striped sessions on the
//!   three-depot [`striped_case`], every storm with a targeted permanent
//!   kill of depot `seed % 3` mid-transfer.
//!
//! A run is a pure function of its scenario — the sim seed is the
//! storm's seed — so [`run_scenarios`] output is byte-identical at any
//! job count, and a failing storm shrinks ([`Scenario::shrink`]) to a
//! 1-minimal atom subset that replays the original packet-level timing,
//! rendered as a paste-able `FaultPlan` drill by [`RunReport::drill`].

use std::collections::BTreeSet;
use std::fmt::Write as _;

use lsl_netsim::{
    Dur, FaultPlan, FaultStormGen, LinkId, NodeId, StormAtom, StormPlan, StormSpec, Time, Topology,
};
use lsl_session::endpoint::SendMode;
use lsl_session::{
    stream_blocks, ClientState, Depot, DepotConfig, LaneStat, RecoveryConfig, SessionClient,
    SessionEvent, SessionId, SinkServer, StripeConfig, StripedSession, SublinkForecast,
    TransferOutcome, RESUME_BLOCK,
};
use lsl_tcp::{Net, TcpConfig};

use crate::campaign::run_campaign;
use crate::forecast::{plan_sublinks, ForecastPlane};
use crate::paths::{
    depot_star, failover_case, star_plan, striped_case, FailoverCase, StripedCase, DEPOT_PORT,
    SINK_PORT,
};

/// Warm-up sweeps before a forecast-routed session starts, so the
/// initial route pick is forecast-driven: storms land from 0 on, and
/// the registry needs `SEASONED_SAMPLES` accepted samples per metric
/// before [`ForecastPlane::scores`] trusts a forecast. Probes read
/// simulator state, so pre-session sweeps cost no sim time.
const WARMUP_SWEEPS: usize = 8;

/// Which campaign a scenario belongs to. It picks the topology (the
/// three-depot [`striped_case`] for `Striped`, the two-depot
/// [`failover_case`] otherwise) and the base of the session id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Campaign {
    Faults,
    Chaos,
    Routing,
    Striped,
}

impl Campaign {
    pub const ALL: [Campaign; 4] = [
        Campaign::Faults,
        Campaign::Chaos,
        Campaign::Routing,
        Campaign::Striped,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Campaign::Faults => "faults",
            Campaign::Chaos => "chaos",
            Campaign::Routing => "routing",
            Campaign::Striped => "striped",
        }
    }

    /// Session ids are `base + seed`, so the same storm under two
    /// campaigns is two distinct sessions.
    fn session_base(self) -> u128 {
        match self {
            Campaign::Faults => 0xfa00,
            Campaign::Chaos => 0xc4a0,
            Campaign::Routing => 0xf0c0,
            Campaign::Striped => 0x57a1_0000,
        }
    }

    /// The client kinds every seed runs under, in report order: routing
    /// runs each storm blind and then forecast-routed.
    pub fn arms(self) -> &'static [ClientKind] {
        match self {
            Campaign::Faults | Campaign::Chaos => &[ClientKind::Plain],
            Campaign::Routing => &[ClientKind::Plain, ClientKind::Forecast],
            Campaign::Striped => &[ClientKind::Striped],
        }
    }

    /// Seed `seed`'s storm, drawn from the topology's envelope. Striped
    /// storms always get a permanent kill of depot `seed % 3` appended,
    /// so every seed exercises cascade death while blocks are in flight.
    pub fn storm(self, seed: u64) -> StormPlan {
        if self != Campaign::Striped {
            return FaultStormGen::new(chaos_spec(&failover_case())).generate(seed);
        }
        let case = striped_case();
        let mut storm = FaultStormGen::new(striped_spec(&case)).generate(seed);
        storm.atoms.push(StormAtom::NodeCrash {
            node: case.depots[(seed % 3) as usize],
            // 40–180 ms: after the stripe grants land, before the ~300 ms
            // striped transfer drains — blocks are in flight on every lane.
            at: Dur::from_millis(40 + (seed % 8) * 20),
            downtime: None,
        });
        storm
    }

    /// The campaign's runs for seeds `0..n`: every [`Drill`] at each
    /// seed for `Faults` (drill-major; drills carry their own size and
    /// recovery), each seed under every [`arm`](Self::arms) otherwise.
    pub fn scenarios(self, cfg: &CampaignConfig, n: usize) -> Vec<Scenario> {
        let seeds = 0..n as u64;
        if self == Campaign::Faults {
            return Drill::ALL
                .iter()
                .flat_map(|d| seeds.clone().map(|seed| d.scenario(seed)))
                .collect();
        }
        seeds
            .flat_map(|seed| {
                let arms = self.arms().iter();
                arms.map(move |&client| Scenario::seeded(self, client, cfg, seed))
            })
            .collect()
    }
}

/// The session a scenario drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientKind {
    /// A [`SessionClient`] in plan order: next-in-list failover, no
    /// sensors.
    Plain,
    /// A [`SessionClient`] steered by a [`ForecastPlane`]: scored start,
    /// re-scored recovery, proactive re-route.
    Forecast,
    /// A [`StripedSession`] over up to `stripe.max_cascades` cascades.
    Striped,
}

/// Size, bounds and client policy shared by every seed of a campaign.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Transfer size per run, bytes.
    pub size: u64,
    /// Sim-time bound: a client still non-terminal past this is a hang.
    pub time_bound: Dur,
    /// Event-count bound: a livelock backstop for runs that churn
    /// without advancing meaningfully in sim time.
    pub max_events: u64,
    /// Forecast probe-sweep period. The reaction time to a dying route
    /// is one period plus one score pass, so this bounds how proactive
    /// the proactive re-route can be.
    pub probe_period: Dur,
    /// Striping policy (cascade count, chunk quantum, redundancy
    /// budget). Its `recovery` is the recovery ladder of every client
    /// kind — per lane when striped.
    pub stripe: StripeConfig,
}

/// The routing campaign's configuration.
pub type RoutingConfig = CampaignConfig;
/// The striped campaign's configuration.
pub type StripedChaosConfig = CampaignConfig;

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            size: 1 << 20,
            // Worst honest case is a few seconds of backoff ladders and
            // SYN retries across three routes; 60 s of sim time only
            // trips on genuine hangs.
            time_bound: Dur::from_secs(60),
            max_events: 5_000_000,
            probe_period: Dur::from_millis(100),
            stripe: StripeConfig {
                max_cascades: 3,
                // 2-block (128 KiB) chunks: a 1 MiB stream holds 16
                // blocks, so every lane sees several dispatch rounds and
                // work stealing has something to steal.
                chunk_blocks: 2,
                redundant_tail: 2,
                recovery: drill_recovery(),
            },
        }
    }
}

/// The fault-drill recovery posture: impatient ladders, so a dead depot
/// costs sim-seconds, not minutes, and a snappy watchdog so idle-dead
/// sublinks are declared stalled fast.
fn drill_recovery() -> RecoveryConfig {
    RecoveryConfig {
        max_reconnects: 1,
        backoff_base: Dur::from_millis(200),
        backoff_cap: Dur::from_secs(2),
        progress_timeout: Some(Dur::from_millis(500)),
        max_retransfers: 2,
        direct_fallback: true,
    }
}

/// One faulted transfer's posture: the transfer, its fault schedule,
/// and the impatient TCP and sink watchdog every campaign runs with.
#[derive(Clone, Debug)]
pub struct FaultRunConfig {
    pub size: u64,
    pub seed: u64,
    pub plan: FaultPlan,
    pub recovery: RecoveryConfig,
    pub tcp: TcpConfig,
    /// Sink-side idle watchdog period. A crashed depot dies *silently*
    /// (no RST), so once the sender has handed the whole stream to its
    /// sublink only the sink can still notice the stall and emit the
    /// typed outcome that drives recovery.
    pub sink_idle: Option<Dur>,
}

impl FaultRunConfig {
    /// Defaults tuned for fault drills: an impatient TCP (a dead depot
    /// should cost seconds, not Linux's minutes of SYN retries) and the
    /// drill recovery posture.
    pub fn new(size: u64, seed: u64, plan: FaultPlan) -> FaultRunConfig {
        FaultRunConfig {
            size,
            seed,
            plan,
            recovery: drill_recovery(),
            tcp: TcpConfig {
                time_wait: Dur::from_millis(1),
                max_syn_retries: 2,
                max_data_retries: 3,
                // Small enough that multi-MB transfers are still
                // mid-stream when a scheduled fault fires (a huge buffer
                // absorbs the whole stream at connect time and the
                // sender never *sees* the sublink die).
                send_buf: 256 * 1024,
                ..TcpConfig::default()
            },
            // Generous against loss-recovery silences (RTO back-off gaps
            // stay well under a second here) but far below any hang
            // bound.
            sink_idle: Some(Dur::from_secs(2)),
        }
    }
}

/// The storm envelope for the failover topology: every link is a flap
/// target, both depots are crash targets (sometimes permanently), and
/// the client host is the RST target.
pub fn chaos_spec(case: &FailoverCase) -> StormSpec {
    storm_spec(&case.topo, vec![case.depot_a, case.depot_b], case.src)
}

/// The storm envelope for the striping topology: every link is a flap
/// target, all three depots are crash targets, the client host is the
/// RST target.
pub fn striped_spec(case: &StripedCase) -> StormSpec {
    storm_spec(&case.topo, case.depots.to_vec(), case.src)
}

/// Faults land inside the first 1.5 s — mid-stream for the default
/// transfer size.
fn storm_spec(topo: &Topology, crash: Vec<NodeId>, rst: NodeId) -> StormSpec {
    let links = topo.into_sim(0).num_links();
    StormSpec::new(Dur::from_millis(1500))
        .with_links((0..links).map(|i| LinkId(i as u32)).collect())
        .with_crash_nodes(crash)
        .with_rst_nodes(vec![rst])
        .with_atoms(1, 5)
        .with_max_outage(Dur::from_millis(800))
}

/// The four scripted fault drills on the failover topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Drill {
    /// The primary depot crashes mid-stream and stays down. Expected:
    /// failover to the backup depot route, digest-verified completion.
    DepotCrash,
    /// The shared access link flaps for 2.5 s — longer than the
    /// impatient TCP's retry budget, so the in-flight sublink aborts
    /// mid-outage and every route is down until the link returns.
    /// Expected: completion after backoff-paced reconnects.
    AccessFlap,
    /// Both depots crash before the stream gets going. Expected:
    /// degradation to the direct path, completion without any depot.
    AllDepotsDown,
    /// The client host's established connections are reset mid-stream
    /// (the paper's "sublink RST"). The RST cascades through the depot
    /// to the sink — a *typed* failed attempt — while the depots stay
    /// healthy. Expected: completion on route 0 after a reconnect.
    SublinkRst,
}

impl Drill {
    pub const ALL: [Drill; 4] = [
        Drill::DepotCrash,
        Drill::AccessFlap,
        Drill::AllDepotsDown,
        Drill::SublinkRst,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Drill::DepotCrash => "depot-crash",
            Drill::AccessFlap => "access-flap",
            Drill::AllDepotsDown => "all-depots-down",
            Drill::SublinkRst => "sublink-rst",
        }
    }

    /// The drill at `seed`, as a plain-client scenario.
    pub fn scenario(self, seed: u64) -> Scenario {
        let case = failover_case();
        let ms = Dur::from_millis;
        let crash = |node, at| StormAtom::NodeCrash {
            node,
            at: ms(at),
            downtime: None,
        };
        let mut cfg = CampaignConfig {
            size: 2 << 20,
            ..CampaignConfig::default()
        };
        let atoms = match self {
            Drill::DepotCrash => vec![crash(case.depot_a, 150)],
            Drill::AccessFlap => {
                // Reconnect persistence is the only way through.
                cfg.stripe.recovery.max_reconnects = 3;
                cfg.stripe.recovery.backoff_base = ms(300);
                let flap = |link| StormAtom::LinkFlap {
                    link,
                    at: ms(100),
                    outage: Some(ms(2500)),
                };
                vec![flap(case.access_links.0), flap(case.access_links.1)]
            }
            Drill::AllDepotsDown => {
                cfg.size = 1 << 20;
                vec![crash(case.depot_a, 20), crash(case.depot_b, 20)]
            }
            Drill::SublinkRst => vec![StormAtom::SublinkRst {
                node: case.src,
                at: ms(120),
            }],
        };
        Scenario {
            campaign: Campaign::Faults,
            client: ClientKind::Plain,
            storm: StormPlan { seed, atoms },
            cfg,
        }
    }

    /// The recovery shape the drill demands, beyond the contract.
    pub fn expect(self, r: &RunReport) -> Result<(), &'static str> {
        if !r.completed() {
            return Err("did not complete");
        }
        match self {
            Drill::DepotCrash if !r.saw(|e| matches!(e, SessionEvent::FailedOver { .. })) => {
                Err("never failed over to the backup depot")
            }
            Drill::DepotCrash if r.delivery().and_then(|d| d.digest_ok) != Some(true) => {
                Err("digest not verified after failover")
            }
            Drill::AccessFlap if !r.saw(|e| matches!(e, SessionEvent::Reconnecting { .. })) => {
                Err("rode out the flap without reconnecting (outage too short?)")
            }
            Drill::AllDepotsDown if !r.saw(|e| matches!(e, SessionEvent::Degraded)) => {
                Err("never degraded to the direct path")
            }
            Drill::SublinkRst
                if r.saw(|e| {
                    matches!(e, SessionEvent::FailedOver { .. } | SessionEvent::Degraded)
                }) =>
            {
                Err("an RST should be survivable on the primary route")
            }
            _ => Ok(()),
        }
    }
}

/// One run to drive: campaign, client, storm, size and bounds.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub campaign: Campaign,
    pub client: ClientKind,
    /// The fault schedule. Its seed is also the sim seed, so a subset of
    /// its atoms replays the original packet-level timing.
    pub storm: StormPlan,
    pub cfg: CampaignConfig,
}

/// One forecast tick: sweep the probes, re-arm, and hand the client
/// fresh scores for its own plan — including the direct fallback the
/// recovery layer appended. The client decides whether they justify
/// leaving a working route.
fn forecast_tick(plane: &mut ForecastPlane, net: &mut Net, client: &mut SessionClient, size: u64) {
    plane.observe_live(net, client);
    plane.sweep(net);
    plane.arm(net);
    let scores = plane.scores(client.plan(), size);
    for (i, s) in scores.iter().enumerate() {
        lsl_obs::gauge_set("nws.score_ns", i as u64, s.unwrap_or(u64::MAX));
    }
    client.update_scores(net, &scores);
}

impl Scenario {
    /// Seed `seed` of `campaign` under `client`.
    pub fn seeded(
        campaign: Campaign,
        client: ClientKind,
        cfg: &CampaignConfig,
        seed: u64,
    ) -> Scenario {
        Scenario {
            campaign,
            client,
            storm: campaign.storm(seed),
            cfg: cfg.clone(),
        }
    }

    /// Drive the scenario and check the contract. The whole run records
    /// under a clean thread-local obs recorder, so a prior run on the
    /// same worker thread cannot leak into it.
    pub fn run(&self) -> RunReport {
        let (mut report, obs) = lsl_obs::recorded(|| self.drive());
        report.obs = obs;
        report
    }

    fn drive(&self) -> RunReport {
        let seed = self.storm.seed;
        let size = self.cfg.size;
        let posture = FaultRunConfig::new(size, seed, self.storm.to_fault_plan());
        let spurs = if self.campaign == Campaign::Striped {
            3
        } else {
            2
        };
        let (topo, src, dst, depot_nodes, _) = depot_star(spurs);
        let mut plan = star_plan(dst, &depot_nodes);

        let mut sim = topo.into_sim(seed);
        sim.install_faults(posture.plan);
        let mut net = Net::new(sim);
        let depot_cfg = DepotConfig::builder()
            .port(DEPOT_PORT)
            .tcp(posture.tcp.clone())
            .setup_delay(Dur::from_millis(5))
            .build();
        let mut depots: Vec<Depot> = depot_nodes
            .iter()
            .map(|&d| Depot::new(&mut net, d, depot_cfg.clone()))
            .collect();
        let mut sink = SinkServer::new(&mut net, dst, SINK_PORT, true, posture.tcp.clone());
        if let Some(d) = posture.sink_idle {
            sink = sink.with_idle_timeout(d);
        }

        let session = SessionId(self.campaign.session_base() + u128::from(seed));
        let mut plane = (self.client == ClientKind::Forecast).then(|| {
            let mut plane =
                ForecastPlane::new(src, plan_sublinks(src, &plan), self.cfg.probe_period);
            for _ in 0..WARMUP_SWEEPS {
                plane.sweep(&net);
            }
            // Forecast-best *start*: score the declared candidates so
            // SessionClient::start ranks them instead of trusting plan
            // order.
            for (i, s) in plane.scores(&plan, size).iter().enumerate() {
                plan.set_score(i, *s);
            }
            plane
        });
        let mut client: SessionClient = if self.client == ClientKind::Striped {
            let stripe = self.cfg.stripe.clone();
            StripedSession::start(
                &mut net,
                src,
                plan,
                session,
                size,
                posture.tcp,
                stripe,
                None,
            )
            .into()
        } else {
            let recovery = self.cfg.stripe.recovery.clone();
            SessionClient::start(
                &mut net,
                src,
                plan,
                session,
                size,
                SendMode::Lsl,
                posture.tcp,
                recovery,
                None,
            )
        };
        if let Some(p) = &plane {
            p.arm(&mut net);
        }

        // Events go to client, sink, then depots; after every event,
        // freshly minted sink outcomes are fed straight back to the
        // client, so recovery reacts at the outcome's own timestamp. A
        // terminal client decides the contract: draining residual fault
        // repairs would only pad the event count.
        let deadline = Time::ZERO + self.cfg.time_bound;
        let mut outcomes: Vec<TransferOutcome> = Vec::new();
        let mut events: u64 = 0;
        let mut hung = false;
        while let Some(ev) = net.poll() {
            events += 1;
            if net.now() > deadline || events > self.cfg.max_events {
                hung = true;
                break;
            }
            let consumed = match plane.as_mut() {
                Some(p) if p.is_tick(&ev) => {
                    forecast_tick(p, &mut net, &mut client, size);
                    true
                }
                _ => client.handle(&mut net, &ev).consumed(),
            };
            if !consumed && !sink.handle(&mut net, &ev).consumed() {
                for d in &mut depots {
                    if d.handle(&mut net, &ev).consumed() {
                        break;
                    }
                }
            }
            for o in sink.take_outcomes() {
                if o.session == Some(session) {
                    client.on_outcome(&mut net, &o);
                }
                outcomes.push(o);
            }
            if client.is_done() {
                break;
            }
        }

        let mut report = RunReport {
            scenario: self.clone(),
            state: client.state(),
            route_used: client.route_index(),
            cascades: client.cascades(),
            lanes: client.lane_stats(),
            timeline: client.take_events(),
            outcomes,
            certified: sink.session_certified(session),
            expected_blocks: stream_blocks(size),
            duplicates: sink.duplicate_blocks(session),
            regrants: sink.stripe_regrants(),
            duration_s: 0.0,
            events,
            violations: Vec::new(),
            probes: 0,
            forecasts: Vec::new(),
            obs: lsl_obs::ObsReport::default(),
        };
        if let Some(p) = &plane {
            report.probes = p.probes;
            report.forecasts = p.dump();
        }
        let (started, finished) = (client.started_at, client.finished_at);
        report.duration_s = (finished.unwrap_or_else(|| net.now()) - started).as_secs_f64();
        report.violations = report.check(hung, net.now());
        // End-of-run link telemetry (queue HWMs, drop tallies) before
        // the recorder is drained.
        net.sim().record_obs_link_metrics();
        report
    }

    /// Shrink a failing scenario: re-run atom subsets of its storm under
    /// the same seed and return the 1-minimal storm that still `fails`.
    pub fn shrink(&self, fails: impl Fn(&RunReport) -> bool) -> StormPlan {
        let atoms = shrink_storm(&self.storm.atoms, |atoms| {
            let mut s = self.clone();
            s.storm.atoms = atoms.to_vec();
            fails(&s.run())
        });
        StormPlan {
            seed: self.storm.seed,
            atoms,
        }
    }
}

/// Run `scenarios` across `jobs` workers through [`run_campaign`]:
/// reports come back in input order, byte-identical for any `jobs`.
pub fn run_scenarios(scenarios: &[Scenario], jobs: usize) -> Vec<RunReport> {
    run_campaign(scenarios.len(), jobs, |i| scenarios[i].run())
}

/// Greedy delta-debugging: shrink a failing storm to a 1-minimal atom
/// subset — one from which no single atom can be removed while `fails`
/// still holds. `fails` must hold for `atoms` itself; atoms are whole
/// failure+repair pairs, so every subset is a valid schedule.
pub fn shrink_storm(atoms: &[StormAtom], fails: impl Fn(&[StormAtom]) -> bool) -> Vec<StormAtom> {
    let mut cur: Vec<StormAtom> = atoms.to_vec();
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < cur.len() {
            let mut cand = cur.clone();
            cand.remove(i);
            if fails(&cand) {
                cur = cand;
                reduced = true;
            } else {
                i += 1;
            }
        }
        if !reduced {
            break;
        }
    }
    cur
}

/// One contract breach. `Debug` output is stable — it feeds the
/// fingerprint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The sim-time or event-count bound tripped before the client
    /// reached a terminal state.
    Hang { at: Time, events: u64 },
    /// The network quiesced with the client still non-terminal: the
    /// recovery layer lost track of its own session.
    Wedged { state: ClientState },
    /// The client claims `Done` but no sink outcome is a digest-verified
    /// complete delivery.
    NoVerifiedDelivery,
    /// A resumed attempt was granted an offset below a verified boundary
    /// established before it was accepted — a verified block would be
    /// re-sent on the wire.
    ResumeRegression {
        /// Index into [`RunReport::outcomes`] of the offending attempt.
        outcome: usize,
        resume_offset: u64,
        floor_blocks: u64,
    },
    /// The sink granted a stripe range containing already-verified
    /// blocks — a verified block was re-sent on the wire.
    StripeRegrant { regrants: u64 },
    /// A striped session claims `Done` but the sink's block ledger
    /// certified fewer blocks than the stream holds.
    PartialCertification { certified: u64, expected: u64 },
}

/// What one scenario run produced: the session's terminal state and
/// recovery timeline, every sink outcome (failed attempts included), the
/// sink's ledger verdicts, what the forecast plane saw, the telemetry,
/// and every contract breach (empty = the run passed).
#[derive(Debug)]
pub struct RunReport {
    pub scenario: Scenario,
    pub state: ClientState,
    /// Candidate index lane 0 ended on (the direct fallback is the last
    /// index) — the route of an unstriped session.
    pub route_used: usize,
    /// Cascades the session striped over (1 when unstriped or degraded).
    pub cascades: usize,
    /// Per-lane dispatch statistics (empty unless striped).
    pub lanes: Vec<LaneStat>,
    pub timeline: Vec<(Time, SessionEvent)>,
    pub outcomes: Vec<TransferOutcome>,
    /// Blocks the sink certified for this session.
    pub certified: u64,
    /// Blocks the stream holds.
    pub expected_blocks: u64,
    /// Duplicate deliveries the sink's ledger discarded (redundant
    /// dispatch and races lose here, harmlessly).
    pub duplicates: u64,
    /// Stripe grants that still contained a verified block — the
    /// zero-verified-resend counter.
    pub regrants: u64,
    /// Session start to terminal state (or to the bound, on a hang),
    /// seconds of sim time.
    pub duration_s: f64,
    /// Events dispatched before the run ended.
    pub events: u64,
    pub violations: Vec<Violation>,
    /// Accepted forecast probe observations (0 unless forecast-routed).
    pub probes: u64,
    /// Quantized final forecast per probed sublink (empty unless
    /// forecast-routed).
    pub forecasts: Vec<((u32, u32), Option<SublinkForecast>)>,
    /// Deterministic telemetry captured while the scenario ran; the
    /// fingerprint folds in its digest, and a failing run's report feeds
    /// the flight recorder and perfetto exporters.
    pub obs: lsl_obs::ObsReport,
}

impl RunReport {
    pub fn seed(&self) -> u64 {
        self.scenario.storm.seed
    }

    /// Did the run satisfy the whole contract?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn completed(&self) -> bool {
        self.state == ClientState::Done
    }

    /// The distinct fault kinds the storm lowered to.
    pub fn kinds(&self) -> BTreeSet<&'static str> {
        self.scenario.storm.kinds()
    }

    /// A paste-able [`FaultPlan`] builder chain reproducing the storm.
    pub fn drill(&self) -> String {
        self.scenario.storm.drill()
    }

    /// Did any timeline entry match?
    pub fn saw(&self, pred: impl Fn(&SessionEvent) -> bool) -> bool {
        self.timeline.iter().any(|(_, e)| pred(e))
    }

    /// The verified delivery, if the run completed.
    pub fn delivery(&self) -> Option<&TransferOutcome> {
        self.outcomes.iter().find(|o| o.ok())
    }

    /// Proactive re-routes the client performed.
    pub fn reroutes(&self) -> usize {
        self.timeline
            .iter()
            .filter(|(_, e)| matches!(e, SessionEvent::Rerouted { .. }))
            .count()
    }

    /// Canonical rendering — storm, timeline, outcomes, lanes,
    /// forecasts, ledger and verdicts — for byte-identical determinism
    /// comparisons across job counts. Every field is an integer or the
    /// `Debug` of a typed value; forecasts are quantized first.
    pub fn fingerprint(&self) -> String {
        let sc = &self.scenario;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} {:?} seed {} atoms {}",
            sc.campaign.name(),
            sc.client,
            sc.storm.seed,
            sc.storm.atoms.len()
        );
        for a in &sc.storm.atoms {
            let _ = writeln!(s, "  atom {a:?}");
        }
        for (t, ev) in &self.timeline {
            let _ = writeln!(s, "{t:?} {ev:?}");
        }
        for o in &self.outcomes {
            let _ = writeln!(
                s,
                "outcome {:?} {:?} bytes={} digest={:?} verified={} resume_at={} \
                 stripe={:?} certified={} session={} at={:?}",
                o.session,
                o.status,
                o.bytes,
                o.digest_ok,
                o.verified_blocks,
                o.resume_offset,
                o.stripe,
                o.blocks_certified,
                o.session_verified,
                o.completed_at
            );
        }
        for (i, l) in self.lanes.iter().enumerate() {
            let _ = writeln!(
                s,
                "lane {i} route {} dispatched {} stolen {} redundant {} dead {}",
                l.route, l.blocks_dispatched, l.blocks_stolen, l.redundant_attempts, l.dead
            );
        }
        for ((src, dst), f) in &self.forecasts {
            let _ = writeln!(s, "forecast {src}->{dst} {f:?}");
        }
        let _ = writeln!(
            s,
            "ledger {}/{} dup {} regrants {}",
            self.certified, self.expected_blocks, self.duplicates, self.regrants
        );
        let _ = writeln!(
            s,
            "state {:?} route {} cascades {} events {} probes {} violations {:?}",
            self.state, self.route_used, self.cascades, self.events, self.probes, self.violations
        );
        let _ = writeln!(
            s,
            "obs spans {} digest {:016x}",
            self.obs.spans.len(),
            self.obs.digest()
        );
        s
    }

    /// The machine-checked contract, given whether a bound tripped and
    /// the time the run ended.
    fn check(&self, hung: bool, now: Time) -> Vec<Violation> {
        let mut v = Vec::new();
        // A re-sent verified block is a breach wherever the run ended.
        if self.regrants > 0 {
            v.push(Violation::StripeRegrant {
                regrants: self.regrants,
            });
        }
        if hung {
            v.push(Violation::Hang {
                at: now,
                events: self.events,
            });
            return v;
        }
        if !matches!(self.state, ClientState::Done | ClientState::Failed(_)) {
            v.push(Violation::Wedged { state: self.state });
            return v;
        }
        if self.completed()
            && !self
                .outcomes
                .iter()
                .any(|o| o.ok() && o.digest_ok == Some(true))
        {
            v.push(Violation::NoVerifiedDelivery);
        }
        if self.scenario.client == ClientKind::Striped {
            // The per-attempt resume floor below does not transfer to
            // stripes: an empty grant over an already-verified chunk
            // legitimately lands below another lane's verified
            // high-water mark without re-sending anything. The regrant
            // counter above is the structural check instead.
            if self.completed() && self.certified < self.expected_blocks {
                v.push(Violation::PartialCertification {
                    certified: self.certified,
                    expected: self.expected_blocks,
                });
            }
            return v;
        }
        // An attempt accepted after some prior attempt ended with `n`
        // verified blocks must be granted at least `n * RESUME_BLOCK`.
        // Pre-header failures (session None) never negotiated resume
        // and are exempt.
        for (i, o) in self.outcomes.iter().enumerate() {
            if o.session.is_none() {
                continue;
            }
            let floor_blocks = self
                .outcomes
                .iter()
                .filter(|p| p.session.is_some() && p.completed_at <= o.accepted_at)
                .map(|p| p.verified_blocks)
                .max()
                .unwrap_or(0);
            if o.resume_offset < floor_blocks * RESUME_BLOCK {
                v.push(Violation::ResumeRegression {
                    outcome: i,
                    resume_offset: o.resume_offset,
                    floor_blocks,
                });
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calm(campaign: Campaign, client: ClientKind, seed: u64, cfg: CampaignConfig) -> Scenario {
        Scenario {
            campaign,
            client,
            storm: StormPlan {
                seed,
                atoms: Vec::new(),
            },
            cfg,
        }
    }

    fn quick_cfg() -> CampaignConfig {
        CampaignConfig {
            size: 256 * 1024,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn calm_storm_completes_on_primary_route() {
        let r = calm(Campaign::Chaos, ClientKind::Plain, 7, quick_cfg()).run();
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert!(r.completed(), "state {:?}", r.state);
        assert_eq!(r.route_used, 0, "no fault should mean no failover");
        assert!(!r.saw(|e| matches!(e, SessionEvent::SublinkDown(_))));
        let d = r.delivery().expect("verified delivery");
        assert_eq!(d.bytes, 256 * 1024);
        assert_eq!(d.digest_ok, Some(true));
    }

    #[test]
    fn chaos_spec_covers_every_target_class() {
        let case = failover_case();
        let spec = chaos_spec(&case);
        assert_eq!(spec.links.len(), 8, "failover topology has 8 simplex links");
        assert_eq!(spec.crash_nodes, vec![case.depot_a, case.depot_b]);
        assert_eq!(spec.rst_nodes, vec![case.src]);
    }

    #[test]
    fn hang_bound_reports_violation_not_panic() {
        // An impossible event budget: the run trips the bound during
        // connection setup, long before the client is terminal.
        let cfg = CampaignConfig {
            max_events: 3,
            ..quick_cfg()
        };
        let r = calm(Campaign::Chaos, ClientKind::Plain, 1, cfg).run();
        assert!(matches!(r.violations.as_slice(), [Violation::Hang { .. }]));
    }

    #[test]
    fn shrinker_finds_minimal_failing_subset() {
        // Synthetic predicate: fails iff the subset still contains both
        // a crash of depot-a AND the RST atom — the flap is noise the
        // shrinker must discard.
        let case = failover_case();
        let atoms = vec![
            StormAtom::LinkFlap {
                link: case.access_links.0,
                at: Dur::from_millis(10),
                outage: Some(Dur::from_millis(50)),
            },
            StormAtom::NodeCrash {
                node: case.depot_a,
                at: Dur::from_millis(20),
                downtime: None,
            },
            StormAtom::SublinkRst {
                node: case.src,
                at: Dur::from_millis(30),
            },
        ];
        let fails = |s: &[StormAtom]| {
            s.iter()
                .any(|a| matches!(a, StormAtom::NodeCrash { node, .. } if *node == case.depot_a))
                && s.iter().any(|a| matches!(a, StormAtom::SublinkRst { .. }))
        };
        assert!(fails(&atoms));
        let minimal = shrink_storm(&atoms, fails);
        assert_eq!(minimal.len(), 2);
        assert!(fails(&minimal));
        // 1-minimality: removing either survivor breaks the predicate.
        for i in 0..minimal.len() {
            let mut cand = minimal.clone();
            cand.remove(i);
            assert!(!fails(&cand));
        }
    }

    /// A calm seed scores every sublink and completes. So does a storm
    /// whose session id has bit 28 set: the client's timer tokens then
    /// carry bit 60, the forecast plane's tag, and a plane that took
    /// them for its own ticks would starve the client into a hang.
    #[test]
    fn forecast_runs_score_and_complete() {
        // The clash itself: such a client's token carries bit 60, and
        // the plane must still refuse it as a tick, on every lane.
        let case = failover_case();
        let plane = ForecastPlane::new(case.src, Vec::new(), Dur::from_millis(100));
        let sid = SessionId(Campaign::Routing.session_base() + (1 << 28) + 1);
        for lane in [0, 15] {
            let token = lsl_session::client_timer_token(sid, lane, 1);
            assert_ne!(token & crate::forecast::FORECAST_TIMER_TAG, 0);
            let ev = lsl_tcp::AppEvent::Timer {
                node: case.src,
                token,
            };
            assert!(
                !plane.is_tick(&ev),
                "client token {token:#x} taken for a tick"
            );
        }
        let stormy = Scenario::seeded(
            Campaign::Routing,
            ClientKind::Forecast,
            &quick_cfg(),
            (1 << 28) + 1,
        );
        let calm = calm(Campaign::Routing, ClientKind::Forecast, 11, quick_cfg());
        for s in [calm, stormy] {
            let r = s.run();
            assert!(
                r.ok(),
                "violations: {:?}\n{}",
                r.violations,
                r.fingerprint()
            );
            assert!(r.probes > 0, "the probe plane never ran");
            if r.scenario.storm.atoms.is_empty() {
                assert!(r.completed(), "state {:?}", r.state);
                assert!(
                    r.forecasts.iter().all(|(_, f)| f.is_some()),
                    "calm run: every sublink ends with a usable quantized forecast: {:?}",
                    r.forecasts
                );
                assert_eq!(r.reroutes(), 0, "no storm, no reason to leave the route");
            }
        }
    }

    #[test]
    fn plain_routing_arm_matches_chaos_behavior() {
        // The routing campaign's plain arm *is* the chaos client —
        // byte-equal timelines — so the forecast-vs-static comparison is
        // against the established baseline, not a strawman.
        let r = Scenario::seeded(Campaign::Routing, ClientKind::Plain, &quick_cfg(), 3).run();
        let c = Scenario::seeded(Campaign::Chaos, ClientKind::Plain, &quick_cfg(), 3).run();
        assert_eq!(r.state, c.state);
        assert_eq!(r.route_used, c.route_used);
        assert_eq!(r.timeline, c.timeline);
        assert_eq!(r.probes, 0);
    }

    fn forecast_drill(seed: u64, size: u64, atoms: Vec<StormAtom>) -> RunReport {
        let cfg = CampaignConfig {
            size,
            ..CampaignConfig::default()
        };
        let mut s = calm(Campaign::Routing, ClientKind::Forecast, seed, cfg);
        s.storm.atoms = atoms;
        let r = s.run();
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert!(r.completed(), "state {:?}", r.state);
        r
    }

    fn first_at(r: &RunReport, pred: impl Fn(&SessionEvent) -> bool) -> Option<Time> {
        r.timeline.iter().find(|(_, e)| pred(e)).map(|(t, _)| *t)
    }

    /// The primary depot dies mid-stream, and the probe plane notices
    /// *before* the sublink's TCP gives up — the client re-routes
    /// proactively and no verified block is ever re-sent (part of ok()).
    #[test]
    fn depot_death_triggers_proactive_reroute() {
        let case = failover_case();
        let crash = StormAtom::NodeCrash {
            node: case.depot_a,
            at: Dur::from_millis(400),
            downtime: None,
        };
        let r = forecast_drill(21, 2 << 20, vec![crash]);
        let rerouted_at = first_at(&r, |e| matches!(e, SessionEvent::Rerouted { .. }))
            .expect("proactive reroute fired");
        // Proactive means *before* the dying sublink's failure event.
        if let Some(down_at) = first_at(&r, |e| matches!(e, SessionEvent::SublinkDown(_))) {
            assert!(
                rerouted_at < down_at,
                "reroute at {rerouted_at:?} should precede sublink death at {down_at:?}"
            );
        }
    }

    /// The resume-grant × reroute interplay drill: an RST kills the
    /// first attempt with blocks already verified, so the client enters
    /// resume recovery — a grant is in flight. Mid-recovery the primary
    /// depot dies and the probe plane pulls the client off the route
    /// *before* the reconnect lands, so the grant the session
    /// eventually negotiates belongs to a different cascade than the
    /// one recovery started on. That grant must still skip every block
    /// the dead attempt verified.
    #[test]
    fn reroute_with_resume_grant_in_flight_never_resends_verified() {
        let case = failover_case();
        let atoms = vec![
            StormAtom::SublinkRst {
                node: case.src,
                at: Dur::from_millis(400),
            },
            StormAtom::NodeCrash {
                node: case.depot_a,
                at: Dur::from_millis(600),
                downtime: None,
            },
        ];
        let r = forecast_drill(33, 4 << 20, atoms);
        // The RST-felled attempt left verified blocks behind — the
        // boundary the in-flight resume must respect.
        assert!(
            r.outcomes.iter().any(|o| !o.ok() && o.verified_blocks > 0),
            "the RST never bit a mid-stream attempt:\n{}",
            r.fingerprint()
        );
        let rerouted_at = first_at(&r, |e| matches!(e, SessionEvent::Rerouted { .. }))
            .expect("reroute fired during resume recovery");
        // The attempt the reroute redirected still resumed past the dead
        // attempt's verified boundary — nothing verified was re-sent.
        assert!(
            r.timeline.iter().any(|(t, e)| *t >= rerouted_at
                && matches!(e, SessionEvent::Resumed { from_block, .. } if *from_block > 0)),
            "the re-routed attempt did not resume mid-stream:\n{}",
            r.fingerprint()
        );
    }

    #[test]
    fn calm_striped_seed_certifies_every_block_across_three_cascades() {
        let r = calm(
            Campaign::Striped,
            ClientKind::Striped,
            7,
            CampaignConfig::default(),
        )
        .run();
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert!(r.completed(), "state {:?}", r.state);
        assert_eq!(r.cascades, 3);
        assert_eq!(r.certified, r.expected_blocks);
        assert_eq!(r.regrants, 0);
        assert!(
            r.lanes.iter().all(|l| l.blocks_dispatched > 0),
            "every lane moved real blocks: {:?}",
            r.lanes
        );
        // The dispatcher's telemetry landed in the captured obs report:
        // one blocks-dispatched counter per cascade, matching the lane
        // stats exactly.
        for (i, l) in r.lanes.iter().enumerate() {
            assert_eq!(
                r.obs
                    .metrics
                    .counters
                    .get(&("stripe.blocks_dispatched", i as u64))
                    .copied(),
                Some(l.blocks_dispatched),
                "lane {i} counter out of step with its stats"
            );
        }
    }

    #[test]
    fn killing_two_depots_restripes_onto_survivors_without_verified_resends() {
        // Two permanent depot kills: one lane fails over to the direct
        // fallback, the other exhausts its routes and dies — its
        // unverified blocks must be re-striped onto the survivors.
        let case = striped_case();
        let mut s = calm(
            Campaign::Striped,
            ClientKind::Striped,
            3,
            CampaignConfig::default(),
        );
        s.storm.atoms = (0..2)
            .map(|i| StormAtom::NodeCrash {
                node: case.depots[i],
                at: Dur::from_millis(60),
                downtime: None,
            })
            .collect();
        let r = s.run();
        assert!(
            r.ok(),
            "violations: {:?}\n{}",
            r.violations,
            r.fingerprint()
        );
        assert!(r.completed(), "state {:?}", r.state);
        assert!(
            r.saw(|e| matches!(e, SessionEvent::SublinkDown(_))),
            "the kills never bit:\n{}",
            r.fingerprint()
        );
        assert_eq!(r.regrants, 0, "a verified block was re-sent");
        assert_eq!(r.certified, r.expected_blocks);
        // A lane died outright, so a survivor's pickup latency landed in
        // the rebalance histogram.
        if r.saw(|e| matches!(e, SessionEvent::StripeLost { .. })) {
            let h = r
                .obs
                .metrics
                .hists
                .get("session.stripe.rebalance_ns")
                .expect("stripe loss recorded no rebalance latency");
            assert!(h.count > 0);
        }
    }

    #[test]
    fn targeted_seed_kill_satisfies_contract() {
        let cfg = CampaignConfig::default();
        for r in run_scenarios(&Campaign::Striped.scenarios(&cfg, 3), 1) {
            assert!(
                r.ok(),
                "seed {} violations: {:?}\n{}",
                r.seed(),
                r.violations,
                r.fingerprint()
            );
        }
    }

    #[test]
    fn striping_beats_the_single_cascade_on_the_lossy_backbone() {
        let mut single_cfg = CampaignConfig::default();
        single_cfg.stripe.max_cascades = 1;
        let striped = calm(
            Campaign::Striped,
            ClientKind::Striped,
            11,
            CampaignConfig::default(),
        );
        let single = calm(Campaign::Striped, ClientKind::Striped, 11, single_cfg);
        let (striped, single) = (striped.run(), single.run());
        assert!(striped.completed() && single.completed());
        assert_eq!(striped.cascades, 3);
        assert_eq!(single.cascades, 1);
        // Each cascade's backbone TCP is Mathis-limited by the 2e-3
        // loss; three concurrent cascades should aggregate well past the
        // single one. The acceptance gate is >=; in practice ~2x.
        assert!(
            striped.duration_s < single.duration_s,
            "striped {:.3}s vs single {:.3}s",
            striped.duration_s,
            single.duration_s
        );
    }

    /// Degradation acceptance: `max_cascades = 1` must be *byte-identical*
    /// to driving the plain [`SessionClient`] — same timeline, same
    /// outcomes, same timestamps.
    #[test]
    fn single_cascade_degradation_is_byte_identical_to_session_client() {
        let mut cfg = CampaignConfig::default();
        cfg.stripe.max_cascades = 1;
        let striped = calm(Campaign::Striped, ClientKind::Striped, 5, cfg.clone()).run();
        let plain = calm(Campaign::Striped, ClientKind::Plain, 5, cfg).run();
        assert_eq!(striped.cascades, 1);
        assert_eq!(
            format!("{:?}", striped.timeline),
            format!("{:?}", plain.timeline),
            "degraded striped timeline diverged from the plain client"
        );
        assert_eq!(
            format!("{:?}", striped.outcomes),
            format!("{:?}", plain.outcomes),
            "degraded striped outcomes diverged from the plain client"
        );
        assert_eq!(striped.state, plain.state);
    }

    #[test]
    fn routing_and_striped_fingerprints_are_jobs_invariant() {
        for campaign in [Campaign::Routing, Campaign::Striped] {
            let scenarios = campaign.scenarios(&quick_cfg(), 4);
            let fingerprints = |jobs| -> Vec<String> {
                run_scenarios(&scenarios, jobs)
                    .iter()
                    .map(RunReport::fingerprint)
                    .collect()
            };
            assert_eq!(fingerprints(1), fingerprints(4), "{campaign:?}");
        }
    }
}
