//! `fault_storm`: 1 MiB LSL sessions under seeded fault storms, with
//! the obs recorder on, as the campaign bins run them.
//!
//! Storm `k` of a run has seed `mix(seed, k)` and drives two sessions:
//! - a forecast-routed `SessionClient` on `failover_case()`, under the
//!   `chaos_spec` storm, with `ForecastPlane` probing;
//! - a `StripedSession` on `striped_case()`, under the `striped_spec`
//!   storm plus the targeted permanent kill of depot `seed % 3`.
//!
//! Each session is checked against the campaign contract: terminal
//! within the time and event bounds, `Done` only with a digest-verified
//! outcome, no resume regression, no striped re-grant, and every block
//! certified on a striped `Done`. A typed failure is legal; it only
//! lowers `completed_share`.

use lsl_netsim::{Dur, FaultStormGen, StormAtom, StormPlan, Time};
use lsl_session::endpoint::SendMode;
use lsl_session::{
    stream_blocks, ClientState, Depot, DepotConfig, SessionClient, SessionEvent, SessionId,
    SinkServer, StripedSession, TransferOutcome, RESUME_BLOCK,
};
use lsl_tcp::Net;
use lsl_workloads::paths::{DEPOT_PORT, SINK_PORT};
use lsl_workloads::{
    chaos_spec, failover_case, striped_case, striped_spec, FailoverCase, FaultRunConfig,
    ForecastPlane, RoutingConfig, StripedCase, StripedChaosConfig,
};

use crate::span::{Layer, Tracer};
use crate::{mix, LinkTotals, Metrics, Outcome, Workload};

const SIZE: u64 = 1 << 20;
/// Probe sweeps before the routed session starts (as the routing
/// campaign does), so the first route pick is forecast-driven.
const WARMUP_SWEEPS: usize = 8;
/// Storm seeds stay below 2^24. The session id carries the seed, and
/// `SessionClient` packs 30 bits of it into its timer tokens, where
/// bit 28 of the id lands on `FORECAST_TIMER_TAG`: the forecast plane
/// then takes the client's timers for its own ticks and the session
/// hangs. Ids below 2^28 never meet that.
const STORM_SEED_BITS: u32 = 24;

/// Recovery event kinds reported per session.
const RECOVERY_KINDS: [&str; 10] = [
    "session.recovery_events.sublink_down",
    "session.recovery_events.reconnecting",
    "session.recovery_events.failed_over",
    "session.recovery_events.rerouted",
    "session.recovery_events.degraded",
    "session.recovery_events.retransfer",
    "session.recovery_events.resumed",
    "session.recovery_events.stripe_lost",
    "session.recovery_events.stripe_rebalanced",
    "session.recovery_events.failed",
];

fn recovery_kind(ev: &SessionEvent) -> Option<usize> {
    Some(match ev {
        SessionEvent::SublinkDown(_) => 0,
        SessionEvent::Reconnecting { .. } => 1,
        SessionEvent::FailedOver { .. } => 2,
        SessionEvent::Rerouted { .. } => 3,
        SessionEvent::Degraded => 4,
        SessionEvent::Retransfer { .. } => 5,
        SessionEvent::Resumed { .. } => 6,
        SessionEvent::StripeLost { .. } => 7,
        SessionEvent::StripeRebalanced { .. } => 8,
        SessionEvent::Failed(_) => 9,
        SessionEvent::Established | SessionEvent::Confirmed | SessionEvent::Completed => {
            return None
        }
    })
}

pub struct FaultStorm {
    seed: u64,
    failover: FailoverCase,
    striped: StripedCase,
    chaos_gen: FaultStormGen,
    striped_gen: FaultStormGen,
    routing: RoutingConfig,
    stripe_cfg: StripedChaosConfig,
    /// Record obs telemetry, as the campaigns do.
    obs: bool,
    acc: Acc,
}

#[derive(Default)]
struct Acc {
    links: LinkTotals,
    pending_timers_max: u64,
    recovery: [u64; RECOVERY_KINDS.len()],
    useful_bytes: u64,
    attempt_bytes: u64,
    probes: u64,
    obs_spans: u64,
    obs_series: u64,
}

/// What one driven session left behind, before checking.
struct Ran {
    state: ClientState,
    hung: bool,
    events: u64,
    now: Time,
    outcomes: Vec<TransferOutcome>,
    timeline: Vec<(Time, SessionEvent)>,
    started: Time,
    finished: Option<Time>,
    obs: lsl_obs::ObsReport,
}

impl FaultStorm {
    /// Build the simulator with the storm's faults, the depots and a
    /// sink with the idle watchdog, exactly as the campaigns do.
    fn build(
        topo: &lsl_netsim::Topology,
        depots: &[lsl_netsim::NodeId],
        dst: lsl_netsim::NodeId,
        run_cfg: &FaultRunConfig,
    ) -> (Net, Vec<Depot>, SinkServer) {
        let mut sim = topo.into_sim(run_cfg.seed);
        sim.install_faults(run_cfg.plan.clone());
        let mut net = Net::new(sim);
        let depot_cfg = DepotConfig::builder()
            .port(DEPOT_PORT)
            .tcp(run_cfg.tcp.clone())
            .setup_delay(Dur::from_millis(5))
            .build();
        let depots = depots
            .iter()
            .map(|&d| Depot::new(&mut net, d, depot_cfg.clone()))
            .collect();
        let mut sink = SinkServer::new(&mut net, dst, SINK_PORT, true, run_cfg.tcp.clone());
        if let Some(d) = run_cfg.sink_idle {
            sink = sink.with_idle_timeout(d);
        }
        (net, depots, sink)
    }

    fn start_obs(&self) {
        if self.obs {
            lsl_obs::reset();
            lsl_obs::enable();
        }
    }

    fn finish_obs(&self, net: &Net, tr: &mut Tracer) -> lsl_obs::ObsReport {
        tr.span(Layer::Obs, || {
            if !self.obs {
                return lsl_obs::ObsReport::default();
            }
            net.sim().record_obs_link_metrics();
            let rep = lsl_obs::take();
            lsl_obs::disable();
            rep
        })
    }

    /// The forecast-routed session on the failover topology.
    fn routed(&mut self, storm: StormPlan, tr: &mut Tracer) -> Ran {
        let case = &self.failover;
        let cfg = &self.routing;
        self.start_obs();
        let run_cfg = FaultRunConfig::new(SIZE, storm.seed, storm.to_fault_plan());
        let (mut net, mut depots, mut sink, mut plane, mut client) = tr.span(Layer::Setup, || {
            let (mut net, depots, sink) = Self::build(
                &case.topo,
                &[case.depot_a, case.depot_b],
                case.dst,
                &run_cfg,
            );
            let mut plan = case.plan();
            let mut plane = ForecastPlane::new(case.src, case.sublinks(), cfg.probe_period);
            for _ in 0..WARMUP_SWEEPS {
                plane.sweep(&net);
            }
            for (i, s) in plane.scores(&plan, SIZE).iter().enumerate() {
                plan.set_score(i, *s);
            }
            let client = SessionClient::start(
                &mut net,
                case.src,
                plan,
                SessionId(0xf0c0 + u128::from(run_cfg.seed)),
                SIZE,
                SendMode::lsl(),
                run_cfg.tcp.clone(),
                run_cfg.recovery.clone(),
                None,
            );
            plane.arm(&mut net);
            (net, depots, sink, plane, client)
        });

        let traced = tr.is_on();
        let deadline = Time::ZERO + cfg.time_bound;
        let mut outcomes = Vec::new();
        let mut events = 0u64;
        let mut hung = false;
        let mut pending_max = 0u64;
        while let Some(ev) = tr.span(Layer::TcpPoll, || net.poll()) {
            events += 1;
            if traced {
                pending_max = pending_max.max(net.sim().pending_timers() as u64);
            }
            if net.now() > deadline || events > cfg.max_events {
                hung = true;
                break;
            }
            if plane.is_tick(&ev) {
                tr.span(Layer::NwsSweep, || {
                    plane.observe_live(&net, &client);
                    plane.sweep(&net);
                    plane.arm(&mut net);
                });
                let scores = tr.span(Layer::NwsScores, || {
                    let scores = plane.scores(client.plan(), SIZE);
                    for (i, s) in scores.iter().enumerate() {
                        lsl_obs::gauge_set("nws.score_ns", i as u64, s.unwrap_or(u64::MAX));
                    }
                    scores
                });
                tr.span(Layer::Client, || client.update_scores(&mut net, &scores));
            } else if !tr
                .span(Layer::Client, || client.handle(&mut net, &ev))
                .consumed()
                && !tr
                    .span(Layer::Sink, || sink.handle(&mut net, &ev))
                    .consumed()
            {
                for d in &mut depots {
                    if tr.span(Layer::Depot, || d.handle(&mut net, &ev)).consumed() {
                        break;
                    }
                }
            }
            for o in tr.span(Layer::Sink, || sink.take_outcomes()) {
                if o.session == Some(client.session()) {
                    tr.span(Layer::Client, || client.on_outcome(&mut net, &o));
                }
                outcomes.push(o);
            }
            if client.is_done() {
                break;
            }
        }
        let obs = self.finish_obs(&net, tr);
        if traced {
            self.acc.links.add_all(&net);
            self.acc.pending_timers_max = self.acc.pending_timers_max.max(pending_max);
            self.acc.probes += plane.probes;
        }
        Ran {
            state: client.state(),
            hung,
            events,
            now: net.now(),
            outcomes,
            timeline: client.take_events(),
            started: client.started_at,
            finished: client.finished_at,
            obs,
        }
    }

    /// The striped session on the three-depot topology.
    fn striped(&mut self, mut storm: StormPlan, tr: &mut Tracer) -> (Ran, u64, u64) {
        let case = &self.striped;
        let cfg = &self.stripe_cfg;
        let seed = storm.seed;
        storm.atoms.push(StormAtom::NodeCrash {
            node: case.depots[(seed % 3) as usize],
            at: Dur::from_millis(40 + (seed % 8) * 20),
            downtime: None,
        });
        self.start_obs();
        let run_cfg = FaultRunConfig::new(SIZE, storm.seed, storm.to_fault_plan());
        let (mut net, mut depots, mut sink, mut client) = tr.span(Layer::Setup, || {
            let (mut net, depots, sink) = Self::build(&case.topo, &case.depots, case.dst, &run_cfg);
            let client = StripedSession::start(
                &mut net,
                case.src,
                case.plan(),
                SessionId(0x57a1_0000 + u128::from(run_cfg.seed)),
                SIZE,
                run_cfg.tcp.clone(),
                cfg.stripe.clone(),
                None,
            );
            (net, depots, sink, client)
        });

        let traced = tr.is_on();
        let deadline = Time::ZERO + cfg.time_bound;
        let mut outcomes = Vec::new();
        let mut events = 0u64;
        let mut hung = false;
        let mut pending_max = 0u64;
        while let Some(ev) = tr.span(Layer::TcpPoll, || net.poll()) {
            events += 1;
            if traced {
                pending_max = pending_max.max(net.sim().pending_timers() as u64);
            }
            if net.now() > deadline || events > cfg.max_events {
                hung = true;
                break;
            }
            if !tr
                .span(Layer::Stripe, || client.handle(&mut net, &ev))
                .consumed()
                && !tr
                    .span(Layer::Sink, || sink.handle(&mut net, &ev))
                    .consumed()
            {
                for d in &mut depots {
                    if tr.span(Layer::Depot, || d.handle(&mut net, &ev)).consumed() {
                        break;
                    }
                }
            }
            for o in tr.span(Layer::Sink, || sink.take_outcomes()) {
                if o.session == Some(client.session()) {
                    tr.span(Layer::Stripe, || client.on_outcome(&mut net, &o));
                }
                outcomes.push(o);
            }
            if client.is_done() {
                break;
            }
        }
        let certified = sink.session_certified(client.session());
        let regrants = sink.stripe_regrants();
        let obs = self.finish_obs(&net, tr);
        if traced {
            self.acc.links.add_all(&net);
            self.acc.pending_timers_max = self.acc.pending_timers_max.max(pending_max);
        }
        let ran = Ran {
            state: client.state(),
            hung,
            events,
            now: net.now(),
            outcomes,
            timeline: client.take_events(),
            started: client.started_at(),
            finished: client.finished_at(),
            obs,
        };
        (ran, certified, regrants)
    }

    /// Check the contract and account the session.
    fn judge(
        &mut self,
        kind: &str,
        seed: u64,
        ran: Ran,
        striped: Option<(u64, u64)>,
        traced: bool,
    ) -> Outcome {
        let mut breach = Vec::new();
        let terminal = matches!(ran.state, ClientState::Done | ClientState::Failed(_));
        if ran.hung {
            breach.push(format!("hang at {:?} after {} events", ran.now, ran.events));
        } else if !terminal {
            breach.push(format!("wedged in {:?}", ran.state));
        }
        let done = ran.state == ClientState::Done;
        if done
            && !ran
                .outcomes
                .iter()
                .any(|o| o.ok() && o.digest_ok == Some(true))
        {
            breach.push("Done without a digest-verified outcome".to_string());
        }
        match striped {
            None => {
                // No verified block re-sent: each attempt is granted at
                // least the verified boundary of attempts that ended
                // before it was accepted.
                for o in ran.outcomes.iter().filter(|o| o.session.is_some()) {
                    let floor = ran
                        .outcomes
                        .iter()
                        .filter(|p| p.session.is_some() && p.completed_at <= o.accepted_at)
                        .map(|p| p.verified_blocks)
                        .max()
                        .unwrap_or(0);
                    if o.resume_offset < floor * RESUME_BLOCK {
                        breach.push(format!(
                            "resume regression: offset {} below {floor} verified blocks",
                            o.resume_offset
                        ));
                    }
                }
            }
            Some((certified, regrants)) => {
                if regrants > 0 {
                    breach.push(format!("{regrants} stripe re-grants"));
                }
                let expected = stream_blocks(SIZE);
                if done && certified != expected {
                    breach.push(format!("certified {certified} of {expected} blocks"));
                }
            }
        }
        if traced {
            for (_, ev) in &ran.timeline {
                if let Some(k) = recovery_kind(ev) {
                    self.acc.recovery[k] += 1;
                }
            }
            if done {
                self.acc.useful_bytes += SIZE;
                self.acc.attempt_bytes += ran.outcomes.iter().map(|o| o.attempt_bytes).sum::<u64>();
            }
            self.acc.obs_spans += ran.obs.spans.len() as u64;
            let series = &ran.obs.metrics;
            self.acc.obs_series +=
                (series.counters.len() + series.gauges.len() + series.hists.len()) as u64;
        }
        let ended = ran.finished.unwrap_or(ran.now);
        let sim_s = (ended - ran.started).as_secs_f64();
        let fingerprint = format!(
            "{kind} storm {seed} state {:?} events {} ended {:?} outcomes {:?}",
            ran.state,
            ran.events,
            ended,
            ran.outcomes
                .iter()
                .map(|o| (
                    o.status,
                    o.bytes,
                    o.digest_ok,
                    o.verified_blocks,
                    o.completed_at
                ))
                .collect::<Vec<_>>(),
        );
        Outcome {
            wall_s: 0.0,
            sim_s,
            bytes: if done && breach.is_empty() { SIZE } else { 0 },
            completed: done && breach.is_empty(),
            wall_sample: striped.is_none(),
            group_peak_rss_mb: None,
            breach: (!breach.is_empty()).then(|| breach.join("; ")),
            fingerprint,
        }
    }
}

impl Workload for FaultStorm {
    fn setup(seed: u64) -> FaultStorm {
        let failover = failover_case();
        let striped = striped_case();
        let mut w = FaultStorm {
            seed,
            chaos_gen: FaultStormGen::new(chaos_spec(&failover)),
            striped_gen: FaultStormGen::new(striped_spec(&striped)),
            failover,
            striped,
            routing: RoutingConfig::default(),
            stripe_cfg: StripedChaosConfig::default(),
            obs: true,
            acc: Acc::default(),
        };
        // Warm-up: one calm session of each kind.
        let mut off = Tracer::new(false, 0);
        let calm = |seed| StormPlan {
            seed,
            atoms: Vec::new(),
        };
        let seed0 = mix(seed, 1 << 40, 0) >> (64 - STORM_SEED_BITS);
        let ran = w.routed(calm(seed0), &mut off);
        assert_eq!(ran.state, ClientState::Done, "calm routed warm-up failed");
        let (ran, _, _) = w.striped(calm(seed0), &mut off);
        assert_eq!(ran.state, ClientState::Done, "calm striped warm-up failed");
        w
    }

    fn group(&self) -> usize {
        2
    }

    fn session(&mut self, i: usize, tr: &mut Tracer) -> Outcome {
        let storm_seed = mix(self.seed, (i / 2) as u64, 0) >> (64 - STORM_SEED_BITS);
        let traced = tr.is_on();
        if i.is_multiple_of(2) {
            let storm = self.chaos_gen.generate(storm_seed);
            let ran = self.routed(storm, tr);
            tr.span(Layer::Verify, || {
                self.judge("routed", storm_seed, ran, None, traced)
            })
        } else {
            let storm = self.striped_gen.generate(storm_seed);
            let (ran, certified, regrants) = self.striped(storm, tr);
            tr.span(Layer::Verify, || {
                self.judge(
                    "striped",
                    storm_seed,
                    ran,
                    Some((certified, regrants)),
                    traced,
                )
            })
        }
    }

    fn layer_metrics(&mut self, tr: &Tracer, sessions: usize, m: &mut Metrics) {
        let n = sessions.max(1) as f64;
        self.acc.links.report(tr, n, m);
        m.set(
            "netsim.pending_timers_max",
            self.acc.pending_timers_max as f64,
        );
        let total: u64 = self.acc.recovery.iter().sum();
        m.set("session.recovery_events", total as f64 / n);
        for (name, count) in RECOVERY_KINDS.iter().zip(self.acc.recovery) {
            m.set(name, count as f64 / n);
        }
        if self.acc.attempt_bytes > 0 {
            m.set(
                "session.useful_byte_ratio",
                self.acc.useful_bytes as f64 / self.acc.attempt_bytes as f64,
            );
        }
        m.set("nws.probes", self.acc.probes as f64 / n);
        m.set("obs.spans", self.acc.obs_spans as f64 / n);
        m.set("obs.metric_series", self.acc.obs_series as f64 / n);
    }

    fn set_obs(&mut self, on: bool) -> bool {
        self.obs = on;
        true
    }
}
