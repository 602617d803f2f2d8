//! The in-sim measurement plane: the closed NWS loop a forecast-routed
//! scenario runs.
//!
//! This wires the measurement plane the paper assumes ("network
//! performance information available from a system such as the Network
//! Weather Service", §III) into the recovering session:
//!
//! ```text
//!   netsim probes ──► LinkRegistry ──► quantize ──► cascade_score_ns
//!        ▲  (per-sublink bw/rtt/loss)   (NWS mixture)   (fixed-point)
//!        │                                                   │
//!   live sublink srtt (passive piggyback)                    ▼
//!        └──────────────── SessionClient::update_scores ◄────┘
//!                         (forecast-best start, re-scored failover,
//!                          proactive Rerouted before the sublink dies)
//! ```
//!
//! [`ForecastPlane`] owns the sensors: a periodic probe timer (bit-60
//! token tag, disjoint from the client/sink/net tags) sweeps every
//! candidate sublink through [`Simulator::probe_path`] — idle links
//! included, exactly the NWS's low-rate active probes — and each sweep
//! also piggybacks the live sublink's smoothed RTT off real session
//! traffic. Observations land in the honest [`LinkRegistry`] API;
//! scoring quantizes forecasts once ([`SublinkForecast::quantize`]) and
//! is pure integer arithmetic after that, so a campaign fingerprint is
//! byte-identical at any `--jobs` count.
//!
//! [`Simulator::probe_path`]: lsl_netsim::Simulator::probe_path

use std::collections::BTreeMap;

use lsl_netsim::{Dur, NodeId};
use lsl_nws::{Confidence, LinkRegistry};
use lsl_session::{cascade_score_ns, LslPath, RoutePlan, SessionClient, SublinkForecast};
use lsl_tcp::{AppEvent, Net};

/// Timer-token tag for the forecast plane's probe timer. Bit 63 is the
/// net layer's, 62 the session client's, 61 the sink's; bit 60 keeps
/// the measurement plane's ticks out of everyone else's dispatch.
pub const FORECAST_TIMER_TAG: u64 = 1 << 60;

/// The in-sim measurement plane: per-sublink probe sensors feeding an
/// NWS forecaster registry, plus the fixed-point scoring pass that
/// turns forecasts into candidate scores.
pub struct ForecastPlane {
    /// Client host — the timer owner and the source of passive samples.
    node: NodeId,
    /// Every directed sublink any candidate (or the direct fallback)
    /// would ride; probed each sweep whether or not traffic rides it.
    sublinks: Vec<(NodeId, NodeId)>,
    registry: LinkRegistry,
    /// Last-probe reachability per sublink: a down sublink forces
    /// `None` scores for every route through it, independent of how
    /// rosy its (stale) forecast still looks.
    up: BTreeMap<(u32, u32), bool>,
    period: Dur,
    /// Accepted probe observations (for campaign telemetry).
    pub probes: u64,
    /// Completed sweeps.
    pub sweeps: u64,
}

impl ForecastPlane {
    pub fn new(node: NodeId, sublinks: Vec<(NodeId, NodeId)>, period: Dur) -> ForecastPlane {
        let up = sublinks.iter().map(|&(s, d)| ((s.0, d.0), true)).collect();
        ForecastPlane {
            node,
            sublinks,
            registry: LinkRegistry::new(),
            up,
            period,
            probes: 0,
            sweeps: 0,
        }
    }

    /// Arm the next probe tick.
    pub fn arm(&self, net: &mut Net) {
        net.set_app_timer(self.node, net.now() + self.period, FORECAST_TIMER_TAG);
    }

    /// Is this event our probe timer? The tag bit alone is not enough:
    /// the session client packs 30 session-id bits into token bits
    /// 32–61, so a client whose id has bit 28 set carries bit 60 too.
    /// Only a token with the higher tag bits (63..61) clear is ours.
    pub fn is_tick(&self, ev: &AppEvent) -> bool {
        matches!(ev, AppEvent::Timer { node, token }
            if *node == self.node && token >> 61 == 0 && token & FORECAST_TIMER_TAG != 0)
    }

    /// One probe sweep: measure every candidate sublink from current
    /// simulator state. Unreachable sublinks contribute no observation
    /// (a dead probe has no numbers to report) but flip the `up` flag
    /// that vetoes their routes' scores.
    pub fn sweep(&mut self, net: &Net) {
        for (i, &(src, dst)) in self.sublinks.iter().enumerate() {
            let probe = net.sim().probe_path(src, dst);
            let up = probe.is_some_and(|p| p.up);
            self.up.insert((src.0, dst.0), up);
            if let Some(p) = probe.filter(|p| p.up) {
                self.registry
                    .observe_bandwidth(src.0, dst.0, p.bandwidth_bps as f64);
                self.registry.observe_rtt(src.0, dst.0, p.rtt.as_secs_f64());
                self.registry.observe_loss(src.0, dst.0, p.loss);
                self.probes += 1;
                lsl_obs::counter_add("nws.probe", i as u64, 1);
            } else {
                lsl_obs::counter_add("nws.probe_down", i as u64, 1);
            }
        }
        self.sweeps += 1;
    }

    /// Passive sensor: piggyback the live sublink's smoothed RTT off
    /// real session traffic — the paper's "TCP extended statistics MIB
    /// or the like" — instead of spending a probe on it.
    pub fn observe_live(&mut self, net: &Net, client: &SessionClient) {
        let Some(sock) = client.sock() else { return };
        let Some(srtt) = net.srtt(sock) else { return };
        let path = client.current_path();
        let first = path.depots.first().unwrap_or(&path.dst).node;
        if self
            .registry
            .observe_rtt(self.node.0, first.0, srtt.as_secs_f64())
        {
            lsl_obs::counter_add("nws.passive_rtt", u64::from(first.0), 1);
        }
    }

    /// Score every candidate in `plan` for a `size`-byte transfer:
    /// decompose each route into directed sublinks, quantize each
    /// sublink's forecast, and run the fixed-point cascade model. A
    /// route is unscored (`None`) if any of its sublinks was down at
    /// the last sweep, has no [`Confidence::Seasoned`] forecast yet, or
    /// has a forecast the quantizer rejects.
    pub fn scores(&self, plan: &RoutePlan, size: u64) -> Vec<Option<u64>> {
        plan.candidates()
            .iter()
            .map(|c| self.score_path(&c.path, size))
            .collect()
    }

    fn score_path(&self, path: &LslPath, size: u64) -> Option<u64> {
        let mut legs = Vec::with_capacity(path.depots.len() + 1);
        let mut at = self.node;
        for hop in path.depots.iter().chain(std::iter::once(&path.dst)) {
            if !self.up.get(&(at.0, hop.node.0)).copied().unwrap_or(false) {
                return None;
            }
            let f = self.registry.forecast(at.0, hop.node.0)?;
            if f.confidence != Confidence::Seasoned {
                return None;
            }
            legs.push(SublinkForecast::quantize(
                f.bandwidth_bps?,
                f.rtt_s?,
                f.loss?,
            )?);
            at = hop.node;
        }
        cascade_score_ns(&legs, size)
    }

    /// Final registry state, quantized — the deterministic dump that
    /// rides on the run fingerprint (no f64 formatting involved).
    pub fn dump(&self) -> Vec<((u32, u32), Option<SublinkForecast>)> {
        self.sublinks
            .iter()
            .map(|&(s, d)| {
                let q = self
                    .registry
                    .forecast(s.0, d.0)
                    .and_then(|f| SublinkForecast::quantize(f.bandwidth_bps?, f.rtt_s?, f.loss?));
                ((s.0, d.0), q)
            })
            .collect()
    }
}

/// Every directed sublink the candidates of `plan` ride from `src`, in
/// candidate order, then the direct `src → dst` path the recovery layer
/// appends as its last resort.
pub(crate) fn plan_sublinks(src: NodeId, plan: &RoutePlan) -> Vec<(NodeId, NodeId)> {
    let mut legs = Vec::new();
    for c in plan.candidates() {
        let mut at = src;
        for hop in c.path.depots.iter().chain(std::iter::once(&c.path.dst)) {
            legs.push((at, hop.node));
            at = hop.node;
        }
    }
    legs.push((src, plan.dst().node));
    legs
}
