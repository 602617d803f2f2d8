//! Execute one measured transfer on a [`PathCase`].

use lsl_netsim::Dur;
use lsl_session::endpoint::{SendMode, SenderState};
use lsl_session::{BulkSender, Depot, DepotConfig, Hop, LslPath, SessionId, SinkServer};
use lsl_tcp::{Net, TcpConfig};
use lsl_trace::ConnTrace;

use crate::paths::{PathCase, DEPOT_PORT, SINK_PORT};

/// Transfer mode under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The paper's baseline: one end-to-end TCP connection.
    Direct,
    /// LSL through the case's depot (synchronous session, MD5 digest).
    ViaDepot,
}

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub size: u64,
    pub mode: Mode,
    /// RNG seed — the paper's "iteration i" is seed `base + i` here.
    pub seed: u64,
    /// Capture sender-side traces of every connection.
    pub trace: bool,
    /// Depot relay buffer bytes.
    pub relay_buf: usize,
    /// Depot per-session setup processing time (see
    /// [`DepotConfig::setup_delay`]).
    pub depot_setup_delay: Dur,
    /// TCP configuration for every connection in the run.
    pub tcp: TcpConfig,
    /// Port the depot listens on.
    pub depot_port: u16,
    /// Port the sink listens on.
    pub sink_port: u16,
}

impl RunConfig {
    /// Validated construction; see [`RunConfigBuilder`].
    pub fn builder(size: u64, mode: Mode) -> RunConfigBuilder {
        RunConfigBuilder {
            cfg: RunConfig {
                size,
                mode,
                seed: 0,
                trace: false,
                relay_buf: 256 * 1024,
                // Calibrated so session setup dominates ≲1 MB transfers
                // (Fig 5) while staying negligible for multi-MB ones.
                depot_setup_delay: Dur::from_millis(40),
                tcp: TcpConfig {
                    // Keep teardown snappy; it is outside the measured
                    // window.
                    time_wait: Dur::from_millis(1),
                    ..TcpConfig::default()
                },
                depot_port: DEPOT_PORT,
                sink_port: SINK_PORT,
            },
        }
    }
}

/// Builder for [`RunConfig`] that rejects nonsensical runs at
/// construction instead of panicking (or hanging) mid-experiment.
#[derive(Clone, Debug)]
pub struct RunConfigBuilder {
    cfg: RunConfig,
}

impl RunConfigBuilder {
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    pub fn trace(mut self) -> Self {
        self.cfg.trace = true;
        self
    }

    pub fn relay_buf(mut self, bytes: usize) -> Self {
        self.cfg.relay_buf = bytes;
        self
    }

    pub fn depot_setup_delay(mut self, delay: Dur) -> Self {
        self.cfg.depot_setup_delay = delay;
        self
    }

    pub fn tcp(mut self, tcp: TcpConfig) -> Self {
        self.cfg.tcp = tcp;
        self
    }

    pub fn depot_port(mut self, port: u16) -> Self {
        self.cfg.depot_port = port;
        self
    }

    pub fn sink_port(mut self, port: u16) -> Self {
        self.cfg.sink_port = port;
        self
    }

    /// Validate and produce the config.
    ///
    /// # Panics
    ///
    /// On configurations that cannot produce a data point: zero transfer
    /// size, a zero-byte relay buffer, or depot and sink sharing a port
    /// (ambiguous when they share a host in custom cases).
    pub fn build(self) -> RunConfig {
        assert!(self.cfg.size > 0, "transfer size must be non-zero");
        assert!(
            self.cfg.relay_buf > 0,
            "depot relay buffer must be non-zero (a 0-byte buffer can never relay)"
        );
        assert!(
            self.cfg.depot_port != self.cfg.sink_port,
            "depot and sink ports must differ"
        );
        self.cfg
    }
}

/// Outcome of one run.
#[derive(Debug)]
pub struct RunResult {
    /// Wall-clock seconds from connection initiation to the sink holding
    /// the complete, verified stream (the paper's measurement).
    pub duration_s: f64,
    /// Payload goodput in bits/s.
    pub goodput_bps: f64,
    /// Sender-side trace of the first (or only) connection.
    pub trace_first: Option<ConnTrace>,
    /// Sender-side trace of the depot's downstream sublink (LSL only).
    pub trace_second: Option<ConnTrace>,
    /// Total retransmitted segments across captured traces.
    pub retransmissions: usize,
    /// Digest verification (LSL runs).
    pub digest_ok: Option<bool>,
}

/// Run one transfer to completion. Panics on any failure — an experiment
/// that cannot complete is a setup bug, not a data point.
pub fn run_transfer(case: &PathCase, cfg: &RunConfig) -> RunResult {
    let mut net = Net::new(case.topo.into_sim(cfg.seed));

    let mut depot = match cfg.mode {
        Mode::ViaDepot => Some(Depot::new(
            &mut net,
            case.depot,
            DepotConfig {
                port: cfg.depot_port,
                relay_buf: cfg.relay_buf,
                tcp: cfg.tcp.clone(),
                setup_delay: cfg.depot_setup_delay,
                trace_downstream: cfg.trace.then(|| "sublink2".to_string()),
            },
        )),
        Mode::Direct => None,
    };
    let mut sink = SinkServer::new(
        &mut net,
        case.dst,
        cfg.sink_port,
        cfg.mode == Mode::ViaDepot,
        cfg.tcp.clone(),
    );
    let (path, send_mode, label) = match cfg.mode {
        Mode::Direct => (
            LslPath::direct(Hop::new(case.dst, cfg.sink_port)),
            SendMode::DirectTcp,
            "direct",
        ),
        Mode::ViaDepot => (
            LslPath::via(
                vec![Hop::new(case.depot, cfg.depot_port)],
                Hop::new(case.dst, cfg.sink_port),
            ),
            SendMode::lsl(),
            "sublink1",
        ),
    };
    let mut sender = BulkSender::start(
        &mut net,
        case.src,
        &path,
        SessionId(cfg.seed as u128 + 1),
        cfg.size,
        send_mode,
        cfg.tcp.clone(),
        cfg.trace.then_some(label),
        None,
    );
    let started = sender.started_at;

    while let Some(ev) = net.poll() {
        if sender.handle(&mut net, &ev).consumed() {
            continue;
        }
        if sink.handle(&mut net, &ev).consumed() {
            continue;
        }
        if let Some(d) = &mut depot {
            let _ = d.handle(&mut net, &ev);
        }
    }

    assert_eq!(
        sender.state(),
        SenderState::Done,
        "sender failed on {} seed {} size {}",
        case.name,
        cfg.seed,
        cfg.size
    );
    let outcomes = sink.take_outcomes();
    assert_eq!(outcomes.len(), 1, "expected exactly one transfer outcome");
    let out = &outcomes[0];
    assert!(
        out.ok(),
        "transfer failed on {} seed {}: {:?}",
        case.name,
        cfg.seed,
        out.status
    );
    assert_eq!(out.bytes, cfg.size, "sink byte count mismatch");

    let duration_s = (out.completed_at - started).as_secs_f64();
    let trace_first = cfg.trace.then(|| net.take_trace(sender.sock())).flatten();
    let trace_second = depot
        .as_mut()
        .and_then(|d| d.take_traces().into_iter().next());
    let retransmissions = trace_first
        .iter()
        .chain(trace_second.iter())
        .map(lsl_trace::retransmissions)
        .sum();

    RunResult {
        duration_s,
        goodput_bps: cfg.size as f64 * 8.0 / duration_s,
        trace_first,
        trace_second,
        retransmissions,
        digest_ok: out.digest_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::case1;

    #[test]
    fn direct_run_completes_with_trace() {
        let case = case1();
        let r = run_transfer(
            &case,
            &RunConfig::builder(256 * 1024, Mode::Direct)
                .seed(1)
                .trace()
                .build(),
        );
        assert!(r.duration_s > 0.0);
        assert!(r.goodput_bps > 0.0);
        let t = r.trace_first.as_ref().expect("trace captured");
        assert!(!t.is_empty());
        assert!(r.trace_second.is_none());
        assert_eq!(r.digest_ok, None);
    }

    #[test]
    fn lsl_run_captures_both_sublinks() {
        let case = case1();
        let r = run_transfer(
            &case,
            &RunConfig::builder(256 * 1024, Mode::ViaDepot)
                .seed(1)
                .trace()
                .build(),
        );
        assert_eq!(r.digest_ok, Some(true));
        let t1 = r.trace_first.expect("sublink1 trace");
        let t2 = r.trace_second.expect("sublink2 trace");
        assert_eq!(t1.label, "sublink1");
        assert_eq!(t2.label, "sublink2");
        // Both sublinks carried the payload.
        let g1 = lsl_trace::seq_growth(&t1);
        let g2 = lsl_trace::seq_growth(&t2);
        assert!(g1.last_y().unwrap() >= 256.0 * 1024.0);
        assert!(g2.last_y().unwrap() >= 256.0 * 1024.0);
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let case = case1();
        let a = run_transfer(
            &case,
            &RunConfig::builder(512 * 1024, Mode::ViaDepot)
                .seed(7)
                .build(),
        );
        let b = run_transfer(
            &case,
            &RunConfig::builder(512 * 1024, Mode::ViaDepot)
                .seed(7)
                .build(),
        );
        assert_eq!(a.duration_s, b.duration_s);
    }
}
