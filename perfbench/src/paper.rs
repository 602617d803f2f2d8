//! `paper_bulk`: the four calibrated paper cases, direct and via the
//! depot, at 1 MiB and 16 MiB, with sender capture on as `figures`
//! runs them. No faults.
//!
//! One pass is 72 transfers, one session at a time: `ITERS_1MIB` 1 MiB
//! pairs per case, then one 16 MiB pair per case, each pair direct then
//! via the depot. The seed and the pass pick each pair's simulator
//! seed; the direct and the LSL transfer of a pair share it, as the
//! paper's sweeps pair them. The 1 MiB iterations give the wall-time
//! percentiles enough samples. The 16 MiB pairs come last in the pass:
//! the first few sessions after a 16 MiB transfer ran up to 1.5x slower
//! in traced runs, and grouped, the 16 MiB pairs slow only the start of
//! the next pass instead of every case's 1 MiB run.

use lsl_session::endpoint::{SendMode, SenderState};
use lsl_session::{BulkSender, Depot, DepotConfig, Hop, LslPath, SessionId, SinkServer};
use lsl_tcp::Net;
use lsl_workloads::{case1, case2, case3, case4, Mode, PathCase, RunConfig};

use crate::span::{Layer, Tracer};
use crate::{mix, LinkTotals, Metrics, Outcome, Workload};

const SIZES: [u64; 2] = [1 << 20, 16 << 20];
const MODES: [Mode; 2] = [Mode::Direct, Mode::ViaDepot];
/// 1 MiB pairs per case and pass.
const ITERS_1MIB: usize = 8;
/// 1 MiB transfers per pass, all cases.
const SMALL_PART: usize = 4 * 2 * ITERS_1MIB;
/// Transfers per pass: the 1 MiB part, then one 16 MiB pair per case.
const PASS: usize = SMALL_PART + 4 * 2;

pub struct PaperBulk {
    seed: u64,
    cases: Vec<PathCase>,
    /// Per-layer accounting of the traced sessions.
    acc: Acc,
}

#[derive(Default)]
struct Acc {
    links: LinkTotals,
    pending_timers_max: u64,
    trace_segments: u64,
    /// Payload bytes the sender generated and the sink absorbed.
    payload_bytes: u64,
    depot_bytes: u64,
    /// Simulated duration of the last direct 16 MiB transfer.
    direct_16_s: f64,
    /// LSL-over-direct throughput gain of each 16 MiB pair, percent.
    gains: Vec<f64>,
}

impl PaperBulk {
    fn transfer(
        &mut self,
        case_idx: usize,
        size: u64,
        mode: Mode,
        sim_seed: u64,
        tr: &mut Tracer,
    ) -> Outcome {
        let case = &self.cases[case_idx];
        let cfg = RunConfig::builder(size, mode)
            .seed(sim_seed)
            .trace()
            .build();
        let traced = tr.is_on();

        let (mut net, mut depot, mut sink, mut sender) = tr.span(Layer::Setup, || {
            let mut net = Net::new(case.topo.into_sim(cfg.seed));
            let depot = (mode == Mode::ViaDepot).then(|| {
                Depot::new(
                    &mut net,
                    case.depot,
                    DepotConfig {
                        port: cfg.depot_port,
                        relay_buf: cfg.relay_buf,
                        tcp: cfg.tcp.clone(),
                        setup_delay: cfg.depot_setup_delay,
                        trace_downstream: Some("sublink2".to_string()),
                    },
                )
            });
            let sink = SinkServer::new(
                &mut net,
                case.dst,
                cfg.sink_port,
                mode == Mode::ViaDepot,
                cfg.tcp.clone(),
            );
            let (path, send_mode, label) = match mode {
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
            let sender = BulkSender::start(
                &mut net,
                case.src,
                &path,
                SessionId(u128::from(cfg.seed) + 1),
                size,
                send_mode,
                cfg.tcp.clone(),
                Some(label),
                None,
            );
            (net, depot, sink, sender)
        });

        let mut pending_max = 0u64;
        while let Some(ev) = tr.span(Layer::TcpPoll, || net.poll()) {
            if traced {
                pending_max = pending_max.max(net.sim().pending_timers() as u64);
            }
            if tr
                .span(Layer::Sender, || sender.handle(&mut net, &ev))
                .consumed()
            {
                continue;
            }
            if tr
                .span(Layer::Sink, || sink.handle(&mut net, &ev))
                .consumed()
            {
                continue;
            }
            if let Some(d) = &mut depot {
                let _ = tr.span(Layer::Depot, || d.handle(&mut net, &ev));
            }
        }
        let outcomes = tr.span(Layer::Sink, || sink.take_outcomes());

        let (segments, retx, growth) = tr.span(Layer::TraceAnalyze, || {
            let first = net.take_trace(sender.sock());
            let second = depot
                .as_mut()
                .and_then(|d| d.take_traces().into_iter().next());
            let mut segments = 0u64;
            let mut retx = 0usize;
            let mut growth = 0.0f64;
            for t in first.iter().chain(second.iter()) {
                segments += t.len() as u64;
                retx += lsl_trace::retransmissions(t);
                growth += lsl_trace::seq_growth(t).last_y().unwrap_or(0.0);
            }
            (segments, retx, growth)
        });

        let out = tr.span(Layer::Verify, || {
            let lsl = mode == Mode::ViaDepot;
            let mut breach = None;
            if sender.state() != SenderState::Done {
                breach = Some(format!("sender ended {:?}", sender.state()));
            } else if outcomes.len() != 1 {
                breach = Some(format!("{} sink outcomes, want 1", outcomes.len()));
            } else if !outcomes[0].ok() {
                breach = Some(format!("sink outcome {:?}", outcomes[0].status));
            } else if outcomes[0].bytes != size {
                breach = Some(format!("sink got {} of {size} bytes", outcomes[0].bytes));
            } else if lsl && outcomes[0].digest_ok != Some(true) {
                breach = Some(format!("digest {:?}", outcomes[0].digest_ok));
            } else if !outcomes[0].content_ok {
                breach = Some("payload pattern mismatch".to_string());
            } else if segments == 0 {
                breach = Some("sender capture recorded nothing".to_string());
            }
            let sim_s = outcomes
                .first()
                .map_or(0.0, |o| (o.completed_at - sender.started_at).as_secs_f64());
            let fingerprint = format!(
                "case{} size {size} {mode:?} seed {} outcomes {:?} retx {} growth {}",
                case_idx + 1,
                cfg.seed,
                outcomes
                    .iter()
                    .map(|o| (o.status, o.bytes, o.digest_ok, o.completed_at))
                    .collect::<Vec<_>>(),
                retx,
                growth,
            );
            Outcome {
                wall_s: 0.0,
                sim_s,
                bytes: if breach.is_none() { size } else { 0 },
                completed: breach.is_none(),
                wall_sample: size == SIZES[0] && lsl,
                group_peak_rss_mb: None,
                breach,
                fingerprint,
            }
        });

        if traced {
            self.acc.links.add_all(&net);
            self.acc.pending_timers_max = self.acc.pending_timers_max.max(pending_max);
            self.acc.trace_segments += segments;
            self.acc.payload_bytes += size;
            if let Some(d) = &depot {
                self.acc.depot_bytes += d.stats().bytes_relayed;
            }
        }
        out
    }
}

impl Workload for PaperBulk {
    fn setup(seed: u64) -> PaperBulk {
        let mut w = PaperBulk {
            seed,
            cases: vec![case1(), case2(), case3(), case4()],
            acc: Acc::default(),
        };
        // Warm-up: one 1 MiB LSL transfer per case.
        let mut off = Tracer::new(false, 0);
        for c in 0..w.cases.len() {
            let out = w.transfer(
                c,
                SIZES[0],
                Mode::ViaDepot,
                mix(seed, 1 << 40, c as u64),
                &mut off,
            );
            assert!(
                out.breach.is_none(),
                "warm-up transfer failed: {:?}",
                out.breach
            );
        }
        w
    }

    fn group(&self) -> usize {
        PASS
    }

    fn session(&mut self, i: usize, tr: &mut Tracer) -> Outcome {
        let (pass, k) = (i / PASS, i % PASS);
        let mode = MODES[k % 2];
        // Pair 0 of a case is its 16 MiB pair, pairs 1.. its 1 MiB ones.
        let (c, pair) = if k < SMALL_PART {
            (k / (2 * ITERS_1MIB), 1 + (k % (2 * ITERS_1MIB)) / 2)
        } else {
            ((k - SMALL_PART) / 2, 0)
        };
        let size = if pair == 0 { SIZES[1] } else { SIZES[0] };
        let sim_seed = mix(self.seed, pass as u64, (c * (1 + ITERS_1MIB) + pair) as u64);
        let out = self.transfer(c, size, mode, sim_seed, tr);
        if tr.is_on() && pair == 0 {
            match mode {
                Mode::Direct => self.acc.direct_16_s = out.sim_s,
                Mode::ViaDepot => self
                    .acc
                    .gains
                    .push((self.acc.direct_16_s / out.sim_s - 1.0) * 100.0),
            }
        }
        out
    }

    fn layer_metrics(&mut self, tr: &Tracer, sessions: usize, m: &mut Metrics) {
        let n = sessions.max(1) as f64;
        self.acc.links.report(tr, n, m);
        m.set(
            "netsim.pending_timers_max",
            self.acc.pending_timers_max as f64,
        );
        m.set("trace.segments", self.acc.trace_segments as f64 / n);
        m.per_byte(
            "session.sender.ns_per_byte",
            tr,
            Layer::Sender,
            self.acc.payload_bytes,
        );
        m.per_byte(
            "session.sink.ns_per_byte",
            tr,
            Layer::Sink,
            self.acc.payload_bytes,
        );
        m.per_byte(
            "session.depot.ns_per_byte",
            tr,
            Layer::Depot,
            self.acc.depot_bytes,
        );
        // Every byte arrives whole and is sent once: no recovery here.
        m.set("session.useful_byte_ratio", 1.0);

        // Headline: mean simulated-throughput gain of LSL over direct
        // at 16 MiB, over the traced pairs.
        let gains = &self.acc.gains;
        if !gains.is_empty() {
            m.set(
                "lsl_gain_pct",
                gains.iter().sum::<f64>() / gains.len() as f64,
            );
        }
    }
}
