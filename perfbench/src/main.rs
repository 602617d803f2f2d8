//! End-to-end and per-layer benchmark for the LSL stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_bulk --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Every workload is a closed loop: one session at a time, each started
//! after the previous one ended. The loop lives here, not in the
//! repository's harnesses, so that every call into a layer can be
//! timed. `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs every session untraced and traced, back to back,
//! checks that both gave identical simulated results, and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object; see `perfbench/README.md` for every metric.

mod paper;
mod probe;
mod relay;
mod span;
mod storm;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use lsl_netsim::LinkId;
use lsl_tcp::Net;

use span::{Layer, Tracer};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// End-to-end statistics are medians over this many blocks of the run.
const BLOCKS: usize = 8;
/// Spans kept in memory by the traced run (later spans still count).
const SPAN_CAP: usize = 2_000_000;

/// The end-to-end metrics, printed by `--trace 0`: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("payload_mb_per_s", "MB/s"),
    ("session_wall_ms_p50", "ms"),
    ("session_wall_ms_p90", "ms"),
    ("completed_share", "share"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed by `--trace 1`: name and unit.
/// Counts and self times are per traced session.
const PER_LAYER: &[(&str, &str)] = &[
    ("tcp.poll.calls", "calls/session"),
    ("tcp.poll.self_s", "s/session"),
    ("tcp.poll.ns_per_call", "ns"),
    ("netsim.tx_packets", "pkts/session"),
    ("netsim.tx_bytes", "B/session"),
    ("netsim.drops", "pkts/session"),
    ("netsim.ns_per_packet", "ns"),
    ("netsim.pending_timers_max", "timers"),
    ("setup.calls", "calls/session"),
    ("setup.self_s", "s/session"),
    ("session.sender.calls", "calls/session"),
    ("session.sender.self_s", "s/session"),
    ("session.sender.ns_per_byte", "ns/B"),
    ("session.depot.calls", "calls/session"),
    ("session.depot.self_s", "s/session"),
    ("session.depot.ns_per_byte", "ns/B"),
    ("session.sink.calls", "calls/session"),
    ("session.sink.self_s", "s/session"),
    ("session.sink.ns_per_byte", "ns/B"),
    ("session.client.calls", "calls/session"),
    ("session.client.self_s", "s/session"),
    ("session.stripe.calls", "calls/session"),
    ("session.stripe.self_s", "s/session"),
    ("session.useful_byte_ratio", "ratio"),
    ("session.recovery_events", "events/session"),
    ("session.recovery_events.sublink_down", "events/session"),
    ("session.recovery_events.reconnecting", "events/session"),
    ("session.recovery_events.failed_over", "events/session"),
    ("session.recovery_events.rerouted", "events/session"),
    ("session.recovery_events.degraded", "events/session"),
    ("session.recovery_events.retransfer", "events/session"),
    ("session.recovery_events.resumed", "events/session"),
    ("session.recovery_events.stripe_lost", "events/session"),
    (
        "session.recovery_events.stripe_rebalanced",
        "events/session",
    ),
    ("session.recovery_events.failed", "events/session"),
    ("nws.sweep.calls", "calls/session"),
    ("nws.sweep.self_s", "s/session"),
    ("nws.scores.self_s", "s/session"),
    ("nws.probes", "probes/session"),
    ("obs.self_s", "s/session"),
    ("obs.spans", "spans/session"),
    ("obs.metric_series", "series/session"),
    ("obs.recorder_overhead", "ratio"),
    ("trace.segments", "records/session"),
    ("trace.analyze.self_s", "s/session"),
    ("realnet.connect.ms_p50", "ms"),
    ("realnet.write.mb_per_s", "MB/s"),
    ("realnet.read_all.mb_per_s", "MB/s"),
    ("realnet.depot.sessions", "sessions"),
    ("realnet.depot.bytes_relayed", "B"),
    ("realnet.depot.header_errors", "errors"),
    ("realnet.raw_tcp.mb_per_s", "MB/s"),
    ("digest.md5.mb_per_s", "MB/s"),
    ("session.payload_chunk.mb_per_s", "MB/s"),
    ("tcp.segment_codec.ns", "ns"),
    ("session.header_codec.ns", "ns"),
    ("lsl_gain_pct", "%"),
    ("sim_s_per_wall_s", "s/s"),
    ("bench.glue.self_s", "s/session"),
    ("bench.verify.self_s", "s/session"),
    ("bench.span_coverage", "share"),
    ("bench.trace_overhead", "ratio"),
    ("bench.sessions_checked", "sessions"),
    ("bench.wall_samples", "sessions"),
];

/// One session's result.
pub struct Outcome {
    /// Wall time of the session, filled in by `timed`.
    pub wall_s: f64,
    /// Simulated session time (0 on real sockets).
    pub sim_s: f64,
    /// Verified payload bytes delivered (0 unless completed).
    pub bytes: u64,
    /// The session ended in verified delivery.
    pub completed: bool,
    /// Counted in the `session_wall_ms_*` percentiles.
    pub wall_sample: bool,
    /// Peak resident memory during this session's group, MB; set by
    /// `drive` on the group's last session.
    pub group_peak_rss_mb: Option<f64>,
    /// A contract breach: the operation failed.
    pub breach: Option<String>,
    /// Simulated durations and sink outcomes, compared between the
    /// untraced and the traced replay of the same session.
    pub fingerprint: String,
}

/// A benchmark workload: a deterministic list of sessions from a seed.
pub trait Workload: Sized {
    /// Build what every session shares, and warm up.
    fn setup(seed: u64) -> Self;
    /// The loop checks the clock only every `group()` sessions, so a
    /// run always holds whole groups.
    fn group(&self) -> usize;
    /// Run session `i`.
    fn session(&mut self, i: usize, tr: &mut Tracer) -> Outcome;
    /// Per-layer metrics of the traced sessions (`sessions` of them).
    fn layer_metrics(&mut self, tr: &Tracer, sessions: usize, m: &mut Metrics);
    /// Switch the obs recorder; returns whether the workload runs one.
    fn set_obs(&mut self, _on: bool) -> bool {
        false
    }
}

/// Metric values by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// `ns` of self time in `layer` per byte.
    pub fn per_byte(&mut self, name: &'static str, tr: &Tracer, layer: Layer, bytes: u64) {
        if bytes > 0 {
            self.set(name, tr.agg(layer).self_ns as f64 / bytes as f64);
        }
    }
}

/// Link counters summed over every link of every traced session.
#[derive(Default)]
pub struct LinkTotals {
    tx_packets: u64,
    tx_bytes: u64,
    drops: u64,
}

impl LinkTotals {
    pub fn add_all(&mut self, net: &Net) {
        let sim = net.sim();
        for l in 0..sim.num_links() {
            let s = sim.link_stats(LinkId(l as u32));
            self.tx_packets += s.tx_packets;
            self.tx_bytes += s.tx_bytes;
            self.drops += s.drops();
        }
    }

    pub fn report(&self, tr: &Tracer, sessions: f64, m: &mut Metrics) {
        m.set("netsim.tx_packets", self.tx_packets as f64 / sessions);
        m.set("netsim.tx_bytes", self.tx_bytes as f64 / sessions);
        m.set("netsim.drops", self.drops as f64 / sessions);
        if self.tx_packets > 0 {
            m.set(
                "netsim.ns_per_packet",
                tr.agg(Layer::TcpPoll).self_ns as f64 / self.tx_packets as f64,
            );
        }
    }
}

/// SplitMix64 finalizer.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derive an input seed from the run seed and two indices.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    splitmix(splitmix(seed ^ splitmix(a)) ^ b)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Reset this process's peak-RSS mark to its current RSS (Linux
/// `clear_refs` 5). Without it, group peaks are the running peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process, MB, from `/proc`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in (0, 100].
fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Whether the loop stops before session `i`: only at a group
/// boundary, the one nearest the budget.
fn stop_before(i: usize, group: usize, t0: Instant, budget_s: f64) -> bool {
    if i == 0 || !i.is_multiple_of(group) {
        return false;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let per_group = elapsed / (i / group) as f64;
    elapsed + per_group / 2.0 >= budget_s
}

/// Run session `i` inside its root span and time it.
fn timed<W: Workload>(w: &mut W, tr: &mut Tracer, i: usize) -> Outcome {
    let s0 = Instant::now();
    tr.begin_session(i as u32);
    let mut out = w.session(i, tr);
    tr.exit();
    out.wall_s = s0.elapsed().as_secs_f64();
    out
}

/// The untraced run: sessions until `budget_s`, at whole groups, with
/// the peak-RSS mark reset at each group start.
fn drive<W: Workload>(w: &mut W, budget_s: f64) -> Vec<Outcome> {
    let group = w.group();
    let mut off = Tracer::new(false, 0);
    let mut outs = Vec::new();
    let t0 = Instant::now();
    for i in 0.. {
        if stop_before(i, group, t0, budget_s) {
            break;
        }
        if i.is_multiple_of(group) {
            reset_peak_rss();
        }
        let mut out = timed(w, &mut off, i);
        if (i + 1).is_multiple_of(group) {
            out.group_peak_rss_mb = Some(peak_rss_mb());
        }
        outs.push(out);
    }
    outs
}

struct Report {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// Count (and report) the sessions that breached their contract.
fn count_failed<'a>(outs: impl IntoIterator<Item = &'a Outcome>) -> u64 {
    let mut failed = 0;
    for o in outs {
        if let Some(breach) = &o.breach {
            eprintln!("contract breach: {breach} ({})", o.fingerprint);
            failed += 1;
        }
    }
    failed
}

/// Count (and report) the sessions whose replay differs from the first
/// run of the same session.
fn count_diverged(first: &[Outcome], replay: &[Outcome]) -> u64 {
    let mut diverged = 0;
    for (a, b) in first.iter().zip(replay) {
        if a.fingerprint != b.fingerprint {
            eprintln!(
                "replay diverged:\n  first  {}\n  replay {}",
                a.fingerprint, b.fingerprint
            );
            diverged += 1;
        }
    }
    diverged
}

/// Each statistic is taken per block of whole groups (up to
/// `BLOCKS` consecutive blocks) and reported as the median over the
/// blocks, so a burst of machine noise, or one storm that needs more
/// memory than the rest, moves one block, not the result: sessions
/// completed and MB delivered per wall second, and the peak resident
/// memory.
fn block_stats(outs: &[Outcome], group: usize) -> [f64; 3] {
    let groups = (outs.len() / group).max(1);
    let blocks = groups.min(BLOCKS);
    let mut stats: [Vec<f64>; 3] = Default::default();
    for b in 0..blocks {
        let lo = b * groups / blocks * group;
        let hi = ((b + 1) * groups / blocks * group).min(outs.len());
        let block = &outs[lo..hi];
        let wall: f64 = block.iter().map(|o| o.wall_s).sum();
        stats[0].push(block.iter().filter(|o| o.completed).count() as f64 / wall);
        stats[1].push(block.iter().map(|o| o.bytes).sum::<u64>() as f64 / 1e6 / wall);
        stats[2].push(
            block
                .iter()
                .filter_map(|o| o.group_peak_rss_mb)
                .fold(0.0, f64::max),
        );
    }
    stats.map(|mut v| median(&mut v))
}

fn end_to_end(outs: &[Outcome], group: usize, setup_s: f64) -> Metrics {
    let mut m = Metrics::default();
    let done = outs.iter().filter(|o| o.completed).count();
    let [sessions_per_s, mb_per_s, peak_rss] = block_stats(outs, group);
    // Percentiles over the whole run: a block holds too few samples.
    let mut samples: Vec<f64> = outs
        .iter()
        .filter(|o| o.wall_sample)
        .map(|o| o.wall_s * 1e3)
        .collect();
    m.set("setup_s", setup_s);
    m.set("sessions_per_s", sessions_per_s);
    m.set("payload_mb_per_s", mb_per_s);
    m.set("session_wall_ms_p50", percentile(&mut samples, 50.0));
    m.set("session_wall_ms_p90", percentile(&mut samples, 90.0));
    m.set("completed_share", done as f64 / outs.len().max(1) as f64);
    m.set("peak_rss_mb", peak_rss);
    m
}

fn run<W: Workload>(args: &Args) -> Report {
    // Set up several times; keep the last instance, report the median.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut w = None;
    for _ in 0..SETUP_REPS {
        drop(w.take());
        let t0 = Instant::now();
        w = Some(W::setup(args.seed));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = median(&mut setups);
    let mut w = w.expect("at least one set-up");

    if !args.trace {
        let outs = drive(&mut w, args.seconds);
        let failed = count_failed(&outs);
        println!(
            "{} sessions ({} wall samples), set-up median {setup_s:.4} s",
            outs.len(),
            outs.iter().filter(|o| o.wall_sample).count()
        );
        return Report {
            attempted: outs.len() as u64,
            failed,
            metrics: end_to_end(&outs, w.group(), setup_s),
        };
    }

    // Traced run: every session runs untraced, traced, and (where the
    // workload records obs) untraced with the recorder off, back to
    // back, in alternating order so machine drift hits all alike.
    let group = w.group();
    let mut off = Tracer::new(false, 0);
    let mut tr = Tracer::new(true, SPAN_CAP);
    let (mut plain, mut traced, mut bare) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    for i in 0.. {
        if stop_before(i, group, t0, args.seconds) {
            break;
        }
        let order = if i.is_multiple_of(2) {
            [0, 1, 2]
        } else {
            [2, 1, 0]
        };
        for run in order {
            match run {
                0 => plain.push(timed(&mut w, &mut off, i)),
                1 => traced.push(timed(&mut w, &mut tr, i)),
                _ => {
                    if w.set_obs(false) {
                        bare.push(timed(&mut w, &mut off, i));
                        w.set_obs(true);
                    }
                }
            }
        }
    }
    let wall = |outs: &[Outcome]| outs.iter().map(|o| o.wall_s).sum::<f64>();
    let (plain_wall, traced_wall) = (wall(&plain), wall(&traced));
    let n = traced.len();
    let mut m = Metrics::default();
    w.layer_metrics(&tr, n, &mut m);
    if !bare.is_empty() {
        m.set("obs.recorder_overhead", plain_wall / wall(&bare) - 1.0);
    }
    let diverged = count_diverged(&plain, &traced) + count_diverged(&plain, &bare);
    probe::run_all(&mut m);

    // `<layer>.calls` and `<layer>.self_s`, per session, for the layers
    // the catalog lists.
    let per = n.max(1) as f64;
    for layer in Layer::ALL {
        let a = tr.agg(layer);
        for (suffix, value) in [
            ("calls", a.calls as f64 / per),
            ("self_s", a.self_ns as f64 / 1e9 / per),
        ] {
            let key = format!("{}.{suffix}", layer.name());
            if let Some(&(name, _)) = PER_LAYER.iter().find(|(k, _)| *k == key) {
                m.set(name, value);
            }
        }
    }
    let poll = tr.agg(Layer::TcpPoll);
    if poll.calls > 0 {
        m.set(
            "tcp.poll.ns_per_call",
            poll.self_ns as f64 / poll.calls as f64,
        );
    }
    m.set(
        "bench.glue.self_s",
        tr.agg(Layer::Session).self_ns as f64 / 1e9 / per,
    );
    m.set("bench.span_coverage", tr.program_self_s() / traced_wall);
    m.set("bench.trace_overhead", traced_wall / plain_wall - 1.0);
    let sim_s: f64 = plain.iter().map(|o| o.sim_s).sum();
    m.set("sim_s_per_wall_s", sim_s / plain_wall);
    m.set("bench.sessions_checked", n as f64);
    m.set(
        "bench.wall_samples",
        traced.iter().filter(|o| o.wall_sample).count() as f64,
    );

    let path =
        Path::new(".bench_out").join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    match tr.write_tsv(&path) {
        Ok(()) => println!(
            "wrote {} ({} spans not kept past the cap)",
            path.display(),
            tr.dropped()
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    println!(
        "{n} sessions: untraced {plain_wall:.3} s, traced {traced_wall:.3} s, program self time {:.3} s",
        tr.program_self_s()
    );

    let failed = count_failed(plain.iter().chain(&traced).chain(&bare)) + diverged;
    Report {
        attempted: (plain.len() + n + bare.len()) as u64,
        failed,
        metrics: m,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: --workload <paper_bulk|fault_storm|realnet_relay> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "paper_bulk" => run::<paper::PaperBulk>(&args),
        "fault_storm" => run::<storm::FaultStorm>(&args),
        "realnet_relay" => run::<relay::RealnetRelay>(&args),
        w => {
            eprintln!("error: unknown workload {w}");
            return ExitCode::from(2);
        }
    };
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    for name in report.metrics.0.keys() {
        assert!(
            catalog.iter().any(|(k, _)| k == name),
            "metric {name} is not in the catalog"
        );
    }
    let mut fields = Vec::with_capacity(catalog.len());
    for &(name, unit) in catalog {
        let v = report.metrics.0.get(name).copied().unwrap_or(0.0);
        println!("{name:<42} {v:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
