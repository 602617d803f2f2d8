//! Flight-recorder summarizer and observability CI gate.
//!
//! ```text
//! cargo run -p lsl-bench --release --bin obs-report                # seed 1
//! cargo run -p lsl-bench --release --bin obs-report -- --seed 42   # that seed
//! cargo run -p lsl-bench --release --bin obs-report -- --smoke     # CI gate
//! ```
//!
//! Default mode replays one chaos seed with telemetry recording on,
//! prints the flight-recorder summary (recovery arms, resume offsets,
//! bytes resent, histograms) and exports the run under `results/obs/`:
//! a perfetto-loadable Chrome trace (`.trace.json`), the raw span log
//! (`.spans.jsonl`, `.spans.dat`) and the metrics snapshot
//! (`.metrics.txt`).
//!
//! `--smoke` is the CI gate:
//!
//! 1. **Determinism** — the same seed is replayed twice and the full
//!    telemetry rendering must be byte-identical.
//! 2. **Trace shape** — the exported Chrome trace must carry the
//!    schema version, parse line-by-line, and have nondecreasing `ts`
//!    within each pid ([`validate_chrome_trace`]).
//! 3. **Idle overhead** — the netsim event-rate scenario (obs compiled
//!    in, recording *off* — the default) must stay within 3% of the
//!    committed `BENCH_netsim.json` figure. Override the floor with
//!    `OBS_PERF_MIN_RATIO` (e.g. `0.90` on noisy machines); the check
//!    is skipped with a note when the committed artifact is missing or
//!    was itself a smoke run.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use lsl_netsim::{Dur, LinkSpec, LossModel, Packet, TopologyBuilder};
use lsl_obs::export::{
    chrome_trace_json, validate_chrome_trace, write_chrome_trace, write_metrics_txt,
    write_span_dat, write_span_jsonl,
};
use lsl_obs::report::flight_recorder;
use lsl_workloads::{Campaign, CampaignConfig, ClientKind, RunReport, Scenario};

/// Mirror of the micro-benchmark's event-rate scenario: 1000 packets
/// through a lossy 2-hop path. Returns the number of events processed,
/// so the caller can turn wall time into events/sec comparable with
/// `BENCH_netsim.json`'s `netsim_events_per_sec`.
fn event_rate_scenario() -> u64 {
    let mut tb = TopologyBuilder::new();
    let a = tb.node("a");
    let r = tb.node("r");
    let z = tb.node("z");
    tb.duplex(a, r, LinkSpec::new(1_000_000_000, Dur::from_micros(100)));
    tb.duplex(
        r,
        z,
        LinkSpec::new(1_000_000_000, Dur::from_micros(100)).with_loss(LossModel::bernoulli(0.01)),
    );
    let mut sim = tb.build().into_sim(1);
    for _ in 0..1000 {
        sim.send(
            a,
            Packet::tcp(a, z, Bytes::new(), Bytes::from_static(&[0u8; 1000])),
        );
    }
    let mut n = 0u64;
    while sim.next().is_some() {
        n += 1;
    }
    n
}

/// Median-of-3 events/sec with recording idle (the gate measures the
/// compiled-in-but-disabled cost every non-telemetry run pays).
fn measure_events_per_sec() -> f64 {
    assert!(!lsl_obs::is_enabled(), "perf gate must measure idle cost");
    let events = event_rate_scenario();
    // Warm-up, then three measured passes of a fixed iteration count.
    black_box(event_rate_scenario());
    let iters = 20u32;
    let mut passes = [0.0f64; 3];
    for p in &mut passes {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(event_rate_scenario());
        }
        *p = t0.elapsed().as_secs_f64() / iters as f64;
    }
    passes.sort_by(|a, b| a.total_cmp(b));
    events as f64 / passes[1]
}

/// Pull `"key": <number>` out of the hand-rolled bench JSON (offline
/// build: no serde, and the artifact is one key per line).
fn json_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat)? + pat.len();
    let rest = json[start..].trim_start();
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The committed bench artifact, if present: (events/sec, was-smoke).
fn committed_rate() -> Option<(f64, bool)> {
    let path = std::env::var_os("BENCH_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_netsim.json")
        });
    let json = std::fs::read_to_string(path).ok()?;
    let rate = json_number(&json, "netsim_events_per_sec")?;
    let smoke = json.contains("\"smoke\": true");
    Some((rate, smoke))
}

fn replay(seed: u64) -> RunReport {
    let cfg = CampaignConfig {
        size: 256 * 1024,
        ..CampaignConfig::default()
    };
    Scenario::seeded(Campaign::Chaos, ClientKind::Plain, &cfg, seed).run()
}

fn smoke(seed: u64) -> i32 {
    // 1. Determinism: same seed, byte-identical telemetry.
    let r1 = replay(seed);
    let r2 = replay(seed);
    if r1.obs.render() != r2.obs.render() {
        eprintln!("obs-report: FAIL — same-seed telemetry differs (seed {seed})");
        return 1;
    }
    println!(
        "obs-report: seed {seed} telemetry deterministic ({} span events, digest {:016x})",
        r1.obs.spans.len(),
        r1.obs.digest()
    );

    // 2. Trace shape: schema version, parseable events, monotone ts.
    let label = format!("chaos seed {seed}");
    let json = chrome_trace_json(&[(label, &r1.obs)]);
    match validate_chrome_trace(&json) {
        Ok(n) => println!("obs-report: chrome trace valid ({n} events)"),
        Err(e) => {
            eprintln!("obs-report: FAIL — invalid chrome trace: {e}");
            return 1;
        }
    }

    // 3. Idle overhead vs the committed bench figure.
    let min_ratio: f64 = std::env::var("OBS_PERF_MIN_RATIO")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.97);
    match committed_rate() {
        None => println!("obs-report: no committed BENCH_netsim.json — perf check skipped"),
        Some((_, true)) => {
            println!("obs-report: committed bench is a smoke artifact — perf check skipped")
        }
        Some((committed, false)) => {
            let measured = measure_events_per_sec();
            let ratio = measured / committed;
            println!(
                "obs-report: netsim {measured:.0} events/sec vs committed {committed:.0} ({:.1}%)",
                ratio * 100.0
            );
            if ratio < min_ratio {
                eprintln!(
                    "obs-report: FAIL — idle-telemetry event rate regressed below {:.0}% of the committed figure",
                    min_ratio * 100.0
                );
                return 1;
            }
        }
    }
    println!("obs-report: smoke ok");
    0
}

fn summarize(seed: u64) -> i32 {
    let r = replay(seed);
    let label = format!("chaos seed {seed}");
    print!("{}", flight_recorder(&label, &r.obs));
    let stem = format!("chaos_seed{seed}");
    let runs = [(label, &r.obs)];
    for res in [
        write_chrome_trace("results/obs", &stem, &runs),
        write_span_jsonl("results/obs", &stem, &r.obs),
        write_span_dat("results/obs", &stem, &r.obs),
        write_metrics_txt("results/obs", &stem, &r.obs),
    ] {
        match res {
            Ok(p) => println!("wrote {}", p.display()),
            Err(e) => {
                eprintln!("obs-report: could not write artifact: {e}");
                return 1;
            }
        }
    }
    if !r.ok() {
        eprintln!(
            "obs-report: note — seed {seed} violated the chaos contract: {:?}",
            r.violations
        );
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let is_smoke = args.iter().any(|a| a == "--smoke");
    let mut seed: u64 = 1;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--seed" {
            seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("--seed requires an integer");
                std::process::exit(2);
            });
        } else if a != "--smoke" {
            eprintln!("unknown flag {a} (supported: --smoke, --seed N)");
            std::process::exit(2);
        }
    }
    let code = if is_smoke {
        smoke(seed)
    } else {
        summarize(seed)
    };
    std::process::exit(code);
}
