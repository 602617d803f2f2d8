//! Fault-campaign binary: one entry point for the four campaigns of the
//! scenario harness (`lsl_workloads::scenario`).
//!
//! ```text
//! cargo run -p lsl-bench --release --bin campaign -- faults             # the 4 drills, seed 0
//! cargo run -p lsl-bench --release --bin campaign -- faults --seeds 5
//! cargo run -p lsl-bench --release --bin campaign -- chaos              # 64 storm seeds
//! cargo run -p lsl-bench --release --bin campaign -- routing --smoke    # CI gate: 8 seeds
//! cargo run -p lsl-bench --release --bin campaign -- striped --seeds 256 --jobs 8
//! ```
//!
//! Every subcommand takes `--smoke` (the CI gate: 8 storm seeds, or
//! only the depot-crash and access-flap drills), `--seeds N` (default
//! 64, or 1 for the drills) and `--jobs N` (default `LSL_JOBS`, else the
//! machine's parallelism; output is byte-identical at any value).
//!
//! Each run prints one summary row (the drills also print their
//! recovery timeline) and the campaign exports `.dat` curves under
//! `results/`:
//!
//! * `faults` — `faults_<drill>.dat`, seed 0's timeline (not in smoke);
//! * `chaos` — `chaos_outcomes.dat` (per-seed duration and resume
//!   offset) and `chaos_timeline.dat` (the first storm that resumed);
//! * `routing` — `routing_outcomes.dat` (both arms' durations and the
//!   forecast arm's proactive re-route count);
//! * `striped` — `striped_outcomes.dat` (duration, certified and stolen
//!   blocks, regrants).
//!
//! Gates, in order: every run satisfies the contract (and each drill its
//! recovery shape); the first runs re-run sequentially fingerprint
//! byte-identically; routing's forecast arm completes at least as many
//! transfers as the static arm, at a mean completed duration no worse
//! than static + 5%; striping a calm seed is not slower than its single
//! cascade. A failing run ships its telemetry under `results/obs/`
//! (perfetto trace, metrics, flight recorder) and shrinks its storm to a
//! 1-minimal paste-able `FaultPlan` drill; the exit status is non-zero.

use std::collections::BTreeSet;

use lsl_netsim::StormPlan;
use lsl_obs::export::{write_chrome_trace, write_metrics_txt};
use lsl_obs::report::flight_recorder;
use lsl_session::SessionEvent;
use lsl_trace::export::{write_dat, write_timeline_dat};
use lsl_workloads::{
    default_jobs, run_scenarios, Campaign, CampaignConfig, ClientKind, Drill, RunReport, Scenario,
};

struct Args {
    campaign: Campaign,
    smoke: bool,
    seeds: usize,
    jobs: usize,
}

fn usage() -> ! {
    eprintln!("usage: campaign <faults|chaos|routing|striped> [--smoke] [--seeds N] [--jobs N]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| usage());
    let campaign = Campaign::ALL
        .into_iter()
        .find(|c| c.name() == name)
        .unwrap_or_else(|| usage());
    let rest: Vec<String> = args.collect();
    let smoke = rest.iter().any(|a| a == "--smoke");
    let mut out = Args {
        campaign,
        smoke,
        seeds: match campaign {
            Campaign::Faults => 1,
            _ if smoke => 8,
            _ => 64,
        },
        jobs: default_jobs(),
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut count = |flag: &str| {
            it.next()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    eprintln!("{flag} requires a positive integer");
                    std::process::exit(2);
                })
        };
        match a.as_str() {
            "--smoke" => {}
            "--seeds" => out.seeds = count("--seeds"),
            "--jobs" => out.jobs = count("--jobs"),
            _ => usage(),
        }
    }
    out
}

fn resumed_offset(r: &RunReport) -> Option<u64> {
    r.timeline.iter().find_map(|(_, e)| match e {
        SessionEvent::Resumed { offset, .. } => Some(*offset),
        _ => None,
    })
}

fn timeline_rows(r: &RunReport) -> Vec<(f64, String)> {
    r.timeline
        .iter()
        .map(|(t, ev)| (t.as_secs_f64(), format!("{ev:?}")))
        .collect()
}

/// One per-seed curve over `runs`, for the plotting pipeline.
fn curve<'a>(
    runs: impl Iterator<Item = &'a RunReport>,
    f: impl Fn(&RunReport) -> f64,
) -> Vec<(f64, f64)> {
    runs.map(|r| (r.seed() as f64, f(r))).collect()
}

fn warn_on_err<T, E: std::fmt::Display>(what: &str, res: Result<T, E>) {
    if let Err(e) = res {
        eprintln!("warning: could not write {what}: {e}");
    }
}

fn stolen(r: &RunReport) -> u64 {
    r.lanes.iter().map(|l| l.blocks_stolen).sum()
}

fn state(r: &RunReport) -> String {
    format!("{:?}", r.state)
}

/// Print the campaign's summary rows and write its `.dat` exports.
fn report(args: &Args, reports: &[RunReport]) {
    match args.campaign {
        Campaign::Faults => {
            println!(
                "{:<16} {:>5} {:<10} {:>5} {:>7} {:>9}",
                "scenario", "seed", "state", "route", "events", "dur_s"
            );
            for (i, r) in reports.iter().enumerate() {
                let name = Drill::ALL[i / args.seeds].name();
                println!(
                    "{:<16} {:>5} {:<10} {:>5} {:>7} {:>9.3}",
                    name,
                    r.seed(),
                    state(r),
                    r.route_used,
                    r.timeline.len(),
                    r.duration_s,
                );
                for (t, ev) in &r.timeline {
                    println!("    {t:?} {ev:?}");
                }
                if r.seed() == 0 && !args.smoke {
                    let stem = format!("faults_{name}");
                    warn_on_err(
                        "timeline .dat",
                        write_timeline_dat("results", &stem, &timeline_rows(r)),
                    );
                }
            }
        }
        Campaign::Chaos => {
            println!(
                "{:>5} {:<28} {:>5} {:>5} {:>10} {:>9}  kinds",
                "seed", "state", "route", "atoms", "resume_at", "dur_s"
            );
            for r in reports {
                println!(
                    "{:>5} {:<28} {:>5} {:>5} {:>10} {:>9.3}  {}",
                    r.seed(),
                    state(r),
                    r.route_used,
                    r.scenario.storm.atoms.len(),
                    resumed_offset(r).map_or("-".into(), |o| o.to_string()),
                    r.duration_s,
                    r.kinds().into_iter().collect::<Vec<_>>().join(","),
                );
            }
            // Resume offset where a resume happened, 0 elsewhere, keeps
            // the curve dense.
            let dur = curve(reports.iter(), |r| r.duration_s);
            let resume = curve(reports.iter(), |r| resumed_offset(r).unwrap_or(0) as f64);
            warn_on_err(
                "chaos_outcomes.dat",
                write_dat(
                    "results",
                    "chaos_outcomes",
                    &[("duration_s", &dur), ("resume_offset", &resume)],
                ),
            );
            if let Some(r) = reports.iter().find(|r| resumed_offset(r).is_some()) {
                warn_on_err(
                    "chaos_timeline.dat",
                    write_timeline_dat("results", "chaos_timeline", &timeline_rows(r)),
                );
            }
        }
        Campaign::Routing => {
            println!(
                "{:>5} {:>5}  {:<22} {:>9}  {:<22} {:>9} {:>8} {:>7}",
                "seed", "atoms", "static", "dur_s", "forecast", "dur_s", "reroutes", "probes"
            );
            for p in reports.chunks(2) {
                let (s, f) = (&p[0], &p[1]);
                println!(
                    "{:>5} {:>5}  {:<22} {:>9.3}  {:<22} {:>9.3} {:>8} {:>7}",
                    s.seed(),
                    s.scenario.storm.atoms.len(),
                    state(s),
                    s.duration_s,
                    state(f),
                    f.duration_s,
                    f.reroutes(),
                    f.probes,
                );
            }
            let arm = |k| reports.iter().filter(move |r| r.scenario.client == k);
            let s_dur = curve(arm(ClientKind::Plain), |r| r.duration_s);
            let f_dur = curve(arm(ClientKind::Forecast), |r| r.duration_s);
            let rr = curve(arm(ClientKind::Forecast), |r| r.reroutes() as f64);
            warn_on_err(
                "routing_outcomes.dat",
                write_dat(
                    "results",
                    "routing_outcomes",
                    &[
                        ("static_duration_s", &s_dur),
                        ("forecast_duration_s", &f_dur),
                        ("forecast_reroutes", &rr),
                    ],
                ),
            );
        }
        Campaign::Striped => {
            println!(
                "{:>5} {:<28} {:>4} {:>4} {:>6} {:>6} {:>9} {:>8} {:>9}",
                "seed", "state", "casc", "dead", "stolen", "redun", "certified", "regrant", "dur_s"
            );
            for r in reports {
                println!(
                    "{:>5} {:<28} {:>4} {:>4} {:>6} {:>6} {:>4}/{:<4} {:>8} {:>9.3}",
                    r.seed(),
                    state(r),
                    r.cascades,
                    r.lanes.iter().filter(|l| l.dead).count(),
                    stolen(r),
                    r.lanes.iter().map(|l| l.redundant_attempts).sum::<u64>(),
                    r.certified,
                    r.expected_blocks,
                    r.regrants,
                    r.duration_s,
                );
            }
            let curve = |f: fn(&RunReport) -> f64| curve(reports.iter(), f);
            warn_on_err(
                "striped_outcomes.dat",
                write_dat(
                    "results",
                    "striped_outcomes",
                    &[
                        ("duration_s", &curve(|r| r.duration_s)),
                        ("certified_blocks", &curve(|r| r.certified as f64)),
                        ("stolen_blocks", &curve(|r| stolen(r) as f64)),
                        ("regrants", &curve(|r| r.regrants as f64)),
                    ],
                ),
            );
        }
    }
}

/// Ship a failing run: its fingerprint and flight-recorder summary on
/// stderr, its perfetto timeline and metrics under `results/obs/`.
fn ship(prefix: &str, r: &RunReport, why: &str) {
    let label = format!("{prefix} seed {}", r.seed());
    let stem = format!("{}_fail_seed{}", prefix.replace(' ', "_"), r.seed());
    eprintln!("\nFAIL {label}: {why}");
    eprint!("{}", r.fingerprint());
    match write_chrome_trace("results/obs", &stem, &[(label.clone(), &r.obs)]) {
        Ok(p) => eprintln!("perfetto timeline: {}", p.display()),
        Err(e) => eprintln!("warning: could not write {stem}.trace.json: {e}"),
    }
    warn_on_err("metrics", write_metrics_txt("results/obs", &stem, &r.obs));
    let summary = flight_recorder(&label, &r.obs);
    let path = std::path::Path::new("results/obs").join(format!("{stem}.flight.txt"));
    match std::fs::write(&path, &summary) {
        Ok(()) => eprintln!("flight recorder: {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    eprint!("{summary}");
}

/// Exit non-zero with `why`, prefixed by the campaign name.
fn fail(campaign: Campaign, why: &str) -> ! {
    eprintln!("{}: {why}", campaign.name());
    std::process::exit(1);
}

/// The campaign-level gate once every run passed; returns the closing
/// summary line.
fn gate(args: &Args, cfg: &CampaignConfig, reports: &[RunReport]) -> String {
    let smoke = if args.smoke { " (smoke)" } else { "" };
    let seeds = args.seeds;
    match args.campaign {
        Campaign::Faults => format!("{} scenario run(s) ok{smoke}", reports.len()),
        Campaign::Chaos => {
            let kinds: BTreeSet<&str> = reports.iter().flat_map(RunReport::kinds).collect();
            let kinds = kinds.into_iter().collect::<Vec<_>>().join(",");
            format!("{seeds} seed(s) ok{smoke}, fault kinds covered: {kinds}")
        }
        Campaign::Routing => {
            let pairs: Vec<&[RunReport]> = reports.chunks(2).collect();
            let done = |arm: usize| pairs.iter().filter(|p| p[arm].completed()).count();
            let (s_done, f_done) = (done(0), done(1));
            let both: Vec<&&[RunReport]> = pairs
                .iter()
                .filter(|p| p[0].completed() && p[1].completed())
                .collect();
            let mean = |arm: usize| -> f64 {
                both.iter().map(|p| p[arm].duration_s).sum::<f64>() / both.len().max(1) as f64
            };
            let (s_mean, f_mean) = (mean(0), mean(1));
            let reroutes: usize = pairs.iter().map(|p| p[1].reroutes()).sum();
            println!(
                "routing: completed static {s_done}/{seeds} forecast {f_done}/{seeds}; \
                 mean duration (both-completed, n={}) static {s_mean:.3}s forecast {f_mean:.3}s; \
                 {reroutes} proactive reroute(s)",
                both.len()
            );
            if f_done < s_done {
                fail(
                    args.campaign,
                    &format!(
                        "forecast completed fewer transfers than static ({f_done} < {s_done})"
                    ),
                );
            }
            if !both.is_empty() && f_mean > s_mean * 1.05 {
                fail(
                    args.campaign,
                    &format!(
                        "forecast mean duration {f_mean:.3}s worse than static {s_mean:.3}s + 5%"
                    ),
                );
            }
            format!("{seeds} seed(s) ok{smoke}")
        }
        Campaign::Striped => {
            // The RAIL claim: on the lossy-backbone topology, concurrent
            // Mathis-limited cascades must aggregate at least the single
            // cascade's throughput. Calm seed, identical sim timing.
            let calm = |max_cascades| {
                let mut cfg = cfg.clone();
                cfg.stripe.max_cascades = max_cascades;
                let storm = StormPlan {
                    seed: 11,
                    atoms: Vec::new(),
                };
                let client = ClientKind::Striped;
                let campaign = Campaign::Striped;
                Scenario {
                    campaign,
                    client,
                    storm,
                    cfg,
                }
                .run()
            };
            let (striped, single) = (calm(cfg.stripe.max_cascades), calm(1));
            let speedup = single.duration_s / striped.duration_s.max(1e-9);
            println!(
                "striped-vs-single: striped {:.3}s ({} cascades) vs single {:.3}s — speedup {speedup:.2}x",
                striped.duration_s, striped.cascades, single.duration_s
            );
            if !(striped.completed() && single.completed())
                || striped.duration_s > single.duration_s
            {
                fail(args.campaign, "striping lost to the single cascade");
            }
            format!("{seeds} seed(s) ok{smoke}, zero verified-block re-sends")
        }
    }
}

fn main() {
    let args = parse_args();
    let name = args.campaign.name();
    let cfg = CampaignConfig::default();
    let mut scenarios = args.campaign.scenarios(&cfg, args.seeds);
    if args.smoke && args.campaign == Campaign::Faults {
        // The CI gate: one depot crash, one link flap.
        scenarios.truncate(2 * args.seeds);
    }
    let reports = run_scenarios(&scenarios, args.jobs);
    report(&args, &reports);

    // One failure path for every campaign: a contract breach, or a drill
    // that recovered the wrong way.
    let drill = |i: usize| (args.campaign == Campaign::Faults).then(|| Drill::ALL[i / args.seeds]);
    let verdict = |i: usize, r: &RunReport| -> Option<String> {
        if !r.ok() {
            return Some(format!("{:?}", r.violations));
        }
        drill(i).and_then(|d| d.expect(r).err()).map(str::to_string)
    };
    let mut failed = 0;
    for (i, (s, r)) in scenarios.iter().zip(&reports).enumerate() {
        let Some(why) = verdict(i, r) else { continue };
        failed += 1;
        let prefix = match drill(i) {
            Some(d) => format!("{name} {}", d.name()),
            None if args.campaign.arms().len() > 1 => {
                format!("{name} {}", format!("{:?}", s.client).to_lowercase())
            }
            None => name.to_string(),
        };
        ship(&prefix, r, &why);
        eprintln!("shrinking storm ({} atoms)...", s.storm.atoms.len());
        let minimal = s.shrink(|r| verdict(i, r).is_some());
        eprintln!(
            "minimal reproduction ({} of {} atoms) — paste as a drill:\n{}",
            minimal.atoms.len(),
            s.storm.atoms.len(),
            minimal.drill()
        );
    }
    if failed > 0 {
        fail(
            args.campaign,
            &format!("{failed} of {} run(s) failed", reports.len()),
        );
    }

    // The head of the campaign, re-run sequentially, must fingerprint
    // byte-identically to what the fan-out produced.
    let head = reports.len().min(3 * args.campaign.arms().len());
    for (i, r) in reports[..head].iter().enumerate() {
        if scenarios[i].run().fingerprint() != r.fingerprint() {
            let why = format!(
                "run {i} fingerprint differs between --jobs {} and 1",
                args.jobs
            );
            fail(args.campaign, &why);
        }
    }

    println!("{name}: {}", gate(&args, &cfg, &reports));
}
