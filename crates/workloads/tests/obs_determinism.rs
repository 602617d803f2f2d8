//! ISSUE 6 acceptance: the observability plane is deterministic.
//!
//! Same seed ⇒ byte-identical span log and metrics snapshot, run after
//! run and whatever the campaign `--jobs` count; the merged Chrome
//! trace built from index-ordered reports is byte-identical too and
//! always passes shape validation. This extends the chaos fingerprint
//! contract (the fingerprint embeds the telemetry digest).

use lsl_obs::export::{chrome_trace_json, validate_chrome_trace};
use lsl_workloads::{run_scenarios, Campaign, CampaignConfig, ClientKind, RunReport, Scenario};

fn quick_cfg() -> CampaignConfig {
    CampaignConfig {
        size: 256 * 1024,
        ..CampaignConfig::default()
    }
}

fn chaos_seed(seed: u64) -> RunReport {
    Scenario::seeded(Campaign::Chaos, ClientKind::Plain, &quick_cfg(), seed).run()
}

fn chaos_campaign(n: usize, jobs: usize) -> Vec<RunReport> {
    run_scenarios(&Campaign::Chaos.scenarios(&quick_cfg(), n), jobs)
}

#[test]
fn same_seed_telemetry_is_byte_identical() {
    for seed in [1u64, 3, 7] {
        let a = chaos_seed(seed);
        let b = chaos_seed(seed);
        assert!(!a.obs.is_empty(), "seed {seed} recorded no telemetry");
        // Full canonical rendering: every span line and every metric.
        assert_eq!(
            a.obs.render(),
            b.obs.render(),
            "seed {seed}: span log / metrics snapshot differ across reruns"
        );
        assert_eq!(a.obs.digest(), b.obs.digest());
    }
}

#[test]
fn telemetry_identical_across_job_counts() {
    let seq = chaos_campaign(8, 1);
    let par = chaos_campaign(8, 8);
    for (a, b) in seq.iter().zip(par.iter()) {
        assert_eq!(
            a.obs.render(),
            b.obs.render(),
            "seed {}: telemetry must not depend on --jobs",
            a.seed()
        );
    }
    // Index-ordered merge: the combined perfetto trace is one artifact,
    // byte-identical whichever worker produced each report.
    let merge = |runs: &[RunReport]| {
        let labelled: Vec<(String, &lsl_obs::ObsReport)> = runs
            .iter()
            .map(|r| (format!("chaos seed {}", r.seed()), &r.obs))
            .collect();
        chrome_trace_json(&labelled)
    };
    let j1 = merge(&seq);
    let j8 = merge(&par);
    assert_eq!(j1, j8, "merged chrome trace must be byte-identical");
    validate_chrome_trace(&j1).expect("merged trace passes shape validation");
}

#[test]
fn span_log_is_time_ordered_and_instrumentation_covers_the_ladder() {
    // One stormy seed: spans must be nondecreasing in sim time, and the
    // instrumented surface (sublink establish, verdict drain, depot
    // relay occupancy) must actually appear.
    let r = chaos_seed(3);
    let spans = &r.obs.spans;
    assert!(spans.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    for name in [
        "session.client",
        "session.attempt",
        "session.sublink.establish",
        "sink.verdict.drain",
        "depot.relay",
    ] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "no `{name}` span in seed 3's log"
        );
    }
    assert!(r.obs.metrics.hist("tcp.cwnd").is_some(), "cwnd samples");
}
