//! ISSUE 5 acceptance: the seeded chaos-storm soak. 64 seeds of random
//! fault storms against the failover topology, every run checked against
//! the termination / typed-outcome / no-reverified-block / invariants
//! contract, with every `FaultKind` exercised somewhere in the batch —
//! plus the campaign-level determinism guarantee across job counts.

use std::collections::BTreeSet;

use lsl_session::SessionEvent;
use lsl_workloads::{default_jobs, run_scenarios, Campaign, CampaignConfig, RunReport};

fn chaos(n: usize, jobs: usize) -> Vec<RunReport> {
    run_scenarios(
        &Campaign::Chaos.scenarios(&CampaignConfig::default(), n),
        jobs,
    )
}

#[test]
fn chaos_soak_64_seeds_pass_contract_and_cover_every_fault_kind() {
    let runs = chaos(64, default_jobs());
    assert_eq!(runs.len(), 64);

    let mut kinds: BTreeSet<&'static str> = BTreeSet::new();
    for r in &runs {
        assert!(
            r.ok(),
            "seed {} violated the contract: {:?}\n{}",
            r.seed(),
            r.violations,
            r.fingerprint()
        );
        kinds.extend(r.kinds());
    }
    for k in ["LinkDown", "LinkUp", "NodeDown", "NodeUp", "SublinkRst"] {
        assert!(kinds.contains(k), "no seed exercised {k}");
    }

    // The soak is only meaningful if the storms actually bite: some
    // seeds must have survived via failover, and some via resume (the
    // tentpole path — a reconnect granted a non-zero offset).
    assert!(runs.iter().any(|r| r
        .timeline
        .iter()
        .any(|(_, e)| matches!(e, SessionEvent::FailedOver { .. }))));
    assert!(runs
        .iter()
        .any(|r| r.timeline.iter().any(
            |(_, e)| matches!(e, SessionEvent::Resumed { from_block, .. } if *from_block > 0)
        )));
}

/// Golden determinism: the campaign's per-seed output is byte-identical
/// whether seeds run sequentially or fanned out over 8 workers.
#[test]
fn chaos_campaign_fingerprints_identical_across_job_counts() {
    let seq: Vec<String> = chaos(8, 1).iter().map(RunReport::fingerprint).collect();
    let par: Vec<String> = chaos(8, 8).iter().map(RunReport::fingerprint).collect();
    assert_eq!(
        seq, par,
        "chaos campaign must be byte-identical at --jobs 1 vs --jobs 8"
    );
}
