//! Striped-session soak acceptance: 64 seeds of random fault storms —
//! each with a guaranteed targeted mid-transfer kill of one depot —
//! against the three-depot striping topology. Every run is checked
//! against the striped contract, whose load-bearing clause is the
//! **zero-verified-resend guarantee**: the sink's `stripe_regrants`
//! counter (grants that still contained a verified block) must be zero
//! for every seed, however many cascades died.

use std::collections::BTreeSet;

use lsl_session::SessionEvent;
use lsl_workloads::{default_jobs, run_scenarios, Campaign, CampaignConfig};

#[test]
fn striped_soak_64_seeds_never_resend_a_verified_block() {
    let scenarios = Campaign::Striped.scenarios(&CampaignConfig::default(), 64);
    let runs = run_scenarios(&scenarios, default_jobs());
    assert_eq!(runs.len(), 64);

    let mut kinds: BTreeSet<&'static str> = BTreeSet::new();
    for r in &runs {
        assert!(
            r.ok(),
            "seed {} violated the striped contract: {:?}\n{}",
            r.seed(),
            r.violations,
            r.fingerprint()
        );
        // The contract already folds this in; assert it explicitly so a
        // future contract refactor can't silently drop the clause.
        assert_eq!(
            r.regrants,
            0,
            "seed {}: a stripe grant contained a verified block",
            r.seed()
        );
        kinds.extend(r.kinds());
    }
    for k in ["LinkDown", "LinkUp", "NodeDown", "SublinkRst"] {
        assert!(kinds.contains(k), "no seed exercised {k}");
    }

    // The soak is only meaningful if cascade death actually bites: some
    // seeds must have lost a lane outright and re-striped its blocks
    // onto survivors, and some must have completed despite it.
    let lost = runs.iter().any(|r| {
        r.timeline
            .iter()
            .any(|(_, e)| matches!(e, SessionEvent::StripeLost { .. }))
    });
    let rebalanced = runs.iter().any(|r| {
        r.timeline
            .iter()
            .any(|(_, e)| matches!(e, SessionEvent::StripeRebalanced { .. }))
    });
    assert!(lost, "no seed ever killed a cascade outright");
    assert!(rebalanced, "no survivor ever picked up re-striped blocks");
    assert!(
        runs.iter().filter(|r| r.completed()).count() >= 48,
        "too few seeds completed: {}",
        runs.iter().filter(|r| r.completed()).count()
    );

    // Work stealing and redundant tail dispatch must both have fired
    // somewhere in the batch — the dispatcher's other two arms.
    assert!(runs
        .iter()
        .any(|r| r.lanes.iter().any(|l| l.blocks_stolen > 0)));
    assert!(runs
        .iter()
        .any(|r| r.lanes.iter().any(|l| l.redundant_attempts > 0)));
}
