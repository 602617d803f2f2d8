//! End-to-end audit of the runtime invariant checks: run full transfers
//! through every layer (netsim links, TCP sockets, LSL depots) with the
//! auditor live and require a clean registry. Compiled only under
//! `--features invariants` (scripts/ci.sh runs it).
#![cfg(feature = "invariants")]

use lsl_netsim::invariants;
use lsl_workloads::{case1, case3, run_transfer, Drill, Mode, RunConfig};

#[test]
fn transfers_run_clean_under_the_invariant_auditor() {
    let _ = invariants::take(); // isolate from anything earlier on this thread
    for case in [case1(), case3()] {
        for mode in [Mode::Direct, Mode::ViaDepot] {
            let res = run_transfer(&case, &RunConfig::builder(2 << 20, mode).seed(7).build());
            assert!(res.goodput_bps > 0.0);
            let v = invariants::take();
            assert!(
                v.is_empty(),
                "case {:?} mode {mode:?}:\n{}",
                case.name,
                lsl_trace::violations::report(&v)
            );
        }
    }
}

#[test]
fn fault_scenarios_run_clean_under_the_invariant_auditor() {
    // Crashes, flaps, and resets stress exactly the teardown paths the
    // structural checks guard (queue flushes, socket aborts, relay
    // cleanup) — recovery must not leave the registry dirty. Each run
    // drains the registry into its contract verdict.
    for drill in Drill::ALL {
        let r = drill.scenario(7).run();
        assert!(r.completed(), "{}: {:?}", drill.name(), r.state);
        assert!(r.ok(), "{}: {:?}", drill.name(), r.violations);
    }
}

#[test]
fn seeded_violation_surfaces_in_the_report() {
    let _ = invariants::take();
    invariants::record(
        lsl_netsim::Time(1_500_000),
        "tcp::socket",
        "seq-space-order",
        "snd_una 9 / snd_nxt 3 / snd_max 12 out of order".to_string(),
    );
    let v = invariants::take();
    let report = lsl_trace::violations::report(&v);
    assert!(report.starts_with("invariant violations: 1\n"), "{report}");
    assert!(report.contains("tcp::socket/seq-space-order"), "{report}");
}
