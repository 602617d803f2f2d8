//! End-to-end run of the runtime invariant checks: full transfers
//! through every layer (netsim links, TCP sockets, LSL depots). The
//! checks are `debug_assert!`s, so in a debug build a broken link
//! ledger, sequence space or relay buffer panics these tests.

use lsl_workloads::{case1, case3, run_transfer, Drill, Mode, RunConfig};

#[test]
fn transfers_run_clean_with_the_invariant_checks_live() {
    for case in [case1(), case3()] {
        for mode in [Mode::Direct, Mode::ViaDepot] {
            let res = run_transfer(&case, &RunConfig::builder(2 << 20, mode).seed(7).build());
            assert!(res.goodput_bps > 0.0, "case {:?} mode {mode:?}", case.name);
        }
    }
}

#[test]
fn fault_scenarios_run_clean_with_the_invariant_checks_live() {
    // Crashes, flaps, and resets stress exactly the teardown paths the
    // structural checks guard (queue flushes, socket aborts, relay
    // cleanup).
    for drill in Drill::ALL {
        let r = drill.scenario(7).run();
        assert!(r.completed(), "{}: {:?}", drill.name(), r.state);
        assert!(r.ok(), "{}: {:?}", drill.name(), r.violations);
    }
}
