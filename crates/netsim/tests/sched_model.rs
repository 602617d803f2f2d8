//! Model-equivalence property tests for the event scheduler.
//!
//! The indexed-heap scheduler behind `Simulator` must be
//! observationally identical to a naive priority queue: for any
//! program of arm/cancel/advance operations, timers fire in exactly
//! the reference order — ascending `(time, arm-seq)` — at
//! exactly the reference times. These tests drive the *public*
//! `Simulator` API against a brute-force sorted model and also pin the
//! arena-leak invariant: every armed timer occupies exactly one live
//! scheduler entry, and cancels/fires release it immediately.

use bytes::Bytes;
use lsl_netsim::{Dur, LinkSpec, Output, Packet, Simulator, Time, TimerHandle, TopologyBuilder};
use proptest::prelude::*;

/// One armed timer in the reference model. `seq` is the global arm
/// order — the scheduler's tie-break for equal fire times.
struct ModelTimer {
    at: u64,
    seq: u64,
    token: u64,
    handle: TimerHandle,
}

/// Reference pop: index of the minimum `(at, seq)` live timer.
fn model_min(live: &[ModelTimer]) -> Option<usize> {
    live.iter()
        .enumerate()
        .min_by_key(|(_, t)| (t.at, t.seq))
        .map(|(i, _)| i)
}

/// Map a `(band, offset)` pair to a delay in one of six scales, from
/// "now" to minutes out, so programs mix equal fire times, near-equal
/// ones and widely spread ones.
fn band_delay(band: u8, offset: u64) -> u64 {
    match band % 6 {
        0 => 0,                              // at the current time
        1 => offset % (1 << 10),             // ≤ 1 µs: near-collisions
        2 => offset % (1 << 23),             // ≤ 8 ms
        3 => offset % (1 << 29),             // ≤ 0.5 s
        4 => offset % (1 << 35),             // ≤ 34 s
        _ => (1 << 35) + offset % (1 << 36), // 34 s to 103 s
    }
}

/// Check the fired timer against the reference model and remove it.
fn check_fire(live: &mut Vec<ModelTimer>, token: u64, now: Time) {
    let i = model_min(live).expect("simulator fired a timer the model does not have");
    let m = live.swap_remove(i);
    assert_eq!(token, m.token, "timer fired out of reference order");
    assert_eq!(now.0, m.at, "timer fired at the wrong time");
}

/// Armed timers must map 1:1 onto live scheduler entries — a stricter
/// check than `pending_timers()` because it walks the scheduler heap
/// and arena, catching both leaks (cancel left a husk) and loss (an
/// armed timer's entry vanished).
fn check_no_leak(sim: &Simulator, live: &[ModelTimer]) {
    assert_eq!(sim.pending_timers(), live.len());
    assert_eq!(sim.debug_live_timer_entries(), live.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Timers-only programs: arm across every delay band (now,
    /// sub-microsecond, ms, s, minutes), cancel at random, and advance — the fire
    /// sequence must be byte-identical to the sorted reference.
    #[test]
    fn timer_programs_match_reference_heap(
        ops in proptest::collection::vec(
            (0u8..8, any::<u8>(), any::<u64>(), any::<proptest::sample::Index>()),
            1..250,
        ),
    ) {
        let mut b = TopologyBuilder::new();
        let n = b.node("solo");
        let mut sim = b.build().into_sim(7);
        let mut live: Vec<ModelTimer> = Vec::new();
        let mut seq = 0u64;
        for (op, band, offset, idx) in ops {
            match op {
                // Arm (weight 4/8): every band, including duplicates of
                // an existing fire time (same `at`, later seq).
                0..=3 => {
                    let at = Time(sim.now().0 + band_delay(band, offset));
                    let handle = sim.set_timer(n, at, seq);
                    live.push(ModelTimer { at: at.0, seq, token: seq, handle });
                    seq += 1;
                }
                // Cancel (weight 2/8): purge must be immediate.
                4..=5 => {
                    if !live.is_empty() {
                        let m = live.swap_remove(idx.index(live.len()));
                        sim.cancel_timer(m.handle);
                        check_no_leak(&sim, &live);
                    }
                }
                // Advance (weight 2/8): pop a few events.
                _ => {
                    for _ in 0..=(band % 3) {
                        match sim.next() {
                            Some(Output::Timer { token, .. }) => {
                                check_fire(&mut live, token, sim.now());
                            }
                            Some(other) => panic!("unexpected output {other:?}"),
                            None => {
                                prop_assert!(live.is_empty(), "simulator dried up early");
                                break;
                            }
                        }
                    }
                }
            }
        }
        // Drain: everything still armed fires in reference order.
        while let Some(out) = sim.next() {
            match out {
                Output::Timer { token, .. } => check_fire(&mut live, token, sim.now()),
                other => panic!("unexpected output {other:?}"),
            }
        }
        prop_assert!(live.is_empty(), "model retains timers the simulator lost");
        check_no_leak(&sim, &live);
    }

    /// Mixed traffic: packet events share the scheduler with timers, so
    /// link events and timers interleave in one heap — but the *timer*
    /// subsequence must still match the reference exactly, and no
    /// scheduler entries may leak.
    #[test]
    fn timers_keep_reference_order_under_traffic(
        ops in proptest::collection::vec(
            (0u8..8, any::<u8>(), any::<u64>(), any::<proptest::sample::Index>()),
            1..200,
        ),
        seed in any::<u64>(),
    ) {
        let mut b = TopologyBuilder::new();
        let a = b.node("a");
        let c = b.node("c");
        b.duplex(a, c, LinkSpec::new(8_000_000, Dur::from_millis(3)));
        let mut sim = b.build().into_sim(seed);
        let mut live: Vec<ModelTimer> = Vec::new();
        let mut seq = 0u64;
        for (op, band, offset, idx) in ops {
            match op {
                0..=2 => {
                    let at = Time(sim.now().0 + band_delay(band, offset));
                    let handle = sim.set_timer(a, at, seq);
                    live.push(ModelTimer { at: at.0, seq, token: seq, handle });
                    seq += 1;
                }
                // Inject traffic: consumes scheduler sequence numbers
                // and arena slots that stale timer handles must not hit.
                3..=4 => {
                    let size = 64 + (offset % 1400) as usize;
                    sim.send(a, Packet::tcp(a, c, Bytes::new(), Bytes::from(vec![0u8; size])));
                }
                5 => {
                    if !live.is_empty() {
                        let m = live.swap_remove(idx.index(live.len()));
                        sim.cancel_timer(m.handle);
                        check_no_leak(&sim, &live);
                    }
                }
                _ => {
                    for _ in 0..=(band % 3) {
                        match sim.next() {
                            Some(Output::Timer { token, .. }) => {
                                check_fire(&mut live, token, sim.now());
                            }
                            Some(_) => {} // deliveries just advance time
                            None => {
                                prop_assert!(live.is_empty(), "simulator dried up early");
                                break;
                            }
                        }
                    }
                }
            }
        }
        while let Some(out) = sim.next() {
            if let Output::Timer { token, .. } = out {
                check_fire(&mut live, token, sim.now());
            }
        }
        prop_assert!(live.is_empty(), "model retains timers the simulator lost");
        check_no_leak(&sim, &live);
    }
}
