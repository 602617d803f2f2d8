//! Deterministic fixed-point route scoring.
//!
//! [`crate::model`] holds the float analytic models used for
//! calibration and examples. Route *selection* inside the session
//! client must be bit-reproducible across machines and `--jobs` counts,
//! so this module mirrors the cascade model in pure integer arithmetic:
//! forecasts are quantized once ([`SublinkForecast::quantize`]) and the
//! score is an integer nanosecond prediction of end-to-end transfer
//! time (lower is better). The determinism rule: **no f64 touches a
//! score after quantization** — every intermediate is u64/u128, every
//! division truncates, and ties are broken by candidate index.

/// Mathis constant √(3/2), scaled by 1e12.
const MATHIS_C_E12: u128 = 1_224_744_871_391;
/// Maximum segment size, bytes (matches [`crate::model::TcpPathModel`]).
const MSS: u64 = 1460;
/// End-host buffer / max window, bytes.
const MAX_WINDOW: u64 = 8 * 1024 * 1024;
/// Initial congestion window, bytes (2 segments).
const INIT_CWND: u64 = 2 * MSS;
/// Per-depot store-and-forward overhead, nanoseconds (0.5 ms).
const DEPOT_OVERHEAD_NS: u64 = 500_000;
/// LSL header + digest bytes added to the stream (v2 header + MD5).
const FRAMING_BYTES: u64 = 47 + 16;

const NS_PER_S: u128 = 1_000_000_000;

/// A quantized per-sublink forecast: the only form the scorer accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SublinkForecast {
    /// Forecast available bandwidth, bits/s (≥ 1).
    pub bandwidth_bps: u64,
    /// Forecast round-trip time, nanoseconds (≥ 1).
    pub rtt_ns: u64,
    /// Forecast loss probability in parts-per-million (< 1_000_000).
    pub loss_ppm: u64,
}

impl SublinkForecast {
    /// Quantize float forecasts into the fixed-point domain. Returns
    /// `None` for anything non-finite or out of range — a NaN from a
    /// forecaster must not poison a score.
    pub fn quantize(bandwidth_bps: f64, rtt_s: f64, loss: f64) -> Option<SublinkForecast> {
        if !bandwidth_bps.is_finite() || !rtt_s.is_finite() || !loss.is_finite() {
            return None;
        }
        if bandwidth_bps < 1.0 || rtt_s <= 0.0 || !(0.0..1.0).contains(&loss) {
            return None;
        }
        let rtt_ns = rtt_s * 1e9;
        if rtt_ns >= u64::MAX as f64 || bandwidth_bps >= u64::MAX as f64 {
            return None;
        }
        Some(SublinkForecast {
            bandwidth_bps: bandwidth_bps as u64,
            rtt_ns: (rtt_ns as u64).max(1),
            loss_ppm: ((loss * 1e6) as u64).min(999_999),
        })
    }

    /// Steady-state throughput ceiling, bits/s: min of the forecast
    /// bandwidth, the window/RTT bound, and the Mathis loss bound —
    /// the integer mirror of `TcpPathModel::steady_bw`.
    pub fn steady_bw_bps(&self) -> u64 {
        let rtt = self.rtt_ns.max(1) as u128;
        let window_bound = (MAX_WINDOW as u128 * 8 * NS_PER_S) / rtt;
        let mut bw = (self.bandwidth_bps as u128).min(window_bound);
        if self.loss_ppm > 0 {
            // (MSS·8/rtt) · C/√p with p = ppm/1e6. Work with
            // s = isqrt(ppm·1e6) ≈ √p·1e6 so truncation costs ~1e-6,
            // not the ~3% a bare isqrt(ppm) would:
            // mathis = MSS·8·1e9/rtt_ns · (C_e12/1e12) · 1e6/s
            let s = isqrt(self.loss_ppm * 1_000_000).max(1) as u128;
            let mathis = (MSS as u128 * 8 * NS_PER_S * MATHIS_C_E12 * 1_000_000)
                / (rtt * s * 1_000_000_000_000);
            bw = bw.min(mathis);
        }
        u64::try_from(bw).unwrap_or(u64::MAX).max(1)
    }

    /// Congestion window (bytes) at which `steady_bw_bps` is attained.
    fn steady_window_bytes(&self) -> u64 {
        let w = (self.steady_bw_bps() as u128 * self.rtt_ns as u128) / (8 * NS_PER_S);
        u64::try_from(w).unwrap_or(u64::MAX)
    }

    /// Predicted bulk-transfer time over an established connection,
    /// nanoseconds — the integer mirror of
    /// `TcpPathModel::transfer_time`: slow-start rounds doubling from
    /// `INIT_CWND` to the steady window, then line rate.
    pub fn transfer_time_ns(&self, size: u64) -> u64 {
        let rtt = self.rtt_ns;
        if size == 0 {
            return rtt / 2;
        }
        let steady_w = self.steady_window_bytes().max(INIT_CWND);
        let mut cwnd = INIT_CWND;
        let mut sent = 0u64;
        let mut t = 0u64;
        while cwnd < steady_w {
            if sent.saturating_add(cwnd) >= size {
                let tail =
                    ((size - sent) as u128 * 8 * NS_PER_S) / self.bandwidth_bps.max(1) as u128;
                return t
                    .saturating_add(rtt / 2)
                    .saturating_add(u64::try_from(tail).unwrap_or(u64::MAX));
            }
            sent += cwnd;
            t = t.saturating_add(rtt);
            cwnd = cwnd.saturating_mul(2).min(steady_w);
        }
        let steady = ((size - sent) as u128 * 8 * NS_PER_S) / self.steady_bw_bps() as u128;
        t.saturating_add(u64::try_from(steady).unwrap_or(u64::MAX))
            .saturating_add(rtt / 2)
    }
}

/// Truncating integer square root.
fn isqrt(n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let mut x = n;
    let mut y = x.div_ceil(2);
    while y < x {
        x = y;
        y = (x + n / x) / 2;
    }
    x
}

/// Score a candidate cascade: predicted end-to-end time in integer
/// nanoseconds for `size` payload bytes over the given per-sublink
/// forecasts — the integer mirror of `CascadeModel::transfer_time`
/// with synchronous session setup. One sublink models a direct route
/// (LSL framing and the sink confirmation apply there too).
pub fn cascade_score_ns(sublinks: &[SublinkForecast], size: u64) -> Option<u64> {
    if sublinks.is_empty() {
        return None;
    }
    let size = size.saturating_add(FRAMING_BYTES);
    let rtt_sum: u64 = sublinks.iter().fold(0, |a, s| a.saturating_add(s.rtt_ns));
    let overheads = DEPOT_OVERHEAD_NS.saturating_mul(sublinks.len() as u64);
    // Handshake + header forward (1.5·Σrtt) and confirmation back
    // (0.5·Σrtt).
    let setup = rtt_sum.saturating_mul(2).saturating_add(overheads);
    let slowest = sublinks
        .iter()
        .map(|s| s.transfer_time_ns(size))
        .max()
        .unwrap_or(0);
    // Non-bottleneck hops add only their one-way propagation.
    let half_sum: u64 = sublinks
        .iter()
        .fold(0, |a, s| a.saturating_add(s.rtt_ns / 2));
    let half_max = sublinks.iter().map(|s| s.rtt_ns / 2).max().unwrap_or(0);
    let extra = half_sum - half_max;
    Some(setup.saturating_add(slowest).saturating_add(extra))
}

/// Rank candidate indices by score: scored candidates first in
/// ascending score order, unscored after them, every tie broken by
/// candidate index. The result is a permutation of `0..scores.len()`
/// and a pure function of its input — the total deterministic order
/// route selection relies on.
pub fn rank_candidates(scores: &[Option<u64>]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by_key(|&i| (scores[i].is_none(), scores[i].unwrap_or(0), i));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fc(bw: f64, rtt: f64, loss: f64) -> SublinkForecast {
        SublinkForecast::quantize(bw, rtt, loss).unwrap()
    }

    #[test]
    fn quantize_rejects_poison() {
        for (bw, rtt, loss) in [
            (f64::NAN, 0.01, 0.0),
            (1e6, f64::NAN, 0.0),
            (1e6, 0.01, f64::NAN),
            (f64::INFINITY, 0.01, 0.0),
            (1e6, 0.0, 0.0),
            (1e6, -0.01, 0.0),
            (0.5, 0.01, 0.0),
            (1e6, 0.01, 1.0),
            (1e6, 0.01, -0.1),
        ] {
            assert!(
                SublinkForecast::quantize(bw, rtt, loss).is_none(),
                "({bw}, {rtt}, {loss}) should be rejected"
            );
        }
        assert_eq!(
            fc(1e6, 0.01, 1e-3),
            SublinkForecast {
                bandwidth_bps: 1_000_000,
                rtt_ns: 10_000_000,
                loss_ppm: 1000,
            }
        );
    }

    #[test]
    fn steady_bw_tracks_float_model_bounds() {
        use crate::model::TcpPathModel;
        for (bw, rtt, loss) in [
            (10e6, 0.05, 0.0),
            (100e6, 0.06, 1e-3),
            (622e6, 0.013, 2e-3),
            (1e9, 0.0015, 0.0),
        ] {
            let fixed = fc(bw, rtt, loss).steady_bw_bps() as f64;
            let float = TcpPathModel::new(rtt, bw, loss).steady_bw();
            let err = (fixed - float).abs() / float;
            assert!(
                err < 0.02,
                "bw {bw} rtt {rtt} loss {loss}: {fixed} vs {float}"
            );
        }
    }

    #[test]
    fn transfer_time_tracks_float_model() {
        use crate::model::TcpPathModel;
        for size in [1u64 << 10, 1 << 16, 1 << 20, 1 << 25] {
            let fixed = fc(100e6, 0.02, 1e-4).transfer_time_ns(size) as f64 / 1e9;
            let float = TcpPathModel::new(0.02, 100e6, 1e-4).transfer_time(size, INIT_CWND);
            let err = (fixed - float).abs() / float;
            assert!(err < 0.02, "size {size}: fixed {fixed}s vs float {float}s");
        }
    }

    #[test]
    fn cascade_prefers_split_lossy_path() {
        // The paper's core claim in fixed point: splitting a 60 ms lossy
        // path into two 30 ms halves scores better for a bulk transfer.
        let size = 64 << 20;
        let direct = cascade_score_ns(&[fc(622e6, 0.06, 1e-4)], size).unwrap();
        let split =
            cascade_score_ns(&[fc(622e6, 0.03, 1e-4), fc(622e6, 0.03, 1e-4)], size).unwrap();
        assert!(split < direct, "split {split} vs direct {direct}");
        // And the tiny-transfer inversion survives quantization. (Both
        // arms pay the synchronous session setup here — the scorer
        // models the depot-free candidate as a 1-sublink LSL cascade,
        // which is exactly how the client runs it — so the crossover
        // sits lower than the float model's raw-TCP direct arm.)
        let size = 1 << 10;
        let direct = cascade_score_ns(&[fc(622e6, 0.06, 1e-4)], size).unwrap();
        let split =
            cascade_score_ns(&[fc(622e6, 0.035, 1e-4), fc(622e6, 0.035, 1e-4)], size).unwrap();
        assert!(split > direct, "split {split} vs direct {direct} at 1 KB");
    }

    #[test]
    fn empty_cascade_has_no_score() {
        assert_eq!(cascade_score_ns(&[], 1 << 20), None);
    }

    #[test]
    fn isqrt_exact_on_squares() {
        for n in [0u64, 1, 2, 3, 4, 99, 100, 1_000_000, u64::MAX] {
            let r = isqrt(n) as u128;
            assert!(r * r <= n as u128, "isqrt({n}) too big");
            assert!((r + 1) * (r + 1) > n as u128, "isqrt({n}) too small");
        }
    }

    #[test]
    fn rank_orders_scored_before_unscored_ties_by_index() {
        let ranked = rank_candidates(&[None, Some(5), Some(3), Some(5), None]);
        assert_eq!(ranked, vec![2, 1, 3, 0, 4]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Ranking is a total deterministic order: every input yields a
        /// permutation, equal inputs yield identical outputs, and equal
        /// scores preserve index order.
        #[test]
        fn ranking_is_total_and_deterministic(
            scores in proptest::collection::vec(
                proptest::option::of(0u64..1_000_000), 0..24)
        ) {
            let a = rank_candidates(&scores);
            let b = rank_candidates(&scores);
            prop_assert_eq!(&a, &b);
            let mut sorted = a.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..scores.len()).collect::<Vec<_>>());
            for w in a.windows(2) {
                let (i, j) = (w[0], w[1]);
                match (scores[i], scores[j]) {
                    (Some(si), Some(sj)) => {
                        prop_assert!(si < sj || (si == sj && i < j));
                    }
                    (Some(_), None) => {}
                    (None, Some(_)) => prop_assert!(false, "unscored ranked above scored"),
                    (None, None) => prop_assert!(i < j),
                }
            }
        }

        /// Scores never panic and are monotone-ish in size: more bytes
        /// never score strictly faster.
        #[test]
        fn score_monotone_in_size(
            bw in 1.0e3f64..1e12, rtt in 1e-6f64..10.0, loss in 0.0f64..0.01,
            size in 0u64..(1 << 30)
        ) {
            let f = SublinkForecast::quantize(bw, rtt, loss).unwrap();
            let small = cascade_score_ns(&[f], size).unwrap();
            let big = cascade_score_ns(&[f], size.saturating_mul(2)).unwrap();
            prop_assert!(big >= small);
        }

        /// Quantize is total over arbitrary floats (never panics) and
        /// only accepts finite in-range samples.
        #[test]
        fn quantize_total(bw in any::<f64>(), rtt in any::<f64>(), loss in any::<f64>()) {
            if let Some(f) = SublinkForecast::quantize(bw, rtt, loss) {
                prop_assert!(f.bandwidth_bps >= 1);
                prop_assert!(f.rtt_ns >= 1);
                prop_assert!(f.loss_ppm < 1_000_000);
            }
        }
    }
}
