//! Analytic TCP and cascade throughput models.
//!
//! Two uses: (1) depot/path selection needs a forward model of what a
//! candidate cascade would achieve (the paper assumes NWS-style forecast
//! inputs); (2) experiment calibration — the simulator's measured curves
//! should sit near these closed forms, which encode exactly the
//! RTT-clocking arguments of the paper's §V/§VI:
//!
//! * slow start doubles cwnd once per RTT, so ramp time scales with RTT,
//! * steady-state loss-limited throughput follows the Mathis bound
//!   `BW = (MSS/RTT) · C/√p` (the paper's citation \[25\]),
//! * a pipelined cascade is gated by its slowest sublink, plus the
//!   sequential connection setup of each hop.

/// Mathis constant √(3/2) for periodic-loss Reno.
const MATHIS_C: f64 = 1.224744871391589;

/// Model of one TCP path (a direct connection or a single sublink).
#[derive(Clone, Copy, Debug)]
pub struct TcpPathModel {
    /// Round-trip time, seconds.
    pub rtt: f64,
    /// Bottleneck link rate, bits/s.
    pub bottleneck_bps: f64,
    /// Per-packet loss probability.
    pub loss: f64,
    /// Maximum segment size, bytes.
    pub mss: u32,
    /// End-host buffer / max window, bytes (8 MB in the paper's hosts).
    pub max_window: u64,
}

impl TcpPathModel {
    pub fn new(rtt: f64, bottleneck_bps: f64, loss: f64) -> TcpPathModel {
        assert!(rtt > 0.0 && bottleneck_bps > 0.0 && (0.0..1.0).contains(&loss));
        TcpPathModel {
            rtt,
            bottleneck_bps,
            loss,
            mss: 1460,
            max_window: 8 * 1024 * 1024,
        }
    }

    /// Steady-state throughput ceiling in bits/s: the minimum of the
    /// Mathis loss bound, the window/RTT bound, and the bottleneck rate.
    pub fn steady_bw(&self) -> f64 {
        let window_bound = self.max_window as f64 * 8.0 / self.rtt;
        let mut bw = self.bottleneck_bps.min(window_bound);
        if self.loss > 0.0 {
            let mathis = (self.mss as f64 * 8.0 / self.rtt) * MATHIS_C / self.loss.sqrt();
            bw = bw.min(mathis);
        }
        bw
    }

    /// The congestion window (bytes) at which `steady_bw` is attained.
    fn steady_window(&self) -> f64 {
        self.steady_bw() * self.rtt / 8.0
    }

    /// Time for one connection handshake (SYN + SYN-ACK; the first data
    /// segment rides immediately after the final ACK).
    pub fn handshake_time(&self) -> f64 {
        self.rtt
    }

    /// Model of a bulk transfer of `size` payload bytes over an
    /// established connection: slow-start rounds doubling from
    /// `init_cwnd` until the steady window, then line-rate at
    /// `steady_bw`. Returns seconds until the last byte *arrives* at the
    /// receiver (half an RTT after it is sent).
    pub fn transfer_time(&self, size: u64, init_cwnd: u64) -> f64 {
        if size == 0 {
            return self.rtt / 2.0;
        }
        let steady_w = self.steady_window().max(init_cwnd as f64);
        let mut cwnd = init_cwnd as f64;
        let mut sent = 0.0;
        let mut t = 0.0;
        let size_f = size as f64;
        // Slow-start rounds: one window per RTT.
        while cwnd < steady_w {
            if sent + cwnd >= size_f {
                // Final partial round: the data goes out within this RTT.
                return t + self.rtt / 2.0 + (size_f - sent) * 8.0 / self.bottleneck_bps;
            }
            sent += cwnd;
            t += self.rtt;
            cwnd = (cwnd * 2.0).min(steady_w);
        }
        // Steady phase.
        let remaining = size_f - sent;
        t + remaining * 8.0 / self.steady_bw() + self.rtt / 2.0
    }

    /// Average goodput (bits/s) for a transfer of `size` bytes including
    /// the handshake.
    pub fn goodput(&self, size: u64, init_cwnd: u64) -> f64 {
        let t = self.handshake_time() + self.transfer_time(size, init_cwnd);
        size as f64 * 8.0 / t
    }
}

/// Model of an LSL cascade as a chain of sublink models.
#[derive(Clone, Debug)]
pub struct CascadeModel {
    pub sublinks: Vec<TcpPathModel>,
    /// Per-depot store-and-forward processing overhead, seconds per hop
    /// (header parse + buffer copy; small for an unprivileged process).
    pub depot_overhead: f64,
    /// LSL header + digest bytes added to the stream.
    pub framing_bytes: u64,
    /// Synchronous session establishment (the paper's measured mode):
    /// the source streams only after the sink's session confirmation has
    /// travelled back through the cascade, so setup costs a full
    /// round trip over every sublink — `2·Σ rtt_i` — instead of the
    /// sequential handshake sum.
    pub sync_setup: bool,
}

impl CascadeModel {
    pub fn new(sublinks: Vec<TcpPathModel>) -> CascadeModel {
        assert!(!sublinks.is_empty());
        CascadeModel {
            sublinks,
            depot_overhead: 0.0005,
            framing_bytes: 47 + 16,
            sync_setup: true,
        }
    }

    /// End-to-end transfer time: per-hop connection setup (each depot
    /// connects onward only after reading the header; with `sync_setup`
    /// the sink's confirmation must also return), then a pipelined
    /// stream gated by the slowest sublink, plus the one-way latency of
    /// the remaining hops.
    pub fn transfer_time(&self, size: u64, init_cwnd: u64) -> f64 {
        let size = size + self.framing_bytes;
        let rtt_sum: f64 = self.sublinks.iter().map(|s| s.rtt).sum();
        let overheads: f64 = self.depot_overhead * self.sublinks.len() as f64;
        let setup: f64 = if self.sync_setup {
            // Handshake + header forward (1.5·Σrtt) and confirmation
            // back (0.5·Σrtt).
            2.0 * rtt_sum + overheads
        } else {
            rtt_sum + overheads
        };
        let slowest = self
            .sublinks
            .iter()
            .map(|s| s.transfer_time(size, init_cwnd))
            .fold(0.0f64, f64::max);
        // The non-bottleneck hops add only their one-way propagation.
        let extra_latency: f64 = self.sublinks.iter().map(|s| s.rtt / 2.0).sum::<f64>()
            - self
                .sublinks
                .iter()
                .map(|s| s.rtt / 2.0)
                .fold(0.0f64, f64::max);
        setup + slowest + extra_latency
    }

    /// Average goodput in bits/s.
    pub fn goodput(&self, size: u64, init_cwnd: u64) -> f64 {
        size as f64 * 8.0 / self.transfer_time(size, init_cwnd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INIT_CWND: u64 = 2 * 1460;

    #[test]
    fn steady_bw_respects_all_three_bounds() {
        // Loss-free: bottleneck binds.
        let clean = TcpPathModel::new(0.05, 10e6, 0.0);
        assert!((clean.steady_bw() - 10e6).abs() < 1.0);
        // Lossy long path: Mathis binds below bottleneck.
        let lossy = TcpPathModel::new(0.06, 100e6, 1e-3);
        assert!(lossy.steady_bw() < 100e6);
        // Tiny window binds.
        let mut small = TcpPathModel::new(0.1, 1e9, 0.0);
        small.max_window = 64 * 1024;
        assert!((small.steady_bw() - 64.0 * 1024.0 * 8.0 / 0.1).abs() < 1.0);
    }

    #[test]
    fn halving_rtt_doubles_mathis_bound() {
        let long = TcpPathModel::new(0.06, 1e12, 1e-4);
        let short = TcpPathModel::new(0.03, 1e12, 1e-4);
        let ratio = short.steady_bw() / long.steady_bw();
        assert!((ratio - 2.0).abs() < 1e-6, "ratio {ratio}");
    }

    #[test]
    fn transfer_time_monotone_in_size() {
        let m = TcpPathModel::new(0.05, 10e6, 1e-4);
        let mut prev = 0.0;
        for size in [1u64 << 10, 1 << 15, 1 << 20, 1 << 25] {
            let t = m.transfer_time(size, INIT_CWND);
            assert!(t > prev, "size {size}");
            prev = t;
        }
    }

    #[test]
    fn longer_rtt_slows_small_transfers_superlinearly() {
        // Slow start penalty: for small transfers, time ≈ k·RTT, so the
        // ratio between 100 ms and 50 ms paths should be ≈ 2 even though
        // the bottleneck is identical.
        let slow = TcpPathModel::new(0.1, 100e6, 0.0);
        let fast = TcpPathModel::new(0.05, 100e6, 0.0);
        let size = 256 * 1024;
        let ratio = slow.transfer_time(size, INIT_CWND) / fast.transfer_time(size, INIT_CWND);
        assert!(ratio > 1.8, "ratio {ratio}");
    }

    #[test]
    fn goodput_approaches_steady_bw_for_large_transfers() {
        let m = TcpPathModel::new(0.04, 20e6, 0.0);
        let g = m.goodput(256 << 20, INIT_CWND);
        assert!(g > 0.95 * m.steady_bw(), "goodput {g}");
    }

    #[test]
    fn cascade_beats_direct_on_lossy_long_path() {
        // The paper's core claim, in model form: splitting a 60 ms lossy
        // path into two 30 ms halves raises the loss-limited ceiling.
        let direct = TcpPathModel::new(0.06, 622e6, 1e-4);
        let cascade = CascadeModel::new(vec![
            TcpPathModel::new(0.03, 622e6, 1e-4),
            TcpPathModel::new(0.03, 622e6, 1e-4),
        ]);
        let size = 64 << 20;
        let t_direct = direct.handshake_time() + direct.transfer_time(size, INIT_CWND);
        let t_cascade = cascade.transfer_time(size, INIT_CWND);
        assert!(
            t_cascade < t_direct,
            "cascade {t_cascade}s vs direct {t_direct}s"
        );
    }

    #[test]
    fn cascade_loses_on_tiny_transfers() {
        // Synchronous session setup over the detoured path (35+35 ms vs
        // 60 ms direct) cannot be amortized at 32 KB — Fig 5's left edge.
        let direct = TcpPathModel::new(0.06, 622e6, 1e-4);
        let cascade = CascadeModel::new(vec![
            TcpPathModel::new(0.035, 622e6, 1e-4),
            TcpPathModel::new(0.035, 622e6, 1e-4),
        ]);
        let size = 32 << 10;
        let t_direct = direct.handshake_time() + direct.transfer_time(size, INIT_CWND);
        let t_cascade = cascade.transfer_time(size, INIT_CWND);
        assert!(
            t_cascade > t_direct,
            "cascade {t_cascade}s vs direct {t_direct}s at 32 KB"
        );
    }

    #[test]
    fn cascade_gated_by_slowest_sublink() {
        let fast = TcpPathModel::new(0.01, 100e6, 0.0);
        let slow = TcpPathModel::new(0.01, 5e6, 0.0);
        let c = CascadeModel::new(vec![fast, slow]);
        let size = 16 << 20;
        let t = c.transfer_time(size, INIT_CWND);
        let bound = slow.transfer_time(size + c.framing_bytes, INIT_CWND);
        assert!(t >= bound, "cascade {t} < slowest hop {bound}");
        // And not much more than it.
        assert!(t < bound * 1.2);
    }

    #[test]
    fn zero_size_is_latency_only() {
        let m = TcpPathModel::new(0.08, 1e6, 0.0);
        assert!((m.transfer_time(0, INIT_CWND) - 0.04).abs() < 1e-9);
    }
}
