//! Per-sublink measurement registry feeding path selection.
//!
//! The registry is deliberately transport-agnostic: experiment drivers
//! push (bandwidth, rtt, loss) observations per directed (src, dst) pair
//! — from NWS-style active probes or passively from TCP connection
//! statistics ("the TCP extended statistics MIB or the like", §III) —
//! and path selection reads the current forecasts back out.

use std::collections::BTreeMap;

use crate::forecast::AdaptiveMixture;

/// Samples of the sparsest observed metric needed before a forecast is
/// reported as [`Confidence::Seasoned`].
const SEASONED_SAMPLES: u64 = 8;

/// Forecast state for one directed sublink.
pub struct LinkMetrics {
    pub bandwidth_bps: AdaptiveMixture,
    pub rtt_s: AdaptiveMixture,
    pub loss: AdaptiveMixture,
    /// Accepted sample counts per metric (bandwidth, rtt, loss) —
    /// the basis of the forecast's typed [`Confidence`].
    pub samples: [u64; 3],
}

impl Default for LinkMetrics {
    fn default() -> Self {
        LinkMetrics {
            bandwidth_bps: AdaptiveMixture::standard(),
            rtt_s: AdaptiveMixture::standard(),
            loss: AdaptiveMixture::standard(),
            samples: [0; 3],
        }
    }
}

/// How much history stands behind a forecast. A consumer that would
/// commit real traffic to a route can demand [`Confidence::Seasoned`];
/// a `Provisional` forecast is better treated as a hint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Confidence {
    /// The sparsest observed metric has only a few samples; the
    /// mixture's expert weights are still mostly priors.
    Provisional,
    /// Every observed metric has at least `SEASONED_SAMPLES` accepted
    /// samples.
    Seasoned,
}

/// Forecast snapshot for one sublink. Only handed out for pairs with at
/// least one accepted observation ([`LinkRegistry::forecast`] returns
/// `Option<LinkForecast>`); individual metrics stay `None` until their
/// first sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkForecast {
    pub bandwidth_bps: Option<f64>,
    pub rtt_s: Option<f64>,
    pub loss: Option<f64>,
    pub confidence: Confidence,
}

/// Registry of sublink metrics keyed by a caller-chosen endpoint id
/// (typically `lsl_netsim::NodeId.0`).
#[derive(Default)]
pub struct LinkRegistry {
    links: BTreeMap<(u32, u32), LinkMetrics>,
}

impl LinkRegistry {
    pub fn new() -> LinkRegistry {
        LinkRegistry::default()
    }

    fn entry(&mut self, src: u32, dst: u32) -> &mut LinkMetrics {
        self.links.entry((src, dst)).or_default()
    }

    /// Record a bandwidth observation (bits/s). Returns whether the
    /// sample was accepted: non-finite or negative samples are rejected
    /// before they can poison the mixture (every expert would propagate
    /// a NaN into all future predictions).
    pub fn observe_bandwidth(&mut self, src: u32, dst: u32, bps: f64) -> bool {
        if !bps.is_finite() || bps < 0.0 {
            return false;
        }
        let m = self.entry(src, dst);
        m.bandwidth_bps.update(bps);
        m.samples[0] += 1;
        true
    }

    /// Record an RTT observation (seconds); rejects non-finite or
    /// non-positive samples.
    pub fn observe_rtt(&mut self, src: u32, dst: u32, rtt_s: f64) -> bool {
        if !rtt_s.is_finite() || rtt_s <= 0.0 {
            return false;
        }
        let m = self.entry(src, dst);
        m.rtt_s.update(rtt_s);
        m.samples[1] += 1;
        true
    }

    /// Record a loss-rate observation (fraction); rejects non-finite
    /// samples and anything outside `[0, 1]`.
    pub fn observe_loss(&mut self, src: u32, dst: u32, loss: f64) -> bool {
        if !loss.is_finite() || !(0.0..=1.0).contains(&loss) {
            return false;
        }
        let m = self.entry(src, dst);
        m.loss.update(loss);
        m.samples[2] += 1;
        true
    }

    /// Current forecast for a sublink: `None` for a pair that has never
    /// produced an accepted observation (an honest "I know nothing",
    /// not a default-y struct); otherwise a snapshot whose per-metric
    /// fields are `None` until that metric's first sample, with a typed
    /// [`Confidence`] derived from the sparsest observed metric.
    pub fn forecast(&self, src: u32, dst: u32) -> Option<LinkForecast> {
        let m = self.links.get(&(src, dst))?;
        let observed_min = m
            .samples
            .iter()
            .copied()
            .filter(|&n| n > 0)
            .min()
            .unwrap_or(0);
        Some(LinkForecast {
            bandwidth_bps: m.bandwidth_bps.predict(),
            rtt_s: m.rtt_s.predict(),
            loss: m.loss.predict(),
            confidence: if observed_min >= SEASONED_SAMPLES {
                Confidence::Seasoned
            } else {
                Confidence::Provisional
            },
        })
    }

    /// Number of sublinks with any history.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_link_forecasts_none() {
        let r = LinkRegistry::new();
        // An honest miss, not a struct of Nones.
        assert_eq!(r.forecast(0, 1), None);
    }

    #[test]
    fn observations_produce_forecasts() {
        let mut r = LinkRegistry::new();
        for _ in 0..10 {
            assert!(r.observe_bandwidth(0, 1, 10e6));
            assert!(r.observe_rtt(0, 1, 0.03));
            assert!(r.observe_loss(0, 1, 1e-4));
        }
        let f = r.forecast(0, 1).unwrap();
        assert!((f.bandwidth_bps.unwrap() - 10e6).abs() < 1.0);
        assert!((f.rtt_s.unwrap() - 0.03).abs() < 1e-9);
        assert!((f.loss.unwrap() - 1e-4).abs() < 1e-9);
        assert_eq!(f.confidence, Confidence::Seasoned);
        // Direction matters.
        assert_eq!(r.forecast(1, 0), None);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn confidence_tracks_sparsest_observed_metric() {
        let mut r = LinkRegistry::new();
        for _ in 0..20 {
            r.observe_rtt(0, 1, 0.03);
        }
        // Only RTT observed, with plenty of history: seasoned.
        assert_eq!(r.forecast(0, 1).unwrap().confidence, Confidence::Seasoned);
        // One lone bandwidth sample drags the snapshot back down.
        r.observe_bandwidth(0, 1, 10e6);
        assert_eq!(
            r.forecast(0, 1).unwrap().confidence,
            Confidence::Provisional
        );
    }

    #[test]
    fn poison_samples_are_rejected() {
        let mut r = LinkRegistry::new();
        assert!(!r.observe_bandwidth(0, 1, f64::NAN));
        assert!(!r.observe_bandwidth(0, 1, f64::INFINITY));
        assert!(!r.observe_bandwidth(0, 1, -1.0));
        assert!(!r.observe_rtt(0, 1, f64::NAN));
        assert!(!r.observe_rtt(0, 1, 0.0));
        assert!(!r.observe_rtt(0, 1, -0.5));
        assert!(!r.observe_loss(0, 1, f64::NAN));
        assert!(!r.observe_loss(0, 1, 1.5));
        assert!(!r.observe_loss(0, 1, -0.1));
        // Nothing was accepted, so the pair still reads as unknown …
        assert_eq!(r.forecast(0, 1), None);
        assert!(r.is_empty());
        // … and a NaN cannot have poisoned later good samples.
        assert!(r.observe_rtt(0, 1, 0.05));
        let f = r.forecast(0, 1).unwrap();
        assert!((f.rtt_s.unwrap() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn forecasts_track_changing_conditions() {
        let mut r = LinkRegistry::new();
        for _ in 0..10 {
            r.observe_rtt(2, 3, 0.05);
        }
        for _ in 0..30 {
            r.observe_rtt(2, 3, 0.20);
        }
        let f = r.forecast(2, 3).unwrap().rtt_s.unwrap();
        assert!((f - 0.20).abs() < 0.03, "forecast {f}");
    }
}
