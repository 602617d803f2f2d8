//! RAIL-style striped multi-cascade sessions: the dispatch policy.
//!
//! One session opens up to N depot cascades *concurrently* — the
//! top-ranked [`RoutePlan`] candidates — and schedules the stream's
//! [`crate::RESUME_BLOCK`]-sized blocks across them. Each cascade is a
//! lane of the one recovery engine, [`SessionClient`], carrying
//! version-3 headers ([`crate::StripeReq`]): it offers a block range,
//! the sink grants the sub-range it still needs (advancing past blocks
//! some other cascade already certified), and the cascade streams
//! exactly the granted range, each block followed by its MD5 and the
//! range trailed by the MD5 of those block digests (a hash list). The
//! sink certifies each block against its in-band digest, out of order,
//! through its [`lsl_digest::BlockLedger`], so stripe arrival order is
//! irrelevant to end-to-end verification.
//!
//! Scheduling is work-stealing over per-lane chunk queues: the stream is
//! first partitioned into contiguous macro-stripes sized by the
//! candidates' forecast scores (a faster forecast gets more blocks),
//! each split into [`StripeConfig::chunk_blocks`]-sized chunks. A lane
//! that drains its own queue steals from the back of the longest
//! surviving queue, so observed throughput — not the forecast — decides
//! the final distribution. When every queue is dry, an idle lane may
//! *redundantly* re-request a chunk still in flight on a slower lane
//! (k-of-n tail dispatch, budgeted by [`StripeConfig::redundant_tail`]);
//! the sink discards duplicate certifications, counting them.
//!
//! Cascade death re-stripes: a lane runs the engine's ordinary ladder
//! (reconnect backoff, failover to an unused candidate route), and when
//! no route is left it dies — its unverified in-flight blocks go back on
//! the dispatch queue ([`crate::SessionEvent::StripeLost`]) and
//! surviving cascades pick them up
//! ([`crate::SessionEvent::StripeRebalanced`]); the last lane's death
//! fails the session. Because the sink's grant always skips verified
//! blocks, a kill mid-transfer can only ever cause *in-flight* blocks to
//! be resent — never certified ones.
//!
//! With one cascade the session is the engine's single lane, carrying
//! the whole stream exactly as [`SessionClient::start`] does.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};

use lsl_netsim::{NodeId, Time};
use lsl_tcp::{Net, TcpConfig};

use crate::client::{RecoveryConfig, SessionClient};
use crate::endpoint::SendMode;
use crate::id::SessionId;
use crate::plan::RoutePlan;

/// Striping policy knobs. Recovery (backoff ladder, watchdog,
/// retransfer budget) is per *lane*, the engine's [`RecoveryConfig`].
#[derive(Clone, Debug)]
pub struct StripeConfig {
    /// Cascades opened concurrently (clamped to the plan's candidate
    /// count). 1 is the plain single-cascade [`SessionClient`].
    pub max_cascades: usize,
    /// Dispatch quantum: blocks per chunk a lane requests at a time.
    pub chunk_blocks: u64,
    /// Redundant tail attempts allowed per session (k-of-n dispatch of
    /// chunks already in flight elsewhere). 0 disables redundancy.
    pub redundant_tail: u32,
    /// Per-lane recovery policy (reconnect backoff, progress watchdog,
    /// retransfer budget). `direct_fallback` appends a depot-free
    /// candidate lanes may fail over to, exactly as for the single
    /// client.
    pub recovery: RecoveryConfig,
}

impl Default for StripeConfig {
    fn default() -> StripeConfig {
        StripeConfig {
            max_cascades: 2,
            chunk_blocks: 16,
            redundant_tail: 2,
            recovery: RecoveryConfig::default(),
        }
    }
}

/// Per-lane dispatch statistics, for experiment reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneStat {
    /// Candidate index the lane currently (or last) used.
    pub route: usize,
    /// Blocks dispatched on this lane (including re-dispatches).
    pub blocks_dispatched: u64,
    /// Blocks this lane stole from other lanes' queues.
    pub blocks_stolen: u64,
    /// Redundant (k-of-n) attempts this lane initiated.
    pub redundant_attempts: u64,
    /// The lane died (routes exhausted) and its work was re-striped.
    pub dead: bool,
}

/// A session striped over N concurrent cascades: a [`SessionClient`]
/// whose lanes carry chunks. It dereferences to the client for
/// `handle`, `on_outcome`, `state`, `events` and the other accessors.
pub struct StripedSession(SessionClient);

impl StripedSession {
    /// Begin the session over `min(cfg.max_cascades, plan.len())`
    /// cascades. Always LSL mode: striping (like resume) is
    /// meaningless without block certification.
    ///
    /// # Panics
    ///
    /// On a zero `max_cascades` or `chunk_blocks`, or more than 15
    /// cascades (the lane field of the timer token is 4 bits).
    #[allow(clippy::too_many_arguments)] // one-shot constructor mirroring SessionClient::start
    pub fn start(
        net: &mut Net,
        node: NodeId,
        plan: RoutePlan,
        session: SessionId,
        total: u64,
        tcp: TcpConfig,
        cfg: StripeConfig,
        trace_label: Option<&str>,
    ) -> StripedSession {
        assert!(
            cfg.max_cascades >= 1,
            "a session needs at least one cascade"
        );
        assert!(
            cfg.max_cascades <= 15,
            "timer tokens carry a 4-bit lane index"
        );
        assert!(cfg.chunk_blocks >= 1, "chunks must hold at least one block");
        StripedSession(SessionClient::open(
            net,
            node,
            plan,
            session,
            total,
            SendMode::lsl(),
            tcp,
            cfg,
            trace_label,
        ))
    }

    pub fn started_at(&self) -> Time {
        self.0.started_at
    }

    pub fn finished_at(&self) -> Option<Time> {
        self.0.finished_at
    }
}

impl Deref for StripedSession {
    type Target = SessionClient;

    fn deref(&self) -> &SessionClient {
        &self.0
    }
}

impl DerefMut for StripedSession {
    fn deref_mut(&mut self) -> &mut SessionClient {
        &mut self.0
    }
}

impl From<StripedSession> for SessionClient {
    fn from(s: StripedSession) -> SessionClient {
        s.0
    }
}

/// A dispatchable block range. `lost_at` is set when the chunk was
/// requeued off a dead lane — the rebalance-latency clock.
pub(crate) struct Chunk {
    pub(crate) start: u64,
    pub(crate) end: u64,
    pub(crate) lost_at: Option<Time>,
}

impl Chunk {
    pub(crate) fn blocks(&self) -> u64 {
        self.end - self.start
    }
}

/// Relative lane weights from forecast scores (predicted transfer time,
/// lower = faster = more blocks). Any unscored candidate makes the
/// split even — a static plan has no basis for asymmetry.
pub(crate) fn lane_weights(scores: &[Option<u64>]) -> Vec<u64> {
    let Some(all) = scores.iter().copied().collect::<Option<Vec<u64>>>() else {
        return vec![1; scores.len()];
    };
    let max = all.iter().copied().max().unwrap_or(1).max(1);
    all.iter()
        .map(|&s| ((max as u128 * 16 / s.max(1) as u128).min(1 << 20) as u64).max(1))
        .collect()
}

/// Contiguous macro-stripes over `[0, total_blocks)` proportional to
/// `weights` (remainders land on earlier lanes; every range is kept in
/// bounds and non-overlapping; later lanes may be empty when the stream
/// is short).
pub(crate) fn partition(total_blocks: u64, weights: &[u64]) -> Vec<(u64, u64)> {
    let sum: u128 = weights.iter().map(|&w| w as u128).sum::<u128>().max(1);
    let mut out = Vec::with_capacity(weights.len());
    let mut at = 0u64;
    let mut acc = 0u128;
    for (i, &w) in weights.iter().enumerate() {
        acc += w as u128;
        let end = if i == weights.len() - 1 {
            total_blocks
        } else {
            ((total_blocks as u128 * acc / sum) as u64).clamp(at, total_blocks)
        };
        out.push((at, end));
        at = end;
    }
    out
}

/// Split macro-stripe `[a, b)` into dispatch chunks of `chunk_blocks`.
pub(crate) fn chop(a: u64, b: u64, chunk_blocks: u64) -> VecDeque<Chunk> {
    let mut q = VecDeque::new();
    let mut at = a;
    while at < b {
        let end = (at + chunk_blocks).min(b);
        q.push_back(Chunk {
            start: at,
            end,
            lost_at: None,
        });
        at = end;
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_stream_in_order() {
        for (total, weights) in [
            (100u64, vec![1u64, 1]),
            (7, vec![3, 1]),
            (1000, vec![16, 8, 1]),
            (2, vec![1, 1, 1, 1]),
        ] {
            let p = partition(total, &weights);
            assert_eq!(p.len(), weights.len());
            assert_eq!(p[0].0, 0);
            assert_eq!(p.last().unwrap().1, total);
            for w in p.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous, non-overlapping");
            }
            for &(a, b) in &p {
                assert!(a <= b);
            }
        }
    }

    #[test]
    fn partition_is_weight_proportional() {
        let p = partition(100, &[3, 1]);
        assert_eq!(p, vec![(0, 75), (75, 100)]);
    }

    #[test]
    fn lane_weights_prefer_fast_forecasts() {
        // Lower score = faster route = heavier weight.
        let w = lane_weights(&[Some(100), Some(400)]);
        assert!(w[0] > w[1], "faster lane gets more blocks: {w:?}");
        // Any unscored candidate forces an even split.
        assert_eq!(lane_weights(&[Some(100), None]), vec![1, 1]);
        assert_eq!(lane_weights(&[None, None, None]), vec![1, 1, 1]);
    }

    #[test]
    fn chop_produces_chunk_quanta() {
        let q = chop(10, 45, 16);
        let ranges: Vec<(u64, u64)> = q.iter().map(|c| (c.start, c.end)).collect();
        assert_eq!(ranges, vec![(10, 26), (26, 42), (42, 45)]);
        assert!(chop(5, 5, 16).is_empty());
    }
}
