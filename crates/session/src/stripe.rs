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
//! range trailed by the MD5 of those block digests (a hash list). Every
//! lane reads those digests from the session's one table, filled eight
//! aligned blocks at a time, so a block is hashed once at the sender
//! however many chunks, lanes and re-attempts carry it. The
//! sink certifies each block against its in-band digest, out of order,
//! through its [`lsl_digest::BlockLedger`], so stripe arrival order is
//! irrelevant to end-to-end verification.
//!
//! Scheduling is work-stealing over per-lane chunk queues: the stream is
//! first partitioned into even contiguous macro-stripes, one per lane,
//! each split into `CHUNK_BLOCKS`-block chunks. A lane that drains its
//! own queue steals from the back of the longest surviving queue, so
//! observed throughput decides the final distribution. When every queue
//! is dry, an idle lane may *redundantly* re-request a chunk still in
//! flight on a slower lane (k-of-n tail dispatch, at most
//! `REDUNDANT_TAIL` per session); the sink discards duplicate
//! certifications, counting them.
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

/// Dispatch quantum: blocks per chunk a striped lane requests at a
/// time. Two blocks are 128 KiB, so a 1 MiB stream is eight chunks:
/// every lane sees several dispatch rounds and work stealing has
/// something to steal.
pub(crate) const CHUNK_BLOCKS: u64 = 2;

/// Redundant tail attempts per striped session (k-of-n dispatch of
/// chunks already in flight elsewhere).
pub(crate) const REDUNDANT_TAIL: u32 = 2;

/// Striping policy: how many cascades, and the per-lane recovery ladder
/// ([`RecoveryConfig`]), exactly as for the single client.
#[derive(Clone, Debug)]
pub struct StripeConfig {
    /// Cascades opened concurrently (clamped to the plan's candidate
    /// count). 1 is the plain single-cascade [`SessionClient`].
    pub max_cascades: usize,
    /// Per-lane reconnect ladder.
    pub recovery: RecoveryConfig,
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
    /// On a zero `max_cascades`, or more than 15 cascades (the lane
    /// field of the timer token is 4 bits).
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
        StripedSession(SessionClient::open(
            net,
            node,
            plan,
            session,
            total,
            SendMode::Lsl,
            tcp,
            cfg.max_cascades,
            cfg.recovery,
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

/// Even contiguous macro-stripes over `[0, total_blocks)`, one per lane:
/// in order, non-overlapping, sizes differing by at most one block
/// (some are empty when the stream is shorter than `lanes`).
pub(crate) fn partition(total_blocks: u64, lanes: usize) -> Vec<(u64, u64)> {
    let n = lanes as u64;
    (0..n)
        .map(|i| (total_blocks * i / n, total_blocks * (i + 1) / n))
        .collect()
}

/// Split macro-stripe `[a, b)` into `CHUNK_BLOCKS`-block chunks.
pub(crate) fn chop(a: u64, b: u64) -> VecDeque<Chunk> {
    let mut q = VecDeque::new();
    let mut at = a;
    while at < b {
        let end = (at + CHUNK_BLOCKS).min(b);
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
        for (total, lanes) in [(100u64, 2usize), (7, 2), (1000, 3), (16, 3), (2, 4)] {
            let p = partition(total, lanes);
            assert_eq!(p.len(), lanes);
            assert_eq!(p[0].0, 0);
            assert_eq!(p.last().unwrap().1, total);
            for w in p.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous, non-overlapping");
            }
            let sizes: Vec<u64> = p.iter().map(|&(a, b)| b - a).collect();
            let (min, max) = (sizes.iter().min(), sizes.iter().max());
            assert!(max.unwrap() - min.unwrap() <= 1, "even split: {p:?}");
        }
        assert_eq!(partition(16, 3), vec![(0, 5), (5, 10), (10, 16)]);
    }

    #[test]
    fn chop_produces_chunk_quanta() {
        let q = chop(10, 15);
        let ranges: Vec<(u64, u64)> = q.iter().map(|c| (c.start, c.end)).collect();
        assert_eq!(ranges, vec![(10, 12), (12, 14), (14, 15)]);
        assert!(chop(5, 5).is_empty());
    }
}
