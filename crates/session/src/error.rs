//! Typed errors and lifecycle events for the session layer.
//!
//! These replace the seed implementation's stringly/boolean reporting:
//! `LslHeader::decode` returned `Result<_, String>`, `Depot::handle` and
//! `BulkSender::handle` returned bare `bool`s, and the sink counted
//! failures in an opaque `errors: u64`. Recovery needs to *dispatch* on
//! failure causes (a reset sublink is retried, a bad digest triggers a
//! retransfer, a dead route triggers failover), so every failure is now
//! a variant, shared between the simulated stack and `lsl-realnet`.

use std::fmt;

use lsl_netsim::{Dur, NodeId};
use lsl_tcp::TcpError;

/// Why an LSL header failed to parse. Shared by the simulated session
/// layer and the real-socket codec in `lsl-realnet`, so both report
/// identical decode failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The first bytes are not `LSL1`.
    BadMagic,
    /// Unknown protocol version.
    UnsupportedVersion(u8),
    /// Hop count exceeds [`crate::header::MAX_HOPS`].
    RouteTooLong(u8),
    /// The stream ended before a complete header arrived.
    TruncatedHeader,
    /// A header reached its sink with route hops still to go.
    ResidualRoute,
    /// A stripe request on an until-FIN stream: block ranges need a
    /// declared length.
    UnboundedStripe,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad magic (not an LSL header)"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported LSL version {v}"),
            WireError::RouteTooLong(n) => write!(f, "route too long: {n} hops"),
            WireError::TruncatedHeader => write!(f, "stream ended mid-header"),
            WireError::ResidualRoute => write!(f, "header reached the sink with hops left"),
            WireError::UnboundedStripe => write!(f, "stripe request without a stream length"),
        }
    }
}

impl std::error::Error for WireError {}

/// Why a loose source route is invalid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// A node appears more than once (routing loop, or the destination
    /// doubling as a depot).
    DuplicateNode(NodeId),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::DuplicateNode(n) => {
                write!(f, "node {:?} appears twice in route", n)
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Why a [`crate::plan::RoutePlan`] failed builder validation. Every
/// malformed candidate set is rejected here, at construction time —
/// which is what makes [`WireError::RouteTooLong`] unreachable from the
/// in-repo encode path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The plan has no candidates at all.
    Empty,
    /// Candidates do not share a destination hop.
    MixedDestination { expected: NodeId, got: NodeId },
    /// A candidate's loose source route is invalid.
    Route(RouteError),
    /// A candidate's route would not fit the wire header
    /// ([`WireError::RouteTooLong`]).
    Wire(WireError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Empty => write!(f, "route plan has no candidates"),
            PlanError::MixedDestination { expected, got } => write!(
                f,
                "route plan mixes destinations: expected {expected:?}, got {got:?}"
            ),
            PlanError::Route(e) => write!(f, "invalid candidate route: {e}"),
            PlanError::Wire(e) => write!(f, "candidate route rejected: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<RouteError> for PlanError {
    fn from(e: RouteError) -> PlanError {
        PlanError::Route(e)
    }
}

impl From<WireError> for PlanError {
    fn from(e: WireError) -> PlanError {
        PlanError::Wire(e)
    }
}

/// Why a session (or one attempt of it) failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// Malformed LSL framing on the wire.
    Wire(WireError),
    /// Invalid loose source route.
    Route(RouteError),
    /// A sublink transport error (reset, refused, retransmission
    /// timeout).
    Tcp(TcpError),
    /// The recovery layer's progress watchdog expired: the sublink made
    /// no progress for a full timeout window (e.g. a silently crashed
    /// depot the RTO has not yet condemned).
    Stalled,
    /// The end-to-end MD5 over the delivered stream does not match.
    DigestMismatch,
    /// A payload byte differs from the generator pattern.
    ContentMismatch,
    /// The stream ended before the header-declared length arrived.
    TruncatedStream,
    /// Every candidate route (and the direct fallback, when allowed)
    /// has been exhausted.
    RoutesExhausted,
    /// Retransfer budget exhausted without a verified delivery.
    RetransfersExhausted,
    /// The sink's resume grant is not a block boundary of the stream
    /// (or lies past its end). The sender must not stream from an
    /// offset the sink did not certify up to, so the attempt is
    /// abandoned as malformed.
    ResumeMismatch { granted: u64 },
    /// The sink granted a stripe block range outside the one this
    /// cascade requested — protocol corruption, so the attempt is
    /// abandoned (a *narrowed* grant, including the empty one, is
    /// normal: it means another cascade already delivered the head).
    StripeMismatch {
        granted_start: u64,
        granted_end: u64,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Wire(e) => write!(f, "wire error: {e}"),
            SessionError::Route(e) => write!(f, "route error: {e}"),
            SessionError::Tcp(e) => write!(f, "sublink error: {e:?}"),
            SessionError::Stalled => write!(f, "sublink stalled past the progress timeout"),
            SessionError::DigestMismatch => write!(f, "end-to-end digest mismatch"),
            SessionError::ContentMismatch => write!(f, "payload content mismatch"),
            SessionError::TruncatedStream => write!(f, "stream truncated before declared length"),
            SessionError::RoutesExhausted => write!(f, "no candidate route survived"),
            SessionError::RetransfersExhausted => write!(f, "retransfer budget exhausted"),
            SessionError::ResumeMismatch { granted } => write!(
                f,
                "resume grant off a block boundary or past the stream: {granted}"
            ),
            SessionError::StripeMismatch {
                granted_start,
                granted_end,
            } => write!(
                f,
                "stripe grant outside request: sink granted blocks [{granted_start}, {granted_end})"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<WireError> for SessionError {
    fn from(e: WireError) -> SessionError {
        SessionError::Wire(e)
    }
}

impl From<RouteError> for SessionError {
    fn from(e: RouteError) -> SessionError {
        SessionError::Route(e)
    }
}

impl From<TcpError> for SessionError {
    fn from(e: TcpError) -> SessionError {
        SessionError::Tcp(e)
    }
}

/// Lifecycle notifications emitted by the session layer: every
/// externally meaningful transition of a transfer, including the
/// recovery machinery's decisions. Drivers collect these for reporting
/// (the fault-campaign timeline) and for assertions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionEvent {
    /// The first-hop sublink connected.
    Established,
    /// The sink's session confirmation arrived (LSL mode).
    Confirmed,
    /// The active sublink failed, with the typed cause.
    SublinkDown(SessionError),
    /// Reconnecting over the same route after backoff.
    Reconnecting { attempt: u32, delay: Dur },
    /// Switched to the candidate route at `route` (0-based rank).
    FailedOver { route: usize },
    /// Proactive re-route: the live route's forecast degraded below the
    /// best alternative, so the session moved from candidate `from` to
    /// candidate `to` *before* the sublink failed, resuming via the
    /// sink's block grant.
    Rerouted { from: usize, to: usize },
    /// All depot routes exhausted: degraded to direct TCP.
    Degraded,
    /// Verified delivery failed; resending from the last verified block
    /// (or from byte 0 when resume is off or nothing verified).
    Retransfer { attempt: u32 },
    /// The sink granted a mid-stream resume: this attempt streams from
    /// `offset` (the first byte of block `from_block`) instead of 0.
    Resumed { from_block: u64, offset: u64 },
    /// A striped session lost cascade `cascade` (reconnect and failover
    /// budgets spent): its `blocks` unverified in-flight blocks go back
    /// on the dispatch queue. The session keeps streaming on survivors.
    StripeLost { cascade: usize, blocks: u64 },
    /// Blocks from a lost cascade were re-dispatched onto surviving
    /// cascade `to` — the striped counterpart of `FailedOver`, without
    /// pausing the session.
    StripeRebalanced { to: usize, blocks: u64 },
    /// The sink verified a complete delivery.
    Completed,
    /// Terminal failure: recovery gave up.
    Failed(SessionError),
}

/// What a `handle(…)` call did with an event — the typed replacement
/// for the old `bool` returns. `Consumed` means the event was owned by
/// that component and must not be offered to any other.
///
/// Fault notifications ([`lsl_tcp::AppEvent::Fault`]) are deliberately
/// *never* consumed: every component may react to one, so handlers
/// return `NotMine` for them and drivers keep offering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use = "dispatch loops must route unconsumed events to the next component"]
pub enum Handled {
    /// Not this component's event; offer it elsewhere.
    NotMine,
    /// Owned and processed.
    Consumed,
}

impl Handled {
    pub fn consumed(self) -> bool {
        self == Handled::Consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(SessionError::Wire(WireError::BadMagic)
            .to_string()
            .contains("magic"));
        assert!(SessionError::Tcp(TcpError::Reset)
            .to_string()
            .contains("Reset"));
        assert!(SessionError::from(WireError::UnsupportedVersion(9))
            .to_string()
            .contains('9'));
        assert!(RouteError::DuplicateNode(NodeId(3))
            .to_string()
            .contains("twice"));
    }

    #[test]
    fn conversions() {
        assert_eq!(
            SessionError::from(TcpError::Refused),
            SessionError::Tcp(TcpError::Refused)
        );
        assert_eq!(
            SessionError::from(RouteError::DuplicateNode(NodeId(1))),
            SessionError::Route(RouteError::DuplicateNode(NodeId(1)))
        );
    }

    #[test]
    fn plan_error_displays_and_converts() {
        assert!(PlanError::Empty.to_string().contains("no candidates"));
        assert!(PlanError::from(WireError::RouteTooLong(17))
            .to_string()
            .contains("17"));
        assert_eq!(
            PlanError::from(RouteError::DuplicateNode(NodeId(2))),
            PlanError::Route(RouteError::DuplicateNode(NodeId(2)))
        );
    }

    #[test]
    fn handled_predicate() {
        assert!(Handled::Consumed.consumed());
        assert!(!Handled::NotMine.consumed());
    }
}
