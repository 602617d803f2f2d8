//! Typed route plans: the validated candidate set a session runs over.
//!
//! Callers used to hand `SessionClient` a raw `Vec<LslPath>` (and the
//! earliest drivers a raw `Vec<Hop>`), which meant an over-long or
//! looping route was only caught deep in the encode path — as a panic.
//! A [`RoutePlan`] is built once, up front, through a validating
//! builder: every candidate shares a destination, passes
//! [`LslPath::validate`], and fits the wire header's [`MAX_HOPS`]
//! bound. That construction-time check is what makes
//! [`WireError::RouteTooLong`]
//! unreachable from `LslHeader::encode` for in-repo senders.
//!
//! Each candidate carries an optional fixed-point score (integer
//! nanoseconds of predicted transfer time, lower is better — see
//! [`crate::score`]).

use crate::error::{PlanError, WireError};
use crate::header::MAX_HOPS;
use crate::route::{Hop, LslPath};

/// One candidate route with its score.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteCandidate {
    pub path: LslPath,
    /// Predicted transfer time in integer nanoseconds (lower is
    /// better); `None` until a forecast scores the candidate.
    pub score: Option<u64>,
}

impl RouteCandidate {
    /// A statically configured, unscored candidate.
    pub fn new(path: LslPath) -> RouteCandidate {
        RouteCandidate { path, score: None }
    }
}

/// An ordered, builder-validated set of candidate routes sharing one
/// destination. Construction is the only way to get one, so a
/// `RoutePlan` in hand is proof every candidate is wire-encodable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutePlan {
    candidates: Vec<RouteCandidate>,
    dst: Hop,
}

/// Reject a path the wire header could not carry: the first-hop header
/// holds `remaining_route()`, and each depot only shortens it.
fn validate_path(path: &LslPath) -> Result<(), PlanError> {
    path.validate()?;
    let n = path.remaining_route().len();
    if n > MAX_HOPS {
        return Err(WireError::RouteTooLong(u8::try_from(n).unwrap_or(u8::MAX)).into());
    }
    Ok(())
}

impl RoutePlan {
    pub fn builder() -> RoutePlanBuilder {
        RoutePlanBuilder {
            candidates: Vec::new(),
        }
    }

    /// Convenience: a one-candidate plan.
    pub fn single(path: LslPath) -> Result<RoutePlan, PlanError> {
        RoutePlan::builder().path(path).build()
    }

    /// The shared destination hop.
    pub fn dst(&self) -> Hop {
        self.dst
    }

    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Always false — an empty plan cannot be constructed — but the
    /// predicate keeps the container API conventional.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    pub fn candidates(&self) -> &[RouteCandidate] {
        &self.candidates
    }

    pub fn get(&self, idx: usize) -> Option<&RouteCandidate> {
        self.candidates.get(idx)
    }

    /// True if any candidate reaches the destination without a depot.
    pub fn has_depot_free(&self) -> bool {
        self.candidates.iter().any(|c| c.path.depots.is_empty())
    }

    /// Append a recovery-layer fallback candidate, validated like any
    /// other. Returns the new candidate's index.
    pub fn push_failover(&mut self, path: LslPath) -> Result<usize, PlanError> {
        validate_path(&path)?;
        if path.dst != self.dst {
            return Err(PlanError::MixedDestination {
                expected: self.dst.node,
                got: path.dst.node,
            });
        }
        self.candidates.push(RouteCandidate::new(path));
        Ok(self.candidates.len() - 1)
    }

    /// Record a forecast score for candidate `idx`; `None` clears a
    /// stale score (the forecaster lost confidence).
    pub fn set_score(&mut self, idx: usize, score: Option<u64>) {
        if let Some(c) = self.candidates.get_mut(idx) {
            c.score = score;
        }
    }
}

/// Builder for [`RoutePlan`]: collects candidates, validates on
/// `build`.
#[derive(Debug, Default)]
pub struct RoutePlanBuilder {
    candidates: Vec<RouteCandidate>,
}

impl RoutePlanBuilder {
    /// Add a statically configured candidate.
    pub fn path(mut self, path: LslPath) -> RoutePlanBuilder {
        self.candidates.push(RouteCandidate::new(path));
        self
    }

    /// Validate and seal the plan: non-empty, shared destination, every
    /// route loop-free and within [`MAX_HOPS`].
    pub fn build(self) -> Result<RoutePlan, PlanError> {
        let first = self.candidates.first().ok_or(PlanError::Empty)?;
        let dst = first.path.dst;
        for c in &self.candidates {
            validate_path(&c.path)?;
            if c.path.dst != dst {
                return Err(PlanError::MixedDestination {
                    expected: dst.node,
                    got: c.path.dst.node,
                });
            }
        }
        Ok(RoutePlan {
            candidates: self.candidates,
            dst,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RouteError;
    use lsl_netsim::NodeId;

    fn hop(n: u32) -> Hop {
        Hop::new(NodeId(n), 7000)
    }

    fn dst() -> Hop {
        Hop::new(NodeId(99), 5001)
    }

    #[test]
    fn builder_validates_and_orders() {
        let plan = RoutePlan::builder()
            .path(LslPath::via(vec![hop(1)], dst()))
            .path(LslPath::via(vec![hop(2)], dst()))
            .path(LslPath::direct(dst()))
            .build()
            .unwrap();
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.dst(), dst());
        assert!(plan.has_depot_free());
        assert_eq!(plan.get(0).unwrap().path.depots, vec![hop(1)]);
        assert_eq!(plan.get(0).unwrap().score, None);
    }

    #[test]
    fn empty_plan_rejected() {
        assert_eq!(RoutePlan::builder().build().unwrap_err(), PlanError::Empty);
    }

    #[test]
    fn mixed_destination_rejected() {
        let err = RoutePlan::builder()
            .path(LslPath::direct(dst()))
            .path(LslPath::direct(Hop::new(NodeId(7), 5001)))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            PlanError::MixedDestination {
                expected: NodeId(99),
                got: NodeId(7),
            }
        );
    }

    #[test]
    fn looping_route_rejected() {
        let err = RoutePlan::single(LslPath::via(vec![hop(1), hop(1)], dst())).unwrap_err();
        assert_eq!(err, PlanError::Route(RouteError::DuplicateNode(NodeId(1))));
    }

    #[test]
    fn overlong_route_rejected_at_construction() {
        // MAX_HOPS + 1 depots → the first-hop header would carry
        // MAX_HOPS + 1 hops; the plan refuses before any wire code runs.
        let depots: Vec<Hop> = (1..=MAX_HOPS as u32 + 1).map(hop).collect();
        let err = RoutePlan::single(LslPath::via(depots, dst())).unwrap_err();
        assert_eq!(
            err,
            PlanError::Wire(WireError::RouteTooLong(MAX_HOPS as u8 + 1))
        );
        // The boundary case still builds.
        let depots: Vec<Hop> = (1..=MAX_HOPS as u32).map(hop).collect();
        assert!(RoutePlan::single(LslPath::via(depots, dst())).is_ok());
    }

    #[test]
    fn push_failover_appends_validated_candidate() {
        let mut plan = RoutePlan::single(LslPath::via(vec![hop(1)], dst())).unwrap();
        let idx = plan.push_failover(LslPath::direct(dst())).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(plan.get(1).unwrap().path, LslPath::direct(dst()));
        assert!(plan.has_depot_free());
        // Wrong destination still rejected.
        assert!(plan
            .push_failover(LslPath::direct(Hop::new(NodeId(7), 5001)))
            .is_err());
    }

    #[test]
    fn set_score_records_and_clears() {
        let mut plan = RoutePlan::single(LslPath::via(vec![hop(1)], dst())).unwrap();
        plan.set_score(0, Some(42));
        assert_eq!(plan.get(0).unwrap().score, Some(42));
        plan.set_score(0, None);
        assert_eq!(plan.get(0).unwrap().score, None);
        // Out-of-range index is a no-op, not a panic.
        plan.set_score(9, Some(1));
    }
}
