//! The Logistical Session Layer (LSL) — the paper's contribution.
//!
//! A *session* is a conversation between a source and a sink carried over
//! one or more **cascaded TCP sublinks** through intermediate **depots**
//! (the `lsd` daemon). The session is named by a 128-bit identifier and
//! routed along an initiator-specified *loose source route* of depots.
//! Each depot performs a transport-to-transport binding with a small,
//! short-lived relay buffer; TCP flow control on each sublink provides
//! hop-by-hop backpressure, and an MD5 digest over the complete stream
//! restores end-to-end integrity (the end-to-end argument is honoured at
//! the endpoints, §III of the paper).
//!
//! Crate layout:
//!
//! * [`client`] — the one recovery engine: a session is one or more
//!   lanes, each running the same ladder (reconnect with backoff,
//!   depot-route failover, direct-TCP degradation, retransfer); a
//!   one-lane session is the single cascade,
//! * [`error`] — typed wire/route/session errors, lifecycle
//!   [`SessionEvent`]s and the [`Handled`] event-dispatch result,
//! * [`header`] — the LSL wire header (magic, version, session id, loose
//!   source route, length, digest flag) shared with `lsl-realnet`,
//! * [`id`] — session identifiers,
//! * [`route`] — loose source routes and path descriptions,
//! * [`depot`] — the simulated `lsd` depot (bidirectional relay),
//! * [`endpoint`] — bulk sender and sink applications for experiments,
//! * [`model`] — analytic TCP/cascade throughput models (Mathis
//!   steady-state plus a slow-start transient model), the float
//!   reference [`score`] is checked against,
//! * [`plan`] — typed, builder-validated route candidate sets
//!   ([`RoutePlan`]) — the only way to hand the client routes,
//! * [`score`] — deterministic fixed-point cascade scoring driving
//!   forecast route selection and proactive re-routing,
//! * [`stripe`] — RAIL-style striped sessions: the multi-lane dispatch
//!   policy (macro-stripes, work stealing, k-of-n redundant tails,
//!   re-striping a dead lane's blocks) and [`StripedSession`], the
//!   N-lane [`SessionClient`].

pub mod client;
pub mod depot;
pub mod endpoint;
pub mod error;
pub mod header;
pub mod id;
pub mod model;
pub mod plan;
pub mod route;
pub mod score;
pub mod stripe;

pub use client::{
    client_timer_token, ClientState, RecoveryConfig, SessionClient, CLIENT_TIMER_TAG,
};
pub use depot::{Depot, DepotConfig, DepotConfigBuilder, DepotStats};
pub use endpoint::{
    stream_blocks, BulkSender, Request, SenderState, SinkServer, TransferOutcome, TransferStatus,
    RESUME_BLOCK, SINK_TIMER_TAG,
};
pub use error::{Handled, PlanError, RouteError, SessionError, SessionEvent, WireError};
pub use header::{LslHeader, Resume, StripeReq, HEADER_FLAG_DIGEST, NO_VERIFIED_BLOCK};
pub use id::SessionId;
pub use plan::{RouteCandidate, RoutePlan, RoutePlanBuilder};
pub use route::{Hop, LslPath};
pub use score::{cascade_score_ns, rank_candidates, SublinkForecast};
pub use stripe::{LaneStat, StripeConfig, StripedSession};
