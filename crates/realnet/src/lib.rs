//! LSL over real kernel TCP (`std::net`): the deployable counterpart of
//! the simulated stack, runnable on loopback or a real network.
//!
//! * [`LsdServer`] — the `lsd` depot daemon: an unprivileged, user-level
//!   relay exactly as the paper describes (§IV.A), one thread pair per
//!   relay direction, bounded copy buffers, same wire header as the
//!   simulator (`lsl_session::header`).
//! * [`LslStream`] — client side: connect along a loose source route of
//!   depots, stream data, digest trailer appended automatically.
//! * [`LslListener`] — sink side: accept sessions, verify the digest.
//!
//! The digest trailer is the simulator's v1 trailer: the MD5 of the
//! stream's 64 KiB block MD5s (a hash list), built with
//! `lsl_session::endpoint::HashList`, whole blocks hashed eight at a time
//! (`lsl_digest::md5_many`).
//!
//! Addressing: route hops are IPv4 socket addresses; the shared header's
//! 32-bit node field carries the IPv4 address bits (`wire` converts).

pub mod depot;
pub mod sink;
pub mod stream;
pub mod wire;

pub use depot::{DepotHandle, LsdServer};
pub use sink::{IncomingSession, LslListener};
pub use stream::LslStream;
