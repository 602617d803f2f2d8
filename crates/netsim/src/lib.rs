//! Deterministic discrete-event packet network simulator.
//!
//! This crate is the substrate that replaces the paper's physical testbed
//! (Abilene paths between UCSB, UIUC, UF, OSU and UTK). It models:
//!
//! * **store-and-forward links** with a transmission rate (serialization
//!   delay), propagation delay and a bounded drop-tail FIFO queue,
//! * **stochastic loss** (Bernoulli for wide-area paths, Gilbert–Elliott
//!   for the bursty 802.11b wireless edge of the paper's case 3),
//! * **nodes** with static routing tables (hosts and routers), and
//! * **timers** for protocols built on top (TCP RTO, delayed ACK, ...).
//!
//! The simulator is *pull-driven*: protocol stacks call [`Simulator::next`]
//! in a loop and receive [`Output`] values (packet deliveries and timer
//! expiries) to act on, then inject new packets with [`Simulator::send`].
//! This inversion keeps the simulator free of callbacks and lets the TCP
//! and LSL layers own their state without `RefCell` webs.
//!
//! Determinism: all randomness (loss draws) comes from a single seeded
//! PRNG, and events at equal timestamps are dispatched in insertion
//! order, so a given (topology, workload, seed) triple always produces a
//! bit-identical execution.

mod fault;
mod link;
mod loss;
mod packet;
mod sched;
mod sim;
mod stats;
mod storm;
mod time;
mod topo;

pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use link::{LinkSpec, DEFAULT_QUEUE_BYTES};
pub use loss::LossModel;
pub use packet::{Header, LinkId, NodeId, Packet, HEADER_MAX, PROTO_TCP};
pub use sim::{Output, PathProbe, Simulator, TimerHandle};
pub use stats::LinkStats;
pub use storm::{fault_kind_name, fault_plan_of, FaultStormGen, StormAtom, StormPlan, StormSpec};
pub use time::{Dur, Time};
pub use topo::{Topology, TopologyBuilder};
