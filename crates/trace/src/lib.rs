//! `tcpdump`-equivalent trace capture and the paper's analysis pipeline.
//!
//! The paper gathers packet traces *at the sending host* of every TCP
//! connection (direct or LSL sublink) and derives three things from them:
//!
//! 1. **RTT** from the delay between a data segment and the ACK that
//!    covers it (Figs 3, 4, 9),
//! 2. **normalized sequence-number growth** over time, averaged across
//!    the 10–120 iterations of each experiment (Figs 11–27),
//! 3. **retransmission counts**, used to condition comparisons on
//!    minimum / median / maximum observed loss (Figs 15–25).
//!
//! [`ConnTrace`] is the capture buffer the TCP layer fills; the analysis
//! functions here reproduce each derivation. [`export`] writes
//! gnuplot-style `.dat` files and quick ASCII plots.

mod analysis;
mod capture;
pub mod export;
mod series;

pub use analysis::{ack_rtts, mean_rtt, retransmissions, seq_growth, transfer_duration};
pub use capture::{ConnTrace, Dir, SegFlags, SegRecord};
pub use series::{average_series, normalize_time, resample, Series};
