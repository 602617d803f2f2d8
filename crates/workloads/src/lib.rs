//! Calibrated experiment topologies, the experiment runner, and the
//! fault-campaign harness.
//!
//! The paper's testbed is unavailable (Abilene circa 2001), so each
//! measurement case is modelled as a small topology whose link
//! parameters are calibrated so trace-measured RTTs and achieved
//! bandwidth plateaus land near the paper's reported values (see
//! DESIGN.md's substitution table):
//!
//! * **case 1** — UCSB → UIUC, depot at the Denver POP (Figs 3, 5, 6,
//!   11–25),
//! * **case 2** — UCSB → UF, depot at the Houston POP (Figs 4, 7, 8, 26),
//! * **case 3** — UTK → UCSB over an 802.11b wireless edge, depot at the
//!   campus wired/wireless boundary (Figs 9, 10, 27),
//! * **case 4** — UCSB → OSU via Denver, steady-state study (Figs 28,
//!   29).
//!
//! [`runner`] executes one measured transfer (direct TCP or LSL) on a
//! case and returns wall-clock timing plus the sender-side traces of
//! every connection, exactly as the paper instruments its runs;
//! [`sweep`] repeats across sizes/iterations and aggregates.
//!
//! [`scenario`] is the one harness behind every fault campaign: a
//! [`Scenario`] (campaign, client kind, fault storm, size and bounds)
//! runs on the redundant-depot topologies of [`paths`] and returns a
//! [`RunReport`] checked against the recovery contract — scripted drills
//! ([`Drill`]), seeded chaos storms, forecast-routed sessions driven by
//! the [`forecast`] plane, and RAIL-style striped sessions with a
//! targeted cascade kill every seed.

pub mod campaign;
pub mod forecast;
pub mod paths;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod sweep;

pub use campaign::{default_jobs, run_campaign};
pub use forecast::{ForecastPlane, FORECAST_TIMER_TAG};
pub use paths::{
    case1, case2, case3, case4, failover_case, striped_case, FailoverCase, PathCase, StripedCase,
};
pub use runner::{run_transfer, Mode, RunConfig, RunResult};
pub use scenario::{
    chaos_spec, run_scenarios, shrink_storm, striped_spec, Campaign, CampaignConfig, ClientKind,
    Drill, FaultRunConfig, RoutingConfig, RunReport, Scenario, StripedChaosConfig, Violation,
};
pub use sweep::{sweep_sizes, sweep_sizes_jobs, SweepPoint};
