//! A Network Weather Service (NWS)-style forecasting substrate.
//!
//! The paper assumes "LSL clients and depots ... have network performance
//! information available from a system such as the Network Weather
//! Service, in order to make decisions about paths" (§III, citing
//! Wolski's NWS). This crate reproduces the NWS forecasting core:
//! a family of simple time-series predictors run side by side, with an
//! adaptive *mixture* that, at each step, trusts the predictor whose past
//! forecasts have had the lowest error — the defining NWS design.
//!
//! [`registry::LinkRegistry`] stores measurement series per (src, dst)
//! pair and produces the per-sublink forecasts that feed
//! `lsl_session::score` route ranking.

pub mod forecast;
pub mod registry;
pub mod series;

pub use forecast::{
    AdaptiveMixture, ExpSmoothing, Forecaster, LastValue, MedianWindow, RunningMean, SlidingMean,
};
pub use registry::{Confidence, LinkForecast, LinkMetrics, LinkRegistry};
pub use series::TimeSeries;
