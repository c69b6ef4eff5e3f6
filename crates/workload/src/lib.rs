//! Workload generation, load injection and latency statistics.
//!
//! Reproduces the paper's measurement methodology (§7.1, §8):
//!
//! * [`dataset`] — synthetic ratings with Zipf popularity, drawn at given
//!   dimensions (`Dataset::generate`) or at 1/64 of the `ml-20m`
//!   2014–2015 slice (`Dataset::small`), since the original dataset is
//!   not bundled.
//! * [`zipf`] — the heavy-tail sampler behind it.
//! * [`injector`] — open-loop arrival schedules at a target RPS (the
//!   node.js `loadtest` role) with the paper's 15-second trim rule.
//! * [`stats`] — candlestick latency summaries exactly as the paper's
//!   figures draw them (quartiles + 1.5×IQR whiskers).
//! * [`diurnal`] — day/night load curves for the §5 elastic-scaling and
//!   §6.3 night-time experiments.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod dataset;
pub mod diurnal;
pub mod injector;
pub mod stats;
pub mod zipf;

pub use dataset::Dataset;
pub use injector::{ArrivalProcess, Schedule};
pub use stats::{Candlestick, LatencyRecorder};
