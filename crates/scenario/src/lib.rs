//! `pprox-scenario`: topology-driven cluster scenarios and the wire-tap
//! traffic-analysis adversary.
//!
//! The other measurement crates exercise PProx either in-process or in
//! a simulator. This crate drives the *real* loopback deployment
//! ([`pprox_wire::LoopbackCluster`]) through scripted operational
//! scenarios and mounts the §6.2 network adversary against actual
//! socket traffic:
//!
//! * [`schedule`] — open-loop, arrival-rate-driven load shapes (steady,
//!   diurnal ramp, flash crowd) drawn from seeded Poisson processes; no
//!   wall-clock randomness reaches any assertion.
//! * [`tap`] — a recording frame proxy interposed on the UA→IA
//!   boundary: per-frame timing, direction, size class, length, and
//!   per-hop correlation id — exactly what an on-path observer gets — plus
//!   optional injected WAN latency.
//! * [`harness`] — boots a cluster, reroutes every UA uplink through
//!   taps, replays a schedule (with optional client churn, slow-loris
//!   floors, and admission-gate abuse), then scores the
//!   [`pprox_attack::wire_audit`] linkage estimator against the
//!   analytic `1/S` and `1/(S·I)` curves.
//! * [`scenarios`] — the named catalog, including the seeded
//!   shuffle-order ablation every audit run must *catch*, and the
//!   (S, I) sweep behind the §6.2 table.
//!
//! `pprox-bench`'s `scenario_report` binary runs the catalog and emits
//! `results/BENCH_scenarios.json`; `security_analysis` runs the sweep;
//! `tests/scenarios.rs` pins the bounds in CI.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod harness;
pub mod scenarios;
pub mod schedule;
pub mod tap;

pub use harness::{run_scenario, test_seed, ScenarioOutcome, ScenarioSpec};
pub use schedule::{arrival_times_us, LoadShape};
pub use tap::{RecordingTap, TapClock, TapDirection, TapFrame};
