//! Benchmark and experiment harness for the PProx reproduction.
//!
//! **Figure/table binaries** (`src/bin/`): one per table and figure of
//! the paper's evaluation (§8). Each runs the simulated cluster ([`sim`])
//! over the paper's configurations and prints the same rows the original
//! plot encodes. Run e.g. `cargo run -p pprox-bench --release --bin figure6`.
//! The simulator's [`sim::ServiceCosts`] are hand-set to the paper's
//! anchors; the real implementation's per-layer costs are measured on the
//! serving chain by `benchmark/ --trace` (EXPERIMENTS.md maps them).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod report;
pub mod sim;
