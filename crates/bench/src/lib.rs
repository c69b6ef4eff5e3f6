//! Benchmark and experiment harness for the PProx reproduction.
//!
//! Two kinds of artifacts live here:
//!
//! * **Figure/table binaries** (`src/bin/`): one per table and figure of
//!   the paper's evaluation (§8). Each runs the simulated cluster
//!   ([`sim`]) over the paper's configurations and prints the same rows
//!   the original plot encodes. Run e.g.
//!   `cargo run -p pprox-bench --release --bin figure6`.
//! * **Criterion benches** (`benches/`): component-cost measurements on
//!   the *real* implementation (crypto, layer processing, shuffling, LRS
//!   queries) that calibrate the simulator's
//!   [`sim::ServiceCosts`] — the paper-vs-measured mapping is recorded in
//!   EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod report;
pub mod sim;
