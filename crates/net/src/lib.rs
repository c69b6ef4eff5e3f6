//! Discrete-event cluster simulator (the 27-node testbed substitute).
//!
//! The paper evaluates PProx on a 27-node Kubernetes cluster of 2-core
//! Intel NUCs. This reproduction has no such cluster, so the latency/
//! throughput experiments (Table 2–3, Figures 6–10) run on a discrete-event
//! simulation with the same structure:
//!
//! * [`sim::Simulator`] — the virtual clock and event heap.
//! * [`node::Station`] — a node as a multi-server FCFS queue; saturation
//!   and queueing delay emerge from the same mechanics as on real machines.
//! * [`link::Link`] — intra-datacenter message latency.
//! * [`lb::LoadBalancer`] — kube-proxy-style instance selection.
//! * [`service::ServiceTime`] — per-request demand models; the figure
//!   harness sets their constants to the paper's published anchors.
//!
//! What the simulator claims to reproduce is the *shape* of the paper's
//! results (who saturates where, how scaling steps look), not absolute
//! milliseconds of the authors' hardware; see EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod lb;
pub mod link;
pub mod node;
pub mod service;
pub mod sim;
pub mod time;

pub use lb::{BalancePolicy, LoadBalancer};
pub use link::Link;
pub use node::Station;
pub use service::{ServiceTime, SimRng};
pub use sim::{EventFn, Simulator};
pub use time::{SimDuration, SimTime};
