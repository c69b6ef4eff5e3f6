//! Atomic primitives for the telemetry layer, switchable to the loom
//! model checker.
//!
//! Telemetry's lock-free structure ([`super::histogram::LatencyHistogram`])
//! imports its atomics from here instead of `std::sync::atomic`. A normal build re-exports std; a build
//! with `RUSTFLAGS="--cfg loom"` re-exports the loom shim's instrumented
//! types, whose every operation is a scheduling point — which is what lets
//! `tests/loom.rs` exhaustively permute recorder/reader interleavings of
//! the histogram protocol.

#[cfg(loom)]
pub(crate) use loom::sync::atomic::{AtomicU64, Ordering};

#[cfg(not(loom))]
pub(crate) use std::sync::atomic::{AtomicU64, Ordering};
