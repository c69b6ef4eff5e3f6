//! Privacy-safe operational telemetry (per-stage latency histograms).
//!
//! The paper's deployment "collects logs in a systematic fashion using
//! fluentd" (§7.2). This module is that observability layer, built so the
//! telemetry itself preserves User–Interest unlinkability: everything it
//! can hold is an aggregate.
//!
//! * [`histogram`] — lock-free log-linear latency histograms with
//!   mergeable snapshots (p50/p95/p99/p99.9).
//! * [`stage`] — the [`Stage`] tag naming what a histogram measures.
//!
//! Nothing here renders or exports: a node's histograms leave it in its
//! metrics document (`pprox_wire::scrape`), whose schema is the one
//! place a metric is declared.
//!
//! What must never be recorded here: raw user ids, raw item ids, arrival
//! order (sequence numbers that survive the shuffle), or any per-request
//! record at all — there is no span, trace ID or event type to put one
//! in, and the analyzer's R6 rejects a call that would record one
//! anywhere in production code. A duration enters a histogram cell and
//! nothing else about the request survives.

pub mod histogram;
pub mod stage;
pub(crate) mod sync;

pub use histogram::{HistogramSnapshot, LatencyHistogram};
pub use stage::Stage;

use std::sync::Arc;
// analysis-allow: R6 the hub's epoch is the time *origin* `now_us` counts
// from, not a per-request arrival capture; per-request timing enters only
// through record_duration (a histogram cell).
use std::time::Instant;

/// Per-stage latency histograms, one [`LatencyHistogram`] per
/// [`Stage`]. Recording is lock-free; histograms are shared `Arc`s so
/// subsystems (the enclave layer states, the shuffle stages) can hold
/// their stage's recorder directly.
#[derive(Debug)]
pub struct StageSet {
    histograms: Vec<Arc<LatencyHistogram>>,
}

impl Default for StageSet {
    fn default() -> Self {
        Self::new()
    }
}

impl StageSet {
    /// Empty histograms for every stage.
    pub fn new() -> StageSet {
        StageSet {
            histograms: Stage::ALL
                .iter()
                .map(|_| Arc::new(LatencyHistogram::new()))
                .collect(),
        }
    }

    /// The shared histogram recording `stage`.
    pub fn histogram(&self, stage: Stage) -> &Arc<LatencyHistogram> {
        &self.histograms[stage as usize]
    }

    /// Records one observation for `stage`.
    pub fn record(&self, stage: Stage, us: u64) {
        self.histograms[stage as usize].record(us);
    }

    /// Snapshot of every stage, in pipeline order.
    pub fn snapshot(&self) -> Vec<(Stage, HistogramSnapshot)> {
        Stage::ALL
            .iter()
            .map(|&s| (s, self.histograms[s as usize].snapshot()))
            .collect()
    }
}

/// The telemetry hub one deployment owns: per-stage histograms and the
/// shared time epoch [`Telemetry::now_us`] counts from.
#[derive(Debug)]
pub struct Telemetry {
    stages: StageSet,
    // analysis-allow: R6 shared epoch, not a per-request timestamp
    epoch: Instant,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A hub with empty histograms, its clock starting now.
    pub fn new() -> Telemetry {
        Telemetry {
            stages: StageSet::new(),
            // analysis-allow: R6 hub creation time is the clock origin
            epoch: Instant::now(),
        }
    }

    /// Per-stage histograms.
    pub fn stages(&self) -> &StageSet {
        &self.stages
    }

    /// Microseconds since this hub was created.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records one duration into `stage`'s histogram — the only way a
    /// request leaves a mark here. A per-request record would tie a
    /// latency to its delivery time and hand the adversary an
    /// arrival-time oracle the aggregate histogram does not leak.
    pub fn record_duration(&self, stage: Stage, us: u64) {
        self.stages.record(stage, us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_duration_feeds_the_stage_histogram() {
        let t = Telemetry::new();
        t.record_duration(Stage::E2e, 1_000);
        t.record_duration(Stage::Ua, 250);
        assert_eq!(t.stages().histogram(Stage::E2e).count(), 1);
        assert_eq!(t.stages().histogram(Stage::Ua).snapshot().p50(), 250);
    }
}
