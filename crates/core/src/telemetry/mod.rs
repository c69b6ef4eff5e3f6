//! Privacy-safe operational telemetry (per-stage tracing + histograms).
//!
//! The paper's deployment "collects logs in a systematic fashion using
//! fluentd" (§7.2) and its elastic scaling (§5) consumes live load
//! signals. This module is that observability layer, built so the
//! telemetry itself preserves User–Interest unlinkability:
//!
//! * [`histogram`] — lock-free log-linear latency histograms with
//!   mergeable snapshots (p50/p95/p99/p99.9), replacing the single
//!   `busy_us` mean the registry used to offer.
//! * [`trace`] — the span record and its bounded lock-free ring, with
//!   trace IDs **re-randomized at every shuffle boundary** so a span
//!   stream cannot be joined across layers. The serving chain
//!   (`pprox-wire`) exports aggregates only and never produces proxy-side
//!   spans; the ring's producer is the user-side library, and
//!   `pprox-attack`'s telemetry audit builds the stream a span-exporting
//!   proxy *would* emit to show which policy keeps it inside `1/S`.
//! * [`export`] — Prometheus text exposition and JSON snapshot rendering
//!   plus their validators (the `telemetry_export` tool's engine).
//!
//! What must never be recorded here: raw user ids, raw item ids, and
//! arrival order (sequence numbers that survive the shuffle). Spans carry
//! only a random trace ID, a stage tag, an instance index, and timing —
//! and the `pprox-attack` telemetry audit holds the exported stream to
//! the §6.2 `1/S` linkage bound in CI.

pub mod export;
pub mod histogram;
pub(crate) mod sync;
pub mod trace;

pub use histogram::{HistogramSnapshot, LatencyHistogram};
pub use trace::{SpanRecord, SpanRing, Stage, TraceId, TraceIdPolicy};

use std::sync::Arc;
// analysis-allow: R6 the hub's epoch is the time *origin* spans are expressed
// against, not a per-request arrival capture; per-request E2e timing goes
// through record_duration (histogram only), never the span ring.
use std::time::Instant;

/// Telemetry deployment parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Span ring retention (spans, not requests).
    pub span_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            span_capacity: 8192,
        }
    }
}

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

    /// Merged dwell distribution of both shuffle directions — the
    /// "shuffle" stage the exporter and the autoscaler report.
    pub fn shuffle_snapshot(&self) -> HistogramSnapshot {
        let mut merged = self.histogram(Stage::ShuffleRequest).snapshot();
        merged.merge(&self.histogram(Stage::ShuffleResponse).snapshot());
        merged
    }

    /// Worst p99 across the *processing* stages (UA, IA, LRS) — the tail
    /// signal [`crate::autoscale::Autoscaler::observe_with_pressure`]
    /// consumes. Shuffle dwell is excluded on purpose: at low load the
    /// timer dominates dwell by design (§4.3) and would always breach an
    /// SLO tuned for processing latency.
    pub fn worst_processing_p99_us(&self) -> Option<u64> {
        let p99s: Vec<u64> = [Stage::Ua, Stage::Ia, Stage::Lrs]
            .iter()
            .map(|&s| self.histogram(s).snapshot())
            .filter(|snap| snap.count() > 0)
            .map(|snap| snap.p99())
            .collect();
        p99s.into_iter().max()
    }
}

/// The telemetry hub one deployment owns: per-stage histograms, the span
/// ring, and the shared time epoch spans are expressed against.
#[derive(Debug)]
pub struct Telemetry {
    stages: StageSet,
    spans: SpanRing,
    // analysis-allow: R6 shared epoch, not a per-request timestamp
    epoch: Instant,
}

impl Telemetry {
    /// A hub with the given configuration.
    pub fn new(config: TelemetryConfig) -> Telemetry {
        Telemetry {
            stages: StageSet::new(),
            spans: SpanRing::new(config.span_capacity),
            // analysis-allow: R6 hub creation time is the clock origin
            epoch: Instant::now(),
        }
    }

    /// Per-stage histograms.
    pub fn stages(&self) -> &StageSet {
        &self.stages
    }

    /// The span ring.
    pub fn spans(&self) -> &SpanRing {
        &self.spans
    }

    /// Microseconds since this hub was created — the `start_us` clock.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records a span into both views: its duration into the stage
    /// histogram and the span itself into the ring.
    pub fn record_span(&self, record: SpanRecord) {
        self.stages.record(record.stage, record.duration_us);
        self.spans.push(record);
    }

    /// Records into the stage histogram only (no span) — used for the
    /// end-to-end distribution, where a per-request span would tie a
    /// request's total latency to its delivery time and hand the adversary
    /// an arrival-time oracle the aggregate histogram does not leak.
    pub fn record_duration(&self, stage: Stage, us: u64) {
        self.stages.record(stage, us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_safe() {
        let c = TelemetryConfig::default();
        assert!(c.span_capacity >= 1024);
    }

    #[test]
    fn record_span_feeds_histogram_and_ring() {
        let t = Telemetry::new(TelemetryConfig::default());
        t.record_span(SpanRecord {
            trace: TraceId(1),
            stage: Stage::Ua,
            instance: 0,
            start_us: 10,
            duration_us: 250,
            ok: true,
        });
        assert_eq!(t.stages().histogram(Stage::Ua).count(), 1);
        assert_eq!(t.spans().snapshot().len(), 1);
        assert_eq!(t.stages().histogram(Stage::Ua).snapshot().p50(), 250);
    }

    #[test]
    fn record_duration_skips_the_ring() {
        let t = Telemetry::new(TelemetryConfig::default());
        t.record_duration(Stage::E2e, 1_000);
        assert_eq!(t.stages().histogram(Stage::E2e).count(), 1);
        assert!(t.spans().snapshot().is_empty());
    }

    #[test]
    fn worst_processing_p99_ignores_shuffle_dwell() {
        let t = Telemetry::new(TelemetryConfig::default());
        assert_eq!(t.stages().worst_processing_p99_us(), None);
        t.stages().record(Stage::ShuffleRequest, 500_000); // timer-bound dwell
        assert_eq!(t.stages().worst_processing_p99_us(), None);
        t.stages().record(Stage::Ua, 300);
        t.stages().record(Stage::Lrs, 9_000);
        let worst = t.stages().worst_processing_p99_us().unwrap();
        assert!((9_000..=9_600).contains(&worst), "worst {worst}");
    }

    #[test]
    fn shuffle_snapshot_merges_both_directions() {
        let t = Telemetry::new(TelemetryConfig::default());
        t.stages().record(Stage::ShuffleRequest, 100);
        t.stages().record(Stage::ShuffleResponse, 200);
        let merged = t.stages().shuffle_snapshot();
        assert_eq!(merged.count(), 2);
    }
}
