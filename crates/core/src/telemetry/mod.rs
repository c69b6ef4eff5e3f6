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
//! Each proxy node records into a [`Telemetry`] of its own, all on one
//! deployment epoch ([`Telemetry::since`]). Nothing here renders or
//! exports: a node's histograms leave it in its metrics document
//! (`pprox_wire::scrape`), whose schema is the one place a metric is
//! declared, and a deployment view sums them ([`StageSet::sum`]).
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

/// Per-stage latency histograms, one [`LatencyHistogram`] per
/// [`Stage`]. Recording is lock-free. Every sample comes from a node's
/// wire service through [`Telemetry::record_duration`], timed around
/// the call it measures: the enclave layer states hold no recorder.
#[derive(Debug)]
pub struct StageSet {
    histograms: Vec<LatencyHistogram>,
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
            histograms: Stage::ALL.iter().map(|_| LatencyHistogram::new()).collect(),
        }
    }

    /// The histogram recording `stage`.
    pub fn histogram(&self, stage: Stage) -> &LatencyHistogram {
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

    /// Each stage's observations summed over `sets`: what one recorder
    /// that took every set's samples would hold.
    pub fn sum<'a>(sets: impl IntoIterator<Item = &'a StageSet>) -> StageSet {
        let mut sums = vec![HistogramSnapshot::empty(); Stage::ALL.len()];
        for set in sets {
            for (sum, histogram) in sums.iter_mut().zip(&set.histograms) {
                sum.merge(&histogram.snapshot());
            }
        }
        StageSet {
            histograms: sums.iter().map(LatencyHistogram::from_snapshot).collect(),
        }
    }
}

/// One recorder's telemetry hub: per-stage histograms and the time
/// epoch [`Telemetry::now_us`] counts from, which hubs built with
/// [`Telemetry::since`] from one epoch share.
#[derive(Debug)]
pub struct Telemetry {
    stages: StageSet,
    // analysis-allow: R6 the hub's epoch is the time *origin* `now_us`
    // counts from, not a per-request arrival capture; per-request timing
    // enters only through record_duration (a histogram cell).
    epoch: std::time::Instant,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A hub with empty histograms, its clock starting now.
    pub fn new() -> Telemetry {
        // analysis-allow: R6 hub creation time is the clock origin
        Telemetry::since(std::time::Instant::now(), StageSet::new())
    }

    /// A hub holding `stages` whose clock counts from `epoch`: every hub
    /// built from one epoch reads the same [`Telemetry::now_us`].
    // analysis-allow: R6 a clock origin handed in, not a per-request timestamp
    pub fn since(epoch: std::time::Instant, stages: StageSet) -> Telemetry {
        Telemetry { stages, epoch }
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
        t.record_duration(Stage::Lrs, 1_000);
        t.record_duration(Stage::Ua, 250);
        assert_eq!(t.stages().histogram(Stage::Lrs).count(), 1);
        assert_eq!(t.stages().histogram(Stage::Ua).snapshot().p50(), 250);
    }

    #[test]
    fn summed_stage_sets_hold_every_sample_once() {
        let (a, b) = (StageSet::new(), StageSet::new());
        a.record(Stage::Ua, 250);
        b.record(Stage::Ua, 4_000);
        b.record(Stage::Ia, 90);
        let sum = StageSet::sum([&a, &b]);
        let ua = sum.histogram(Stage::Ua).snapshot();
        assert_eq!((ua.count(), ua.sum_us(), ua.max_us()), (2, 4_250, 4_000));
        assert_eq!(ua.cumulative_le(1_000), 1, "the cells carry over");
        assert_eq!(sum.histogram(Stage::Ia).count(), 1);
        assert_eq!(sum.histogram(Stage::Lrs).count(), 0);
    }
}
