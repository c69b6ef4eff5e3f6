//! Log-linear latency histograms (the HdrHistogram idea, fixed layout).
//!
//! A [`LatencyHistogram`] is a flat array of `AtomicU64` cells indexed by
//! a log-linear bucketing of microsecond values: exact counts below
//! [`SUB_BUCKETS`] µs, then [`SUB_BUCKETS`] linear sub-buckets per power
//! of two. Recording is one `fetch_add` — no locks, no allocation — so it
//! lives on the proxy hot path next to the node's scrape counters
//! (`pprox_wire::scrape`).
//! Snapshots are plain vectors that merge by element-wise addition, which
//! is what lets per-worker recording aggregate into per-stage and
//! per-deployment views without any coordination on the write side.

use crate::telemetry::sync::{AtomicU64, Ordering};

/// Linear sub-buckets per octave: 2^5. Relative quantile error is bounded
/// by one sub-bucket, i.e. ≤ 1/32 ≈ 3.1%.
pub const SUB_BUCKET_BITS: u32 = 5;

/// Number of linear sub-buckets per power of two.
pub const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// Largest exponent tracked: values at or above 2^(`MAX_EXPONENT`+1) µs
/// (~18 minutes) clamp into the top bucket.
pub const MAX_EXPONENT: u32 = 39;

/// Total cells in a histogram.
pub const NUM_BUCKETS: usize =
    (MAX_EXPONENT - SUB_BUCKET_BITS) as usize * SUB_BUCKETS + 2 * SUB_BUCKETS;

/// Largest value that lands in a non-clamped bucket.
const MAX_TRACKED: u64 = (1u64 << (MAX_EXPONENT + 1)) - 1;

/// Bucket index for a microsecond value.
fn bucket_index(us: u64) -> usize {
    let v = us.min(MAX_TRACKED);
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        // 2^k <= v < 2^(k+1), k >= SUB_BUCKET_BITS: keep the top
        // SUB_BUCKET_BITS+1 bits, giving SUB_BUCKETS linear cells per
        // octave, laid out contiguously after the exact range.
        let k = 63 - v.leading_zeros();
        let shift = k - SUB_BUCKET_BITS;
        ((k - SUB_BUCKET_BITS) as usize) * SUB_BUCKETS + (v >> shift) as usize
    }
}

/// Inclusive upper bound (µs) of a bucket — the value quantiles report.
fn bucket_upper(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        index as u64
    } else {
        let group = (index / SUB_BUCKETS) as u32; // >= 1
        let sub = (index % SUB_BUCKETS) as u64;
        ((SUB_BUCKETS as u64 + sub + 1) << (group - 1)) - 1
    }
}

/// Lock-free log-linear histogram of microsecond latencies.
#[derive(Debug)]
pub struct LatencyHistogram {
    cells: Vec<AtomicU64>,
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            cells: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// A histogram holding `snap`'s observations, to record on from there.
    pub(crate) fn from_snapshot(snap: &HistogramSnapshot) -> Self {
        LatencyHistogram {
            cells: snap.counts.iter().map(|&c| AtomicU64::new(c)).collect(),
            count: AtomicU64::new(snap.count),
            sum_us: AtomicU64::new(snap.sum_us),
            max_us: AtomicU64::new(snap.max_us),
        }
    }

    /// Records one latency observation. Lock-free; safe from any thread.
    pub fn record(&self, us: u64) {
        // relaxed-ok: independent commutative counters — every cell is a
        // standalone accumulator, no cross-cell invariant is read back
        // under the assumption of ordering; same for the next three ops
        self.cells[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        // relaxed-ok: commutative counter (see above)
        self.count.fetch_add(1, Ordering::Relaxed);
        // relaxed-ok: commutative counter (see above)
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        // relaxed-ok: commutative max fold (see above)
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        // relaxed-ok: standalone monotone counter read; no data guarded
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the cells. Concurrent recording keeps the
    /// snapshot *consistent enough*: each cell is exact at its read
    /// instant, so totals may trail in-flight records by a few counts but
    /// never invent observations.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .cells
            .iter()
            // relaxed-ok: snapshot reads are documented as per-cell exact,
            // not mutually consistent; totals may trail in-flight records
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            counts,
            count,
            // relaxed-ok: per-cell-exact snapshot read (see above)
            sum_us: self.sum_us.load(Ordering::Relaxed),
            // relaxed-ok: per-cell-exact snapshot read (see above)
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// Mergeable point-in-time histogram contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no observations.
    pub fn empty() -> Self {
        HistogramSnapshot {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }

    /// Rebuilds a snapshot from externally transported parts (e.g. a
    /// metrics scrape that crossed the wire). `counts` is padded or
    /// truncated to the fixed [`NUM_BUCKETS`] layout and the total is
    /// re-derived from the cells, so a reconstructed snapshot always
    /// merges exactly like a locally captured one. The total saturates:
    /// transported cells are hostile input, and a scrape may carry up to
    /// 2^53 in each.
    pub fn from_parts(mut counts: Vec<u64>, sum_us: u64, max_us: u64) -> Self {
        counts.resize(NUM_BUCKETS, 0);
        let count = counts
            .iter()
            .fold(0, |total: u64, &c| total.saturating_add(c));
        HistogramSnapshot {
            counts,
            count,
            sum_us,
            max_us,
        }
    }

    /// The raw per-bucket counts in fixed [`NUM_BUCKETS`] layout — the
    /// transport-side counterpart of [`HistogramSnapshot::from_parts`].
    /// Bucketed aggregates only: indices are log-linear latency ranges,
    /// never per-request values.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values, µs.
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Largest observed value, µs.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Mean observed value, µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the observation of rank `ceil(q · count)`,
    /// clamped to the observed maximum. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= target {
                return bucket_upper(i).min(self.max_us);
            }
        }
        self.max_us
    }

    /// Median latency, µs.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile latency, µs.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile latency, µs.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile latency, µs.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Observations at or below `bound_us` — the cumulative count a
    /// Prometheus `le` bucket exports. Conservative: a log-linear bucket
    /// straddling `bound_us` counts only if it lies entirely below it.
    pub fn cumulative_le(&self, bound_us: u64) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .take_while(|(i, _)| bucket_upper(*i) <= bound_us)
            .fold(0, |total: u64, (_, &c)| total.saturating_add(c))
    }

    /// Adds `other`'s observations into `self`. Merging snapshots from
    /// per-worker histograms yields exactly the histogram a single shared
    /// recorder would have produced (same fixed bucket layout). Sums
    /// saturate: a merged snapshot may come off the wire
    /// ([`HistogramSnapshot::from_parts`]).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        // Every value maps to a bucket whose bounds contain it, and
        // bucket upper bounds strictly increase with the index.
        let mut prev_upper = None;
        for i in 0..NUM_BUCKETS {
            let upper = bucket_upper(i);
            if let Some(p) = prev_upper {
                assert!(upper > p, "bucket {i} upper {upper} <= prev {p}");
            }
            prev_upper = Some(upper);
            assert_eq!(bucket_index(upper), i, "upper bound maps back");
        }
        for v in [0u64, 1, 31, 32, 63, 64, 100, 1_000, 123_456, 10_000_000] {
            let i = bucket_index(v);
            assert!(bucket_upper(i) >= v);
            if i > 0 {
                assert!(bucket_upper(i - 1) < v);
            }
        }
    }

    #[test]
    fn huge_values_clamp_without_panicking() {
        let h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(MAX_TRACKED + 1);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.max_us(), u64::MAX);
    }

    #[test]
    fn quantiles_match_exact_small_values() {
        // Values below SUB_BUCKETS are exact: quantiles are precise.
        let h = LatencyHistogram::new();
        for v in 1..=20u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 10);
        assert_eq!(s.quantile(1.0), 20);
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.mean_us(), 10.5);
    }

    #[test]
    fn quantile_error_is_bounded_by_sub_bucket_resolution() {
        let h = LatencyHistogram::new();
        for i in 0..10_000u64 {
            h.record(1_000 + i); // uniform on [1000, 11000)
        }
        let s = h.snapshot();
        let true_p99 = 1_000.0 + 0.99 * 10_000.0;
        let measured = s.p99() as f64;
        assert!(
            (measured - true_p99).abs() / true_p99 < 1.0 / SUB_BUCKETS as f64 + 0.01,
            "p99 {measured} vs true {true_p99}"
        );
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(LatencyHistogram::new());
        let threads = 8;
        let per_thread = 5_000u64;
        let joins: Vec<_> = (0..threads)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record((t * 1_000 + i) % 50_000);
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count(), threads * per_thread);
        assert_eq!(s.count(), h.count());
    }

    #[test]
    fn merged_snapshot_equals_single_recorder() {
        // Concurrent per-thread histograms merged == one shared histogram
        // fed the same values (fixed layout makes merge exact).
        use std::sync::Arc;
        let shared = Arc::new(LatencyHistogram::new());
        let mut merged = HistogramSnapshot::empty();
        let mut parts = Vec::new();
        for t in 0..4u64 {
            let shared = Arc::clone(&shared);
            parts.push(std::thread::spawn(move || {
                let local = LatencyHistogram::new();
                for i in 0..2_000u64 {
                    let v = t * 7 + i * 3;
                    local.record(v);
                    shared.record(v);
                }
                local.snapshot()
            }));
        }
        for p in parts {
            merged.merge(&p.join().unwrap());
        }
        assert_eq!(merged, shared.snapshot());
    }

    #[test]
    fn cumulative_le_is_monotone_and_totals() {
        let h = LatencyHistogram::new();
        for v in [1u64, 5, 50, 500, 5_000, 50_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let mut prev = 0;
        for bound in [1u64, 10, 100, 1_000, 10_000, 100_000] {
            let c = s.cumulative_le(bound);
            assert!(c >= prev);
            prev = c;
        }
        assert_eq!(s.cumulative_le(u64::MAX), s.count());
    }

    #[test]
    fn from_parts_roundtrips_and_normalizes() {
        let h = LatencyHistogram::new();
        for v in [3u64, 40, 400, 4_000, 40_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let rebuilt =
            HistogramSnapshot::from_parts(s.bucket_counts().to_vec(), s.sum_us(), s.max_us());
        assert_eq!(rebuilt, s);
        // Short and long vectors normalize to the fixed layout.
        let short = HistogramSnapshot::from_parts(vec![2, 0, 1], 4, 2);
        assert_eq!(short.count(), 3);
        assert_eq!(short.bucket_counts().len(), NUM_BUCKETS);
        let long = HistogramSnapshot::from_parts(vec![1; NUM_BUCKETS + 7], 0, 0);
        assert_eq!(long.count(), NUM_BUCKETS as u64);
    }

    #[test]
    fn transported_sums_saturate() {
        let huge = HistogramSnapshot::from_parts(vec![u64::MAX / 2; NUM_BUCKETS], u64::MAX, 9);
        assert_eq!(huge.count(), u64::MAX);
        let mut merged = huge.clone();
        merged.merge(&huge);
        assert_eq!(merged.count(), u64::MAX);
        assert_eq!(merged.sum_us(), u64::MAX);
        assert_eq!(merged.bucket_counts()[0], u64::MAX - 1);
        assert_eq!(merged.p999(), 0); // the first cell already holds the rank
        assert_eq!(merged.cumulative_le(u64::MAX), u64::MAX);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = HistogramSnapshot::empty();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p999(), 0);
        assert_eq!(s.mean_us(), 0.0);
        assert_eq!(s.cumulative_le(u64::MAX), 0);
    }
}
