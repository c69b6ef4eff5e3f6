//! Latency statistics: the paper's candlestick summaries.
//!
//! §8 (footnote 7): "Each such distribution is represented as a candlestick
//! chart: the box boundaries represent the 25th and 75th percentiles … The
//! middle line in each box represent the median. The whiskers extend from
//! the end of the box to the most distant point whose value lie within 1.5
//! times the IQR starting from the box boundary." [`Candlestick`] computes
//! exactly that summary; the figure harnesses print one per (configuration,
//! RPS) cell.

/// Accumulates latency samples (milliseconds).
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples: Vec<f64>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency in milliseconds.
    pub fn record(&mut self, millis: f64) {
        debug_assert!(millis.is_finite() && millis >= 0.0);
        self.samples.push(millis);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Merges another recorder's samples (aggregating experiment runs, as
    /// the paper aggregates 6 repetitions per configuration).
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Candlestick summary of the distribution.
    ///
    /// Returns `None` when empty.
    pub fn candlestick(&self) -> Option<Candlestick> {
        Candlestick::from_samples(&self.samples)
    }
}

/// The five-value candlestick summary used throughout the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candlestick {
    /// Sample count.
    pub count: usize,
    /// Lower whisker: most distant sample within 1.5×IQR below Q1.
    pub whisker_low: f64,
    /// 25th percentile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Upper whisker: most distant sample within 1.5×IQR above Q3.
    pub whisker_high: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Maximum sample (beyond the whisker when outliers exist).
    pub max: f64,
}

/// The `p`-th percentile (`0..=100`) of `sorted`, linearly interpolated
/// between the two closest ranks — the definition `benchmark/src/stats.rs`
/// uses (there with the quantile in `0..=1`), and the one every report
/// bin quotes. `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 100.0) / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

impl Candlestick {
    /// Computes the summary from unsorted samples; `None` when empty.
    pub fn from_samples(samples: &[f64]) -> Option<Candlestick> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let q1 = percentile(&sorted, 25.0);
        let median = percentile(&sorted, 50.0);
        let q3 = percentile(&sorted, 75.0);
        let iqr = q3 - q1;
        let low_fence = q1 - 1.5 * iqr;
        let high_fence = q3 + 1.5 * iqr;
        let whisker_low = sorted
            .iter()
            .copied()
            .find(|&v| v >= low_fence)
            .unwrap_or(sorted[0]);
        let whisker_high = sorted
            .iter()
            .rev()
            .copied()
            .find(|&v| v <= high_fence)
            .unwrap_or(*sorted.last().expect("nonempty"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Some(Candlestick {
            count: sorted.len(),
            whisker_low,
            q1,
            median,
            q3,
            whisker_high,
            mean,
            max: *sorted.last().expect("nonempty"),
        })
    }

    /// One-line rendering used by the figure harnesses, e.g.
    /// `n=1200 lo=1.2 q1=2.0 med=2.4 q3=3.1 hi=5.0 (mean 2.6, max 9.8)`.
    pub fn render(&self) -> String {
        format!(
            "n={} lo={:.1} q1={:.1} med={:.1} q3={:.1} hi={:.1} (mean {:.1}, max {:.1})",
            self.count,
            self.whisker_low,
            self.q1,
            self.median,
            self.q3,
            self.whisker_high,
            self.mean,
            self.max
        )
    }
}

impl std::fmt::Display for Candlestick {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_gives_none() {
        assert!(LatencyRecorder::new().candlestick().is_none());
    }

    #[test]
    fn single_sample() {
        let c = Candlestick::from_samples(&[5.0]).unwrap();
        assert_eq!(c.median, 5.0);
        assert_eq!(c.q1, 5.0);
        assert_eq!(c.q3, 5.0);
        assert_eq!(c.whisker_low, 5.0);
        assert_eq!(c.whisker_high, 5.0);
        assert_eq!(c.count, 1);
    }

    #[test]
    fn quartiles_of_known_distribution() {
        // 0..=100 → q1=25, median=50, q3=75.
        let samples: Vec<f64> = (0..=100).map(|v| v as f64).collect();
        let c = Candlestick::from_samples(&samples).unwrap();
        assert_eq!(c.q1, 25.0);
        assert_eq!(c.median, 50.0);
        assert_eq!(c.q3, 75.0);
        assert_eq!(c.whisker_low, 0.0);
        assert_eq!(c.whisker_high, 100.0);
        assert_eq!(c.mean, 50.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn whiskers_exclude_outliers() {
        // Tight cluster plus one far outlier.
        let mut samples: Vec<f64> = (0..100).map(|v| 10.0 + (v % 10) as f64).collect();
        samples.push(1_000.0);
        let c = Candlestick::from_samples(&samples).unwrap();
        assert!(c.whisker_high < 100.0, "whisker {}", c.whisker_high);
        assert_eq!(c.max, 1_000.0);
    }

    #[test]
    fn unsorted_input_ok() {
        let a = Candlestick::from_samples(&[3.0, 1.0, 2.0]).unwrap();
        let b = Candlestick::from_samples(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.median, 2.0);
    }

    #[test]
    fn merge_aggregates_runs() {
        let mut a = LatencyRecorder::new();
        a.record(1.0);
        let mut b = LatencyRecorder::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.candlestick().unwrap().median, 2.0);
    }

    #[test]
    fn render_is_compact() {
        let c = Candlestick::from_samples(&[1.0, 2.0, 3.0]).unwrap();
        let s = c.render();
        assert!(s.starts_with("n=3 "));
        assert!(s.contains("med=2.0"));
    }
}
