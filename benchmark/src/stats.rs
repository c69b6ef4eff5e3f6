//! The benchmark's own estimators: percentiles and the per-second
//! goodput median. Kept here, not borrowed from the repo, so that a
//! change to the program's helpers cannot move a reported number.

/// The `q`-quantile (`0.0..=1.0`) of `sorted`, linearly interpolated
/// between the two closest ranks. `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts `values` in place and returns their median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// Events per whole second: `offsets_us` are event instants measured
/// from the start of a window of `seconds` seconds; events outside the
/// window are ignored.
pub fn per_second_counts(offsets_us: &[u64], seconds: u64) -> Vec<u64> {
    let mut counts = vec![0u64; seconds as usize];
    for &at in offsets_us {
        if let Some(slot) = counts.get_mut((at / 1_000_000) as usize) {
            *slot += 1;
        }
    }
    counts
}

/// Median of the per-second event counts: a one-second stall by another
/// tenant of the box moves one count, not the median.
pub fn per_second_median(offsets_us: &[u64], seconds: u64) -> f64 {
    let mut counts: Vec<f64> = per_second_counts(offsets_us, seconds)
        .into_iter()
        .map(|c| c as f64)
        .collect();
    median(&mut counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&mut [9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn per_second_median_ignores_one_stalled_second() {
        // Three seconds at 4 events each, one stalled second with none,
        // and an event past the window that must not count.
        let mut offsets = Vec::new();
        for second in [0u64, 1, 3] {
            for k in 0..4 {
                offsets.push(second * 1_000_000 + k * 1000);
            }
        }
        offsets.push(4_000_001);
        assert_eq!(per_second_counts(&offsets, 4), vec![4, 4, 0, 4]);
        assert_eq!(per_second_median(&offsets, 4), 4.0);
    }
}
