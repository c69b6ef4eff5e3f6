//! Property-based tests for workload generation and statistics.

use pprox_workload::dataset::Dataset;
use pprox_workload::injector::Schedule;
use pprox_workload::stats::Candlestick;
use pprox_workload::zipf::Zipf;
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    /// Candlestick invariants: ordering of the five summary values, mean
    /// within [min, max], count correct.
    #[test]
    fn candlestick_invariants(samples in proptest::collection::vec(0.0f64..10_000.0, 1..300)) {
        let c = Candlestick::from_samples(&samples).unwrap();
        // Quartiles are ordered; whiskers bracket the retained data. Note
        // whisker_low may exceed the *interpolated* q1 when no sample
        // falls between the fence and q1 (the standard boxplot artifact),
        // so the whisker/quartile comparison is deliberately loose.
        prop_assert!(c.q1 <= c.median);
        prop_assert!(c.median <= c.q3);
        prop_assert!(c.whisker_low <= c.whisker_high);
        prop_assert!(c.whisker_high <= c.max);
        let fence = c.q1 - 1.5 * (c.q3 - c.q1);
        prop_assert!(c.whisker_low >= fence - 1e-9);
        prop_assert_eq!(c.count, samples.len());
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!(c.mean >= min - 1e-9 && c.mean <= c.max + 1e-9);
        prop_assert!(c.whisker_low >= min - 1e-9);
    }

    /// Candlesticks are permutation-invariant.
    #[test]
    fn candlestick_order_independent(mut samples in proptest::collection::vec(0.0f64..100.0, 2..100)) {
        let a = Candlestick::from_samples(&samples).unwrap();
        samples.reverse();
        let b = Candlestick::from_samples(&samples).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Zipf pmf is a probability distribution and monotone over ranks.
    #[test]
    fn zipf_pmf_is_valid(n in 1usize..200, s in 0.0f64..3.0) {
        let z = Zipf::new(n, s, 0);
        let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for k in 1..n {
            prop_assert!(z.pmf(k - 1) >= z.pmf(k) - 1e-12);
        }
    }

    /// Schedules hit the requested request count and are sorted.
    #[test]
    fn schedules_are_well_formed(
        rps in 1.0f64..500.0,
        duration in 0.5f64..30.0,
        seed in any::<u64>(),
    ) {
        let sched = Schedule::new(rps, duration, seed);
        prop_assert_eq!(sched.len(), (rps * duration).round() as usize);
        for w in sched.arrivals_us.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// Datasets have exactly the requested rating count with unique pairs
    /// and in-range ids.
    #[test]
    fn datasets_are_consistent(
        users in 2usize..40,
        items in 2usize..60,
        seed in any::<u64>(),
    ) {
        let ratings = (users * items / 4).max(1);
        let d = Dataset::generate(users, items, ratings, seed);
        prop_assert_eq!(d.ratings.len(), ratings);
        let mut pairs = HashSet::new();
        for r in &d.ratings {
            prop_assert!((r.user as usize) < users);
            prop_assert!((r.item as usize) < items);
            prop_assert!(pairs.insert((r.user, r.item)));
            prop_assert!((0.5..=5.0).contains(&r.rating));
        }
    }

    /// Trimming bounds: a real window exists iff the trim leaves room;
    /// otherwise the measurement window is empty.
    #[test]
    fn trim_bounds_are_sane(duration in 1.0f64..600.0, trim in 0.0f64..100.0) {
        let sched = Schedule::new(10.0, duration, 0);
        let (lo, hi) = sched.trim_bounds(trim);
        prop_assert!(hi <= (duration * 1e6) as u64);
        if 2.0 * trim < duration {
            prop_assert!(lo < hi);
            let mid = ((duration / 2.0) * 1e6) as u64;
            prop_assert!(sched.in_measurement_window(mid, trim));
        } else {
            // Over-trimmed runs keep no samples at all.
            for probe in [0u64, (duration * 5e5) as u64, (duration * 1e6) as u64] {
                prop_assert!(!sched.in_measurement_window(probe, trim));
            }
        }
    }
}
