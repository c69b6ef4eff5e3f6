//! Open-loop load injection schedules.
//!
//! The paper's injector (node.js `loadtest`) issues requests at a target
//! rate regardless of response progress — an *open-loop* design, which is
//! what makes saturation visible as unbounded latency growth. This module
//! generates such arrival schedules in virtual-time microseconds and
//! implements the paper's measurement protocol: "We trim the first and
//! last 15 seconds of each measurement period to avoid perturbations
//! linked with the warm-up and slow-down of injection" (§8).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An open-loop arrival schedule at a fixed rate: Poisson arrivals
/// (exponential gaps) for open-system realism.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Arrival offsets from the start of injection, in microseconds,
    /// ascending.
    pub arrivals_us: Vec<u64>,
    /// Target rate (requests per second).
    pub rps: f64,
    /// Injection span in seconds.
    pub duration_secs: f64,
}

impl Schedule {
    /// Builds a schedule of `rps × duration_secs` Poisson arrivals,
    /// drawn from a [`StdRng`] seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `rps` or `duration_secs` is non-positive.
    pub fn new(rps: f64, duration_secs: f64, seed: u64) -> Self {
        assert!(rps > 0.0 && duration_secs > 0.0);
        let n = (rps * duration_secs).round() as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0f64;
        let arrivals_us = (0..n)
            .map(|_| {
                let u: f64 = rng.gen();
                t += -(1e6 / rps) * (1.0 - u).ln();
                t.round() as u64
            })
            .collect();
        Schedule {
            arrivals_us,
            rps,
            duration_secs,
        }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.arrivals_us.len()
    }

    /// `true` when the schedule holds no arrivals.
    pub fn is_empty(&self) -> bool {
        self.arrivals_us.is_empty()
    }

    /// The paper's trim window: samples whose *arrival* falls within the
    /// first or last `trim_secs` of the injection period are discarded.
    ///
    /// Returns the inclusive `[lo, hi]` bounds in microseconds.
    pub fn trim_bounds(&self, trim_secs: f64) -> (u64, u64) {
        let lo = (trim_secs * 1e6) as u64;
        let span = (self.duration_secs * 1e6) as u64;
        let hi = span.saturating_sub((trim_secs * 1e6) as u64);
        (lo, hi)
    }

    /// `true` if an arrival at `offset_us` survives trimming.
    pub fn in_measurement_window(&self, offset_us: u64, trim_secs: f64) -> bool {
        let (lo, hi) = self.trim_bounds(trim_secs);
        offset_us >= lo && offset_us <= hi
    }
}

/// Default trim applied to every measurement (15 s in the paper; harnesses
/// scale it with their shortened runs).
pub const PAPER_TRIM_SECS: f64 = 15.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_ascending_with_right_count() {
        let s = Schedule::new(250.0, 4.0, 1);
        assert_eq!(s.len(), 1000);
        for w in s.arrivals_us.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // Mean gap should be close to 4ms.
        let span = *s.arrivals_us.last().unwrap() as f64;
        let mean_gap = span / (s.len() - 1) as f64;
        assert!((mean_gap - 4_000.0).abs() < 500.0, "gap {mean_gap}");
    }

    #[test]
    fn poisson_deterministic_per_seed() {
        let a = Schedule::new(50.0, 1.0, 9);
        let b = Schedule::new(50.0, 1.0, 9);
        assert_eq!(a.arrivals_us, b.arrivals_us);
    }

    #[test]
    fn trimming_window() {
        let s = Schedule::new(10.0, 60.0, 0);
        let (lo, hi) = s.trim_bounds(15.0);
        assert_eq!(lo, 15_000_000);
        assert_eq!(hi, 45_000_000);
        assert!(!s.in_measurement_window(0, 15.0));
        assert!(s.in_measurement_window(30_000_000, 15.0));
        assert!(!s.in_measurement_window(59_000_000, 15.0));
    }

    #[test]
    #[should_panic]
    fn zero_rate_panics() {
        let _ = Schedule::new(0.0, 1.0, 0);
    }
}
