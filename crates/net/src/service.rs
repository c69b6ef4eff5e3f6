//! Service-time models.
//!
//! The simulator replaces real CPU work with sampled service demands.
//! The constants come from the caller (the figure harness hand-sets them
//! to the paper's published anchors, see EXPERIMENTS.md): e.g. the
//! per-request crypto cost of a proxy layer or the model lookup cost of an
//! LRS front-end.

use crate::time::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Deterministic random source for the simulation.
#[derive(Debug, Clone)]
pub struct SimRng(StdRng);

impl SimRng {
    /// Creates a generator from a seed (simulations are reproducible).
    pub fn from_seed(seed: u64) -> Self {
        SimRng(StdRng::seed_from_u64(seed))
    }

    /// Uniform value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.0.gen::<f64>()
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0);
        self.0.gen_range(0..bound)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Exponential variate with the given mean (in any unit).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u: f64 = self.unit();
        -mean * (1.0 - u).ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }
}

/// A distribution of per-request service demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceTime {
    /// Always the same demand.
    Constant(SimDuration),
    /// Exponential with the given mean.
    Exponential {
        /// Mean demand.
        mean: SimDuration,
    },
    /// A fixed floor plus an exponential tail — the shape of real service
    /// code (deterministic work + contention/allocation jitter).
    ShiftedExponential {
        /// Deterministic floor.
        floor: SimDuration,
        /// Mean of the tail above the floor.
        tail_mean: SimDuration,
    },
    /// Uniform in `[low, high]`.
    Uniform {
        /// Lower bound.
        low: SimDuration,
        /// Upper bound.
        high: SimDuration,
    },
}

impl ServiceTime {
    /// Samples one demand.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            ServiceTime::Constant(d) => d,
            ServiceTime::Exponential { mean } => {
                SimDuration(rng.exponential(mean.0 as f64).round() as u64)
            }
            ServiceTime::ShiftedExponential { floor, tail_mean } => {
                floor + SimDuration(rng.exponential(tail_mean.0 as f64).round() as u64)
            }
            ServiceTime::Uniform { low, high } => {
                debug_assert!(low <= high);
                let span = high.0 - low.0;
                SimDuration(low.0 + (rng.unit() * span as f64) as u64)
            }
        }
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> SimDuration {
        match *self {
            ServiceTime::Constant(d) => d,
            ServiceTime::Exponential { mean } => mean,
            ServiceTime::ShiftedExponential { floor, tail_mean } => floor + tail_mean,
            ServiceTime::Uniform { low, high } => SimDuration((low.0 + high.0) / 2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let mut rng = SimRng::from_seed(1);
        let st = ServiceTime::Constant(SimDuration(500));
        for _ in 0..10 {
            assert_eq!(st.sample(&mut rng), SimDuration(500));
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::from_seed(2);
        let st = ServiceTime::Exponential {
            mean: SimDuration(1_000),
        };
        let n = 20_000;
        let total: u64 = (0..n).map(|_| st.sample(&mut rng).0).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1_000.0).abs() < 50.0, "mean {mean}");
    }

    #[test]
    fn shifted_exponential_respects_floor() {
        let mut rng = SimRng::from_seed(3);
        let st = ServiceTime::ShiftedExponential {
            floor: SimDuration(2_000),
            tail_mean: SimDuration(500),
        };
        for _ in 0..100 {
            assert!(st.sample(&mut rng) >= SimDuration(2_000));
        }
        assert_eq!(st.mean(), SimDuration(2_500));
    }

    #[test]
    fn uniform_in_bounds() {
        let mut rng = SimRng::from_seed(4);
        let st = ServiceTime::Uniform {
            low: SimDuration(100),
            high: SimDuration(200),
        };
        for _ in 0..100 {
            let s = st.sample(&mut rng);
            assert!((100..=200).contains(&s.0));
        }
        assert_eq!(st.mean(), SimDuration(150));
    }

    #[test]
    fn rng_reproducible() {
        let mut a = SimRng::from_seed(7);
        let mut b = SimRng::from_seed(7);
        for _ in 0..5 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = SimRng::from_seed(8);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
