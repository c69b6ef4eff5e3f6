//! Load balancing across horizontally scaled instances.
//!
//! §5: "Incoming requests from the clients are balanced to any of the
//! enclaves in the UA layer. The following request from the UA to the IA
//! layer is also balanced to any of the enclaves of the latter." The paper
//! uses Kubernetes' kube-proxy; this module provides the two policies it
//! offers — round-robin and uniform random — for the discrete-event
//! simulator. Neither looks at load, so the instance a request lands on
//! says nothing about the others in flight.

use crate::service::SimRng;

/// Instance-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancePolicy {
    /// Cycle through instances in order.
    RoundRobin,
    /// Pick uniformly at random per request.
    Random,
}

/// Selects one of `n` instances per request under a policy, driven by the
/// simulator's deterministic RNG.
#[derive(Debug, Clone)]
pub struct LoadBalancer {
    policy: BalancePolicy,
    instances: usize,
    next: usize,
}

impl LoadBalancer {
    /// Creates a balancer over `instances` backends.
    ///
    /// # Panics
    ///
    /// Panics if `instances` is zero.
    pub fn new(policy: BalancePolicy, instances: usize) -> Self {
        assert!(instances > 0, "need at least one instance");
        LoadBalancer {
            policy,
            instances,
            next: 0,
        }
    }

    /// Picks the backend index for the next request.
    pub fn pick(&mut self, rng: &mut SimRng) -> usize {
        match self.policy {
            BalancePolicy::RoundRobin => {
                let i = self.next;
                self.next = (self.next + 1) % self.instances;
                i
            }
            BalancePolicy::Random => rng.below(self.instances),
        }
    }

    /// Number of backends.
    pub fn instances(&self) -> usize {
        self.instances
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles() {
        let mut lb = LoadBalancer::new(BalancePolicy::RoundRobin, 3);
        let mut rng = SimRng::from_seed(1);
        let picks: Vec<usize> = (0..7).map(|_| lb.pick(&mut rng)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn random_is_in_range_and_covers() {
        let mut lb = LoadBalancer::new(BalancePolicy::Random, 4);
        let mut rng = SimRng::from_seed(2);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let i = lb.pick(&mut rng);
            assert!(i < 4);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all instances should be picked");
    }

    #[test]
    fn random_is_roughly_uniform() {
        let mut lb = LoadBalancer::new(BalancePolicy::Random, 2);
        let mut rng = SimRng::from_seed(3);
        let n = 10_000;
        let ones: usize = (0..n).map(|_| lb.pick(&mut rng)).sum();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn zero_instances_panics() {
        let _ = LoadBalancer::new(BalancePolicy::RoundRobin, 0);
    }
}
