//! Shard-skew audit: the §6.2 adversary pointed at the *sharded* LRS
//! tier.
//!
//! Sharding the backend (consistent-hash partitioning by pseudonym)
//! hands the wire adversary a new observable: every IA→LRS exchange now
//! names a shard — a distinct backend socket on the tap, and a
//! per-shard request counter on the scrape surface. This module checks,
//! by measurement, that the observable adds nothing to the §6.2
//! network observer's power:
//!
//! * The shard label is a deterministic function of the *pseudonym*
//!   (`owner(det_enc(u))`), which the LRS-side adversary is already
//!   allowed to see under §6 — so labeling departures by shard must not
//!   move post-shuffle linkage off the `1/S` baseline. The attack here
//!   gives the adversary every departure's shard label (strictly more
//!   than the scrape channel's per-shard counters, which are a
//!   coarsening of the same signal) and measures its success.
//! * A *skewed* partition quietly shrinks anonymity: users behind a
//!   tiny shard form a small identifiable population. The audit scores
//!   ring balance over a pseudonym population and flags shares outside
//!   the virtual-node guarantee.
//! * The routing ablation — shard chosen by **arrival order** instead
//!   of pseudonym hash (the classic mistake: "load balance" the
//!   partition round-robin) — correlates the label with exactly the
//!   thing the shuffle hides, and the audit must flag it: within a
//!   flush group the labels replay arrival order and the join is free.

use crate::LinkageScore;
use pprox_crypto::rng::SecureRng;
use pprox_lrs::shard::{HashRing, DEFAULT_VNODES};

/// Parameters of one shard-skew audit run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardAuditConfig {
    /// LRS shards on the ring.
    pub shards: usize,
    /// Virtual nodes per shard (ring balance knob).
    pub vnodes: usize,
    /// Shuffle buffer size `S` — the §6.2 anonymity-set size.
    pub shuffle_size: usize,
    /// Flush groups the adversary attacks.
    pub groups: usize,
    /// Pseudonym population routed for the balance check.
    pub population: usize,
    /// Ablation: route by arrival order (round-robin over shards)
    /// instead of by pseudonym hash. The audit must flag this.
    pub routing_ablation: bool,
    /// Drives pseudonym minting, group sampling, shuffling, guesses.
    pub seed: u64,
}

impl Default for ShardAuditConfig {
    fn default() -> Self {
        ShardAuditConfig {
            shards: 8,
            vnodes: DEFAULT_VNODES,
            shuffle_size: 10,
            groups: 400,
            population: 20_000,
            routing_ablation: false,
            seed: 0x5a4d_0e01,
        }
    }
}

/// Result of the shard-skew audit.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardAuditOutcome {
    /// Post-shuffle identifications with shard labels in hand, against
    /// the §6.2 baseline `1/S` the labels must not beat.
    pub score: LinkageScore,
    /// Pseudonyms routed to each shard in the balance pass.
    pub shard_population: Vec<u64>,
    /// Largest per-shard share relative to the ideal `1/K`.
    pub max_skew: f64,
    /// Smallest per-shard share relative to the ideal `1/K`.
    pub min_skew: f64,
    /// Whether the run used the arrival-order routing ablation.
    pub routing_ablation: bool,
}

impl ShardAuditOutcome {
    /// Whether every shard's population share sits inside the
    /// virtual-node balance envelope (±40% of ideal) — outside it, the
    /// small-shard population is an identifiable sub-anonymity-set.
    pub fn balanced(&self) -> bool {
        self.min_skew >= 0.6 && self.max_skew <= 1.4
    }
}

/// Mints a pseudonym the shape the proxy layers emit: a fixed-length
/// base64-ish string, uniformly random — `det_enc` output is
/// indistinguishable from random to the LRS side.
fn mint_pseudonym(rng: &mut SecureRng) -> String {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    (0..44)
        .map(|_| ALPHABET[rng.below(64) as usize] as char)
        .collect()
}

/// Mounts the shard-label attack and the balance check in one pass.
///
/// For each flush group: `S` distinct pseudonymous users arrive in
/// order, depart in shuffled order, and every departure carries the
/// shard label the adversary's tap would record. The adversary links
/// each arrival to the departure set sharing the label its best routing
/// hypothesis predicts (arrival order mod K — exact under the ablation,
/// uninformative under pseudonym-hash routing) and guesses uniformly
/// within it.
pub fn shard_skew_attack(config: &ShardAuditConfig) -> ShardAuditOutcome {
    let shards = config.shards.max(1);
    let s = config.shuffle_size.max(1);
    let mut rng = SecureRng::from_seed(config.seed);
    let ring = HashRing::new(shards, config.vnodes.max(1));

    // Balance pass: the population's shard shares.
    let mut shard_population = vec![0u64; shards];
    let population: Vec<String> = (0..config.population.max(s))
        .map(|_| mint_pseudonym(&mut rng))
        .collect();
    for pseudonym in &population {
        shard_population[ring.owner(pseudonym)] += 1;
    }
    let ideal = population.len() as f64 / shards as f64;
    let max_skew = shard_population
        .iter()
        .map(|&c| c as f64 / ideal)
        .fold(0.0, f64::max);
    let min_skew = shard_population
        .iter()
        .map(|&c| c as f64 / ideal)
        .fold(f64::INFINITY, f64::min);

    // Attack pass: flush groups with shard-labeled departures.
    let mut attempts = 0usize;
    let mut correct = 0usize;
    for _ in 0..config.groups {
        // S distinct users arrive in order 0..S.
        let members: Vec<&String> = (0..s)
            .map(|_| &population[rng.below(population.len() as u64) as usize])
            .collect();
        // Shard label per arrival index: the partition under audit.
        let label_of: Vec<usize> = members
            .iter()
            .enumerate()
            .map(|(i, pseudonym)| {
                if config.routing_ablation {
                    i % shards // arrival-order routing: the broken rule
                } else {
                    ring.owner(pseudonym)
                }
            })
            .collect();
        // Departures: a uniform shuffle of the group (what the §4.3
        // buffer emits), each carrying its shard label on the tap.
        let mut departure_order: Vec<usize> = (0..s).collect();
        for i in (1..s).rev() {
            let j = rng.below((i + 1) as u64) as usize;
            departure_order.swap(i, j);
        }
        for (target_arrival, _) in members.iter().enumerate() {
            attempts += 1;
            // The adversary's routing hypothesis: shard = arrival index
            // mod K. It filters departures to that label and guesses
            // uniformly within the set (falling back to the whole group
            // when the label is absent).
            let predicted = target_arrival % shards;
            let candidates: Vec<usize> = departure_order
                .iter()
                .copied()
                .filter(|&arrival| label_of[arrival] == predicted)
                .collect();
            let guess = if candidates.is_empty() {
                departure_order[rng.below(s as u64) as usize]
            } else {
                candidates[rng.below(candidates.len() as u64) as usize]
            };
            if guess == target_arrival {
                correct += 1;
            }
        }
    }

    ShardAuditOutcome {
        score: LinkageScore::new(attempts, correct, 1.0 / s as f64),
        shard_population,
        max_skew,
        min_skew,
        routing_ablation: config.routing_ablation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pseudonym_hash_routing_stays_at_the_shuffle_baseline() {
        let outcome = shard_skew_attack(&ShardAuditConfig::default());
        assert!(!outcome.routing_ablation);
        assert!(
            outcome.score.within(),
            "shard labels must not beat 1/S: measured {} vs {} (+{})",
            outcome.score.success_rate,
            outcome.score.bound,
            outcome.score.tolerance
        );
        // The attack must actually reach the floor — near-zero success
        // would mean the estimator (not the defense) is broken.
        assert!(
            outcome.score.success_rate > outcome.score.bound / 3.0,
            "attack under-performs: {}",
            outcome.score.success_rate
        );
    }

    #[test]
    fn arrival_order_routing_is_flagged() {
        let outcome = shard_skew_attack(&ShardAuditConfig {
            routing_ablation: true,
            ..ShardAuditConfig::default()
        });
        assert!(outcome.routing_ablation);
        // 8 shards over groups of 10: labels nearly replay arrival
        // order, so the join succeeds most of the time.
        assert!(
            outcome.score.success_rate > 0.5,
            "order-correlated routing should join freely: {}",
            outcome.score.success_rate
        );
        assert!(
            !outcome.score.within(),
            "the audit must flag arrival-order routing"
        );
    }

    #[test]
    fn ring_balance_keeps_every_shard_share_in_envelope() {
        let outcome = shard_skew_attack(&ShardAuditConfig::default());
        assert_eq!(outcome.shard_population.len(), 8);
        assert_eq!(
            outcome.shard_population.iter().sum::<u64>(),
            20_000,
            "every pseudonym routed exactly once"
        );
        assert!(
            outcome.balanced(),
            "skew outside envelope: min {} max {}",
            outcome.min_skew,
            outcome.max_skew
        );
    }

    #[test]
    fn audit_is_deterministic_under_a_fixed_seed() {
        let a = shard_skew_attack(&ShardAuditConfig::default());
        let b = shard_skew_attack(&ShardAuditConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn fewer_shards_leak_less_under_the_ablation() {
        // Sanity on the estimator: with K=2 the broken rule still beats
        // the baseline, but less decisively than with K=8.
        let k2 = shard_skew_attack(&ShardAuditConfig {
            shards: 2,
            routing_ablation: true,
            ..ShardAuditConfig::default()
        });
        let k8 = shard_skew_attack(&ShardAuditConfig {
            shards: 8,
            routing_ablation: true,
            ..ShardAuditConfig::default()
        });
        assert!(k2.score.success_rate < k8.score.success_rate);
        assert!(!k2.score.within(), "even K=2 order routing must be flagged");
    }
}
