//! The history-based intersection attack (§6.3 "History-based attacks").
//!
//! "An adversary targeting a specific IP address could collect over time a
//! series of associated sets of S queries to the LRS. If the corresponding
//! user repeatedly receives the same recommendations, or inserts feedback
//! for the same items, the adversary could identify recurrent
//! pseudonymized items identifiers … and learn the associated
//! pseudonymized user identifier."
//!
//! This module measures that limitation quantitatively: each observation
//! of the target IP yields a candidate set of `S` pseudonymous user ids
//! (one batch); intersecting the sets across observations shrinks the
//! candidates geometrically (expected factor `S/population` per round),
//! isolating the target's pseudonym after roughly
//! `log(population) / log(population/S)` observations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Outcome of an intersection attack run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntersectionOutcome {
    /// Observations (batches) the adversary needed before the candidate
    /// set became a singleton; `None` if it never did within the budget.
    pub rounds_to_identify: Option<usize>,
    /// Candidate-set size after each observation.
    pub candidates_per_round: Vec<usize>,
}

/// Simulates the intersection attack.
///
/// * `population` — number of active pseudonymous users.
/// * `shuffle_size` — batch size `S`; the target hides among `S-1` others
///   drawn uniformly per observation.
/// * `max_rounds` — observation budget.
///
/// # Panics
///
/// Panics if `shuffle_size` is zero or exceeds `population`.
pub fn intersection_attack(
    population: usize,
    shuffle_size: usize,
    max_rounds: usize,
    seed: u64,
) -> IntersectionOutcome {
    assert!(shuffle_size >= 1 && shuffle_size <= population);
    let mut rng = StdRng::seed_from_u64(seed);
    let target = 0usize;
    let mut candidates: Option<HashSet<usize>> = None;
    let mut candidates_per_round = Vec::new();
    let mut rounds_to_identify = None;
    for round in 1..=max_rounds {
        // One observed batch: the target plus S-1 distinct others.
        let mut batch: HashSet<usize> = HashSet::with_capacity(shuffle_size);
        batch.insert(target);
        while batch.len() < shuffle_size {
            batch.insert(1 + rng.gen_range(0..population - 1));
        }
        candidates = Some(match candidates.take() {
            None => batch,
            Some(prev) => prev.intersection(&batch).copied().collect(),
        });
        let n = candidates.as_ref().map(HashSet::len).unwrap_or(0);
        candidates_per_round.push(n);
        if n == 1 && rounds_to_identify.is_none() {
            rounds_to_identify = Some(round);
            break;
        }
    }
    IntersectionOutcome {
        rounds_to_identify,
        candidates_per_round,
    }
}

/// §6.3's proposed mitigation: an HTTP redirection through the
/// application provider hides client IPs, so the adversary cannot tell
/// which batches involve the target — every batch looks alike and the
/// intersection never converges below the whole active population.
///
/// Modelled by intersecting *unconditioned* batches: each is `S` users
/// drawn uniformly (the target present only at base rate `S/population`).
pub fn intersection_attack_with_ip_hiding(
    population: usize,
    shuffle_size: usize,
    max_rounds: usize,
    seed: u64,
) -> IntersectionOutcome {
    assert!(shuffle_size >= 1 && shuffle_size <= population);
    let mut rng = StdRng::seed_from_u64(seed);
    let target = 0usize;
    let mut candidates: Option<HashSet<usize>> = None;
    let mut candidates_per_round = Vec::new();
    let mut rounds_to_identify = None;
    for round in 1..=max_rounds {
        let mut batch: HashSet<usize> = HashSet::with_capacity(shuffle_size);
        while batch.len() < shuffle_size {
            batch.insert(rng.gen_range(0..population));
        }
        candidates = Some(match candidates.take() {
            None => batch,
            Some(prev) => prev.intersection(&batch).copied().collect(),
        });
        let n = candidates.as_ref().map(HashSet::len).unwrap_or(0);
        candidates_per_round.push(n);
        // Identification only counts if the survivor IS the target.
        if n == 1 {
            if candidates.as_ref().is_some_and(|c| c.contains(&target)) {
                rounds_to_identify = Some(round);
            }
            break;
        }
        if n == 0 {
            break;
        }
    }
    IntersectionOutcome {
        rounds_to_identify,
        candidates_per_round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_converges_quickly() {
        let outcome = intersection_attack(1_000, 10, 100, 1);
        let rounds = outcome.rounds_to_identify.expect("should identify");
        // Expected ~ log(1000)/log(100) ≈ 1.5 → 2-4 rounds.
        assert!(rounds <= 5, "took {rounds} rounds");
    }

    #[test]
    fn candidate_sets_shrink_monotonically() {
        let outcome = intersection_attack(500, 20, 100, 2);
        for w in outcome.candidates_per_round.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn larger_s_slows_but_does_not_stop_the_attack() {
        let s10 = intersection_attack(10_000, 10, 1_000, 3)
            .rounds_to_identify
            .unwrap();
        let s100 = intersection_attack(10_000, 100, 1_000, 3)
            .rounds_to_identify
            .unwrap();
        assert!(s100 >= s10, "s100={s100} s10={s10}");
    }

    #[test]
    fn ip_hiding_defeats_the_attack() {
        // With hidden IPs the intersection usually empties out (the target
        // is rarely in consecutive random batches), so no identification.
        let mut identified = 0;
        for seed in 0..20 {
            let outcome = intersection_attack_with_ip_hiding(1_000, 10, 50, seed);
            if outcome.rounds_to_identify.is_some() {
                identified += 1;
            }
        }
        assert!(
            identified <= 1,
            "IP hiding should prevent identification ({identified}/20)"
        );
    }

    #[test]
    #[should_panic]
    fn invalid_parameters_panic() {
        let _ = intersection_attack(5, 10, 10, 0);
    }
}
