//! Property-based tests for the LRS substrate.

use pprox_lrs::api::{FeedbackEvent, RecommendationQuery};
use pprox_lrs::cco::{log_likelihood_ratio, CcoConfig, CcoTrainer};
use pprox_lrs::index::ScoringIndex;
use proptest::prelude::*;

fn id() -> impl Strategy<Value = String> {
    "[a-z0-9\\-]{1,20}"
}

proptest! {
    /// LLR is non-negative, symmetric in the off-diagonal cells, and zero
    /// on proportional (independent) tables.
    #[test]
    fn llr_basic_properties(k11 in 0u64..500, k12 in 0u64..500, k21 in 0u64..500, k22 in 0u64..500) {
        let v = log_likelihood_ratio(k11, k12, k21, k22);
        prop_assert!(v >= 0.0, "LLR must be non-negative: {v}");
        prop_assert!(v.is_finite());
        let swapped = log_likelihood_ratio(k11, k21, k12, k22);
        prop_assert!((v - swapped).abs() < 1e-6, "transpose symmetry");
    }

    #[test]
    fn llr_zero_on_proportional_tables(a in 1u64..50, b in 1u64..50, scale in 1u64..20) {
        // Rows proportional → independence → LLR ≈ 0.
        let v = log_likelihood_ratio(a, b, a * scale, b * scale);
        prop_assert!(v.abs() < 1e-6, "{v}");
    }

    /// Training is deterministic and input-order independent.
    #[test]
    fn training_is_order_independent(
        mut pairs in proptest::collection::vec((id(), id()), 1..80),
    ) {
        let trainer = CcoTrainer::new(CcoConfig { min_llr: 0.0, ..CcoConfig::default() });
        let forward = trainer.train(pairs.iter().map(|(u, i)| (u.as_str(), i.as_str())));
        pairs.reverse();
        let backward = trainer.train(pairs.iter().map(|(u, i)| (u.as_str(), i.as_str())));
        prop_assert_eq!(forward.num_users, backward.num_users);
        prop_assert_eq!(forward.num_items, backward.num_items);
        prop_assert_eq!(forward.num_interactions, backward.num_interactions);
        // Indicator sets match per item (scores identical, order may tie).
        for (item, inds) in forward.iter() {
            let other = backward.indicators(item);
            prop_assert_eq!(inds.len(), other.len(), "item {}", item);
        }
    }

    /// Recommendations never include history or excluded items and
    /// respect the limit.
    #[test]
    fn recommendations_respect_filters(
        pairs in proptest::collection::vec((id(), id()), 5..100),
        n in 0usize..30,
    ) {
        let trainer = CcoTrainer::new(CcoConfig { min_llr: 0.0, ..CcoConfig::default() });
        let model = trainer.train(pairs.iter().map(|(u, i)| (u.as_str(), i.as_str())));
        let index = ScoringIndex::build(&model);
        let history: Vec<String> = pairs.iter().take(3).map(|(_, i)| i.clone()).collect();
        let exclude: Vec<String> = pairs.iter().skip(3).take(2).map(|(_, i)| i.clone()).collect();
        let recs = index.recommend_filtered(&history, n, &exclude);
        prop_assert!(recs.len() <= n);
        for r in &recs {
            prop_assert!(!history.contains(&r.item));
            prop_assert!(!exclude.contains(&r.item));
        }
        // Scores are sorted descending.
        for w in recs.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
    }

    /// Wire-format roundtrips for arbitrary field contents.
    #[test]
    fn api_wire_roundtrips(
        user in id(),
        item in id(),
        payload in proptest::option::of(0.5f64..5.0),
        num in 0usize..100,
        exclude in proptest::collection::vec(id(), 0..5),
    ) {
        let event = FeedbackEvent { user: user.clone(), item, payload };
        prop_assert_eq!(FeedbackEvent::from_json(&event.to_json()).unwrap(), event);
        let query = RecommendationQuery { user, num, exclude };
        prop_assert_eq!(RecommendationQuery::from_json(&query.to_json()).unwrap(), query);
    }
}
