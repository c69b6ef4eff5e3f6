//! Integration test: PProx does not change recommendations.
//!
//! §8: "Recommendations are strictly the same as when using UR in Harness
//! directly" — the transparency claim that distinguishes PProx from
//! noise-adding (differential-privacy) designs. We run the same trace
//! through an unprotected engine and through PProx + engine, then compare
//! every user's recommendation list item-for-item, in order.

mod common;

use common::{launch, post, recommend};
use pprox::lrs::shard::ShardEngine;
use pprox::wire::{ClusterConfig, LoopbackCluster};
use pprox::workload::dataset::Dataset;
use std::sync::Arc;

fn trace() -> Dataset {
    Dataset::generate(40, 60, 600, 0x7a5)
}

/// The chain over `engine`, with every rating of `dataset` posted
/// through it in trace order.
fn proxied(config: ClusterConfig, engine: &Arc<ShardEngine>, dataset: &Dataset) -> LoopbackCluster {
    let mut pprox = launch(config, engine.clone());
    let mut client = pprox.client();
    for r in &dataset.ratings {
        let (user, item) = (Dataset::user_id(r.user), Dataset::item_id(r.item));
        post(&pprox, &mut client, &user, &item, None).unwrap();
    }
    engine.sync();
    pprox
}

#[test]
fn recommendations_identical_with_and_without_pprox() {
    let dataset = trace();

    // Unprotected deployment.
    let direct = ShardEngine::new();
    for r in &dataset.ratings {
        direct.post(&Dataset::user_id(r.user), &Dataset::item_id(r.item), None);
    }
    direct.sync();

    // Proxied deployment over the same trace.
    let proxied_engine = Arc::new(ShardEngine::new());
    let config = ClusterConfig {
        seed: 0x7a5,
        ..ClusterConfig::default()
    };
    let mut pprox = proxied(config, &proxied_engine, &dataset);
    let mut client = pprox.client();

    // Compare every active user's list.
    let mut users: Vec<u32> = dataset.ratings.iter().map(|r| r.user).collect();
    users.sort_unstable();
    users.dedup();
    let mut compared = 0;
    let mut nonempty = 0;
    for user in users {
        let user_id = Dataset::user_id(user);
        let direct_list = direct.get_filtered(&user_id, 20, &[]);
        let direct_items: Vec<String> = direct_list.items.iter().map(|s| s.item.clone()).collect();
        let scores: std::collections::HashMap<&str, f64> = direct_list
            .items
            .iter()
            .map(|s| (s.item.as_str(), s.score))
            .collect();
        let proxied_items = recommend(&pprox, &mut client, &user_id).unwrap();

        // Same item set…
        let mut a = proxied_items.clone();
        let mut b = direct_items.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "user {user_id}: item sets must match");
        // …and the proxied order is score-consistent. (Exact order can
        // differ only inside equal-score ties: the engine's deterministic
        // tiebreak compares stored ids, which are pseudonyms on the
        // proxied path — the same artifact an Elasticsearch doc-id
        // tiebreak would show.)
        for w in proxied_items.windows(2) {
            assert!(
                scores[w[0].as_str()] >= scores[w[1].as_str()],
                "user {user_id}: proxied order must be non-increasing in score"
            );
        }
        compared += 1;
        if !direct_items.is_empty() {
            nonempty += 1;
        }
    }
    assert!(compared >= 30, "compared {compared} users");
    assert!(
        nonempty >= 10,
        "test must exercise non-trivial lists ({nonempty} non-empty)"
    );
}

#[test]
fn payloads_survive_the_proxy() {
    // Ratings inserted through PProx reach the LRS intact (the optional
    // payload `p` of post(u, i[, p])).
    let engine = Arc::new(ShardEngine::new());
    let config = ClusterConfig {
        seed: 0x7a6,
        ..ClusterConfig::default()
    };
    let mut pprox = launch(config, engine.clone());
    let mut client = pprox.client();
    post(&pprox, &mut client, "rater", "movie", Some(4.5)).unwrap();
    assert_eq!(engine.gauges().events, 1);
}

#[test]
fn disabling_item_pseudonymization_keeps_results_identical_too() {
    // §6.3 / m4: the privacy knob must not affect results either.
    let dataset = trace();
    let run = |item_pseudonymization: bool| -> Vec<Vec<String>> {
        let engine = Arc::new(ShardEngine::new());
        let config = ClusterConfig {
            item_pseudonymization,
            seed: 0x7a7,
            ..ClusterConfig::default()
        };
        let mut pprox = proxied(config, &engine, &dataset);
        let mut client = pprox.client();
        (0..10)
            .map(|u| recommend(&pprox, &mut client, &Dataset::user_id(u)).unwrap())
            .collect()
    };
    assert_eq!(run(true), run(false));
}
