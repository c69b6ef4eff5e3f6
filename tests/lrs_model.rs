//! Integration test: the recommender's answers are pinned, bit for bit.
//!
//! `ShardEngine` serves two kinds of list. Before `sync()` the lists are
//! whatever the per-event updates left (touched pairs fresh, untouched
//! ones drifted), and nothing but the engine itself defines them — so
//! they are pinned by fingerprint. The constants below were taken by
//! running this same test on a checkout of the parent commit of issue 23
//! (`814e6fc`, the `HashMap`-keyed model): a change to the model's state
//! layout must reproduce them, scores included. After `sync()` the lists
//! are defined by the batch oracle (`CcoTrainer` + `ScoringIndex`) and
//! are compared to it byte for byte.

use pprox::lrs::api::RecommendationList;
use pprox::lrs::cco::{CcoConfig, CcoTrainer};
use pprox::lrs::index::ScoringIndex;
use pprox::lrs::shard::ring::fnv1a64;
use pprox::lrs::shard::ShardEngine;
use pprox::workload::dataset::Dataset;

/// A catalogue whose popular items co-occur with more than
/// `max_indicators_per_item` others (full lists, evictions) and whose
/// weak pairs fall under `min_llr`, small enough for a debug build.
/// Every eighth event is posted again later, as a client retry would.
fn events() -> Vec<(String, String)> {
    let mut events: Vec<(String, String)> = Dataset::generate(300, 120, 6000, 0x23)
        .interactions()
        .collect();
    let reposts: Vec<_> = events.iter().step_by(8).cloned().collect();
    events.extend(reposts);
    events
}

fn users(events: &[(String, String)]) -> Vec<String> {
    let mut users: Vec<String> = events.iter().map(|(u, _)| u.clone()).collect();
    users.sort();
    users.dedup();
    users
}

/// Two popular items, for the lists asked with an exclusion.
fn excluded() -> [String; 2] {
    [Dataset::item_id(0), Dataset::item_id(3)]
}

/// FNV-1a over every user's top-20 (item bytes and `score.to_bits()`),
/// asked plainly and again with two popular items excluded.
fn fingerprint(engine: &ShardEngine, users: &[String]) -> u64 {
    let exclude = excluded();
    let mut bytes = Vec::new();
    let mut nonempty = 0;
    for user in users {
        for list in [
            engine.get_filtered(user, 20, &[]),
            engine.get_filtered(user, 20, &exclude),
        ] {
            nonempty += usize::from(!list.items.is_empty());
            bytes.extend((list.items.len() as u64).to_le_bytes());
            for scored in &list.items {
                bytes.extend(scored.item.as_bytes());
                bytes.extend(scored.score.to_bits().to_le_bytes());
            }
        }
    }
    assert!(nonempty > users.len(), "fingerprint would be vacuous");
    fnv1a64(&bytes)
}

fn replay(config: CcoConfig, events: &[(String, String)]) -> ShardEngine {
    let engine = ShardEngine::with_config(config);
    for (user, item) in events {
        engine.post(user, item, None);
    }
    engine
}

fn assert_pinned(config: CcoConfig, pre_sync: u64, tag: &str) {
    let events = events();
    let users = users(&events);
    let engine = replay(config.clone(), &events);
    assert!(engine.model_stats().dirty > 0);
    assert_eq!(
        fingerprint(&engine, &users),
        pre_sync,
        "{tag}: pre-sync lists differ from the parent commit's"
    );

    engine.sync();
    let model = CcoTrainer::new(config).train(events.iter().map(|(u, i)| (u.as_str(), i.as_str())));
    let index = ScoringIndex::build(&model);
    let exclude = excluded();
    for user in &users {
        let history = engine.history(user);
        for (n, exclude) in [(20, &[][..]), (5, &exclude[..])] {
            let oracle = RecommendationList {
                items: index.recommend_filtered(&history, n, exclude),
            };
            assert_eq!(
                engine.get_filtered(user, n, exclude).to_json(),
                oracle.to_json(),
                "{tag}: user {user} top-{n} differs from the batch oracle after sync"
            );
        }
    }
}

#[test]
fn default_limits_are_pinned_before_sync_and_equal_the_oracle_after() {
    assert_pinned(CcoConfig::default(), 0xfa69_bcfd_af47_d282, "default");
}

#[test]
fn tight_limits_are_pinned_before_sync_and_equal_the_oracle_after() {
    let config = CcoConfig {
        max_prefs_per_user: 12,
        max_indicators_per_item: 5,
        min_llr: 2.0,
    };
    assert_pinned(config, 0x7d66_d546_9bb0_89f9, "tight");
}
