//! Differential test: the incremental CCO trainer against the batch
//! trainer it replaced.
//!
//! The engine's exactness contract: after `sync()`, a [`ShardEngine`]
//! fed an event stream one event at a time returns **byte identical**
//! top-k responses to a batch oracle — [`CcoTrainer`] over the whole
//! stream, queried through a [`ScoringIndex`] — for in-order,
//! out-of-order (permuted), and duplicated streams alike. Counts are
//! maintained exactly online, `sync()` re-derives every indicator list
//! from them with the same LLR function and the same total-order
//! comparators the batch path uses, and scoring accumulates in history
//! order on both sides, so equal inputs give bit-equal f64 sums.

use pprox_lrs::api::RecommendationList;
use pprox_lrs::cco::{CcoConfig, CcoTrainer};
use pprox_lrs::index::ScoringIndex;
use pprox_lrs::shard::ShardEngine;
use std::collections::HashMap;

/// The batch reference: one [`CcoTrainer`] pass over every event,
/// answered from a [`ScoringIndex`] plus the users' full histories.
struct BatchOracle {
    index: ScoringIndex,
    histories: HashMap<String, Vec<String>>,
}

impl BatchOracle {
    fn train(config: CcoConfig, events: &[(String, String)]) -> Self {
        let model =
            CcoTrainer::new(config).train(events.iter().map(|(u, i)| (u.as_str(), i.as_str())));
        let mut histories: HashMap<String, Vec<String>> = HashMap::new();
        for (user, item) in events {
            histories
                .entry(user.clone())
                .or_default()
                .push(item.clone());
        }
        BatchOracle {
            index: ScoringIndex::build(&model),
            histories,
        }
    }

    fn get_filtered(&self, user: &str, n: usize, exclude: &[String]) -> RecommendationList {
        let history = self.histories.get(user).map(Vec::as_slice).unwrap_or(&[]);
        RecommendationList {
            items: self.index.recommend_filtered(history, n, exclude),
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded synthetic event stream with taste clusters (so LLR has
/// real associations to find) plus background noise.
fn event_stream(seed: u64, users: usize, events: usize) -> Vec<(String, String)> {
    let mut state = seed;
    (0..events)
        .map(|_| {
            let u = (splitmix64(&mut state) as usize) % users;
            // Two genres with a shared catalog slice: users of one
            // parity favor one genre, with 25% crossover noise.
            let genre = if splitmix64(&mut state).is_multiple_of(4) {
                1 - (u % 2)
            } else {
                u % 2
            };
            let item = (splitmix64(&mut state) as usize) % 12;
            (format!("user-{u:03}"), format!("g{genre}-item-{item:02}"))
        })
        .collect()
}

/// Deterministic permutation of the stream (Fisher–Yates under
/// splitmix64) — "out of order" arrival for both engines.
fn permuted(mut events: Vec<(String, String)>, seed: u64) -> Vec<(String, String)> {
    let mut state = seed;
    for i in (1..events.len()).rev() {
        let j = (splitmix64(&mut state) as usize) % (i + 1);
        events.swap(i, j);
    }
    events
}

/// Feeds the same stream to both engines and asserts byte-identical
/// REST-level responses for every user in it.
fn assert_differential(events: &[(String, String)], tag: &str) {
    let config = CcoConfig::default();
    let batch = BatchOracle::train(config.clone(), events);
    let shard = ShardEngine::with_config(config);
    for (user, item) in events {
        shard.post(user, item, Some(1.0));
    }
    shard.sync();

    let mut users: Vec<&String> = events.iter().map(|(u, _)| u).collect();
    users.sort();
    users.dedup();
    assert!(!users.is_empty());
    let mut nonempty = 0usize;
    for user in users {
        for n in [1usize, 5, 10] {
            let b = batch.get_filtered(user, n, &[]).to_json();
            let s = shard.get_filtered(user, n, &[]).to_json();
            assert_eq!(b, s, "{tag}: user {user} top-{n} diverged");
            if b.contains("\"id\"") {
                nonempty += 1;
            }
        }
        // Excludes flow through both filters identically.
        let exclude = vec!["g0-item-00".to_string(), "g1-item-03".to_string()];
        let b = batch.get_filtered(user, 10, &exclude).to_json();
        let s = shard.get_filtered(user, 10, &exclude).to_json();
        assert_eq!(b, s, "{tag}: user {user} excluded top-10 diverged");
    }
    assert!(
        nonempty > 0,
        "{tag}: differential would be vacuous — no user got any recommendation"
    );
}

#[test]
fn incremental_matches_batch_in_order() {
    let events = event_stream(0xd1ff_0001, 40, 600);
    assert_differential(&events, "in-order");
}

#[test]
fn incremental_matches_batch_out_of_order() {
    let events = permuted(event_stream(0xd1ff_0002, 40, 600), 0x0dd5);
    assert_differential(&events, "permuted");
}

#[test]
fn incremental_matches_batch_with_duplicates() {
    let mut events = event_stream(0xd1ff_0003, 30, 400);
    // Duplicate a third of the stream (re-posts of the same event), then
    // interleave the copies out of order.
    let dupes: Vec<_> = events.iter().step_by(3).cloned().collect();
    events.extend(dupes);
    let events = permuted(events, 0xd0_0d5e);
    assert_differential(&events, "duplicates");
}

#[test]
fn incremental_matches_batch_under_tight_caps() {
    // Small caps force the downsample and indicator-eviction paths.
    let config = CcoConfig {
        max_prefs_per_user: 6,
        max_indicators_per_item: 3,
        min_llr: 0.5,
    };
    let events = event_stream(0xd1ff_0004, 24, 500);
    let batch = BatchOracle::train(config.clone(), &events);
    let shard = ShardEngine::with_config(config);
    for (user, item) in &events {
        shard.post(user, item, None);
    }
    shard.sync();
    for u in 0..24 {
        let user = format!("user-{u:03}");
        let b = batch.get_filtered(&user, 10, &[]).to_json();
        let s = shard.get_filtered(&user, 10, &[]).to_json();
        assert_eq!(b, s, "tight caps: user {user} diverged");
    }
}

#[test]
fn resync_after_more_events_stays_exact() {
    // Interleave sync() mid-stream: staleness between syncs must not
    // leak into the post-sync state.
    let events = event_stream(0xd1ff_0005, 32, 600);
    let config = CcoConfig::default();
    let batch = BatchOracle::train(config.clone(), &events);
    let shard = ShardEngine::with_config(config);
    for (i, (user, item)) in events.iter().enumerate() {
        shard.post(user, item, None);
        if i == events.len() / 2 {
            shard.sync(); // mid-stream sync, then keep streaming
        }
    }
    shard.sync();
    for u in 0..32 {
        let user = format!("user-{u:03}");
        let b = batch.get_filtered(&user, 8, &[]).to_json();
        let s = shard.get_filtered(&user, 8, &[]).to_json();
        assert_eq!(b, s, "resync: user {user} diverged");
    }
}

#[test]
fn one_shard_ring_answers_like_the_bare_engine() {
    // "Unsharded = one-shard ring": the router's owner-history +
    // scatter-score path over a single shard must be byte-identical to
    // the engine's own `/events` + `/queries` surface, fresh and synced.
    use pprox_lrs::api::{
        FeedbackEvent, HttpRequest, RecommendationQuery, RestHandler, EVENTS_PATH, QUERIES_PATH,
    };
    use pprox_lrs::shard::{ShardedLrs, DEFAULT_VNODES};
    use std::sync::Arc;

    let events = event_stream(0xd1ff_0001, 40, 600);
    let bare = ShardEngine::new();
    let inner = Arc::new(ShardEngine::new());
    let ring = ShardedLrs::new(vec![inner.clone()], DEFAULT_VNODES);
    for (user, item) in &events {
        let body = FeedbackEvent {
            user: user.clone(),
            item: item.clone(),
            payload: Some(1.0),
        }
        .to_json();
        let request = HttpRequest::post(EVENTS_PATH, body);
        assert_eq!(ring.handle(&request), bare.handle(&request));
    }
    let mut nonempty = 0usize;
    for synced in [false, true] {
        if synced {
            bare.sync();
            inner.sync();
        }
        for u in 0..40 {
            let query = RecommendationQuery {
                user: format!("user-{u:03}"),
                num: 10,
                exclude: vec!["g0-item-00".to_string()],
            };
            let request = HttpRequest::post(QUERIES_PATH, query.to_json());
            let (b, r) = (bare.handle(&request), ring.handle(&request));
            assert_eq!(b, r, "user-{u:03} (synced: {synced}) diverged");
            nonempty += usize::from(b.body.contains("\"id\""));
        }
    }
    assert!(nonempty > 0, "comparison would be vacuous");
}
