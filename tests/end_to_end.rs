//! Integration test: the paper's two-phase protocol through the live
//! chain (UA → IA → LRS over loopback TCP), with shuffling on and
//! concurrent clients.

mod common;

use common::concurrently;
use pprox::core::resilience::Deadline;
use pprox::core::shuffler::ShuffleConfig;
use pprox::core::PProxError;
use pprox::lrs::shard::ShardEngine;
use pprox::lrs::MAX_RECOMMENDATIONS;
use pprox::wire::{ClusterConfig, LoopbackCluster};
use pprox::workload::dataset::Dataset;
use std::sync::Arc;
use std::time::Duration;

fn budget() -> Deadline {
    Deadline::starting_now(Duration::from_secs(30))
}

fn cluster(engine: &Arc<ShardEngine>, shuffle: ShuffleConfig, instances: usize) -> LoopbackCluster {
    let config = ClusterConfig {
        shuffle,
        ua_instances: instances,
        ia_instances: instances,
        seed: 0xe2e,
        ..ClusterConfig::default()
    };
    let cluster = LoopbackCluster::launch(config, engine.clone()).unwrap();
    assert!(cluster.wait_ready(Duration::from_secs(10)));
    cluster
}

#[test]
fn two_phase_workload_through_shuffled_pipeline() {
    let dataset = Dataset::generate(30, 50, 400, 0xe2e);
    let engine = Arc::new(ShardEngine::new());
    let mut cluster = cluster(
        &engine,
        ShuffleConfig {
            size: 10,
            timeout_us: 50_000,
        },
        2,
    );
    // Enough clients in flight that buffers fill as well as time out.
    let mut clients: Vec<_> = (0..20).map(|_| cluster.client()).collect();
    let cluster = &cluster;

    // Phase 1: feedback.
    let posts = concurrently(&mut clients, dataset.ratings.len(), |client, k| {
        let r = &dataset.ratings[k];
        let env = client.post(
            &Dataset::user_id(r.user),
            &Dataset::item_id(r.item),
            Some(r.rating),
        )?;
        cluster.send_post(&env, budget())
    });
    for (k, result) in posts.iter().enumerate() {
        assert!(result.is_ok(), "post {k} failed: {result:?}");
    }
    assert_eq!(engine.gauges().events, 400);
    engine.sync();

    // Phase 2: concurrent gets.
    let gets = concurrently(&mut clients, 60, |client, k| {
        let (env, ticket) = client.get(&Dataset::user_id(dataset.ratings[k].user))?;
        let list = cluster.send_get(&env, budget())?;
        client.open_response(&ticket, &list)
    });
    for (k, result) in gets.iter().enumerate() {
        let items = result
            .as_ref()
            .unwrap_or_else(|e| panic!("get {k} failed: {e:?}"));
        assert!(items.len() <= MAX_RECOMMENDATIONS);
    }
}

#[test]
fn concurrent_clients_share_the_pipeline() {
    let engine = Arc::new(ShardEngine::new());
    let mut cluster = cluster(&engine, ShuffleConfig::disabled(), 1);
    let mut clients: Vec<_> = (0..4).map(|_| cluster.client()).collect();
    let cluster = &cluster;
    let posts = concurrently(&mut clients, 100, |client, k| {
        let env = client.post(&format!("u{k}"), &format!("item-{}", k / 4), None)?;
        cluster.send_post(&env, budget())
    });
    for (k, result) in posts.iter().enumerate() {
        assert!(result.is_ok(), "post {k} failed: {result:?}");
    }
    assert_eq!(engine.gauges().events, 100);
}

#[test]
fn pipeline_rejects_garbage_but_keeps_serving() {
    let engine = Arc::new(ShardEngine::new());
    let mut cluster = cluster(&engine, ShuffleConfig::disabled(), 1);
    let mut client = cluster.client();

    // A corrupted envelope fails cleanly: the UA cannot decrypt it and
    // answers `failed` (definitive, so nothing retries it)...
    let mut envelope = client.post("u", "i", None).unwrap();
    envelope.user = vec![0xff; 13];
    assert_eq!(
        cluster.send_post(&envelope, budget()),
        Err(PProxError::Unavailable)
    );
    assert_eq!(engine.gauges().events, 0);

    // ...and the chain still serves well-formed requests.
    let env = client.post("u", "i", None).unwrap();
    cluster.send_post(&env, budget()).unwrap();
    assert_eq!(engine.gauges().events, 1);
}
