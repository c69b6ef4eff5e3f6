//! Integration test: the paper's two-phase protocol through the live
//! multi-threaded pipeline, with shuffling on and concurrent clients.

use pprox::core::config::PProxConfig;
use pprox::core::pipeline::{Completion, PProxPipeline};
use pprox::core::shuffler::ShuffleConfig;
use pprox::lrs::shard::ShardEngine;
use pprox::lrs::MAX_RECOMMENDATIONS;
use pprox::workload::dataset::Dataset;
use std::sync::Arc;
use std::time::Duration;

fn pipeline(engine: &Arc<ShardEngine>, shuffle: ShuffleConfig, instances: usize) -> PProxPipeline {
    let config = PProxConfig {
        shuffle,
        ua_instances: instances,
        ia_instances: instances,
        modulus_bits: 1152,
        ..PProxConfig::default()
    };
    PProxPipeline::new(config, engine.clone(), 0xe2e, 2 * instances).unwrap()
}

#[test]
fn two_phase_workload_through_shuffled_pipeline() {
    let dataset = Dataset::generate(30, 50, 400, 0xe2e);
    let engine = Arc::new(ShardEngine::new());
    let p = pipeline(
        &engine,
        ShuffleConfig {
            size: 10,
            timeout_us: 50_000,
        },
        2,
    );
    let mut client = p.client();

    // Phase 1: feedback.
    let mut pending = Vec::new();
    for r in &dataset.ratings {
        let env = client
            .post(
                &Dataset::user_id(r.user),
                &Dataset::item_id(r.item),
                Some(r.rating),
            )
            .unwrap();
        pending.push(p.submit(env).unwrap());
    }
    for rx in pending {
        match rx.recv_timeout(Duration::from_secs(30)).unwrap() {
            Completion::Post(Ok(())) => {}
            other => panic!("post failed: {other:?}"),
        }
    }
    assert_eq!(engine.gauges().events, 400);
    engine.sync();

    // Phase 2: concurrent gets.
    let mut in_flight = Vec::new();
    for r in dataset.ratings.iter().take(60) {
        let (env, ticket) = client.get(&Dataset::user_id(r.user)).unwrap();
        in_flight.push((ticket, p.submit(env).unwrap()));
    }
    let mut answered = 0;
    for (ticket, rx) in in_flight {
        match rx.recv_timeout(Duration::from_secs(30)).unwrap() {
            Completion::Get(Ok(list)) => {
                let items = client.open_response(&ticket, &list).unwrap();
                assert!(items.len() <= MAX_RECOMMENDATIONS);
                answered += 1;
            }
            other => panic!("get failed: {other:?}"),
        }
    }
    assert_eq!(answered, 60);
    p.shutdown();
}

#[test]
fn concurrent_clients_share_the_pipeline() {
    let engine = Arc::new(ShardEngine::new());
    let p = Arc::new(pipeline(&engine, ShuffleConfig::disabled(), 1));
    let mut handles = Vec::new();
    for t in 0..4 {
        let p = p.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = p.client();
            for i in 0..25 {
                let env = client
                    .post(&format!("t{t}-u{i}"), &format!("item-{i}"), None)
                    .unwrap();
                let rx = p.submit(env).unwrap();
                match rx.recv_timeout(Duration::from_secs(30)).unwrap() {
                    Completion::Post(Ok(())) => {}
                    other => panic!("post failed: {other:?}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(engine.gauges().events, 100);
}

#[test]
fn pipeline_rejects_garbage_but_keeps_serving() {
    let engine = Arc::new(ShardEngine::new());
    let p = pipeline(&engine, ShuffleConfig::disabled(), 1);
    let mut client = p.client();

    // A corrupted envelope fails cleanly...
    let mut envelope = client.post("u", "i", None).unwrap();
    envelope.user = vec![0xff; 13];
    let rx = p.submit(envelope).unwrap();
    match rx.recv_timeout(Duration::from_secs(30)).unwrap() {
        Completion::Post(Err(_)) => {}
        other => panic!("expected an error completion, got {other:?}"),
    }

    // ...and the pipeline still serves well-formed requests.
    let env = client.post("u", "i", None).unwrap();
    let rx = p.submit(env).unwrap();
    assert!(matches!(
        rx.recv_timeout(Duration::from_secs(30)).unwrap(),
        Completion::Post(Ok(()))
    ));
    p.shutdown();
}
