//! Integration test: the observability plane against a live cluster.
//!
//! Scrapes every node over the frame protocol while a steady load
//! runs and checks that every node answers, that no node document
//! carries an oracle (`attack::scrape_audit::scan_export_for_oracles`),
//! and that the cluster view — the node documents merged under the node
//! schema — validates, sums the nodes' counters, renders as valid
//! Prometheus text, and reads an empty worker queue on every node once
//! the load has drained. This is the one check of the cluster export. A
//! second test checks metric continuity across a supervised respawn —
//! the per-node hub survives the instance, so a scrape after the kill
//! still covers the whole chain.
//!
//! What monitoring costs is a measurement, not a test: the < 5 % budget
//! on sustained RPS is asserted by `bin/observability_report` when it
//! runs and by its `--validate` of the committed
//! `results/BENCH_observability.json` (both CI stages), where a loaded
//! box makes a report to rerun instead of a red tier-1 suite.
//!
//! Note for the privacy-flow analyzer: this file sits on the user side
//! of the boundary (it mints user requests and reads only exported
//! aggregates), so it names no item-side APIs.

use pprox::attack::scrape_audit::scan_export_for_oracles;
use pprox::core::resilience::Deadline;
use pprox::core::telemetry::Stage;
use pprox::json::schema::{list, number};
use pprox::lrs::stub::StubLrs;
use pprox::wire::cluster::{ClusterConfig, LoopbackCluster};
use pprox::wire::scrape::{prometheus_text, validate_prometheus, REQUIRED_STAGES};
use pprox::wire::{validate_scrape_snapshot, ClusterScraper};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Both tests in this binary drive a live cluster against deadlines;
/// run concurrently on a two-core box they starve each other. Each test
/// takes this lock for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn steady_cluster(seed: u64, supervisor: bool) -> LoopbackCluster {
    let config = ClusterConfig {
        ua_instances: 2,
        ia_instances: 2,
        lrs_instances: 1,
        modulus_bits: 1152,
        supervisor,
        seed,
        ..ClusterConfig::default()
    }
    .with_shuffle(4, 20_000);
    let cluster = LoopbackCluster::launch(config, Arc::new(StubLrs::new())).unwrap();
    assert!(cluster.wait_ready(Duration::from_secs(10)));
    cluster
}

/// Closed-loop load of `requests` posts over `workers` threads.
fn drive(cluster: &mut LoopbackCluster, requests: usize, workers: usize) {
    let mut client = cluster.client();
    let frames: Vec<_> = (0..requests)
        .map(|k| {
            client
                .post(&format!("u{:02}", k % 23), &format!("i{:02}", k % 31), None)
                .unwrap()
        })
        .collect();
    let next = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let next = next.clone();
            let frames = &frames;
            let cluster: &LoopbackCluster = cluster;
            scope.spawn(move || loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= frames.len() {
                    break;
                }
                let deadline = Deadline::starting_now(Duration::from_secs(10));
                cluster.send_post(&frames[k], deadline).unwrap();
            });
        }
    });
}

/// Scraping every node during a steady load must yield snapshots that
/// validate, be answered by every node, and merge into a cluster view
/// of the same schema whose Prometheus rendering validates.
#[test]
fn scrape_under_steady_load_is_valid() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cluster = steady_cluster(0x0b51, false);
    let scraper = ClusterScraper::new(cluster.scrape_targets());
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = stop.clone();
        std::thread::spawn(move || loop {
            // The flag is read after a scrape, so however short the
            // load every node answers at least one.
            let snap = scraper.scrape();
            assert!(snap.validate().is_ok(), "mid-load scrape must validate");
            if stop.load(Ordering::Acquire) {
                break;
            }
            std::thread::sleep(Duration::from_millis(250));
        })
    };
    drive(&mut cluster, 360, 8);
    stop.store(true, Ordering::Release);
    handle.join().unwrap();

    // Every node must have answered at least one scrape.
    for metrics in cluster.node_metrics() {
        assert!(metrics.scrapes() >= 1, "a node never served a scrape");
    }

    // The cluster view is a node document: same schema, each counter
    // the sum over the nodes, and a valid Prometheus rendering.
    let scraper = ClusterScraper::new(cluster.scrape_targets());
    let snap = scraper.scrape();
    snap.validate().unwrap();
    assert_eq!(snap.nodes.len(), 5);
    // What a monitoring adversary reads carries no per-request oracle.
    for node in &snap.nodes {
        let hits = scan_export_for_oracles(&node.json);
        assert!(hits.is_empty(), "oracle in {}: {hits:?}", node.name);
    }
    let merged = snap.merged();
    validate_scrape_snapshot(&merged).unwrap();
    // Every stage the exposition requires was recorded by the chain (an
    // empty histogram still renders its series), and nothing else is
    // exported under `stages`.
    for stage in REQUIRED_STAGES {
        let cells = list(&merged, &format!("stages.{stage}.counts")).unwrap();
        assert!(!cells.is_empty(), "stage {stage} recorded nothing");
    }
    let stages = merged.get("stages").and_then(|s| s.as_object()).unwrap();
    for name in stages.keys() {
        assert!(
            Stage::ALL.iter().any(|s| s.as_str() == name),
            "{name} is not a stage"
        );
    }
    let frames_in: f64 = snap
        .nodes
        .iter()
        .map(|node| number(&node.json, "server.frames_in").unwrap())
        .sum();
    assert!(frames_in >= 360.0, "{frames_in} frames in");
    assert_eq!(number(&merged, "server.frames_in"), Ok(frames_in));
    validate_prometheus(&prometheus_text(&merged)).unwrap();
    // The load has drained: every request counted into a worker queue
    // was counted out of it.
    for node in &snap.nodes {
        let queued = number(&node.json, "server.queue_depth");
        assert_eq!(queued, Ok(0.0), "{} reads jobs queued", node.name);
    }
    cluster.shutdown();
}

/// A supervised respawn must not tear the observability plane: the
/// respawned instance inherits its node's metrics hub, keeps the
/// pre-kill counters, and answers scrapes again once live.
#[test]
fn scrape_survives_supervised_respawn() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cluster = steady_cluster(0x0b52, true);
    drive(&mut cluster, 40, 4);

    let scraper = ClusterScraper::new(cluster.scrape_targets());
    let before = scraper.scrape();
    before.validate().unwrap();

    cluster.kill_ia(0);
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.respawns() == 0 {
        assert!(Instant::now() < deadline, "supervisor never respawned ia0");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(cluster.wait_ready(Duration::from_secs(10)));

    // The chain still works and the full cluster answers scrapes. The
    // respawned instance listens on a fresh port, so the scraper is
    // rebuilt from the cluster's current target list.
    drive(&mut cluster, 40, 4);
    let scraper = ClusterScraper::new(cluster.scrape_targets());
    let after = scraper.scrape();
    after.validate().unwrap();
    assert_eq!(after.nodes.len(), 5, "a node dropped out of the scrape");

    // The hub accumulated across the respawn: counters did not reset.
    let frames = |snap: &pprox::wire::ClusterSnapshot, name: &str| {
        snap.nodes
            .iter()
            .find(|n| n.name == name)
            .and_then(|n| n.json.get("server"))
            .and_then(|s| s.get("frames_in"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    assert!(
        frames(&after, "ia0") >= frames(&before, "ia0"),
        "ia0 frame counter reset across respawn"
    );
    cluster.shutdown();
}
