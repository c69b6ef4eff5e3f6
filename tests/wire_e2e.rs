//! Integration test: the full chain over loopback TCP.
//!
//! Drives real sockets end to end — user library → UA server → IA
//! server → LRS frontend server — and checks (a) the chain is
//! semantically transparent: a seeded trace replayed through it and
//! through the layer transforms called directly gives the same
//! recommendations and leaves the same events in the LRS, (b) the chain
//! survives one IA instance being killed mid-run, exercising the
//! client's redial and the socket balancer's failover path, (c) the
//! shuffle size is independent of the servers' worker count, and (d) the
//! kill-and-replay drill: a durable LRS layer killed mid-trace recovers
//! from its sealed store, serves the rest of the trace with the
//! recommendations of a never-killed run, and leaves a store that passes
//! the at-rest audit (`attack::at_rest_audit`).

mod common;

use common::{budget, concurrently, launch, post, recommend, wait_until};
use pprox::attack::at_rest_audit::audit_store_dir;
use pprox::core::ia::{IaOptions, IaState};
use pprox::core::keys::{KeyProvisioner, IA_CODE_IDENTITY, UA_CODE_IDENTITY};
use pprox::core::message::{ClientEnvelope, EncryptedList};
use pprox::core::resilience::{BreakerState, Deadline};
use pprox::core::shuffler::ShuffleConfig;
use pprox::core::telemetry::Stage;
use pprox::core::ua::UaState;
use pprox::core::{PProxError, UserClient};
use pprox::lrs::api::{HttpRequest, RecommendationList, EVENTS_PATH, QUERIES_PATH};
use pprox::lrs::cco::CcoConfig;
use pprox::lrs::shard::{DurableConfig, DurableShard, ShardEngine, HISTORY_LIMIT};
use pprox::lrs::stub::StubLrs;
use pprox::lrs::RestHandler;
use pprox::sgx::{Enclave, Platform};
use pprox::store::{SealingKey, SecureRng, TempDir};
use pprox::wire::cluster::{ClusterConfig, LoopbackCluster, LrsFactory, LrsInstance};
use pprox::wire::scrape::ShardGaugeFn;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

/// The differential oracle: the layer transforms called directly, one
/// request at a time on the caller's thread — what the chain does to a
/// request with nothing around it (no sockets, shuffle, groups or
/// retries). It draws its keys from the seed as `LoopbackCluster::launch`
/// does (platform first, layer keys second), so its pseudonyms are the
/// cluster's.
struct Oracle {
    ua: Arc<Enclave<UaState>>,
    ia: Arc<Enclave<IaState>>,
    lrs: Arc<ShardEngine>,
    client: UserClient,
}

impl Oracle {
    fn new(config: &ClusterConfig, lrs: Arc<ShardEngine>) -> Self {
        let mut rng = SecureRng::from_seed(config.seed);
        let platform = Platform::new(&mut rng);
        let provisioner = KeyProvisioner::generate(config.modulus_bits, &mut rng);
        let ua = platform.load_enclave::<UaState>(UA_CODE_IDENTITY);
        provisioner.provision_ua(&platform, &ua).unwrap();
        let ia = platform.load_enclave::<IaState>(IA_CODE_IDENTITY);
        provisioner.provision_ia(&platform, &ia).unwrap();
        let client = UserClient::new(provisioner.client_keys(), config.seed);
        Oracle {
            ua,
            ia,
            lrs,
            client,
        }
    }

    /// One LRS call: the body of a 2xx answer.
    fn lrs(&self, path: &str, body: String) -> Result<String, PProxError> {
        let response = self.lrs.handle(&HttpRequest::post(path, body));
        response
            .is_success()
            .then_some(response.body)
            .ok_or(PProxError::Unavailable)
    }

    fn post(&self, envelope: &ClientEnvelope) -> Result<(), PProxError> {
        let layer = self.ua.call(|ua| ua.process(envelope, true))??;
        let event = self
            .ia
            .call(|ia| ia.process_post(&layer, IaOptions::default()))??;
        self.lrs(EVENTS_PATH, event.to_json()).map(drop)
    }

    fn get(&self, envelope: &ClientEnvelope) -> Result<EncryptedList, PProxError> {
        let options = IaOptions::default();
        let layer = self.ua.call(|ua| ua.process(envelope, true))??;
        let (query, token) = self.ia.call(|ia| ia.process_get(&layer, options))??;
        let body = self.lrs(QUERIES_PATH, query.to_json())?;
        let list = RecommendationList::from_json(&body).ok_or(PProxError::MalformedMessage)?;
        let items: Vec<String> = list.items.into_iter().map(|s| s.item).collect();
        self.ia
            .call(|ia| ia.process_get_response(token, &items, options))?
    }

    /// The answer the application sees: `None` for a post, the opened
    /// list for a get.
    fn answer(
        &mut self,
        user: &str,
        item: Option<&str>,
    ) -> Result<Option<Vec<String>>, PProxError> {
        match item {
            Some(item) => {
                let envelope = self.client.post(user, item, Some(4.0))?;
                self.post(&envelope).map(|()| None)
            }
            None => {
                let (envelope, ticket) = self.client.get(user)?;
                let list = self.get(&envelope)?;
                self.client.open_response(&ticket, &list).map(Some)
            }
        }
    }
}

/// One seeded trace — four users a round, rounds of posts and rounds of
/// gets interleaved — through the wire chain (S = 3 with a timer, so a
/// round of four leaves the UA as one full flush and one timed-out
/// flush, in shuffled order, and comes back the same way) and through
/// the oracle, each over its own engine. The same seed gives both the
/// same layer keys, so every opened list and the two engines'
/// pseudonymous event dumps must be equal.
///
/// A round's requests name distinct users and are all posts or all gets,
/// so the order the shuffle releases them in is not observable once the
/// engine has re-derived its model from exact counts (`sync`).
#[test]
fn wire_chain_matches_in_process_deployment() {
    let wire_engine = Arc::new(ShardEngine::new());
    let config = ClusterConfig {
        shuffle: ShuffleConfig {
            size: 3,
            timeout_us: 20_000,
        },
        ua_instances: 1,
        seed: 0xe2e1,
        ..ClusterConfig::default()
    };
    let oracle_engine = Arc::new(ShardEngine::new());
    let mut oracle = Oracle::new(&config, oracle_engine.clone());
    let mut cluster = LoopbackCluster::launch(config, wire_engine.clone()).unwrap();
    assert!(cluster.wait_ready(Duration::from_secs(10)));
    let mut clients: Vec<_> = (0..4).map(|_| cluster.client()).collect();

    // Rounds of (user, item): `Some` posts, `None` gets.
    let users = |prefix: &str, from: usize| -> Vec<String> {
        (from..from + 4).map(|u| format!("{prefix}-{u}")).collect()
    };
    let post_round = |who: Vec<String>, item: &'static str| -> Vec<(String, Option<&str>)> {
        who.into_iter().map(|u| (u, Some(item))).collect()
    };
    let get_round = |who: Vec<String>| -> Vec<(String, Option<&str>)> {
        who.into_iter().map(|u| (u, None)).collect()
    };
    let trace = [
        post_round(users("sci", 0), "alien"),
        post_round(users("sci", 0), "dune"),
        post_round(users("rom", 0), "amelie"),
        post_round(users("new", 0), "alien"),
        get_round(users("new", 0)),
        post_round(users("sci", 0), "contact"),
        post_round(users("rom", 0), "notebook"),
        post_round(users("new", 0), "amelie"),
        get_round(users("new", 0)),
        get_round(vec![
            "sci-0".into(),
            "rom-0".into(),
            "new-3".into(),
            "nobody".into(),
        ]),
    ];

    let mut compared = 0;
    for round in &trace {
        wire_engine.sync();
        oracle_engine.sync();
        let over_wire = concurrently(&mut clients, round.len(), |client, k| {
            let (user, item) = &round[k];
            match item {
                Some(item) => {
                    let env = client.post(user, item, Some(4.0))?;
                    cluster.send_post(&env, budget()).map(|()| None)
                }
                None => {
                    let (env, ticket) = client.get(user)?;
                    let list = cluster.send_get(&env, budget())?;
                    client.open_response(&ticket, &list).map(Some)
                }
            }
        });
        for ((user, item), wire_answer) in round.iter().zip(over_wire) {
            let oracle_answer = oracle.answer(user, *item);
            assert_eq!(wire_answer, oracle_answer, "{user} / {item:?}");
            compared += usize::from(item.is_none());
        }
    }
    assert_eq!(compared, 12, "every get was compared");
    // The trace went through the shuffle both ways it can: buffers that
    // filled and buffers the timer emptied.
    let shuffle = cluster.node_metrics()[0].snapshot_json();
    for cause in ["flush_full", "flush_timeout"] {
        let flushes = shuffle.get("shuffle").and_then(|s| s.get(cause));
        assert!(flushes.and_then(|v| v.as_u64()) >= Some(10), "{cause}");
    }
    assert_eq!(wire_engine.dump_events(), oracle_engine.dump_events());
    assert_eq!(wire_engine.dump_events().len(), 28);
    cluster.shutdown();
}

/// Killing one of two IA instances mid-run must not fail user requests:
/// the connection to the dead instance is lost and the socket balancer
/// fails calls over to the surviving instance.
#[test]
fn survives_ia_instance_killed_mid_run() {
    let config = ClusterConfig {
        ua_instances: 2,
        ia_instances: 2,
        lrs_instances: 2,
        modulus_bits: 1152,
        seed: 0xdead,
        ..ClusterConfig::default()
    };
    let mut cluster = LoopbackCluster::launch(config, Arc::new(StubLrs::new())).unwrap();
    assert!(cluster.wait_ready(Duration::from_secs(10)));
    let mut client = cluster.client();

    // Warm phase: both IA instances serve traffic (round-robin), so the
    // UA instances hold live connections to the instance we will kill.
    for i in 0..8 {
        let env = client
            .post(&format!("u{i}"), &format!("m{i}"), None)
            .unwrap();
        cluster.send_post(&env, budget()).unwrap();
    }

    cluster.kill_ia(0);

    // Every request after the kill must still succeed (reconnect +
    // failover absorb the dead backend), both posts and gets.
    for i in 0..8 {
        let env = client
            .post(&format!("v{i}"), &format!("m{i}"), None)
            .unwrap();
        cluster
            .send_post(&env, budget())
            .unwrap_or_else(|e| panic!("post {i} after kill failed: {e:?}"));
    }
    let (env, ticket) = client.get("u0").unwrap();
    let encrypted = cluster
        .send_get(&env, budget())
        .expect("get after kill failed");
    let items = client.open_response(&ticket, &encrypted).unwrap();
    assert!(!items.is_empty());
    cluster.shutdown();
}

/// Killing a UA instance and then an LRS instance mid-run must not fail
/// user requests: the front-door balancer routes around the dead UA, and
/// the IA tier's resilient LRS calls (breaker + retries + failover)
/// absorb the dead LRS frontend.
#[test]
fn survives_ua_and_lrs_instances_killed_mid_run() {
    let config = ClusterConfig {
        ua_instances: 2,
        ia_instances: 2,
        lrs_instances: 2,
        modulus_bits: 1152,
        seed: 0x001c_1110,
        ..ClusterConfig::default()
    };
    let mut cluster = LoopbackCluster::launch(config, Arc::new(StubLrs::new())).unwrap();
    assert!(cluster.wait_ready(Duration::from_secs(10)));
    let mut client = cluster.client();

    // Warm phase: every tier member carries traffic.
    for i in 0..8 {
        let env = client
            .post(&format!("u{i}"), &format!("m{i}"), None)
            .unwrap();
        cluster.send_post(&env, budget()).unwrap();
    }

    cluster.kill_ua(0);
    for i in 0..6 {
        let env = client
            .post(&format!("v{i}"), &format!("m{i}"), None)
            .unwrap();
        cluster
            .send_post(&env, budget())
            .unwrap_or_else(|e| panic!("post {i} after UA kill failed: {e:?}"));
    }

    cluster.kill_lrs(0);
    for i in 0..6 {
        let env = client
            .post(&format!("w{i}"), &format!("m{i}"), None)
            .unwrap();
        cluster
            .send_post(&env, budget())
            .unwrap_or_else(|e| panic!("post {i} after LRS kill failed: {e:?}"));
    }
    let (env, ticket) = client.get("u0").unwrap();
    let encrypted = cluster
        .send_get(&env, budget())
        .expect("get after both kills failed");
    let items = client.open_response(&ticket, &encrypted).unwrap();
    assert!(!items.is_empty());
    cluster.shutdown();
}

/// A node has one lifecycle whichever tier it is in, and a respawn is
/// its launch done again: kill slot 0 of each tier in turn (two instances
/// a tier, encryption on, supervised) and the chain must answer the same
/// list as before the kill — the rebuilt enclave derives the same
/// pseudonyms — through every pair of instances, after exactly one
/// recovery, recorded on that node's own hub next to its pre-kill
/// history; a respawned IA starts behind a fresh, closed breaker.
#[test]
fn a_killed_node_of_any_tier_comes_back_as_launched() {
    for (t, tier) in ["ua", "ia", "lrs"].into_iter().enumerate() {
        let engine = Arc::new(ShardEngine::new());
        let config = ClusterConfig {
            lrs_instances: 2,
            supervisor: true,
            seed: 0x11fe + t as u64,
            ..ClusterConfig::default()
        };
        let mut cluster = LoopbackCluster::launch(config, engine.clone()).unwrap();
        assert!(cluster.wait_ready(Duration::from_secs(10)));
        let mut client = cluster.client();
        let mut get = |cluster: &LoopbackCluster| {
            let (env, ticket) = client.get("new-0").unwrap();
            let list = cluster.send_get(&env, budget()).unwrap();
            client.open_response(&ticket, &list).unwrap()
        };

        // Two taste clusters, and a newcomer with a foot in one of them.
        let mut poster = cluster.client();
        let fans = |taste: &'static str, item: &'static str| {
            (0..4).map(move |u| (format!("{taste}-{u}"), item))
        };
        let trace = fans("sci", "alien")
            .chain(fans("sci", "dune"))
            .chain(fans("rom", "amelie"))
            .chain([("new-0".to_string(), "alien")]);
        for (user, item) in trace {
            let env = poster.post(&user, item, Some(4.0)).unwrap();
            cluster.send_post(&env, budget()).unwrap();
        }
        engine.sync();
        let before = get(&cluster);
        assert!(!before.is_empty(), "{tier}: the trace recommends something");

        // Slot 0 of tier `t`, in `node_metrics()` order (two a tier).
        let node = cluster.node_metrics()[2 * t].clone();
        let stat = |group: &str, name: &str| {
            let snapshot = node.snapshot_json();
            let value = snapshot.get(group).and_then(|g| g.get(name));
            value.and_then(|v| v.as_u64()).expect("a counter")
        };
        let frames_before = stat("server", "frames_in");
        assert!(frames_before > 0, "{tier}0 served part of the trace");
        let breaker_before = cluster.ia_breaker(0);

        match tier {
            "ua" => cluster.kill_ua(0),
            "ia" => cluster.kill_ia(0),
            _ => cluster.kill_lrs(0),
        }
        assert!(cluster.wait_ready(Duration::from_secs(10)), "{tier}");
        wait_until("the recovery is on record", || cluster.respawns() == 1);

        // Round-robin at every hop: four gets cross every instance of
        // every tier, the rebuilt one included.
        for _ in 0..4 {
            assert_eq!(get(&cluster), before, "{tier}: list after the respawn");
        }
        let events = cluster.respawn_events();
        assert_eq!(events.len(), 1, "{tier}: {events:?}");
        assert_eq!((events[0].tier, events[0].index), (tier, 0));
        assert_eq!(stat("supervisor", "respawns"), 1, "{tier}");
        assert!(stat("server", "frames_in") > frames_before, "{tier}");
        let breaker = cluster.ia_breaker(0);
        assert_eq!(!Arc::ptr_eq(&breaker, &breaker_before), tier == "ia");
        assert_eq!(breaker.state(), BreakerState::Closed, "{tier}");
        cluster.shutdown();
    }
}

/// Graceful drain: requests sitting in the UA shuffle buffer when the
/// cluster shuts down must be answered, not dropped. The buffer's flush
/// timer is set far beyond the test's patience, so only the drain path
/// can release them.
#[test]
fn shutdown_drains_buffered_shuffle_requests() {
    let config = ClusterConfig {
        ua_instances: 1,
        ia_instances: 1,
        lrs_instances: 1,
        modulus_bits: 1152,
        shuffle: ShuffleConfig {
            size: 16,                // far more than we will send
            timeout_us: 120_000_000, // 2 minutes: the timer never fires
        },
        seed: 0x000d_6a14,
        ..ClusterConfig::default()
    };
    let mut cluster = LoopbackCluster::launch(config, Arc::new(StubLrs::new())).unwrap();
    assert!(cluster.wait_ready(Duration::from_secs(10)));
    let mut clients: Vec<_> = (0..3).map(|_| cluster.client()).collect();

    // Three posts enter the shuffle buffer and block there: 3 < 16 and
    // the timer is minutes away — only the drain can release them.
    let started = std::time::Instant::now();
    let results: Vec<_> = std::thread::scope(|scope| {
        let cluster = &cluster;
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                scope.spawn(move || {
                    let env = client.post(&format!("d{i}"), "m001", None).unwrap();
                    cluster.send_post(&env, Deadline::starting_now(Duration::from_secs(30)))
                })
            })
            .collect();
        // A request parked in the shuffle buffer holds its admission
        // permit, so the UA's in-flight gauge says exactly how many are
        // buffered — poll it to a deadline instead of sleeping and
        // hoping (the old fixed sleep flaked under load).
        let buffered_deadline = std::time::Instant::now() + Duration::from_secs(10);
        while cluster.ua_in_flight(0) < 3 {
            assert!(
                std::time::Instant::now() < buffered_deadline,
                "posts never reached the shuffle buffer (in flight: {})",
                cluster.ua_in_flight(0)
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        cluster.kill_ua(0); // graceful shutdown of the only UA: drain fires
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread must not panic"))
            .collect()
    });

    for (i, result) in results.iter().enumerate() {
        assert!(
            result.is_ok(),
            "buffered post {i} was dropped on shutdown: {result:?}"
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "answers must come from the drain, not the flush timer"
    );
    cluster.shutdown();
}

/// A UA with two workers fills a shuffle buffer of eight: a buffered
/// request holds an admission permit, not a worker, so `S` is not capped
/// by the thread count. (With a worker parked per buffered request the
/// buffer could never hold more than two, every flush would be the
/// timer's, and with a timer this long every request would miss its
/// deadline.)
#[test]
fn shuffle_size_does_not_depend_on_the_worker_count() {
    const CLIENTS: usize = 64;
    const POSTS_EACH: usize = 3;
    let config = ClusterConfig {
        ua_instances: 1,
        ia_instances: 1,
        lrs_instances: 1,
        modulus_bits: 1152,
        shuffle: ShuffleConfig {
            size: 8,
            // Longer than any request's budget: only full buffers flush.
            timeout_us: 60_000_000,
        },
        seed: 0x5128_0002,
        ..ClusterConfig::default()
    };
    assert_eq!(config.server.workers, 2, "the default every tier runs with");
    let mut cluster = LoopbackCluster::launch(config, Arc::new(StubLrs::new())).unwrap();
    assert!(cluster.wait_ready(Duration::from_secs(10)));
    let mut clients: Vec<_> = (0..CLIENTS).map(|_| cluster.client()).collect();

    // 64 × 3 = 192 posts, a multiple of 8 in each direction, so the last
    // buffer fills too.
    let results: Vec<_> = std::thread::scope(|scope| {
        let cluster = &cluster;
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                scope.spawn(move || {
                    (0..POSTS_EACH)
                        .map(|k| {
                            let env = client.post(&format!("s{i}"), &format!("m{k}"), None)?;
                            cluster.send_post(&env, budget())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread must not panic"))
            .collect()
    });
    assert_eq!(results.len(), CLIENTS * POSTS_EACH);
    for (i, result) in results.iter().enumerate() {
        assert!(result.is_ok(), "post {i} failed: {result:?}");
    }

    let ua = &cluster.node_metrics()[0];
    let snapshot = ua.snapshot_json();
    let shuffle = |key: &str| {
        snapshot
            .get("shuffle")
            .and_then(|s| s.get(key))
            .and_then(|v| v.as_u64())
            .expect("shuffle gauge")
    };
    // Both directions, every flush full.
    assert_eq!(shuffle("flush_full"), 2 * (CLIENTS * POSTS_EACH / 8) as u64);
    assert_eq!(shuffle("flush_timeout"), 0);
    // The gauge is sampled after each push: seven waiting when the
    // eighth arrives and empties the buffer.
    assert_eq!(shuffle("high_water"), 7);
    cluster.shutdown();
}

/// Below the fill rate a batch of k < S leaves on its timer, and its k
/// answers are gathered and leave together — the response-side anonymity
/// set is the request-side set, batch for batch. Read from the UA's audit
/// log and flush counters; nothing here depends on how long anything took.
/// No request leaves on a timer before it has waited the timeout out,
/// also while the timer of a batch that left full is still pending: the
/// dwell histogram bounds that from below only, so a slow host cannot
/// break it.
#[test]
fn a_partial_batch_is_answered_as_the_same_batch() {
    use std::collections::{BTreeMap, BTreeSet};
    let config = ClusterConfig {
        ua_instances: 1,
        ia_instances: 1,
        lrs_instances: 1,
        modulus_bits: 1152,
        shuffle: ShuffleConfig {
            size: 8,
            // Also the cap on a gather: long, so that a stalled box does
            // not split a release.
            timeout_us: 250_000,
        },
        linkage_audit: true,
        seed: 0x5128_0003,
        ..ClusterConfig::default()
    };
    let mut cluster = LoopbackCluster::launch(config, Arc::new(StubLrs::new())).unwrap();
    assert!(cluster.wait_ready(Duration::from_secs(10)));
    let mut clients: Vec<_> = (0..8).map(|_| cluster.client()).collect();
    // A round of eight, which fills a batch when its posts arrive within
    // the timeout: the batch leaves on its eighth put, and its timer is
    // still pending while the next round is buffered. Then closed-loop
    // rounds of fewer than eight, which fill no buffer.
    for (round, k) in [8usize, 5, 3, 7, 2].into_iter().enumerate() {
        let sent = concurrently(&mut clients, k, |client, i| {
            let env = client.post(&format!("p{round}-{i}"), "m001", None)?;
            cluster.send_post(&env, budget())
        });
        assert!(sent.iter().all(Result::is_ok), "round {round}: {sent:?}");
    }

    let audit = &cluster.linkage_audits()[0];
    let mut batches: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for event in audit.departures() {
        batches.entry(event.batch).or_default().insert(event.fp);
    }
    // Answers are logged in release order, a release under one instant.
    let answers = audit.answers();
    let releases: BTreeSet<BTreeSet<u64>> = answers
        .chunk_by(|a, b| a.left_us == b.left_us)
        .map(|release| release.iter().map(|a| a.fp).collect())
        .collect();
    assert_eq!(answers.len(), 25, "every post answered through a gather");
    assert_eq!(releases, batches.values().cloned().collect());
    assert!(batches.values().any(|b| b.len() > 1), "{batches:?}");

    let snapshot = cluster.node_metrics()[0].snapshot_json();
    let flushes = |cause: &str| {
        let count = snapshot.get("shuffle").and_then(|s| s.get(cause));
        count.and_then(|v| v.as_u64()).expect("flush counter")
    };
    // One release per direction per batch, each under the cause that
    // closed the request batch: the size for a batch of eight, the timer
    // for every other.
    let full = batches.values().filter(|b| b.len() == 8).count() as u64;
    assert_eq!(flushes("flush_full"), 2 * full);
    assert_eq!(flushes("flush_timeout"), 2 * (batches.len() as u64 - full));
    // Below 0.97 × the timeout (the histogram's bucket precision) are
    // exactly the requests of full batches; every other dwell is at
    // least that.
    let telemetry = cluster.telemetry();
    let dwell = telemetry.stages().histogram(Stage::ShuffleRequest);
    assert_eq!(dwell.count(), 25);
    assert_eq!(dwell.snapshot().cumulative_le(250_000 * 97 / 100), 8 * full);
    cluster.shutdown();
}

/// Posts `trace` through a supervised cluster over a *durable* LRS layer
/// stored in `dir` — two LRS instances sharing one `DurableShard` — and
/// returns every trace user's final recommendations, in order of first
/// appearance. With `kill_at`, the whole LRS layer is killed after that
/// many posts: the supervisor respawns it, the replacement unseals the
/// store and replays snapshot + WAL, answers the query it answered
/// before the kill identically, and takes the remaining posts.
fn durable_drill(
    dir: &Path,
    trace: &[(String, String)],
    kill_at: Option<usize>,
) -> Vec<Vec<String>> {
    let sealing = SealingKey::generate(&mut SecureRng::from_seed(0x5ea1));
    let durable_config = DurableConfig {
        snapshot_every: 6, // several snapshots before the kill
        ..DurableConfig::default()
    };

    // The boot factory the supervisor re-runs: one shared DurableShard
    // while any instance holds it; rebuilt from disk once the whole
    // layer (and with it every strong reference) is gone.
    let memo: Arc<Mutex<Weak<DurableShard>>> = Arc::new(Mutex::new(Weak::new()));
    let factory: LrsFactory = {
        let memo = memo.clone();
        let store_dir = dir.to_path_buf();
        Arc::new(move |_slot_index| {
            let mut slot = memo.lock().unwrap();
            if let Some(live) = slot.upgrade() {
                return LrsInstance::plain(live);
            }
            let lrs = Arc::new(
                DurableShard::open(&store_dir, &sealing, durable_config)
                    .expect("durable recovery must succeed"),
            );
            *slot = Arc::downgrade(&lrs);
            LrsInstance::plain(lrs)
        })
    };

    let config = ClusterConfig {
        ua_instances: 1,
        ia_instances: 1,
        lrs_instances: 2,
        modulus_bits: 1152,
        supervisor: true,
        seed: 0x4ec0,
        ..ClusterConfig::default()
    };
    let mut cluster = LoopbackCluster::launch_with_factory(config, factory).unwrap();
    assert!(cluster.wait_ready(Duration::from_secs(10)));
    let mut client = cluster.client();
    let recommend = |cluster: &LoopbackCluster, client: &mut UserClient, user: &str| {
        let (env, ticket) = client.get(user).unwrap();
        let encrypted = cluster.send_get(&env, budget()).expect("get failed");
        client.open_response(&ticket, &encrypted).unwrap()
    };

    for (posted, (user, item)) in trace.iter().enumerate() {
        if kill_at == Some(posted) {
            let before = recommend(&cluster, &mut client, "sci-0");
            assert!(!before.is_empty(), "trained backend must recommend");

            // Kill -9 the whole LRS layer: every in-memory handler
            // reference dies with the servers. The supervisor may respawn
            // (a fresh allocation, rebuilt from disk) at any point
            // afterwards, so the liveness check pins the pre-kill
            // allocation, not the memo slot.
            let pre_kill = memo.lock().unwrap().clone();
            cluster.kill_lrs_layer();
            assert!(
                pre_kill.upgrade().is_none(),
                "layer kill must drop every strong reference to the handler"
            );
            assert!(
                cluster.wait_ready(Duration::from_secs(20)),
                "supervisor must bring the layer back"
            );
            // A respawned slot answers before the supervisor records its
            // event.
            wait_until("both LRS instances were recovered", || {
                cluster.respawns() >= 2
            });

            // The replacement came from disk, not from memory.
            let revived = memo
                .lock()
                .unwrap()
                .upgrade()
                .expect("respawned layer must hold the recovered handler");
            let stats = revived.recovery();
            assert!(!stats.cold_start, "recovery must unseal the existing store");
            assert_eq!(
                stats.snapshot_events + stats.replayed,
                posted,
                "snapshot + WAL replay must restore every post so far"
            );
            assert!(stats.snapshot_events > 0, "snapshots must have fired");
            assert!(stats.replayed > 0, "the WAL tail must replay");

            let after = recommend(&cluster, &mut client, "sci-0");
            assert_eq!(
                after, before,
                "recovered layer must return identical recommendations"
            );
        }
        let env = client.post(user, item, Some(4.0)).unwrap();
        cluster
            .send_post(&env, budget())
            .unwrap_or_else(|e| panic!("post {posted} failed: {e:?}"));
    }

    let mut users: Vec<&str> = Vec::new();
    for (user, _) in trace {
        if !users.contains(&user.as_str()) {
            users.push(user);
        }
    }
    let lists = users
        .into_iter()
        .map(|user| recommend(&cluster, &mut client, user))
        .collect();
    cluster.shutdown();
    lists
}

/// The full recovery drill: the whole durable LRS layer is killed in the
/// middle of a fixed-seed trace and the rest of the trace goes through
/// the recovered layer. Every user's final recommendations equal those
/// of a never-killed control cluster with the same seed, and the store
/// the drill leaves on disk passes the at-rest audit: no raw user or
/// item id of the trace anywhere in it, padded lengths only.
#[test]
fn supervised_durable_lrs_layer_recovers_with_identical_recommendations() {
    // Two taste clusters, the background one first (the incremental
    // trainer scores pairs against the population at event time). sci-1
    // and rom-1 each like one film the rest of their cluster has not
    // seen before the kill, sci-2 and rom-2 after it; the kill leaves
    // snapshots AND a fresh WAL tail in the store.
    let mut trace = Vec::new();
    for u in 0..6 {
        trace.push((format!("rom-{u}"), "amelie".to_string()));
    }
    for u in 0..6 {
        trace.push((format!("sci-{u}"), "alien".to_string()));
        trace.push((format!("sci-{u}"), "dune".to_string()));
    }
    for (user, film) in [
        ("sci-1", "contact"),
        ("rom-1", "notting-hill"),
        ("sci-2", "gattaca"),
        ("rom-2", "roman-holiday"),
    ] {
        trace.push((user.to_string(), film.to_string()));
    }
    let kill_at = 20;

    let control_dir = TempDir::new("wire-recovery-control");
    let control = durable_drill(control_dir.path(), &trace, None);
    let dir = TempDir::new("wire-recovery");
    let killed = durable_drill(dir.path(), &trace, Some(kill_at));
    assert_eq!(
        killed, control,
        "a kill mid-trace must not change any recommendation"
    );
    // sci-0 (the seventh user) is recommended both films, one posted on
    // each side of the kill.
    for film in ["contact", "gattaca"] {
        assert!(killed[6].contains(&film.to_string()), "{:?}", killed[6]);
    }

    let mut raw_ids: Vec<String> = trace
        .iter()
        .flat_map(|(user, item)| [user.clone(), item.clone()])
        .collect();
    raw_ids.sort();
    raw_ids.dedup();
    let store = DurableConfig::default().store;
    let audit = audit_store_dir(dir.path(), &raw_ids, store.pad_class, store.block_class)
        .expect("the drill's store must be readable");
    assert!(
        audit.plaintext_hits.is_empty(),
        "{:?}",
        audit.plaintext_hits
    );
    assert!(audit.passed(), "at-rest audit failed: {audit:?}");
}

/// The fixed-seed trace the sharded tests post: background users first
/// (the incremental trainer scores pairs against the user population at
/// event time), then one strong taste cluster, then the query user.
fn sharded_trace() -> Vec<(String, String)> {
    let mut trace = Vec::new();
    for u in 0..12 {
        trace.push((format!("bg-{u}"), format!("solo-{u}")));
    }
    for u in 0..12 {
        trace.push((format!("sci-{u}"), "alien".to_string()));
        trace.push((format!("sci-{u}"), "dune".to_string()));
    }
    trace.push(("newbie".to_string(), "alien".to_string()));
    trace
}

/// A sharded LRS tier over the wire: events must land on exactly one
/// owning shard each (the tier partitions instead of replicating), and
/// a recommendation read must scatter-gather across shards and still
/// surface the cross-user association.
#[test]
fn sharded_lrs_tier_partitions_and_merges_over_the_wire() {
    const SHARDS: usize = 4;
    let engines: Vec<Arc<ShardEngine>> = (0..SHARDS)
        .map(|_| {
            Arc::new(ShardEngine::with_config(CcoConfig {
                min_llr: 0.5,
                ..CcoConfig::default()
            }))
        })
        .collect();
    let factory: LrsFactory = {
        let engines = engines.clone();
        Arc::new(move |slot| {
            let engine = engines[slot].clone();
            let gauge_src = engine.clone();
            LrsInstance {
                handler: engine,
                shard_gauges: Some(Arc::new(move || gauge_src.gauges()) as ShardGaugeFn),
            }
        })
    };
    let config = ClusterConfig {
        ua_instances: 1,
        ia_instances: 2,
        lrs_instances: SHARDS,
        lrs_sharded: true,
        modulus_bits: 1152,
        seed: 0x54a2_d001,
        ..ClusterConfig::default()
    };
    let mut cluster = LoopbackCluster::launch_with_factory(config, factory).unwrap();
    assert!(cluster.wait_ready(Duration::from_secs(10)));
    let mut client = cluster.client();

    let trace = sharded_trace();
    for (user, item) in &trace {
        let env = client.post(user, item, Some(4.0)).unwrap();
        cluster.send_post(&env, budget()).unwrap();
    }

    // Partitioning: every event landed on exactly one shard, and each
    // user's records live on exactly one shard — per-shard user counts
    // sum to the distinct-user total with no double counting.
    let total_events: u64 = engines.iter().map(|e| e.gauges().events).sum();
    assert_eq!(total_events, trace.len() as u64, "events must not fan out");
    let total_users: u64 = engines.iter().map(|e| e.num_users()).sum();
    assert_eq!(total_users, 25, "each user must live on exactly one shard");
    let populated = engines.iter().filter(|e| e.num_users() > 0).count();
    assert!(
        populated >= 2,
        "pseudonym hashing must spread 25 users past one shard (got {populated})"
    );

    // The read scatter-gathers and still finds the association, even
    // though no single shard holds the whole taste cluster.
    let (env, ticket) = client.get("newbie").unwrap();
    let encrypted = cluster.send_get(&env, budget()).unwrap();
    let items = client.open_response(&ticket, &encrypted).unwrap();
    assert!(
        items.contains(&"dune".to_string()),
        "scatter-gather must surface the cross-shard association: {items:?}"
    );
    // A user with no history on any shard gets an empty list.
    let stranger = recommend(&cluster, &mut client, "stranger").unwrap();
    assert!(stranger.is_empty(), "{stranger:?}");

    // The shared router counted every routed exchange, per shard.
    let router = cluster
        .shard_router()
        .expect("sharded cluster has a router");
    let counts = router.route_counts();
    assert_eq!(counts.len(), SHARDS);
    assert!(
        counts.iter().sum::<u64>() > trace.len() as u64,
        "route aggregates must cover posts and the get: {counts:?}"
    );
    cluster.shutdown();
}

/// "Unsharded = a ring of one": the IA's owner-history + scatter-score
/// read over a one-shard tier answers every user exactly as the plain
/// `/queries` read of an unsharded tier does, before and after `sync()`.
/// Every user has at most `HISTORY_LIMIT` events, so the owner shard's
/// history is the user's whole history.
#[test]
fn one_shard_ring_answers_like_the_unsharded_tier() {
    const USERS: usize = 24;
    // Three taste clusters of eight items; each user posts six of its
    // cluster's, starting at a user-dependent offset.
    let mut trace = Vec::new();
    for k in 0..6 {
        for u in 0..USERS {
            trace.push((
                format!("user-{u:02}"),
                format!("g{}-{}", u % 3, (u + k) % 8),
            ));
        }
    }
    assert!(trace.len() / USERS <= HISTORY_LIMIT);
    let boot = |sharded: bool| {
        let engine = Arc::new(ShardEngine::new());
        let config = ClusterConfig {
            lrs_instances: 1,
            lrs_sharded: sharded,
            modulus_bits: 1152,
            seed: 0x54a2_d003,
            ..ClusterConfig::default()
        };
        let mut cluster = launch(config, engine.clone());
        let mut client = cluster.client();
        for (user, item) in &trace {
            post(&cluster, &mut client, user, item, None).unwrap();
        }
        (cluster, client, engine)
    };
    let (mut sharded, mut sharded_client, sharded_engine) = boot(true);
    let (mut plain, mut plain_client, plain_engine) = boot(false);
    assert!(sharded.shard_router().is_some() && plain.shard_router().is_none());

    let mut nonempty = 0usize;
    for synced in [false, true] {
        if synced {
            sharded_engine.sync();
            plain_engine.sync();
        }
        for u in 0..USERS {
            let user = format!("user-{u:02}");
            let a = recommend(&sharded, &mut sharded_client, &user).unwrap();
            let b = recommend(&plain, &mut plain_client, &user).unwrap();
            assert_eq!(a, b, "{user} (synced: {synced}) diverged");
            nonempty += usize::from(!a.is_empty());
        }
    }
    assert!(nonempty > 0, "comparison would be vacuous");
    sharded.shutdown();
    plain.shutdown();
}

/// The shard-kill drill: killing one durable shard mid-run must recover
/// *only* that shard — the supervisor rebuilds it from its own sealed
/// store, `replace_backend` readmits it under its old slot, and sibling
/// shards keep their live in-memory state untouched (no re-keying, no
/// replay). Answers before and after the kill are byte-identical.
#[test]
fn supervised_shard_kill_recovers_only_that_shard() {
    const SHARDS: usize = 3;
    let dir = TempDir::new("wire-shard-recovery");
    let sealing = SealingKey::generate(&mut SecureRng::from_seed(0x51ab));
    let durable_config = DurableConfig {
        snapshot_every: 4, // snapshots AND a WAL tail at kill time
        ..DurableConfig::default()
    };

    // Per-slot memoized boot factory: each slot opens its own store
    // subdirectory, and `opens` counts how many times each partition was
    // actually (re)built from disk.
    let memos: Arc<Vec<Mutex<Weak<DurableShard>>>> =
        Arc::new((0..SHARDS).map(|_| Mutex::new(Weak::new())).collect());
    let opens: Arc<Vec<AtomicU64>> = Arc::new((0..SHARDS).map(|_| AtomicU64::new(0)).collect());
    let factory: LrsFactory = {
        let memos = memos.clone();
        let opens = opens.clone();
        let root = dir.path().to_path_buf();
        let sealing = sealing.clone();
        Arc::new(move |slot| {
            let mut weak = memos[slot].lock().unwrap();
            let shard = match weak.upgrade() {
                Some(live) => live,
                None => {
                    opens[slot].fetch_add(1, Ordering::Relaxed);
                    let shard = Arc::new(
                        DurableShard::open_with_cco(
                            &root.join(format!("shard-{slot}")),
                            &sealing,
                            durable_config,
                            CcoConfig {
                                min_llr: 0.5,
                                ..CcoConfig::default()
                            },
                        )
                        .expect("shard recovery must succeed"),
                    );
                    *weak = Arc::downgrade(&shard);
                    shard
                }
            };
            // The gauge source must hold a *weak* reference: the metrics
            // hub outlives kills, and a strong handle there would keep a
            // dead shard's state alive and mask the disk-recovery path.
            let gauge_src = Arc::downgrade(&shard);
            LrsInstance {
                handler: shard,
                shard_gauges: Some(Arc::new(move || {
                    gauge_src.upgrade().map(|s| s.gauges()).unwrap_or_default()
                }) as ShardGaugeFn),
            }
        })
    };

    let config = ClusterConfig {
        ua_instances: 1,
        ia_instances: 1,
        lrs_instances: SHARDS,
        lrs_sharded: true,
        modulus_bits: 1152,
        supervisor: true,
        seed: 0x54a2_d002,
        ..ClusterConfig::default()
    };
    let mut cluster = LoopbackCluster::launch_with_factory(config, factory).unwrap();
    assert!(cluster.wait_ready(Duration::from_secs(10)));
    let mut client = cluster.client();

    for (user, item) in &sharded_trace() {
        let env = client.post(user, item, Some(4.0)).unwrap();
        cluster.send_post(&env, budget()).unwrap();
    }

    let recommend = |cluster: &LoopbackCluster, client: &mut pprox::core::UserClient| {
        let (env, ticket) = client.get("newbie").unwrap();
        let encrypted = cluster.send_get(&env, budget()).expect("get failed");
        client.open_response(&ticket, &encrypted).unwrap()
    };
    let before = recommend(&cluster, &mut client);
    assert!(
        !before.is_empty(),
        "sharded tier must recommend before the kill"
    );

    // Pin every shard's current allocation, then kill the busiest one
    // (guaranteed to hold real state under the fixed seed).
    let shards_before: Vec<Arc<DurableShard>> = memos
        .iter()
        .map(|m| m.lock().unwrap().upgrade().expect("shard alive pre-kill"))
        .collect();
    let victim = shards_before
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| s.gauges().events)
        .map(|(i, _)| i)
        .expect("at least one shard");
    let victim_events = shards_before[victim].gauges().events;
    assert!(
        victim_events > 0,
        "victim must hold state for the drill to bite"
    );
    let victim_weak = Arc::downgrade(&shards_before[victim]);
    drop(shards_before[victim].clone()); // no hidden strong handles below
    let siblings: Vec<(usize, Arc<DurableShard>)> = shards_before
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != victim)
        .map(|(i, s)| (i, s.clone()))
        .collect();
    drop(shards_before);

    cluster.kill_lrs(victim);
    assert!(
        victim_weak.upgrade().is_none(),
        "the kill must drop the victim's in-memory state"
    );
    assert!(
        cluster.wait_ready(Duration::from_secs(20)),
        "supervisor must bring the shard back"
    );
    assert!(cluster.respawns() >= 1);

    // Only the victim was rebuilt — and it came from disk, not memory.
    for (slot, opened) in opens.iter().enumerate() {
        let expected = if slot == victim { 2 } else { 1 };
        assert_eq!(
            opened.load(Ordering::Relaxed),
            expected,
            "slot {slot} rebuilt the wrong number of times"
        );
    }
    let revived = memos[victim]
        .lock()
        .unwrap()
        .upgrade()
        .expect("respawned shard must be live");
    let stats = revived.recovery();
    assert!(
        !stats.cold_start,
        "recovery must unseal the existing shard store"
    );
    assert_eq!(
        (stats.snapshot_events + stats.replayed) as u64,
        victim_events,
        "snapshot + WAL replay must restore exactly this shard's events"
    );

    // Siblings were never touched: same allocations, same state.
    for (slot, pre) in &siblings {
        let now = memos[*slot]
            .lock()
            .unwrap()
            .upgrade()
            .expect("sibling shard must still be live");
        assert!(
            Arc::ptr_eq(pre, &now),
            "sibling shard {slot} was rebuilt by an unrelated kill"
        );
    }

    // Readmission under the old slot id: routing is unchanged, so the
    // same query returns byte-identical recommendations.
    let after = recommend(&cluster, &mut client);
    assert_eq!(after, before, "readmitted shard must answer identically");

    // And the tier keeps accepting writes.
    let env = client.post("sci-0", "contact", Some(5.0)).unwrap();
    cluster.send_post(&env, budget()).unwrap();
    cluster.shutdown();
}
