//! Failure injection: the proxy degrades cleanly when the LRS misbehaves.
//!
//! Covers the full failure spectrum of the fault-tolerance layer, on the
//! chain that serves (UA → IA → LRS over loopback TCP): error statuses
//! (retried, then surfaced typed), garbage bodies (rejected), hangs
//! (bounded by the deadline budget), flapping backends (circuit breaker
//! opens, sheds, and recovers), enclave crashes (supervised respawn with
//! re-provisioning), and a randomized everything-at-once stress schedule.
//! The retry drills count wire attempts: a call makes at most
//! `1 + max_retries` of them on a balancer's ring and on the IA's LRS
//! exchange, whatever the ring size, and a retry reaches an instance
//! readmitted to the ring meanwhile.

mod common;

use common::{budget, concurrently, launch, recommend, wait_until};
use pprox::core::ia::{IaOptions, IaState};
use pprox::core::keys::{KeyProvisioner, IA_CODE_IDENTITY};
use pprox::core::message::{LayerEnvelope, Op};
use pprox::core::resilience::{BreakerState, CircuitBreaker, Deadline, ResilienceConfig};
use pprox::core::telemetry::Telemetry;
use pprox::core::{PProxError, UserClient};
use pprox::crypto::rng::SecureRng;
use pprox::lrs::api::{HttpRequest, HttpResponse};
use pprox::lrs::chaos::{ChaosEntry, ChaosLrs, ChaosSchedule, Fault};
use pprox::lrs::shard::ShardEngine;
use pprox::lrs::stub::StubLrs;
use pprox::lrs::RestHandler;
use pprox::scenario::test_seed;
use pprox::sgx::{Measurement, Platform};
use pprox::wire::services::IaWireService;
use pprox::wire::{
    ClientConfig, ClusterConfig, FrameHandler, LoopbackCluster, NodeMetrics, PooledClient,
    ServerConfig, SocketBalancer, WireError, WireServer, WireStatus,
};
use proptest::prelude::*;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// One UA, one IA, one LRS front-end over `lrs`; no shuffling.
fn chain_config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        ua_instances: 1,
        ia_instances: 1,
        seed,
        ..ClusterConfig::default()
    }
}

fn post(cluster: &LoopbackCluster, client: &mut UserClient, user: &str) -> Result<(), PProxError> {
    common::post(cluster, client, user, "item", None)
}

/// A backend answering every request `Ok` (echo) or `busy`, counting
/// the requests that reach it.
struct Counting {
    hits: Arc<AtomicUsize>,
    busy: bool,
}

impl FrameHandler for Counting {
    fn handle(&self, payload: Vec<u8>, _deadline: Deadline) -> Result<Vec<u8>, WireStatus> {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if self.busy {
            Err(WireStatus::Busy)
        } else {
            Ok(payload)
        }
    }
}

/// `n` servers sharing one hit counter.
fn counting_servers(n: usize, busy: bool) -> (Vec<WireServer>, Arc<AtomicUsize>) {
    let hits = Arc::new(AtomicUsize::new(0));
    let servers = (0..n)
        .map(|_| {
            let handler = Counting {
                hits: hits.clone(),
                busy,
            };
            WireServer::spawn(Arc::new(handler), ServerConfig::default()).unwrap()
        })
        .collect();
    (servers, hits)
}

fn addrs(servers: &[WireServer]) -> Vec<SocketAddr> {
    servers.iter().map(WireServer::local_addr).collect()
}

/// An address nothing listens on: connecting to it is refused.
fn closed_port() -> SocketAddr {
    TcpListener::bind(("127.0.0.1", 0))
        .unwrap()
        .local_addr()
        .unwrap()
}

#[test]
fn a_call_makes_one_plus_max_retries_attempts_whatever_the_ring_size() {
    let config = ClientConfig::default();
    let attempts = 1 + config.max_retries as usize;
    for n in [1, 4] {
        let (servers, hits) = counting_servers(n, true);
        let ring = SocketBalancer::new(&addrs(&servers), config.clone());
        let outcome = ring.call(b"x", budget());
        assert_eq!(outcome, Err(WireError::Remote(WireStatus::Busy)));
        assert_eq!(hits.load(Ordering::Relaxed), attempts, "{n} backends");
        assert_eq!(ring.client_stats().retries, u64::from(config.max_retries));
    }
    // No retries: a call that starts on a dead slot fails there, without
    // trying the live one.
    let (live, hits) = counting_servers(1, true);
    let ring = SocketBalancer::new(
        &[closed_port(), live[0].local_addr()],
        ClientConfig {
            max_retries: 0,
            ..ClientConfig::default()
        },
    );
    let outcome = ring.call(b"x", budget());
    assert!(matches!(outcome, Err(WireError::Io { .. })), "{outcome:?}");
    assert_eq!(hits.load(Ordering::Relaxed), 0);
}

#[test]
fn a_retry_reaches_an_instance_readmitted_meanwhile() {
    let (servers, hits) = counting_servers(2, false);
    let pause = Duration::from_millis(200);
    let ring = SocketBalancer::new(
        &[servers[0].local_addr(), closed_port()],
        ClientConfig {
            retry_base: pause,
            retry_cap: pause,
            ..ClientConfig::default()
        },
    );
    let (tx, rx) = mpsc::channel();
    ring.submit_to(1, Arc::from(&b"pinned"[..]), budget(), move |result| {
        let _ = tx.send(result);
    });
    // The first attempt's connect was refused before `submit_to`
    // returned; its retry waits out the pause, and finds slot 1 readmitted.
    ring.replace_backend(1, servers[1].local_addr());
    let outcome = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(outcome, Ok(b"pinned".to_vec()));
    assert_eq!(hits.load(Ordering::Relaxed), 1);
}

/// An IA node with encryption off over an LRS ring of `lrs`, served on a
/// socket of its own, with its breaker and the hub that scrapes its ring.
fn ia_node(
    platform: &Platform,
    provisioner: &KeyProvisioner,
    lrs: &[SocketAddr],
    resilience: &ResilienceConfig,
) -> (WireServer, Arc<CircuitBreaker>, NodeMetrics) {
    let enclave = platform.load_enclave::<IaState>(IA_CODE_IDENTITY);
    provisioner.provision_ia(platform, &enclave).unwrap();
    // As the cluster's rings do: the retry knobs are the chain's policy.
    let ring = Arc::new(SocketBalancer::new(
        lrs,
        ClientConfig {
            max_retries: resilience.max_retries,
            retry_base: resilience.retry_base,
            retry_cap: resilience.retry_cap,
            ..ClientConfig::default()
        },
    ));
    let hub = NodeMetrics::new("ia", 0);
    hub.attach_uplink(ring.clone());
    let options = IaOptions {
        encryption: false,
        item_pseudonymization: false,
    };
    let telemetry = Arc::new(Telemetry::new());
    let service = IaWireService::new(enclave, ring, None, options, resilience.clone(), telemetry);
    let breaker = service.breaker();
    let server = WireServer::spawn(Arc::new(service), ServerConfig::default()).unwrap();
    (server, breaker, hub)
}

#[test]
fn an_lrs_exchange_makes_one_plus_max_retries_attempts() {
    let mut rng = SecureRng::from_seed(26);
    let platform = Platform::new(&mut rng);
    let provisioner = KeyProvisioner::generate(768, &mut rng);
    let resilience = ResilienceConfig {
        // Opens on the exchange's last failure if, and only if, each
        // attempt records exactly one.
        breaker_failure_threshold: 3,
        ..ResilienceConfig::default()
    };
    let attempts = 1 + resilience.max_retries as usize;
    let post = LayerEnvelope {
        op: Op::Post,
        user_pseudonym: b"u".to_vec(),
        aux: br#"{"i":"film"}"#.to_vec(),
    }
    .to_frame()
    .unwrap();
    for n in [1, 4] {
        for busy in [true, false] {
            let case = format!(
                "{n} LRS slots that {}",
                if busy { "shed" } else { "refuse" }
            );
            let (servers, hits) = counting_servers(if busy { n } else { 0 }, true);
            let lrs: Vec<SocketAddr> = if busy {
                addrs(&servers)
            } else {
                (0..n).map(|_| closed_port()).collect()
            };
            let (ia, breaker, hub) = ia_node(&platform, &provisioner, &lrs, &resilience);
            let client = PooledClient::new(
                ia.local_addr(),
                ClientConfig {
                    max_retries: 0,
                    ..ClientConfig::default()
                },
            );
            let outcome = client.call(&post, budget());
            assert_eq!(
                outcome,
                Err(WireError::Remote(WireStatus::Unavailable)),
                "{case}"
            );
            if busy {
                assert_eq!(hits.load(Ordering::Relaxed), attempts, "{case}");
            }
            let scrape = hub.snapshot_json();
            let retries = scrape.get("client").and_then(|c| c.get("retries"));
            assert_eq!(
                retries.and_then(|r| r.as_u64()),
                Some(resilience.max_retries.into()),
                "{case}"
            );
            assert_eq!(breaker.times_opened(), 1, "{case}");
            assert_eq!(breaker.rejected(), 0, "{case}");
        }
    }
}

#[test]
fn lrs_errors_surface_as_typed_errors() {
    // Every LRS answer is a 503: the IA's exchange gives up after its
    // attempts, and both calls come back as a typed error, not a hang.
    let chaos = Arc::new(ChaosLrs::new(
        Arc::new(StubLrs::new()),
        1.0,
        Fault::ErrorStatus,
        1,
    ));
    let mut cluster = launch(chain_config(1), chaos.clone());
    let mut client = cluster.client();
    assert_eq!(
        post(&cluster, &mut client, "u"),
        Err(PProxError::Unavailable)
    );
    assert_eq!(
        recommend(&cluster, &mut client, "u"),
        Err(PProxError::Unavailable)
    );
    assert!(chaos.injected() > 0 && chaos.served() == 0);
    cluster.shutdown();
}

#[test]
fn garbage_lrs_bodies_are_rejected_not_propagated() {
    let chaos = Arc::new(ChaosLrs::new(
        Arc::new(StubLrs::new()),
        1.0,
        Fault::GarbageBody,
        2,
    ));
    let mut cluster = launch(chain_config(2), chaos);
    let mut client = cluster.client();
    assert_eq!(
        recommend(&cluster, &mut client, "u"),
        Err(PProxError::MalformedMessage)
    );
    cluster.shutdown();
}

#[test]
fn pipeline_survives_partial_lrs_failures() {
    // 30% of LRS calls fail; every request still resolves (Ok or typed
    // Err) and nothing hangs. With retries (default: 2) most transient
    // 503s are absorbed: a request only fails outright after three
    // straight faulted attempts. The breaker is parked out of the way so
    // this test isolates retry behavior (a fault rate this high would
    // otherwise legitimately trip it and shed the queue —
    // flapping_lrs_trips_breaker_and_recovers covers that path).
    let seed = test_seed(3);
    let mut config = chain_config(seed);
    config.resilience.breaker_failure_threshold = u32::MAX;
    let chaos = Arc::new(ChaosLrs::new(
        Arc::new(StubLrs::new()),
        0.3,
        Fault::ErrorStatus,
        seed,
    ));
    let mut cluster = launch(config, chaos.clone());
    let mut clients: Vec<_> = (0..4).map(|_| cluster.client()).collect();
    let posts = 120;
    let results = concurrently(&mut clients, posts, |client, i| {
        post(&cluster, client, &format!("u{i}"))
    });
    let ok = results.iter().filter(|r| r.is_ok()).count();
    for result in &results {
        // Three straight 503s: the IA answers `failed`, not retryable.
        assert!(
            matches!(result, Ok(()) | Err(PProxError::Unavailable)),
            "unexpected outcome: {result:?}"
        );
    }
    assert!(
        5 * ok >= 4 * posts,
        "retries should absorb 80% of 30% transient faults: only {ok}/{posts} ok"
    );
    let shed = cluster.ia_breaker(0).rejected();
    cluster.shutdown();

    // Retries mean more LRS attempts than requests; every attempt is
    // accounted for as injected or served.
    assert!(chaos.injected() + chaos.served() >= (posts as u64 - shed));
}

/// A stub LRS that answers 503 while `down` is set.
struct Switchable {
    down: AtomicBool,
    stub: StubLrs,
}

impl RestHandler for Switchable {
    fn handle(&self, request: &HttpRequest) -> HttpResponse {
        if self.down.load(Ordering::Relaxed) {
            HttpResponse::error(503, "down")
        } else {
            self.stub.handle(request)
        }
    }
}

#[test]
fn failed_gets_release_pending_keys() {
    // A failing LRS must not exhaust the IA's EPC budget: pending k_u
    // entries for failed gets accumulate (50 × (8 + 32 + 48) bytes ≈
    // 4.4 KiB), far below the 4 MiB default, so once the LRS is back the
    // same enclave serves again.
    let lrs = Arc::new(Switchable {
        down: AtomicBool::new(true),
        stub: StubLrs::new(),
    });
    let mut config = chain_config(4);
    config.resilience.max_retries = 0;
    config.resilience.breaker_failure_threshold = u32::MAX;
    let mut cluster = launch(config, lrs.clone());
    let mut client = cluster.client();
    for _ in 0..50 {
        assert_eq!(
            recommend(&cluster, &mut client, "u"),
            Err(PProxError::Unavailable)
        );
    }
    lrs.down.store(false, Ordering::Relaxed);
    assert!(!recommend(&cluster, &mut client, "u").unwrap().is_empty());
    cluster.shutdown();
}

#[test]
fn hung_lrs_resolves_with_deadline_within_twice_budget() {
    // Acceptance: every get against a Hang-mode LRS resolves with
    // PProxError::Deadline within 2× the request's budget.
    let deadline = Duration::from_millis(400);
    let mut config = chain_config(6);
    config.server.request_budget = deadline;
    config.resilience.lrs_timeout = Duration::from_millis(100);
    config.resilience.max_retries = 1;
    // Park the breaker: repeated timeouts would otherwise trip it and
    // shed the later gets; this test isolates the deadline.
    config.resilience.breaker_failure_threshold = u32::MAX;
    let chaos = Arc::new(ChaosLrs::new(Arc::new(StubLrs::new()), 1.0, Fault::Hang, 6));
    let mut cluster = launch(config, chaos.clone());
    let mut client = cluster.client();
    for i in 0..6 {
        let (env, _ticket) = client.get(&format!("victim-{i}")).unwrap();
        let started = Instant::now();
        let outcome = cluster.send_get(&env, Deadline::starting_now(deadline));
        let elapsed = started.elapsed();
        assert!(
            matches!(outcome, Err(PProxError::Deadline)),
            "get {i}: expected Deadline, got {outcome:?}"
        );
        assert!(
            elapsed <= 2 * deadline,
            "get {i} resolved in {elapsed:?}, budget was {deadline:?}"
        );
        // Both attempts are still parked in the LRS front-end's two
        // workers: unblock them, or the next get's attempts queue behind
        // them and the shutdown waits out the hang's safety cap.
        chaos.release_hangs();
    }
    cluster.shutdown();
}

#[test]
fn flapping_lrs_trips_breaker_and_recovers() {
    // Acceptance: under Flap, the breaker opens (almost no requests reach
    // the LRS while open) and recovers to >95% success within one
    // half-open probe cycle once the backend is back up.
    let mut config = chain_config(7);
    config.resilience.lrs_timeout = Duration::from_millis(200);
    config.resilience.max_retries = 0; // one attempt per request, at every hop
    config.resilience.breaker_failure_threshold = 5;
    config.resilience.breaker_open_for = Duration::from_millis(100);
    config.resilience.breaker_half_open_probes = 2;
    let down_for = Duration::from_millis(900);
    let chaos = Arc::new(ChaosLrs::with_schedule(
        Arc::new(StubLrs::new()),
        ChaosSchedule::constant(
            Fault::Flap {
                down_for,
                up_for: Duration::from_secs(60),
            },
            1.0,
        ),
        7,
    ));
    let flap_started = Instant::now();
    let mut cluster = launch(config, chaos.clone());
    let mut client = cluster.client();
    let breaker = cluster.ia_breaker(0);

    // Phase 1 (backend down): drive failures until the breaker trips.
    let mut i = 0;
    while breaker.state() != BreakerState::Open {
        assert!(i < 50, "breaker should open within a few failures");
        let _ = post(&cluster, &mut client, &format!("u{i}"));
        i += 1;
    }
    assert!(breaker.times_opened() >= 1);

    // Phase 2 (still down, breaker open): requests are shed without
    // reaching the LRS. Fewer than 5% of these attempts may leak through
    // (half-open probes).
    let attempts_before = chaos.injected() + chaos.served();
    let shed_batch = 60;
    for j in 0..shed_batch {
        let r = post(&cluster, &mut client, &format!("u{}", 1000 + j));
        assert!(r.is_err(), "backend is down; no request can succeed");
    }
    let leaked = (chaos.injected() + chaos.served()) - attempts_before;
    assert!(
        (leaked as f64) < 0.05 * shed_batch as f64,
        "breaker open: {leaked}/{shed_batch} requests reached the LRS"
    );

    // Phase 3: wait out the outage, then the breaker's open window.
    let outage_left = down_for.saturating_sub(flap_started.elapsed()) + Duration::from_millis(150);
    std::thread::sleep(outage_left);

    // Recovery: within one half-open probe cycle the breaker closes and
    // traffic succeeds. The first couple of requests may be probes or
    // races; measure success over the next batch.
    let mut recovered_at = None;
    for j in 0..50 {
        if post(&cluster, &mut client, &format!("u{}", 2000 + j)).is_ok()
            && breaker.state() == BreakerState::Closed
        {
            recovered_at = Some(j);
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let recovered_at = recovered_at.expect("breaker never closed after recovery");
    // One probe cycle = breaker_half_open_probes successful probes; allow
    // a little slack for open-window re-entry.
    assert!(
        recovered_at <= 10,
        "took {recovered_at} requests to close the breaker"
    );
    let batch = 40;
    let ok = (0..batch)
        .filter(|j| post(&cluster, &mut client, &format!("u{}", 3000 + j)).is_ok())
        .count();
    assert!(
        ok as f64 > 0.95 * batch as f64,
        "after recovery only {ok}/{batch} succeeded"
    );
    cluster.shutdown();
}

#[test]
fn enclave_crash_mid_run_reprovisions_and_serves() {
    // Acceptance: crash injection on the IA layer. A crashed enclave
    // cannot be revived, so its node counts as dead: the supervisor
    // respawns it with a fresh enclave, re-provisioned through
    // attestation, and the chain keeps serving — under the same
    // pseudonyms, so what users posted before the crash still counts.
    let engine = Arc::new(ShardEngine::new());
    let config = ClusterConfig {
        ia_instances: 2,
        supervisor: true,
        ..chain_config(8)
    };
    let mut cluster = launch(config, engine.clone());
    let mut client = cluster.client();
    // Two taste clusters, and one film sci-0 has not seen.
    let trace = (0..6)
        .flat_map(|u| [(format!("sci-{u}"), "alien"), (format!("sci-{u}"), "dune")])
        .chain((0..6).map(|u| (format!("rom-{u}"), "amelie")))
        .chain([("sci-1".to_string(), "contact")]);
    for (user, item) in trace {
        let env = client.post(&user, item, None).unwrap();
        cluster.send_post(&env, budget()).unwrap();
    }
    let recommend = |client: &mut UserClient| {
        let (env, ticket) = client.get("sci-0")?;
        let list = cluster.send_get(&env, budget())?;
        client.open_response(&ticket, &list)
    };
    let before = recommend(&mut client).expect("pre-crash get failed");
    assert!(before.contains(&"contact".to_string()), "{before:?}");

    let killed = cluster
        .platform()
        .crash_layer(Measurement::of_code(IA_CODE_IDENTITY));
    assert_eq!(killed, 2, "crash injection must hit both live IA enclaves");
    wait_until("both IA nodes are respawned", || {
        cluster.respawns() >= killed as u64
    });
    assert!(cluster.wait_ready(Duration::from_secs(10)));

    // Every get after the respawn succeeds, under the same mapping.
    for i in 0..30 {
        let after = recommend(&mut client).unwrap_or_else(|e| panic!("post-crash get {i}: {e:?}"));
        assert_eq!(after, before, "the pseudonym mapping must survive");
    }
    assert!(cluster.respawns() >= 1);
    assert_eq!(cluster.platform().crash_count(), killed as u64);
    cluster.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Stress: a randomized chaos schedule (~30% error statuses, latency
    /// spikes, garbage bodies) plus one mid-run IA-layer crash. Every
    /// request must resolve — Ok or a *typed* error — within its deadline
    /// budget, and the chain must stay serviceable afterwards.
    #[test]
    fn randomized_chaos_every_request_resolves(seed in 0u64..1_000) {
        // PPROX_TEST_SEED pins the schedule for replay; otherwise the
        // proptest-drawn seed is used (and reprinted by the banner).
        let seed = test_seed(seed);
        let deadline = Duration::from_secs(2);
        let mut config = chain_config(seed);
        config.supervisor = true;
        config.server.request_budget = deadline;
        config.resilience.lrs_timeout = Duration::from_millis(200);
        // Schedule derived from the seed: error rate 25–35%, latency
        // spikes of up to ~40 ms on 15% of calls, garbage on 5%.
        let error_rate = 0.25 + (seed % 11) as f64 * 0.01;
        let spike_max = Duration::from_millis(10 + (seed % 4) * 10);
        let schedule = ChaosSchedule::none()
            .with(ChaosEntry::always(Fault::ErrorStatus, error_rate))
            .with(ChaosEntry::always(
                Fault::Latency { min: Duration::from_millis(1), max: spike_max },
                0.15,
            ))
            .with(ChaosEntry::always(Fault::GarbageBody, 0.05));
        let chaos = Arc::new(ChaosLrs::with_schedule(
            Arc::new(StubLrs::new()),
            schedule,
            seed,
        ));
        let mut cluster = launch(config, chaos);
        let mut clients: Vec<_> = (0..4).map(|_| cluster.client()).collect();

        // Four clients share 60 requests; whoever takes the 30th first
        // crashes the IA enclave, with the others' requests in flight.
        let total = 60;
        let started = AtomicUsize::new(0);
        let outcomes = concurrently(&mut clients, total, |client, i| {
            if started.fetch_add(1, Ordering::Relaxed) == total / 2 {
                let killed = cluster
                    .platform()
                    .crash_layer(Measurement::of_code(IA_CODE_IDENTITY));
                assert!(killed >= 1);
            }
            let began = Instant::now();
            let budget = Deadline::starting_now(deadline);
            let result = if i % 3 == 0 {
                client
                    .get(&format!("u{i}"))
                    .and_then(|(env, _ticket)| cluster.send_get(&env, budget))
                    .map(|_| ())
            } else {
                client
                    .post(&format!("u{i}"), "item", None)
                    .and_then(|env| cluster.send_post(&env, budget))
            };
            (result, began.elapsed())
        });

        // Every request resolved within its deadline budget (plus
        // scheduling slack) with Ok or a typed error.
        let mut ok = 0usize;
        for (result, elapsed) in outcomes {
            prop_assert!(elapsed <= 2 * deadline, "took {elapsed:?}");
            match result {
                Ok(()) => ok += 1,
                Err(e) => prop_assert!(
                    matches!(
                        e,
                        PProxError::Deadline
                            | PProxError::Unavailable
                            | PProxError::Overloaded
                            | PProxError::MalformedMessage
                    ),
                    "untyped/unexpected error: {e:?}"
                ),
            }
        }
        prop_assert!(ok > 0, "some requests must survive the chaos");

        // The chain is still serviceable after the storm: the crashed
        // node was respawned, and nothing is left holding a permit.
        wait_until("the IA node is respawned", || cluster.respawns() >= 1);
        prop_assert!(cluster.wait_ready(Duration::from_secs(10)));
        wait_until("the UA's gate drains", || cluster.ua_in_flight(0) == 0);
        cluster.shutdown();
    }
}

// ---------------------------------------------------------------------
// Storage faults: `FaultInjector` damages a durable shard's on-disk image
// after it served a request. The request path never sees these — they
// surface at the next recovery, which must either repair (torn tail) or
// refuse with a typed error.
// ---------------------------------------------------------------------

mod storage_faults {
    use pprox::lrs::api::{HttpRequest, RestHandler, EVENTS_PATH, QUERIES_PATH};
    use pprox::lrs::shard::{DurableConfig, DurableShard};
    use pprox::store::{FaultInjector, SealingKey, SecureRng, StorageFault, StoreError, TempDir};

    fn sealing() -> SealingKey {
        SealingKey::generate(&mut SecureRng::from_seed(77))
    }

    fn wal_only() -> DurableConfig {
        DurableConfig {
            snapshot_every: 0,
            ..DurableConfig::default()
        }
    }

    fn post(handler: &dyn RestHandler, user: &str, item: &str) {
        let body = format!(r#"{{"user":"{user}","item":"{item}"}}"#);
        assert!(handler
            .handle(&HttpRequest::post(EVENTS_PATH, body))
            .is_success());
    }

    fn query(handler: &dyn RestHandler, user: &str) -> String {
        let resp = handler.handle(&HttpRequest::post(
            QUERIES_PATH,
            format!(r#"{{"user":"{user}","num":5}}"#),
        ));
        assert!(resp.is_success());
        resp.body
    }

    #[test]
    fn scheduled_torn_writes_recover_with_bounded_loss() {
        let dir = TempDir::new("res-torn");
        let sealing = sealing();
        let lrs = DurableShard::open(dir.path(), &sealing, wal_only()).unwrap();
        // Six clean writes, then the crash: the injector tears the WAL
        // tail after the final request, modeling a kill -9 mid-append.
        for (user, item) in [
            ("bg", "solo"),
            ("u1", "film"),
            ("u1", "sequel"),
            ("u2", "film"),
            ("u2", "sequel"),
            ("u3", "film"),
        ] {
            post(&lrs, user, item);
        }
        // The answer the durable prefix gives, before the torn append.
        let before = query(&lrs, "u3");
        assert!(before.contains("sequel"), "{before}");
        post(&lrs, "u4", "film");
        let report = FaultInjector::new(&lrs.store_dir())
            .inject(StorageFault::TornWrite)
            .unwrap();
        assert!(report.applied, "{}", report.detail);
        drop(lrs);

        let revived = DurableShard::open(dir.path(), &sealing, wal_only()).unwrap();
        let stats = revived.recovery().clone();
        assert!(stats.torn_bytes > 0, "final tear visible at recovery");
        assert_eq!(stats.replayed, 6, "exactly the torn record is lost");
        // The revived instance answers byte-for-byte as the live one did
        // before the append that tore.
        assert_eq!(query(&revived, "u3"), before);
    }

    #[test]
    fn wrong_platform_key_is_refused_and_the_right_one_still_recovers() {
        let dir = TempDir::new("res-wrong-key");
        let sealing = sealing();
        let lrs = DurableShard::open(dir.path(), &sealing, wal_only()).unwrap();
        post(&lrs, "bg", "solo");
        for i in 0..4 {
            post(&lrs, &format!("u{i}"), "film");
            post(&lrs, &format!("u{i}"), "sequel");
        }
        post(&lrs, "probe", "film");
        let before = query(&lrs, "probe");
        assert!(before.contains("sequel"), "{before}");
        drop(lrs);

        // A different platform cannot unseal the DEK: typed refusal, and
        // the failed attempt must not damage the store.
        let foreign = SealingKey::generate(&mut SecureRng::from_seed(78));
        let err = DurableShard::open(dir.path(), &foreign, wal_only()).unwrap_err();
        assert!(matches!(err, StoreError::Seal(_)), "{err}");

        let revived = DurableShard::open(dir.path(), &sealing, wal_only()).unwrap();
        assert_eq!(revived.recovery().replayed, 10);
        assert_eq!(query(&revived, "probe"), before);
    }

    #[test]
    fn scheduled_block_corruption_is_refused_at_recovery() {
        let dir = TempDir::new("res-corrupt");
        let sealing = sealing();
        let lrs = DurableShard::open(dir.path(), &sealing, wal_only()).unwrap();
        post(&lrs, "u1", "film");
        post(&lrs, "u2", "film");
        lrs.snapshot_now().unwrap();

        assert!(lrs
            .handle(&HttpRequest::post(QUERIES_PATH, r#"{"user":"u1"}"#))
            .is_success());
        let report = FaultInjector::new(&lrs.store_dir())
            .inject(StorageFault::CorruptBlock)
            .unwrap();
        assert!(report.applied, "{}", report.detail);
        drop(lrs);

        // Detection, not silent acceptance: the damaged block is named.
        let err = DurableShard::open(dir.path(), &sealing, wal_only()).unwrap_err();
        assert!(matches!(err, StoreError::CorruptBlock { .. }), "{err}");
    }

    #[test]
    fn scheduled_stale_snapshot_is_refused_at_recovery() {
        let dir = TempDir::new("res-stale");
        let sealing = sealing();
        let lrs = DurableShard::open(dir.path(), &sealing, wal_only()).unwrap();
        post(&lrs, "u1", "a");
        lrs.snapshot_now().unwrap();
        post(&lrs, "u2", "b");
        lrs.snapshot_now().unwrap(); // previous manifest becomes .old
        post(&lrs, "u3", "c"); // fresh WAL record past the snapshot

        assert!(lrs
            .handle(&HttpRequest::post(QUERIES_PATH, r#"{"user":"u1"}"#))
            .is_success());
        let report = FaultInjector::new(&lrs.store_dir())
            .inject(StorageFault::StaleSnapshot)
            .unwrap();
        assert!(report.applied, "{}", report.detail);
        drop(lrs);

        let err = DurableShard::open(dir.path(), &sealing, wal_only()).unwrap_err();
        assert!(
            matches!(err, StoreError::StaleSnapshot { .. }),
            "stale manifest must not silently lose events: {err}"
        );
    }
}
