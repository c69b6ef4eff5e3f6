//! Failure injection: the proxy degrades cleanly when the LRS misbehaves.
//!
//! Covers the full failure spectrum of the fault-tolerance layer: error
//! statuses (retried, then surfaced typed), garbage bodies (rejected),
//! hangs (bounded by the deadline budget), flapping backends (circuit
//! breaker opens, sheds, and recovers), enclave crashes (supervised
//! re-provisioning), and a randomized everything-at-once stress schedule.

use pprox::core::config::PProxConfig;
use pprox::core::pipeline::{Completion, PProxPipeline};
use pprox::core::resilience::BreakerState;
use pprox::core::shuffler::ShuffleConfig;
use pprox::core::{PProxDeployment, PProxError};
use pprox::lrs::chaos::{ChaosEntry, ChaosLrs, ChaosSchedule, Fault};
use pprox::lrs::stub::StubLrs;
use pprox::scenario::test_seed;
use pprox::sgx::Measurement;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn test_config() -> PProxConfig {
    PProxConfig {
        shuffle: ShuffleConfig::disabled(),
        modulus_bits: 1152,
        ..PProxConfig::default()
    }
}

/// The IA layer's code identity, for layer-wide crash injection.
const IA_CODE_IDENTITY: &str = "pprox-ia-layer-v1";

#[test]
fn lrs_errors_surface_as_typed_errors() {
    let chaos = Arc::new(ChaosLrs::new(
        Arc::new(StubLrs::new()),
        1.0,
        Fault::ErrorStatus,
        1,
    ));
    let d = PProxDeployment::new(test_config(), chaos, 1).unwrap();
    let mut client = d.client();
    let err = d.post_feedback(&mut client, "u", "i", None).unwrap_err();
    assert!(matches!(err, PProxError::Lrs { status: 503 }));
    let err = d.get_recommendations(&mut client, "u").unwrap_err();
    assert!(matches!(err, PProxError::Lrs { status: 503 }));
}

#[test]
fn garbage_lrs_bodies_are_rejected_not_propagated() {
    let chaos = Arc::new(ChaosLrs::new(
        Arc::new(StubLrs::new()),
        1.0,
        Fault::GarbageBody,
        2,
    ));
    let d = PProxDeployment::new(test_config(), chaos, 2).unwrap();
    let mut client = d.client();
    let err = d.get_recommendations(&mut client, "u").unwrap_err();
    assert!(matches!(err, PProxError::MalformedMessage));
}

#[test]
fn pipeline_survives_partial_lrs_failures() {
    // 30% of LRS calls fail; every submission still completes (Ok or
    // typed Err) and nothing hangs. With retries (default: 2) most
    // transient 503s are absorbed: a request only fails outright after
    // three straight faulted attempts. The breaker is parked out of the
    // way so this test isolates retry behavior (a fault rate this high
    // would otherwise legitimately trip it and shed the queue —
    // flapping_lrs_trips_breaker_and_recovers covers that path).
    let mut config = test_config();
    config.resilience.breaker_failure_threshold = u32::MAX;
    let seed = test_seed(3);
    let chaos = Arc::new(ChaosLrs::new(
        Arc::new(StubLrs::new()),
        0.3,
        Fault::ErrorStatus,
        seed,
    ));
    let p = PProxPipeline::new(config, chaos.clone(), seed, 2).unwrap();
    let mut client = p.client();
    let mut rxs = Vec::new();
    for i in 0..100 {
        let env = client.post(&format!("u{i}"), "item", None).unwrap();
        rxs.push(p.submit(env).unwrap());
    }
    let mut ok = 0;
    let mut failed = 0;
    for rx in rxs {
        match rx.recv_timeout(Duration::from_secs(30)).unwrap() {
            Completion::Post(Ok(())) => ok += 1,
            Completion::Post(Err(PProxError::Lrs { status: 503 } | PProxError::Unavailable)) => {
                failed += 1
            }
            other => panic!("unexpected completion: {other:?}"),
        }
    }
    assert_eq!(ok + failed, 100);
    assert!(
        ok >= 80,
        "retries should absorb most 30% transient faults: only {ok} ok"
    );
    let stats = p.resilience_stats();
    p.shutdown();

    // Retries mean more LRS attempts than requests; every attempt is
    // accounted for as injected or served.
    assert!(chaos.injected() + chaos.served() >= (100 - stats.breaker_rejected));
}

#[test]
fn failed_gets_release_pending_keys() {
    // A failing LRS must not leak EPC budget: pending k_u entries for
    // failed gets are the IA's responsibility. After many failed gets the
    // deployment still serves successful ones (budget not exhausted).
    let chaos = Arc::new(ChaosLrs::new(
        Arc::new(StubLrs::new()),
        1.0,
        Fault::ErrorStatus,
        4,
    ));
    let d = PProxDeployment::new(test_config(), chaos, 4).unwrap();
    let mut client = d.client();
    for _ in 0..50 {
        let _ = d.get_recommendations(&mut client, "u");
    }
    // Pending keys accumulate for failed gets (50 × (8 + 32 + 48) bytes ≈
    // 4.4 KiB), far below the 4 MiB default budget; a healthy LRS behind
    // the same layers still works.
    let healthy = Arc::new(StubLrs::new());
    let d2 = PProxDeployment::new(test_config(), healthy, 5).unwrap();
    let mut c2 = d2.client();
    assert!(d2.get_recommendations(&mut c2, "u").is_ok());
}

#[test]
fn hung_lrs_resolves_with_deadline_within_twice_budget() {
    // Acceptance: a get against a Hang-mode LRS resolves with
    // PProxError::Deadline within 2× the configured deadline.
    let mut config = test_config();
    config.resilience.deadline = Duration::from_millis(400);
    config.resilience.lrs_timeout = Duration::from_millis(100);
    config.resilience.max_retries = 1;
    let chaos = Arc::new(ChaosLrs::new(Arc::new(StubLrs::new()), 1.0, Fault::Hang, 6));
    let p = PProxPipeline::new(config.clone(), chaos.clone(), 6, 2).unwrap();
    let mut client = p.client();
    let (env, _ticket) = client.get("victim").unwrap();
    let started = Instant::now();
    let rx = p.submit(env).unwrap();
    let completion = rx
        .recv_timeout(2 * config.resilience.deadline)
        .expect("hung request must still resolve in bounded time");
    let elapsed = started.elapsed();
    assert!(
        matches!(completion, Completion::Get(Err(PProxError::Deadline))),
        "expected Deadline, got {completion:?}"
    );
    assert!(
        elapsed <= 2 * config.resilience.deadline,
        "resolved in {elapsed:?}, budget was {:?}",
        config.resilience.deadline
    );
    let stats = p.resilience_stats();
    assert!(
        stats.lrs_worker_replacements >= 1,
        "hung pool workers are abandoned and replaced"
    );
    // Unblock the abandoned pool threads before the binary's other tests.
    chaos.release_hangs();
    p.shutdown();
}

#[test]
fn flapping_lrs_trips_breaker_and_recovers() {
    // Acceptance: under Flap, the breaker opens (almost no requests reach
    // the LRS while open) and recovers to >95% success within one
    // half-open probe cycle once the backend is back up.
    let mut config = test_config();
    config.resilience.lrs_timeout = Duration::from_millis(200);
    config.resilience.max_retries = 0; // one attempt per request: clean accounting
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
    let p = PProxPipeline::new(config, chaos.clone(), 7, 2).unwrap();
    let mut client = p.client();

    let send_post = |client: &mut pprox::core::UserClient, i: usize| {
        let env = client.post(&format!("u{i}"), "item", None).unwrap();
        let rx = p.submit(env).unwrap();
        match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            Completion::Post(r) => r,
            other => panic!("unexpected: {other:?}"),
        }
    };

    // Phase 1 (backend down): drive failures until the breaker trips.
    let mut i = 0;
    while p.resilience_stats().breaker_state != BreakerState::Open {
        assert!(i < 50, "breaker should open within a few failures");
        let _ = send_post(&mut client, i);
        i += 1;
    }
    assert!(p.resilience_stats().breaker_times_opened >= 1);

    // Phase 2 (still down, breaker open): requests are shed without
    // reaching the LRS. Fewer than 5% of these attempts may leak through
    // (half-open probes).
    let attempts_before = chaos.injected() + chaos.served();
    let shed_batch = 60;
    for j in 0..shed_batch {
        let r = send_post(&mut client, 1000 + j);
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
        if send_post(&mut client, 2000 + j).is_ok()
            && p.resilience_stats().breaker_state == BreakerState::Closed
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
        .filter(|j| send_post(&mut client, 3000 + j).is_ok())
        .count();
    assert!(
        ok as f64 > 0.95 * batch as f64,
        "after recovery only {ok}/{batch} succeeded"
    );
    p.shutdown();
}

#[test]
fn enclave_crash_mid_run_reprovisions_and_serves() {
    // Acceptance: crash injection on the IA layer; the pipeline detects
    // the dead enclave, re-provisions a replacement through attestation,
    // and keeps serving.
    let p = PProxPipeline::new(test_config(), Arc::new(StubLrs::new()), 8, 2).unwrap();
    let mut client = p.client();
    let env = client.post("warmup", "item", None).unwrap();
    let rx = p.submit(env).unwrap();
    assert!(matches!(
        rx.recv_timeout(Duration::from_secs(10)).unwrap(),
        Completion::Post(Ok(()))
    ));

    let killed = p
        .platform()
        .crash_layer(Measurement::of_code(IA_CODE_IDENTITY));
    assert!(killed >= 1, "crash injection must hit live enclaves");

    let (env, ticket) = client.get("survivor").unwrap();
    let rx = p.submit(env).unwrap();
    match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
        Completion::Get(Ok(list)) => {
            assert!(!client.open_response(&ticket, &list).unwrap().is_empty());
        }
        other => panic!("post-crash request failed: {other:?}"),
    }
    assert!(p.enclave_restarts() >= 1);
    assert_eq!(p.platform().crash_count(), killed as u64);
    p.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Stress: a randomized chaos schedule (~30% error statuses, latency
    /// spikes, garbage bodies) plus one mid-run IA-layer crash. Every
    /// request must resolve — Ok or a *typed* error — within its deadline
    /// budget, and the pipeline must stay serviceable afterwards.
    #[test]
    fn randomized_chaos_every_request_resolves(seed in 0u64..1_000) {
        // PPROX_TEST_SEED pins the schedule for replay; otherwise the
        // proptest-drawn seed is used (and reprinted by the banner).
        let seed = test_seed(seed);
        let mut config = test_config();
        config.resilience.deadline = Duration::from_secs(2);
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
        let p = PProxPipeline::new(config.clone(), chaos, seed, 2).unwrap();
        let mut client = p.client();

        let total = 60;
        let mut rxs = Vec::new();
        for i in 0..total {
            if i == total / 2 {
                // One mid-run enclave crash, with requests in flight.
                let killed = p
                    .platform()
                    .crash_layer(Measurement::of_code(IA_CODE_IDENTITY));
                prop_assert!(killed >= 1);
            }
            if i % 3 == 0 {
                let (env, _t) = client.get(&format!("u{i}")).unwrap();
                rxs.push(p.submit(env).unwrap());
            } else {
                let env = client.post(&format!("u{i}"), "item", None).unwrap();
                rxs.push(p.submit(env).unwrap());
            }
        }

        // Every request resolves within its deadline budget (plus
        // queueing slack for the whole batch) with Ok or a typed error.
        let mut ok = 0usize;
        for rx in rxs {
            let completion = rx
                .recv_timeout(2 * config.resilience.deadline + Duration::from_secs(8))
                .expect("request neither completed nor failed: hang");
            match completion {
                Completion::Post(Ok(())) | Completion::Get(Ok(_)) => ok += 1,
                Completion::Post(Err(e)) | Completion::Get(Err(e)) => {
                    prop_assert!(
                        matches!(
                            e,
                            PProxError::Lrs { .. }
                                | PProxError::Deadline
                                | PProxError::Unavailable
                                | PProxError::Overloaded
                                | PProxError::MalformedMessage
                                | PProxError::UnknownToken
                        ),
                        "untyped/unexpected error: {e:?}"
                    );
                }
            }
        }
        prop_assert!(ok > 0, "some requests must survive the chaos");
        prop_assert!(p.enclave_restarts() >= 1);

        // The pipeline is still serviceable after the storm. The last
        // permit is released by the response server just *after* our recv
        // returns, so give the gate a moment to drain.
        let wait_until = Instant::now() + Duration::from_secs(2);
        while p.resilience_stats().in_flight > 0 && Instant::now() < wait_until {
            std::thread::sleep(Duration::from_millis(5));
        }
        prop_assert_eq!(p.resilience_stats().in_flight, 0);
        p.shutdown();
    }
}

// ---------------------------------------------------------------------
// Storage faults: scheduled damage to the durable store's on-disk image.
// The request path never sees these — they surface at the next recovery,
// which must either repair (torn tail) or refuse with a typed error.
// ---------------------------------------------------------------------

mod storage_faults {
    use super::*;
    use pprox::lrs::api::{HttpRequest, RestHandler, EVENTS_PATH, QUERIES_PATH};
    use pprox::lrs::shard::{DurableConfig, DurableShard};
    use pprox::store::{SealingKey, SecureRng, StoreError, TempDir};

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
        let lrs = Arc::new(DurableShard::open(dir.path(), &sealing, wal_only()).unwrap());
        // Six clean writes, then the crash: the schedule tears the WAL
        // tail on the final request, modeling a kill -9 mid-append. (An
        // inactive far-future window rides along to exercise schedule
        // composition with storage faults.)
        for (user, item) in [
            ("bg", "solo"),
            ("u1", "film"),
            ("u1", "sequel"),
            ("u2", "film"),
            ("u2", "sequel"),
            ("u3", "film"),
        ] {
            post(lrs.as_ref(), user, item);
        }
        // The answer the durable prefix gives, before the torn append.
        let before = query(lrs.as_ref(), "u3");
        assert!(before.contains("sequel"), "{before}");
        let schedule = ChaosSchedule::none()
            .with(ChaosEntry::window(
                Fault::ErrorStatus,
                1.0,
                Duration::from_secs(3600),
                Duration::from_secs(7200),
            ))
            .with(ChaosEntry::always(Fault::TornWrite, 1.0));
        let chaos =
            ChaosLrs::with_schedule(lrs.clone(), schedule, 11).with_store_dir(&lrs.store_dir());
        post(&chaos, "u4", "film");
        assert_eq!(chaos.injected(), 1);
        assert_eq!(chaos.served(), 1, "storage faults never fail the request");
        drop(chaos);
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
        let lrs = Arc::new(DurableShard::open(dir.path(), &sealing, wal_only()).unwrap());
        post(lrs.as_ref(), "u1", "film");
        post(lrs.as_ref(), "u2", "film");
        lrs.snapshot_now().unwrap();

        let schedule = ChaosSchedule::constant(Fault::CorruptBlock, 1.0);
        let chaos =
            ChaosLrs::with_schedule(lrs.clone(), schedule, 13).with_store_dir(&lrs.store_dir());
        assert!(chaos
            .handle(&HttpRequest::post(QUERIES_PATH, r#"{"user":"u1"}"#))
            .is_success());
        assert_eq!(chaos.injected(), 1);
        drop(chaos);
        drop(lrs);

        // Detection, not silent acceptance: the damaged block is named.
        let err = DurableShard::open(dir.path(), &sealing, wal_only()).unwrap_err();
        assert!(matches!(err, StoreError::CorruptBlock { .. }), "{err}");
    }

    #[test]
    fn scheduled_stale_snapshot_is_refused_at_recovery() {
        let dir = TempDir::new("res-stale");
        let sealing = sealing();
        let lrs = Arc::new(DurableShard::open(dir.path(), &sealing, wal_only()).unwrap());
        post(lrs.as_ref(), "u1", "a");
        lrs.snapshot_now().unwrap();
        post(lrs.as_ref(), "u2", "b");
        lrs.snapshot_now().unwrap(); // previous manifest becomes .old
        post(lrs.as_ref(), "u3", "c"); // fresh WAL record past the snapshot

        let schedule = ChaosSchedule::constant(Fault::StaleSnapshot, 1.0);
        let chaos =
            ChaosLrs::with_schedule(lrs.clone(), schedule, 17).with_store_dir(&lrs.store_dir());
        assert!(chaos
            .handle(&HttpRequest::post(QUERIES_PATH, r#"{"user":"u1"}"#))
            .is_success());
        assert_eq!(chaos.injected(), 1);
        drop(chaos);
        drop(lrs);

        let err = DurableShard::open(dir.path(), &sealing, wal_only()).unwrap_err();
        assert!(
            matches!(err, StoreError::StaleSnapshot { .. }),
            "stale manifest must not silently lose events: {err}"
        );
    }
}
