//! Scenario execution: boot a loopback cluster, interpose taps, replay
//! an open-loop schedule against it, and score the traffic-analysis
//! adversary on what the taps saw.
//!
//! One [`run_scenario`] call is one experiment:
//!
//! 1. Launch a [`LoopbackCluster`] with the scenario's topology and
//!    shuffle knobs, linkage auditing on (ground truth), supervisor off
//!    (taps replace ring backends; a supervisor would readmit the real
//!    addresses behind our back).
//! 2. Spawn one [`RecordingTap`] per UA×IA link and reroute every UA's
//!    uplink ring through its taps — the adversary now sits on the
//!    UA→IA boundary of every instance.
//! 3. Pre-encode every request (posts and gets, round-robin across UA
//!    instances) and replay the seeded arrival schedule open-loop from
//!    a dispatcher thread into a worker pool. Workers talk to their
//!    assigned UA directly, so the harness knows each request's true
//!    instance; optional client churn, slow-loris connections, and
//!    injected WAN latency ride on top.
//! 4. Drain, then assemble the adversary's [`WireTrace`] of each edge.
//!    Request edge: arrivals from the workers' send log less the
//!    requests answered `busy` (they never depart), departures from tap
//!    frames joined to the cluster's ground-truth audit by time order.
//!    Response edge: arrivals are the IA's answers reaching the UA
//!    (which an observer of that link pairs with the tapped requests, so
//!    it knows whose they are), departures the replies leaving for the
//!    clients — both instants from the audit log.
//! 5. Run the instance-aware and instance-blind linkage attacks on each,
//!    and the aware one once more on the request edge with every
//!    request's arrival instant written in as a join key (an export
//!    that leaked them), and package a [`ScenarioOutcome`]. The
//!    pressure sampler's scrapes are triaged by the adversary's oracle
//!    scan along the way, every node document of every pass.
//!
//! Determinism: the schedule, request plaintexts, and all seeds derive
//! from `(spec, seed)`. Wall-clock time affects *throughput*, never an
//! assertion — outcomes are judged only against the analytic bounds
//! with sample-size-aware tolerances.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use pprox_attack::scrape_audit::scan_export_for_oracles;
use pprox_attack::wire_audit::{
    wire_linkage_attack, TraceArrival, TraceDeparture, WireAuditConfig, WireAuditOutcome, WireTrace,
};
use pprox_core::resilience::Deadline;
use pprox_core::shuffler::ShuffleConfig;
use pprox_lrs::stub::StubLrs;
use pprox_wire::audit::request_fingerprint;
use pprox_wire::cluster::{ClusterConfig, LoopbackCluster};
use pprox_wire::{
    ClientConfig, ClusterScraper, DeadlineQueue, PooledClient, PressureSample, WireError,
    WireStatus,
};

use crate::schedule::{arrival_times_us, LoadShape};
use crate::tap::{RecordingTap, TapClock, TapDirection};

/// One scenario's full parameterization.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (report key).
    pub name: &'static str,
    /// Offered-load shape.
    pub shape: LoadShape,
    /// Total requests replayed.
    pub requests: usize,
    /// Shuffle buffer size `S`.
    pub shuffle_size: usize,
    /// Shuffle flush timeout, µs.
    pub shuffle_timeout_us: u64,
    /// UA instances `I`.
    pub ua_instances: usize,
    /// IA instances.
    pub ia_instances: usize,
    /// WAN latency injected on every tapped UA→IA frame, µs.
    pub wan_delay_us: u64,
    /// Rebuild every worker's connections after this many requests
    /// (client churn / reconnect storms). `None` disables churn.
    pub churn_every: Option<usize>,
    /// Slow-loris connections held against the UA tier for the whole
    /// run (each trickles one garbage byte every 300 ms).
    pub slow_loris_conns: usize,
    /// Override the UA servers' admission-gate capacity (Busy-shed
    /// abuse scenarios). `None` keeps the default.
    pub max_inflight: Option<usize>,
    /// Void the shuffle permutation (arrival-order release) — the
    /// seeded ablation the audit must *catch*.
    pub order_ablation: bool,
    /// Burst-clustering gap handed to the estimator, µs. Must sit
    /// between the intra-flush frame spread and the inter-flush
    /// interval `S / per_instance_rate`.
    pub batch_gap_us: u64,
}

impl ScenarioSpec {
    /// Whether this scenario is expected to violate the bound: only the
    /// order ablation is.
    pub fn violation_expected(&self) -> bool {
        self.order_ablation
    }
}

/// One window of a run's pressure timeline: a wire scrape of every
/// node, taken while the load ran.
#[derive(Debug, Clone)]
pub struct PressurePoint {
    /// Offset from dispatch start, ms.
    pub at_ms: u64,
    /// Nodes that did not answer this pass (killed or respawning).
    pub unreachable: usize,
    /// Gauges merged across the nodes that answered.
    pub sample: PressureSample,
}

/// Everything one scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The spec that ran.
    pub spec: ScenarioSpec,
    /// Requests that completed successfully.
    pub completed: usize,
    /// Requests that failed (shed, deadline, transport).
    pub failed: usize,
    /// Server-side sheds across the UA tier.
    pub shed: u64,
    /// Run duration, µs (informational).
    pub duration_us: u64,
    /// Mean offered rate, rps (informational).
    pub offered_rps: f64,
    /// What the adversary saw on the request edge (client → UA
    /// arrivals, UA → IA frames), ground truth attached — the trace
    /// `aware` and `blind` scored.
    pub request_trace: WireTrace,
    /// Instance-aware adversary vs the `1/S` curve.
    pub aware: WireAuditOutcome,
    /// Instance-blind adversary vs the `1/(S·I)` curve.
    pub blind: WireAuditOutcome,
    /// The same two adversaries on the response edge (answers in at the
    /// UA → replies out to the clients), aware then blind, both against
    /// `1/S`.
    pub response_edge: [WireAuditOutcome; 2],
    /// The instance-aware adversary on `request_trace` with each
    /// request's arrival instant written in as a join key — what a
    /// metrics export that shipped raw arrival times would hand it.
    /// Must be caught.
    pub unsafe_export: WireAuditOutcome,
    /// Pressure timeline: one wire scrape of every node per ~100 ms
    /// window for the whole run (queue depth, sheds, shuffle occupancy).
    pub pressure: Vec<PressurePoint>,
    /// Node documents of those scrapes run through the adversary's
    /// oracle scan.
    pub documents_scanned: usize,
    /// Fields the scan flagged as linkage oracles across them.
    pub oracle_hits: usize,
}

impl ScenarioOutcome {
    /// Whether the run's verdict matches the spec's expectation: bounds
    /// hold on both edges for normal scenarios, and the ablation is
    /// *caught* on both; in every scenario the leaked arrival instants
    /// are caught and no scraped document carries an oracle.
    pub fn ok(&self) -> bool {
        let [response_aware, response_blind] = &self.response_edge;
        let linkage = if self.spec.violation_expected() {
            !self.aware.score.within() && !response_aware.score.within()
        } else {
            [&self.aware, &self.blind, response_aware, response_blind]
                .iter()
                .all(|edge| edge.score.within())
        };
        linkage && !self.unsafe_export.score.within() && self.oracle_hits == 0
    }
}

/// Effective seed for scenario and resilience tests: honors the
/// `PPROX_TEST_SEED` environment variable and prints the seed in use,
/// so a failing run's banner is enough to replay it exactly:
/// `PPROX_TEST_SEED=<seed> cargo test ...`.
pub fn test_seed(default: u64) -> u64 {
    let seed = std::env::var("PPROX_TEST_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(default);
    eprintln!("scenario seed: {seed} (override with PPROX_TEST_SEED)");
    seed
}

/// Runs one scenario to completion. Panics on harness-level failures
/// (cluster refusing to boot, taps failing to bind) — those are test
/// environment errors, not measurements.
pub fn run_scenario(spec: &ScenarioSpec, seed: u64) -> ScenarioOutcome {
    let mut config = ClusterConfig {
        ua_instances: spec.ua_instances,
        ia_instances: spec.ia_instances,
        lrs_instances: 1,
        supervisor: false,
        linkage_audit: true,
        shuffle_order_ablation: spec.order_ablation,
        shuffle: ShuffleConfig {
            size: spec.shuffle_size,
            timeout_us: spec.shuffle_timeout_us,
        },
        seed: seed ^ 0xc105_7e2d_0000_0001,
        ..ClusterConfig::default()
    };
    if let Some(cap) = spec.max_inflight {
        config.server.max_inflight = cap;
    }
    let mut cluster =
        LoopbackCluster::launch(config, Arc::new(StubLrs::new())).expect("cluster boot");
    assert!(
        cluster.wait_ready(Duration::from_secs(10)),
        "cluster did not come up"
    );

    // The adversary's clock is the cluster's telemetry clock; sharing it
    // lets ground-truth audit events and tap frames be joined by time.
    let telemetry = cluster.telemetry();
    let clock: TapClock = Arc::new(move || telemetry.now_us());

    // One tap per UA×IA link, then reroute each UA's uplink through its
    // row of taps.
    let ia_addrs = cluster.ia_addrs();
    let wan = Duration::from_micros(spec.wan_delay_us);
    let mut taps: Vec<Vec<RecordingTap>> = Vec::with_capacity(spec.ua_instances);
    for ua in 0..spec.ua_instances {
        let row: Vec<RecordingTap> = ia_addrs
            .iter()
            .map(|&ia| RecordingTap::spawn(ia, wan, clock.clone()).expect("tap bind"))
            .collect();
        let tap_addrs: Vec<_> = row.iter().map(RecordingTap::addr).collect();
        cluster.reroute_ua_uplink(ua, &tap_addrs);
        taps.push(row);
    }

    let outcome = drive(spec, seed, &mut cluster, &taps);
    for row in &mut taps {
        for tap in row {
            tap.shutdown();
        }
    }
    cluster.shutdown();
    outcome
}

/// One pre-encoded request: which UA it targets, its wire bytes, and
/// the fingerprint the cluster's audit will log for it.
struct PlannedRequest {
    ua: usize,
    frame: Vec<u8>,
    fp: u64,
}

fn drive(
    spec: &ScenarioSpec,
    seed: u64,
    cluster: &mut LoopbackCluster,
    taps: &[Vec<RecordingTap>],
) -> ScenarioOutcome {
    let telemetry = cluster.telemetry();
    let ua_addrs = cluster.ua_addrs();

    // Pre-encode the whole run: alternating posts and gets over a small
    // user/item population, round-robin across UA instances. Encryption
    // is randomized, so fingerprints are unique per request.
    let mut client = cluster.client();
    let plan: Vec<PlannedRequest> = (0..spec.requests)
        .map(|k| {
            let user = format!("user-{:03}", k % 41);
            let envelope = if k % 3 == 0 {
                client.get(&user).expect("encode get").0
            } else {
                let item = format!("item-{:03}", k % 59);
                client
                    .post(&user, &item, Some((k % 5) as f64))
                    .expect("encode post")
            };
            let frame = envelope.to_frame().expect("frame");
            let fp = request_fingerprint(&frame);
            PlannedRequest {
                ua: k % spec.ua_instances,
                frame,
                fp,
            }
        })
        .collect();
    let schedule = arrival_times_us(&spec.shape, spec.requests, seed);

    // Slow-loris floor: connections that trickle garbage one byte at a
    // time for the whole run. The servers must keep serving around them.
    let loris_stop = Arc::new(AtomicBool::new(false));
    let loris: Vec<_> = (0..spec.slow_loris_conns)
        .map(|i| {
            let addr = ua_addrs[i % ua_addrs.len()];
            let stop = loris_stop.clone();
            std::thread::spawn(move || slow_loris(addr, &stop))
        })
        .collect();

    // Worker pool. Each worker owns one client (one connection) per UA
    // instance (no retries: one request == one wire frame, keeping the
    // trace clean), rebuilt wholesale every `churn_every` requests to
    // model reconnect storms. They all expire calls on one deadline
    // queue, as the backends of one node do, and take the next request
    // from one dispatch channel, whose receiver they share under a lock.
    let timers = Arc::new(DeadlineQueue::new());
    let (tx, rx) = std::sync::mpsc::channel::<usize>();
    let rx = Arc::new(Mutex::new(rx));
    let completed = Arc::new(AtomicUsize::new(0));
    let failed = Arc::new(AtomicUsize::new(0));
    let arrivals: Arc<Mutex<Vec<TraceArrival>>> = Arc::new(Mutex::new(Vec::new()));
    let plan = Arc::new(plan);
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let rx = rx.clone();
            let plan = plan.clone();
            let ua_addrs = ua_addrs.clone();
            let telemetry = telemetry.clone();
            let completed = completed.clone();
            let failed = failed.clone();
            let arrivals = arrivals.clone();
            let churn_every = spec.churn_every;
            let timers = timers.clone();
            let client_seed = seed ^ (w as u64) << 17;
            std::thread::spawn(move || {
                let build = |gen: u64| -> Vec<PooledClient> {
                    ua_addrs
                        .iter()
                        .map(|&a| {
                            PooledClient::with_timers(
                                a,
                                ClientConfig {
                                    max_retries: 0,
                                    seed: client_seed.wrapping_add(gen),
                                    ..ClientConfig::default()
                                },
                                timers.clone(),
                            )
                        })
                        .collect()
                };
                let mut clients = build(0);
                let mut served = 0u64;
                // The lock is let go at the end of the `let`, before
                // the request is sent.
                loop {
                    let Ok(k) = rx.lock().recv() else { break };
                    let req = &plan[k];
                    if let Some(every) = churn_every {
                        if served > 0 && served.is_multiple_of(every as u64) {
                            // Drop every connection and dial fresh —
                            // the reconnect storm.
                            clients = build(served);
                        }
                    }
                    served += 1;
                    let at_us = telemetry.now_us();
                    let deadline = Deadline::starting_now(Duration::from_secs(5));
                    let outcome = clients[req.ua].call(&req.frame, deadline);
                    // A request the UA refused never departs, and a client
                    // edge observer sees that at once (a Control-class
                    // answer, not a Response): all three adversaries of
                    // the request edge drop its arrival.
                    if !matches!(outcome, Err(WireError::Remote(WireStatus::Busy))) {
                        arrivals.lock().push(TraceArrival {
                            request: k,
                            at_us,
                            instance: req.ua as u16,
                            len: req.frame.len(),
                        });
                    }
                    match outcome {
                        Ok(_) => {
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    drop(rx);

    // Pressure sampler: one wire scrape of every node per ~100 ms window
    // while the load runs, so the observability plane is exercised under
    // every load shape and the run yields a pressure timeline. Every node
    // document is triaged by the adversary's oracle scan on the way.
    let scraper = ClusterScraper::new(cluster.scrape_targets());
    let sampler_stop = Arc::new(AtomicBool::new(false));
    let pressure: Arc<Mutex<Vec<PressurePoint>>> = Arc::new(Mutex::new(Vec::new()));
    let sampler = {
        let stop = sampler_stop.clone();
        let pressure = pressure.clone();
        std::thread::spawn(move || {
            let t0 = Instant::now();
            let (mut scanned, mut hits) = (0, 0);
            'run: while !stop.load(Ordering::Acquire) {
                let snap = scraper.scrape();
                for node in &snap.nodes {
                    let found = scan_export_for_oracles(&node.json);
                    if !found.is_empty() {
                        eprintln!("ORACLE in {}: {found:?}", node.name);
                    }
                    hits += found.len();
                }
                scanned += snap.nodes.len();
                pressure.lock().push(PressurePoint {
                    at_ms: t0.elapsed().as_millis() as u64,
                    unreachable: snap.unreachable.len(),
                    sample: snap.pressure(),
                });
                for _ in 0..10 {
                    if stop.load(Ordering::Acquire) {
                        break 'run;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
            (scanned, hits)
        })
    };

    // Open-loop dispatch: replay the schedule against the wall clock,
    // never waiting for responses.
    let started = Instant::now();
    let t0_us = telemetry.now_us();
    for (k, &at) in schedule.iter().enumerate() {
        let target = Duration::from_micros(at);
        let elapsed = started.elapsed();
        if target > elapsed {
            std::thread::sleep(target - elapsed);
        }
        tx.send(k).expect("workers alive");
    }
    drop(tx);
    for w in workers {
        w.join().expect("worker");
    }

    // Let the last buffered requests flush: every UA's admission gate
    // drains to zero once its shuffle buffers are empty.
    let drain_deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let parked: usize = (0..spec.ua_instances)
            .map(|i| cluster.ua_in_flight(i))
            .sum();
        if parked == 0 || Instant::now() > drain_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let duration_us = telemetry.now_us().saturating_sub(t0_us);

    sampler_stop.store(true, Ordering::Release);
    let (documents_scanned, oracle_hits) = sampler.join().expect("pressure sampler");
    let pressure = pressure.lock().clone();

    loris_stop.store(true, Ordering::Release);
    for h in loris {
        let _ = h.join();
    }

    // The UA tier's hubs, which come first and survive a respawn: a
    // killed slot's sheds still count.
    let shed: u64 = cluster.node_metrics()[..spec.ua_instances]
        .iter()
        .filter_map(|hub| hub.snapshot_json().get("server")?.get("shed")?.as_u64())
        .sum();

    // Departures: per UA, join that UA's egress tap frames (c2s,
    // Request class, across its IA row) with the UA's ground-truth
    // audit log by rank. `UaNode::submit` logs the whole batch first,
    // in release order, and then `submit_batch` writes each IA link's
    // share of it as one `write`: with two IA links (the `base`
    // topology of every served scenario) the time-sorted frames of a
    // batch come out link by link while the log interleaves the links.
    // Within a batch the rank join therefore gives the departures a
    // fixed relabelling of their truths. A fixed relabelling of a
    // uniform shuffle is still uniform, so the score under a uniform
    // shuffle is unchanged; the join is exact only for the one-link
    // ablation scenarios.
    let audits = cluster.linkage_audits();
    let mut departures = Vec::new();
    let mut fp_to_request = std::collections::HashMap::new();
    for (k, req) in plan.iter().enumerate() {
        fp_to_request.insert(req.fp, k);
    }
    for (ua, row) in taps.iter().enumerate() {
        let mut frames: Vec<_> = row
            .iter()
            .flat_map(|t| t.frames())
            .filter(|f| {
                f.dir == TapDirection::ClientToServer && f.class == pprox_wire::PadClass::Request
            })
            .collect();
        frames.sort_by_key(|f| f.at_us);
        let audit = audits[ua].departures();
        // Tolerate rare count mismatches (a frame lost to a failed IA
        // call) by joining only the common prefix length.
        let n = frames.len().min(audit.len());
        for (frame, event) in frames.iter().take(n).zip(audit.iter().take(n)) {
            let Some(&request) = fp_to_request.get(&event.fp) else {
                continue;
            };
            departures.push(TraceDeparture {
                at_us: frame.at_us,
                instance: ua as u16,
                len: frame.len,
                truth: request,
            });
        }
    }

    // Response edge: every answer the shuffle stage released, in release
    // order (the scorer's sort is stable, so the answers of one release,
    // logged under one instant, stay in the order they were written).
    // The audit log has instants, not frames: every frame on this edge is
    // of the response class, posts' acknowledgements included, so its
    // length is the class's.
    let response_len = pprox_wire::PadClass::Response.wire_len();
    let (mut answers_in, mut replies_out) = (Vec::new(), Vec::new());
    for (ua, audit) in audits.iter().enumerate() {
        for event in audit.answers() {
            let Some(&request) = fp_to_request.get(&event.fp) else {
                continue;
            };
            answers_in.push(TraceArrival {
                request,
                at_us: event.arrived_us,
                instance: ua as u16,
                len: response_len,
            });
            replies_out.push(TraceDeparture {
                at_us: event.left_us,
                instance: ua as u16,
                len: response_len,
                truth: request,
            });
        }
    }

    // The aware adversary always knows the instance; `blind_instances` is
    // how many instances the blind one's curve `1/(S·I)` credits the edge
    // with.
    let trace = |arrivals, departures| WireTrace {
        shuffle_size: spec.shuffle_size,
        instances: spec.ua_instances,
        arrivals,
        departures,
    };
    let attack = |trace: &WireTrace, blind_instances| {
        [(false, spec.ua_instances), (true, blind_instances)].map(|(instance_blind, instances)| {
            let config = WireAuditConfig {
                batch_gap_us: spec.batch_gap_us,
                instance_blind,
            };
            wire_linkage_attack(
                &WireTrace {
                    instances,
                    ..trace.clone()
                },
                &config,
            )
        })
    };
    let request_trace = trace(arrivals.lock().clone(), departures);
    let [aware, blind] = attack(&request_trace, spec.ua_instances);
    // On the way back an instance's answers reach it as one burst, just
    // before it releases them, so the merged stream attributes itself:
    // the blind adversary is scored against `1/S` here too (it measures
    // ≈ 1/S under the paper's independent response buffer as well).
    let response_edge = attack(&trace(answers_in, replies_out), 1);
    let arrived: std::collections::HashMap<usize, u64> = request_trace
        .arrivals
        .iter()
        .map(|a| (a.request, a.at_us))
        .collect();
    let leaked = request_trace.with_join_key(|r| arrived[&r] as usize);
    let [unsafe_export, _] = attack(&leaked, spec.ua_instances);

    ScenarioOutcome {
        spec: spec.clone(),
        completed: completed.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        shed,
        duration_us,
        offered_rps: spec.shape.mean_rps(spec.requests),
        request_trace,
        aware,
        blind,
        response_edge,
        unsafe_export,
        pressure,
        documents_scanned,
        oracle_hits,
    }
}

/// Worker threads draining the dispatch queue. Sized above any
/// scenario's concurrency needs: open-loop at ≤450 rps with ≤150 ms
/// end-to-end latency (the shuffle dwell plus the IA hop) keeps
/// outstanding calls under this, so the pool never closes the loop.
const WORKERS: usize = 48;

/// Holds one connection against `addr`, trickling garbage bytes slowly
/// — never completing a frame header — until told to stop.
fn slow_loris(addr: std::net::SocketAddr, stop: &AtomicBool) {
    use std::io::Write;
    let Ok(mut s) = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(2)) else {
        return;
    };
    let mut sent = 0u8;
    while !stop.load(Ordering::Acquire) {
        // One byte of never-valid header every 300 ms.
        if s.write_all(&[0xEEu8.wrapping_add(sent)]).is_err() {
            // The server dropped us (protocol error / idle policy) —
            // reconnect and keep pestering.
            match std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(2)) {
                Ok(ns) => s = ns,
                Err(_) => return,
            }
        }
        sent = sent.wrapping_add(1);
        for _ in 0..30 {
            if stop.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}
