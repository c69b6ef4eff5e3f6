//! Availability and latency of the serving chain under injected faults.
//!
//! Drives the real chain (`LoopbackCluster`: UA → IA → LRS over loopback
//! TCP, enclave shims, key provisioning, admission gates, retries,
//! circuit breaker, supervisor) against a [`ChaosLrs`] through five fault
//! scenarios and prints, for each, the availability (fraction of requests
//! answered `Ok`) and the latency five-number summary. The scenarios
//! mirror the acceptance criteria of the fault-tolerance layer:
//!
//! 1. **baseline** — no faults; the reference availability/latency.
//! 2. **transient-errors** — 30% injected 503s; retries absorb them.
//! 3. **hang** — the LRS never answers; every request resolves with
//!    `Deadline` within 2× its budget.
//! 4. **flap** — the backend dies and comes back; the breaker opens,
//!    sheds without touching the LRS, and recovers after the outage.
//! 5. **enclave-crash** — the IA enclaves are killed mid-run; the
//!    supervisor respawns their nodes with fresh, re-provisioned enclaves
//!    and the chain keeps serving.

use pprox_bench::report;
use pprox_core::keys::IA_CODE_IDENTITY;
use pprox_core::resilience::{BreakerState, Deadline};
use pprox_core::{PProxError, UserClient};
use pprox_lrs::chaos::{ChaosLrs, ChaosSchedule, Fault};
use pprox_lrs::stub::StubLrs;
use pprox_lrs::RestHandler;
use pprox_sgx::Measurement;
use pprox_wire::{ClusterConfig, LoopbackCluster};
use pprox_workload::stats::Candlestick;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome tally of one driven batch.
#[derive(Default)]
struct Tally {
    ok: usize,
    lrs_errors: usize,
    deadline: usize,
    shed: usize,
    other: usize,
    latencies_ms: Vec<f64>,
}

impl Tally {
    fn total(&self) -> usize {
        self.ok + self.lrs_errors + self.deadline + self.shed + self.other
    }

    fn availability(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.ok as f64 / self.total() as f64
        }
    }

    fn record(&mut self, result: Result<(), PProxError>, elapsed: Duration) {
        self.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
        match result {
            Ok(()) => self.ok += 1,
            Err(PProxError::MalformedMessage) => self.lrs_errors += 1,
            Err(PProxError::Deadline) => self.deadline += 1,
            Err(PProxError::Unavailable | PProxError::Overloaded) => self.shed += 1,
            Err(_) => self.other += 1,
        }
    }

    fn print(&self, scenario: &str) {
        let c = Candlestick::from_samples(&self.latencies_ms);
        print!(
            "{:<18} {:>5} {:>6.1}% {:>5} {:>5} {:>5} {:>5}",
            scenario,
            self.total(),
            100.0 * self.availability(),
            self.lrs_errors,
            self.deadline,
            self.shed,
            self.other,
        );
        match c {
            Some(c) => println!("   {:>8.1} {:>8.1} {:>8.1}", c.q1, c.median, c.whisker_high),
            None => println!("   {:>8} {:>8} {:>8}", "-", "-", "-"),
        }
    }
}

/// The harness cap on one request; scenarios with a tighter budget pass
/// their own.
const BUDGET: Duration = Duration::from_secs(10);

/// Sends one post and records its outcome.
fn drive_post(c: &LoopbackCluster, client: &mut UserClient, i: usize, tally: &mut Tally) {
    let env = client.post(&format!("user-{i}"), "item", None).unwrap();
    let started = Instant::now();
    let result = c.send_post(&env, Deadline::starting_now(BUDGET));
    tally.record(result, started.elapsed());
}

/// Sends one get with `budget` and records its outcome.
fn drive_get(
    c: &LoopbackCluster,
    client: &mut UserClient,
    i: usize,
    budget: Duration,
    tally: &mut Tally,
) {
    let (env, _ticket) = client.get(&format!("user-{i}")).unwrap();
    let started = Instant::now();
    let result = c.send_get(&env, Deadline::starting_now(budget));
    tally.record(result.map(|_| ()), started.elapsed());
}

/// One UA, one IA, one LRS front-end; no shuffling.
fn chain_config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        ua_instances: 1,
        ia_instances: 1,
        seed,
        ..ClusterConfig::default()
    }
}

fn launch(config: ClusterConfig, lrs: Arc<dyn RestHandler>) -> LoopbackCluster {
    let cluster = LoopbackCluster::launch(config, lrs).unwrap();
    assert!(cluster.wait_ready(BUDGET), "chain did not come up");
    cluster
}

fn scenario_baseline(n: usize) -> Tally {
    let mut cluster = launch(chain_config(0x51), Arc::new(StubLrs::new()));
    let mut client = cluster.client();
    let mut tally = Tally::default();
    for i in 0..n {
        if i % 3 == 0 {
            drive_get(&cluster, &mut client, i, BUDGET, &mut tally);
        } else {
            drive_post(&cluster, &mut client, i, &mut tally);
        }
    }
    cluster.shutdown();
    tally
}

fn scenario_transient_errors(n: usize) -> (Tally, u64) {
    // 30% 503s; the breaker is parked so the row isolates retry
    // absorption (the flap row shows breaker behavior).
    let mut config = chain_config(0x52);
    config.resilience.breaker_failure_threshold = u32::MAX;
    let chaos = Arc::new(ChaosLrs::new(
        Arc::new(StubLrs::new()),
        0.3,
        Fault::ErrorStatus,
        0x52,
    ));
    let mut cluster = launch(config, chaos.clone());
    let mut client = cluster.client();
    let mut tally = Tally::default();
    for i in 0..n {
        drive_post(&cluster, &mut client, i, &mut tally);
    }
    cluster.shutdown();
    // Every LRS attempt past a request's first is a retry.
    let retries = (chaos.injected() + chaos.served()).saturating_sub(n as u64);
    (tally, retries)
}

fn scenario_hang(n: usize) -> (Tally, Duration, Duration) {
    let deadline = Duration::from_millis(400);
    let mut config = chain_config(0x53);
    config.server.request_budget = deadline;
    config.resilience.lrs_timeout = Duration::from_millis(100);
    config.resilience.max_retries = 1;
    // Park the breaker: repeated timeouts would otherwise trip it and
    // shed the tail of the batch; this row isolates the deadline.
    config.resilience.breaker_failure_threshold = u32::MAX;
    let chaos = Arc::new(ChaosLrs::new(
        Arc::new(StubLrs::new()),
        1.0,
        Fault::Hang,
        0x53,
    ));
    let mut cluster = launch(config, chaos.clone());
    let mut client = cluster.client();
    let mut tally = Tally::default();
    for i in 0..n {
        drive_get(&cluster, &mut client, i, deadline, &mut tally);
    }
    let worst = tally.latencies_ms.iter().cloned().fold(0.0f64, f64::max);
    chaos.release_hangs();
    cluster.shutdown();
    (tally, deadline, Duration::from_secs_f64(worst / 1e3))
}

struct FlapOutcome {
    shed: Tally,
    recovered: Tally,
    leaked: u64,
    shed_batch: usize,
    times_opened: u64,
}

fn scenario_flap() -> FlapOutcome {
    let mut config = chain_config(0x54);
    config.resilience.lrs_timeout = Duration::from_millis(200);
    config.resilience.max_retries = 0;
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
        0x54,
    ));
    let flap_started = Instant::now();
    let mut cluster = launch(config, chaos.clone());
    let mut client = cluster.client();
    let breaker = cluster.ia_breaker(0);

    // Trip the breaker on the dead backend.
    let mut warmup = Tally::default();
    let mut i = 0;
    while breaker.state() != BreakerState::Open && i < 50 {
        drive_post(&cluster, &mut client, i, &mut warmup);
        i += 1;
    }

    // Shed phase: the open breaker answers without touching the LRS.
    let attempts_before = chaos.injected() + chaos.served();
    let mut shed = Tally::default();
    let shed_batch = 60;
    for j in 0..shed_batch {
        drive_post(&cluster, &mut client, 1000 + j, &mut shed);
    }
    let leaked = (chaos.injected() + chaos.served()) - attempts_before;

    // Wait out the outage plus the open window, then measure recovery.
    std::thread::sleep(
        down_for.saturating_sub(flap_started.elapsed()) + Duration::from_millis(150),
    );
    let mut recovered = Tally::default();
    for j in 0..40 {
        drive_post(&cluster, &mut client, 2000 + j, &mut recovered);
        if recovered.ok == 0 {
            // Still probing through the half-open window.
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let times_opened = breaker.times_opened();
    cluster.shutdown();
    FlapOutcome {
        shed,
        recovered,
        leaked,
        shed_batch,
        times_opened,
    }
}

fn scenario_enclave_crash(n: usize) -> (Tally, Tally, u64) {
    let mut config = chain_config(0x55);
    config.ia_instances = 2;
    config.supervisor = true;
    let mut cluster = launch(config, Arc::new(StubLrs::new()));
    let mut client = cluster.client();
    let mut before = Tally::default();
    for i in 0..n / 2 {
        drive_post(&cluster, &mut client, i, &mut before);
    }
    let killed = cluster
        .platform()
        .crash_layer(Measurement::of_code(IA_CODE_IDENTITY));
    assert!(killed >= 1, "crash injection must hit live enclaves");
    // Requests sent into the outage are answered `Unavailable`; the row
    // measures the chain once the supervisor has replaced the nodes.
    let respawned = Instant::now() + BUDGET;
    while cluster.respawns() < killed as u64 && Instant::now() < respawned {
        std::thread::sleep(Duration::from_millis(5));
    }
    cluster.wait_ready(BUDGET);
    let mut after = Tally::default();
    for i in 0..n / 2 {
        drive_get(&cluster, &mut client, 1000 + i, BUDGET, &mut after);
    }
    let respawns = cluster.respawns();
    cluster.shutdown();
    (before, after, respawns)
}

fn main() {
    println!("Resilience report — serving-chain availability under injected faults");
    println!();
    println!(
        "{:<18} {:>5} {:>7} {:>5} {:>5} {:>5} {:>5}   {:>8} {:>8} {:>8}",
        "scenario", "n", "avail", "lrs", "ddl", "shed", "oth", "q1(ms)", "med(ms)", "hi(ms)"
    );

    let baseline = scenario_baseline(120);
    baseline.print("baseline");

    let (transient, retries) = scenario_transient_errors(120);
    transient.print("transient-30pct");

    let (hang, budget, worst) = scenario_hang(6);
    hang.print("hang");

    let flap = scenario_flap();
    flap.shed.print("flap/open");
    flap.recovered.print("flap/recovered");

    let (crash_before, crash_after, restarts) = scenario_enclave_crash(60);
    crash_before.print("crash/before");
    crash_after.print("crash/after");

    report::section("acceptance checks");
    let checks: Vec<(String, bool)> = vec![
        (
            "baseline availability is 100%".to_string(),
            baseline.availability() == 1.0,
        ),
        (
            format!(
                "retries absorb 30% transient faults (avail {:.1}% >= 80%, {retries} retried attempts)",
                100.0 * transient.availability()
            ),
            transient.availability() >= 0.8,
        ),
        (
            format!(
                "hung LRS resolves with Deadline within 2x budget (worst {:.0} ms <= {:.0} ms)",
                worst.as_secs_f64() * 1e3,
                2.0 * budget.as_secs_f64() * 1e3
            ),
            hang.deadline == hang.total() && worst <= 2 * budget,
        ),
        (
            format!(
                "open breaker sheds without touching the LRS ({}/{} leaked < 5%, opened {}x)",
                flap.leaked, flap.shed_batch, flap.times_opened
            ),
            flap.times_opened >= 1
                && (flap.leaked as f64) < 0.05 * flap.shed_batch as f64,
        ),
        (
            format!(
                "breaker recovers after the outage (avail {:.1}% > 95%)",
                100.0 * flap.recovered.availability()
            ),
            flap.recovered.availability() > 0.95,
        ),
        (
            format!(
                "crashed IA enclaves' nodes respawned and re-provisioned ({restarts} respawns, post-crash avail {:.1}%)",
                100.0 * crash_after.availability()
            ),
            restarts >= 1 && crash_after.availability() == 1.0,
        ),
    ];
    let mut failed = 0;
    for (label, pass) in &checks {
        println!("  [{}] {label}", if *pass { "PASS" } else { "FAIL" });
        if !pass {
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!("{failed} acceptance check(s) failed");
        std::process::exit(1);
    }
}
