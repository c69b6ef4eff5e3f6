//! Scenario regression suite: the §6.2 linkage bounds, measured on the
//! real loopback deployment under scripted operational scenarios.
//!
//! Each test boots a [`pprox::wire::LoopbackCluster`], interposes
//! recording taps on the UA→IA boundary, replays a seeded open-loop
//! schedule, and checks the measured request/response linkage of the
//! wire adversary against the analytic `1/S` and `1/(S·I)` curves with
//! sample-size-aware tolerances. The seed honors `PPROX_TEST_SEED` and
//! is printed on every run, so a failure banner is enough to replay the
//! exact schedule.
//!
//! Note for the privacy-flow analyzer: this file drives the user side
//! of the chain and names no item-side APIs.

use pprox::scenario::{run_scenario, scenarios, test_seed};

/// Steady-state smoke scenario: both adversaries must respect their
/// bounds, and the attack must produce enough attempts for the
/// tolerance to mean something.
#[test]
fn steady_scenario_meets_linkage_bounds() {
    let seed = test_seed(0x5ce0_0001);
    let spec = scenarios::by_name("steady_smoke").unwrap();
    let outcome = run_scenario(&spec, seed);

    assert!(
        outcome.completed > outcome.spec.requests * 9 / 10,
        "chain unhealthy: {}/{} completed, {} failed",
        outcome.completed,
        outcome.spec.requests,
        outcome.failed
    );
    eprintln!(
        "aware: attempts={} correct={} rate={:.3} batches={} mean_batch={:.2}",
        outcome.aware.score.attempts,
        outcome.aware.score.correct,
        outcome.aware.score.success_rate,
        outcome.aware.batches,
        outcome.aware.mean_batch
    );
    // Padding leaves the observer one length per hop to see: every
    // client→UA arrival and every UA→IA frame of a hop is the same size.
    let one_len = |lens: Vec<usize>| lens.windows(2).all(|w| w[0] == w[1]);
    let trace = &outcome.request_trace;
    assert!(
        one_len(trace.arrivals.iter().map(|a| a.len).collect()),
        "client→UA lengths differ"
    );
    assert!(
        one_len(trace.departures.iter().map(|d| d.len).collect()),
        "UA→IA lengths differ"
    );
    assert!(
        outcome.aware.score.attempts >= 100,
        "too few attempts for a meaningful bound: {}",
        outcome.aware.score.attempts
    );
    assert!(
        outcome.aware.score.within(),
        "instance-aware linkage {:.3} exceeds 1/S={:.3} (+{:.3}) [seed {seed}]",
        outcome.aware.score.success_rate,
        outcome.aware.score.bound,
        outcome.aware.score.tolerance
    );
    assert!(
        outcome.blind.score.within(),
        "instance-blind linkage {:.3} exceeds 1/(S*I)={:.3} (+{:.3}) [seed {seed}]",
        outcome.blind.score.success_rate,
        outcome.blind.score.bound,
        outcome.blind.score.tolerance
    );
    // The pressure sampler's scrapes carry nothing to join on: every
    // node document of every pass went through the oracle scan.
    assert!(
        outcome.documents_scanned >= outcome.pressure.len().max(1),
        "{} documents scanned over {} pressure points",
        outcome.documents_scanned,
        outcome.pressure.len()
    );
    assert_eq!(
        outcome.oracle_hits, 0,
        "a scraped document carries an oracle"
    );
    assert!(outcome.ok());
}

/// The seeded ablation — shuffle batches but releases in arrival order
/// — must be *caught* as a bound violation, not passed by construction.
#[test]
fn shuffle_order_ablation_is_detected() {
    let seed = test_seed(0x5ce0_0002);
    let spec = scenarios::by_name("ablation_smoke").unwrap();
    assert!(spec.violation_expected);
    let outcome = run_scenario(&spec, seed);

    assert!(
        outcome.completed > outcome.spec.requests * 9 / 10,
        "chain unhealthy: {}/{} completed",
        outcome.completed,
        outcome.spec.requests
    );
    assert!(
        outcome.aware.score.success_rate > 0.5,
        "order-preserving release should link most requests, got {:.3} [seed {seed}]",
        outcome.aware.score.success_rate
    );
    assert!(
        !outcome.aware.score.within(),
        "audit failed to flag the broken shuffle: {:.3} vs bound {:.3} [seed {seed}]",
        outcome.aware.score.success_rate,
        outcome.aware.score.bound
    );
    assert!(outcome.ok(), "ablation must count as a caught violation");
}
