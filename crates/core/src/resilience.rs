//! Fault-tolerance building blocks for the serving chain.
//!
//! The paper's RaaS setting puts PProx on the critical path of somebody
//! else's product: a hung or failing LRS, a crashed enclave, or a traffic
//! spike must degrade the proxy into *fast, typed errors* — never hangs,
//! never unbounded queues, never silent corruption. This module provides
//! the mechanisms; `pprox-wire` wires them around each hop (the server's
//! admission gate and request budget, the IA service's LRS exchange):
//!
//! * [`Deadline`] — every request carries an end-to-end time budget;
//!   every hop checks it and each LRS attempt is clamped to what is
//!   left of it.
//! * [`RetryBackoff`] — decorrelated-jitter backoff between the attempts
//!   of one call, taken only while the delay fits the remaining deadline.
//! * [`CircuitBreaker`] — a closed → open → half-open breaker per LRS
//!   dependency: after a run of failures the proxy stops hammering the
//!   backend and sheds load with [`crate::PProxError::Unavailable`],
//!   probing recovery with a bounded number of half-open requests.
//! * [`AdmissionGate`] — bounded ingress: beyond a configured number of
//!   in-flight requests, submissions are rejected immediately with
//!   [`crate::PProxError::Overloaded`] instead of growing queues without
//!   bound (and without ever blocking the caller).
//!
//! Everything here is deterministic given its seeds and independent of
//! the PProx message formats, so each mechanism is unit-tested in
//! isolation below.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry and circuit-breaking policy: the retry knobs govern every hop's
/// calls, the timeout and the breaker the IA's calls into the LRS. The
/// request budget and the in-flight bound are `ServerConfig`'s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Per-attempt timeout for one LRS call (clamped to the remaining
    /// deadline).
    pub lrs_timeout: Duration,
    /// Attempts after a call's first, at every hop (so `max_retries + 1`
    /// wire attempts at most, whatever the ring size), spent only on what
    /// another attempt may fix: a lost connection, `busy`/`unavailable`,
    /// timeouts, and from the LRS a 5xx or an undecodable body.
    pub max_retries: u32,
    /// Minimum backoff before a retry (decorrelated jitter's floor).
    pub retry_base: Duration,
    /// Maximum backoff before a retry (decorrelated jitter's cap).
    pub retry_cap: Duration,
    /// Consecutive LRS failures that trip the circuit breaker open.
    pub breaker_failure_threshold: u32,
    /// How long an open breaker sheds load before allowing half-open
    /// probes.
    pub breaker_open_for: Duration,
    /// Concurrent probe requests allowed while half-open; all of them
    /// must succeed to close the breaker again.
    pub breaker_half_open_probes: u32,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            lrs_timeout: Duration::from_millis(500),
            max_retries: 2,
            retry_base: Duration::from_millis(10),
            retry_cap: Duration::from_millis(200),
            breaker_failure_threshold: 5,
            breaker_open_for: Duration::from_millis(250),
            breaker_half_open_probes: 3,
        }
    }
}

/// An absolute per-request deadline.
///
/// Travels with the request so each hop can fail fast once the
/// budget is gone instead of doing work nobody is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    expires_at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn starting_now(budget: Duration) -> Self {
        Deadline {
            expires_at: Instant::now() + budget,
        }
    }

    /// Whether the budget is exhausted.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.expires_at
    }

    /// The instant the budget runs out (what a deadline queue orders by).
    pub fn instant(&self) -> Instant {
        self.expires_at
    }

    /// Time left, or `None` when expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.expires_at.checked_duration_since(Instant::now())
    }

    /// `d` clamped to the remaining budget (zero when expired).
    pub fn clamp(&self, d: Duration) -> Duration {
        d.min(self.remaining().unwrap_or(Duration::ZERO))
    }
}

/// Decorrelated-jitter retry backoff (`sleep = min(cap, uniform(base,
/// prev * 3))`), the schedule that de-synchronizes retry storms while
/// still growing toward the cap.
#[derive(Debug, Clone)]
pub struct RetryBackoff {
    base: Duration,
    cap: Duration,
    prev: Duration,
    state: u64,
}

impl RetryBackoff {
    /// A backoff generator for one request. `seed` decorrelates requests
    /// from each other.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        RetryBackoff {
            base,
            cap,
            prev: base,
            state: seed | 1,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*: tiny, deterministic, plenty for jitter.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// The next sleep before retrying.
    pub fn next_delay(&mut self) -> Duration {
        let ceiling = (self.prev * 3).min(self.cap).max(self.base);
        let span = ceiling.saturating_sub(self.base);
        let jitter_ns = if span.is_zero() {
            0
        } else {
            self.next_u64() % span.as_nanos().max(1) as u64
        };
        let delay = (self.base + Duration::from_nanos(jitter_ns)).min(self.cap);
        self.prev = delay;
        delay
    }
}

/// Circuit-breaker states, reported by [`CircuitBreaker::state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; failures are counted.
    Closed,
    /// Shedding load: calls are rejected without reaching the dependency.
    Open,
    /// Probing recovery with a bounded number of trial calls.
    HalfOpen,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Instant,
    probes_inflight: u32,
    probe_successes: u32,
}

/// A per-dependency circuit breaker (closed → open → half-open).
///
/// Thread-safe; an IA node's threads share one breaker so they observe
/// the backend's health collectively.
#[derive(Debug)]
pub struct CircuitBreaker {
    failure_threshold: u32,
    open_for: Duration,
    half_open_probes: u32,
    inner: Mutex<BreakerInner>,
    rejected: AtomicU64,
    times_opened: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with the given policy.
    pub fn new(failure_threshold: u32, open_for: Duration, half_open_probes: u32) -> Self {
        CircuitBreaker {
            failure_threshold: failure_threshold.max(1),
            open_for,
            half_open_probes: half_open_probes.max(1),
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: Instant::now(),
                probes_inflight: 0,
                probe_successes: 0,
            }),
            rejected: AtomicU64::new(0),
            times_opened: AtomicU64::new(0),
        }
    }

    /// Breaker configured from a [`ResilienceConfig`].
    pub fn from_config(config: &ResilienceConfig) -> Self {
        CircuitBreaker::new(
            config.breaker_failure_threshold,
            config.breaker_open_for,
            config.breaker_half_open_probes,
        )
    }

    /// Asks permission for one call to the protected dependency. `false`
    /// means the caller must shed the request (it never reaches the
    /// dependency); a `true` must be paired with exactly one
    /// [`record_success`](Self::record_success) or
    /// [`record_failure`](Self::record_failure).
    pub fn try_acquire(&self) -> bool {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if inner.opened_at.elapsed() >= self.open_for {
                    inner.state = BreakerState::HalfOpen;
                    inner.probes_inflight = 1;
                    inner.probe_successes = 0;
                    true
                } else {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    false
                }
            }
            BreakerState::HalfOpen => {
                if inner.probes_inflight < self.half_open_probes {
                    inner.probes_inflight += 1;
                    true
                } else {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    false
                }
            }
        }
    }

    /// Reports a successful call.
    pub fn record_success(&self) {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => inner.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                inner.probes_inflight = inner.probes_inflight.saturating_sub(1);
                inner.probe_successes += 1;
                if inner.probe_successes >= self.half_open_probes {
                    inner.state = BreakerState::Closed;
                    inner.consecutive_failures = 0;
                }
            }
            // A success finishing after the breaker re-opened: stale info.
            BreakerState::Open => {}
        }
    }

    /// Reports a failed call (error status, timeout…).
    pub fn record_failure(&self) {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.failure_threshold {
                    inner.state = BreakerState::Open;
                    inner.opened_at = Instant::now();
                    self.times_opened.fetch_add(1, Ordering::Relaxed);
                }
            }
            BreakerState::HalfOpen => {
                // One failed probe re-opens: the dependency is still sick.
                inner.state = BreakerState::Open;
                inner.opened_at = Instant::now();
                inner.probes_inflight = 0;
                self.times_opened.fetch_add(1, Ordering::Relaxed);
            }
            BreakerState::Open => {}
        }
    }

    /// Current state (transitions lazily on [`try_acquire`](Self::try_acquire)).
    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    /// Calls rejected while open / probe-saturated.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// How many times the breaker has tripped open.
    pub fn times_opened(&self) -> u64 {
        self.times_opened.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct GateShared {
    inflight: AtomicUsize,
    limit: usize,
    rejected: AtomicU64,
    admitted: AtomicU64,
}

/// Bounded-ingress admission control.
///
/// [`try_admit`](AdmissionGate::try_admit) never blocks: it either hands
/// out an RAII [`AdmissionPermit`] or reports the gate full. The permit
/// travels with the request through every stage and releases its slot on
/// drop — whether the request completed, errored, or was abandoned.
#[derive(Debug, Clone)]
pub struct AdmissionGate {
    shared: Arc<GateShared>,
}

impl AdmissionGate {
    /// A gate admitting at most `limit` concurrent requests.
    pub fn new(limit: usize) -> Self {
        AdmissionGate {
            shared: Arc::new(GateShared {
                inflight: AtomicUsize::new(0),
                limit: limit.max(1),
                rejected: AtomicU64::new(0),
                admitted: AtomicU64::new(0),
            }),
        }
    }

    /// Tries to admit one request without blocking.
    pub fn try_admit(&self) -> Option<AdmissionPermit> {
        let prev = self.shared.inflight.fetch_add(1, Ordering::AcqRel);
        if prev >= self.shared.limit {
            self.shared.inflight.fetch_sub(1, Ordering::AcqRel);
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.shared.admitted.fetch_add(1, Ordering::Relaxed);
        Some(AdmissionPermit {
            shared: self.shared.clone(),
        })
    }

    /// Requests currently admitted and not yet completed.
    pub fn in_flight(&self) -> usize {
        self.shared.inflight.load(Ordering::Acquire)
    }

    /// The admission limit.
    pub fn limit(&self) -> usize {
        self.shared.limit
    }

    /// Requests rejected at the gate so far.
    pub fn rejected(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.shared.admitted.load(Ordering::Relaxed)
    }

    /// Fraction of submissions rejected — the overload-pressure signal
    /// fed to the autoscaler (see
    /// [`crate::autoscale::Autoscaler::observe_with_pressure`]).
    pub fn rejection_fraction(&self) -> f64 {
        let rejected = self.rejected() as f64;
        let total = rejected + self.admitted() as f64;
        if total == 0.0 {
            0.0
        } else {
            rejected / total
        }
    }
}

/// RAII in-flight slot handed out by [`AdmissionGate::try_admit`].
#[derive(Debug)]
pub struct AdmissionPermit {
    shared: Arc<GateShared>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.shared.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_budget_counts_down() {
        let d = Deadline::starting_now(Duration::from_millis(80));
        assert!(!d.expired());
        assert!(d.remaining().unwrap() <= Duration::from_millis(80));
        // Clamping a larger duration yields whatever remains of the budget.
        let clamped = d.clamp(Duration::from_millis(500));
        assert!(clamped > Duration::ZERO && clamped <= Duration::from_millis(80));
        assert_eq!(d.clamp(Duration::ZERO), Duration::ZERO);
        std::thread::sleep(Duration::from_millis(100));
        assert!(d.expired());
        assert_eq!(d.remaining(), None);
        assert_eq!(d.clamp(Duration::from_millis(10)), Duration::ZERO);
    }

    #[test]
    fn backoff_stays_in_bounds_and_grows() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(200);
        let mut b = RetryBackoff::new(base, cap, 42);
        let mut prev_ceiling = base;
        for _ in 0..50 {
            let d = b.next_delay();
            assert!(d >= base, "{d:?} below base");
            assert!(d <= cap, "{d:?} above cap");
            // Each delay is bounded by 3× the previous delay (decorrelated
            // jitter's defining recurrence).
            assert!(d <= (prev_ceiling * 3).min(cap).max(base));
            prev_ceiling = d;
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let mk = |seed| {
            let mut b =
                RetryBackoff::new(Duration::from_millis(5), Duration::from_millis(100), seed);
            (0..10).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
    }

    #[test]
    fn breaker_opens_after_threshold_and_recovers() {
        let b = CircuitBreaker::new(3, Duration::from_millis(30), 2);
        assert_eq!(b.state(), BreakerState::Closed);
        for _ in 0..3 {
            assert!(b.try_acquire());
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.times_opened(), 1);
        // While open: shed.
        assert!(!b.try_acquire());
        assert_eq!(b.rejected(), 1);
        // After the open window: half-open probes, bounded concurrency.
        std::thread::sleep(Duration::from_millis(40));
        assert!(b.try_acquire());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.try_acquire());
        assert!(!b.try_acquire(), "probe concurrency is bounded");
        // Both probes succeed → closed again.
        b.record_success();
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.try_acquire());
        b.record_success();
    }

    #[test]
    fn failed_probe_reopens_breaker() {
        let b = CircuitBreaker::new(1, Duration::from_millis(20), 1);
        assert!(b.try_acquire());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.try_acquire()); // half-open probe
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.times_opened(), 2);
        assert!(!b.try_acquire());
    }

    #[test]
    fn closed_breaker_resets_failure_run_on_success() {
        let b = CircuitBreaker::new(3, Duration::from_millis(10), 1);
        for _ in 0..2 {
            assert!(b.try_acquire());
            b.record_failure();
        }
        assert!(b.try_acquire());
        b.record_success(); // breaks the run
        for _ in 0..2 {
            assert!(b.try_acquire());
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Closed, "run restarted from 0");
    }

    #[test]
    fn admission_gate_bounds_inflight_without_blocking() {
        let gate = AdmissionGate::new(2);
        let p1 = gate.try_admit().unwrap();
        let p2 = gate.try_admit().unwrap();
        assert_eq!(gate.in_flight(), 2);
        assert!(gate.try_admit().is_none(), "third request sheds");
        assert_eq!(gate.rejected(), 1);
        drop(p1);
        assert_eq!(gate.in_flight(), 1);
        let p3 = gate.try_admit().unwrap();
        drop(p2);
        drop(p3);
        assert_eq!(gate.in_flight(), 0);
        assert_eq!(gate.admitted(), 3);
        assert!((gate.rejection_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn admission_gate_is_thread_safe() {
        let gate = AdmissionGate::new(8);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let g = gate.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    if let Some(p) = g.try_admit() {
                        std::hint::black_box(&p);
                        drop(p);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(gate.in_flight(), 0);
        assert!(gate.in_flight() <= gate.limit());
    }

    #[test]
    fn config_default_is_sane() {
        let c = ResilienceConfig::default();
        assert!(c.retry_base <= c.retry_cap);
        assert!(c.retry_cap < c.lrs_timeout);
        let b = CircuitBreaker::from_config(&c);
        assert_eq!(b.state(), BreakerState::Closed);
    }
}
