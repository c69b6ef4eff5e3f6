//! Failure injection for resilience testing.
//!
//! The paper's RaaS provider promises service-level objectives; the proxy
//! must degrade cleanly — not hang or corrupt state — when the LRS behind
//! it misbehaves. [`ChaosLrs`] wraps any [`RestHandler`] and injects
//! deterministic, seed-driven failures across the full spectrum a real
//! backend exhibits:
//!
//! * [`Fault::ErrorStatus`] — HTTP 503 (transient server failure);
//! * [`Fault::GarbageBody`] — HTTP 200 with an unparsable body (broken
//!   serialization, truncated proxy responses);
//! * [`Fault::Latency`] — the call succeeds but only after a uniformly
//!   distributed delay (GC pauses, queueing);
//! * [`Fault::Hang`] — the call blocks indefinitely (wedged connection,
//!   dead peer without RST) until [`ChaosLrs::release_hangs`] or a safety
//!   cap;
//! * [`Fault::Flap`] — deterministic up/down oscillation (crash-looping
//!   backend), the canonical circuit-breaker workload.
//!
//! Storage faults are not HTTP faults: damage a durable store's on-disk
//! image with [`pprox_store::FaultInjector`] directly.
//!
//! Faults are driven by a [`ChaosSchedule`]: each entry activates during
//! a time window and fires with its own probability, so a single wrapper
//! can model "30% errors plus latency spikes, and the backend goes down
//! entirely between t=2s and t=4s".

use crate::api::{HttpRequest, HttpResponse, RestHandler};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::PoisonError;
use std::time::{Duration, Instant};

/// Hung calls are force-released after this long even without
/// [`ChaosLrs::release_hangs`] — a backstop so a forgotten hang cannot
/// wedge a test binary forever.
const HANG_SAFETY_CAP: Duration = Duration::from_secs(60);

/// Kinds of injected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Reply with HTTP 503.
    ErrorStatus,
    /// Reply 200 with a non-JSON body.
    GarbageBody,
    /// Serve correctly, but delay the reply by a uniform sample from
    /// `[min, max]`.
    Latency {
        /// Minimum injected delay.
        min: Duration,
        /// Maximum injected delay.
        max: Duration,
    },
    /// Block the calling thread until [`ChaosLrs::release_hangs`] (or the
    /// 60 s safety cap), then reply 503.
    Hang,
    /// Deterministic availability oscillation: starting at the wrapper's
    /// creation, the backend answers 503 for `down_for`, then serves
    /// normally for `up_for`, repeating.
    Flap {
        /// Length of each unavailable phase.
        down_for: Duration,
        /// Length of each healthy phase between outages.
        up_for: Duration,
    },
}

/// One line of a fault schedule: `fault` fires with `probability` on
/// requests arriving in the window `[after, until)` (measured from the
/// wrapper's creation; `until: None` = forever).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosEntry {
    /// The failure to inject.
    pub fault: Fault,
    /// Per-request injection probability while the window is active.
    pub probability: f64,
    /// Window start, relative to wrapper creation.
    pub after: Duration,
    /// Window end (exclusive), or `None` for an open-ended window.
    pub until: Option<Duration>,
}

impl ChaosEntry {
    /// An always-active entry firing with `probability`.
    pub fn always(fault: Fault, probability: f64) -> Self {
        ChaosEntry {
            fault,
            probability,
            after: Duration::ZERO,
            until: None,
        }
    }

    /// An entry active only during `[after, until)`.
    pub fn window(fault: Fault, probability: f64, after: Duration, until: Duration) -> Self {
        ChaosEntry {
            fault,
            probability,
            after,
            until: Some(until),
        }
    }

    fn active_at(&self, elapsed: Duration) -> bool {
        elapsed >= self.after && self.until.is_none_or(|end| elapsed < end)
    }
}

/// A time-windowed fault-injection plan: entries are evaluated in order
/// and the first one that is active and fires wins.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosSchedule {
    /// The schedule's entries, in priority order.
    pub entries: Vec<ChaosEntry>,
}

impl ChaosSchedule {
    /// An empty schedule (no faults ever fire).
    pub fn none() -> Self {
        Self::default()
    }

    /// A single always-active entry — the classic "fail each request
    /// independently with rate `p`" injector.
    pub fn constant(fault: Fault, probability: f64) -> Self {
        ChaosSchedule {
            entries: vec![ChaosEntry::always(fault, probability)],
        }
    }

    /// Appends an entry, returning `self` for chaining.
    pub fn with(mut self, entry: ChaosEntry) -> Self {
        self.entries.push(entry);
        self
    }
}

// Built on std primitives (not the parking_lot API) because waiting needs
// a condition variable that re-takes the guard; poisoning is recovered.
struct HangGate {
    // Incremented by release_hangs(); sleepers wake when it moves.
    epoch: std::sync::Mutex<u64>,
    signal: std::sync::Condvar,
}

/// A fault-injecting wrapper around an inner LRS.
///
/// # Examples
///
/// ```
/// use pprox_lrs::chaos::{ChaosLrs, Fault};
/// use pprox_lrs::stub::StubLrs;
/// use pprox_lrs::api::{HttpRequest, RestHandler, QUERIES_PATH};
/// use std::sync::Arc;
///
/// let chaos = ChaosLrs::new(Arc::new(StubLrs::new()), 1.0, Fault::ErrorStatus, 7);
/// let resp = chaos.handle(&HttpRequest::post(QUERIES_PATH, "{}"));
/// assert_eq!(resp.status, 503);
/// ```
pub struct ChaosLrs {
    inner: std::sync::Arc<dyn RestHandler>,
    schedule: ChaosSchedule,
    started: Instant,
    rng: Mutex<StdRng>,
    hang_gate: HangGate,
    injected: AtomicU64,
    served: AtomicU64,
}

impl std::fmt::Debug for ChaosLrs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosLrs")
            .field("schedule", &self.schedule)
            .field("injected", &self.injected.load(Ordering::Relaxed))
            .finish()
    }
}

impl ChaosLrs {
    /// Wraps `inner`, failing each request independently with
    /// `failure_rate` probability — shorthand for a single-entry
    /// always-active [`ChaosSchedule`].
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= failure_rate <= 1.0`.
    pub fn new(
        inner: std::sync::Arc<dyn RestHandler>,
        failure_rate: f64,
        fault: Fault,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&failure_rate));
        Self::with_schedule(inner, ChaosSchedule::constant(fault, failure_rate), seed)
    }

    /// Wraps `inner` with a full time-windowed fault schedule.
    ///
    /// # Panics
    ///
    /// Panics when any entry's probability is outside `[0, 1]`, or a
    /// `Latency` entry has `min > max`.
    pub fn with_schedule(
        inner: std::sync::Arc<dyn RestHandler>,
        schedule: ChaosSchedule,
        seed: u64,
    ) -> Self {
        for entry in &schedule.entries {
            assert!(
                (0.0..=1.0).contains(&entry.probability),
                "probability {} outside [0, 1]",
                entry.probability
            );
            if let Fault::Latency { min, max } = entry.fault {
                assert!(min <= max, "latency min {min:?} > max {max:?}");
            }
        }
        ChaosLrs {
            inner,
            schedule,
            started: Instant::now(),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            hang_gate: HangGate {
                epoch: std::sync::Mutex::new(0),
                signal: std::sync::Condvar::new(),
            },
            injected: AtomicU64::new(0),
            served: AtomicU64::new(0),
        }
    }

    /// Failures injected so far (including latency injections, which
    /// still serve a correct response).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Requests passed through to the inner handler.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Releases every thread currently blocked in a [`Fault::Hang`]
    /// injection (they return 503). Call from test teardown so abandoned
    /// pool workers unblock promptly instead of waiting out the safety
    /// cap.
    pub fn release_hangs(&self) {
        let mut epoch = self
            .hang_gate
            .epoch
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *epoch += 1;
        self.hang_gate.signal.notify_all();
    }

    fn hang(&self) -> HttpResponse {
        let deadline = Instant::now() + HANG_SAFETY_CAP;
        let mut epoch = self
            .hang_gate
            .epoch
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let entered_at = *epoch;
        while *epoch == entered_at {
            let timeout = deadline.saturating_duration_since(Instant::now());
            if timeout.is_zero() {
                break; // safety cap: never wedge a binary forever
            }
            let (guard, _) = self
                .hang_gate
                .signal
                .wait_timeout(epoch, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            epoch = guard;
        }
        HttpResponse::error(503, "injected hang released")
    }

    /// Picks the fault (if any) to inject for a request arriving now.
    fn roll(&self, elapsed: Duration) -> Option<Fault> {
        for entry in &self.schedule.entries {
            if !entry.active_at(elapsed) {
                continue;
            }
            if let Fault::Flap { down_for, up_for } = entry.fault {
                // Flap is a deterministic phase function of time, not a
                // coin flip: down for `down_for`, up for `up_for`, repeat.
                let period = down_for + up_for;
                if period.is_zero() {
                    continue;
                }
                let phase = Duration::from_nanos((elapsed.as_nanos() % period.as_nanos()) as u64);
                if phase < down_for {
                    return Some(entry.fault);
                }
                continue;
            }
            if entry.probability >= 1.0 || self.rng.lock().gen::<f64>() < entry.probability {
                return Some(entry.fault);
            }
        }
        None
    }
}

impl RestHandler for ChaosLrs {
    fn handle(&self, request: &HttpRequest) -> HttpResponse {
        let elapsed = self.started.elapsed();
        match self.roll(elapsed) {
            None => {
                self.served.fetch_add(1, Ordering::Relaxed);
                self.inner.handle(request)
            }
            Some(fault) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                match fault {
                    Fault::ErrorStatus => HttpResponse::error(503, "injected failure"),
                    Fault::GarbageBody => HttpResponse::ok("<<<garbage-not-json>>>"),
                    Fault::Latency { min, max } => {
                        let span = max.saturating_sub(min);
                        let extra = if span.is_zero() {
                            Duration::ZERO
                        } else {
                            let ns = self.rng.lock().gen::<u64>() % span.as_nanos().max(1) as u64;
                            Duration::from_nanos(ns)
                        };
                        std::thread::sleep(min + extra);
                        // Slow but correct: the request still counts as
                        // served by the inner handler.
                        self.served.fetch_add(1, Ordering::Relaxed);
                        self.inner.handle(request)
                    }
                    Fault::Hang => self.hang(),
                    Fault::Flap { .. } => HttpResponse::error(503, "injected outage"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::QUERIES_PATH;
    use crate::stub::StubLrs;
    use std::sync::Arc;

    fn chaos(rate: f64, fault: Fault) -> ChaosLrs {
        ChaosLrs::new(Arc::new(StubLrs::new()), rate, fault, 42)
    }

    fn query() -> HttpRequest {
        HttpRequest::post(QUERIES_PATH, "{}")
    }

    #[test]
    fn zero_rate_never_fails() {
        let c = chaos(0.0, Fault::ErrorStatus);
        for _ in 0..100 {
            assert!(c.handle(&query()).is_success());
        }
        assert_eq!(c.injected(), 0);
        assert_eq!(c.served(), 100);
    }

    #[test]
    fn full_rate_always_fails() {
        let c = chaos(1.0, Fault::ErrorStatus);
        for _ in 0..20 {
            assert_eq!(c.handle(&query()).status, 503);
        }
        assert_eq!(c.served(), 0);
    }

    #[test]
    fn partial_rate_roughly_matches() {
        let c = chaos(0.3, Fault::ErrorStatus);
        for _ in 0..1000 {
            c.handle(&query());
        }
        let rate = c.injected() as f64 / 1000.0;
        assert!((rate - 0.3).abs() < 0.06, "rate {rate}");
    }

    #[test]
    fn garbage_body_is_200_but_unparsable() {
        let c = chaos(1.0, Fault::GarbageBody);
        let resp = c.handle(&query());
        assert!(resp.is_success());
        assert!(crate::api::RecommendationList::from_json(&resp.body).is_none());
    }

    #[test]
    #[should_panic]
    fn invalid_rate_panics() {
        let _ = chaos(1.5, Fault::ErrorStatus);
    }

    #[test]
    #[should_panic]
    fn invalid_latency_range_panics() {
        let _ = chaos(
            0.5,
            Fault::Latency {
                min: Duration::from_millis(10),
                max: Duration::from_millis(5),
            },
        );
    }

    #[test]
    fn latency_fault_delays_but_serves() {
        let c = chaos(
            1.0,
            Fault::Latency {
                min: Duration::from_millis(20),
                max: Duration::from_millis(30),
            },
        );
        let t = Instant::now();
        let resp = c.handle(&query());
        assert!(resp.is_success());
        assert!(t.elapsed() >= Duration::from_millis(20));
        assert_eq!(c.injected(), 1);
        assert_eq!(c.served(), 1, "latency still serves the request");
    }

    #[test]
    fn hang_blocks_until_released() {
        let c = Arc::new(chaos(1.0, Fault::Hang));
        let c2 = c.clone();
        // Clock starts before the spawn: a late-scheduled thread must not
        // make the hold look shorter than the sleep below.
        let t = Instant::now();
        let handle = std::thread::spawn(move || {
            let resp = c2.handle(&query());
            (resp.status, t.elapsed())
        });
        // Give the thread time to enter the hang.
        std::thread::sleep(Duration::from_millis(50));
        assert!(!handle.is_finished(), "call should be hung");
        c.release_hangs();
        let (status, held) = handle.join().unwrap();
        assert_eq!(status, 503);
        assert!(held >= Duration::from_millis(50));
    }

    #[test]
    fn flap_alternates_deterministically() {
        let c = ChaosLrs::with_schedule(
            Arc::new(StubLrs::new()),
            ChaosSchedule::constant(
                Fault::Flap {
                    down_for: Duration::from_millis(40),
                    up_for: Duration::from_millis(40),
                },
                1.0,
            ),
            7,
        );
        // Phase 0 (down): 503s.
        assert_eq!(c.handle(&query()).status, 503);
        // Phase 1 (up): healthy.
        std::thread::sleep(Duration::from_millis(45));
        assert!(c.handle(&query()).is_success());
        // Phase 2 (down again).
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(c.handle(&query()).status, 503);
    }

    #[test]
    fn windowed_entries_only_fire_in_window() {
        let c = ChaosLrs::with_schedule(
            Arc::new(StubLrs::new()),
            ChaosSchedule::none().with(ChaosEntry::window(
                Fault::ErrorStatus,
                1.0,
                Duration::from_millis(30),
                Duration::from_millis(60),
            )),
            7,
        );
        assert!(c.handle(&query()).is_success(), "before the window");
        std::thread::sleep(Duration::from_millis(35));
        assert_eq!(c.handle(&query()).status, 503, "inside the window");
        std::thread::sleep(Duration::from_millis(35));
        assert!(c.handle(&query()).is_success(), "after the window");
    }

    #[test]
    fn schedule_entries_take_priority_in_order() {
        // First entry always fires ⇒ second never reached.
        let c = ChaosLrs::with_schedule(
            Arc::new(StubLrs::new()),
            ChaosSchedule::none()
                .with(ChaosEntry::always(Fault::ErrorStatus, 1.0))
                .with(ChaosEntry::always(Fault::GarbageBody, 1.0)),
            7,
        );
        for _ in 0..5 {
            assert_eq!(c.handle(&query()).status, 503);
        }
    }
}
