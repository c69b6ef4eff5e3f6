//! Per-request span tracing with shuffle-boundary trace-ID
//! re-randomization, recorded into a bounded lock-free ring buffer.
//!
//! This is the fluentd role of the paper's deployment (§7.2) made
//! privacy-aware: spans carry **no identifiers** — no user, no item, no
//! arrival sequence number — only a random [`TraceId`], a [`Stage`], an
//! instance index, and timing. Crucially, the trace ID is *re-randomized
//! at every shuffle boundary* ([`TraceIdPolicy::Rerandomize`]): the ID a
//! request carries on the client→UA segment is statistically independent
//! of the ID its post-shuffle processing spans carry, so an adversary
//! holding the full exported span stream can join across the shuffle no
//! better than the network observer §6.2 bounds at `1/S`. The
//! [`TraceIdPolicy::StableAcrossShuffle`] ablation keeps one ID
//! end-to-end — the mistake class TEE recommender deployments are known
//! for — and exists so the `pprox-attack` telemetry audit can demonstrate
//! it is caught.

use crate::telemetry::sync::{fence, AtomicU64, Ordering};
use pprox_crypto::rng::SecureRng;
use std::sync::OnceLock;

/// A random, meaning-free span correlation ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// A fresh random ID.
    pub fn random(rng: &mut SecureRng) -> TraceId {
        TraceId(rng.next_u64())
    }
}

/// What happens to a request's trace ID when it crosses a shuffle
/// boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceIdPolicy {
    /// Replace the ID with a fresh random one (the only safe setting:
    /// exported traces cannot be joined across layers).
    #[default]
    Rerandomize,
    /// Keep the same ID end-to-end. **Deliberately leaky** — exported
    /// traces link users to LRS calls regardless of shuffling. Exists as
    /// the ablation the telemetry privacy audit must catch; never ship.
    StableAcrossShuffle,
}

impl TraceIdPolicy {
    /// The ID to use after a shuffle boundary.
    pub fn next_trace(&self, current: TraceId, rng: &mut SecureRng) -> TraceId {
        match self {
            TraceIdPolicy::Rerandomize => TraceId::random(rng),
            TraceIdPolicy::StableAcrossShuffle => current,
        }
    }

    /// Exported label.
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceIdPolicy::Rerandomize => "rerandomize",
            TraceIdPolicy::StableAcrossShuffle => "stable-across-shuffle",
        }
    }
}

/// A pipeline stage a span or histogram can describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Client-side envelope encryption (user-side library).
    ClientEncrypt = 0,
    /// Dwell inside the request-direction shuffle buffer.
    ShuffleRequest = 1,
    /// UA enclave processing (decrypt + pseudonymize).
    Ua = 2,
    /// IA enclave processing (item pseudonymization, response keys).
    Ia = 3,
    /// One LRS attempt on the timeout pool (per try).
    LrsAttempt = 4,
    /// The full resilient LRS call: retries, backoff, breaker included.
    Lrs = 5,
    /// Dwell inside the response-direction shuffle buffer.
    ShuffleResponse = 6,
    /// Whole-request latency, admission to delivery.
    E2e = 7,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 8] = [
        Stage::ClientEncrypt,
        Stage::ShuffleRequest,
        Stage::Ua,
        Stage::Ia,
        Stage::LrsAttempt,
        Stage::Lrs,
        Stage::ShuffleResponse,
        Stage::E2e,
    ];

    /// Exported label (Prometheus `stage` label / JSON key).
    pub fn as_str(&self) -> &'static str {
        match self {
            Stage::ClientEncrypt => "client_encrypt",
            Stage::ShuffleRequest => "shuffle_request",
            Stage::Ua => "ua",
            Stage::Ia => "ia",
            Stage::LrsAttempt => "lrs_attempt",
            Stage::Lrs => "lrs",
            Stage::ShuffleResponse => "shuffle_response",
            Stage::E2e => "e2e",
        }
    }

    fn from_u8(v: u8) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| *s as u8 == v)
    }
}

/// One exported telemetry span. Plain data, fully public: this struct IS
/// the off-enclave telemetry format, so anything added here must survive
/// the privacy audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Segment-local correlation ID (see [`TraceIdPolicy`]).
    pub trace: TraceId,
    /// Which stage this span measured.
    pub stage: Stage,
    /// Instance/worker index within the stage.
    pub instance: u16,
    /// Span start, µs since the deployment's telemetry epoch.
    pub start_us: u64,
    /// Span duration, µs.
    pub duration_us: u64,
    /// Whether the stage completed successfully.
    pub ok: bool,
}

/// One ring slot: a version word plus the span fields, all atomics so the
/// whole structure stays `#![forbid(unsafe_code)]`-clean.
///
/// Write protocol (seqlock-flavored): a writer CASes the version from
/// even to odd, stores the fields, then stores version+2 (even again). A
/// writer losing the CAS *drops its span* rather than spinning — bounded,
/// lock-free, and an acceptable loss mode for telemetry (counted in
/// `dropped`). A reader observes the version before and after copying the
/// fields and discards torn reads.
#[derive(Debug)]
struct Slot {
    version: AtomicU64,
    seq: AtomicU64,
    trace: AtomicU64,
    packed: AtomicU64, // stage (8 bits) | instance (16 bits) | ok (1 bit)
    start_us: AtomicU64,
    duration_us: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            packed: AtomicU64::new(0),
            start_us: AtomicU64::new(0),
            duration_us: AtomicU64::new(0),
        }
    }
}

fn pack(stage: Stage, instance: u16, ok: bool) -> u64 {
    (stage as u64) | ((instance as u64) << 8) | ((ok as u64) << 24)
}

fn unpack(v: u64) -> Option<(Stage, u16, bool)> {
    let stage = Stage::from_u8((v & 0xff) as u8)?;
    Some((stage, ((v >> 8) & 0xffff) as u16, (v >> 24) & 1 == 1))
}

/// Bounded lock-free ring buffer of [`SpanRecord`]s — the in-memory log
/// shipper. New spans overwrite the oldest once the ring wraps; a
/// snapshot returns the retained window in push order.
#[derive(Debug)]
pub struct SpanRing {
    /// Allocated by the first push: a hub nobody records spans into (every
    /// wire cluster — its nodes record durations only) carries no slots.
    slots: OnceLock<Box<[Slot]>>,
    capacity: usize,
    head: AtomicU64,
    dropped: AtomicU64,
}

impl SpanRing {
    /// A ring retaining up to `capacity` spans.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> SpanRing {
        assert!(capacity > 0, "span ring needs capacity");
        SpanRing {
            slots: OnceLock::new(),
            capacity,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total spans ever pushed (including since-overwritten ones).
    pub fn pushed(&self) -> u64 {
        // relaxed-ok: standalone monotone counter read; no data guarded
        self.head.load(Ordering::Relaxed)
    }

    /// Spans dropped because a slot was mid-write (writer contention).
    pub fn dropped(&self) -> u64 {
        // relaxed-ok: standalone monotone counter read; no data guarded
        self.dropped.load(Ordering::Relaxed)
    }

    /// Pushes a span. Lock-free: never blocks, never spins; under slot
    /// contention the span is dropped and counted instead.
    pub fn push(&self, record: SpanRecord) {
        // relaxed-ok: ticket allocation only needs atomicity of the
        // increment; slot ownership is decided by the version CAS below
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slots = self
            .slots
            .get_or_init(|| (0..self.capacity).map(|_| Slot::new()).collect());
        let slot = &slots[(ticket % slots.len() as u64) as usize];
        let v = slot.version.load(Ordering::Acquire);
        if v & 1 == 1
            || slot
                .version
                // relaxed-ok: CAS failure ordering — on failure we drop the
                // span and read nothing the version word guards
                .compare_exchange(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            // relaxed-ok: standalone loss counter; no data guarded
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // relaxed-ok: field stores are ordered by the seqlock protocol —
        // they happen-after the CAS (success=Acquire) and happen-before the
        // Release publication store below; same for the next four stores
        slot.seq.store(ticket, Ordering::Relaxed);
        // relaxed-ok: seqlock field store (see above)
        slot.trace.store(record.trace.0, Ordering::Relaxed);
        slot.packed.store(
            pack(record.stage, record.instance, record.ok),
            // relaxed-ok: seqlock field store (see above)
            Ordering::Relaxed,
        );
        // relaxed-ok: seqlock field store (see above)
        slot.start_us.store(record.start_us, Ordering::Relaxed);
        slot.duration_us
            // relaxed-ok: seqlock field store (see above)
            .store(record.duration_us, Ordering::Relaxed);
        slot.version.store(v + 2, Ordering::Release);
    }

    /// The retained spans, oldest first. Skips slots that are empty or
    /// mid-write at read time.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let Some(slots) = self.slots.get() else {
            return Vec::new(); // nothing was ever pushed
        };
        let mut out: Vec<(u64, SpanRecord)> = Vec::with_capacity(slots.len());
        for slot in slots.iter() {
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 == 0 || v1 & 1 == 1 {
                continue; // never written, or a write is in progress
            }
            // relaxed-ok: seqlock field loads — they happen-after the
            // Acquire version load above, and the Acquire fence below keeps
            // them from sinking past the revalidating load; same for the
            // next four loads
            let seq = slot.seq.load(Ordering::Relaxed);
            // relaxed-ok: seqlock field load (see above)
            let trace = slot.trace.load(Ordering::Relaxed);
            // relaxed-ok: seqlock field load (see above)
            let packed = slot.packed.load(Ordering::Relaxed);
            // relaxed-ok: seqlock field load (see above)
            let start_us = slot.start_us.load(Ordering::Relaxed);
            // relaxed-ok: seqlock field load (see above)
            let duration_us = slot.duration_us.load(Ordering::Relaxed);
            // Without this fence the relaxed field loads above may be
            // reordered after the revalidating version load, defeating the
            // tear check: the reader could validate against a version
            // observed *before* the fields it actually read.
            fence(Ordering::Acquire);
            if slot.version.load(Ordering::Acquire) != v1 {
                continue; // torn read: a writer replaced the slot meanwhile
            }
            let Some((stage, instance, ok)) = unpack(packed) else {
                continue;
            };
            out.push((
                seq,
                SpanRecord {
                    trace: TraceId(trace),
                    stage,
                    instance,
                    start_us,
                    duration_us,
                    ok,
                },
            ));
        }
        out.sort_by_key(|(seq, _)| *seq);
        out.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, stage: Stage, start: u64) -> SpanRecord {
        SpanRecord {
            trace: TraceId(trace),
            stage,
            instance: 3,
            start_us: start,
            duration_us: 17,
            ok: true,
        }
    }

    #[test]
    fn roundtrip_preserves_fields() {
        let ring = SpanRing::new(8);
        let rec = SpanRecord {
            trace: TraceId(0xdead_beef),
            stage: Stage::Lrs,
            instance: u16::MAX,
            start_us: 123_456,
            duration_us: 789,
            ok: false,
        };
        ring.push(rec);
        assert_eq!(ring.snapshot(), vec![rec]);
    }

    #[test]
    fn untouched_ring_reports_its_capacity_and_an_empty_snapshot() {
        let ring = SpanRing::new(8_192);
        assert_eq!(ring.capacity(), 8_192);
        assert!(ring.slots.get().is_none(), "no slots before a push");
        assert_eq!(
            (ring.snapshot(), ring.pushed(), ring.dropped()),
            (vec![], 0, 0)
        );
        ring.push(span(1, Stage::Ua, 1));
        assert_eq!(ring.slots.get().map(|s| s.len()), Some(8_192));
        assert_eq!(ring.capacity(), 8_192);
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let ring = SpanRing::new(4);
        for i in 0..10u64 {
            ring.push(span(i, Stage::Ua, i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4);
        let traces: Vec<u64> = snap.iter().map(|r| r.trace.0).collect();
        assert_eq!(traces, vec![6, 7, 8, 9]);
        assert_eq!(ring.pushed(), 10);
    }

    #[test]
    fn concurrent_pushes_account_for_every_span() {
        use std::sync::Arc;
        let ring = Arc::new(SpanRing::new(1024));
        let threads = 8;
        let per_thread = 2_000u64;
        let joins: Vec<_> = (0..threads)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        ring.push(span(t as u64 * per_thread + i, Stage::Ia, i));
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        // pushed counts every attempt; retained + dropped never exceeds it
        // and the snapshot holds at most capacity coherent records.
        assert_eq!(ring.pushed(), threads as u64 * per_thread);
        let snap = ring.snapshot();
        assert!(snap.len() <= 1024);
        assert!(!snap.is_empty());
        for r in &snap {
            assert_eq!(r.stage, Stage::Ia);
            assert_eq!(r.duration_us, 17);
        }
    }

    #[test]
    fn rerandomize_policy_breaks_id_linkage() {
        let mut rng = SecureRng::from_seed(9);
        let t = TraceId::random(&mut rng);
        let next = TraceIdPolicy::Rerandomize.next_trace(t, &mut rng);
        assert_ne!(t, next);
        let same = TraceIdPolicy::StableAcrossShuffle.next_trace(t, &mut rng);
        assert_eq!(t, same);
    }

    #[test]
    fn stage_labels_are_unique() {
        let labels: std::collections::HashSet<&str> =
            Stage::ALL.iter().map(|s| s.as_str()).collect();
        assert_eq!(labels.len(), Stage::ALL.len());
        for s in Stage::ALL {
            assert_eq!(Stage::from_u8(s as u8), Some(s));
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = SpanRing::new(0);
    }
}
