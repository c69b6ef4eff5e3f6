//! Ground-truth capture for the traffic-analysis audit.
//!
//! The scenario harness (`pprox-scenario`) taps the UA→IA wire and mounts
//! a linkage attack on the frame timings it records. Scoring that attack
//! needs an answer key: which tapped egress frame actually carried which
//! request. Padded frames and per-hop correlation ids make that mapping
//! invisible on the wire (by design), so the harness asks the UA service
//! itself — under an explicit, off-by-default audit flag — to log one
//! event per request as it leaves the shuffle stage: the request's
//! fingerprint plus the departure instant. The response edge is audited
//! from the same log: one event per answer the shuffle stage releases,
//! with the instant it reached the UA (an observer of the IA→UA link can
//! pair that frame with the tapped request) and the instant its reply
//! left for the client.
//!
//! The fingerprint is a SHA-256 prefix of the *client envelope frame
//! bytes*: the harness, which encoded those bytes, computes the same
//! fingerprint independently and joins the two views. Nothing here
//! decrypts anything or names a plaintext id; the log is timing + hash
//! only, and the adversary model never sees it — it scores the adversary.

use parking_lot::Mutex;
use pprox_crypto::sha256;

/// One audited event: a request (by fingerprint) leaving the UA's
/// request-path shuffle toward the IA tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditEvent {
    /// [`request_fingerprint`] of the client envelope frame bytes.
    pub fp: u64,
    /// Departure instant, microseconds on the cluster telemetry clock.
    pub at_us: u64,
    /// The request batch it left in (numbered per UA instance from 1);
    /// zero for an unshuffled request.
    pub batch: u64,
}

/// One audited answer: the reply to a request (by fingerprint) passing
/// through the UA's response-path shuffle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnswerEvent {
    /// [`request_fingerprint`] of the request it answers.
    pub fp: u64,
    /// Instant the IA's answer (or the call's failure) reached the UA.
    pub arrived_us: u64,
    /// Instant the release it left in began; shared by that release's
    /// answers, which are logged in the order they were written.
    pub left_us: u64,
}

/// Departure and answer logs of one UA instance (ground truth for the
/// linkage scorer). Cheap when unused: the cluster only allocates one
/// when its `linkage_audit` flag is set.
#[derive(Debug, Default)]
pub struct LinkageAudit {
    departures: Mutex<Vec<AuditEvent>>,
    answers: Mutex<Vec<AnswerEvent>>,
}

impl LinkageAudit {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a request leaving the shuffle stage at `at_us`, in request
    /// batch `batch`.
    pub fn record_departure(&self, fp: u64, batch: u64, at_us: u64) {
        self.departures.lock().push(AuditEvent { fp, at_us, batch });
    }

    /// Records an answer that reached the UA at `arrived_us` leaving for
    /// its client in the release that began at `left_us`.
    pub fn record_answer(&self, fp: u64, arrived_us: u64, left_us: u64) {
        let event = AnswerEvent {
            fp,
            arrived_us,
            left_us,
        };
        self.answers.lock().push(event);
    }

    /// Snapshot of every shuffled answer so far, in release order.
    pub fn answers(&self) -> Vec<AnswerEvent> {
        self.answers.lock().clone()
    }

    /// Snapshot of every departure so far, sorted by time.
    pub fn departures(&self) -> Vec<AuditEvent> {
        let mut events = self.departures.lock().clone();
        events.sort_by_key(|e| e.at_us);
        events
    }

    /// Departures recorded so far.
    pub fn len(&self) -> usize {
        self.departures.lock().len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.departures.lock().is_empty()
    }
}

/// First eight bytes of SHA-256 over a request's client-envelope frame
/// bytes, as a big-endian `u64`. Collision-safe at harness scales
/// (thousands of requests against a 64-bit space).
pub fn request_fingerprint(frame_payload: &[u8]) -> u64 {
    let d = sha256::digest(frame_payload);
    u64::from_be_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let a = request_fingerprint(b"frame-a");
        assert_eq!(a, request_fingerprint(b"frame-a"));
        assert_ne!(a, request_fingerprint(b"frame-b"));
    }

    #[test]
    fn departures_come_back_time_sorted() {
        let log = LinkageAudit::new();
        log.record_departure(1, 2, 300);
        log.record_departure(2, 1, 100);
        log.record_departure(3, 1, 200);
        let events = log.departures();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.at_us).collect::<Vec<_>>(),
            vec![100, 200, 300]
        );
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
    }
}
