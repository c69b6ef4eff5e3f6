//! `pprox-wire`: the PProx chain as it serves — UA, IA and LRS nodes
//! behind loopback TCP.
//!
//! This crate is the one way the workspace runs the chain (§5 of the
//! paper: a server part that shuffles, workers at the enclave, something
//! restarting what dies); the differential oracle is the layer
//! transforms of `pprox-core` called directly (`tests/wire_e2e.rs`), and
//! `pprox-net` is a discrete-event simulator for the figure harnesses.
//! Loopback TCP is also the in-process transport: there is no second,
//! in-memory one.
//! Built on `std::net` only (the build environment has no registry,
//! hence no async runtime):
//!
//! * [`frame`] — the versioned, length-prefixed binary codec with
//!   constant-size padding classes (§4.3: on-wire frames of a class are
//!   indistinguishable by length).
//! * [`server`] — a multi-threaded event-driven server: an acceptor
//!   blocking in `accept()`, one reader thread per connection blocking in
//!   `read()`, and a worker pool fed one job per reader pass through a
//!   queue that the [`pprox_core::resilience::AdmissionGate`] bounds
//!   (every queued request holds a permit). Workers only
//!   compute: a [`server::Service`] that has to wait keeps the request's
//!   [`server::Reply`] handle and returns, and whoever finishes the
//!   request answers through it. Graceful drain on shutdown.
//! * [`client`] — a pipelined client: one connection per backend, a
//!   reader thread matching replies to pending calls by correlation id,
//!   continuation-style `submit` with per-call deadlines, the one retry
//!   loop (at most `1 + max_retries` wire attempts per call, jittered by
//!   [`pprox_core::resilience::RetryBackoff`]) and a blocking `call`.
//! * [`timers`] — the node's deadline queue: the one thread that expires
//!   pending calls and runs retry delays, so nothing on the serving path
//!   sleeps.
//! * [`balancer`] — round-robin selection over real sockets; a retry goes
//!   to the next slot. (Crate graph: `wire` → `core`, `lrs`, `sgx`,
//!   `crypto`, `json`; `pprox-net` is used by `bench` and `attack` only.)
//! * [`audit`] — ground-truth departure logging for the traffic-analysis
//!   audit (`pprox-scenario`): off by default, fingerprint + timing only.
//! * [`services`] — the UA, IA, and LRS frame handlers. Their file split
//!   mirrors the enclave layer split so the `pprox-analysis` privacy
//!   rules apply: the UA service never names an item API, the IA service
//!   never names a user API, and telemetry uses histogram-only recording
//!   (no arrival-timestamped spans).
//! * [`cluster`] — the loopback harness: launches 1–4 real server
//!   instances per layer on `127.0.0.1` and wires them into a full
//!   chain. The repo's benchmark (`benchmark/`), the scenario harness,
//!   the fault drills and the report binaries all drive this.
//! * [`scrape`] — the cluster observability plane and its one metrics
//!   document: every node answers a padded `Control`-class metrics
//!   scrape over the same frame protocol (wire-indistinguishable from
//!   other control traffic) with its [`scrape::NodeMetrics`] document;
//!   [`scrape::ClusterSnapshot::merged`] folds the nodes' documents into
//!   one under the same schema, and [`scrape::prometheus_text`] renders
//!   either as Prometheus text.
//! * [`supervisor`] — the kill/respawn loop: probes each instance's
//!   listener and, behind it, the node's enclave; rebuilds dead ones (a
//!   proxy node loads and re-attests a fresh enclave, a durable LRS
//!   unseals and replays from disk), and readmits them to the balancer
//!   rings — the loopback stand-in for the paper's Kubernetes ReplicaSet
//!   + Service pair.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod audit;
pub mod balancer;
pub mod client;
pub mod cluster;
pub mod frame;
pub mod router;
pub mod scrape;
pub mod server;
pub mod services;
pub mod supervisor;
pub mod timers;

pub use audit::{AnswerEvent, AuditEvent, LinkageAudit};
pub use balancer::{ClientStats, SocketBalancer};
pub use client::{CallResult, ClientConfig, PooledClient};
pub use cluster::{ClusterConfig, LoopbackCluster};
pub use frame::{Frame, FrameError, PadClass, HEADER_LEN, WIRE_VERSION};
pub use router::ShardRouter;
pub use scrape::{
    validate_scrape_snapshot, ClusterScraper, ClusterSnapshot, NodeMetrics, NodeSnapshot,
    PressureSample, ScrapeError, ShardGaugeFn,
};
pub use server::{FrameHandler, Reply, ServerConfig, Service, WireServer};
pub use supervisor::{RespawnEvent, Supervisor};
pub use timers::DeadlineQueue;

/// Wire-level request outcome carried in `Control`-class response frames.
///
/// A server answers every request frame: success payloads travel in
/// `Response`-class frames, failures as one of these codes in a
/// `Control`-class frame. Both are constant-size, so an observer cannot
/// tell outcomes apart by length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireStatus {
    /// Load shed at the admission gate — retryable.
    Busy,
    /// The request's deadline expired before completion.
    Deadline,
    /// A dependency (LRS, next hop) is unavailable or shedding.
    Unavailable,
    /// The request frame or envelope failed to parse.
    Malformed,
    /// The request was processed and definitively failed.
    Failed,
}

impl WireStatus {
    /// Stable wire tag.
    pub fn as_str(self) -> &'static str {
        match self {
            WireStatus::Busy => "busy",
            WireStatus::Deadline => "deadline",
            WireStatus::Unavailable => "unavailable",
            WireStatus::Malformed => "malformed",
            WireStatus::Failed => "failed",
        }
    }

    /// Parses a wire tag.
    pub fn parse(s: &str) -> Option<WireStatus> {
        match s {
            "busy" => Some(WireStatus::Busy),
            "deadline" => Some(WireStatus::Deadline),
            "unavailable" => Some(WireStatus::Unavailable),
            "malformed" => Some(WireStatus::Malformed),
            "failed" => Some(WireStatus::Failed),
            _ => None,
        }
    }

    /// Whether a client may retry the request (possibly elsewhere).
    pub fn retryable(self) -> bool {
        matches!(self, WireStatus::Busy | WireStatus::Unavailable)
    }

    /// Serializes to a `Control`-frame payload.
    pub fn to_payload(self) -> Vec<u8> {
        pprox_json::Value::object([("e", pprox_json::Value::from(self.as_str()))])
            .to_json()
            .into_bytes()
    }

    /// Parses a `Control`-frame payload.
    pub fn from_payload(payload: &[u8]) -> Option<WireStatus> {
        let text = std::str::from_utf8(payload).ok()?;
        let v = pprox_json::Value::parse(text).ok()?;
        WireStatus::parse(v.get("e")?.as_str()?)
    }
}

impl std::fmt::Display for WireStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Transport-layer failure of one wire call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Socket-level failure (connect, read, write, EOF). Carries the
    /// `std::io::ErrorKind` plus a short phase tag ("connect", "read"…).
    Io {
        /// Which phase of the call failed.
        phase: &'static str,
        /// The underlying error kind.
        kind: std::io::ErrorKind,
    },
    /// The peer sent bytes the codec rejected.
    Frame(FrameError),
    /// The call's deadline expired (including backoff that no longer
    /// fits the remaining budget).
    Deadline,
    /// The server answered with an error status.
    Remote(WireStatus),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io { phase, kind } => write!(f, "io error during {phase}: {kind:?}"),
            WireError::Frame(e) => write!(f, "frame error: {e}"),
            WireError::Deadline => write!(f, "wire call deadline expired"),
            WireError::Remote(s) => write!(f, "remote error: {s}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        WireError::Frame(e)
    }
}

impl WireError {
    /// Whether the failure may be retried on another connection or
    /// backend: transport-level failures and retryable remote statuses.
    pub fn retryable(&self) -> bool {
        match self {
            WireError::Io { .. } | WireError::Frame(_) => true,
            WireError::Remote(s) => s.retryable(),
            WireError::Deadline => false,
        }
    }

    /// Maps to the core error vocabulary for callers speaking
    /// [`pprox_core::PProxError`].
    pub fn to_pprox(&self) -> pprox_core::PProxError {
        match self {
            WireError::Deadline => pprox_core::PProxError::Deadline,
            WireError::Remote(WireStatus::Busy) => pprox_core::PProxError::Overloaded,
            WireError::Remote(WireStatus::Deadline) => pprox_core::PProxError::Deadline,
            WireError::Remote(WireStatus::Malformed) => pprox_core::PProxError::MalformedMessage,
            WireError::Remote(WireStatus::Unavailable) | WireError::Io { .. } => {
                pprox_core::PProxError::Unavailable
            }
            WireError::Remote(WireStatus::Failed) => pprox_core::PProxError::Unavailable,
            WireError::Frame(_) => pprox_core::PProxError::MalformedMessage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_payload_roundtrip() {
        for s in [
            WireStatus::Busy,
            WireStatus::Deadline,
            WireStatus::Unavailable,
            WireStatus::Malformed,
            WireStatus::Failed,
        ] {
            assert_eq!(WireStatus::from_payload(&s.to_payload()), Some(s));
        }
        assert_eq!(WireStatus::from_payload(b"not json"), None);
    }

    #[test]
    fn retryability_matches_semantics() {
        assert!(WireStatus::Busy.retryable());
        assert!(!WireStatus::Malformed.retryable());
        assert!(WireError::Io {
            phase: "read",
            kind: std::io::ErrorKind::ConnectionReset
        }
        .retryable());
        assert!(!WireError::Deadline.retryable());
    }
}
