//! The cluster observability plane: per-node metrics capture, the
//! padded Control-frame scrape protocol, and the one metrics document.
//!
//! Every [`crate::server::WireServer`] owns a [`NodeMetrics`] hub that
//! the serving hot paths update lock-free: accept rate, open
//! connections, reader pass latency, job-queue depth high-water,
//! admission sheds, worker busy time, uplink client reconnect/retry
//! counters, UA shuffle-buffer occupancy and flush causes, and the
//! supervisor's probe/respawn history. A node answers a *metrics
//! scrape* over the existing frame protocol: the request is one
//! `Control`-class frame carrying [`SCRAPE_QUERY`], the response is a
//! sequence of `Control`-class frames each holding one chunk of the
//! node's snapshot JSON. Every frame — request and every response
//! chunk — is exactly [`PadClass::Control`]'s constant wire length, so
//! scrape traffic is indistinguishable in size from the busy/deadline
//! control frames the cluster already emits (§4.3's padded-message
//! discipline extends to the ops surface). A scrape moves the node's
//! `scrapes` counter and no other.
//!
//! A proxy node's hub exports the stage histograms that node recorded
//! and no other's: each UA and IA node records into its own
//! [`Telemetry`], and an LRS node, which times nothing, renders all
//! seven stages empty.
//!
//! [`NodeMetrics::snapshot_json`] emits the only metrics document there
//! is, and [`snapshot_schema`] is its only schema: a field is declared
//! in those two places. Counters are monotone aggregates, latencies are
//! bucketed log-linear histograms ([`HistogramSnapshot`] cells), and
//! nothing per-request — no correlation ids, no trace ids, no raw
//! arrival timestamps — can appear without failing validation. The
//! `pprox-attack` scrape audit additionally plays the §6.2 adversary
//! *with scrape output as side information* and holds it to the `1/S`
//! linkage bound.
//!
//! [`ClusterScraper`] polls every node; [`ClusterSnapshot::merged`]
//! folds the node documents into one document under the same schema
//! (the cluster view) — counters add, high-water marks take the
//! maximum, histograms, the stages among them, add cell by cell — and
//! [`prometheus_text`] renders any such document as Prometheus text,
//! which [`validate_prometheus`] checks.

use crate::balancer::SocketBalancer;
use crate::frame::{decode_stream, Frame, FrameError, PadClass};
use parking_lot::Mutex;
use pprox_core::shuffler::FlushReason;
use pprox_core::telemetry::histogram::NUM_BUCKETS;
use pprox_core::telemetry::{HistogramSnapshot, LatencyHistogram, Stage, Telemetry};
use pprox_json::schema::{ensure, integers, list, number, Schema};
use pprox_json::Value;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
// analysis-allow: R6 the node's start instant is the uptime origin the
// scrape reports elapsed time against — a deployment-level clock, not a
// per-request arrival capture (those stay histogram-only).
use std::time::{Duration, Instant};

/// Schema version of the per-node scrape snapshot document.
///
/// v2 added the `shard` section: per-shard event/query totals plus the
/// incremental trainer's dirty-list depth and ingest-lag gauges —
/// aggregates of the node's own partition only, no routing keys. v3
/// dropped the `layers` array (nothing ever registered a layer) and
/// closed `node.tier` to the four tier names. v4 added
/// `server.encode_failures`, and the document became the cluster view's
/// too ([`ClusterSnapshot::merged`]). v5 dropped the `client_encrypt`
/// and `e2e` stages, which only a driver's clients ever filled. v6 split
/// the IA's get-response ECALLs out of `ia` into their own `ia_response`.
/// v7 dropped `node.telemetry_group`: a node exports only the stages it
/// recorded, so the merge adds them like any other histogram.
pub const SCRAPE_SCHEMA_VERSION: u64 = 7;

/// Every value `node.tier` may take: the three cluster tiers, and `node`
/// for a hub outside any cluster ([`NodeMetrics::detached`]).
const TIERS: [&str; 4] = ["ua", "ia", "lrs", "node"];

/// Source of one LRS shard's gauges, attached to the shard node's hub.
pub type ShardGaugeFn = Arc<dyn Fn() -> pprox_lrs::shard::ShardGauges + Send + Sync>;

/// The payload of a metrics-scrape request frame.
pub const SCRAPE_QUERY: &[u8] = br#"{"q":"metrics"}"#;

/// Chunk header: `seq` (u16 BE) then `total` (u16 BE).
const CHUNK_HEADER: usize = 4;

/// The scraper's socket read buffer: a hundred chunk frames per read.
const READ_BUF: usize = 16 * 1024;

/// Snapshot bytes carried per Control-class chunk frame.
fn chunk_data_len() -> usize {
    PadClass::Control.max_payload() - CHUNK_HEADER
}

/// `true` when `frame` is a metrics-scrape request.
pub fn is_scrape_request(frame: &Frame) -> bool {
    frame.class == PadClass::Control && frame.payload == SCRAPE_QUERY
}

/// Builds the scrape request frame for a correlation id.
pub fn scrape_request(corr: u64) -> Frame {
    // Literal construction: the query fits the control class and `encode`
    // re-validates with a typed error — no panic site (R13).
    Frame {
        class: PadClass::Control,
        corr,
        payload: SCRAPE_QUERY.to_vec(),
    }
}

/// Splits a snapshot document into Control-class chunk frames, all with
/// the same correlation id and all exactly the control class's constant
/// wire length.
pub fn scrape_response_frames(corr: u64, snapshot_json: &str) -> Vec<Frame> {
    let data = snapshot_json.as_bytes();
    let per = chunk_data_len();
    let total = data.chunks(per).count().max(1).min(u16::MAX as usize);
    data.chunks(per)
        .take(total)
        .enumerate()
        .map(|(seq, chunk)| {
            let mut payload = Vec::with_capacity(CHUNK_HEADER + chunk.len());
            payload.extend_from_slice(&(seq as u16).to_be_bytes());
            payload.extend_from_slice(&(total as u16).to_be_bytes());
            payload.extend_from_slice(chunk);
            // Chunks are sized to the class; `encode` re-validates with a
            // typed error, so the scrape path carries no panic site (R13).
            Frame {
                class: PadClass::Control,
                corr,
                payload,
            }
        })
        .collect()
}

/// Why a scrape failed.
#[derive(Debug)]
pub enum ScrapeError {
    /// Socket-level failure, tagged with the phase that hit it.
    Io {
        /// `connect`, `write`, or `read`.
        phase: &'static str,
        /// The OS error kind.
        kind: ErrorKind,
    },
    /// The peer sent bytes that do not decode as a frame.
    Frame(FrameError),
    /// The frames decoded but violate the chunk protocol or the
    /// snapshot schema.
    Protocol(String),
}

impl std::fmt::Display for ScrapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScrapeError::Io { phase, kind } => write!(f, "scrape {phase} failed: {kind}"),
            ScrapeError::Frame(e) => write!(f, "scrape frame error: {e}"),
            ScrapeError::Protocol(msg) => write!(f, "scrape protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ScrapeError {}

impl From<FrameError> for ScrapeError {
    fn from(e: FrameError) -> Self {
        ScrapeError::Frame(e)
    }
}

/// The per-node metrics hub. One lives inside every
/// [`crate::server::WireServer`]; the serving layers update it
/// lock-free and the scraping connection's reader thread renders it
/// into the scrape response.
///
/// Everything here is an aggregate: monotone counters, gauges, and
/// log-linear histograms. Per-request identifiers never enter this
/// structure — [`validate_scrape_snapshot`] enforces the same property
/// on the way out.
pub struct NodeMetrics {
    tier: String,
    index: usize,
    /// What the node was wired to at launch (and re-wired to on a
    /// respawn); a snapshot copies the handles out and reads them with
    /// the lock released.
    wiring: Mutex<Wiring>,
    // Server internals.
    accepted: AtomicU64,
    open_connections: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    shed: AtomicU64,
    protocol_errors: AtomicU64,
    encode_failures: AtomicU64,
    queue_depth: AtomicU64,
    queue_depth_high_water: AtomicU64,
    workers: AtomicU64,
    worker_busy_us: AtomicU64,
    poll_loop: LatencyHistogram,
    // UA shuffle stage.
    shuffle_occupancy: AtomicU64,
    shuffle_high_water: AtomicU64,
    flush_full: AtomicU64,
    flush_timeout: AtomicU64,
    flush_drain: AtomicU64,
    // Supervisor history for this node.
    probe_failures: AtomicU64,
    respawns: AtomicU64,
    // The scrape itself.
    scrapes: AtomicU64,
    // analysis-allow: R6 uptime origin, not a per-request timestamp
    started: Instant,
}

/// The sources a node's snapshot reads besides its own counters.
#[derive(Clone, Default)]
struct Wiring {
    telemetry: Option<Arc<Telemetry>>,
    uplinks: Vec<Arc<SocketBalancer>>,
    shard_gauges: Option<ShardGaugeFn>,
}

impl std::fmt::Debug for NodeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeMetrics")
            .field("tier", &self.tier)
            .field("index", &self.index)
            .finish()
    }
}

impl NodeMetrics {
    /// A hub for the node `tier`/`index`; `tier` is `ua`, `ia` or `lrs`
    /// (the scrape validator accepts no other label).
    pub fn new(tier: impl Into<String>, index: usize) -> Self {
        NodeMetrics {
            tier: tier.into(),
            index,
            wiring: Mutex::new(Wiring::default()),
            accepted: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            encode_failures: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_depth_high_water: AtomicU64::new(0),
            workers: AtomicU64::new(0),
            worker_busy_us: AtomicU64::new(0),
            poll_loop: LatencyHistogram::new(),
            shuffle_occupancy: AtomicU64::new(0),
            shuffle_high_water: AtomicU64::new(0),
            flush_full: AtomicU64::new(0),
            flush_timeout: AtomicU64::new(0),
            flush_drain: AtomicU64::new(0),
            probe_failures: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            scrapes: AtomicU64::new(0),
            // analysis-allow: R6 node start time is the uptime origin
            started: Instant::now(),
        }
    }

    /// A hub for a standalone server outside any cluster (tests, tools).
    pub fn detached() -> Self {
        NodeMetrics::new("node", 0)
    }

    /// Attaches the telemetry hub this node's service records into, whose
    /// stage histograms the node's snapshot exports.
    pub fn attach_telemetry(&self, telemetry: Arc<Telemetry>) {
        self.wiring.lock().telemetry = Some(telemetry);
    }

    /// The telemetry hub this node records into, if it records stages.
    pub(crate) fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.wiring.lock().telemetry.clone()
    }

    /// Registers an uplink balancer whose client counters (reconnects,
    /// retries, deadline clamps) this node reports.
    pub fn attach_uplink(&self, balancer: Arc<SocketBalancer>) {
        self.wiring.lock().uplinks.push(balancer);
    }

    /// Attaches the gauge source of the LRS shard this node fronts.
    /// Re-attached on every respawn (the hub outlives the instance);
    /// the latest source wins. Unattached nodes report zeros.
    pub fn attach_shard_gauges(&self, gauges: ShardGaugeFn) {
        self.wiring.lock().shard_gauges = Some(gauges);
    }

    /// Records an accepted connection.
    pub fn on_accept(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Updates the open-connection gauge.
    pub fn set_open_connections(&self, n: u64) {
        self.open_connections.store(n, Ordering::Relaxed);
    }

    /// Records one fully read request frame.
    pub fn on_frame_in(&self) {
        self.frames_in.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` fully written response frames.
    pub fn on_frames_out(&self, n: u64) {
        self.frames_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a request shed at the gate or queue.
    pub fn on_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection dropped for malformed framing.
    pub fn on_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a reply frame that did not encode and was answered
    /// `failed` in its place.
    pub fn on_encode_failure(&self) {
        self.encode_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` requests into the worker queue — before the send that
    /// queues them, so a worker that takes them first cannot count them
    /// out before they were counted in. Returns the depth with them in.
    pub fn on_enqueue(&self, n: u64) -> u64 {
        self.queue_depth.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Folds the depth [`on_enqueue`](Self::on_enqueue) returned into the
    /// high-water mark, once its requests are really queued.
    pub fn on_queued(&self, depth: u64) {
        self.queue_depth_high_water
            .fetch_max(depth, Ordering::Relaxed);
    }

    /// Counts `n` requests out of the worker queue: a worker took them,
    /// or the send that was to queue them failed.
    pub fn on_dequeue(&self, n: u64) {
        self.queue_depth.fetch_sub(n, Ordering::Relaxed);
    }

    /// Declares the worker-pool size (for busy-fraction math).
    pub fn set_workers(&self, n: u64) {
        self.workers.store(n, Ordering::Relaxed);
    }

    /// Adds handler time to the worker busy accumulator.
    pub fn add_worker_busy_us(&self, us: u64) {
        self.worker_busy_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Records one busy reader pass: from a socket read returning bytes
    /// to the last complete frame in them admitted or answered. (The
    /// `poll_loop` schema key predates the per-connection readers.)
    pub fn record_poll_pass_us(&self, us: u64) {
        self.poll_loop.record(us);
    }

    /// Updates the shuffle-buffer occupancy gauge, folding it into the
    /// high-water mark.
    pub fn set_shuffle_occupancy(&self, n: u64) {
        self.shuffle_occupancy.store(n, Ordering::Relaxed);
        self.shuffle_high_water.fetch_max(n, Ordering::Relaxed);
    }

    /// Records a shuffle flush by cause.
    pub fn on_flush(&self, reason: FlushReason) {
        match reason {
            FlushReason::Full => &self.flush_full,
            FlushReason::Timeout => &self.flush_timeout,
            FlushReason::Drain => &self.flush_drain,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Records a failed supervisor liveness probe against this node.
    pub fn on_probe_failure(&self) {
        self.probe_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a supervisor respawn of this node.
    pub fn on_respawn(&self) {
        self.respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one served metrics scrape.
    pub fn on_scrape(&self) {
        self.scrapes.fetch_add(1, Ordering::Relaxed);
    }

    /// Scrapes served so far.
    pub fn scrapes(&self) -> u64 {
        self.scrapes.load(Ordering::Relaxed)
    }

    /// Failed liveness probes recorded so far.
    pub fn probe_failures(&self) -> u64 {
        self.probe_failures.load(Ordering::Relaxed)
    }

    /// Renders the node snapshot document (already validated shape:
    /// `validate_scrape_snapshot` accepts everything this emits).
    pub fn snapshot_json(&self) -> Value {
        let load = |a: &AtomicU64| Value::from(a.load(Ordering::Relaxed));
        // analysis-allow: R12 written at wiring time only; held here for
        // three handle clones, never while a source is read
        let wiring = self.wiring.lock().clone();
        let (reconnects, retries, clamps) =
            wiring.uplinks.iter().fold((0u64, 0u64, 0u64), |acc, b| {
                let s = b.client_stats();
                (
                    acc.0 + s.reconnects,
                    acc.1 + s.retries,
                    acc.2 + s.deadline_clamps,
                )
            });
        // A node that records no stage renders all seven empty, so every
        // document has one key set and a detached hub's is the merge's
        // identity.
        let stages = match &wiring.telemetry {
            Some(telemetry) => telemetry.stages().snapshot(),
            None => Stage::ALL.map(|s| (s, HistogramSnapshot::empty())).to_vec(),
        };
        let stages = stages
            .iter()
            .map(|(stage, snap)| (stage.as_str(), histogram_to_value(snap)));
        let shard = wiring.shard_gauges.map(|f| f()).unwrap_or_default();
        Value::object([
            ("report", Value::from("node-metrics")),
            ("schema_version", Value::from(SCRAPE_SCHEMA_VERSION)),
            (
                "node",
                Value::object([
                    ("tier", Value::from(self.tier.as_str())),
                    ("index", Value::from(self.index as u64)),
                ]),
            ),
            (
                "uptime_us",
                Value::from(self.started.elapsed().as_micros() as u64),
            ),
            (
                "server",
                Value::object([
                    ("accepted", load(&self.accepted)),
                    ("open_connections", load(&self.open_connections)),
                    ("frames_in", load(&self.frames_in)),
                    ("frames_out", load(&self.frames_out)),
                    ("shed", load(&self.shed)),
                    ("protocol_errors", load(&self.protocol_errors)),
                    ("encode_failures", load(&self.encode_failures)),
                    ("queue_depth", load(&self.queue_depth)),
                    ("queue_depth_high_water", load(&self.queue_depth_high_water)),
                    ("workers", load(&self.workers)),
                    ("worker_busy_us", load(&self.worker_busy_us)),
                    ("poll_loop", histogram_to_value(&self.poll_loop.snapshot())),
                ]),
            ),
            (
                "client",
                Value::object([
                    ("reconnects", Value::from(reconnects)),
                    ("retries", Value::from(retries)),
                    ("deadline_clamps", Value::from(clamps)),
                ]),
            ),
            (
                "shuffle",
                Value::object([
                    ("occupancy", load(&self.shuffle_occupancy)),
                    ("high_water", load(&self.shuffle_high_water)),
                    ("flush_full", load(&self.flush_full)),
                    ("flush_timeout", load(&self.flush_timeout)),
                    ("flush_drain", load(&self.flush_drain)),
                ]),
            ),
            (
                "supervisor",
                Value::object([
                    ("probe_failures", load(&self.probe_failures)),
                    ("respawns", load(&self.respawns)),
                ]),
            ),
            (
                // This node's own partition, aggregates only: event and
                // query totals plus trainer depth/lag gauges. No routing
                // keys, no per-pseudonym anything — the shard-skew audit
                // reads exactly these.
                "shard",
                Value::object([
                    ("events", Value::from(shard.events)),
                    ("queries", Value::from(shard.queries)),
                    ("dirty", Value::from(shard.dirty)),
                    ("lag_us", Value::from(shard.lag_us)),
                ]),
            ),
            ("scrapes", load(&self.scrapes)),
            ("stages", Value::object(stages)),
        ])
    }
}

/// Renders a histogram snapshot as bucketed aggregates: sparse
/// `[bucket_index, count]` pairs plus totals. Bucket indices are
/// positions in the fixed log-linear layout, never raw values.
fn histogram_to_value(snap: &HistogramSnapshot) -> Value {
    let counts: Value = snap
        .bucket_counts()
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| Value::Array(vec![Value::from(i as u64), Value::from(c)]))
        .collect();
    Value::object([
        ("counts", counts),
        ("sum_us", Value::from(snap.sum_us())),
        ("max_us", Value::from(snap.max_us())),
    ])
}

/// Rebuilds a histogram snapshot from its scrape encoding. Total on any
/// value, so neither the merge nor the renderer needs validated input:
/// cells outside the layout are dropped and counts saturate.
fn histogram_from_value(v: &Value) -> HistogramSnapshot {
    let mut counts = vec![0u64; NUM_BUCKETS];
    for pair in v
        .get("counts")
        .and_then(Value::as_array)
        .unwrap_or_default()
    {
        if let (Ok(index), Ok(count)) = (number(pair, "0"), number(pair, "1")) {
            if let Some(cell) = counts.get_mut(index as usize) {
                *cell = cell.saturating_add(count as u64);
            }
        }
    }
    let at = |key| number(v, key).map_or(0, |n| n as u64);
    HistogramSnapshot::from_parts(counts, at("sum_us"), at("max_us"))
}

/// A histogram's scrape encoding ([`histogram_to_value`]).
fn histogram_schema() -> Schema {
    let counts = Schema::array(Schema::array(Schema::U64)).with(bucket_cells);
    Schema::object(integers("sum_us max_us").chain([("counts", counts)]))
}

/// `counts` holds `[index, count]` pairs whose indices are strictly
/// increasing inside the bucket layout: repeated or unordered indices
/// could smuggle ordering information.
fn bucket_cells(counts: &Value) -> Result<(), String> {
    let mut next = 0.0;
    for (i, pair) in list(counts, "")?.iter().enumerate() {
        let pair_len = list(pair, "")?.len();
        ensure(
            pair_len == 2,
            format!("entry {i}: not an [index, count] pair"),
        )?;
        let (index, layout) = (number(pair, "0")?, NUM_BUCKETS as f64);
        ensure(
            index < layout,
            format!("entry {i}: {index} outside bucket layout"),
        )?;
        ensure(index >= next, format!("entry {i}: indices not increasing"))?;
        next = index + 1.0;
    }
    Ok(())
}

/// The scrape document's schema, next to its emitter
/// [`NodeMetrics::snapshot_json`]: exact key sets at every level,
/// `node.tier` one of the four tier names (a free-form label would be a
/// whitelisted place for an identifier to live), one histogram under
/// each [`Stage`] label, bucketed aggregates only.
pub fn snapshot_schema() -> Schema {
    let node = integers("index").chain([("tier", Schema::one_of(TIERS))]);
    let server = integers(
        "accepted open_connections frames_in frames_out shed protocol_errors encode_failures \
         queue_depth queue_depth_high_water workers worker_busy_us",
    );
    let shuffle = integers("occupancy high_water flush_full flush_timeout flush_drain");
    Schema::object(integers("uptime_us scrapes").chain([
        ("report", Schema::one_of(["node-metrics"])),
        ("schema_version", Schema::version(SCRAPE_SCHEMA_VERSION)),
        ("node", Schema::object(node)),
        (
            "server",
            Schema::object(server.chain([("poll_loop", histogram_schema())])),
        ),
        (
            "client",
            Schema::object(integers("reconnects retries deadline_clamps")),
        ),
        ("shuffle", Schema::object(shuffle)),
        (
            "supervisor",
            Schema::object(integers("probe_failures respawns")),
        ),
        (
            "shard",
            Schema::object(integers("events queries dirty lag_us")),
        ),
        (
            "stages",
            Schema::object(Stage::ALL.map(|s| (s.as_str(), histogram_schema()))),
        ),
    ]))
}

/// Validates a metrics document against [`snapshot_schema`].
/// Anything a snapshot is not allowed to carry — per-request correlation
/// or trace ids, raw per-request timestamps, arrival sequences — has no
/// whitelisted place to live and fails here by construction.
///
/// # Errors
///
/// The first violation, named by its path.
pub fn validate_scrape_snapshot(root: &Value) -> Result<(), String> {
    snapshot_schema().check(root)
}

/// One node's scraped snapshot.
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    /// Node name as registered with the scraper (e.g. `ua0`).
    pub name: String,
    /// The parsed snapshot document.
    pub json: Value,
}

/// A point-in-time cluster pressure sample, read off
/// [`ClusterSnapshot::merged`]: gauges summed across nodes, high-water
/// marks the cluster maximum. The scenario harness records one per
/// window to build the pressure timeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PressureSample {
    /// Nodes that answered the scrape.
    pub nodes: usize,
    /// Sum of per-node worker-queue depth gauges.
    pub queue_depth: u64,
    /// Maximum per-node queue-depth high-water mark.
    pub queue_depth_high_water: u64,
    /// Total requests shed at gates and queues.
    pub shed: u64,
    /// Sum of shuffle-buffer occupancy gauges.
    pub shuffle_occupancy: u64,
    /// Maximum per-node shuffle occupancy high-water mark.
    pub shuffle_high_water: u64,
    /// Sum of open-connection gauges.
    pub open_connections: u64,
    /// Total request frames read by all nodes.
    pub frames_in: u64,
}

/// The leaves the cluster view takes the maximum of across nodes: the
/// high-water marks, the worst ingest lag and the oldest uptime. Every
/// other integer leaf, counter or gauge, adds up, and histograms merge
/// cell by cell. This is the merge's one rule.
const MAXIMA: [&str; 4] = [
    "uptime_us",
    "server.queue_depth_high_water",
    "shuffle.high_water",
    "shard.lag_us",
];

/// The sections of a metrics document that are not one node's load but
/// its identity, which the cluster view sets itself. The leaf merge and
/// the Prometheus leaf series both leave them out.
const NOT_LEAVES: [&str; 2] = ["schema_version", "node"];

/// Snapshots from one cluster-wide scrape pass.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    /// Per-node snapshots, in scrape order.
    pub nodes: Vec<NodeSnapshot>,
    /// Names of nodes that did not answer (killed or respawning).
    pub unreachable: Vec<String>,
}

impl ClusterSnapshot {
    /// Validates every node snapshot and requires full coverage.
    ///
    /// # Errors
    ///
    /// The first schema violation, or the first unreachable node.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(name) = self.unreachable.first() {
            return Err(format!("node {name} did not answer the scrape"));
        }
        for node in &self.nodes {
            validate_scrape_snapshot(&node.json).map_err(|e| format!("{}: {e}", node.name))?;
        }
        Ok(())
    }

    /// The cluster view: the node documents merged into one document of
    /// the same schema ([`snapshot_schema`]). Leaf by leaf, integers add
    /// up except the `MAXIMA` paths, and histograms — `server.poll_loop`
    /// and each stage alike — add cell by cell: every node exports only
    /// the samples it took. The merged `node` is that of a hub outside
    /// any tier: `node`, index 0.
    pub fn merged(&self) -> Value {
        // An idle detached hub's document is the merge's identity: every
        // counter 0, every histogram empty, and the `node` label the
        // merge keeps.
        let mut merged = NodeMetrics::detached().snapshot_json();
        for node in &self.nodes {
            merge_leaves(&mut merged, &node.json, "");
        }
        merged
    }

    /// The gauges that make up one pressure-timeline window, read off
    /// the cluster view.
    pub fn pressure(&self) -> PressureSample {
        let merged = self.merged();
        let at = |path| number(&merged, path).map_or(0, |n| n as u64);
        PressureSample {
            nodes: self.nodes.len(),
            queue_depth: at("server.queue_depth"),
            queue_depth_high_water: at("server.queue_depth_high_water"),
            shed: at("server.shed"),
            shuffle_occupancy: at("shuffle.occupancy"),
            shuffle_high_water: at("shuffle.high_water"),
            open_connections: at("server.open_connections"),
            frames_in: at("server.frames_in"),
        }
    }
}

/// Folds the leaves of `doc` at `path` into `acc` under the merge rule
/// ([`MAXIMA`]). Only what `acc` holds is read from `doc`, so whatever a
/// node sent, the merged document keeps the schema's key set.
fn merge_leaves(acc: &mut Value, doc: &Value, path: &str) {
    if acc.get("counts").is_some() {
        let mut sum = histogram_from_value(acc);
        sum.merge(&histogram_from_value(doc));
        *acc = histogram_to_value(&sum);
        return;
    }
    match (acc, doc) {
        (Value::Object(fields), Value::Object(theirs)) => {
            for (key, field) in fields.iter_mut() {
                let path = dotted(path, key);
                match theirs.get(key) {
                    Some(theirs) if !NOT_LEAVES.contains(&path.as_str()) => {
                        merge_leaves(field, theirs, &path);
                    }
                    _ => {}
                }
            }
        }
        (Value::Number(ours), Value::Number(theirs)) if MAXIMA.contains(&path) => {
            *ours = ours.max(*theirs);
        }
        (Value::Number(ours), Value::Number(theirs)) => *ours += theirs,
        _ => {}
    }
}

/// `key` under `path` (`server` + `shed` is `server.shed`).
fn dotted(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// Stages [`validate_prometheus`] requires a histogram series for: the
/// two proxy layers, the LRS call and the request-side shuffle dwell.
pub const REQUIRED_STAGES: [&str; 4] = ["ua", "ia", "lrs", "shuffle_request"];

/// Prometheus `le` boundaries, µs: powers of two from 1 µs to ~67 s.
/// Coarser than the in-memory log-linear cells on purpose — 27 series per
/// histogram instead of ~1100 — while `+Inf` keeps totals exact.
fn prometheus_bounds_us() -> impl Iterator<Item = u64> {
    (0..27).map(|e| 1u64 << e)
}

/// Renders one metrics document — a node's scrape or the cluster view —
/// as Prometheus text. Stage histograms are the `pprox_stage_latency_us`
/// series, labelled by stage. Every other leaf is a series named by its
/// path: `server.frames_in` is `pprox_server_frames_in`, the
/// `server.poll_loop` histogram `pprox_server_poll_loop_us`. A field the
/// document gains is rendered with no edit here.
pub fn prometheus_text(doc: &Value) -> String {
    let mut out = String::new();
    render_leaves(&mut out, doc, "");
    out
}

/// The series of every leaf under `path` but the [`NOT_LEAVES`].
fn render_leaves(out: &mut String, v: &Value, path: &str) {
    let name = format!("pprox_{}", path.replace('.', "_"));
    match v {
        Value::Object(stages) if path == "stages" => {
            out.push_str(
                "# HELP pprox_stage_latency_us Per-stage latency, microseconds.\n\
                 # TYPE pprox_stage_latency_us histogram\n",
            );
            for (stage, h) in stages {
                let label = format!("stage=\"{stage}\"");
                render_histogram(out, "pprox_stage_latency_us", &label, h);
            }
        }
        Value::Object(fields) if fields.contains_key("counts") => {
            let name = format!("{name}_us");
            out.push_str(&format!("# TYPE {name} histogram\n"));
            render_histogram(out, &name, "", v);
        }
        Value::Object(fields) => {
            for (key, field) in fields {
                let path = dotted(path, key);
                if !NOT_LEAVES.contains(&path.as_str()) {
                    render_leaves(out, field, &path);
                }
            }
        }
        Value::Number(n) => out.push_str(&format!("# TYPE {name} untyped\n{name} {n}\n")),
        _ => {}
    }
}

/// One histogram's cumulative `le` buckets, `_sum` and `_count`, under
/// `name` and the extra `label`, if any.
fn render_histogram(out: &mut String, name: &str, label: &str, h: &Value) {
    let snap = histogram_from_value(h);
    let labels = |le: &str| match label {
        "" => format!("{{le=\"{le}\"}}"),
        label => format!("{{{label},le=\"{le}\"}}"),
    };
    for b in prometheus_bounds_us() {
        let cumulative = snap.cumulative_le(b);
        out.push_str(&format!(
            "{name}_bucket{} {cumulative}\n",
            labels(&b.to_string())
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{} {}\n",
        labels("+Inf"),
        snap.count()
    ));
    let label = match label {
        "" => String::new(),
        label => format!("{{{label}}}"),
    };
    out.push_str(&format!("{name}_sum{label} {}\n", snap.sum_us()));
    out.push_str(&format!("{name}_count{label} {}\n", snap.count()));
}

/// Validates Prometheus exposition text: parseable sample lines, every
/// histogram's cumulative buckets monotone and consistent with its
/// `_count`, and the required stage series present.
///
/// # Errors
///
/// A human-readable description of the violated constraint.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    use std::collections::BTreeMap;
    let mut buckets: BTreeMap<String, Vec<(f64, u64)>> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_labels, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {lineno}: no sample value"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {lineno}: bad sample value {value}"))?;
        // `f64` parses `NaN` and `inf`, and `NaN < 0.0` is false.
        if !(value.is_finite() && value >= 0.0) {
            return Err(format!(
                "line {lineno}: sample {value} is not a finite non-negative number"
            ));
        }
        if let Some(rest) = name_labels.strip_prefix("pprox_stage_latency_us_bucket{stage=\"") {
            let (stage, rest) = rest
                .split_once('"')
                .ok_or(format!("line {lineno}: unterminated stage label"))?;
            let le = rest
                .strip_prefix(",le=\"")
                .and_then(|r| r.strip_suffix("\"}"))
                .ok_or(format!("line {lineno}: malformed le label"))?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse()
                    .map_err(|_| format!("line {lineno}: bad le bound {le}"))?
            };
            buckets
                .entry(stage.to_string())
                .or_default()
                .push((bound, value as u64));
        } else if let Some(rest) = name_labels.strip_prefix("pprox_stage_latency_us_count{stage=\"")
        {
            let stage = rest
                .strip_suffix("\"}")
                .ok_or(format!("line {lineno}: malformed count label"))?;
            counts.insert(stage.to_string(), value as u64);
        }
    }
    for required in REQUIRED_STAGES {
        if !buckets.contains_key(required) {
            return Err(format!("missing histogram series for stage {required}"));
        }
    }
    for (stage, series) in &buckets {
        let mut prev = 0u64;
        let mut prev_bound = f64::NEG_INFINITY;
        for &(bound, cum) in series {
            if bound <= prev_bound {
                return Err(format!("stage {stage}: le bounds not increasing"));
            }
            if cum < prev {
                return Err(format!("stage {stage}: cumulative buckets decrease"));
            }
            prev = cum;
            prev_bound = bound;
        }
        let (last_bound, last_cum) = *series.last().unwrap();
        if !last_bound.is_infinite() {
            return Err(format!("stage {stage}: missing +Inf bucket"));
        }
        match counts.get(stage) {
            Some(&c) if c == last_cum => {}
            Some(&c) => {
                return Err(format!(
                    "stage {stage}: +Inf bucket {last_cum} != count {c}"
                ))
            }
            None => return Err(format!("stage {stage}: missing _count series")),
        }
    }
    Ok(())
}

/// Polls every cluster node's metrics scrape.
pub struct ClusterScraper {
    targets: Vec<(String, SocketAddr)>,
    timeout: Duration,
    corr: AtomicU64,
}

impl std::fmt::Debug for ClusterScraper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterScraper")
            .field("targets", &self.targets.len())
            .finish()
    }
}

impl ClusterScraper {
    /// A scraper over named node addresses with the default 2 s
    /// per-node timeout.
    pub fn new(targets: Vec<(String, SocketAddr)>) -> Self {
        ClusterScraper::with_timeout(targets, Duration::from_secs(2))
    }

    /// A scraper with an explicit per-node IO timeout.
    pub fn with_timeout(targets: Vec<(String, SocketAddr)>, timeout: Duration) -> Self {
        ClusterScraper {
            targets,
            timeout,
            corr: AtomicU64::new(0x5c4a_9e00),
        }
    }

    /// Scrapes every target once. Unreachable nodes are reported, not
    /// fatal — during a kill/respawn drill part of the cluster is
    /// legitimately down.
    pub fn scrape(&self) -> ClusterSnapshot {
        let mut nodes = Vec::new();
        let mut unreachable = Vec::new();
        for (name, addr) in &self.targets {
            match self.scrape_node(*addr) {
                Ok(json) => nodes.push(NodeSnapshot {
                    name: name.clone(),
                    json,
                }),
                Err(_) => unreachable.push(name.clone()),
            }
        }
        ClusterSnapshot { nodes, unreachable }
    }

    /// Scrapes one node: sends the padded Control-class query and
    /// reassembles the chunked Control-class response.
    ///
    /// # Errors
    ///
    /// [`ScrapeError`] on socket failure, undecodable frames, chunk
    /// protocol violations, or a snapshot that fails JSON parsing.
    pub fn scrape_node(&self, addr: SocketAddr) -> Result<Value, ScrapeError> {
        let corr = self.corr.fetch_add(1, Ordering::Relaxed);
        let mut stream =
            TcpStream::connect_timeout(&addr, self.timeout).map_err(|e| ScrapeError::Io {
                phase: "connect",
                kind: e.kind(),
            })?;
        stream
            .set_read_timeout(Some(self.timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.timeout)))
            .map_err(|e| ScrapeError::Io {
                phase: "connect",
                kind: e.kind(),
            })?;
        let _ = stream.set_nodelay(true);
        let request = scrape_request(corr).encode().map_err(ScrapeError::Frame)?;
        stream.write_all(&request).map_err(|e| ScrapeError::Io {
            phase: "write",
            kind: e.kind(),
        })?;

        let mut data = Vec::new();
        let mut expected_total: Option<usize> = None;
        let mut next_seq = 0usize;
        let read_error = |kind| ScrapeError::Io {
            phase: "read",
            kind,
        };
        let (mut buf, mut filled, mut frames) = (vec![0u8; READ_BUF], 0, Vec::new());
        'read: loop {
            match stream.read(&mut buf[filled..]) {
                Ok(0) => return Err(read_error(ErrorKind::UnexpectedEof)),
                Ok(n) => filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(read_error(e.kind())),
            }
            let pos = decode_stream(&buf[..filled], |frame| frames.push(frame))?;
            buf.copy_within(pos..filled, 0);
            filled -= pos;
            for frame in frames.drain(..) {
                let (seq, total, chunk) = chunk(&frame, corr)?;
                let expected = *expected_total.get_or_insert(total);
                if expected != total {
                    return Err(ScrapeError::Protocol(
                        "chunk total changed mid-stream".into(),
                    ));
                }
                if seq != next_seq {
                    return Err(ScrapeError::Protocol(format!(
                        "chunk {seq} out of order (expected {next_seq})"
                    )));
                }
                data.extend_from_slice(chunk);
                next_seq += 1;
                if next_seq == total {
                    break 'read;
                }
            }
        }
        let text = String::from_utf8(data)
            .map_err(|_| ScrapeError::Protocol("snapshot is not UTF-8".into()))?;
        Value::parse(&text)
            .map_err(|e| ScrapeError::Protocol(format!("snapshot JSON invalid: {e:?}")))
    }
}

/// One chunk frame of the answer to `corr`: its `seq`, its `total` and
/// the snapshot bytes it carries.
fn chunk(frame: &Frame, corr: u64) -> Result<(usize, usize, &[u8]), ScrapeError> {
    if frame.class != PadClass::Control {
        let class = frame.class;
        return Err(ScrapeError::Protocol(format!(
            "scrape answered with a {class:?}-class frame"
        )));
    }
    if frame.corr != corr {
        return Err(ScrapeError::Protocol("correlation mismatch".into()));
    }
    let Some(([s0, s1, t0, t1], data)) = frame.payload.split_first_chunk::<CHUNK_HEADER>() else {
        return Err(ScrapeError::Protocol(
            "chunk shorter than its header".into(),
        ));
    };
    let total = u16::from_be_bytes([*t0, *t1]) as usize;
    if total == 0 {
        return Err(ScrapeError::Protocol("chunk declares zero total".into()));
    }
    Ok((u16::from_be_bytes([*s0, *s1]) as usize, total, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pprox_json::schema::{assert_exact, text};

    fn populated_hub() -> NodeMetrics {
        let m = NodeMetrics::new("ua", 0);
        m.on_accept();
        m.on_frame_in();
        m.on_frames_out(1);
        m.on_shed();
        m.on_queued(m.on_enqueue(2));
        m.on_dequeue(1);
        m.set_workers(4);
        m.add_worker_busy_us(1_500);
        m.record_poll_pass_us(120);
        m.set_open_connections(3);
        m.set_shuffle_occupancy(5);
        m.on_flush(FlushReason::Full);
        m.on_flush(FlushReason::Timeout);
        m.on_probe_failure();
        m.on_scrape();
        m
    }

    #[test]
    fn snapshot_round_trips_and_validates() {
        let json = populated_hub().snapshot_json();
        validate_scrape_snapshot(&json).unwrap();
        let reparsed = Value::parse(&json.to_json()).unwrap();
        validate_scrape_snapshot(&reparsed).unwrap();
        let at = |path| number(&reparsed, path);
        assert_eq!(at("server.accepted"), Ok(1.0));
        assert_eq!(at("server.queue_depth_high_water"), Ok(2.0));
        assert_eq!(at("shuffle.high_water"), Ok(5.0));
    }

    #[test]
    fn validator_rejects_unknown_keys_anywhere() {
        // Top level, inside server and the shard gauges, and the keys the
        // schema carried until v3 (`layers`) and v7 (`telemetry_group`).
        for (section, key) in [
            ("", "arrival_times"),
            ("server", "last_corr"),
            ("shard", "trace_id"),
            ("", "layers"),
            ("node", "telemetry_group"),
        ] {
            let mut json = populated_hub().snapshot_json();
            let at = match section {
                "" => &mut json,
                section => json.get_mut(section).unwrap(),
            };
            at.insert(key, Value::from(9u64));
            let err = validate_scrape_snapshot(&json).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
    }

    #[test]
    fn validator_accepts_only_the_four_tier_names() {
        for tier in TIERS {
            validate_scrape_snapshot(&NodeMetrics::new(tier, 0).snapshot_json()).unwrap();
        }
        let detached = NodeMetrics::detached().snapshot_json();
        assert_eq!(text(&detached, "node.tier"), Ok("node"));
        // A user id dressed up as a tier label.
        let mut json = populated_hub().snapshot_json();
        json.get_mut("node")
            .unwrap()
            .insert("tier", Value::from("u017"));
        let err = validate_scrape_snapshot(&json).unwrap_err();
        assert!(err.contains("node.tier"), "{err}");
    }

    #[test]
    fn validator_rejects_raw_timestamp_shapes_in_histograms() {
        let with_poll_loop = |counts: Vec<Value>| {
            let mut json = populated_hub().snapshot_json();
            let histogram = [("sum_us", 0u64), ("max_us", 0)];
            let mut histogram = Value::object(histogram.map(|(k, v)| (k, Value::from(v))));
            histogram.insert("counts", Value::Array(counts));
            json.get_mut("server")
                .unwrap()
                .insert("poll_loop", histogram);
            validate_scrape_snapshot(&json)
        };
        // A "histogram" whose counts are not [index, count] pairs — the
        // shape a raw per-request timestamp list would take.
        let raw = [1_723_012u64, 1_723_844].map(Value::from).to_vec();
        assert!(with_poll_loop(raw).is_err());
        // Out-of-layout bucket indices likewise.
        let cell = Value::Array(vec![Value::from(NUM_BUCKETS as u64 + 5), Value::from(1u64)]);
        let err = with_poll_loop(vec![cell]).unwrap_err();
        assert!(err.contains("outside bucket layout"), "{err}");
    }

    #[test]
    fn chunking_round_trips_and_pads_constantly() {
        let m = populated_hub();
        let text = m.snapshot_json().to_json();
        let frames = scrape_response_frames(9, &text);
        assert!(frames.len() > 1, "a real snapshot spans several chunks");
        let mut data = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.class, PadClass::Control);
            assert_eq!(f.corr, 9);
            // Constant on-wire size regardless of content.
            assert_eq!(f.encode().unwrap().len(), PadClass::Control.wire_len());
            let seq = u16::from_be_bytes([f.payload[0], f.payload[1]]) as usize;
            let total = u16::from_be_bytes([f.payload[2], f.payload[3]]) as usize;
            assert_eq!(seq, i);
            assert_eq!(total, frames.len());
            data.extend_from_slice(&f.payload[CHUNK_HEADER..]);
        }
        assert_eq!(String::from_utf8(data).unwrap(), text);
    }

    #[test]
    fn scrape_request_is_wire_indistinguishable_from_status_control() {
        let scrape = scrape_request(1).encode().unwrap();
        let status = Frame::new(PadClass::Control, 1, crate::WireStatus::Busy.to_payload())
            .unwrap()
            .encode()
            .unwrap();
        assert_eq!(scrape.len(), status.len());
        assert!(is_scrape_request(&Frame::decode(&scrape).unwrap()));
        assert!(!is_scrape_request(&Frame::decode(&status).unwrap()));
    }

    #[test]
    fn histogram_sparse_encoding_round_trips() {
        let h = LatencyHistogram::new();
        for v in [1u64, 1, 90, 4_000, 250_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        let rebuilt = histogram_from_value(&histogram_to_value(&snap));
        assert_eq!(rebuilt, snap);
    }

    /// A node's document as scraped under `name`.
    fn scraped(name: &str, hub: &NodeMetrics) -> NodeSnapshot {
        NodeSnapshot {
            name: name.into(),
            json: hub.snapshot_json(),
        }
    }

    fn cluster(nodes: Vec<NodeSnapshot>) -> ClusterSnapshot {
        ClusterSnapshot {
            nodes,
            unreachable: Vec::new(),
        }
    }

    #[test]
    fn cluster_report_sums_each_nodes_own_stages() {
        // Two UAs and an IA, each recording into its own hub; the LRS
        // records nothing and renders every stage empty.
        let hubs = [("ua", 0, 10, 100), ("ua", 1, 3, 900), ("ia", 0, 0, 0)].map(
            |(tier, index, samples, us)| {
                let hub = NodeMetrics::new(tier, index);
                let telemetry = Arc::new(Telemetry::new());
                for _ in 0..samples {
                    telemetry.record_duration(Stage::Ua, us);
                }
                telemetry.record_duration(Stage::Ia, 50);
                hub.attach_telemetry(telemetry);
                hub
            },
        );
        let lrs = NodeMetrics::new("lrs", 0);
        let snapshot = cluster(vec![
            scraped("ua0", &hubs[0]),
            scraped("ua1", &hubs[1]),
            scraped("ia0", &hubs[2]),
            scraped("lrs0", &lrs),
        ]);
        snapshot.validate().unwrap();
        for stage in Stage::ALL {
            let path = format!("stages.{}.counts", stage.as_str());
            assert_eq!(list(&scraped("lrs0", &lrs).json, &path), Ok(&[][..]));
        }
        let merged = snapshot.merged();
        validate_scrape_snapshot(&merged).unwrap();
        // Every node's samples, each counted once.
        let stage = |name| histogram_from_value(merged.get("stages").unwrap().get(name).unwrap());
        let ua = stage("ua");
        assert_eq!((ua.count(), ua.sum_us(), ua.max_us()), (13, 3_700, 900));
        assert_eq!(stage("ia").count(), 3);
        assert_eq!(stage("lrs").count(), 0);
        let text = prometheus_text(&merged);
        assert!(text.contains("pprox_stage_latency_us_count{stage=\"ua\"} 13\n"));
    }

    #[test]
    fn merged_sums_counters_maxes_high_water_marks_and_validates() {
        let a = populated_hub(); // queue high-water 2, shuffle high-water 5
        let b = NodeMetrics::new("ia", 0);
        for _ in 0..3 {
            b.on_queued(b.on_enqueue(1));
            b.on_frame_in();
        }
        b.set_shuffle_occupancy(1);
        b.on_encode_failure();
        b.record_poll_pass_us(300);
        let snapshot = cluster(vec![scraped("ua0", &a), scraped("ia0", &b)]);
        let merged = snapshot.merged();
        assert_exact(&snapshot_schema(), &merged, &["", "server", "node"]);
        let at = |path| number(&merged, path).unwrap();
        assert_eq!(at("server.frames_in"), 4.0);
        assert_eq!(at("server.queue_depth"), 1.0 + 3.0);
        assert_eq!(at("server.queue_depth_high_water"), 3.0);
        assert_eq!(at("shuffle.occupancy"), 5.0 + 1.0);
        assert_eq!(at("shuffle.high_water"), 5.0);
        assert_eq!(at("shuffle.flush_full"), 1.0);
        assert_eq!(at("scrapes"), 1.0);
        let poll_loop =
            histogram_from_value(merged.get("server").unwrap().get("poll_loop").unwrap());
        assert_eq!((poll_loop.count(), poll_loop.max_us()), (2, 300));
        // The merged label is a detached hub's, whatever the nodes were.
        assert_eq!(
            merged.get("node"),
            NodeMetrics::detached().snapshot_json().get("node")
        );
        // A counter the merge and the renderer have never heard of.
        assert_eq!(at("server.encode_failures"), 1.0);
        let text = prometheus_text(&merged);
        assert!(
            text.contains("\npprox_server_encode_failures 1\n"),
            "{text}"
        );
        assert!(
            text.contains("\npprox_server_poll_loop_us_count 2\n"),
            "{text}"
        );
    }

    #[test]
    fn pressure_sample_sums_gauges_and_maxes_high_water() {
        let a = NodeMetrics::new("ua", 0);
        a.set_shuffle_occupancy(3);
        a.on_shed();
        a.on_queued(a.on_enqueue(1));
        let b = NodeMetrics::new("ua", 1);
        b.set_shuffle_occupancy(9);
        let p = cluster(vec![scraped("ua0", &a), scraped("ua1", &b)]).pressure();
        assert_eq!(p.nodes, 2);
        assert_eq!(p.shuffle_occupancy, 12);
        assert_eq!(p.shuffle_high_water, 9);
        assert_eq!(p.shed, 1);
        assert_eq!(p.queue_depth, 1);
        assert_eq!(p.queue_depth_high_water, 1);
    }

    #[test]
    fn committed_sample_snapshot_is_exact() {
        // `observability_report` embeds one live scrape in its report.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_observability.json"
        );
        let report = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let sample = report.get("sample_node_snapshot").unwrap();
        validate_scrape_snapshot(sample).unwrap();
        assert_exact(
            &snapshot_schema(),
            sample,
            &["", "server.poll_loop", "stages.ua"],
        );
    }

    #[test]
    fn report_of_hostile_counts_that_validate_saturates() {
        // Every cell at the 2^53 `as_u64` admits: one histogram's total
        // fits a u64, two nodes' stages merged do not.
        let full = Value::object([
            (
                "counts",
                (0..NUM_BUCKETS as u64)
                    .map(|i| Value::Array(vec![Value::from(i), Value::from(1u64 << 53)]))
                    .collect(),
            ),
            ("sum_us", Value::from(1u64 << 53)),
            ("max_us", Value::from(1u64 << 53)),
        ]);
        let node = |name: &str, index| {
            let mut json = NodeMetrics::new("ua", index).snapshot_json();
            let stages = json.get_mut("stages").unwrap();
            stages.insert("ua", full.clone());
            stages.insert("ia", full.clone());
            NodeSnapshot {
                name: name.into(),
                json,
            }
        };
        let snapshot = cluster(vec![node("ua0", 0), node("ua1", 1)]);
        snapshot.validate().unwrap();
        let merged = snapshot.merged();
        assert_eq!(number(&merged, "stages.ia.sum_us"), Ok((1u64 << 54) as f64));
        // Rendering the merged view is total too, and its totals saturate.
        let text = prometheus_text(&merged);
        let count = format!(
            "pprox_stage_latency_us_count{{stage=\"ua\"}} {}\n",
            u64::MAX
        );
        assert!(text.contains(&count), "{text}");
    }

    /// A document with four observations in every stage, as
    /// `prometheus_text` renders it.
    fn sample_text() -> String {
        let telemetry = Arc::new(Telemetry::new());
        for stage in Stage::ALL {
            for us in [100, 200, 400, 8_000] {
                telemetry.record_duration(stage, us);
            }
        }
        let hub = populated_hub();
        hub.attach_telemetry(telemetry);
        prometheus_text(&hub.snapshot_json())
    }

    #[test]
    fn prometheus_text_validates_and_mentions_every_stage() {
        let text = sample_text();
        validate_prometheus(&text).unwrap();
        for s in Stage::ALL {
            assert!(text.contains(&format!("stage=\"{}\"", s.as_str())));
        }
        assert!(text.contains("\npprox_server_frames_in 1\n"), "{text}");
    }

    #[test]
    fn prometheus_validator_catches_corruption() {
        let text = sample_text();
        // Breaking the +Inf bucket must be caught.
        let broken = text.replace(
            "pprox_stage_latency_us_bucket{stage=\"ua\",le=\"+Inf\"} 4",
            "pprox_stage_latency_us_bucket{stage=\"ua\",le=\"+Inf\"} 3",
        );
        assert_ne!(text, broken);
        assert!(validate_prometheus(&broken).is_err());
        // Dropping a required stage must be caught.
        let gone: String = text
            .lines()
            .filter(|l| !l.contains("stage=\"lrs\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate_prometheus(&gone).is_err());
    }

    #[test]
    fn prometheus_validator_rejects_non_finite_samples() {
        let text = sample_text();
        let with_sample = |series: &str, sample: &str| -> String {
            let corrupt: String = text
                .lines()
                .map(|l| match l.strip_prefix(series) {
                    Some(_) => format!("{series} {sample}\n"),
                    None => format!("{l}\n"),
                })
                .collect();
            assert_ne!(corrupt, text, "{series} not in the exposition");
            corrupt
        };
        // The `le="1"` bucket holds 0 here, so a NaN that became `0`
        // through `as u64` kept every bucket monotone.
        let nan_bucket = with_sample(
            "pprox_stage_latency_us_bucket{stage=\"ua\",le=\"1\"}",
            "NaN",
        );
        let err = validate_prometheus(&nan_bucket).unwrap_err();
        assert!(err.contains("NaN"), "{err}");
        let inf_counter = with_sample("pprox_server_frames_in", "inf");
        let err = validate_prometheus(&inf_counter).unwrap_err();
        assert!(err.contains("inf"), "{err}");
    }

    #[test]
    fn committed_telemetry_snapshot_is_exact() {
        // `telemetry_export` commits the cluster view of a driven chain.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/TELEMETRY_snapshot.json"
        );
        let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_exact(&snapshot_schema(), &doc, &["", "server", "stages.lrs"]);
    }

    #[test]
    fn unreachable_node_fails_validation_but_not_the_scrape() {
        let snapshot = ClusterSnapshot {
            nodes: Vec::new(),
            unreachable: vec!["ia1".into()],
        };
        assert!(snapshot.validate().unwrap_err().contains("ia1"));
    }

    /// A scripted peer's answer to the scrape request with this `corr`.
    type Script = fn(u64) -> Vec<Frame>;

    /// One hand-built chunk frame of a scrape response.
    fn chunk(corr: u64, seq: u16, total: u16, data: &[u8]) -> Frame {
        let mut payload = [seq.to_be_bytes(), total.to_be_bytes()].concat();
        payload.extend_from_slice(data);
        Frame {
            class: PadClass::Control,
            corr,
            payload,
        }
    }

    /// Scrapes a peer that reads the request frame, answers with
    /// `script(corr)`, and holds the connection until the scraper hangs up.
    fn scrape_scripted(timeout: Duration, script: Script) -> Result<Value, ScrapeError> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut request = [0u8; PadClass::Control.wire_len()];
            stream.read_exact(&mut request).unwrap();
            let request = Frame::decode(&request).unwrap();
            assert!(is_scrape_request(&request));
            for frame in script(request.corr) {
                stream.write_all(&frame.encode().unwrap()).unwrap();
            }
            let _ = stream.read_to_end(&mut Vec::new());
        });
        let result = ClusterScraper::with_timeout(Vec::new(), timeout).scrape_node(addr);
        peer.join().unwrap();
        result
    }

    #[test]
    fn scrape_refuses_a_hostile_peer_and_times_out_on_a_silent_one() {
        let honest = scrape_scripted(Duration::from_secs(2), |corr| {
            scrape_response_frames(corr, r#"{"ok":1}"#)
        });
        assert_eq!(honest.unwrap().get("ok"), Some(&Value::from(1u64)));

        let hostile: [(&str, Script); 8] = [
            ("-class frame", |corr| {
                vec![Frame {
                    class: PadClass::Request,
                    ..chunk(corr, 0, 1, b"{}")
                }]
            }),
            ("correlation mismatch", |corr| {
                vec![chunk(corr + 1, 0, 1, b"{}")]
            }),
            ("shorter than its header", |corr| {
                vec![Frame {
                    payload: vec![0, 0, 1],
                    ..chunk(corr, 0, 1, b"")
                }]
            }),
            ("zero total", |corr| vec![chunk(corr, 0, 0, b"{}")]),
            ("changed mid-stream", |corr| {
                vec![chunk(corr, 0, 2, b"{"), chunk(corr, 1, 3, b"}")]
            }),
            ("out of order", |corr| vec![chunk(corr, 1, 2, b"{}")]),
            ("not UTF-8", |corr| vec![chunk(corr, 0, 1, &[0xff, 0xfe])]),
            ("JSON invalid", |corr| vec![chunk(corr, 0, 1, br#"{"ok":"#)]),
        ];
        for (refusal, script) in hostile {
            match scrape_scripted(Duration::from_secs(2), script) {
                Err(ScrapeError::Protocol(msg)) => assert!(msg.contains(refusal), "{msg}"),
                other => panic!("{refusal}: {other:?}"),
            }
        }

        let timeout = Duration::from_millis(100);
        let started = Instant::now();
        let silent = scrape_scripted(timeout, |_| Vec::new());
        assert!(
            matches!(silent, Err(ScrapeError::Io { phase: "read", .. })),
            "{silent:?}"
        );
        assert!(started.elapsed() < 20 * timeout, "{:?}", started.elapsed());
    }
}
