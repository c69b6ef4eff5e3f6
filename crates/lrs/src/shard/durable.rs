//! Crash-recoverable LRS: a [`ShardEngine`] plus a sealed WAL.
//!
//! [`DurableShard`] is the one durable wrapper. Every accepted feedback
//! event is appended to the sealed WAL *before* it is applied to the
//! in-memory engine, under one mutex, so WAL order equals apply order;
//! periodic snapshots compact the event history into encrypted blocks
//! and truncate the WAL. The DEK unseals from the platform + the
//! [`SHARD_STORE_IDENTITY`] measurement, so recovery is self-contained.
//!
//! It wraps one shard's partition, so each shard recovers
//! *independently*: a crashed shard replays only its own store, and its
//! siblings' rings, models and stores are untouched (the
//! TEE-decentralization property the Dhasade et al. line of work
//! motivates; the supervisor drills in `tests/wire_e2e.rs` exercise it
//! end-to-end). An unsharded deployment is the same thing with a ring
//! of one.
//!
//! Recovery needs no training pass: the incremental model is a
//! deterministic fold over the event sequence, so replaying the WAL in
//! order rebuilds byte-identical state — including any documented
//! indicator-list drift the live instance had accumulated, which is
//! exactly what makes pre- and post-crash answers byte-equal.
//!
//! Everything persisted is what the LRS legitimately sees: pseudonymous
//! ids inside padded ciphertext. `attack::at_rest_audit` scans the
//! directory to prove it.

use super::engine::ShardEngine;
use super::ShardGauges;
use crate::api::{FeedbackEvent, HttpRequest, HttpResponse, Method, RestHandler, EVENTS_PATH};
use crate::cco::CcoConfig;
use parking_lot::Mutex;
use pprox_json::Value;
use pprox_store::{Measurement, SealedStore, SealingKey, StoreConfig, StoreError};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Code identity the store DEK is sealed to. Any LRS instance running
/// this measurement on the same platform can recover the store; no
/// other measurement can.
pub const SHARD_STORE_IDENTITY: &str = "pprox-lrs-shard-v1";

/// Events per snapshot block (bounds block size; more events simply span
/// more fixed-size blocks).
const EVENTS_PER_BLOCK: usize = 64;

/// Durability tuning for a [`DurableShard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableConfig {
    /// Snapshot (and truncate the WAL) after this many appended events;
    /// 0 disables automatic snapshots (call
    /// [`DurableShard::snapshot_now`] explicitly).
    pub snapshot_every: u64,
    /// Size classes of the underlying store.
    pub store: StoreConfig,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            snapshot_every: 256,
            store: StoreConfig::default(),
        }
    }
}

/// What booting a [`DurableShard`] recovered, and how long it took.
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// Events restored from snapshot blocks.
    pub snapshot_events: usize,
    /// Events replayed from the WAL.
    pub replayed: usize,
    /// WAL records skipped because the snapshot already covered them.
    pub skipped: usize,
    /// Torn-tail bytes the WAL scan discarded.
    pub torn_bytes: u64,
    /// `true` when the directory held no sealed state yet.
    pub cold_start: bool,
    /// Wall-clock time from unseal to a queryable model.
    pub duration: Duration,
}

struct DurableShardInner {
    store: SealedStore,
    /// Every applied event body, in order (the snapshot source).
    events: Vec<String>,
    last_snapshot_seq: u64,
}

/// A durable LRS shard instance.
pub struct DurableShard {
    engine: ShardEngine,
    inner: Mutex<DurableShardInner>,
    config: DurableConfig,
    recovery: RecoveryStats,
    served: AtomicU64,
}

impl std::fmt::Debug for DurableShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableShard")
            .field("engine", &self.engine)
            .field("served", &self.served.load(Ordering::Relaxed))
            .finish()
    }
}

impl DurableShard {
    /// Opens (or creates) the shard store at `dir` with default CCO
    /// limits, unseals against `sealing` + [`SHARD_STORE_IDENTITY`],
    /// and replays snapshot blocks plus WAL into a fresh incremental
    /// engine. No training pass runs: replay *is* the training.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from recovery.
    pub fn open(
        dir: &Path,
        sealing: &SealingKey,
        config: DurableConfig,
    ) -> Result<DurableShard, StoreError> {
        Self::open_with_cco(dir, sealing, config, CcoConfig::default())
    }

    /// [`open`](Self::open) with explicit CCO limits.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from recovery.
    pub fn open_with_cco(
        dir: &Path,
        sealing: &SealingKey,
        config: DurableConfig,
        cco: CcoConfig,
    ) -> Result<DurableShard, StoreError> {
        let started = Instant::now();
        let measurement = Measurement::of_code(SHARD_STORE_IDENTITY);
        let (store, recovered) = SealedStore::open(dir, sealing, measurement, config.store)?;

        let engine = ShardEngine::with_config(cco);
        let mut events = Vec::new();
        let mut snapshot_events = 0;
        for block in &recovered.snapshot_blocks {
            for body in decode_event_block(block)? {
                apply_event(&engine, &body);
                events.push(body);
                snapshot_events += 1;
            }
        }
        let replayed = recovered.events.len();
        for record in &recovered.events {
            let body = String::from_utf8(record.payload.clone())
                .map_err(|_| StoreError::Malformed("WAL event encoding"))?;
            apply_event(&engine, &body);
            events.push(body);
        }

        let recovery = RecoveryStats {
            snapshot_events,
            replayed,
            skipped: recovered.skipped,
            torn_bytes: recovered.torn_bytes,
            cold_start: recovered.cold_start,
            duration: started.elapsed(),
        };
        Ok(DurableShard {
            engine,
            inner: Mutex::new(DurableShardInner {
                store,
                events,
                last_snapshot_seq: recovered.applied_seq,
            }),
            config,
            recovery,
            served: AtomicU64::new(0),
        })
    }

    /// The shard engine behind the REST surface.
    pub fn engine(&self) -> &ShardEngine {
        &self.engine
    }

    /// What booting this shard recovered.
    pub fn recovery(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// Forces a snapshot now (blocks + manifest + WAL truncation).
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from block or manifest writes.
    pub fn snapshot_now(&self) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        snapshot_locked(&mut inner)
    }

    /// The store's root directory.
    pub fn store_dir(&self) -> std::path::PathBuf {
        self.inner.lock().store.dir().to_path_buf()
    }

    /// Requests served by this instance.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Gauges for the scrape surface.
    pub fn gauges(&self) -> ShardGauges {
        self.engine.gauges()
    }

    fn handle_post_event(&self, request: &HttpRequest) -> HttpResponse {
        let Some(event) = FeedbackEvent::from_json(&request.body) else {
            return HttpResponse::error(400, "malformed event");
        };
        // Canonicalize so WAL bytes equal what replay will apply.
        let body = event.to_json();
        let mut inner = self.inner.lock();
        let seq = match inner.store.append_event(body.as_bytes()) {
            Ok(seq) => seq,
            Err(_) => return HttpResponse::error(503, "event log unavailable"),
        };
        self.engine.post(&event.user, &event.item, event.payload);
        inner.events.push(body);
        if self.config.snapshot_every > 0
            && seq - inner.last_snapshot_seq >= self.config.snapshot_every
        {
            // A failed snapshot is not fatal: the WAL holds the event.
            let _ = snapshot_locked(&mut inner);
        }
        HttpResponse::ok(r#"{"status":"ok"}"#)
    }
}

impl RestHandler for DurableShard {
    fn handle(&self, request: &HttpRequest) -> HttpResponse {
        self.served.fetch_add(1, Ordering::Relaxed);
        if (request.method, request.path.as_str()) == (Method::Post, EVENTS_PATH) {
            // Writes go WAL-first; everything else is read-only and
            // delegates straight to the engine's surface.
            self.handle_post_event(request)
        } else {
            self.engine.handle(request)
        }
    }
}

fn snapshot_locked(inner: &mut DurableShardInner) -> Result<(), StoreError> {
    let applied_seq = inner.store.next_seq() - 1;
    let blocks: Vec<Vec<u8>> = inner
        .events
        .chunks(EVENTS_PER_BLOCK)
        .map(encode_event_block)
        .collect();
    inner.store.snapshot(&blocks, applied_seq)?;
    inner.last_snapshot_seq = applied_seq;
    Ok(())
}

/// A snapshot block is a JSON array of canonical event bodies.
fn encode_event_block(events: &[String]) -> Vec<u8> {
    let arr: Value = events.iter().map(|e| Value::from(e.as_str())).collect();
    arr.to_json().into_bytes()
}

fn decode_event_block(block: &[u8]) -> Result<Vec<String>, StoreError> {
    let text = std::str::from_utf8(block).map_err(|_| StoreError::Malformed("snapshot block"))?;
    let value = Value::parse(text).map_err(|_| StoreError::Malformed("snapshot block json"))?;
    let arr = value
        .as_array()
        .ok_or(StoreError::Malformed("snapshot block shape"))?;
    arr.iter()
        .map(|e| {
            e.as_str()
                .map(str::to_string)
                .ok_or(StoreError::Malformed("snapshot block entry"))
        })
        .collect()
}

fn apply_event(engine: &ShardEngine, body: &str) {
    if let Some(event) = FeedbackEvent::from_json(body) {
        engine.post(&event.user, &event.item, event.payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::QUERIES_PATH;
    use pprox_store::{FaultInjector, SecureRng, StorageFault, TempDir};

    fn sealing() -> SealingKey {
        SealingKey::generate(&mut SecureRng::from_seed(47))
    }

    fn post(shard: &DurableShard, user: &str, item: &str) {
        let body = FeedbackEvent {
            user: user.into(),
            item: item.into(),
            payload: None,
        }
        .to_json();
        assert!(shard
            .handle(&HttpRequest::post(EVENTS_PATH, body))
            .is_success());
    }

    fn query(shard: &DurableShard, user: &str) -> String {
        shard
            .handle(&HttpRequest::post(
                QUERIES_PATH,
                format!(r#"{{"user":"{user}","num":5}}"#),
            ))
            .body
    }

    fn seed(shard: &DurableShard) {
        for u in 0..6 {
            post(shard, &format!("bg-{u}"), &format!("solo-{u}"));
        }
        for u in 0..6 {
            post(shard, &format!("sci-{u}"), "alien");
            post(shard, &format!("sci-{u}"), "dune");
        }
    }

    #[test]
    fn kill_and_reopen_yields_identical_recommendations() {
        let dir = TempDir::new("durable-shard");
        let sealing = sealing();
        let shard = DurableShard::open(dir.path(), &sealing, DurableConfig::default()).unwrap();
        assert!(shard.recovery().cold_start);
        seed(&shard);
        post(&shard, "newbie", "alien");
        let before = query(&shard, "newbie");
        assert!(before.contains("dune"), "{before}");
        drop(shard); // simulated kill

        let revived = DurableShard::open(dir.path(), &sealing, DurableConfig::default()).unwrap();
        assert!(!revived.recovery().cold_start);
        assert_eq!(revived.recovery().replayed, 19);
        assert_eq!(query(&revived, "newbie"), before);
    }

    #[test]
    fn snapshot_plus_wal_recovery_is_equivalent() {
        let dir = TempDir::new("durable-shard");
        let sealing = sealing();
        let config = DurableConfig {
            snapshot_every: 5,
            ..DurableConfig::default()
        };
        let shard = DurableShard::open(dir.path(), &sealing, config).unwrap();
        seed(&shard);
        let before = query(&shard, "sci-3");
        drop(shard);

        let revived = DurableShard::open(dir.path(), &sealing, config).unwrap();
        let stats = revived.recovery();
        assert!(stats.snapshot_events > 0, "snapshots must have fired");
        assert_eq!(stats.snapshot_events + stats.replayed, 18);
        assert_eq!(query(&revived, "sci-3"), before);
    }

    #[test]
    fn wrong_identity_cannot_unseal_a_shard_store() {
        let dir = TempDir::new("durable-shard");
        let sealing = sealing();
        let shard = DurableShard::open(dir.path(), &sealing, DurableConfig::default()).unwrap();
        seed(&shard);
        drop(shard);
        // Same platform key, foreign code: the DEK must stay sealed.
        let foreign = Measurement::of_code("some-other-enclave-v1");
        let err = SealedStore::open(dir.path(), &sealing, foreign, StoreConfig::default());
        assert!(err.is_err(), "a foreign measurement must not unseal");
        // The rightful measurement still can.
        let own = Measurement::of_code(SHARD_STORE_IDENTITY);
        assert!(SealedStore::open(dir.path(), &sealing, own, StoreConfig::default()).is_ok());
    }

    #[test]
    fn torn_write_loses_only_the_torn_event() {
        let dir = TempDir::new("durable-shard");
        let sealing = sealing();
        let config = DurableConfig {
            snapshot_every: 0,
            ..DurableConfig::default()
        };
        let shard = DurableShard::open(dir.path(), &sealing, config).unwrap();
        seed(&shard);
        drop(shard);
        let report = FaultInjector::new(dir.path())
            .inject(StorageFault::TornWrite)
            .unwrap();
        assert!(report.applied);
        let revived = DurableShard::open(dir.path(), &sealing, config).unwrap();
        assert_eq!(revived.recovery().replayed, 17);
        assert!(revived.recovery().torn_bytes > 0);
        // The surviving 17 events still answer: only sci-5's "dune" tore.
        assert!(query(&revived, "sci-5").contains("dune"));
    }

    #[test]
    fn reads_and_unknown_paths_delegate_to_the_engine() {
        let dir = TempDir::new("durable-shard");
        let shard = DurableShard::open(dir.path(), &sealing(), DurableConfig::default()).unwrap();
        assert_eq!(shard.handle(&HttpRequest::post("/nope", "{}")).status, 404);
        assert_eq!(
            shard.handle(&HttpRequest::post(QUERIES_PATH, "bad")).status,
            400
        );
        assert_eq!(shard.served(), 2);
    }

    #[test]
    fn internal_endpoints_survive_recovery() {
        let dir = TempDir::new("durable-shard");
        let sealing = sealing();
        let shard = DurableShard::open(dir.path(), &sealing, DurableConfig::default()).unwrap();
        seed(&shard);
        drop(shard);
        let revived = DurableShard::open(dir.path(), &sealing, DurableConfig::default()).unwrap();
        assert_eq!(revived.engine().history("sci-0"), vec!["alien", "dune"]);
        let scored = revived
            .engine()
            .score_history(&["alien".to_owned()], 5, &[]);
        assert_eq!(scored.item_ids(), vec!["dune"]);
    }

    #[test]
    fn malformed_events_are_rejected_not_logged() {
        let dir = TempDir::new("durable-shard");
        let shard = DurableShard::open(dir.path(), &sealing(), DurableConfig::default()).unwrap();
        assert_eq!(
            shard
                .handle(&HttpRequest::post(EVENTS_PATH, "not json"))
                .status,
            400
        );
        drop(shard);
        let revived = DurableShard::open(dir.path(), &sealing(), DurableConfig::default()).unwrap();
        assert_eq!(revived.recovery().replayed, 0);
    }
}
