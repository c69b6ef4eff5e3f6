//! `recovery_report`: the kill-and-replay drill, measured.
//!
//! Three phases, one JSON report (`results/BENCH_recovery.json`):
//!
//! 1. **Timing** — a [`DurableShard`] is cold-started, fed a fixed-seed
//!    event trace, killed (dropped), and reopened: cold-start vs
//!    warm-restart wall time, snapshot + WAL replay throughput (replay
//!    *is* the incremental training pass), time from reopen to the first
//!    answered query, and a byte-identity check on a fixed query set
//!    before/after the restart.
//! 2. **Drill** — two supervised loopback clusters over durable LRS
//!    layers run the same fixed-seed trace; one loses its *entire* LRS
//!    layer to a kill mid-trace and recovers by unseal + replay. The
//!    final recommendations of both runs must be identical: a crash in
//!    the middle of the workload is invisible in the output.
//! 3. **Audit** — `pprox_attack::at_rest_audit` scans the drill's
//!    persisted store image: no plaintext user/item identifiers, padded
//!    ciphertext lengths only.
//!
//! Usage:
//!
//! ```text
//! recovery_report [--events N] [--lrs-instances N] [--seed X]
//!                 [--snapshot-every N] [--out PATH]
//! recovery_report --validate PATH   # schema-check an emitted report
//! ```
//!
//! Analyzer note: this driver sits outside the trust boundary (it plays
//! both the user population and the at-rest adversary), like the rest of
//! `pprox-bench`.

use pprox_attack::at_rest_audit::audit_store_dir;
use pprox_bench::report::{self, round3};
use pprox_core::resilience::Deadline;
use pprox_json::schema::{above, at_least, integers, is, Schema};
use pprox_json::Value;
use pprox_lrs::api::{FeedbackEvent, HttpRequest, RestHandler, EVENTS_PATH, QUERIES_PATH};
use pprox_lrs::shard::{DurableConfig, DurableShard};
use pprox_store::{SealingKey, SecureRng, TempDir};
use pprox_wire::cluster::{ClusterConfig, LoopbackCluster, LrsFactory, LrsInstance};
use pprox_workload::dataset::Dataset;
use std::path::Path;
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Report schema version.
const RECOVERY_SCHEMA_VERSION: u64 = 2;

/// Per-request deadline for the drill's wire calls.
const REQUEST_BUDGET: Duration = Duration::from_secs(10);

/// Users queried for the identity checks.
const QUERY_USERS: usize = 8;

#[derive(Debug)]
struct Args {
    events: usize,
    lrs_instances: usize,
    seed: u64,
    snapshot_every: u64,
    out: String,
    validate: Option<String>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            events: 240,
            lrs_instances: 2,
            seed: 0x4ec0_7e12,
            snapshot_every: 64,
            out: "results/BENCH_recovery.json".to_string(),
            validate: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--events" => args.events = value("--events").parse().unwrap(),
                "--lrs-instances" => args.lrs_instances = value("--lrs-instances").parse().unwrap(),
                "--seed" => args.seed = value("--seed").parse().unwrap(),
                "--snapshot-every" => {
                    args.snapshot_every = value("--snapshot-every").parse().unwrap()
                }
                "--out" => args.out = value("--out"),
                "--validate" => args.validate = Some(value("--validate")),
                other => panic!("unknown flag {other}"),
            }
        }
        assert!(args.events >= 20, "--events must be >= 20");
        assert!(
            (1..=4).contains(&args.lrs_instances),
            "--lrs-instances must be 1..=4"
        );
        args
    }

    fn durable(&self) -> DurableConfig {
        DurableConfig {
            snapshot_every: self.snapshot_every,
            ..DurableConfig::default()
        }
    }
}

/// The fixed-seed interaction trace shared by every phase.
fn build_trace(args: &Args) -> Vec<(String, String)> {
    let dataset = Dataset::small(args.seed);
    dataset.interactions().take(args.events).collect()
}

/// The raw identifiers the at-rest adversary wants to recover: every
/// user and item id appearing in the trace.
fn trace_raw_ids(trace: &[(String, String)]) -> Vec<String> {
    let mut ids: Vec<String> = Vec::new();
    for (user, item) in trace {
        if !ids.contains(user) {
            ids.push(user.clone());
        }
        if !ids.contains(item) {
            ids.push(item.clone());
        }
    }
    ids
}

struct TimingOutcome {
    cold_open: Duration,
    warm_open: Duration,
    first_answer: Duration,
    restored_events: usize,
    snapshot_events: usize,
    replayed: usize,
    replay_events_per_sec: f64,
    identical_after_reopen: bool,
}

/// Phase 1: direct (no wire) cold-start vs warm-restart measurement.
fn run_timing(args: &Args, trace: &[(String, String)]) -> TimingOutcome {
    let dir = TempDir::new("recovery-timing");
    let sealing = SealingKey::generate(&mut SecureRng::from_seed(args.seed));
    let config = args.durable();

    let lrs = DurableShard::open(dir.path(), &sealing, config).expect("cold open");
    assert!(lrs.recovery().cold_start, "fresh directory must cold-start");
    let cold_open = lrs.recovery().duration;

    for (user, item) in trace {
        let body = FeedbackEvent {
            user: user.clone(),
            item: item.clone(),
            payload: Some(4.0),
        }
        .to_json();
        let resp = lrs.handle(&HttpRequest::post(EVENTS_PATH, body));
        assert!(resp.is_success(), "post failed: {}", resp.body);
    }
    let before: Vec<String> = query_bodies(&lrs, trace);
    drop(lrs); // the kill: in-memory engine and DEK are gone

    let reopen_started = Instant::now();
    let revived = DurableShard::open(dir.path(), &sealing, config).expect("warm open");
    let first = query_bodies(&revived, &trace[..1]);
    let first_answer = reopen_started.elapsed();
    let stats = revived.recovery().clone();
    assert!(!stats.cold_start, "second open must find sealed state");
    let restored = stats.snapshot_events + stats.replayed;
    assert_eq!(restored, trace.len(), "recovery must restore every event");
    let after: Vec<String> = query_bodies(&revived, trace);
    assert_eq!(first[0], after[0], "the first answer is a full answer");

    TimingOutcome {
        cold_open,
        warm_open: stats.duration,
        first_answer,
        restored_events: restored,
        snapshot_events: stats.snapshot_events,
        replayed: stats.replayed,
        replay_events_per_sec: restored as f64 / stats.duration.as_secs_f64().max(1e-9),
        identical_after_reopen: before == after,
    }
}

/// Fixed query set against a durable instance, as raw response bodies.
fn query_bodies(lrs: &DurableShard, trace: &[(String, String)]) -> Vec<String> {
    trace
        .iter()
        .map(|(user, _)| user)
        .take(QUERY_USERS)
        .map(|user| {
            lrs.handle(&HttpRequest::post(
                QUERIES_PATH,
                format!(r#"{{"user":"{user}","num":10}}"#),
            ))
            .body
        })
        .collect()
}

/// Builds the durable boot factory the supervisor re-runs: one shared
/// handler while any instance holds it, rebuilt from disk once the
/// whole layer is gone.
fn durable_factory(dir: &Path, seed: u64, config: DurableConfig) -> LrsFactory {
    let sealing = SealingKey::generate(&mut SecureRng::from_seed(seed));
    let memo: Mutex<Weak<DurableShard>> = Mutex::new(Weak::new());
    let dir = dir.to_path_buf();
    Arc::new(move |_slot_index| {
        let mut slot = memo.lock().unwrap();
        if let Some(live) = slot.upgrade() {
            return LrsInstance::plain(live);
        }
        let lrs = Arc::new(
            DurableShard::open(&dir, &sealing, config).expect("durable recovery must succeed"),
        );
        *slot = Arc::downgrade(&lrs);
        LrsInstance::plain(lrs)
    })
}

struct DrillRun {
    recommendations: Vec<Vec<String>>,
    respawns: u64,
}

/// Runs the fixed trace through one supervised durable cluster,
/// optionally killing the whole LRS layer after `kill_after` posts.
fn run_cluster(
    args: &Args,
    trace: &[(String, String)],
    store_dir: &Path,
    kill_after: Option<usize>,
) -> DrillRun {
    let factory = durable_factory(store_dir, args.seed, args.durable());
    let config = ClusterConfig {
        ua_instances: 1,
        ia_instances: 1,
        lrs_instances: args.lrs_instances,
        modulus_bits: 1152,
        supervisor: true,
        seed: args.seed,
        ..ClusterConfig::default()
    };
    let mut cluster = LoopbackCluster::launch_with_factory(config, factory).expect("launch");
    let mut client = cluster.client();

    for (posted, (user, item)) in trace.iter().enumerate() {
        if kill_after == Some(posted) {
            eprintln!("drill: killing the whole LRS layer after {posted} posts...");
            cluster.kill_lrs_layer();
            assert!(
                cluster.wait_ready(Duration::from_secs(30)),
                "supervisor must recover the LRS layer"
            );
        }
        let env = client.post(user, item, Some(4.0)).expect("seal post");
        cluster
            .send_post(&env, Deadline::starting_now(REQUEST_BUDGET))
            .unwrap_or_else(|e| panic!("post {posted} failed: {e:?}"));
    }

    let mut recommendations = Vec::new();
    let mut seen = Vec::new();
    for (user, _) in trace {
        if seen.contains(user) {
            continue;
        }
        seen.push(user.clone());
        if seen.len() > QUERY_USERS {
            break;
        }
        let (env, ticket) = client.get(user).expect("seal get");
        let encrypted = cluster
            .send_get(&env, Deadline::starting_now(REQUEST_BUDGET))
            .unwrap_or_else(|e| panic!("get for {user} failed: {e:?}"));
        recommendations.push(client.open_response(&ticket, &encrypted).expect("open"));
    }
    let respawns = cluster.respawns();
    cluster.shutdown();
    DrillRun {
        recommendations,
        respawns,
    }
}

fn duration_us(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// The report's schema, next to its emitter in `main`: the warm restart
/// reproduced its answers, the killed run respawned and matched the
/// control run, and the at-rest audit found nothing.
fn schema() -> Schema {
    let config = integers("events lrs_instances seed snapshot_every query_users");
    let timing = integers(
        "cold_open_us warm_open_us first_answer_us restored_events snapshot_events wal_replayed",
    )
    .chain([
        ("replay_events_per_sec", Schema::Number.with(above(0.0))),
        ("identical_after_reopen", Schema::Bool.with(is(true))),
    ]);
    let drill = integers("kill_after_posts control_respawns wall_ms").chain([
        ("respawns", Schema::U64.with(at_least(1.0))),
        ("identical", Schema::Bool.with(is(true))),
        ("nonempty_recommendations", Schema::U64.with(at_least(1.0))),
    ]);
    let audit = integers(
        "files_scanned bytes_scanned secrets_probed wal_records unpadded_wal_records \
         wal_torn_bytes blocks unpadded_blocks mismatched_blocks",
    )
    .chain([
        ("passed", Schema::Bool.with(is(true))),
        ("plaintext_hits", Schema::U64.with(is(0u64))),
        ("keyring_present", Schema::Bool),
    ]);
    Schema::object([
        ("benchmark", Schema::one_of(["recovery"])),
        ("schema_version", Schema::version(RECOVERY_SCHEMA_VERSION)),
        ("config", Schema::object(config)),
        ("timing", Schema::object(timing)),
        ("drill", Schema::object(drill)),
        ("at_rest_audit", Schema::object(audit)),
    ])
}

fn main() {
    let args = Args::parse();
    if let Some(path) = &args.validate {
        report::validate_file(path, &schema());
        return;
    }

    let trace = build_trace(&args);
    let raw_ids = trace_raw_ids(&trace);
    eprintln!(
        "recovery: {} events, {} distinct raw identifiers, {} LRS instances",
        trace.len(),
        raw_ids.len(),
        args.lrs_instances
    );

    eprintln!(
        "timing: cold start, {} posts, kill, warm restart...",
        trace.len()
    );
    let timing = run_timing(&args, &trace);
    eprintln!(
        "timing: cold {}us, warm {}us, first answer {}us ({} snapshot + {} WAL events, {:.0} events/s replay)",
        duration_us(timing.cold_open),
        duration_us(timing.warm_open),
        duration_us(timing.first_answer),
        timing.snapshot_events,
        timing.replayed,
        timing.replay_events_per_sec
    );
    assert!(timing.identical_after_reopen, "warm restart diverged");

    eprintln!("drill: control run (no kill)...");
    let control_dir = TempDir::new("recovery-control");
    let control = run_cluster(&args, &trace, control_dir.path(), None);

    eprintln!("drill: killed run (whole LRS layer dies mid-trace)...");
    let drill_dir = TempDir::new("recovery-drill");
    let started = Instant::now();
    let killed = run_cluster(&args, &trace, drill_dir.path(), Some(trace.len() / 2));
    let drill_wall = started.elapsed();

    let identical = control.recommendations == killed.recommendations;
    let nonempty = killed
        .recommendations
        .iter()
        .filter(|r| !r.is_empty())
        .count();
    eprintln!(
        "drill: {} respawns, identical={identical}, {nonempty}/{} query users got recommendations",
        killed.respawns,
        killed.recommendations.len()
    );
    assert!(identical, "killed run diverged from the control run");

    eprintln!("audit: scanning the drill's persisted image...");
    let store_cfg = args.durable().store;
    let audit = audit_store_dir(
        drill_dir.path(),
        &raw_ids,
        store_cfg.pad_class,
        store_cfg.block_class,
    )
    .expect("audit scan");
    eprintln!(
        "audit: {} files / {} bytes, {} WAL records, {} blocks, passed={}",
        audit.files_scanned,
        audit.bytes_scanned,
        audit.wal_records,
        audit.blocks,
        audit.passed()
    );
    assert!(audit.passed(), "at-rest audit failed: {audit:?}");

    let report = Value::object([
        ("benchmark", Value::from("recovery")),
        ("schema_version", Value::from(RECOVERY_SCHEMA_VERSION)),
        (
            "config",
            Value::object([
                ("events", Value::from(trace.len() as u64)),
                ("lrs_instances", Value::from(args.lrs_instances as u64)),
                ("seed", Value::from(args.seed)),
                ("snapshot_every", Value::from(args.snapshot_every)),
                ("query_users", Value::from(QUERY_USERS as u64)),
            ]),
        ),
        (
            "timing",
            Value::object([
                ("cold_open_us", Value::from(duration_us(timing.cold_open))),
                ("warm_open_us", Value::from(duration_us(timing.warm_open))),
                (
                    "first_answer_us",
                    Value::from(duration_us(timing.first_answer)),
                ),
                (
                    "restored_events",
                    Value::from(timing.restored_events as u64),
                ),
                (
                    "snapshot_events",
                    Value::from(timing.snapshot_events as u64),
                ),
                ("wal_replayed", Value::from(timing.replayed as u64)),
                (
                    "replay_events_per_sec",
                    Value::from(round3(timing.replay_events_per_sec)),
                ),
                (
                    "identical_after_reopen",
                    Value::from(timing.identical_after_reopen),
                ),
            ]),
        ),
        (
            "drill",
            Value::object([
                ("kill_after_posts", Value::from((trace.len() / 2) as u64)),
                ("respawns", Value::from(killed.respawns)),
                ("control_respawns", Value::from(control.respawns)),
                ("identical", Value::from(identical)),
                ("nonempty_recommendations", Value::from(nonempty as u64)),
                ("wall_ms", Value::from(drill_wall.as_millis() as u64)),
            ]),
        ),
        (
            "at_rest_audit",
            Value::object([
                ("passed", Value::from(audit.passed())),
                ("files_scanned", Value::from(audit.files_scanned as u64)),
                ("bytes_scanned", Value::from(audit.bytes_scanned)),
                ("secrets_probed", Value::from(raw_ids.len() as u64)),
                (
                    "plaintext_hits",
                    Value::from(audit.plaintext_hits.len() as u64),
                ),
                ("wal_records", Value::from(audit.wal_records as u64)),
                (
                    "unpadded_wal_records",
                    Value::from(audit.unpadded_wal_records as u64),
                ),
                ("wal_torn_bytes", Value::from(audit.wal_torn_bytes)),
                ("blocks", Value::from(audit.blocks as u64)),
                ("unpadded_blocks", Value::from(audit.unpadded_blocks as u64)),
                (
                    "mismatched_blocks",
                    Value::from(audit.mismatched_blocks as u64),
                ),
                ("keyring_present", Value::from(audit.keyring_present)),
            ]),
        ),
    ]);

    let json = report.to_json();
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&args.out, &json).unwrap_or_else(|e| panic!("write {}: {e}", args.out));
    println!("{json}");
    eprintln!("wrote {}", args.out);
}

#[test]
fn committed_report_is_exact() {
    let doc = report::committed("BENCH_recovery.json");
    pprox_json::schema::assert_exact(&schema(), &doc, &["", "at_rest_audit"]);
}
