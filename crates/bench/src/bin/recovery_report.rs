//! `recovery_report`: a durable LRS's warm restart, timed.
//!
//! One JSON report (`results/BENCH_recovery.json`): a [`DurableShard`]
//! is cold-started, fed a fixed-seed event trace, killed (dropped), and
//! reopened — cold-start vs warm-restart wall time, snapshot + WAL
//! replay throughput (replay *is* the incremental training pass), time
//! from reopen to the first answered query, and a byte-identity check on
//! a fixed query set before/after the restart.
//!
//! The kill-and-replay drill through the serving chain — the whole LRS
//! layer killed mid-trace, the final recommendations equal to a
//! never-killed run's, and the at-rest audit of the store it leaves — is
//! the tier-1 test
//! `tests/wire_e2e.rs::supervised_durable_lrs_layer_recovers_with_identical_recommendations`.
//!
//! Usage:
//!
//! ```text
//! recovery_report [--events N] [--seed X] [--snapshot-every N] [--out PATH]
//! recovery_report --validate PATH   # schema-check an emitted report
//! ```

use pprox_bench::report::{self, round3};
use pprox_json::schema::{above, integers, is, Schema};
use pprox_json::Value;
use pprox_lrs::api::{FeedbackEvent, HttpRequest, RestHandler, EVENTS_PATH, QUERIES_PATH};
use pprox_lrs::shard::{DurableConfig, DurableShard};
use pprox_store::{SealingKey, SecureRng, TempDir};
use pprox_workload::dataset::Dataset;
use std::time::{Duration, Instant};

/// Report schema version.
const RECOVERY_SCHEMA_VERSION: u64 = 3;

/// Users queried for the identity check.
const QUERY_USERS: usize = 8;

#[derive(Debug)]
struct Args {
    events: usize,
    seed: u64,
    snapshot_every: u64,
    out: String,
    validate: Option<String>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            events: 240,
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
        args
    }

    fn durable(&self) -> DurableConfig {
        DurableConfig {
            snapshot_every: self.snapshot_every,
            ..DurableConfig::default()
        }
    }
}

/// The fixed-seed interaction trace.
fn build_trace(args: &Args) -> Vec<(String, String)> {
    let dataset = Dataset::small(args.seed);
    dataset.interactions().take(args.events).collect()
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

/// Cold start, the trace, the kill, the warm restart.
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

fn duration_us(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// The report's schema, next to its emitter in `main`: the warm restart
/// reproduced its answers.
fn schema() -> Schema {
    let config = integers("events seed snapshot_every query_users");
    let timing = integers(
        "cold_open_us warm_open_us first_answer_us restored_events snapshot_events wal_replayed",
    )
    .chain([
        ("replay_events_per_sec", Schema::Number.with(above(0.0))),
        ("identical_after_reopen", Schema::Bool.with(is(true))),
    ]);
    Schema::object([
        ("benchmark", Schema::one_of(["recovery"])),
        ("schema_version", Schema::version(RECOVERY_SCHEMA_VERSION)),
        ("config", Schema::object(config)),
        ("timing", Schema::object(timing)),
    ])
}

fn main() {
    let args = Args::parse();
    if let Some(path) = &args.validate {
        report::validate_file(path, &schema());
        return;
    }

    let trace = build_trace(&args);
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

    let report = Value::object([
        ("benchmark", Value::from("recovery")),
        ("schema_version", Value::from(RECOVERY_SCHEMA_VERSION)),
        (
            "config",
            Value::object([
                ("events", Value::from(trace.len() as u64)),
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
    pprox_json::schema::assert_exact(&schema(), &doc, &["", "timing"]);
}
