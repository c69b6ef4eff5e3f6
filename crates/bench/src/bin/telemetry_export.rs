//! Telemetry exporter: drives the serving chain (`LoopbackCluster`),
//! scrapes every node over the wire, renders the merged Prometheus text
//! exposition and the schema-versioned JSON snapshot, and runs the
//! telemetry privacy audit over the span-export surface the chain does
//! *not* have (it exports aggregates only; the audit shows what a
//! span-exporting proxy would leak, with and without re-randomized IDs).
//!
//! Artifacts (under `results/` by default):
//!
//! * `TELEMETRY_snapshot.json` — per-stage p50/p95/p99/p99.9 histograms,
//!   per-node counters, span accounting (the user-side library's
//!   `client_encrypt` spans — the ring's only producer), trace policy,
//!   and the privacy audit outcomes (re-randomized policy at the `1/S` baseline; the
//!   stable-ID ablation measured and flagged).
//! * `TELEMETRY_prometheus.txt` — the same histograms and counters as
//!   scrape-ready cumulative-`le` series.
//!
//! Usage:
//!
//! ```text
//! telemetry_export [--requests N] [--shuffle-size S] [--out-dir DIR]
//! telemetry_export --validate DIR   # schema-check previously emitted files
//! ```
//!
//! The exporter refuses to write a snapshot whose own validator rejects
//! it, or whose audit section does not hold (re-randomized IDs inside
//! `1/S`, the stable-ID ablation caught).

use pprox_attack::telemetry_audit::{audit_telemetry, TelemetryAuditConfig};
use pprox_core::resilience::Deadline;
use pprox_core::telemetry::export::{
    json_snapshot, prometheus_text, validate_json_snapshot, validate_prometheus, TelemetryReport,
};
use pprox_core::telemetry::{Stage, TraceIdPolicy};
use pprox_json::Value;
use pprox_lrs::stub::StubLrs;
use pprox_wire::{ClusterConfig, ClusterScraper, LoopbackCluster};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Args {
    requests: usize,
    shuffle_size: usize,
    out_dir: String,
    validate: Option<String>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            requests: 96,
            shuffle_size: 4,
            out_dir: "results".to_string(),
            validate: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--requests" => args.requests = value("--requests").parse().unwrap(),
                "--shuffle-size" => args.shuffle_size = value("--shuffle-size").parse().unwrap(),
                "--out-dir" => args.out_dir = value("--out-dir"),
                "--validate" => args.validate = Some(value("--validate")),
                other => panic!("unknown flag {other}"),
            }
        }
        args
    }
}

/// Applications in flight at once (each a thread with its own user-side
/// library): enough that shuffle buffers fill as well as time out.
const CLIENTS: usize = 8;

/// Drives a shuffling chain with enough traffic to populate every stage
/// histogram, then scrapes it into a [`TelemetryReport`].
fn run_deployment(requests: usize, shuffle_size: usize) -> TelemetryReport {
    let config = ClusterConfig {
        seed: 1,
        ..ClusterConfig::default().with_shuffle(shuffle_size, 50_000)
    };
    let mut cluster = LoopbackCluster::launch(config, Arc::new(StubLrs::new())).unwrap();
    let telemetry = cluster.telemetry().clone();
    let mut clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let mut client = cluster.client();
            client.attach_telemetry(telemetry.clone());
            client
        })
        .collect();

    // Posts seed the LRS so the recommendation GETs have history; GETs
    // exercise the full path (both shuffle directions, IA response
    // re-encryption, LRS reads). End-to-end latency is the client's
    // measurement, recorded histogram-only like every other stage.
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for client in &mut clients {
            let (cluster, telemetry, next) = (&cluster, &telemetry, &next);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= requests {
                    break;
                }
                let budget = Deadline::starting_now(Duration::from_secs(10));
                let user = format!("u{:03}", i % 24);
                let started = Instant::now();
                if i < requests / 2 {
                    let env = client
                        .post(&user, &format!("m{:05}", i % 40), None)
                        .unwrap();
                    cluster.send_post(&env, budget).unwrap();
                } else {
                    let (env, _ticket) = client.get(&user).unwrap();
                    cluster.send_get(&env, budget).unwrap();
                }
                telemetry.record_duration(Stage::E2e, started.elapsed().as_micros() as u64);
            });
        }
    });

    let scrape = ClusterScraper::new(cluster.scrape_targets()).scrape();
    scrape.validate().expect("cluster scrape must validate");
    let spans = telemetry.spans().snapshot();
    let report = TelemetryReport {
        spans_pushed: telemetry.spans().pushed(),
        spans_exported: spans.len() as u64,
        spans_dropped: telemetry.spans().dropped(),
        ..scrape.report()
    };
    cluster.shutdown();
    report
}

/// Runs the privacy audit in both policies and renders the outcomes.
///
/// Panics when the shipped (re-randomized) policy exceeds the `1/S`
/// baseline, or when the deliberately-leaky ablation is *not* caught —
/// either way the exporter must not produce artifacts.
fn audit_section(shuffle_size: usize) -> Value {
    let safe = audit_telemetry(&TelemetryAuditConfig {
        shuffle_size,
        ..TelemetryAuditConfig::default()
    });
    assert!(
        safe.score.within(),
        "exported telemetry exceeds the 1/S linkage baseline: {} > {} + {}",
        safe.score.success_rate,
        safe.score.bound,
        safe.score.tolerance
    );
    let leaky = audit_telemetry(&TelemetryAuditConfig {
        shuffle_size,
        policy: TraceIdPolicy::StableAcrossShuffle,
        ..TelemetryAuditConfig::default()
    });
    assert!(
        !leaky.score.within() && leaky.score.success_rate > 0.9,
        "the stable-trace-ID ablation was not caught (success {})",
        leaky.score.success_rate
    );
    let outcome = |o: &pprox_attack::TelemetryAuditOutcome| {
        Value::object([
            ("policy", Value::from(o.policy_label)),
            ("attempts", Value::from(o.score.attempts as u64)),
            ("correct", Value::from(o.score.correct as u64)),
            ("success_rate", Value::from(o.score.success_rate)),
            ("baseline", Value::from(o.score.bound)),
            ("tolerance", Value::from(o.score.tolerance)),
            ("within_baseline", Value::from(o.score.within())),
        ])
    };
    Value::object([
        ("rerandomize", outcome(&safe)),
        ("stable_ablation", outcome(&leaky)),
    ])
}

fn validate_dir(dir: &str) {
    let json_path = format!("{dir}/TELEMETRY_snapshot.json");
    let text =
        std::fs::read_to_string(&json_path).unwrap_or_else(|e| panic!("read {json_path}: {e}"));
    let root = Value::parse(&text).unwrap_or_else(|e| panic!("{json_path}: invalid JSON: {e:?}"));
    validate_json_snapshot(&root).unwrap_or_else(|e| panic!("{json_path}: {e}"));
    // The audit section must be present and both outcomes must hold.
    let audit = root
        .get("audit")
        .unwrap_or_else(|| panic!("{json_path}: missing audit section"));
    let ok = audit
        .get("rerandomize")
        .and_then(|a| a.get("within_baseline"))
        .and_then(Value::as_bool);
    assert_eq!(ok, Some(true), "{json_path}: rerandomize audit failed");
    let caught = audit
        .get("stable_ablation")
        .and_then(|a| a.get("within_baseline"))
        .and_then(Value::as_bool);
    assert_eq!(
        caught,
        Some(false),
        "{json_path}: stable ablation not flagged"
    );
    println!("{json_path}: schema OK");

    let prom_path = format!("{dir}/TELEMETRY_prometheus.txt");
    let prom =
        std::fs::read_to_string(&prom_path).unwrap_or_else(|e| panic!("read {prom_path}: {e}"));
    validate_prometheus(&prom).unwrap_or_else(|e| panic!("{prom_path}: {e}"));
    println!("{prom_path}: exposition OK");
}

fn main() {
    let args = Args::parse();
    if let Some(dir) = &args.validate {
        validate_dir(dir);
        return;
    }

    eprintln!(
        "driving deployment: {} requests, S={}...",
        args.requests, args.shuffle_size
    );
    let report = run_deployment(args.requests, args.shuffle_size);
    for required in [Stage::Ua, Stage::Ia, Stage::Lrs, Stage::E2e] {
        let count = report.stages[required as usize].1.count();
        assert!(count > 0, "stage {} recorded nothing", required.as_str());
    }

    eprintln!("running telemetry privacy audit...");
    let audit = audit_section(args.shuffle_size.max(2));

    let mut snapshot = json_snapshot(&report);
    snapshot.insert("audit", audit);
    validate_json_snapshot(&snapshot).expect("emitted snapshot must self-validate");
    let prom = prometheus_text(&report);
    validate_prometheus(&prom).expect("emitted exposition must self-validate");

    std::fs::create_dir_all(&args.out_dir).unwrap();
    let json_path = format!("{}/TELEMETRY_snapshot.json", args.out_dir);
    std::fs::write(&json_path, snapshot.to_json()).unwrap();
    let prom_path = format!("{}/TELEMETRY_prometheus.txt", args.out_dir);
    std::fs::write(&prom_path, &prom).unwrap();
    println!("wrote {json_path}");
    println!("wrote {prom_path}");
}
