//! Telemetry exporter: drives the serving chain (`LoopbackCluster`),
//! scrapes every node over the wire, and writes the cluster view — the
//! node documents merged under the node scrape's own schema — and its
//! Prometheus rendering.
//!
//! Artifacts (under `results/` by default):
//!
//! * `TELEMETRY_snapshot.json` — `ClusterSnapshot::merged`: the node
//!   metrics document (`wire::scrape`), counters summed over the nodes,
//!   high-water marks their maximum, stage histograms counted once.
//!   Aggregates only: the schema has no place for a per-request record,
//!   and the validator rejects any key outside it.
//! * `TELEMETRY_prometheus.txt` — the same document as scrape-ready
//!   series (`scrape::prometheus_text`).
//!
//! Every stage in it is what the nodes measured themselves: the driver's
//! clients are applications on users' devices, and their timings are
//! not the proxy's telemetry.
//!
//! Usage:
//!
//! ```text
//! telemetry_export [--requests N] [--shuffle-size S] [--out-dir DIR]
//! telemetry_export --validate DIR   # schema-check previously emitted files
//! ```
//!
//! The exporter refuses to write a snapshot its own validator rejects.
//! What an export could leak is checked per scenario in
//! `scenario_report`, on what the chain really emits:
//! `attack::scan_export_for_oracles` on every node document the
//! pressure sampler scrapes, and `attack::wire_audit` on the real
//! request trace with arrival instants leaked as a join key, which it
//! must catch.

use pprox_bench::report;
use pprox_core::resilience::Deadline;
use pprox_json::schema::list;
use pprox_json::Value;
use pprox_lrs::stub::StubLrs;
use pprox_wire::scrape::{prometheus_text, snapshot_schema, validate_prometheus, REQUIRED_STAGES};
use pprox_wire::{validate_scrape_snapshot, ClusterConfig, ClusterScraper, LoopbackCluster};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
/// histogram, then scrapes it into the cluster view.
fn run_deployment(requests: usize, shuffle_size: usize) -> Value {
    let config = ClusterConfig {
        seed: 1,
        ..ClusterConfig::default().with_shuffle(shuffle_size, 50_000)
    };
    let mut cluster = LoopbackCluster::launch(config, Arc::new(StubLrs::new())).unwrap();
    let mut clients: Vec<_> = (0..CLIENTS).map(|_| cluster.client()).collect();

    // Posts seed the LRS so the recommendation GETs have history; GETs
    // exercise the full path (both shuffle directions, IA response
    // re-encryption, LRS reads).
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for client in &mut clients {
            let (cluster, next) = (&cluster, &next);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= requests {
                    break;
                }
                let budget = Deadline::starting_now(Duration::from_secs(10));
                let user = format!("u{:03}", i % 24);
                if i < requests / 2 {
                    let env = client
                        .post(&user, &format!("m{:05}", i % 40), None)
                        .unwrap();
                    cluster.send_post(&env, budget).unwrap();
                } else {
                    let (env, _ticket) = client.get(&user).unwrap();
                    cluster.send_get(&env, budget).unwrap();
                }
            });
        }
    });

    let scrape = ClusterScraper::new(cluster.scrape_targets()).scrape();
    scrape.validate().expect("cluster scrape must validate");
    cluster.shutdown();
    scrape.merged()
}

fn validate_dir(dir: &str) {
    report::validate_file(
        &format!("{dir}/TELEMETRY_snapshot.json"),
        &snapshot_schema(),
    );

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
    let snapshot = run_deployment(args.requests, args.shuffle_size);
    validate_scrape_snapshot(&snapshot).expect("emitted snapshot must self-validate");
    for required in REQUIRED_STAGES {
        let cells = list(&snapshot, &format!("stages.{required}.counts"));
        assert!(
            cells.is_ok_and(|cells| !cells.is_empty()),
            "stage {required} recorded nothing"
        );
    }
    let prom = prometheus_text(&snapshot);
    validate_prometheus(&prom).expect("emitted exposition must self-validate");

    std::fs::create_dir_all(&args.out_dir).unwrap();
    let json_path = format!("{}/TELEMETRY_snapshot.json", args.out_dir);
    std::fs::write(&json_path, snapshot.to_json()).unwrap();
    let prom_path = format!("{}/TELEMETRY_prometheus.txt", args.out_dir);
    std::fs::write(&prom_path, &prom).unwrap();
    println!("wrote {json_path}");
    println!("wrote {prom_path}");
}
