//! `shard_report`: the sharded-LRS scaling benchmark.
//!
//! Drives N [`ShardEngine`]s through their REST surface over a Zipf
//! workload at catalog scale — a million-user population, a 100k-item
//! catalog — and emits `results/BENCH_sharding.json`:
//!
//! * **Scaling curve** — projected sustained RPS and measured tail
//!   latency at shard counts 1→8 over the *same* fixed-seed trace.
//! * **Freshness timings** — incremental CCO ingest per event against
//!   the batch retrain it replaced (`CcoTrainer` + `ScoringIndex`) at
//!   scale. That the incremental model is fresh where the batch one is
//!   stale, and answers like it after `sync`, is a pass/fail property:
//!   `crates/lrs/tests/shard_differential.rs` holds it, not this bin.
//!
//! # Measurement model
//!
//! Shards are independent nodes in deployment (the whole point of
//! partitioning an untrusted backend, §3), but CI runs on a single
//! core, where wall-clock parallel speedup is physically meaningless.
//! The bench therefore measures **per-shard service demand** directly:
//! each shard's slice of the workload is run serially and timed, and
//! cluster capacity follows from the utilization law —
//!
//! ```text
//! sustained_rps = total_ops / max_over_shards(shard_busy_time)
//! ```
//!
//! i.e. a shard-per-node cluster sustains load until its busiest shard
//! saturates. `sustained_rps*` is therefore a utilization-law
//! projection, not a measured cluster. The single-core aggregate
//! (`total_ops / total_busy`) is reported alongside so the raw numbers
//! stay auditable. The trace is partitioned by the IA's own router
//! ([`ShardRouter::owner`], the same ring the chain routes by).
//!
//! The sustained stream is ingest-dominated (feedback events plus a
//! query sideband): partitioning splits *write* load cleanly, while a
//! scatter-gather read occupies every shard, so read capacity is what
//! it is — the curve reports `ingest_rps` and `query_rps` separately
//! so both shapes stay visible. Measured reads are the IA's: the owner
//! shard answers with the user's newest
//! [`HISTORY_LIMIT`](pprox_lrs::shard::HISTORY_LIMIT) entries and every
//! shard scores them.
//!
//! Usage:
//!
//! ```text
//! shard_report [--smoke] [--users N] [--items N] [--events N]
//!              [--queries N] [--ablation-events N] [--seed X]
//!              [--out PATH]
//! shard_report --validate PATH   # schema-check an emitted report
//! ```

use pprox_bench::report::{self, round3};
use pprox_json::schema::{above, ensure, integers, list, number, numbers, text, Schema};
use pprox_json::Value;
use pprox_lrs::api::{FeedbackEvent, HttpRequest, RecommendationList, RestHandler, EVENTS_PATH};
use pprox_lrs::cco::{CcoConfig, CcoTrainer};
use pprox_lrs::index::ScoringIndex;
use pprox_lrs::shard::{
    history_request_body, parse_history_response, score_request_body, ShardEngine, DEFAULT_VNODES,
    HISTORY_PATH, SCORE_PATH,
};
use pprox_wire::ShardRouter;
use pprox_workload::stats::percentile;
use pprox_workload::zipf::Zipf;
use std::time::{Duration, Instant};

/// Report schema version.
const SHARDING_SCHEMA_VERSION: u64 = 2;

/// Shard counts swept in full mode (smoke trims the tail).
const FULL_SHARD_COUNTS: &[usize] = &[1, 2, 4, 8];

/// Every Nth ingest op gets a latency sample (sampling keeps the timer
/// overhead out of the sustained-throughput number).
const INGEST_SAMPLE_EVERY: usize = 16;

/// Zipf exponent for item popularity (the classic catalog skew).
const ITEM_ZIPF_S: f64 = 1.0;

/// Zipf exponent for user activity (heavy-tailed, but flat enough that
/// a million-user population stays mostly populated).
const USER_ZIPF_S: f64 = 0.8;

#[derive(Debug)]
struct Args {
    smoke: bool,
    users: usize,
    items: usize,
    events: usize,
    queries: usize,
    ablation_events: usize,
    seed: u64,
    out: String,
    validate: Option<String>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            smoke: false,
            users: 1_000_000,
            items: 100_000,
            events: 2_000_000,
            queries: 2_500,
            ablation_events: 200_000,
            seed: 0x5a4d_be7c,
            out: "results/BENCH_sharding.json".to_string(),
            validate: None,
        };
        let mut explicit_scale = false;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--smoke" => args.smoke = true,
                "--users" => {
                    args.users = value("--users").parse().unwrap();
                    explicit_scale = true;
                }
                "--items" => {
                    args.items = value("--items").parse().unwrap();
                    explicit_scale = true;
                }
                "--events" => {
                    args.events = value("--events").parse().unwrap();
                    explicit_scale = true;
                }
                "--queries" => {
                    args.queries = value("--queries").parse().unwrap();
                    explicit_scale = true;
                }
                "--ablation-events" => {
                    args.ablation_events = value("--ablation-events").parse().unwrap();
                    explicit_scale = true;
                }
                "--seed" => args.seed = value("--seed").parse().unwrap(),
                "--out" => args.out = value("--out"),
                "--validate" => args.validate = Some(value("--validate")),
                other => panic!("unknown flag {other}"),
            }
        }
        if args.smoke {
            assert!(
                !explicit_scale,
                "--smoke picks its own scale; drop the explicit size flags"
            );
            args.users = 3_000;
            args.items = 800;
            args.events = 15_000;
            args.queries = 300;
            args.ablation_events = 4_000;
        }
        assert!(args.users >= 100, "--users must be >= 100");
        assert!(args.items >= 50, "--items must be >= 50");
        assert!(args.events >= args.users, "--events must cover --users");
        assert!(args.queries >= 50, "--queries must be >= 50");
        args
    }

    fn shard_counts(&self) -> &'static [usize] {
        if self.smoke {
            &FULL_SHARD_COUNTS[..2]
        } else {
            FULL_SHARD_COUNTS
        }
    }

    fn cco(&self) -> CcoConfig {
        CcoConfig::default()
    }
}

fn user_id(rank: usize) -> String {
    format!("u{rank}")
}

fn item_id(rank: usize) -> String {
    format!("i{rank}")
}

/// The fixed-seed trace every shard count replays: `(user, item)` rank
/// pairs. The first `users` events enumerate the population once (so a
/// million-user run genuinely touches a million users); the rest draw
/// users from a Zipf activity distribution. Items are always
/// Zipf-popular.
fn build_trace(args: &Args) -> Vec<(u32, u32)> {
    let mut items = Zipf::new(args.items, ITEM_ZIPF_S, args.seed ^ 0x17e5);
    let mut users = Zipf::new(args.users, USER_ZIPF_S, args.seed ^ 0x05e5);
    (0..args.events)
        .map(|i| {
            let user = if i < args.users { i } else { users.sample() };
            (user as u32, items.sample() as u32)
        })
        .collect()
}

/// The `p`-th percentile of millisecond `samples`, in microseconds.
fn percentile_us(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    percentile(samples, p) * 1000.0
}

/// One shard count's measurement.
struct CurvePoint {
    shards: usize,
    sustained_rps: f64,
    aggregate_rps: f64,
    ingest_rps: f64,
    query_rps: f64,
    ingest_p50_us: f64,
    ingest_p99_us: f64,
    query_p50_us: f64,
    query_p99_us: f64,
    sync_max_ms: f64,
    max_shard_events: u64,
    min_shard_events: u64,
}

/// Runs the full trace + query phase against a `shards`-way partition,
/// timing each shard's slice serially (see the measurement model in the
/// module docs).
fn run_curve_point(args: &Args, trace: &[(u32, u32)], shards: usize) -> CurvePoint {
    let engines: Vec<ShardEngine> = (0..shards)
        .map(|_| ShardEngine::with_config(args.cco()))
        .collect();
    let router = ShardRouter::new(shards, DEFAULT_VNODES);

    // Partition by the IA's router, preserving trace order within each
    // shard (exactly the event stream that shard's node would see).
    let mut slices: Vec<Vec<String>> = vec![Vec::new(); shards];
    for &(user, item) in trace {
        let user = user_id(user as usize);
        let owner = router.owner(&user);
        slices[owner].push(
            FeedbackEvent {
                user,
                item: item_id(item as usize),
                payload: None,
            }
            .to_json(),
        );
    }

    // Ingest: each shard's slice, serially timed.
    let mut ingest_busy = vec![Duration::ZERO; shards];
    let mut ingest_samples: Vec<f64> = Vec::new();
    for (shard, slice) in slices.into_iter().enumerate() {
        let started = Instant::now();
        for (i, body) in slice.into_iter().enumerate() {
            if i % INGEST_SAMPLE_EVERY == 0 {
                let op = Instant::now();
                let resp = engines[shard].handle(&HttpRequest::post(EVENTS_PATH, body));
                assert!(resp.is_success(), "post failed: {}", resp.body);
                ingest_samples.push(op.elapsed().as_secs_f64() * 1000.0);
            } else {
                let resp = engines[shard].handle(&HttpRequest::post(EVENTS_PATH, body));
                assert!(resp.is_success(), "post failed: {}", resp.body);
            }
        }
        ingest_busy[shard] = started.elapsed();
    }
    let total_events: u64 = engines.iter().map(|e| e.gauges().events).sum();
    assert_eq!(
        total_events,
        trace.len() as u64,
        "every event must land on exactly one shard"
    );

    // Periodic exactness sync, per shard (in deployment: one background
    // pass per node; capacity is bounded by the slowest).
    let mut sync_max = Duration::ZERO;
    for engine in &engines {
        let started = Instant::now();
        engine.sync();
        sync_max = sync_max.max(started.elapsed());
    }

    // Queries: the IA's scatter-gather, with per-shard busy attribution
    // — the owner shard supplies the newest `HISTORY_LIMIT` history
    // entries, every shard scores them. Latency per query = owner
    // history + the slowest parallel score leg; the IA-side merge and
    // its frame-budget bounding of the score body are not timed.
    let mut users = Zipf::new(args.users, USER_ZIPF_S, args.seed ^ 0x9e7);
    let mut query_busy = vec![Duration::ZERO; shards];
    let mut query_samples: Vec<f64> = Vec::with_capacity(args.queries);
    for _ in 0..args.queries {
        let user = user_id(users.sample());
        let owner = router.owner(&user);

        let leg = Instant::now();
        let resp = engines[owner].handle(&HttpRequest::post(
            HISTORY_PATH,
            history_request_body(&user),
        ));
        let history_time = leg.elapsed();
        query_busy[owner] += history_time;
        assert!(resp.is_success(), "history failed: {}", resp.body);
        let history = parse_history_response(&resp.body).expect("well-formed shard history");

        let body = score_request_body(&history, pprox_lrs::MAX_RECOMMENDATIONS, &[]);
        let mut slowest_leg = Duration::ZERO;
        for (shard, engine) in engines.iter().enumerate() {
            let leg = Instant::now();
            let resp = engine.handle(&HttpRequest::post(SCORE_PATH, body.clone()));
            let took = leg.elapsed();
            query_busy[shard] += took;
            slowest_leg = slowest_leg.max(took);
            assert!(resp.is_success(), "score failed: {}", resp.body);
            let _ = RecommendationList::from_json(&resp.body).expect("well-formed scores");
        }
        let latency = history_time + slowest_leg;
        query_samples.push(latency.as_secs_f64() * 1000.0);
    }

    let max_ingest = ingest_busy.iter().max().copied().unwrap_or_default();
    let sum_ingest: Duration = ingest_busy.iter().sum();
    let max_query = query_busy.iter().max().copied().unwrap_or_default();
    let combined_max: Duration = ingest_busy
        .iter()
        .zip(&query_busy)
        .map(|(a, b)| *a + *b)
        .max()
        .unwrap_or_default();
    let combined_sum = sum_ingest + query_busy.iter().sum::<Duration>();
    let total_ops = (trace.len() + args.queries) as f64;

    let events_per_shard: Vec<u64> = engines.iter().map(|e| e.gauges().events).collect();
    CurvePoint {
        shards,
        sustained_rps: total_ops / combined_max.as_secs_f64().max(1e-9),
        aggregate_rps: total_ops / combined_sum.as_secs_f64().max(1e-9),
        ingest_rps: trace.len() as f64 / max_ingest.as_secs_f64().max(1e-9),
        query_rps: args.queries as f64 / max_query.as_secs_f64().max(1e-9),
        ingest_p50_us: percentile_us(&mut ingest_samples, 50.0),
        ingest_p99_us: percentile_us(&mut ingest_samples, 99.0),
        query_p50_us: percentile_us(&mut query_samples, 50.0),
        query_p99_us: percentile_us(&mut query_samples, 99.0),
        sync_max_ms: sync_max.as_secs_f64() * 1000.0,
        max_shard_events: events_per_shard.iter().max().copied().unwrap_or(0),
        min_shard_events: events_per_shard.iter().min().copied().unwrap_or(0),
    }
}

struct FreshnessOutcome {
    events: usize,
    incremental_ingest_us_per_event: f64,
    batch_retrain_ms: f64,
    staleness_advantage: f64,
}

/// Incremental-vs-batch freshness timings on one shard, canonical event
/// order: the incremental model's cost per event against one full
/// `CcoTrainer` pass plus index rebuild over the same events.
fn run_freshness(args: &Args, trace: &[(u32, u32)]) -> FreshnessOutcome {
    let slice = &trace[..args.ablation_events.min(trace.len())];
    let incremental = ShardEngine::with_config(args.cco());
    let started = Instant::now();
    for &(user, item) in slice {
        incremental.post(&user_id(user as usize), &item_id(item as usize), None);
    }
    let incremental_wall = started.elapsed();

    let events: Vec<(String, String)> = slice
        .iter()
        .map(|&(user, item)| (user_id(user as usize), item_id(item as usize)))
        .collect();
    let started = Instant::now();
    let pairs = events.iter().map(|(u, i)| (u.as_str(), i.as_str()));
    let model = CcoTrainer::new(args.cco()).train(pairs);
    // Bound, not `_`: dropping the index is not part of the retrain.
    let _index = ScoringIndex::build(&model);
    let batch_retrain = started.elapsed();

    let per_event_us = incremental_wall.as_secs_f64() * 1e6 / events.len().max(1) as f64;
    let retrain_ms = batch_retrain.as_secs_f64() * 1000.0;
    FreshnessOutcome {
        events: events.len(),
        incremental_ingest_us_per_event: per_event_us,
        batch_retrain_ms: retrain_ms,
        staleness_advantage: (retrain_ms * 1000.0) / per_event_us.max(1e-9),
    }
}

/// The report's schema, next to its emitter in `main`: a scaling curve
/// of positive throughputs and tails, and the freshness timings.
fn schema() -> Schema {
    let positive = "sustained_rps aggregate_rps ingest_rps query_rps ingest_p99_us query_p99_us";
    let point = integers("shards max_shard_events min_shard_events")
        .chain(numbers("ingest_p50_us query_p50_us sync_max_ms"))
        .chain(numbers(positive).map(|(k, n)| (k, n.with(above(0.0)))));
    let curve = Schema::array(Schema::object(point))
        .with(|c| ensure(list(c, "")?.len() >= 2, "fewer than 2 points"));
    let scaling = numbers("sustained_rps_1 sustained_rps_max speedup p99_ratio")
        .chain([("curve", curve), ("max_shards", Schema::U64)]);
    let timings = numbers("incremental_ingest_us_per_event batch_retrain_ms staleness_advantage");
    let freshness = integers("events").chain(timings);
    let config = integers("users items events queries vnodes seed");
    let zipf = numbers("user_zipf_s item_zipf_s");
    Schema::object([
        ("benchmark", Schema::one_of(["sharding"])),
        ("schema_version", Schema::version(SHARDING_SCHEMA_VERSION)),
        ("mode", Schema::one_of(["full", "smoke"])),
        ("config", Schema::object(config.chain(zipf))),
        ("scaling", Schema::object(scaling)),
        ("freshness", Schema::object(freshness)),
    ])
    .with(full_mode_acceptance)
}

/// A full-mode report's acceptance numbers: catalog scale, the sweep to 8
/// shards, ≥ 3× sustained RPS from 1 to 8, sharded p99 within 2× of one
/// shard.
fn full_mode_acceptance(root: &Value) -> Result<(), String> {
    if text(root, "mode")? != "full" {
        return Ok(());
    }
    let floors = [
        ("config.users", 1e6),
        ("config.items", 1e5),
        ("scaling.max_shards", 8.0),
        ("scaling.speedup", 3.0),
    ];
    for (path, min) in floors {
        let v = number(root, path)?;
        ensure(v >= min, format!("full run: {path} {v} < {min}"))?;
    }
    let p99 = number(root, "scaling.p99_ratio")?;
    ensure(p99 <= 2.0, format!("full run: scaling.p99_ratio {p99} > 2"))
}

fn curve_to_json(point: &CurvePoint) -> Value {
    Value::object([
        ("shards", Value::from(point.shards as u64)),
        ("sustained_rps", Value::from(round3(point.sustained_rps))),
        ("aggregate_rps", Value::from(round3(point.aggregate_rps))),
        ("ingest_rps", Value::from(round3(point.ingest_rps))),
        ("query_rps", Value::from(round3(point.query_rps))),
        ("ingest_p50_us", Value::from(round3(point.ingest_p50_us))),
        ("ingest_p99_us", Value::from(round3(point.ingest_p99_us))),
        ("query_p50_us", Value::from(round3(point.query_p50_us))),
        ("query_p99_us", Value::from(round3(point.query_p99_us))),
        ("sync_max_ms", Value::from(round3(point.sync_max_ms))),
        ("max_shard_events", Value::from(point.max_shard_events)),
        ("min_shard_events", Value::from(point.min_shard_events)),
    ])
}

fn main() {
    let args = Args::parse();
    if let Some(path) = &args.validate {
        report::validate_file(path, &schema());
        return;
    }

    eprintln!(
        "sharding: {} users / {} items / {} events / {} queries ({}), shard counts {:?}",
        args.users,
        args.items,
        args.events,
        args.queries,
        if args.smoke { "smoke" } else { "full" },
        args.shard_counts()
    );
    let trace = build_trace(&args);

    let mut curve = Vec::new();
    for &shards in args.shard_counts() {
        eprintln!("sharding: measuring {shards}-shard partition...");
        let point = run_curve_point(&args, &trace, shards);
        eprintln!(
            "sharding: {shards} shard(s): sustained {:.0} rps (aggregate {:.0}), \
             ingest p99 {:.0}us, query p99 {:.0}us, sync max {:.1}ms, \
             events/shard {}..{}",
            point.sustained_rps,
            point.aggregate_rps,
            point.ingest_p99_us,
            point.query_p99_us,
            point.sync_max_ms,
            point.min_shard_events,
            point.max_shard_events,
        );
        curve.push(point);
    }
    let single = &curve[0];
    let widest = curve.last().expect("at least one point");
    assert_eq!(single.shards, 1, "curve must start at one shard");
    let speedup = widest.sustained_rps / single.sustained_rps.max(1e-9);
    let p99_ratio = (widest.ingest_p99_us / single.ingest_p99_us.max(1e-9))
        .max(widest.query_p99_us / single.query_p99_us.max(1e-9));
    eprintln!(
        "sharding: 1->{} shards: {speedup:.2}x sustained RPS, worst p99 ratio {p99_ratio:.2}x",
        widest.shards
    );

    eprintln!(
        "freshness: incremental vs batch over {} canonical-order events...",
        args.ablation_events
    );
    let freshness = run_freshness(&args, &trace);
    eprintln!(
        "freshness: incremental {:.1}us/event vs batch retrain {:.0}ms \
         ({:.0}x staleness advantage)",
        freshness.incremental_ingest_us_per_event,
        freshness.batch_retrain_ms,
        freshness.staleness_advantage,
    );

    let report = Value::object([
        ("benchmark", Value::from("sharding")),
        ("schema_version", Value::from(SHARDING_SCHEMA_VERSION)),
        (
            "mode",
            Value::from(if args.smoke { "smoke" } else { "full" }),
        ),
        (
            "config",
            Value::object([
                ("users", Value::from(args.users as u64)),
                ("items", Value::from(args.items as u64)),
                ("events", Value::from(args.events as u64)),
                ("queries", Value::from(args.queries as u64)),
                ("vnodes", Value::from(DEFAULT_VNODES as u64)),
                ("seed", Value::from(args.seed)),
                ("user_zipf_s", Value::from(USER_ZIPF_S)),
                ("item_zipf_s", Value::from(ITEM_ZIPF_S)),
            ]),
        ),
        (
            "scaling",
            Value::object([
                ("curve", curve.iter().map(curve_to_json).collect()),
                ("max_shards", Value::from(widest.shards as u64)),
                ("sustained_rps_1", Value::from(round3(single.sustained_rps))),
                (
                    "sustained_rps_max",
                    Value::from(round3(widest.sustained_rps)),
                ),
                ("speedup", Value::from(round3(speedup))),
                ("p99_ratio", Value::from(round3(p99_ratio))),
            ]),
        ),
        (
            "freshness",
            Value::object([
                ("events", Value::from(freshness.events as u64)),
                (
                    "incremental_ingest_us_per_event",
                    Value::from(round3(freshness.incremental_ingest_us_per_event)),
                ),
                (
                    "batch_retrain_ms",
                    Value::from(round3(freshness.batch_retrain_ms)),
                ),
                (
                    "staleness_advantage",
                    Value::from(round3(freshness.staleness_advantage)),
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
    let doc = report::committed("BENCH_sharding.json");
    pprox_json::schema::assert_exact(&schema(), &doc, &["", "scaling.curve.3"]);
    // The acceptance numbers bind a full run only.
    let slow = doc
        .to_json()
        .replace("\"speedup\":6.045", "\"speedup\":2.5");
    let err = schema().check(&Value::parse(&slow).unwrap()).unwrap_err();
    assert!(err.contains("scaling.speedup 2.5 < 3"), "{err}");
    let smoke = slow.replace("\"mode\":\"full\"", "\"mode\":\"smoke\"");
    schema().check(&Value::parse(&smoke).unwrap()).unwrap();
}
