//! `scenario_report`: the scenario catalog, measured, as one JSON
//! report (`results/BENCH_scenarios.json`).
//!
//! Runs every scenario in `pprox_scenario::scenarios` — steady state,
//! diurnal ramp, flash crowd, client churn, injected WAN latency,
//! slow-loris floors, Busy-shed abuse, and the seeded shuffle-order
//! ablation — against a real [`pprox_wire::LoopbackCluster`] with
//! recording taps on the UA→IA boundary, then scores the §6.2 wire
//! adversary (`pprox_attack::wire_audit`) against the analytic `1/S`
//! and `1/(S·I)` curves — on the request edge (client → UA → tapped
//! UA→IA frames) and, as `response_edge`, on the way back (IA answers
//! reaching the UA → replies leaving for the clients). A scenario passes
//! when measured linkage stays within its bound (plus a
//! sample-size-aware tolerance) on both edges; the ablation passes only
//! when it is *caught* violating the bound on both.
//!
//! Every scenario also carries what the observability plane saw of it,
//! and what that plane must not leak:
//!
//! * `timeline` — the harness's pressure samples (one wire scrape of
//!   every node per ~100 ms: queue depth, sheds, shuffle occupancy), in
//!   time order and showing traffic;
//! * `oracle_hits` over `documents_scanned` — the adversary's oracle scan
//!   (`pprox_attack::scrape_audit`) on every node document of those
//!   scrapes, which must find nothing;
//! * `unsafe_export` — the instance-aware adversary on the scenario's
//!   request trace with each request's arrival instant written in as a
//!   join key, what an export that shipped raw arrival times would hand
//!   it: it must be caught.
//!
//! Usage:
//!
//! ```text
//! scenario_report [--out PATH] [--seed X] [--smoke]
//! scenario_report --validate PATH   # schema-check an emitted report
//! ```
//!
//! `--smoke` runs the short two-scenario CI set instead of the full
//! catalog; the validator knows the difference via `config.smoke`.
//!
//! Analyzer note: this driver sits outside the trust boundary (it plays
//! the user population and the network adversary), like the rest of
//! `pprox-bench`.

use pprox_bench::report;
use pprox_json::schema::{
    above, at_least, ensure, flag, integers, is, list, number, numbers, Schema,
};
use pprox_json::Value;
use pprox_scenario::harness::{run_scenario, PressurePoint, ScenarioOutcome};
use pprox_scenario::scenarios;
use std::path::Path;

/// Report schema version.
const SCENARIO_SCHEMA_VERSION: u64 = 3;

/// Minimum scenario count for a full (non-smoke) report.
const MIN_FULL_SCENARIOS: usize = 5;

#[derive(Debug)]
struct Args {
    out: String,
    seed: u64,
    smoke: bool,
    validate: Option<String>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            out: "results/BENCH_scenarios.json".to_string(),
            seed: 0x5ce0_a12e,
            smoke: false,
            validate: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--out" => args.out = value("--out"),
                "--seed" => args.seed = value("--seed").parse().unwrap(),
                "--smoke" => args.smoke = true,
                "--validate" => args.validate = Some(value("--validate")),
                other => panic!("unknown flag {other}"),
            }
        }
        args
    }
}

/// One adversary position as a JSON object.
fn audit_json(a: &pprox_attack::wire_audit::WireAuditOutcome) -> Value {
    Value::object([
        ("attempts", Value::from(a.score.attempts as u64)),
        ("correct", Value::from(a.score.correct as u64)),
        ("measured", Value::from(a.score.success_rate)),
        ("bound", Value::from(a.score.bound)),
        ("tolerance", Value::from(a.score.tolerance)),
        ("batches", Value::from(a.batches as u64)),
        ("mean_batch", Value::from(a.mean_batch)),
        ("within", Value::from(a.score.within())),
    ])
}

fn pressure_json(p: &PressurePoint) -> Value {
    let s = &p.sample;
    Value::object([
        ("at_ms", Value::from(p.at_ms)),
        ("nodes", Value::from(s.nodes as u64)),
        ("unreachable", Value::from(p.unreachable as u64)),
        ("queue_depth", Value::from(s.queue_depth)),
        (
            "queue_depth_high_water",
            Value::from(s.queue_depth_high_water),
        ),
        ("shed", Value::from(s.shed)),
        ("shuffle_occupancy", Value::from(s.shuffle_occupancy)),
        ("shuffle_high_water", Value::from(s.shuffle_high_water)),
        ("open_connections", Value::from(s.open_connections)),
        ("frames_in", Value::from(s.frames_in)),
    ])
}

fn outcome_json(o: &ScenarioOutcome) -> Value {
    Value::object([
        ("name", Value::from(o.spec.name)),
        ("requests", Value::from(o.spec.requests as u64)),
        ("completed", Value::from(o.completed as u64)),
        ("failed", Value::from(o.failed as u64)),
        ("shed", Value::from(o.shed)),
        ("shuffle_size", Value::from(o.spec.shuffle_size as u64)),
        ("ua_instances", Value::from(o.spec.ua_instances as u64)),
        ("ia_instances", Value::from(o.spec.ia_instances as u64)),
        ("offered_rps", Value::from(o.offered_rps)),
        ("duration_ms", Value::from(o.duration_us / 1_000)),
        ("aware", audit_json(&o.aware)),
        ("blind", audit_json(&o.blind)),
        (
            "response_edge",
            Value::object([
                ("aware", audit_json(&o.response_edge[0])),
                ("blind", audit_json(&o.response_edge[1])),
            ]),
        ),
        ("unsafe_export", audit_json(&o.unsafe_export)),
        ("violation_expected", Value::from(o.spec.violation_expected)),
        (
            "timeline",
            o.pressure.iter().map(pressure_json).collect::<Value>(),
        ),
        ("documents_scanned", Value::from(o.documents_scanned as u64)),
        ("oracle_hits", Value::from(o.oracle_hits as u64)),
        ("ok", Value::from(o.ok())),
    ])
}

/// One adversary position's score: the shape of all four linkage blocks
/// of a scenario, with `within` what its own numbers say.
fn audit_schema() -> Schema {
    let fields = integers("correct batches")
        .chain(numbers("measured mean_batch"))
        .chain([
            // Fewer attempts make no meaningful bound.
            ("attempts", Schema::U64.with(at_least(64.0))),
            ("bound", Schema::Number.with(above(0.0))),
            ("tolerance", Schema::Number.with(above(0.0))),
            ("within", Schema::Bool),
        ]);
    Schema::object(fields).with(|a| {
        let within = number(a, "measured")? <= number(a, "bound")? + number(a, "tolerance")?;
        let agrees = flag(a, "within")? == within;
        ensure(agrees, "within contradicts measured <= bound + tolerance")
    })
}

/// The report's schema, next to its emitter in `main`: every scenario
/// meets its expectation, and an ablation is among them.
fn schema() -> Schema {
    let sides = || [("aware", audit_schema()), ("blind", audit_schema())];
    let point = integers(
        "at_ms nodes unreachable queue_depth queue_depth_high_water shed shuffle_occupancy \
         shuffle_high_water open_connections frames_in",
    );
    let timeline = Schema::array(Schema::object(point)).with(saw_traffic_in_order);
    let outcome = integers("requests completed failed shed duration_ms")
        .chain(integers("shuffle_size ua_instances ia_instances"))
        .chain(numbers("offered_rps"))
        .chain(sides())
        .chain([
            ("name", Schema::Str),
            ("response_edge", Schema::object(sides())),
            ("unsafe_export", audit_schema().with(caught)),
            ("violation_expected", Schema::Bool),
            ("timeline", timeline),
            ("documents_scanned", Schema::U64.with(at_least(1.0))),
            ("oracle_hits", Schema::U64.with(is(0u64))),
            ("ok", Schema::Bool.with(is(true))),
        ]);
    let config = integers("seed scenario_count").chain([("smoke", Schema::Bool)]);
    let scenarios = Schema::array(Schema::object(outcome).with(meets_expectation));
    Schema::object([
        ("benchmark", Schema::one_of(["scenarios"])),
        ("schema_version", Schema::version(SCENARIO_SCHEMA_VERSION)),
        ("config", Schema::object(config)),
        ("scenarios", scenarios),
        ("all_bounds_hold", Schema::Bool.with(is(true))),
    ])
    .with(|root| {
        let (smoke, scenarios) = (flag(root, "config.smoke")?, list(root, "scenarios")?);
        let (n, min) = (scenarios.len(), if smoke { 2 } else { MIN_FULL_SCENARIOS });
        ensure(n >= min, format!("{n} scenarios, fewer than {min}"))?;
        // Without one the report never shows the audit catching a broken shuffle.
        let ablation = |s: &Value| flag(s, "violation_expected") == Ok(true);
        ensure(scenarios.iter().any(ablation), "no ablation scenario")
    })
}

/// A scenario inside its bound on all four blocks — or, the ablation,
/// caught outside it by both instance-aware adversaries.
fn meets_expectation(s: &Value) -> Result<(), String> {
    let ablation = flag(s, "violation_expected")?;
    for side in "aware blind response_edge.aware response_edge.blind".split(' ') {
        let within = flag(s, &format!("{side}.within"))?;
        if ablation && side.ends_with("aware") {
            ensure(!within, format!("{side}: the ablation was not caught"))?;
        } else if !ablation {
            ensure(within, format!("{side}: linkage above its bound"))?;
        }
    }
    Ok(())
}

/// The leaked arrival instants join, and the estimator says so.
fn caught(unsafe_export: &Value) -> Result<(), String> {
    let within = flag(unsafe_export, "within")?;
    ensure(!within, "the leaked arrival instants were not caught")
}

/// A pressure timeline runs in time order and saw traffic.
fn saw_traffic_in_order(timeline: &Value) -> Result<(), String> {
    let (mut at_ms, mut frames_in) = (0.0, 0.0f64);
    for point in list(timeline, "")? {
        let at = number(point, "at_ms")?;
        ensure(at >= at_ms, format!("at_ms {at} before {at_ms}"))?;
        at_ms = at;
        frames_in = frames_in.max(number(point, "frames_in")?);
    }
    ensure(frames_in > 0.0, "no sample saw traffic")
}

fn main() {
    let args = Args::parse();
    if let Some(path) = &args.validate {
        report::validate_file(path, &schema());
        return;
    }

    let specs = if args.smoke {
        scenarios::smoke()
    } else {
        scenarios::all()
    };
    eprintln!(
        "scenarios: running {} scenario(s), seed {:#x}",
        specs.len(),
        args.seed
    );

    let mut outcomes = Vec::new();
    for spec in &specs {
        eprintln!(
            "  {} — {} requests, S={}, {}x UA / {}x IA ...",
            spec.name, spec.requests, spec.shuffle_size, spec.ua_instances, spec.ia_instances
        );
        let outcome = run_scenario(spec, args.seed);
        eprintln!(
            "    completed {}/{} (shed {}), aware {:.3} vs {:.3}(+{:.3}), blind {:.3} vs {:.3}(+{:.3}); response edge aware {:.3}, blind {:.3}; unsafe export {:.3}; {} samples, {} oracle hits in {} documents — {}",
            outcome.completed,
            spec.requests,
            outcome.shed,
            outcome.aware.score.success_rate,
            outcome.aware.score.bound,
            outcome.aware.score.tolerance,
            outcome.blind.score.success_rate,
            outcome.blind.score.bound,
            outcome.blind.score.tolerance,
            outcome.response_edge[0].score.success_rate,
            outcome.response_edge[1].score.success_rate,
            outcome.unsafe_export.score.success_rate,
            outcome.pressure.len(),
            outcome.oracle_hits,
            outcome.documents_scanned,
            if outcome.ok() { "ok" } else { "FAILED" }
        );
        outcomes.push(outcome);
    }

    let all_ok = outcomes.iter().all(ScenarioOutcome::ok);
    let report = Value::object([
        ("benchmark", Value::from("scenarios")),
        ("schema_version", Value::from(SCENARIO_SCHEMA_VERSION)),
        (
            "config",
            Value::object([
                ("seed", Value::from(args.seed)),
                ("smoke", Value::from(args.smoke)),
                ("scenario_count", Value::from(outcomes.len() as u64)),
            ]),
        ),
        (
            "scenarios",
            outcomes.iter().map(outcome_json).collect::<Value>(),
        ),
        ("all_bounds_hold", Value::from(all_ok)),
    ]);
    let json = report.to_json();
    if let Some(dir) = Path::new(&args.out).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&args.out, &json).unwrap_or_else(|e| panic!("write {}: {e}", args.out));
    eprintln!("wrote {}", args.out);
    assert!(all_ok, "one or more scenarios failed their expectation");
}

#[test]
fn committed_report_is_exact() {
    let doc = report::committed("BENCH_scenarios.json");
    let objects = [
        "",
        "scenarios.7.response_edge.blind",
        "scenarios.0.unsafe_export",
        "scenarios.0.timeline.3",
    ];
    pprox_json::schema::assert_exact(&schema(), &doc, &objects);
}
