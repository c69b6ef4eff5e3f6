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

use pprox_json::Value;
use pprox_scenario::harness::{run_scenario, ScenarioOutcome};
use pprox_scenario::scenarios;
use std::path::Path;

/// Report schema version.
const SCENARIO_SCHEMA_VERSION: u64 = 2;

/// Minimum scenario count for a full (non-smoke) report.
const MIN_FULL_SCENARIOS: u64 = 5;

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
        ("violation_expected", Value::from(o.spec.violation_expected)),
        ("ok", Value::from(o.ok())),
    ])
}

fn validate(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let root = Value::parse(&text).unwrap_or_else(|e| panic!("{path}: invalid JSON: {e:?}"));
    assert_eq!(
        root.get("benchmark").and_then(Value::as_str),
        Some("scenarios"),
        "{path}: missing benchmark tag"
    );
    let version = root
        .get("schema_version")
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("{path}: missing schema_version"));
    assert!(
        version >= SCENARIO_SCHEMA_VERSION,
        "{path}: schema_version {version} < {SCENARIO_SCHEMA_VERSION}"
    );
    let config = root
        .get("config")
        .unwrap_or_else(|| panic!("{path}: missing config"));
    assert!(
        config.get("seed").and_then(Value::as_u64).is_some(),
        "{path}: config.seed missing"
    );
    let smoke = config
        .get("smoke")
        .and_then(Value::as_bool)
        .unwrap_or_else(|| panic!("{path}: config.smoke missing"));

    let list = root
        .get("scenarios")
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{path}: missing scenarios array"));
    let min = if smoke { 2 } else { MIN_FULL_SCENARIOS };
    assert!(
        list.len() as u64 >= min,
        "{path}: {} scenarios < required {min}",
        list.len()
    );

    let mut saw_ablation = false;
    for s in list {
        let name = s
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{path}: scenario missing name"));
        for field in ["requests", "completed", "failed", "shed", "shuffle_size"] {
            assert!(
                s.get(field).and_then(Value::as_u64).is_some(),
                "{path}: {name}.{field} missing"
            );
        }
        let expected_violation = s
            .get("violation_expected")
            .and_then(Value::as_bool)
            .unwrap_or_else(|| panic!("{path}: {name}.violation_expected missing"));
        saw_ablation |= expected_violation;
        let response_edge = s
            .get("response_edge")
            .unwrap_or_else(|| panic!("{path}: {name}.response_edge missing"));
        // (where the block sits, its key there, its name in messages)
        let sides = [
            (s, "aware", "aware"),
            (s, "blind", "blind"),
            (response_edge, "aware", "response_edge.aware"),
            (response_edge, "blind", "response_edge.blind"),
        ];
        for (edge, key, side) in sides {
            let a = edge
                .get(key)
                .unwrap_or_else(|| panic!("{path}: {name}.{side} missing"));
            let attempts = a
                .get("attempts")
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("{path}: {name}.{side}.attempts missing"));
            assert!(
                attempts >= 64,
                "{path}: {name}.{side} attempts {attempts} too small for a meaningful bound"
            );
            let measured = a
                .get("measured")
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{path}: {name}.{side}.measured missing"));
            let bound = a
                .get("bound")
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{path}: {name}.{side}.bound missing"));
            let tolerance = a
                .get("tolerance")
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{path}: {name}.{side}.tolerance missing"));
            let within = a
                .get("within")
                .and_then(Value::as_bool)
                .unwrap_or_else(|| panic!("{path}: {name}.{side}.within missing"));
            assert!(
                measured.is_finite() && bound > 0.0 && tolerance > 0.0,
                "{path}: {name}.{side} malformed numbers"
            );
            assert_eq!(
                within,
                measured <= bound + tolerance,
                "{path}: {name}.{side}.within inconsistent with its own numbers"
            );
            if expected_violation && key == "aware" {
                assert!(
                    !within,
                    "{path}: {name} is an ablation but its measured linkage respects the bound — the audit failed to catch it"
                );
            } else if !expected_violation {
                assert!(
                    within,
                    "{path}: {name}.{side} measured {measured:.3} exceeds bound {bound:.3} (+{tolerance:.3})"
                );
            }
        }
        assert_eq!(
            s.get("ok").and_then(Value::as_bool),
            Some(true),
            "{path}: scenario {name} did not meet its expectation"
        );
    }
    assert!(
        saw_ablation,
        "{path}: no ablation scenario — the report never proves the audit can catch a broken shuffle"
    );
    assert_eq!(
        root.get("all_bounds_hold").and_then(Value::as_bool),
        Some(true),
        "{path}: all_bounds_hold must be true"
    );
    println!("{path}: schema OK");
}

fn main() {
    let args = Args::parse();
    if let Some(path) = &args.validate {
        validate(path);
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
            "    completed {}/{} (shed {}), aware {:.3} vs {:.3}(+{:.3}), blind {:.3} vs {:.3}(+{:.3}); response edge aware {:.3}, blind {:.3} — {}",
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
