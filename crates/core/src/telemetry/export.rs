//! Rendering and validation of the exported telemetry formats.
//!
//! Two artifacts leave the deployment (the `telemetry_export` tool in
//! `pprox-bench` is a thin driver around this module):
//!
//! * **Prometheus text exposition** — per-stage latency histograms as
//!   cumulative `le` buckets plus per-layer counters, scrape-ready.
//! * **JSON snapshot** — the same data as a schema-versioned document
//!   written under `results/`, with per-stage p50/p95/p99/p99.9.
//!
//! Both renderers consume only [`HistogramSnapshot`]s and counter
//! [`LayerSnapshot`]s — aggregates, never raw identifiers or per-request
//! records. The validators are deliberate about shape *and* sanity (exact
//! key sets, cumulative buckets monotone, quantiles ordered) so CI catches
//! a widened or broken exporter, not just a missing field; the JSON one is
//! a `pprox_json::schema` declaration, [`snapshot_schema`].

use super::histogram::HistogramSnapshot;
use super::stage::Stage;
use pprox_json::schema::{ensure, integers, list, number, numbers, Schema};
use pprox_json::Value;

/// Schema version of the JSON snapshot document.
///
/// v2 dropped `trace_policy` and the `spans` accounting (there is no span
/// plane to account for) and made every object's key set exact.
pub const TELEMETRY_SCHEMA_VERSION: u64 = 2;

/// Stages both validators require observations of (the acceptance
/// surface): the two proxy layers, the merged shuffle dwell, and the LRS
/// call.
pub const REQUIRED_STAGES: [&str; 4] = ["ua", "ia", "shuffle", "lrs"];

/// Prometheus `le` boundaries, µs: powers of two from 1 µs to ~67 s.
/// Coarser than the in-memory log-linear cells on purpose — 27 series per
/// stage instead of ~1100 — while `+Inf` keeps totals exact.
pub fn prometheus_bounds_us() -> Vec<u64> {
    (0..27).map(|e| 1u64 << e).collect()
}

/// Point-in-time counters of one node — a `layers[]` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerSnapshot {
    /// Requests processed.
    pub requests: u64,
    /// Responses forwarded.
    pub responses: u64,
    /// Failures.
    pub errors: u64,
    /// Total processing time, microseconds.
    pub busy_us: u64,
    /// Shuffle flushes performed.
    pub shuffle_flushes: u64,
    /// Flushes forced by the timer (under-filled batches).
    pub shuffle_timeouts: u64,
    /// Retried uplink attempts.
    pub retries: u64,
    /// Requests that exhausted their deadline budget.
    pub deadline_misses: u64,
    /// Requests shed by admission control.
    pub rejected: u64,
}

impl LayerSnapshot {
    /// Mean processing latency in microseconds (0 when idle).
    pub fn mean_processing_us(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.busy_us as f64 / self.requests as f64
        }
    }
}

/// Everything the renderers need from a deployment, already snapshotted.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Per-stage histogram snapshots, pipeline order.
    pub stages: Vec<(Stage, HistogramSnapshot)>,
    /// Merged shuffle dwell (request + response directions).
    pub shuffle: HistogramSnapshot,
    /// Per-node counter rows, scrape order.
    pub layers: Vec<(String, LayerSnapshot)>,
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

fn histogram_value(snap: &HistogramSnapshot) -> Value {
    Value::object([
        ("count", Value::from(snap.count())),
        ("p50_us", Value::from(snap.p50())),
        ("p95_us", Value::from(snap.p95())),
        ("p99_us", Value::from(snap.p99())),
        ("p999_us", Value::from(snap.p999())),
        ("mean_us", Value::from(round3(snap.mean_us()))),
        ("max_us", Value::from(snap.max_us())),
    ])
}

/// Renders the JSON snapshot document.
pub fn json_snapshot(report: &TelemetryReport) -> Value {
    let mut stages = Value::object::<&str, _>([]);
    for (stage, snap) in &report.stages {
        stages.insert(stage.as_str(), histogram_value(snap));
    }
    stages.insert("shuffle", histogram_value(&report.shuffle));
    let layers: Value = report
        .layers
        .iter()
        .map(|(name, s)| {
            Value::object([
                ("name", Value::from(name.as_str())),
                ("requests", Value::from(s.requests)),
                ("responses", Value::from(s.responses)),
                ("errors", Value::from(s.errors)),
                ("retries", Value::from(s.retries)),
                ("deadline_misses", Value::from(s.deadline_misses)),
                ("rejected", Value::from(s.rejected)),
                ("shuffle_flushes", Value::from(s.shuffle_flushes)),
                ("shuffle_timeouts", Value::from(s.shuffle_timeouts)),
                (
                    "mean_processing_us",
                    Value::from(round3(s.mean_processing_us())),
                ),
            ])
        })
        .collect();
    Value::object([
        ("report", Value::from("telemetry")),
        ("schema_version", Value::from(TELEMETRY_SCHEMA_VERSION)),
        ("stages", stages),
        ("layers", layers),
    ])
}

/// The JSON snapshot's schema, next to its emitter [`json_snapshot`]:
/// exact key sets at every level — every [`Stage`] label plus the merged
/// `shuffle`, each a quantile summary whose quantiles are monotone, and
/// one counter row per node.
pub fn snapshot_schema() -> Schema {
    let summary = |name: &'static str| {
        let required = REQUIRED_STAGES.contains(&name);
        let fields = integers("count p50_us p95_us p99_us p999_us max_us");
        let shape = Schema::object(fields.chain([("mean_us", Schema::Number)]));
        let rule = move |s: &Value| {
            ensure(!required || number(s, "count")? >= 1.0, "no observations")?;
            let q = ["p50_us", "p95_us", "p99_us", "p999_us"].map(|k| number(s, k));
            let q = q.into_iter().collect::<Result<Vec<_>, _>>()?;
            let monotone = q.windows(2).all(|w| w[0] <= w[1]);
            ensure(monotone, format!("p50/p95/p99/p999 not monotone: {q:?}"))
        };
        (name, shape.with(rule))
    };
    let layer = integers(
        "requests responses errors retries deadline_misses rejected shuffle_flushes \
         shuffle_timeouts",
    )
    .chain([("name", Schema::Str)])
    .chain(numbers("mean_processing_us"));
    let layers = Schema::array(Schema::object(layer))
        .with(|l| ensure(!list(l, "")?.is_empty(), "no node rows"));
    let stages = Stage::ALL.iter().map(|s| s.as_str()).chain(["shuffle"]);
    Schema::object([
        ("report", Schema::one_of(["telemetry"])),
        ("schema_version", Schema::version(TELEMETRY_SCHEMA_VERSION)),
        ("stages", Schema::object(stages.map(summary))),
        ("layers", layers),
    ])
}

/// Validates a parsed JSON snapshot against [`snapshot_schema`].
///
/// # Errors
///
/// The first violation, named by its path.
pub fn validate_json_snapshot(root: &Value) -> Result<(), String> {
    snapshot_schema().check(root)
}

/// Renders the Prometheus text exposition.
pub fn prometheus_text(report: &TelemetryReport) -> String {
    let mut out = String::new();
    let bounds = prometheus_bounds_us();
    out.push_str(
        "# HELP pprox_stage_latency_us Per-stage latency, microseconds.\n\
         # TYPE pprox_stage_latency_us histogram\n",
    );
    let mut emit_stage = |label: &str, snap: &HistogramSnapshot| {
        for &b in &bounds {
            out.push_str(&format!(
                "pprox_stage_latency_us_bucket{{stage=\"{label}\",le=\"{b}\"}} {}\n",
                snap.cumulative_le(b)
            ));
        }
        out.push_str(&format!(
            "pprox_stage_latency_us_bucket{{stage=\"{label}\",le=\"+Inf\"}} {}\n",
            snap.count()
        ));
        out.push_str(&format!(
            "pprox_stage_latency_us_sum{{stage=\"{label}\"}} {}\n",
            snap.sum_us()
        ));
        out.push_str(&format!(
            "pprox_stage_latency_us_count{{stage=\"{label}\"}} {}\n",
            snap.count()
        ));
    };
    for (stage, snap) in &report.stages {
        emit_stage(stage.as_str(), snap);
    }
    emit_stage("shuffle", &report.shuffle);

    for (help, metric, pick) in [
        (
            "Requests processed per layer.",
            "pprox_layer_requests_total",
            (|s: &LayerSnapshot| s.requests) as fn(&LayerSnapshot) -> u64,
        ),
        (
            "Failed requests per layer.",
            "pprox_layer_errors_total",
            |s: &LayerSnapshot| s.errors,
        ),
        (
            "Retried LRS attempts per layer.",
            "pprox_layer_retries_total",
            |s: &LayerSnapshot| s.retries,
        ),
        (
            "Deadline-expired requests per layer.",
            "pprox_layer_deadline_misses_total",
            |s: &LayerSnapshot| s.deadline_misses,
        ),
        (
            "Requests shed by admission control or breaker per layer.",
            "pprox_layer_rejected_total",
            |s: &LayerSnapshot| s.rejected,
        ),
        (
            "Timer-forced shuffle flushes per layer.",
            "pprox_layer_shuffle_timeouts_total",
            |s: &LayerSnapshot| s.shuffle_timeouts,
        ),
    ] {
        out.push_str(&format!(
            "# HELP {metric} {help}\n# TYPE {metric} counter\n"
        ));
        for (name, snap) in &report.layers {
            out.push_str(&format!("{metric}{{layer=\"{name}\"}} {}\n", pick(snap)));
        }
    }
    out
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

#[cfg(test)]
mod tests {
    use super::super::{LatencyHistogram, Stage};
    use super::*;
    use pprox_json::schema::assert_exact;

    fn sample_report() -> TelemetryReport {
        let mk = |values: &[u64]| {
            let h = LatencyHistogram::new();
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        };
        let stages: Vec<(Stage, HistogramSnapshot)> = Stage::ALL
            .iter()
            .map(|&s| (s, mk(&[100, 200, 400, 8_000])))
            .collect();
        let mut shuffle = stages[Stage::ShuffleRequest as usize].1.clone();
        shuffle.merge(&stages[Stage::ShuffleResponse as usize].1);
        let layer = LayerSnapshot {
            requests: 4,
            responses: 4,
            ..LayerSnapshot::default()
        };
        TelemetryReport {
            stages,
            shuffle,
            layers: vec![("ua0/server".into(), layer)],
        }
    }

    #[test]
    fn json_snapshot_validates() {
        let v = json_snapshot(&sample_report());
        validate_json_snapshot(&v).unwrap();
        // And survives a serialize/parse round trip.
        let reparsed = Value::parse(&v.to_json()).unwrap();
        validate_json_snapshot(&reparsed).unwrap();
    }

    #[test]
    fn validator_rejects_keys_outside_the_schema() {
        // The per-request record types this schema used to describe, and
        // the one it never did: none has a place at the root any more.
        for key in ["spans", "trace_policy", "trace_id", "audit"] {
            let mut v = json_snapshot(&sample_report());
            v.insert(key, Value::from("rerandomize"));
            let err = validate_json_snapshot(&v).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
        // Nested objects are exact too.
        let mut v = json_snapshot(&sample_report());
        v.get_mut("stages")
            .and_then(|s| s.get_mut("ua"))
            .unwrap()
            .insert("last_start_us", Value::from(12u64));
        let err = validate_json_snapshot(&v).unwrap_err();
        assert!(err.contains("last_start_us"), "{err}");
        let mut v = json_snapshot(&sample_report());
        v.get_mut("stages")
            .unwrap()
            .insert("u017", histogram_value(&HistogramSnapshot::empty()));
        let err = validate_json_snapshot(&v).unwrap_err();
        assert!(err.contains("stages.u017"), "{err}");
        let mut v = json_snapshot(&sample_report());
        if let Some(Value::Array(layers)) = v.get_mut("layers") {
            layers[0].insert("trace_id", Value::from(9u64));
        }
        let err = validate_json_snapshot(&v).unwrap_err();
        assert!(err.contains("trace_id"), "{err}");
    }

    #[test]
    fn validator_rejects_missing_stage_and_empty_stage() {
        let mut v = json_snapshot(&sample_report());
        let stages = v.get_mut("stages").unwrap();
        stages.insert("ua", Value::Null);
        assert!(validate_json_snapshot(&v).is_err());

        let mut report = sample_report();
        report.stages[Stage::Ia as usize].1 = HistogramSnapshot::empty();
        let v = json_snapshot(&report);
        let err = validate_json_snapshot(&v).unwrap_err();
        assert!(err.contains("no observations"), "{err}");
    }

    #[test]
    fn prometheus_text_validates_and_mentions_every_stage() {
        let text = prometheus_text(&sample_report());
        validate_prometheus(&text).unwrap();
        for s in Stage::ALL {
            assert!(text.contains(&format!("stage=\"{}\"", s.as_str())));
        }
        assert!(text.contains("pprox_layer_requests_total{layer=\"ua0/server\"} 4"));
    }

    #[test]
    fn prometheus_validator_catches_corruption() {
        let text = prometheus_text(&sample_report());
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
        let text = prometheus_text(&sample_report());
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
        let inf_counter = with_sample("pprox_layer_requests_total{layer=\"ua0/server\"}", "inf");
        let err = validate_prometheus(&inf_counter).unwrap_err();
        assert!(err.contains("inf"), "{err}");
    }

    #[test]
    fn committed_snapshot_is_exact() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/TELEMETRY_snapshot.json"
        );
        let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_exact(&snapshot_schema(), &doc, &["", "stages.lrs", "layers.0"]);
    }
}
