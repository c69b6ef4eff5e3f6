//! Privacy triage of the *wire metrics exports*: what the §6.2
//! adversary holding every node's scrape output could join on.
//!
//! Every node answers a metrics scrape over the frame protocol, and
//! scrape output leaves the trust boundary — the monitoring system is
//! adversary-visible state, and the scrape is all of it.
//! [`scan_export_for_oracles`] hunts a scraped document for fields that
//! would act as an arrival oracle — raw event-time series, per-request
//! identifiers, correlation ids — independent of the exporter's own
//! schema whitelist. A compliant snapshot carries only bucketed
//! aggregates and monotone counters, and scans clean.
//!
//! `pprox-scenario`'s pressure sampler runs the scan on every node
//! document of every scrape it takes, in every scenario run. What an
//! export that *did* ship arrival instants would be worth is measured
//! on the real traces: `scenario_report` scores
//! [`wire_audit`](crate::wire_audit) on each scenario's request trace
//! with the instants written in as a join key
//! ([`WireTrace::with_join_key`](crate::wire_audit::WireTrace::with_join_key)),
//! and the estimator must catch it.

use pprox_json::Value;

/// The adversary's triage pass over one scraped snapshot document:
/// returns the JSON paths of fields that would act as a linkage oracle.
/// Empty means the export is aggregate-only.
///
/// Two independent heuristics (deliberately *not* the exporter's own
/// schema whitelist, so a schema bug and this scan fail independently):
///
/// * key names that ship per-request state: anything containing
///   `arrival`, `timestamp`, `trace_id`, `span`, or `corr`;
/// * value shapes that look like a raw event-time series: an array of
///   eight or more strictly increasing numbers at microsecond scale.
///   (Sparse histograms encode as `[index, count]` *pairs* and never
///   match.)
pub fn scan_export_for_oracles(root: &Value) -> Vec<String> {
    let mut hits = Vec::new();
    scan_value(root, "$", &mut hits);
    hits
}

const ORACLE_KEY_FRAGMENTS: [&str; 5] = ["arrival", "timestamp", "trace_id", "span", "corr"];

fn scan_value(value: &Value, path: &str, hits: &mut Vec<String>) {
    match value {
        Value::Object(map) => {
            for (key, child) in map {
                let lowered = key.to_ascii_lowercase();
                let child_path = format!("{path}.{key}");
                if ORACLE_KEY_FRAGMENTS.iter().any(|f| lowered.contains(f)) {
                    hits.push(child_path.clone());
                }
                scan_value(child, &child_path, hits);
            }
        }
        Value::Array(items) => {
            if looks_like_time_series(items) {
                hits.push(format!("{path}[raw-time-series]"));
            }
            for (i, child) in items.iter().enumerate() {
                scan_value(child, &format!("{path}[{i}]"), hits);
            }
        }
        _ => {}
    }
}

/// An array of ≥8 strictly increasing numbers reaching microsecond
/// scale: the shape of a raw event-time log.
fn looks_like_time_series(items: &[Value]) -> bool {
    if items.len() < 8 {
        return false;
    }
    let mut prev = f64::NEG_INFINITY;
    let mut max = 0.0f64;
    for item in items {
        let Value::Number(n) = item else { return false };
        if *n <= prev {
            return false;
        }
        prev = *n;
        max = max.max(*n);
    }
    max >= 1_000_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_scan_passes_aggregate_shapes_and_flags_oracles() {
        let clean = Value::parse(
            r#"{"server":{"frames_in":120,"poll_loop":{"counts":[[3,10],[7,2]],"sum_us":900,"max_us":400}},"shuffle":{"occupancy":3}}"#,
        )
        .unwrap();
        assert!(scan_export_for_oracles(&clean).is_empty());

        let keyed = Value::parse(r#"{"server":{"arrival_times":[1,2]}}"#).unwrap();
        assert!(scan_export_for_oracles(&keyed)
            .iter()
            .any(|p| p.contains("arrival_times")));

        let series = Value::parse(
            r#"{"debug":{"events":[1000001,1000900,1001800,1002500,1003100,1004000,1005200,1006100]}}"#,
        )
        .unwrap();
        assert!(scan_export_for_oracles(&series)
            .iter()
            .any(|p| p.contains("raw-time-series")));

        // A sparse histogram's [idx, count] pairs must not be mistaken
        // for a time series even with many populated buckets.
        let pairs: Vec<Value> = (0..20)
            .map(|i| {
                Value::Array(vec![
                    Value::Number((i * 50) as f64),
                    Value::Number(2_000_000.0 + i as f64),
                ])
            })
            .collect();
        let mut hist = std::collections::BTreeMap::new();
        hist.insert("counts".to_string(), Value::Array(pairs));
        let doc = Value::Object(hist);
        assert!(scan_export_for_oracles(&doc).is_empty());
    }
}
