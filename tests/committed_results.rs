//! The committed privacy artifacts, checked in tier-1.
//!
//! What a node's scrape may carry is a whitelist (DESIGN §6.2, §10),
//! and the telemetry export is the same document merged over the
//! cluster, so one checker holds both. `results/` holds one copy of
//! each as the deployment really emits it. `scripts/ci.sh` validates
//! them through the report bins; this test holds them to the same schema
//! through the facade, so a stale or hand-edited copy fails
//! `cargo test -q` too.

use pprox::json::schema::{list, text};
use pprox::json::Value;
use pprox::wire::scrape::validate_prometheus;
use pprox::wire::validate_scrape_snapshot;

fn committed(file: &str) -> String {
    let path = format!("{}/results/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn telemetry_snapshot_matches_its_schema() {
    let doc = Value::parse(&committed("TELEMETRY_snapshot.json")).unwrap();
    validate_scrape_snapshot(&doc).unwrap();
}

#[test]
fn telemetry_exposition_is_valid() {
    validate_prometheus(&committed("TELEMETRY_prometheus.txt")).unwrap();
}

#[test]
fn sample_node_scrape_matches_its_schema() {
    let report = Value::parse(&committed("BENCH_observability.json")).unwrap();
    let sample = report
        .get("sample_node_snapshot")
        .expect("observability_report embeds one node scrape");
    validate_scrape_snapshot(sample).unwrap();
    // The sample is a UA's scrape, and a node exports only the stages it
    // measured: the UA's ECALLs, none of the IA side's.
    assert_eq!(text(sample, "node.tier"), Ok("ua"));
    let cells = |stage: &str| list(sample, &format!("stages.{stage}.counts")).unwrap();
    assert!(!cells("ua").is_empty(), "the UA sample holds no UA ECALL");
    for stage in ["ia", "lrs_attempt", "lrs", "ia_response"] {
        assert!(
            cells(stage).is_empty(),
            "the UA sample holds {stage} samples"
        );
    }
}
