//! Machine-readable analysis report (v2) and the suppression budget.
//!
//! The report is deliberately deterministic — no timestamps, stable key
//! and entry ordering — so the committed `results/ANALYSIS_report.json`
//! only changes when the analysis outcome changes, and CI can diff it
//! meaningfully. v2 extends v1 with the embedded lock-order graph (R11),
//! the panic-site classification (R13), and per-rule suppression counts
//! — the last of which feed the **ratchet**: the committed
//! `results/ANALYSIS_budget.json` caps how many `analysis-allow:`
//! directives each rule may carry, so suppressions can only grow when
//! the budget file is updated (and reviewed) in the same change.

use crate::locks::{LockGraph, PanicClassification};
use crate::rules::{Finding, Suppression, RULES};
use pprox_json::schema::{ensure, flag, integers, list, number, text, Schema};
use pprox_json::Value;
use std::collections::BTreeMap;

/// Schema tag checked by [`validate`].
pub const SCHEMA: &str = "pprox-analysis-report-v2";

/// Schema tag of the suppression budget file.
pub const BUDGET_SCHEMA: &str = "pprox-analysis-budget-v1";

/// Aggregated result of a workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// All directive suppressions, sorted by (path, line, rule).
    pub suppressions: Vec<Suppression>,
    /// The workspace lock-acquisition graph (R11).
    pub lock_graph: LockGraph,
    /// The R13 panic-site classification for `crates/wire`.
    pub panics: PanicClassification,
}

impl Report {
    /// Canonical ordering for deterministic output.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        self.suppressions
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    }

    /// Whether the scan found no violations.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Per-rule suppression counts (every rule present, zeros included).
    pub fn suppression_counts(&self) -> BTreeMap<&'static str, u64> {
        RULES
            .iter()
            .map(|(id, _)| {
                (
                    *id,
                    self.suppressions.iter().filter(|s| s.rule == *id).count() as u64,
                )
            })
            .collect()
    }

    /// Serializes to the v2 JSON schema.
    pub fn to_value(&self) -> Value {
        let rule_counts = Value::object(RULES.iter().map(|(id, _)| {
            let n = self.findings.iter().filter(|f| f.rule == *id).count() as u64;
            (*id, Value::from(n))
        }));
        let rule_names = Value::object(RULES.iter().map(|(id, name)| (*id, Value::from(*name))));
        let suppression_counts = Value::object(
            self.suppression_counts()
                .into_iter()
                .map(|(id, n)| (id, Value::from(n))),
        );
        let lock_graph = Value::object([
            (
                "nodes",
                self.lock_graph
                    .nodes
                    .iter()
                    .map(|n| Value::from(n.as_str()))
                    .collect(),
            ),
            (
                "edges",
                self.lock_graph
                    .edges
                    .iter()
                    .map(|e| {
                        Value::object([
                            ("from", Value::from(e.from.as_str())),
                            ("to", Value::from(e.to.as_str())),
                            ("path", Value::from(e.path.as_str())),
                            ("line", Value::from(e.line as u64)),
                        ])
                    })
                    .collect(),
            ),
            ("cycle_free", Value::from(self.lock_graph.cycle_free)),
        ]);
        let panics = Value::object([
            ("total", Value::from(self.panics.total as u64)),
            ("request_path", Value::from(self.panics.request_path as u64)),
            ("test", Value::from(self.panics.test as u64)),
            ("other", Value::from(self.panics.other as u64)),
        ]);
        Value::object([
            ("schema", Value::from(SCHEMA)),
            ("files_scanned", Value::from(self.files_scanned as u64)),
            (
                "status",
                Value::from(if self.is_clean() {
                    "clean"
                } else {
                    "violations"
                }),
            ),
            ("rule_names", rule_names),
            ("rule_counts", rule_counts),
            ("suppression_counts", suppression_counts),
            ("lock_graph", lock_graph),
            ("panic_classification", panics),
            (
                "findings",
                self.findings
                    .iter()
                    .map(|f| {
                        Value::object([
                            ("rule", Value::from(f.rule)),
                            ("path", Value::from(f.path.as_str())),
                            ("line", Value::from(f.line as u64)),
                            ("message", Value::from(f.message.as_str())),
                        ])
                    })
                    .collect(),
            ),
            (
                "suppressions",
                self.suppressions
                    .iter()
                    .map(|s| {
                        Value::object([
                            ("rule", Value::from(s.rule)),
                            ("path", Value::from(s.path.as_str())),
                            ("line", Value::from(s.line as u64)),
                            ("reason", Value::from(s.reason.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ])
    }

    /// Serializes the suppression budget matching this report's current
    /// suppression counts (the `--emit-budget` output).
    pub fn budget_value(&self) -> Value {
        Value::object([
            ("schema", Value::from(BUDGET_SCHEMA)),
            (
                "suppressions",
                Value::object(
                    self.suppression_counts()
                        .into_iter()
                        .map(|(id, n)| (id, Value::from(n))),
                ),
            ),
        ])
    }
}

/// The report's schema, next to its emitter [`Report::to_value`]: exact
/// keys at every level, rule names as the analyzer has them, and counts
/// that agree with the entries they count.
pub fn report_schema() -> Schema {
    let per_rule = || Schema::object(RULES.iter().map(|(id, _)| (*id, Schema::U64)));
    let names = RULES
        .iter()
        .map(|(id, name)| (*id, Schema::one_of([*name])));
    let entries = |text| {
        let strings = ["rule", "path", text].map(|k| (k, Schema::Str));
        Schema::array(Schema::object(integers("line").chain(strings)))
    };
    let edge = integers("line").chain(["from", "to", "path"].map(|k| (k, Schema::Str)));
    let lock_graph = [
        ("nodes", Schema::array(Schema::Str)),
        ("edges", Schema::array(Schema::object(edge))),
        ("cycle_free", Schema::Bool),
    ];
    let panics = Schema::object(integers("total request_path test other")).with(|p| {
        let parts = number(p, "request_path")? + number(p, "test")? + number(p, "other")?;
        let total = number(p, "total")?;
        ensure(total == parts, format!("total {total} != parts {parts}"))
    });
    Schema::object([
        ("schema", Schema::one_of([SCHEMA])),
        ("files_scanned", Schema::U64),
        ("status", Schema::one_of(["clean", "violations"])),
        ("rule_names", Schema::object(names)),
        ("rule_counts", per_rule()),
        ("suppression_counts", per_rule()),
        ("lock_graph", Schema::object(lock_graph)),
        ("panic_classification", panics),
        ("findings", entries("message")),
        ("suppressions", entries("reason")),
    ])
    .with(consistent)
}

/// The report's cross-field rules: each count object sums to its entry
/// list, `status` follows the findings, and a cyclic lock graph comes
/// with an R11 finding.
fn consistent(v: &Value) -> Result<(), String> {
    let findings = list(v, "findings")?.len();
    let suppressions = list(v, "suppressions")?.len();
    for (key, entries) in [
        ("rule_counts", findings),
        ("suppression_counts", suppressions),
    ] {
        let counts = RULES
            .iter()
            .map(|(id, _)| number(v, &format!("{key}.{id}")));
        let (total, n) = (counts.sum::<Result<f64, _>>()?, entries as f64);
        ensure(total == n, format!("{key} sum {total} != entry count {n}"))?;
    }
    let status = text(v, "status")?;
    let agrees = (status == "clean") == (findings == 0);
    ensure(
        agrees,
        format!("status `{status}` inconsistent: {findings} findings"),
    )?;
    let unreported = !flag(v, "lock_graph.cycle_free")? && number(v, "rule_counts.R11")? == 0.0;
    ensure(!unreported, "a lock cycle without an R11 finding")
}

/// Validates a serialized report against [`report_schema`]: CI refuses a
/// hand-edited or stale report.
///
/// # Errors
///
/// Unparseable JSON, or the first violation, named by its path.
pub fn validate(text: &str) -> Result<(), String> {
    let v = Value::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    report_schema().check(&v)
}

/// The suppression budget's schema, next to its emitter
/// [`Report::budget_value`]. A rule the budget does not name has a
/// budget of zero.
pub fn budget_schema() -> Schema {
    let rule = |k: &str| RULES.iter().any(|(id, _)| *id == k);
    Schema::object([
        ("schema", Schema::one_of([BUDGET_SCHEMA])),
        ("suppressions", Schema::map(rule, Schema::U64)),
    ])
}

/// Enforces the suppression ratchet: every rule's current suppression
/// count must be within the committed budget. A rule over budget means
/// an `analysis-allow:` directive was added without updating (and
/// thereby surfacing for review) `results/ANALYSIS_budget.json`.
///
/// # Errors
///
/// A description of every rule over budget, or a malformed budget file.
pub fn check_ratchet(report: &Report, budget_text: &str) -> Result<(), String> {
    let v = Value::parse(budget_text).map_err(|e| format!("budget is not valid JSON: {e}"))?;
    budget_schema()
        .check(&v)
        .map_err(|e| format!("budget: {e}"))?;
    let mut over: Vec<String> = Vec::new();
    for (rule, current) in report.suppression_counts() {
        let allowed = number(&v, &format!("suppressions.{rule}")).unwrap_or(0.0);
        if current as f64 > allowed {
            over.push(format!(
                "{rule}: {current} suppression(s), budget {allowed}"
            ));
        }
    }
    if over.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "suppression ratchet violated — update results/ANALYSIS_budget.json if the new \
             directive is justified: {}",
            over.join("; ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::LockEdge;
    use pprox_json::schema::assert_exact;

    fn sample() -> Report {
        let mut r = Report {
            files_scanned: 3,
            ..Report::default()
        };
        r.findings.push(Finding {
            rule: "R1",
            path: "crates/core/src/ua.rs".into(),
            line: 10,
            message: "test".into(),
        });
        r.suppressions.push(Suppression {
            rule: "R6",
            path: "crates/core/src/telemetry/mod.rs".into(),
            line: 35,
            reason: "epoch anchor".into(),
        });
        r.lock_graph.cycle_free = true;
        r.lock_graph.nodes = vec![
            "wire/scrape.uplinks".into(),
            "wire/balancer.backends".into(),
        ];
        r.lock_graph.edges = vec![LockEdge {
            from: "wire/scrape.uplinks".into(),
            to: "wire/balancer.backends".into(),
            path: "crates/wire/src/scrape.rs".into(),
            line: 367,
        }];
        r.panics = PanicClassification {
            total: 10,
            request_path: 1,
            test: 8,
            other: 1,
        };
        r.sort();
        r
    }

    #[test]
    fn roundtrip_validates() {
        let json = sample().to_value().to_json();
        validate(&json).unwrap();
    }

    #[test]
    fn clean_report_validates() {
        let mut r = Report {
            files_scanned: 1,
            ..Report::default()
        };
        r.lock_graph.cycle_free = true;
        validate(&r.to_value().to_json()).unwrap();
    }

    #[test]
    fn tampered_counts_rejected() {
        let json = sample()
            .to_value()
            .to_json()
            .replace("\"R1\":1", "\"R1\":0");
        assert!(validate(&json).unwrap_err().contains("rule_counts sum"));
    }

    #[test]
    fn tampered_status_rejected() {
        let json = sample()
            .to_value()
            .to_json()
            .replace("\"status\":\"violations\"", "\"status\":\"clean\"");
        assert!(validate(&json).unwrap_err().contains("inconsistent"));
    }

    #[test]
    fn wrong_schema_rejected() {
        assert!(validate("{\"schema\": \"other\"}").is_err());
        assert!(validate("not json").is_err());
        let v1 = "{\"schema\": \"pprox-analysis-report-v1\"}";
        assert!(validate(v1).unwrap_err().contains("v2"));
    }

    #[test]
    fn missing_lock_graph_rejected() {
        let json = sample().to_value().to_json().replace("lock_graph", "lg");
        assert!(validate(&json).unwrap_err().contains("lock_graph"));
    }

    #[test]
    fn cyclic_graph_without_r11_finding_rejected() {
        let mut r = sample();
        r.lock_graph.cycle_free = false;
        let err = validate(&r.to_value().to_json()).unwrap_err();
        assert!(err.contains("cycle"));
    }

    #[test]
    fn inconsistent_panic_totals_rejected() {
        let mut r = sample();
        r.panics.total = 99;
        let err = validate(&r.to_value().to_json()).unwrap_err();
        assert!(err.contains("panic_classification"));
    }

    fn committed(file: &str) -> Value {
        let path = format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"));
        Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn committed_report_and_budget_are_exact() {
        let doc = committed("ANALYSIS_report.json");
        let objects = [
            "",
            "lock_graph",
            "lock_graph.edges.0",
            "panic_classification",
        ];
        assert_exact(&report_schema(), &doc, &objects);
        let budget = committed("ANALYSIS_budget.json");
        assert_exact(&budget_schema(), &budget, &["", "suppressions"]);
        // A count that is not an integer is rejected, not skipped.
        let mut doc = doc;
        let counts = doc.get_mut("rule_counts").unwrap();
        counts.insert("R1", Value::from("0"));
        let err = validate(&doc.to_json()).unwrap_err();
        assert!(err.contains("rule_counts.R1"), "{err}");
    }

    #[test]
    fn output_is_deterministic() {
        let a = sample().to_value().to_json();
        let b = sample().to_value().to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn ratchet_passes_at_budget_and_fails_over() {
        let r = sample(); // one R6 suppression
        let at = r.budget_value().to_json();
        check_ratchet(&r, &at).unwrap();
        let zero = "{\"schema\":\"pprox-analysis-budget-v1\",\"suppressions\":{}}";
        let err = check_ratchet(&r, zero).unwrap_err();
        assert!(err.contains("R6"), "{err}");
        let unknown = "{\"schema\":\"pprox-analysis-budget-v1\",\"suppressions\":{\"R99\":1}}";
        assert!(check_ratchet(&r, unknown).unwrap_err().contains("R99"));
    }

    #[test]
    fn budget_emission_round_trips() {
        let r = sample();
        let v = Value::parse(&r.budget_value().to_json()).unwrap();
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(BUDGET_SCHEMA));
        assert_eq!(
            v.get("suppressions")
                .and_then(|s| s.get("R6"))
                .and_then(Value::as_u64),
            Some(1)
        );
    }
}
