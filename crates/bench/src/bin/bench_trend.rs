//! `bench_trend`: regression gate over the committed benchmark reports.
//!
//! Diffs every `results/BENCH_*.json` on disk against the committed
//! baseline (by default `git show HEAD:<path>`, i.e. the version the
//! current working tree started from) and:
//!
//! * prints per-metric deltas for every numeric leaf the two versions
//!   share (objects are walked recursively; arrays such as pressure
//!   timelines are skipped — they are traces, not metrics), and
//! * **fails** when a guarded throughput metric regresses by more than
//!   `--max-regression` (default 20%), or when a guarded report is
//!   missing from the results directory — deleting a report must not
//!   disarm its guard. The guarded set is currently
//!   `BENCH_sharding.json :: scaling.sustained_rps_max`,
//!   `BENCH_throughput.json :: stages.rsa_decrypt.ops_per_sec` (a decrypt
//!   alone: the three-ladder kernel) and
//!   `BENCH_throughput.json :: stages.rsa_decrypt_group.ops_per_sec`
//!   (decrypts in groups, as both proxy layers open their requests at
//!   saturation: the same kernel, one decrypt at a time); end-to-end
//!   figures are gated by `benchmark/`, not here.
//!
//! Usage:
//!
//! ```text
//! bench_trend [--results DIR] [--baseline-ref REF | --previous DIR]
//!             [--max-regression F] [--report-only]
//! ```
//!
//! `--previous DIR` compares against a directory of reports instead of
//! a git ref (useful for A/B-ing two local runs). `--report-only`
//! prints deltas but always exits 0.

use pprox_json::Value;
use std::process::Command;

/// Guarded metrics: (report file, dotted path). A drop of more than
/// `--max-regression` in any of these fails the gate, and so does a
/// report that is not there; these are higher-is-better throughput
/// numbers.
const GUARDED: &[(&str, &str)] = &[
    ("BENCH_sharding.json", "scaling.sustained_rps_max"),
    ("BENCH_throughput.json", "stages.rsa_decrypt.ops_per_sec"),
    (
        "BENCH_throughput.json",
        "stages.rsa_decrypt_group.ops_per_sec",
    ),
];

#[derive(Debug)]
struct Args {
    results: String,
    baseline_ref: String,
    previous_dir: Option<String>,
    max_regression: f64,
    report_only: bool,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            results: "results".to_string(),
            baseline_ref: "HEAD".to_string(),
            previous_dir: None,
            max_regression: 0.20,
            report_only: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--results" => args.results = value("--results"),
                "--baseline-ref" => args.baseline_ref = value("--baseline-ref"),
                "--previous" => args.previous_dir = Some(value("--previous")),
                "--max-regression" => {
                    args.max_regression = value("--max-regression").parse().unwrap()
                }
                "--report-only" => args.report_only = true,
                other => panic!("unknown flag {other}"),
            }
        }
        args
    }
}

/// Loads the baseline version of `results/<name>`: from `--previous`
/// when given, otherwise from git. `None` means the report did not
/// exist in the baseline (a new benchmark — nothing to regress from).
fn load_baseline(args: &Args, name: &str) -> Option<Value> {
    let text = match &args.previous_dir {
        Some(dir) => std::fs::read_to_string(format!("{dir}/{name}")).ok()?,
        None => {
            let spec = format!("{}:{}/{}", args.baseline_ref, args.results, name);
            let out = Command::new("git").args(["show", &spec]).output().ok()?;
            if !out.status.success() {
                return None;
            }
            String::from_utf8(out.stdout).ok()?
        }
    };
    Value::parse(&text).ok()
}

/// Collects every numeric leaf reachable through objects only, as
/// (dotted path, value). Arrays are deliberately not entered: timeline
/// and per-run arrays are traces whose element counts legitimately
/// change between runs.
fn numeric_leaves(prefix: &str, v: &Value, out: &mut Vec<(String, f64)>) {
    if let Some(n) = v.as_f64() {
        out.push((prefix.to_string(), n));
        return;
    }
    if let Some(obj) = v.as_object() {
        for (k, child) in obj {
            let path = if prefix.is_empty() {
                k.clone()
            } else {
                format!("{prefix}.{k}")
            };
            numeric_leaves(&path, child, out);
        }
    }
}

fn lookup(v: &Value, dotted: &str) -> Option<f64> {
    let mut cur = v;
    for part in dotted.split('.') {
        cur = cur.get(part)?;
    }
    cur.as_f64()
}

/// Runs the gate and returns what failed.
fn run(args: &Args) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(&args.results)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", args.results))
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();

    let mut failures: Vec<String> = Vec::new();
    // The reports on disk that have a baseline: (name, current, baseline).
    let mut compared: Vec<(&String, Value, Value)> = Vec::new();
    for name in &names {
        let text = std::fs::read_to_string(format!("{}/{name}", args.results))
            .unwrap_or_else(|e| panic!("read {name}: {e}"));
        let current = Value::parse(&text).unwrap_or_else(|e| panic!("{name}: bad JSON: {e:?}"));
        let Some(baseline) = load_baseline(args, name) else {
            println!("{name}: new report (no baseline), skipping diff");
            continue;
        };

        let mut cur_leaves = Vec::new();
        numeric_leaves("", &current, &mut cur_leaves);
        let mut moved = 0usize;
        println!("{name}:");
        for (path, now) in &cur_leaves {
            let Some(before) = lookup(&baseline, path) else {
                continue;
            };
            if before == *now {
                continue;
            }
            moved += 1;
            if before.abs() > f64::EPSILON {
                let delta = (now - before) / before.abs();
                // Keep the listing readable: only metrics that moved
                // by at least 1% get a line; the guard below still
                // sees everything.
                if delta.abs() >= 0.01 {
                    println!("  {path}: {before:.3} -> {now:.3} ({:+.1}%)", delta * 100.0);
                }
            } else {
                println!("  {path}: {before:.3} -> {now:.3}");
            }
        }
        if moved == 0 {
            println!("  unchanged");
        }
        compared.push((name, current, baseline));
    }

    // The guards run over the guarded set, not over what is on disk: a
    // report that went missing fails its guard instead of skipping it.
    for (file, metric) in GUARDED {
        if !names.iter().any(|n| n == file) {
            failures.push(format!(
                "{file}: guarded report missing from {}",
                args.results
            ));
            continue;
        }
        let Some((name, current, baseline)) = compared.iter().find(|(n, _, _)| *n == file) else {
            continue; // on disk, no baseline: a new report
        };
        let (Some(before), Some(now)) = (lookup(baseline, metric), lookup(current, metric)) else {
            failures.push(format!("{name}: guarded metric {metric} missing"));
            continue;
        };
        if before <= 0.0 {
            continue;
        }
        let regression = (before - now) / before;
        if regression > args.max_regression {
            failures.push(format!(
                "{name}: {metric} regressed {:.1}% ({before:.3} -> {now:.3}), limit {:.0}%",
                regression * 100.0,
                args.max_regression * 100.0
            ));
        } else {
            println!(
                "guard {name} {metric}: {before:.3} -> {now:.3} ({:+.1}%) within {:.0}% budget",
                -regression * 100.0,
                args.max_regression * 100.0
            );
        }
    }

    // The analysis report rides along with the benchmark reports: a
    // change that introduces a privacy-flow finding fails the trend gate
    // even when every throughput number is unchanged.
    let analysis_path = format!("{}/ANALYSIS_report.json", args.results);
    match std::fs::read_to_string(&analysis_path) {
        Ok(text) => match Value::parse(&text) {
            Ok(v) => {
                let findings = v
                    .get("findings")
                    .and_then(Value::as_array)
                    .map(|a| a.len())
                    .unwrap_or(usize::MAX);
                let status = v.get("status").and_then(Value::as_str).unwrap_or("?");
                if findings != 0 || status != "clean" {
                    failures.push(format!(
                        "{analysis_path}: {findings} analysis finding(s), status \
                         `{status}` — the committed report must stay clean"
                    ));
                } else {
                    println!("analysis guard: 0 findings, status clean");
                }
            }
            Err(e) => failures.push(format!("{analysis_path}: bad JSON: {e:?}")),
        },
        Err(e) => failures.push(format!("{analysis_path}: unreadable: {e}")),
    }
    failures
}

fn main() {
    let args = Args::parse();
    let failures = run(&args);
    if failures.is_empty() {
        println!("bench_trend: no guarded regressions");
        return;
    }
    for f in &failures {
        eprintln!("REGRESSION: {f}");
    }
    if args.report_only {
        println!("bench_trend: --report-only, not failing");
    } else {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pprox_store::TempDir;

    const THROUGHPUT: &str = r#"{"stages":{"rsa_decrypt":{"ops_per_sec":4000.0},"rsa_decrypt_group":{"ops_per_sec":5000.0}}}"#;
    const SHARDING: &str = r#"{"scaling":{"sustained_rps_max":128000.0}}"#;
    const ANALYSIS: &str = r#"{"findings":[],"status":"clean"}"#;

    /// A results directory compared against a copy of itself.
    fn gate(dir: &TempDir, files: &[(&str, &str)]) -> Vec<String> {
        gate_against(dir, dir, files)
    }

    /// A results directory written with `files`, compared against the
    /// reports already in `previous`.
    fn gate_against(previous: &TempDir, dir: &TempDir, files: &[(&str, &str)]) -> Vec<String> {
        for (name, text) in files {
            std::fs::write(dir.path().join(name), text).unwrap();
        }
        run(&Args {
            previous_dir: Some(previous.path().to_str().unwrap().to_string()),
            results: dir.path().to_str().unwrap().to_string(),
            baseline_ref: "HEAD".to_string(),
            max_regression: 0.20,
            report_only: false,
        })
    }

    #[test]
    fn a_slower_group_kernel_fails_the_gate() {
        let (before, now) = (TempDir::new("trend-group-0"), TempDir::new("trend-group-1"));
        let others = [
            ("BENCH_sharding.json", SHARDING),
            ("ANALYSIS_report.json", ANALYSIS),
        ];
        let mut files = vec![("BENCH_throughput.json", THROUGHPUT)];
        files.extend(others);
        assert!(gate(&before, &files).is_empty());
        // The single decrypt holds; the grouped one loses 40 %.
        let slower = THROUGHPUT.replace("5000.0", "3000.0");
        let mut files = vec![("BENCH_throughput.json", slower.as_str())];
        files.extend(others);
        let failures = gate_against(&before, &now, &files);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("stages.rsa_decrypt_group.ops_per_sec regressed 40.0%"),
            "{failures:?}"
        );
    }

    #[test]
    fn complete_results_dir_passes() {
        let dir = TempDir::new("trend-complete");
        let failures = gate(
            &dir,
            &[
                ("BENCH_throughput.json", THROUGHPUT),
                ("BENCH_sharding.json", SHARDING),
                ("ANALYSIS_report.json", ANALYSIS),
            ],
        );
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn missing_guarded_report_fails_the_gate() {
        let dir = TempDir::new("trend-missing");
        let failures = gate(
            &dir,
            &[
                ("BENCH_throughput.json", THROUGHPUT),
                ("ANALYSIS_report.json", ANALYSIS),
            ],
        );
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("BENCH_sharding.json: guarded report missing"));
    }
}
