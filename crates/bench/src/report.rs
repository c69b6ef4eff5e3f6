//! Table/figure rendering for the experiment harness binaries, and what
//! the JSON report binaries share.
//!
//! Every figure binary prints one block per figure cell in the same
//! layout the paper's plots encode: configuration id, RPS, and the
//! candlestick five-number summary. Every JSON report binary declares its
//! document's [`Schema`] next to its emitter and answers `--validate
//! PATH` with [`validate_file`].

use pprox_json::schema::Schema;
use pprox_json::Value;
use pprox_workload::stats::Candlestick;

/// A report bin's `--validate PATH`: reads and parses `path`, checks it
/// against `schema` and prints `PATH: schema OK`.
///
/// # Panics
///
/// On the first violation (named by its path) — the non-zero exit CI
/// gates on.
pub fn validate_file(path: &str, schema: &Schema) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let doc = Value::parse(&text).unwrap_or_else(|e| panic!("{path}: invalid JSON: {e}"));
    schema.check(&doc).unwrap_or_else(|e| panic!("{path}: {e}"));
    println!("{path}: schema OK");
}

/// Rounds to the three decimals the reports carry.
pub fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// Test support: the committed `results/<file>`, parsed.
///
/// # Panics
///
/// When it cannot be read or parsed.
pub fn committed(file: &str) -> Value {
    let path = format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Value::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Prints a figure header.
pub fn figure_header(title: &str, description: &str) {
    println!("==================================================================");
    println!("{title}");
    println!("{description}");
    println!("==================================================================");
    println!(
        "{:<6} {:>6}  {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "config", "rps", "lo(ms)", "q1(ms)", "med(ms)", "q3(ms)", "hi(ms)", "n"
    );
}

/// Prints one figure cell row.
pub fn figure_row(config: &str, rps: f64, c: &Candlestick) {
    println!(
        "{:<6} {:>6.0}  {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>9}",
        config, rps, c.whisker_low, c.q1, c.median, c.q3, c.whisker_high, c.count
    );
}

/// Prints a row for a cell that saturated (no stable measurement).
pub fn saturated_row(config: &str, rps: f64, median: f64) {
    println!(
        "{config:<6} {rps:>6.0}  -- saturated (median {median:.0} ms, excluded per §8 methodology) --"
    );
}

/// Simple section separator for multi-part reports.
pub fn section(title: &str) {
    println!();
    println!("--- {title} ---");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_does_not_panic() {
        let c = Candlestick::from_samples(&[1.0, 2.0, 3.0]).unwrap();
        figure_header("Figure X", "test");
        figure_row("m1", 250.0, &c);
        saturated_row("m1", 1000.0, 2_000.0);
        section("part 2");
    }
}
