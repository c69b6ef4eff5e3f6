//! Figure 9: baseline performance of the Harness LRS (no proxy).
//!
//! Configurations b1–b4 (Table 3): 3–12 front-end nodes plus 4 support
//! nodes, driven directly by the injector at 50–1000 requests per second.

use pprox_bench::report;
use pprox_bench::sim::{run_experiment, ExperimentConfig, HarnessConfig, LrsModel};
use pprox_workload::stats::LatencyRecorder;

fn main() {
    report::figure_header(
        "Figure 9 — Harness LRS baseline (b1–b4)",
        "3/6/9/12 front-ends + 4 support nodes; no privacy proxy",
    );
    for step in 1..=4usize {
        let config = HarnessConfig::baseline(step);
        let mut grid = vec![50.0];
        let mut rps = 250.0;
        while rps <= config.max_rps() {
            grid.push(rps);
            rps += 250.0;
        }
        for rps in grid {
            let mut merged = LatencyRecorder::new();
            for rep in 0..6 {
                let cfg = ExperimentConfig::new(
                    None,
                    LrsModel::Harness {
                        frontends: config.frontends,
                    },
                    rps,
                    0xf16_0900 + rep * 31 + rps as u64,
                );
                merged.merge(&run_experiment(&cfg).latencies);
            }
            report::figure_row(
                &config.label(),
                rps,
                &merged.candlestick().expect("samples"),
            );
        }
        println!();
    }
    println!("expected shape (paper): sub-100 ms medians up to 500 RPS; spread widens");
    println!("near each configuration's capacity; b4 peaks ≈300 ms at 1000 RPS.");
}
