//! Figure 7: impact of shuffling.
//!
//! "Reference configuration with no shuffling (m3), and with S = 5 (m5)
//! and S = 10 (m6)" at 50–250 requests per second against the stub LRS.
//! The distinguishing shape: at low RPS the shuffle timer dominates (high
//! latency), and the cost amortizes as load grows. This is the paper's
//! policy — an independent buffer and timer in each direction — as
//! `bench::sim` models it; the serving chain's response direction waits
//! only for the batch's own answers (EXPERIMENTS.md, PR 19).

use pprox_bench::report;
use pprox_bench::sim::{run_experiment, ExperimentConfig, LrsModel, ProxySimConfig};
use pprox_core::config::micro_configs;
use pprox_workload::stats::LatencyRecorder;

fn main() {
    report::figure_header(
        "Figure 7 — impact of request/response shuffling",
        "m3: S off | m5: S=5 | m6: S=10 (500 ms shuffle timer)",
    );
    let configs = micro_configs();
    for m in [&configs[2], &configs[4], &configs[5]] {
        for rps in [50.0, 100.0, 150.0, 200.0, 250.0] {
            let mut merged = LatencyRecorder::new();
            for rep in 0..6 {
                let cfg = ExperimentConfig::new(
                    Some(ProxySimConfig::from_micro(m)),
                    LrsModel::Stub,
                    rps,
                    0xf16_0700 + rep * 31 + rps as u64,
                );
                merged.merge(&run_experiment(&cfg).latencies);
            }
            report::figure_row(m.name, rps, &merged.candlestick().expect("samples"));
        }
        println!();
    }
    println!("expected shape (paper): at 50 RPS m6 > m5 ≫ m3 (timer-bound batches);");
    println!("with ≥150 RPS shuffled medians fall well below 200 ms.");
}
