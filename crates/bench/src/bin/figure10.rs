//! Figure 10: Harness combined with PProx (full system, f1–f4).
//!
//! Each f-configuration pairs a proxy deployment (m6–m9: 1–4 instances
//! per layer, S = 10, all features) with the matching Harness deployment
//! (b1–b4). Latencies compose: proxy cost (Figure 8) + LRS cost
//! (Figure 9).

use pprox_bench::report;
use pprox_bench::sim::{run_experiment, ExperimentConfig, HarnessConfig, LrsModel, ProxySimConfig};
use pprox_core::config::micro_configs;
use pprox_workload::stats::LatencyRecorder;

fn main() {
    report::figure_header(
        "Figure 10 — full system: PProx + Harness (f1–f4)",
        "f_k = proxy m(5+k) (k instances/layer, S=10) + Harness b_k",
    );
    let micros = micro_configs();
    for step in 1..=4usize {
        let proxy = ProxySimConfig::from_micro(&micros[4 + step]);
        let harness = HarnessConfig::baseline(step);
        let label = format!("f{step}");
        let mut grid = vec![50.0];
        let mut rps = 250.0;
        while rps <= harness.max_rps() {
            grid.push(rps);
            rps += 250.0;
        }
        for rps in grid {
            let mut merged = LatencyRecorder::new();
            for rep in 0..6 {
                let cfg = ExperimentConfig::new(
                    Some(proxy),
                    LrsModel::Harness {
                        frontends: harness.frontends,
                    },
                    rps,
                    0xf16_1000 + rep * 31 + rps as u64,
                );
                merged.merge(&run_experiment(&cfg).latencies);
            }
            report::figure_row(&label, rps, &merged.candlestick().expect("samples"));
        }
        println!();
    }
    println!("expected shape (paper): medians 100–200 ms for 250–750 RPS, below 300 ms");
    println!("overall; 50 RPS cells pay the shuffle timer (notably f2–f4); at 1000 RPS");
    println!("max rises toward ≈450 ms while the median stays under 200 ms.");
}
