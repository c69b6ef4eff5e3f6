//! Table 3: macro-benchmark configurations (b1–b4 baseline, f1–f4 full).
//!
//! Prints each row with its node accounting and verifies the "RPS" column
//! against the simulated cluster, for both the Harness-only baselines and
//! the proxied full configurations.

use pprox_bench::sim::{run_experiment, ExperimentConfig, HarnessConfig, LrsModel, ProxySimConfig};
use pprox_core::config::micro_configs;

fn median(proxy: Option<ProxySimConfig>, frontends: usize, rps: f64, seed: u64) -> f64 {
    let cfg = ExperimentConfig::new(proxy, LrsModel::Harness { frontends }, rps, seed);
    run_experiment(&cfg)
        .latencies
        .candlestick()
        .map(|c| c.median)
        .unwrap_or(f64::INFINITY)
}

fn main() {
    println!("Table 3 — macro-benchmark configurations (verified against the simulator)");
    println!();
    println!(
        "{:<5} {:>4} {:>4} {:>4} {:>4} {:>10} {:>8}   {:>14}",
        "name", "Enc.", "S", "UA", "IA", "LRS nodes", "max RPS", "med@max (ms)"
    );
    // Baselines b1–b4: LRS only.
    for step in 1..=4usize {
        let h = HarnessConfig::baseline(step);
        let med = median(None, h.frontends, h.max_rps(), 0x7ab_3000 + step as u64);
        println!(
            "{:<5} {:>4} {:>4} {:>4} {:>4} {:>10} {:>8.0}   {:>14.1}   {}",
            h.label(),
            "no",
            "-",
            "-",
            "-",
            format!("{}: {}+4", h.node_count(), h.frontends),
            h.max_rps(),
            med,
            if med < 300.0 {
                "sustained ✓"
            } else {
                "NOT SUSTAINED"
            },
        );
    }
    println!();
    // Full configurations f1–f4: proxy m6–m9 + Harness b1–b4.
    let micros = micro_configs();
    for step in 1..=4usize {
        let h = HarnessConfig::baseline(step);
        let m = &micros[4 + step];
        let proxy = ProxySimConfig::from_micro(m);
        let med = median(
            Some(proxy),
            h.frontends,
            h.max_rps(),
            0x7ab_3100 + step as u64,
        );
        println!(
            "{:<5} {:>4} {:>4} {:>4} {:>4} {:>10} {:>8.0}   {:>14.1}   {}",
            format!("f{step}"),
            "yes",
            10,
            m.ua,
            m.ia,
            format!("{}: {}+4", h.node_count(), h.frontends),
            h.max_rps(),
            med,
            if med < 300.0 {
                "sustained ✓"
            } else {
                "NOT SUSTAINED"
            },
        );
    }
    println!();
    println!("infrastructure cost of PProx (paper §8.2): f1 adds 2 proxy nodes on 7 LRS");
    println!("nodes (≈30%); f4 adds 8 on 16 (50%).");
}
