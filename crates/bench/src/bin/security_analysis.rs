//! Empirical §6 security analysis.
//!
//! Three parts:
//!
//! 1. **Traffic correlation (§6.2)** — measured linkage probability of the
//!    best network observer vs the paper's `1/S` and `1/(S·I)` bounds,
//!    plus the padding ablation.
//! 2. **Enclave compromise (§6.1)** — the case analysis run against a
//!    live deployment with real cryptography: break one layer, read the
//!    whole LRS database, report what leaked. Includes the forbidden
//!    two-layer break as a positive control.
//! 3. **History-based intersection (§6.3)** — how many observations it
//!    takes to identify a pseudonym, with and without the IP-hiding
//!    mitigation.

use pprox_attack::cases;
use pprox_attack::correlation::measure_linkage;
use pprox_attack::history::{intersection_attack, intersection_attack_with_ip_hiding};
use pprox_attack::observer::ObservationConfig;
use pprox_bench::report;
use pprox_core::config::PProxConfig;
use pprox_core::proxy::PProxDeployment;
use pprox_lrs::shard::ShardEngine;
use std::sync::Arc;

fn main() {
    report::section("part 1 — traffic correlation (§6.2)");
    println!(
        "{:<10} {:>3} {:>3} {:>8} {:>10} {:>10} {:>10}",
        "padding", "S", "I", "requests", "measured", "1/S", "1/(S·I)"
    );
    for (s, i) in [(1usize, 1usize), (5, 1), (10, 1), (10, 2), (10, 4), (20, 1)] {
        let config = ObservationConfig {
            shuffle_size: s,
            ia_instances: i,
            requests: 6_000,
            ..ObservationConfig::default()
        };
        let outcome = measure_linkage(&config, 0x5ec_0001 + (s * 10 + i) as u64);
        println!(
            "{:<10} {:>3} {:>3} {:>8} {:>10.4} {:>10.4} {:>10.4}",
            "on",
            s,
            i,
            outcome.attempts,
            outcome.success_rate,
            outcome.bound_single,
            outcome.bound_scaled
        );
    }
    for s in [5usize, 10] {
        let config = ObservationConfig {
            shuffle_size: s,
            requests: 2_000,
            padding: false,
            ..ObservationConfig::default()
        };
        let outcome = measure_linkage(&config, 0x5ec_0100 + s as u64);
        println!(
            "{:<10} {:>3} {:>3} {:>8} {:>10.4} {:>10} {:>10}",
            "OFF", s, 1, outcome.attempts, outcome.success_rate, "(broken)", "(broken)"
        );
    }
    println!("shape: measured ≈ 1/S with one IA instance, decreasing with I;");
    println!("without padding, size fingerprints defeat shuffling entirely.");

    report::section("part 2 — enclave compromise case analysis (§6.1)");
    let run_case = |label: &str, break_ua: bool| {
        let engine = Arc::new(ShardEngine::new());
        let d = PProxDeployment::new(PProxConfig::for_tests(), engine.clone(), 0x5ec_0200).unwrap();
        let mut client = d.client();
        for u in 0..20 {
            d.post_feedback(
                &mut client,
                &format!("user-{u}"),
                &format!("item-{u}"),
                None,
            )
            .unwrap();
        }
        let outcome = if break_ua {
            cases::break_ua_and_read_database(&d, &engine)
        } else {
            cases::break_ia_and_read_database(&d, &engine)
        };
        println!(
            "{label}: users recovered {:>2}/20, items recovered {:>2}/20, pairs linked {:>2}/20 → unlinkability {}",
            outcome.recovered_users.len(),
            outcome.recovered_items.len(),
            outcome.linked_pairs.len(),
            if outcome.unlinkability_holds() { "HOLDS ✓" } else { "BROKEN" },
        );
    };
    run_case("case 1c (UA broken + LRS database)", true);
    run_case("case 2c (IA broken + LRS database)", false);

    // Positive control: what the one-layer-at-a-time assumption prevents.
    {
        let engine = Arc::new(ShardEngine::new());
        let d = PProxDeployment::new(PProxConfig::for_tests(), engine.clone(), 0x5ec_0201).unwrap();
        let mut client = d.client();
        for u in 0..20 {
            d.post_feedback(
                &mut client,
                &format!("user-{u}"),
                &format!("item-{u}"),
                None,
            )
            .unwrap();
        }
        let ua_bag = d.platform().break_enclave(d.ua_layer()[0].id()).unwrap();
        let refused = d.platform().break_enclave(d.ia_layer()[0].id());
        println!(
            "synchronous second-layer break: {}",
            if refused.is_err() {
                "REFUSED by platform ✓ (§2.3 adversary model)"
            } else {
                "allowed?!"
            }
        );
        d.platform().detect_and_recover();
        let ia_bag = d.platform().break_enclave(d.ia_layer()[0].id()).unwrap();
        let both = cases::attack_with_both_keys(&ua_bag, &ia_bag, &engine);
        println!(
            "hypothetical both-layers adversary (no key rotation): {}/20 pairs linked — rotation after detection is mandatory",
            both.linked_pairs.len()
        );
    }

    report::section("part 3 — history-based intersection attack (§6.3)");
    println!(
        "{:<28} {:>6} {:>4} {:>22}",
        "scenario", "users", "S", "observations to identify"
    );
    for (pop, s) in [
        (1_000usize, 10usize),
        (1_000, 50),
        (10_000, 10),
        (10_000, 100),
    ] {
        let outcome = intersection_attack(pop, s, 10_000, 0x5ec_0300 + (pop + s) as u64);
        println!(
            "{:<28} {:>6} {:>4} {:>22}",
            "target IP visible",
            pop,
            s,
            outcome
                .rounds_to_identify
                .map(|r| r.to_string())
                .unwrap_or_else(|| "never".into())
        );
    }
    let mitigated = intersection_attack_with_ip_hiding(1_000, 10, 200, 0x5ec_0400);
    println!(
        "{:<28} {:>6} {:>4} {:>22}",
        "IP hidden (mitigation)",
        1_000,
        10,
        mitigated
            .rounds_to_identify
            .map(|r| r.to_string())
            .unwrap_or_else(|| "never".into())
    );
    println!("shape: a handful of observations suffice when the target's IP is visible");
    println!("(the §6.3 limitation); the HTTP-redirection mitigation defeats the attack.");
}
