//! The scenario catalog.
//!
//! Eight named scenarios cover the deployment conditions the paper's
//! §6.2 bounds must survive: steady state, diurnal ramps, flash crowds,
//! client churn, WAN latency between layers, slow-loris floors,
//! admission-gate abuse — plus the seeded shuffle ablation the audit
//! must *catch*. Rates are tuned so `S / per_instance_rate` stays well
//! under the flush timeout: buffers fill before the timer fires, which
//! is the regime the `1/S` analysis assumes (§6.3 treats the starved
//! regime separately; `pprox-attack::lowtraffic` measures it). Next to
//! the catalog, [`sweep`] is the (S, I) grid of `security_analysis`'s
//! §6.2 table, under the same rules.
//!
//! Wire order on the UA→IA boundary is the buffer's release order (each
//! batch is written by the one turn at the UA's enclave that releases
//! it, and turns never overlap), so the ablation scenario's suppressed
//! permutation shows on the wire exactly as released; on the
//! way back a gather's release is written in its order by one thread,
//! so the ablation shows on the response edge too.

use crate::harness::ScenarioSpec;
use crate::schedule::LoadShape;

/// Baseline shared by the catalog; scenarios override what they test.
fn base(name: &'static str) -> ScenarioSpec {
    ScenarioSpec {
        name,
        shape: LoadShape::Steady { rps: 200.0 },
        requests: 320,
        shuffle_size: 4,
        shuffle_timeout_us: 80_000,
        ua_instances: 2,
        ia_instances: 2,
        wan_delay_us: 0,
        churn_every: None,
        slow_loris_conns: 0,
        max_inflight: None,
        order_ablation: false,
        batch_gap_us: 8_000,
    }
}

/// The full catalog, in report order.
pub fn all() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            shape: LoadShape::Steady { rps: 220.0 },
            shuffle_timeout_us: 60_000,
            ..base("steady")
        },
        ScenarioSpec {
            shape: LoadShape::Diurnal {
                low_rps: 120.0,
                high_rps: 280.0,
                cycles: 2,
            },
            requests: 360,
            ..base("diurnal")
        },
        ScenarioSpec {
            shape: LoadShape::Flash {
                base_rps: 140.0,
                spike_rps: 420.0,
                spike_start: 0.4,
                spike_frac: 0.25,
            },
            requests: 360,
            ..base("flash_crowd")
        },
        ScenarioSpec {
            churn_every: Some(12),
            ..base("churn")
        },
        ScenarioSpec {
            shape: LoadShape::Steady { rps: 120.0 },
            requests: 240,
            wan_delay_us: 5_000,
            shuffle_timeout_us: 100_000,
            // WAN serialization spreads a flush's frames ~5 ms apart on
            // a shared connection; the gap must clear that spread while
            // staying far under the ~67 ms inter-flush interval.
            batch_gap_us: 16_000,
            ..base("wan")
        },
        ScenarioSpec {
            shape: LoadShape::Steady { rps: 180.0 },
            requests: 280,
            slow_loris_conns: 16,
            ..base("slow_loris")
        },
        ScenarioSpec {
            shape: LoadShape::Steady { rps: 320.0 },
            requests: 360,
            shuffle_timeout_us: 60_000,
            // One admitted request per shuffle slot: a full batch still
            // forms, and what arrives while it dwells is refused `busy`.
            max_inflight: Some(4),
            ..base("busy_shed")
        },
        ScenarioSpec {
            shape: LoadShape::Steady { rps: 160.0 },
            requests: 240,
            shuffle_timeout_us: 60_000,
            ua_instances: 1,
            ia_instances: 1,
            order_ablation: true,
            ..base("ablation_unshuffled")
        },
    ]
}

/// A short two-scenario set for CI smoke runs: one normal scenario that
/// must meet its bounds and one ablation that must be caught.
pub fn smoke() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            requests: 144,
            shuffle_timeout_us: 60_000,
            ..base("steady_smoke")
        },
        ScenarioSpec {
            shape: LoadShape::Steady { rps: 160.0 },
            requests: 96,
            shuffle_timeout_us: 60_000,
            ua_instances: 1,
            ia_instances: 1,
            order_ablation: true,
            ..base("ablation_smoke")
        },
    ]
}

/// The §6.2 grid `security_analysis` measures: `S` ∈ {1, 5, 10, 20} at
/// one instance per layer, and `I` ∈ {1, 2, 4} instances at `S = 10`,
/// each held to `1/S` (instance-aware) and `1/(S·I)` (instance-blind).
/// `S = 1` is the no-shuffling row: every request is its own release.
pub fn sweep() -> Vec<ScenarioSpec> {
    let cell = |name, shuffle_size, instances| ScenarioSpec {
        shape: LoadShape::Steady { rps: 320.0 },
        requests: 600,
        shuffle_size,
        shuffle_timeout_us: 200_000,
        ua_instances: instances,
        ia_instances: instances,
        ..base(name)
    };
    vec![
        cell("sweep_s1_i1", 1, 1),
        cell("sweep_s5_i1", 5, 1),
        cell("sweep_s10_i1", 10, 1),
        cell("sweep_s10_i2", 10, 2),
        cell("sweep_s10_i4", 10, 4),
        cell("sweep_s20_i1", 20, 1),
    ]
}

/// Looks a scenario up by name across the catalogs.
pub fn by_name(name: &str) -> Option<ScenarioSpec> {
    all()
        .into_iter()
        .chain(smoke())
        .chain(sweep())
        .find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_well_formed() {
        let specs = all();
        assert!(specs.len() >= 5, "report needs at least five scenarios");
        let mut names: Vec<_> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate scenario names");
        for s in specs.iter().chain(&smoke()).chain(&sweep()) {
            assert!(s.requests > 0 && s.shuffle_size >= 1);
            // Buffers must fill before the flush timer fires: the mean
            // per-instance inter-flush interval S/rate stays under the
            // timeout with margin.
            let per_instance = s.shape.mean_rps(s.requests) / s.ua_instances as f64;
            let fill_us = s.shuffle_size as f64 / per_instance * 1e6;
            assert!(
                fill_us < s.shuffle_timeout_us as f64 * 0.9,
                "{}: buffers would starve (fill {:.0}µs vs timeout {}µs)",
                s.name,
                fill_us,
                s.shuffle_timeout_us
            );
            // And the burst-clustering gap must separate flushes — except
            // without shuffling (`S = 1`), where there is no batch to keep
            // apart and a merged burst still releases in arrival order.
            assert!(
                s.shuffle_size == 1 || (s.batch_gap_us as f64) < fill_us,
                "{}: batch gap would merge consecutive flushes",
                s.name
            );
        }
        assert!(specs.iter().chain(&smoke()).all(|s| s.shuffle_size > 1));
        assert!(by_name("steady").is_some());
        assert!(by_name("ablation_smoke").is_some());
        assert!(by_name("sweep_s10_i4").is_some());
        assert!(by_name("nope").is_none());
    }
}
