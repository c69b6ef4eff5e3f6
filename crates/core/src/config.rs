//! Deployment configurations, including the paper's Table 2 (m1–m9).
//!
//! Table 2 defines nine micro-benchmark configurations that switch the
//! security features on one by one (encryption, SGX, shuffling, item
//! pseudonymization) and then scale the proxy horizontally. The same
//! structures parameterize the live deployment ([`crate::proxy`]) and the
//! simulated cluster (`pprox-bench` figure harnesses).

use crate::shuffler::ShuffleConfig;

/// Parameters of a PProx deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct PProxConfig {
    /// Whether requests/responses are encrypted ("Enc." column; m1 off).
    pub encryption: bool,
    /// Whether item ids are pseudonymized toward the LRS (★ in Table 2:
    /// m4 disables it; see §6.3).
    pub item_pseudonymization: bool,
    /// Whether layer logic runs inside (simulated) SGX enclaves — a cost
    /// knob for the simulator; the live deployment always uses the
    /// simulated enclaves.
    pub sgx: bool,
    /// Shuffle buffer parameters ("S" column).
    pub shuffle: ShuffleConfig,
    /// UA-layer instances.
    pub ua_instances: usize,
    /// IA-layer instances.
    pub ia_instances: usize,
    /// RSA modulus size for layer keys (2048 in the paper; tests shrink
    /// it for speed).
    pub modulus_bits: usize,
}

impl Default for PProxConfig {
    fn default() -> Self {
        PProxConfig {
            encryption: true,
            item_pseudonymization: true,
            sgx: true,
            shuffle: ShuffleConfig::paper_default(),
            ua_instances: 1,
            ia_instances: 1,
            modulus_bits: pprox_crypto::rsa::DEFAULT_MODULUS_BITS,
        }
    }
}

impl PProxConfig {
    /// A functional-testing configuration: all features on, shuffling off
    /// (synchronous round trips), small keys.
    pub fn for_tests() -> Self {
        PProxConfig {
            shuffle: ShuffleConfig::disabled(),
            modulus_bits: 1152,
            ..PProxConfig::default()
        }
    }

    /// One of the paper's Table 2 micro-benchmark configurations
    /// (`step` in `1..=9` for m1–m9).
    ///
    /// # Panics
    ///
    /// Panics when `step` is outside `1..=9`.
    pub fn micro(step: usize) -> Self {
        assert!((1..=9).contains(&step), "Table 2 defines m1..m9");
        let m = &micro_configs()[step - 1];
        PProxConfig {
            encryption: m.encryption,
            item_pseudonymization: m.item_pseudonymization,
            sgx: m.sgx,
            shuffle: match m.shuffle_size {
                Some(s) => ShuffleConfig {
                    size: s,
                    timeout_us: 500_000,
                },
                None => ShuffleConfig::disabled(),
            },
            ua_instances: m.ua,
            ia_instances: m.ia,
            modulus_bits: pprox_crypto::rsa::DEFAULT_MODULUS_BITS,
        }
    }
}

/// One row of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroConfig {
    /// Configuration id ("m1".."m9").
    pub name: &'static str,
    /// "Enc." column.
    pub encryption: bool,
    /// ★ in the Enc. column = item pseudonymization disabled (m4).
    pub item_pseudonymization: bool,
    /// "SGX" column.
    pub sgx: bool,
    /// "S" column (`None` = shuffling off).
    pub shuffle_size: Option<usize>,
    /// "UA" column: instances in the UA layer.
    pub ua: usize,
    /// "IA" column: instances in the IA layer.
    pub ia: usize,
    /// "RPS" column: maximal supported requests per second.
    pub max_rps: u32,
}

/// The nine rows of Table 2.
pub fn micro_configs() -> [MicroConfig; 9] {
    [
        MicroConfig {
            name: "m1",
            encryption: false,
            item_pseudonymization: false,
            sgx: false,
            shuffle_size: None,
            ua: 1,
            ia: 1,
            max_rps: 250,
        },
        MicroConfig {
            name: "m2",
            encryption: true,
            item_pseudonymization: true,
            sgx: false,
            shuffle_size: None,
            ua: 1,
            ia: 1,
            max_rps: 250,
        },
        MicroConfig {
            name: "m3",
            encryption: true,
            item_pseudonymization: true,
            sgx: true,
            shuffle_size: None,
            ua: 1,
            ia: 1,
            max_rps: 250,
        },
        MicroConfig {
            name: "m4",
            encryption: true,
            item_pseudonymization: false,
            sgx: true,
            shuffle_size: None,
            ua: 1,
            ia: 1,
            max_rps: 250,
        },
        MicroConfig {
            name: "m5",
            encryption: true,
            item_pseudonymization: true,
            sgx: true,
            shuffle_size: Some(5),
            ua: 1,
            ia: 1,
            max_rps: 250,
        },
        MicroConfig {
            name: "m6",
            encryption: true,
            item_pseudonymization: true,
            sgx: true,
            shuffle_size: Some(10),
            ua: 1,
            ia: 1,
            max_rps: 250,
        },
        MicroConfig {
            name: "m7",
            encryption: true,
            item_pseudonymization: true,
            sgx: true,
            shuffle_size: Some(10),
            ua: 2,
            ia: 2,
            max_rps: 500,
        },
        MicroConfig {
            name: "m8",
            encryption: true,
            item_pseudonymization: true,
            sgx: true,
            shuffle_size: Some(10),
            ua: 3,
            ia: 3,
            max_rps: 750,
        },
        MicroConfig {
            name: "m9",
            encryption: true,
            item_pseudonymization: true,
            sgx: true,
            shuffle_size: Some(10),
            ua: 4,
            ia: 4,
            max_rps: 1000,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_expected_shape() {
        let configs = micro_configs();
        assert_eq!(configs.len(), 9);
        // m1: nothing enabled.
        assert!(!configs[0].encryption && !configs[0].sgx);
        // m4 is the ★ row: encrypted but item pseudonymization off.
        assert!(configs[3].encryption && !configs[3].item_pseudonymization);
        // m6–m9 scale 1..4 instances at +250 RPS each.
        for (i, cfg) in configs[5..].iter().enumerate() {
            assert_eq!(cfg.ua, i + 1);
            assert_eq!(cfg.ia, i + 1);
            assert_eq!(cfg.max_rps, 250 * (i as u32 + 1));
            assert_eq!(cfg.shuffle_size, Some(10));
        }
    }

    #[test]
    fn micro_constructor_matches_table() {
        let m5 = PProxConfig::micro(5);
        assert_eq!(m5.shuffle.size, 5);
        assert!(m5.encryption && m5.sgx);
        let m1 = PProxConfig::micro(1);
        assert!(!m1.encryption);
        assert!(m1.shuffle.is_disabled());
        let m9 = PProxConfig::micro(9);
        assert_eq!(m9.ua_instances, 4);
    }

    #[test]
    #[should_panic(expected = "m1..m9")]
    fn out_of_range_micro_panics() {
        let _ = PProxConfig::micro(10);
    }

    #[test]
    fn test_config_is_cheap() {
        let c = PProxConfig::for_tests();
        assert_eq!(c.modulus_bits, 1152);
        assert!(c.shuffle.is_disabled());
        assert!(c.encryption);
    }
}
