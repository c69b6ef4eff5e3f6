//! The paper's Table 2: the micro-benchmark configurations m1–m9.
//!
//! Table 2 defines nine configurations that switch the security features
//! on one by one (encryption, SGX, shuffling, item pseudonymization) and
//! then scale the proxy horizontally. The simulated cluster behind the
//! figure harnesses (`pprox-bench`) is parameterized by these rows; the
//! serving chain takes its shape from `pprox-wire`'s `ClusterConfig`.

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
        // m5 shuffles with S = 5.
        assert_eq!(configs[4].shuffle_size, Some(5));
        // m6–m9 scale 1..4 instances at +250 RPS each.
        for (i, cfg) in configs[5..].iter().enumerate() {
            assert_eq!(cfg.ua, i + 1);
            assert_eq!(cfg.ia, i + 1);
            assert_eq!(cfg.max_rps, 250 * (i as u32 + 1));
            assert_eq!(cfg.shuffle_size, Some(10));
        }
    }
}
