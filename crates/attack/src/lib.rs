//! Adversary harness: executable versions of the paper's security
//! analysis (§6).
//!
//! The PProx paper proves its properties informally. This crate turns each
//! argument into a *measurement*:
//!
//! * [`wire_audit`] — the §6.2 network adversary on *real sockets*: a
//!   burst-clustering, length- and rank-matching linkage estimator over
//!   frames recorded by a tap on the UA→IA boundary, scored against
//!   `1/S` (instance-aware) and `1/(S·I)` (instance-blind);
//!   `pprox-scenario` feeds it live cluster traces. Every leak it is
//!   shown is a per-request join key written into a measured trace
//!   ([`WireTrace::with_join_key`]): the no-padding ablation's lengths,
//!   a metrics export's arrival instants — each linked outright.
//! * [`cases`] — the §6.1 case analysis against the serving chain: break
//!   a UA or IA enclave (through the simulated-SGX compromise API), read
//!   the whole LRS database, and check exactly what leaks. Includes the
//!   hypothetical two-layer break (forbidden by the §2.3 model) as a
//!   positive control, and the §6.3 item-pseudonymization-off trade-off.
//! * [`history`] — the §6.3 history-based intersection attack and its
//!   IP-hiding mitigation, measured quantitatively.
//! * [`lowtraffic`] — the §6.3 low-traffic limitation: effective
//!   anonymity-set size under starved shuffle buffers, and the
//!   multi-tenancy mitigation.
//! * [`combined`] — the rejected single-enclave alternative (§3): cheaper,
//!   and fatally linkable after one break.
//! * [`scrape_audit`] — the adversary's triage pass over the *monitoring*
//!   exports (the scrape channel, the only telemetry that leaves a
//!   node): flags any field that would act as a linkage oracle. The
//!   scenario harness runs it on every node document it scrapes.
//! * [`at_rest_audit`] — the §6.1 database adversary pointed at *disk*:
//!   scans a durable store directory (`pprox-store`) for plaintext
//!   user/item identifiers, unpadded record lengths, and foreign files,
//!   verifying the at-rest image is pseudonymous padded ciphertext only.
//!
//! The harness binary `security_analysis` in `pprox-bench` prints the
//! full report (its §6.2 table runs [`wire_audit`] on scenario traces of
//! the serving chain); EXPERIMENTS.md records the numbers.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod at_rest_audit;
pub mod cases;
pub mod combined;
pub mod history;
pub mod lowtraffic;
pub mod scrape_audit;
pub mod wire_audit;

/// A measured linkage probability next to the §6.2 curve it must not
/// beat — the score every audit of this crate reports.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkageScore {
    /// Identifications attempted.
    pub attempts: usize,
    /// Correct identifications.
    pub correct: usize,
    /// Measured linkage probability.
    pub success_rate: f64,
    /// The analytic curve under test: `1/S`, or `1/(S·I)` for an
    /// instance-blind observer.
    pub bound: f64,
    /// Accepted excursion above the bound: three binomial standard
    /// deviations at `attempts` samples, plus 0.01 absolute slack for
    /// the discretization of small sample counts.
    pub tolerance: f64,
}

impl LinkageScore {
    /// Scores `correct` identifications out of `attempts` against `bound`.
    pub fn new(attempts: usize, correct: usize, bound: f64) -> Self {
        let n = attempts.max(1) as f64;
        LinkageScore {
            attempts,
            correct,
            success_rate: correct as f64 / n,
            bound,
            tolerance: 3.0 * (bound * (1.0 - bound) / n).sqrt() + 0.01,
        }
    }

    /// Whether the adversary learned no more than the network observer
    /// already could: `success_rate ≤ bound + tolerance`.
    pub fn within(&self) -> bool {
        self.success_rate <= self.bound + self.tolerance
    }
}

pub use at_rest_audit::{audit_store_dir, AtRestAuditOutcome, PlaintextHit};
pub use cases::{break_ia_and_read_database, break_layer, break_ua_and_read_database, CaseOutcome};
pub use history::{intersection_attack, IntersectionOutcome};
pub use lowtraffic::{measure_anonymity_set, AnonymitySetReport};
pub use scrape_audit::scan_export_for_oracles;
pub use wire_audit::{
    wire_linkage_attack, TraceArrival, TraceDeparture, WireAuditConfig, WireAuditOutcome, WireTrace,
};
