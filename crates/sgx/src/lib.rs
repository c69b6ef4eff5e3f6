//! Simulated trusted-execution environment (Intel SGX stand-in).
//!
//! The PProx paper runs its two proxy layers inside Intel SGX enclaves.
//! This reproduction has no SGX hardware (the known reproduction gap), so
//! this crate provides a **simulated TEE** that enforces the same API
//! contract the paper's guarantees rest on:
//!
//! 1. **Isolation** — enclave state is only reachable through the ECALL
//!    boundary ([`enclave::Enclave::call`]); host code and the network
//!    observer never see secrets.
//! 2. **Attestation before provisioning** — secrets are installed only
//!    with a [`attestation::ProvisioningToken`], which requires verifying a
//!    platform-signed [`attestation::Quote`] against the expected
//!    [`measurement::Measurement`] (§2.2).
//! 3. **A realistic adversary** — unlike designs that treat enclaves as
//!    inviolable, PProx assumes side-channel attacks can break *one*
//!    enclave layer at a time (§2.3). [`enclave::Platform::break_enclave`]
//!    implements exactly that: it leaks the victim's [`enclave::SecretBag`]
//!    but refuses a synchronous break of a second layer until
//!    [`enclave::Platform::detect_and_recover`] (the Déjà Vu/Varys/Cloak
//!    detection analog) has run.
//! 4. **Resource limits** — [`epc::EpcStore`] models the scarce Enclave
//!    Page Cache used to hold pending response keys, and [`sealing`]
//!    models persistent sealed storage.
//!
//! What is *not* simulated: micro-architectural timing itself. The paper's
//! performance cost of SGX (world switches, EPC pressure) is modelled in
//! the cluster simulator's service-time parameters (`pprox-net`), and
//! ECALLs are counted here ([`enclave::Enclave::ecall_count`]) to drive it.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod attestation;
pub mod enclave;
pub mod epc;
pub mod measurement;
pub mod sealing;

pub use attestation::{AttestationError, AttestationService, ProvisioningToken, Quote};
pub use enclave::{CompromiseError, Enclave, EnclaveApp, Platform, SecretBag};
pub use epc::{EpcError, EpcStore};
pub use measurement::Measurement;

/// Identifier of an enclave instance on its platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EnclaveId(pub u64);

impl std::fmt::Display for EnclaveId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "enclave-{}", self.0)
    }
}

/// Errors from enclave lifecycle operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnclaveError {
    /// ECALL before secrets were provisioned.
    NotProvisioned,
    /// Provisioning attempted twice.
    AlreadyProvisioned,
    /// Provisioning token was issued for a different enclave.
    TokenMismatch,
    /// The enclave process died (simulated crash, e.g. an AEX the host
    /// cannot resume, or an EPC fault). Its state is gone; callers must
    /// load and provision a replacement enclave.
    Crashed,
}

impl std::fmt::Display for EnclaveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnclaveError::NotProvisioned => write!(f, "enclave not provisioned"),
            EnclaveError::AlreadyProvisioned => write!(f, "enclave already provisioned"),
            EnclaveError::TokenMismatch => {
                write!(f, "provisioning token does not match enclave")
            }
            EnclaveError::Crashed => write!(f, "enclave crashed; state lost"),
        }
    }
}

impl std::error::Error for EnclaveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_impls() {
        assert_eq!(EnclaveId(3).to_string(), "enclave-3");
        assert_eq!(
            EnclaveError::NotProvisioned.to_string(),
            "enclave not provisioned"
        );
        assert_eq!(
            EnclaveError::TokenMismatch.to_string(),
            "provisioning token does not match enclave"
        );
    }
}
