//! PProx: a privacy-preserving proxy service for
//! Recommendation-as-a-Service.
//!
//! This crate is the paper's primary contribution (Rosinosky et al.,
//! Middleware '21): a two-layer proxy interposed between users and an
//! unmodified legacy recommendation system (LRS) that guarantees
//! **User–Interest unlinkability** — no component of the RaaS provider,
//! nor an adversary observing all of its network traffic and breaking one
//! enclave layer, can link a user to the items they access or receive as
//! recommendations.
//!
//! Architecture (§3–§5 of the paper):
//!
//! * [`client`] — the user-side library: encrypts ids under the layer
//!   public keys and opens responses. Holds no secrets.
//! * [`ua`] — the User Anonymizer layer: sees user ids, never item ids;
//!   replaces users with deterministic pseudonyms.
//! * [`ia`] — the Item Anonymizer layer: sees item ids, never user ids;
//!   pseudonymizes items and encrypts response lists under per-request
//!   temporary keys.
//! * [`keys`] — layer key material and attestation-gated provisioning.
//! * [`message`] — constant-size wire envelopes.
//! * [`telemetry`] — privacy-safe per-stage latency histograms and their
//!   exporters (the fluentd role): aggregates only, no per-request record.
//! * [`resilience`] — deadlines, retry backoff, the LRS circuit breaker
//!   and the admission gate the serving chain is built from.
//! * [`shuffler`] — the §4.3 shuffle buffer, and the per-batch gather the
//!   serving chain answers through.
//! * [`config`] — the paper's Table 2 rows, for the simulated cluster.
//!
//! The chain runs in one place: `pprox-wire` (`services::{ua, ia, lrs}`
//! behind `LoopbackCluster`) puts these layer transforms in enclaves
//! behind sockets, shuffle stages and retries.
//!
//! # Examples
//!
//! One post through both layers' transforms, called directly:
//!
//! ```
//! use pprox_core::ia::{IaOptions, IaState};
//! use pprox_core::keys::{ClientKeys, LayerSecrets};
//! use pprox_core::ua::UaState;
//! use pprox_core::UserClient;
//! use pprox_crypto::rng::SecureRng;
//!
//! # fn main() -> Result<(), pprox_core::PProxError> {
//! let mut rng = SecureRng::from_seed(42);
//! let (ua_secrets, pk_ua) = LayerSecrets::generate(1152, &mut rng);
//! let (ia_secrets, pk_ia) = LayerSecrets::generate(1152, &mut rng);
//! let (mut ua, mut ia) = (UaState::new(ua_secrets), IaState::new(ia_secrets));
//! let mut client = UserClient::new(ClientKeys { pk_ua, pk_ia }, 7);
//!
//! let request = client.post("alice", "item-1", Some(5.0))?;
//! let pseudonymized = ua.process(&request, true)?;
//! let event = ia.process_post(&pseudonymized, IaOptions::default())?;
//! // What the LRS stores: pseudonyms only.
//! assert!(!event.user.contains("alice") && !event.item.contains("item-1"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod config;
pub mod ia;
pub mod ids;
pub mod keys;
pub mod message;
pub mod resilience;
pub mod shuffler;
pub mod telemetry;
pub mod ua;

pub use client::UserClient;
pub use ids::{PlaintextItemId, PlaintextUserId};

use pprox_crypto::base64::DecodeBase64Error;
use pprox_crypto::pad::PadError;
use pprox_crypto::CryptoError;
use pprox_json::ParseJsonError;
use pprox_sgx::epc::EpcError;
use pprox_sgx::{AttestationError, EnclaveError};

/// Errors produced by the PProx protocol and deployments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PProxError {
    /// A cryptographic operation failed (wrong key, corrupted data).
    Crypto(CryptoError),
    /// Constant-size framing was violated.
    Pad(PadError),
    /// A JSON body failed to parse.
    Json(ParseJsonError),
    /// A base64 field failed to decode.
    Base64(DecodeBase64Error),
    /// Remote attestation rejected an enclave.
    Attestation(AttestationError),
    /// Enclave lifecycle violation (not provisioned, double provision…).
    Enclave(EnclaveError),
    /// The IA layer's EPC budget for pending response keys is exhausted.
    Epc(EpcError),
    /// A message had the right size but invalid structure.
    MalformedMessage,
    /// A response arrived for an unknown or already-answered request.
    UnknownToken,
    /// A user or item identifier exceeds the fixed-size id budget.
    IdTooLong {
        /// Offending length.
        len: usize,
        /// Maximum supported length.
        max: usize,
    },
    /// The request exceeded its end-to-end deadline budget (includes
    /// hung/slow LRS calls that outlived every retry attempt).
    Deadline,
    /// A dependency is temporarily unusable: the circuit breaker is open,
    /// a node is shutting down, or a crashed enclave's node has not been
    /// respawned yet. Safe to retry after a backoff.
    Unavailable,
    /// Admission control rejected the request: the node already holds its
    /// maximum number of in-flight requests. Shed load upstream or scale
    /// out.
    Overloaded,
}

impl std::fmt::Display for PProxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PProxError::Crypto(e) => write!(f, "crypto error: {e}"),
            PProxError::Pad(e) => write!(f, "framing error: {e}"),
            PProxError::Json(e) => write!(f, "json error: {e}"),
            PProxError::Base64(e) => write!(f, "base64 error: {e}"),
            PProxError::Attestation(e) => write!(f, "attestation error: {e}"),
            PProxError::Enclave(e) => write!(f, "enclave error: {e}"),
            PProxError::Epc(e) => write!(f, "epc error: {e}"),
            PProxError::MalformedMessage => write!(f, "malformed message"),
            PProxError::UnknownToken => write!(f, "unknown or spent request token"),
            PProxError::IdTooLong { len, max } => {
                write!(f, "identifier of {len} bytes exceeds maximum of {max}")
            }
            PProxError::Deadline => write!(f, "request exceeded its deadline"),
            PProxError::Unavailable => write!(f, "service temporarily unavailable"),
            PProxError::Overloaded => write!(f, "pipeline overloaded; request rejected"),
        }
    }
}

impl std::error::Error for PProxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PProxError::Crypto(e) => Some(e),
            PProxError::Pad(e) => Some(e),
            PProxError::Json(e) => Some(e),
            PProxError::Base64(e) => Some(e),
            PProxError::Attestation(e) => Some(e),
            PProxError::Enclave(e) => Some(e),
            PProxError::Epc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CryptoError> for PProxError {
    fn from(e: CryptoError) -> Self {
        PProxError::Crypto(e)
    }
}

impl From<PadError> for PProxError {
    fn from(e: PadError) -> Self {
        PProxError::Pad(e)
    }
}

impl From<ParseJsonError> for PProxError {
    fn from(e: ParseJsonError) -> Self {
        PProxError::Json(e)
    }
}

impl From<DecodeBase64Error> for PProxError {
    fn from(e: DecodeBase64Error) -> Self {
        PProxError::Base64(e)
    }
}

impl From<AttestationError> for PProxError {
    fn from(e: AttestationError) -> Self {
        PProxError::Attestation(e)
    }
}

impl From<EnclaveError> for PProxError {
    fn from(e: EnclaveError) -> Self {
        PProxError::Enclave(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = PProxError::Crypto(CryptoError::DecryptionFailed);
        assert_eq!(e.to_string(), "crypto error: decryption failed");
        assert!(e.source().is_some());
        assert!(PProxError::MalformedMessage.source().is_none());
        assert_eq!(
            PProxError::IdTooLong { len: 40, max: 28 }.to_string(),
            "identifier of 40 bytes exceeds maximum of 28"
        );
        assert_eq!(
            PProxError::Deadline.to_string(),
            "request exceeded its deadline"
        );
        assert_eq!(
            PProxError::Unavailable.to_string(),
            "service temporarily unavailable"
        );
        assert_eq!(
            PProxError::Overloaded.to_string(),
            "pipeline overloaded; request rejected"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PProxError>();
    }
}
