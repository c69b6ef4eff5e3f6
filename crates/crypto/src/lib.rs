//! Cryptographic substrate for the PProx reproduction.
//!
//! The PProx paper (Middleware '21) builds its privacy-preserving proxy
//! service on three cryptographic tools (§4.1):
//!
//! 1. **Randomized asymmetric encryption** (RSA-OAEP, [`rsa`]) — used by the
//!    user-side library so that only the intended proxy layer (UA or IA) can
//!    read a user id, item id, or temporary response key.
//! 2. **Deterministic symmetric encryption** (AES-256-CTR with a constant
//!    IV, [`ctr::SymmetricKey::det_encrypt`]) — used by each layer to
//!    pseudonymize identifiers so the LRS sees stable profiles.
//! 3. **Randomized symmetric encryption** (AES-256-CTR with a random IV,
//!    [`ctr::SymmetricKey::encrypt`]) — used by the IA layer to hide
//!    recommendation lists from the UA layer on the way back.
//!
//! The original system uses Intel's OpenSSL SGX port; the reproduction is
//! restricted to a small offline crate set, so AES, SHA-256, HMAC, RSA and
//! the big-integer arithmetic below are implemented from scratch and
//! validated against FIPS/NIST/RFC test vectors.
//!
//! Everything is portable scalar Rust except two kernel families, each
//! chosen by what the CPU reports and never by a flag, each giving the
//! same bytes as the portable code it stands in for:
//!
//! * on x86-64 CPUs that report AVX-512 IFMA, the RSA-2048 private-key
//!   operation — the cost the paper's §4.1 dissection puts on every
//!   request, twice — runs its CRT ladders on radix-2⁵² vector
//!   multiply-adds (`mont52.rs`, private; the key size picks it too): the
//!   three ladders of a three-prime key's decrypt in lockstep;
//! * on x86-64 CPUs that report `aes`, the CTR keystream under every
//!   [`ctr::SymmetricKey`] operation runs its AES-256 rounds on
//!   `aesenc`/`aesenclast`, eight counter blocks in flight (in [`aes`]),
//!   which also takes the S-box's secret-indexed loads off the request
//!   path.
//!
//! # `unsafe` policy
//!
//! The crate is `#![deny(unsafe_code)]` with exactly two
//! `#[allow(unsafe_code)]`, each on one call into a `#[target_feature]`
//! kernel, directly under the `is_x86_feature_detected!` check that is its
//! whole safety argument: the private-key dispatch in [`rsa`] into the
//! `avx512f,avx512ifma` ladders, and the keystream dispatch in [`ctr`] into the
//! `aes` rounds. The kernels themselves are safe code
//! (value intrinsics, no pointers). `scripts/ci.sh` greps that these stay
//! the only two `unsafe` sites in the workspace.
//!
//! # Examples
//!
//! ```
//! use pprox_crypto::rng::SecureRng;
//! use pprox_crypto::rsa::RsaKeyPair;
//! use pprox_crypto::ctr::SymmetricKey;
//!
//! # fn main() -> Result<(), pprox_crypto::CryptoError> {
//! let mut rng = SecureRng::from_seed(42);
//! // A layer key pair (as provisioned to a UA enclave)...
//! let layer = RsaKeyPair::generate(768, &mut rng);
//! // ...and the deterministic pseudonymization key.
//! let k_ua = SymmetricKey::generate(&mut rng);
//!
//! let ct = layer.public.encrypt(b"user-7", &mut rng)?;
//! let user = layer.private.decrypt(&ct)?;
//! let pseudonym = k_ua.det_encrypt(&user);
//! assert_eq!(pseudonym, k_ua.det_encrypt(b"user-7"));
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod aes;
pub mod base64;
pub mod bigint;
pub mod ct;
pub mod ctr;
pub mod hmac;
pub mod hybrid;
#[cfg(target_arch = "x86_64")]
mod mont52;
pub mod pad;
pub mod prime;
pub mod rng;
pub mod rsa;
pub mod secret;
pub mod sha256;

/// Errors produced by the cryptographic operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// Plaintext exceeds the capacity of the encryption scheme.
    MessageTooLong {
        /// Attempted plaintext length.
        len: usize,
        /// Maximum supported plaintext length.
        max: usize,
    },
    /// Ciphertext failed to decrypt (wrong key, wrong length, or corrupted).
    DecryptionFailed,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::MessageTooLong { len, max } => {
                write!(f, "message of {len} bytes exceeds maximum of {max}")
            }
            CryptoError::DecryptionFailed => write!(f, "decryption failed"),
        }
    }
}

impl std::error::Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert_eq!(
            CryptoError::MessageTooLong { len: 10, max: 5 }.to_string(),
            "message of 10 bytes exceeds maximum of 5"
        );
        assert_eq!(
            CryptoError::DecryptionFailed.to_string(),
            "decryption failed"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CryptoError>();
    }
}
