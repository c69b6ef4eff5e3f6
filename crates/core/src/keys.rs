//! Cryptographic material of the two proxy layers and its provisioning.
//!
//! §4.1: the UA layer holds private key `skUA` and permanent symmetric key
//! `kUA`; the IA layer holds `skIA` and `kIA`. The RaaS *client
//! application* — not the RaaS provider — generates these keys, attests
//! each enclave, and provisions the layer secrets, so the provider never
//! sees them. [`KeyProvisioner`] implements that client-side role against
//! the simulated SGX platform.

use pprox_crypto::ctr::SymmetricKey;
use pprox_crypto::rng::SecureRng;
use pprox_crypto::rsa::{RsaKeyPair, RsaPrivateKey, RsaPublicKey};
use pprox_sgx::enclave::{EnclaveApp, SecretBag};
use pprox_sgx::{Enclave, Measurement, Platform};

use crate::ia::IaState;
use crate::ua::UaState;
use crate::PProxError;

/// Code identity of UA enclaves (determines their measurement).
pub const UA_CODE_IDENTITY: &str = "pprox-ua-layer-v1";

/// Code identity of IA enclaves.
pub const IA_CODE_IDENTITY: &str = "pprox-ia-layer-v1";

/// Secrets of one proxy layer: the asymmetric decryption key and the
/// deterministic pseudonymization key.
#[derive(Clone)]
pub struct LayerSecrets {
    /// Private half of the layer's key pair (`skUA` / `skIA`).
    pub sk: RsaPrivateKey,
    /// Permanent symmetric key (`kUA` / `kIA`).
    pub k: SymmetricKey,
}

impl std::fmt::Debug for LayerSecrets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("LayerSecrets(redacted)")
    }
}

impl LayerSecrets {
    /// Generates a fresh layer key set.
    pub fn generate(modulus_bits: usize, rng: &mut SecureRng) -> (Self, RsaPublicKey) {
        let pair = RsaKeyPair::generate(modulus_bits, rng);
        let k = SymmetricKey::generate(rng);
        (
            LayerSecrets {
                sk: pair.private,
                k,
            },
            pair.public,
        )
    }

    /// Builds the cipher state the hot path needs — the deterministic
    /// keystream prefix of `k` — so a freshly provisioned enclave serves
    /// its first request at steady-state cost. Layer states call this in
    /// their constructors; the RSA Montgomery contexts are already cached
    /// inside `sk` at key generation.
    pub fn warm(&self) {
        self.k.warm();
    }

    /// Secrets as an adversary would extract them from a broken enclave.
    pub fn leak_into(&self, bag: &mut SecretBag, prefix: &str) {
        // The private exponent is not serialized; leaking the symmetric key
        // plus a marker for the private key captures the §6.1 case analysis
        // (what matters is *which* layer's keys the adversary holds).
        bag.insert(format!("{prefix}.k"), self.k.as_bytes().to_vec());
        bag.insert(
            format!("{prefix}.sk.fingerprint"),
            self.sk.public_key().fingerprint().to_vec(),
        );
    }
}

/// Public keys the user-side library embeds (globally known information —
/// §3's "ease of deployment" requirement: no per-user secrets).
#[derive(Debug, Clone)]
pub struct ClientKeys {
    /// UA layer public key (`pkUA`).
    pub pk_ua: RsaPublicKey,
    /// IA layer public key (`pkIA`).
    pub pk_ia: RsaPublicKey,
}

/// The RaaS client application's provisioning role: generates layer keys,
/// attests enclaves, installs secrets.
pub struct KeyProvisioner {
    ua_secrets: LayerSecrets,
    ia_secrets: LayerSecrets,
    client_keys: ClientKeys,
}

impl std::fmt::Debug for KeyProvisioner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("KeyProvisioner(holds layer secrets)")
    }
}

impl KeyProvisioner {
    /// Generates fresh secrets for both layers.
    ///
    /// `modulus_bits` of 2048 matches the paper; tests use 768 for speed.
    pub fn generate(modulus_bits: usize, rng: &mut SecureRng) -> Self {
        let (ua_secrets, pk_ua) = LayerSecrets::generate(modulus_bits, rng);
        let (ia_secrets, pk_ia) = LayerSecrets::generate(modulus_bits, rng);
        KeyProvisioner {
            ua_secrets,
            ia_secrets,
            client_keys: ClientKeys { pk_ua, pk_ia },
        }
    }

    /// Public keys for embedding in the user-side library.
    pub fn client_keys(&self) -> ClientKeys {
        self.client_keys.clone()
    }

    /// Attests a freshly loaded UA enclave and provisions `skUA`/`kUA`.
    ///
    /// # Errors
    ///
    /// Fails when attestation rejects the quote (wrong code measurement —
    /// e.g. an enclave loaded from tampered code) or the enclave was
    /// already provisioned.
    pub fn provision_ua(
        &self,
        platform: &Platform,
        enclave: &Enclave<UaState>,
    ) -> Result<(), PProxError> {
        let quote = enclave.quote(self.client_keys.pk_ua.fingerprint().to_vec());
        let token = platform
            .attestation()
            .verify(&quote, Measurement::of_code(UA_CODE_IDENTITY))?;
        enclave.provision(token, UaState::new(self.ua_secrets.clone()))?;
        Ok(())
    }

    /// Attests a freshly loaded IA enclave and provisions `skIA`/`kIA`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`provision_ua`](Self::provision_ua).
    pub fn provision_ia(
        &self,
        platform: &Platform,
        enclave: &Enclave<IaState>,
    ) -> Result<(), PProxError> {
        let quote = enclave.quote(self.client_keys.pk_ia.fingerprint().to_vec());
        let token = platform
            .attestation()
            .verify(&quote, Measurement::of_code(IA_CODE_IDENTITY))?;
        enclave.provision(token, IaState::new(self.ia_secrets.clone()))?;
        Ok(())
    }
}

/// Convenience trait implementation so layer states can report what an
/// enclave breach leaks.
impl EnclaveApp for UaState {
    fn leak_secrets(&self) -> SecretBag {
        let mut bag = SecretBag::new();
        self.secrets().leak_into(&mut bag, "ua");
        bag
    }
}

impl EnclaveApp for IaState {
    fn leak_secrets(&self) -> SecretBag {
        let mut bag = SecretBag::new();
        self.secrets().leak_into(&mut bag, "ia");
        // Pending per-request response keys are in enclave memory too.
        for (token, k_u) in self.pending_keys() {
            bag.insert(format!("ia.k_u.{token}"), k_u.to_vec());
        }
        bag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_produces_distinct_layer_keys() {
        let mut rng = SecureRng::from_seed(1);
        let prov = KeyProvisioner::generate(768, &mut rng);
        let keys = prov.client_keys();
        assert_ne!(keys.pk_ua.fingerprint(), keys.pk_ia.fingerprint());
    }

    #[test]
    fn provisioning_happy_path() {
        let mut rng = SecureRng::from_seed(2);
        let prov = KeyProvisioner::generate(768, &mut rng);
        let platform = Platform::new(&mut rng);
        let ua = platform.load_enclave::<UaState>(UA_CODE_IDENTITY);
        let ia = platform.load_enclave::<IaState>(IA_CODE_IDENTITY);
        prov.provision_ua(&platform, &ua).unwrap();
        prov.provision_ia(&platform, &ia).unwrap();
        assert!(ua.call(|_| ()).is_ok());
        assert!(ia.call(|_| ()).is_ok());
    }

    #[test]
    fn wrong_code_identity_fails_attestation() {
        let mut rng = SecureRng::from_seed(3);
        let prov = KeyProvisioner::generate(768, &mut rng);
        let platform = Platform::new(&mut rng);
        // An enclave loaded from *tampered* code has the wrong measurement.
        let evil = platform.load_enclave::<UaState>("pprox-ua-layer-evil");
        let err = prov.provision_ua(&platform, &evil).unwrap_err();
        assert!(matches!(err, PProxError::Attestation(_)), "{err:?}");
    }

    #[test]
    fn double_provisioning_fails() {
        let mut rng = SecureRng::from_seed(4);
        let prov = KeyProvisioner::generate(768, &mut rng);
        let platform = Platform::new(&mut rng);
        let ua = platform.load_enclave::<UaState>(UA_CODE_IDENTITY);
        prov.provision_ua(&platform, &ua).unwrap();
        assert!(prov.provision_ua(&platform, &ua).is_err());
    }

    #[test]
    fn debug_output_redacts_secrets() {
        let mut rng = SecureRng::from_seed(5);
        let prov = KeyProvisioner::generate(768, &mut rng);
        assert_eq!(format!("{prov:?}"), "KeyProvisioner(holds layer secrets)");
        let (secrets, _) = LayerSecrets::generate(768, &mut rng);
        assert_eq!(format!("{secrets:?}"), "LayerSecrets(redacted)");
    }

    #[test]
    fn broken_ua_enclave_leaks_only_ua_keys() {
        let mut rng = SecureRng::from_seed(6);
        let prov = KeyProvisioner::generate(768, &mut rng);
        let platform = Platform::new(&mut rng);
        let ua = platform.load_enclave::<UaState>(UA_CODE_IDENTITY);
        prov.provision_ua(&platform, &ua).unwrap();
        let bag = platform.break_enclave(ua.id()).unwrap();
        assert!(bag.get("ua.k").is_some());
        assert!(bag.get("ia.k").is_none(), "UA breach must not leak IA keys");
    }
}
