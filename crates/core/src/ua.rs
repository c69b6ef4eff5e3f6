//! User Anonymizer (UA) layer — the first proxy layer.
//!
//! §3: "The first layer, the User Anonymizer (UA), is responsible for
//! hiding the identity of the user by replacing it with a pseudonymous
//! identity. It is able to see the IP address and the identifier of the
//! user but it is not able to see the identifiers of the items sent by or
//! returned to this user."
//!
//! [`UaState`] is the data-processing logic that runs *inside* a UA
//! enclave; its only secrets are `skUA` (to decrypt `enc(u, pkUA)`) and
//! `kUA` (to produce the stable pseudonym `det_enc(u, kUA)`). It never
//! touches the aux block (item or response key): that is encrypted to the
//! IA layer. It holds no clock and no metric either: an enclave reads the
//! time only by calling out to its host, so the wire service times each
//! ECALL from outside (`pprox_wire::services`).

use crate::keys::LayerSecrets;
use crate::message::{ClientEnvelope, LayerEnvelope};
use crate::PProxError;
use pprox_crypto::secret::SecretBytes;

/// In-enclave state and logic of a UA instance.
pub struct UaState {
    secrets: LayerSecrets,
}

impl std::fmt::Debug for UaState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UaState").finish_non_exhaustive()
    }
}

impl UaState {
    /// Creates the state from provisioned layer secrets, warming the
    /// cached cipher state so the first request is served at steady-state
    /// cost.
    pub fn new(secrets: LayerSecrets) -> Self {
        secrets.warm();
        UaState { secrets }
    }

    pub(crate) fn secrets(&self) -> &LayerSecrets {
        &self.secrets
    }

    /// Transforms a client request into the UA → IA form: decrypts the
    /// user field with `skUA` and replaces it with the deterministic
    /// pseudonym `det_enc(u, kUA)`. The aux block passes through untouched.
    ///
    /// With `encryption == false` (micro-benchmark m1: all security
    /// features off) the user field is raw and is forwarded as-is.
    ///
    /// # Errors
    ///
    /// [`PProxError::Crypto`] when the user field does not decrypt under
    /// `skUA` (corrupted request or key mismatch).
    pub fn process(
        &mut self,
        envelope: &ClientEnvelope,
        encryption: bool,
    ) -> Result<LayerEnvelope, PProxError> {
        let user_pseudonym = if encryption {
            // The client encrypted the *padded* id, so the decrypted block
            // is already fixed-size; deterministic CTR keeps it fixed-size.
            // Pseudonymizing in place against the cached keystream prefix
            // avoids a second allocation per request. The plaintext only
            // ever lives inside a SecretBytes; once `det_apply` has run,
            // the buffer holds the pseudonym, which is safe to release.
            let mut padded_user = SecretBytes::new(self.secrets.sk.decrypt(&envelope.user)?);
            self.secrets.k.det_apply(padded_user.expose_mut());
            padded_user.into_exposed()
        } else {
            envelope.user.clone()
        };
        Ok(LayerEnvelope {
            op: envelope.op,
            user_pseudonym,
            aux: envelope.aux.clone(),
        })
    }

    /// Recovers the plaintext (padded) user id from a pseudonym — only
    /// possible *inside* the UA enclave. Exposed for the security-analysis
    /// harness (§6.1 case 1.c: an adversary holding `kUA` can
    /// de-pseudonymize LRS user ids). The result is a plaintext user id,
    /// so it comes back wrapped in [`SecretBytes`]: callers must `expose`
    /// it explicitly, which the privacy-flow analyzer can then audit.
    pub fn depseudonymize(&self, pseudonym: &[u8]) -> SecretBytes {
        SecretBytes::new(self.secrets.k.det_decrypt(pseudonym))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Op, ID_PLAINTEXT_LEN};
    use pprox_crypto::pad;
    use pprox_crypto::rng::SecureRng;

    fn setup() -> (UaState, SecureRng) {
        // Unit test reaches the UA state directly; the enclave wrapper is
        // exercised by the serving chain's tests.
        let mut rng = SecureRng::from_seed(11);
        let (secrets, _pk) = crate::keys::LayerSecrets::generate(1152, &mut rng);
        (UaState::new(secrets), rng)
    }

    fn padded(id: &str) -> Vec<u8> {
        pad::pad(id.as_bytes(), ID_PLAINTEXT_LEN).unwrap()
    }

    #[test]
    fn pseudonym_is_deterministic_and_fixed_size() {
        let (mut ua, mut rng) = setup();
        let pk = ua.secrets.sk.public_key().clone();
        let make = |rng: &mut SecureRng, ua: &mut UaState| {
            let env = ClientEnvelope {
                op: Op::Post,
                user: pk.encrypt(&padded("alice"), rng).unwrap(),
                aux: vec![1, 2, 3],
            };
            ua.process(&env, true).unwrap()
        };
        let a = make(&mut rng, &mut ua);
        let b = make(&mut rng, &mut ua);
        // Ciphertexts differed (randomized RSA) but pseudonyms are equal.
        assert_eq!(a.user_pseudonym, b.user_pseudonym);
        assert_eq!(a.user_pseudonym.len(), ID_PLAINTEXT_LEN);
    }

    #[test]
    fn different_users_different_pseudonyms() {
        let (mut ua, mut rng) = setup();
        let pk = ua.secrets.sk.public_key().clone();
        let make = |id: &str, rng: &mut SecureRng, ua: &mut UaState| {
            let env = ClientEnvelope {
                op: Op::Get,
                user: pk.encrypt(&padded(id), rng).unwrap(),
                aux: vec![],
            };
            ua.process(&env, true).unwrap().user_pseudonym
        };
        assert_ne!(
            make("alice", &mut rng, &mut ua),
            make("bob", &mut rng, &mut ua)
        );
    }

    #[test]
    fn aux_passes_through_unmodified() {
        let (mut ua, mut rng) = setup();
        let pk = ua.secrets.sk.public_key().clone();
        let aux = vec![0xab; 100];
        let env = ClientEnvelope {
            op: Op::Get,
            user: pk.encrypt(&padded("u"), &mut rng).unwrap(),
            aux: aux.clone(),
        };
        let out = ua.process(&env, true).unwrap();
        assert_eq!(out.aux, aux);
        assert_eq!(out.op, Op::Get);
    }

    #[test]
    fn passthrough_mode_copies_user() {
        let (mut ua, _) = setup();
        let env = ClientEnvelope {
            op: Op::Post,
            user: b"alice".to_vec(),
            aux: b"item".to_vec(),
        };
        let out = ua.process(&env, false).unwrap();
        assert_eq!(out.user_pseudonym, b"alice");
    }

    #[test]
    fn garbage_ciphertext_rejected() {
        let (mut ua, mut rng) = setup();
        let pk = ua.secrets.sk.public_key().clone();
        let mut broken = pk.encrypt(&padded("dave"), &mut rng).unwrap();
        broken[5] ^= 1;
        // Refused at three different steps of the decrypt: length, range,
        // OAEP.
        for user in [vec![0u8; 13], vec![0xff; pk.ciphertext_len()], broken] {
            let env = ClientEnvelope {
                op: Op::Post,
                user,
                aux: vec![],
            };
            assert!(matches!(ua.process(&env, true), Err(PProxError::Crypto(_))));
        }
        // A repeated ciphertext is opened again, to the same pseudonym.
        let env = ClientEnvelope {
            op: Op::Get,
            user: pk.encrypt(&padded("alice"), &mut rng).unwrap(),
            aux: vec![],
        };
        let first = ua.process(&env, true).unwrap();
        assert_eq!(ua.process(&env, true).unwrap(), first);
    }

    #[test]
    fn depseudonymize_inverts() {
        let (mut ua, mut rng) = setup();
        let pk = ua.secrets.sk.public_key().clone();
        let env = ClientEnvelope {
            op: Op::Post,
            user: pk.encrypt(&padded("carol"), &mut rng).unwrap(),
            aux: vec![],
        };
        let out = ua.process(&env, true).unwrap();
        let recovered = ua.depseudonymize(&out.user_pseudonym);
        assert_eq!(
            pad::unpad(recovered.expose(), ID_PLAINTEXT_LEN).unwrap(),
            b"carol"
        );
    }
}
