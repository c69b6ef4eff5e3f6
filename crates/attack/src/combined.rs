//! Ablation: a single combined proxy enclave instead of two layers.
//!
//! §3 motivates the two-layer design by rejecting the obvious
//! alternative: "mapping a user identifier to a pseudonym in a single SGX
//! enclave acting as a proxy … is not sufficient under our adversary
//! model. The adversary may, indeed, compromise this single enclave and
//! learn the direct associations between user identifiers and item
//! identifiers."
//!
//! [`CombinedProxyState`] is that rejected design, implemented honestly:
//! one enclave holding *both* key sets, doing both pseudonymizations in a
//! single ECALL (cheaper — no inter-layer hop, one decryption context).
//! The tests here show the price of the saving: one break links every
//! user to every item.

use pprox_core::keys::LayerSecrets;
use pprox_core::message::{ClientEnvelope, Op, ID_PLAINTEXT_LEN, ITEM_BLOCK_LEN};
use pprox_core::PProxError;
use pprox_crypto::base64;
use pprox_crypto::pad;
use pprox_lrs::api::FeedbackEvent;
use pprox_sgx::enclave::{EnclaveApp, SecretBag};

/// The rejected single-enclave design: both layers' secrets in one place.
pub struct CombinedProxyState {
    user_secrets: LayerSecrets,
    item_secrets: LayerSecrets,
    processed: u64,
}

impl std::fmt::Debug for CombinedProxyState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CombinedProxyState")
            .field("processed", &self.processed)
            .finish()
    }
}

/// Code identity of the combined enclave.
pub const COMBINED_CODE_IDENTITY: &str = "pprox-combined-v1";

impl CombinedProxyState {
    /// Creates the combined state from both layers' secrets.
    pub fn new(user_secrets: LayerSecrets, item_secrets: LayerSecrets) -> Self {
        CombinedProxyState {
            user_secrets,
            item_secrets,
            processed: 0,
        }
    }

    /// Processes a post end-to-end in one ECALL: decrypt both fields,
    /// pseudonymize both, emit the LRS event. Functionally equivalent to
    /// UA followed by IA.
    ///
    /// # Errors
    ///
    /// Crypto/format errors as in the two-layer path.
    pub fn process_post(&mut self, envelope: &ClientEnvelope) -> Result<FeedbackEvent, PProxError> {
        debug_assert_eq!(envelope.op, Op::Post);
        self.processed += 1;
        let padded_user = self.user_secrets.sk.decrypt(&envelope.user)?;
        let user_pseudonym = base64::encode(&self.user_secrets.k.det_encrypt(&padded_user));

        let block = self.item_secrets.sk.decrypt(&envelope.aux)?;
        let body = pad::unpad(&block, ITEM_BLOCK_LEN)?;
        let text = std::str::from_utf8(&body).map_err(|_| PProxError::MalformedMessage)?;
        let v = pprox_json::Value::parse(text)?;
        let item = v
            .get("i")
            .and_then(|i| i.as_str())
            .ok_or(PProxError::MalformedMessage)?;
        let padded_item = pad::pad(item.as_bytes(), ID_PLAINTEXT_LEN)?;
        let item_pseudonym = base64::encode(&self.item_secrets.k.det_encrypt(&padded_item));
        Ok(FeedbackEvent {
            user: user_pseudonym,
            item: item_pseudonym,
            payload: v.get("p").and_then(|p| p.as_f64()),
        })
    }

    /// Requests processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }
}

impl EnclaveApp for CombinedProxyState {
    fn leak_secrets(&self) -> SecretBag {
        let mut bag = SecretBag::new();
        // The fatal property: ONE breach leaks BOTH pseudonymization keys.
        self.user_secrets.leak_into(&mut bag, "ua");
        self.item_secrets.leak_into(&mut bag, "ia");
        bag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::attack_with_both_keys;
    use pprox_core::keys::ClientKeys;
    use pprox_core::UserClient;
    use pprox_crypto::rng::SecureRng;
    use pprox_lrs::shard::ShardEngine;
    use pprox_sgx::{Measurement, Platform};

    fn setup() -> (
        Platform,
        std::sync::Arc<pprox_sgx::Enclave<CombinedProxyState>>,
        ClientKeys,
    ) {
        let mut rng = SecureRng::from_seed(0xc0b1);
        let (user_secrets, pk_ua) = LayerSecrets::generate(1152, &mut rng);
        let (item_secrets, pk_ia) = LayerSecrets::generate(1152, &mut rng);
        let platform = Platform::new(&mut rng);
        let enclave = platform.load_enclave::<CombinedProxyState>(COMBINED_CODE_IDENTITY);
        let quote = enclave.quote(vec![]);
        let token = platform
            .attestation()
            .verify(&quote, Measurement::of_code(COMBINED_CODE_IDENTITY))
            .unwrap();
        enclave
            .provision(token, CombinedProxyState::new(user_secrets, item_secrets))
            .unwrap();
        (platform, enclave, ClientKeys { pk_ua, pk_ia })
    }

    #[test]
    fn combined_enclave_is_functionally_equivalent() {
        let (_platform, enclave, keys) = setup();
        let mut client = UserClient::new(keys, 1);
        let env = client.post("alice", "m00001", Some(3.5)).unwrap();
        let event = enclave.call(|s| s.process_post(&env)).unwrap().unwrap();
        assert!(!event.user.contains("alice"));
        assert!(!event.item.contains("m00001"));
        assert_eq!(event.payload, Some(3.5));
        // Deterministic pseudonyms, like the two-layer path.
        let env2 = client.post("alice", "m00001", Some(3.5)).unwrap();
        let event2 = enclave.call(|s| s.process_post(&env2)).unwrap().unwrap();
        assert_eq!(event.user, event2.user);
        assert_eq!(event.item, event2.item);
    }

    #[test]
    fn one_break_links_everything() {
        let (platform, enclave, keys) = setup();
        let mut client = UserClient::new(keys, 2);
        let engine = ShardEngine::new();
        let mut truth = Vec::new();
        for u in 0..10 {
            let user = format!("user-{u}");
            let item = format!("item-{u}");
            let env = client.post(&user, &item, None).unwrap();
            let event = enclave.call(|s| s.process_post(&env)).unwrap().unwrap();
            engine.post(&event.user, &event.item, event.payload);
            truth.push((user, item));
        }
        // ONE side-channel attack on the single enclave…
        let bag = platform.break_enclave(enclave.id()).unwrap();
        // …yields both keys, and the database fully de-anonymizes.
        let outcome = attack_with_both_keys(&bag, &bag, &engine);
        assert_eq!(outcome.linked_pairs.len(), truth.len());
        for pair in &truth {
            assert!(outcome.linked_pairs.contains(pair));
        }
        assert!(!outcome.unlinkability_holds());
    }
}
