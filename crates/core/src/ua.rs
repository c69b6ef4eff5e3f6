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
//! IA layer.

use crate::keys::LayerSecrets;
use crate::message::{ClientEnvelope, LayerEnvelope};
use crate::telemetry::LatencyHistogram;
use crate::PProxError;
use pprox_crypto::secret::SecretBytes;
use std::sync::Arc;
use std::time::Instant;

/// In-enclave state and logic of a UA instance.
pub struct UaState {
    secrets: LayerSecrets,
    processed: u64,
    processing_histogram: Option<Arc<LatencyHistogram>>,
}

impl std::fmt::Debug for UaState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UaState")
            .field("processed", &self.processed)
            .finish()
    }
}

impl UaState {
    /// Creates the state from provisioned layer secrets, warming the
    /// cached cipher state so the first request is served at steady-state
    /// cost.
    pub fn new(secrets: LayerSecrets) -> Self {
        secrets.warm();
        UaState {
            secrets,
            processed: 0,
            processing_histogram: None,
        }
    }

    /// Attaches the latency histogram this instance records its
    /// in-enclave processing time into (the telemetry `ua` stage). Timing
    /// is measured inside the enclave boundary so it reflects decrypt +
    /// pseudonymize cost, not queueing or supervision overhead; a group's
    /// requests record one share of its time each.
    pub fn set_processing_histogram(&mut self, histogram: Arc<LatencyHistogram>) {
        self.processing_histogram = Some(histogram);
    }

    /// One sample per request: the time since `started`, split evenly
    /// over the `requests` it was spent on.
    fn record_processing(&self, started: Instant, requests: usize) {
        if let Some(h) = &self.processing_histogram {
            let share = started.elapsed().as_micros() as u64 / requests.max(1) as u64;
            for _ in 0..requests {
                h.record(share);
            }
        }
    }

    pub(crate) fn secrets(&self) -> &LayerSecrets {
        &self.secrets
    }

    /// Requests processed by this instance.
    pub fn processed(&self) -> u64 {
        self.processed
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
        self.processed += 1;
        let started = Instant::now();
        let result = self.process_inner(envelope, encryption, None);
        self.record_processing(started, 1);
        result
    }

    /// [`process`](Self::process) for each request of a group, in order,
    /// as one transform: the `enc(u, pkUA)` blocks of the whole group are
    /// opened together
    /// ([`RsaPrivateKey::decrypt_group`](pprox_crypto::rsa::RsaPrivateKey::decrypt_group)
    /// — on the vector path, four to a pass), then each request runs the
    /// per-request code with its block already open. Every result, errors
    /// included, is what `process` on the same requests one by one would
    /// have returned. Each request counts one processed request and one
    /// processing sample, its share of the group's time.
    pub fn process_group(
        &mut self,
        envelopes: &[&ClientEnvelope],
        encryption: bool,
    ) -> Vec<Result<LayerEnvelope, PProxError>> {
        let started = Instant::now();
        let blocks: Vec<&[u8]> = if encryption {
            envelopes.iter().map(|e| e.user.as_slice()).collect()
        } else {
            Vec::new()
        };
        let mut opened = self.secrets.sk.decrypt_group(&blocks).into_iter();
        let results = envelopes
            .iter()
            .map(|&envelope| {
                self.processed += 1;
                self.process_inner(envelope, encryption, opened.next())
            })
            .collect();
        self.record_processing(started, envelopes.len());
        results
    }

    /// `opened` is the user block already decrypted (by a group), or
    /// `None` to decrypt it here.
    fn process_inner(
        &mut self,
        envelope: &ClientEnvelope,
        encryption: bool,
        opened: Option<Result<Vec<u8>, pprox_crypto::CryptoError>>,
    ) -> Result<LayerEnvelope, PProxError> {
        let user_pseudonym = if encryption {
            // The client encrypted the *padded* id, so the decrypted block
            // is already fixed-size; deterministic CTR keeps it fixed-size.
            // Pseudonymizing in place against the cached keystream prefix
            // avoids a second allocation per request. The plaintext only
            // ever lives inside a SecretBytes; once `det_apply` has run,
            // the buffer holds the pseudonym, which is safe to release.
            let user = opened.unwrap_or_else(|| self.secrets.sk.decrypt(&envelope.user));
            let mut padded_user = SecretBytes::new(user?);
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
        let (mut ua, _) = setup();
        let env = ClientEnvelope {
            op: Op::Post,
            user: vec![0u8; 13],
            aux: vec![],
        };
        assert!(matches!(ua.process(&env, true), Err(PProxError::Crypto(_))));
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

    #[test]
    fn processing_histogram_records_each_request() {
        let (mut ua, _) = setup();
        let hist = std::sync::Arc::new(crate::telemetry::LatencyHistogram::new());
        ua.set_processing_histogram(hist.clone());
        let env = ClientEnvelope {
            op: Op::Post,
            user: b"x".to_vec(),
            aux: vec![],
        };
        ua.process(&env, false).unwrap();
        // Failures are timed too: the enclave did work either way.
        let bad = ClientEnvelope {
            op: Op::Post,
            user: vec![0u8; 13],
            aux: vec![],
        };
        assert!(ua.process(&bad, true).is_err());
        assert_eq!(hist.count(), 2);
    }

    #[test]
    fn a_group_equals_the_same_requests_one_by_one() {
        let mut rng = SecureRng::from_seed(13);
        let (secrets, pk) = LayerSecrets::generate(1152, &mut rng);
        let (mut grouped, mut single) = (UaState::new(secrets.clone()), UaState::new(secrets));
        let request = |user: Vec<u8>| ClientEnvelope {
            op: Op::Get,
            user,
            aux: vec![4; 16],
        };
        let sealed = |id: &str, rng: &mut SecureRng| pk.encrypt(&padded(id), rng).unwrap();
        let mut broken = sealed("dave", &mut rng);
        broken[5] ^= 1;
        let repeated = sealed("alice", &mut rng);
        // Valid blocks around a short one, one at or above the modulus and
        // a broken one — refused at three different steps of the decrypt:
        // length, range, OAEP — and a repeated ciphertext.
        let envelopes = vec![
            request(repeated.clone()),
            request(sealed("bob", &mut rng)),
            request(vec![1, 2, 3]),
            request(sealed("carol", &mut rng)),
            request(vec![0xff; pk.ciphertext_len()]),
            request(broken),
            request(sealed("bob", &mut rng)),
            request(repeated),
            request(sealed("erin", &mut rng)),
        ];
        let refs: Vec<&ClientEnvelope> = envelopes.iter().collect();
        let samples = Arc::new(LatencyHistogram::new());
        grouped.set_processing_histogram(samples.clone());
        let got = grouped.process_group(&refs, true);
        let want: Vec<_> = envelopes.iter().map(|e| single.process(e, true)).collect();
        assert_eq!(got, want);
        assert_eq!(got.iter().filter(|r| r.is_ok()).count(), 6);
        assert_eq!(got[1].as_ref().ok(), got[6].as_ref().ok(), "same user");
        assert_eq!(grouped.processed(), 9);
        assert_eq!(samples.count(), 9);

        // Passthrough: users go through unchanged, nothing is decrypted.
        let got = grouped.process_group(&refs, false);
        let want: Vec<_> = envelopes.iter().map(|e| single.process(e, false)).collect();
        assert_eq!(got, want);
        assert!(got
            .iter()
            .zip(&envelopes)
            .all(|(r, e)| r.as_ref().is_ok_and(|l| l.user_pseudonym == e.user)));

        // An empty group is no work and no sample.
        assert!(grouped.process_group(&[], true).is_empty());
        assert_eq!(grouped.processed(), 18);
        assert_eq!(samples.count(), 18);
    }

    #[test]
    fn processed_counter() {
        let (mut ua, _) = setup();
        assert_eq!(ua.processed(), 0);
        let env = ClientEnvelope {
            op: Op::Post,
            user: b"x".to_vec(),
            aux: vec![],
        };
        ua.process(&env, false).unwrap();
        assert_eq!(ua.processed(), 1);
    }
}
