//! Item Anonymizer (IA) layer — the second proxy layer.
//!
//! §3: "The second layer, the Item Anonymizer (IA), is the one that
//! directly interacts with the LRS. It is the only layer able to access
//! items identifiers in the clear, but it is not able to access user
//! identifiers or IP addresses."
//!
//! [`IaState`] runs inside an IA enclave with `skIA` and `kIA`. For posts
//! it decrypts the item block and pseudonymizes the item id; for gets it
//! decrypts and stashes the temporary response key `k_u` in the
//! EPC-bounded store (§5: "An in-memory key-value store in the EPC holds
//! the information necessary for handling requests responses on their way
//! back from the LRS"), then, on the way back, de-pseudonymizes the
//! returned items, pads the list to the maximum size, and encrypts it
//! under `k_u` so the UA layer cannot read it.

use crate::ids::PlaintextItemId;
use crate::keys::LayerSecrets;
use crate::message::{
    list_to_plaintext, EncryptedList, LayerEnvelope, Op, ID_PLAINTEXT_LEN, ITEM_BLOCK_LEN,
    PAD_ITEM_PREFIX, RULES_BLOCK_LEN,
};
use crate::telemetry::LatencyHistogram;
use crate::PProxError;
use pprox_crypto::base64;
use pprox_crypto::ctr::SymmetricKey;
use pprox_crypto::pad;
use pprox_crypto::rng::SecureRng;
use pprox_crypto::secret::SecretBytes;
use pprox_json::Value;
use pprox_lrs::api::{FeedbackEvent, RecommendationQuery};
use pprox_lrs::MAX_RECOMMENDATIONS;
use pprox_sgx::EpcStore;
use std::sync::Arc;
use std::time::Instant;

/// Handle to a pending `get`: keys the stored `k_u` for the response leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PendingToken(pub u64);

/// Feature switches affecting IA processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IaOptions {
    /// Whether requests are encrypted at all (m1 disables this).
    pub encryption: bool,
    /// Whether item identifiers are pseudonymized toward the LRS
    /// (disabling this is the §6.3 / m4 trade-off).
    pub item_pseudonymization: bool,
}

impl Default for IaOptions {
    fn default() -> Self {
        IaOptions {
            encryption: true,
            item_pseudonymization: true,
        }
    }
}

/// Default EPC budget for pending response keys (bytes).
pub const DEFAULT_EPC_BUDGET: usize = 4 << 20;

/// In-enclave state and logic of an IA instance.
pub struct IaState {
    secrets: LayerSecrets,
    pending: EpcStore,
    next_token: u64,
    rng: SecureRng,
    processed: u64,
    processing_histogram: Option<Arc<LatencyHistogram>>,
}

impl std::fmt::Debug for IaState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IaState")
            .field("processed", &self.processed)
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl IaState {
    /// Creates the state from provisioned layer secrets.
    pub fn new(secrets: LayerSecrets) -> Self {
        Self::with_epc_budget(secrets, DEFAULT_EPC_BUDGET)
    }

    /// Creates the state with an explicit EPC budget for pending keys.
    ///
    /// Warms the cached cipher state of `kIA` so the first item
    /// pseudonymization is served at steady-state cost.
    pub fn with_epc_budget(secrets: LayerSecrets, epc_bytes: usize) -> Self {
        secrets.warm();
        let rng = SecureRng::from_entropy();
        IaState {
            secrets,
            pending: EpcStore::with_capacity(epc_bytes),
            next_token: 1,
            rng,
            processed: 0,
            processing_histogram: None,
        }
    }

    /// Attaches the latency histogram this instance records its
    /// in-enclave processing time into (the telemetry `ia` stage). Each
    /// transform of a request — post, get, get-response — is one
    /// observation, so the stage count exceeds the request count for gets
    /// by design; a group's gets record one share of its time each.
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

    /// Pending `(token, k_u)` pairs — what a breach of this enclave leaks.
    pub(crate) fn pending_keys(&self) -> Vec<(u64, Vec<u8>)> {
        // EpcStore has no iteration by design (it models an opaque cache);
        // leak the count via a marker instead of raw keys. Tokens are not
        // enumerable here, so report the budget usage.
        vec![(0, self.pending.used_bytes().to_be_bytes().to_vec())]
    }

    /// Requests processed (both directions).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of gets awaiting their LRS response.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Pseudonymizes an item id: `base64(det_enc(pad(item), kIA))`.
    ///
    /// Takes the typed plaintext id: the caller must have validated the
    /// length budget at the trust boundary, and the type name is what the
    /// analyzer's layer-separation rules key on.
    fn pseudonymize_item(&self, item: &PlaintextItemId) -> Result<String, PProxError> {
        // Padding already allocated the fixed-size frame; encrypt it in
        // place against the cached keystream prefix.
        let mut padded = pad::pad(item.expose_bytes(), ID_PLAINTEXT_LEN)?;
        self.secrets.k.det_apply(&mut padded);
        Ok(base64::encode(&padded))
    }

    /// Inverts [`pseudonymize_item`](Self::pseudonymize_item).
    ///
    /// Ids that do not parse as pseudonyms (wrong length, not base64, or
    /// bad padding after decryption) pass through unchanged: the LRS may
    /// legitimately return non-pseudonymized ids — a stub server, or a
    /// catalog populated while item pseudonymization was disabled (§6.3).
    fn depseudonymize_item(&self, pseudonym: &str) -> Result<String, PProxError> {
        let Ok(ct) = base64::decode(pseudonym) else {
            return Ok(pseudonym.to_owned());
        };
        if ct.len() != ID_PLAINTEXT_LEN {
            return Ok(pseudonym.to_owned());
        }
        let mut padded = ct;
        self.secrets.k.det_apply(&mut padded);
        let Ok(raw) = pad::unpad(&padded, ID_PLAINTEXT_LEN) else {
            return Ok(pseudonym.to_owned());
        };
        String::from_utf8(raw).map_err(|_| PProxError::MalformedMessage)
    }

    /// Processes a post on its way to the LRS: decrypts the item block
    /// with `skIA` and emits the fully pseudonymized feedback event of
    /// Figure 3 — `post(det_enc(u,kUA), det_enc(i,kIA))`.
    ///
    /// # Errors
    ///
    /// Crypto errors when the aux block does not decrypt; malformed-message
    /// errors when its JSON is invalid.
    pub fn process_post(
        &mut self,
        envelope: &LayerEnvelope,
        options: IaOptions,
    ) -> Result<FeedbackEvent, PProxError> {
        debug_assert_eq!(envelope.op, Op::Post);
        self.processed += 1;
        let started = Instant::now();
        let result = self.process_post_inner(envelope, options);
        self.record_processing(started, 1);
        result
    }

    fn process_post_inner(
        &mut self,
        envelope: &LayerEnvelope,
        options: IaOptions,
    ) -> Result<FeedbackEvent, PProxError> {
        let (item, payload) = if options.encryption {
            let block = self.secrets.sk.decrypt(&envelope.aux)?;
            let body = pad::unpad(&block, ITEM_BLOCK_LEN)?;
            let text = std::str::from_utf8(&body).map_err(|_| PProxError::MalformedMessage)?;
            let v = Value::parse(text)?;
            let item = v
                .get("i")
                .and_then(|i| i.as_str())
                .ok_or(PProxError::MalformedMessage)?
                .to_owned();
            (item, v.get("p").and_then(|p| p.as_f64()))
        } else {
            let text =
                std::str::from_utf8(&envelope.aux).map_err(|_| PProxError::MalformedMessage)?;
            let v = Value::parse(text)?;
            let item = v
                .get("i")
                .and_then(|i| i.as_str())
                .ok_or(PProxError::MalformedMessage)?
                .to_owned();
            (item, v.get("p").and_then(|p| p.as_f64()))
        };
        let item_for_lrs = if options.encryption && options.item_pseudonymization {
            // Length was checked client-side, but this enclave must not
            // trust the client: re-validate at its own boundary. Oversize
            // ids surface as `IdTooLong` rather than a padding error.
            self.pseudonymize_item(&PlaintextItemId::new(&item)?)?
        } else {
            item
        };
        Ok(FeedbackEvent {
            user: user_id_for_lrs(&envelope.user_pseudonym, options.encryption),
            item: item_for_lrs,
            payload,
        })
    }

    /// Processes a get on its way to the LRS: decrypts and stores `k_u`,
    /// and emits `get(det_enc(u,kUA))` (Figure 4).
    ///
    /// Two aux formats are accepted, distinguished by length: the base
    /// protocol's plain RSA encryption of `k_u` (one modulus-sized
    /// ciphertext), and the extended hybrid block carrying `k_u` plus
    /// business rules (longer). Rule item ids arrive in the clear *inside
    /// the IA-encrypted block* — exactly the visibility the IA already
    /// has — and are pseudonymized here before reaching the LRS.
    ///
    /// # Errors
    ///
    /// Crypto errors on a bad aux block; EPC exhaustion when too many
    /// gets are in flight.
    pub fn process_get(
        &mut self,
        envelope: &LayerEnvelope,
        options: IaOptions,
    ) -> Result<(RecommendationQuery, PendingToken), PProxError> {
        debug_assert_eq!(envelope.op, Op::Get);
        self.processed += 1;
        let started = Instant::now();
        let result = self.process_get_inner(envelope, options, None);
        self.record_processing(started, 1);
        result
    }

    /// [`process_get`](Self::process_get) for each get of a group, in
    /// order, as one transform: the base protocol's `k_u` blocks of the
    /// whole group are opened in one call
    /// ([`RsaPrivateKey::decrypt_group`](pprox_crypto::rsa::RsaPrivateKey::decrypt_group)),
    /// then each get runs the per-request code with its block already
    /// open. Every result, the tokens included, is what `process_get` on
    /// the same gets one by one would have returned. Each get counts one
    /// processed request and one processing sample, its share of the
    /// group's time.
    pub fn process_get_group(
        &mut self,
        envelopes: &[&LayerEnvelope],
        options: IaOptions,
    ) -> Vec<Result<(RecommendationQuery, PendingToken), PProxError>> {
        let started = Instant::now();
        let modulus_len = self.secrets.sk.public_key().ciphertext_len();
        let sealed_key = |e: &LayerEnvelope| options.encryption && e.aux.len() == modulus_len;
        let blocks: Vec<&[u8]> = envelopes
            .iter()
            .filter(|e| sealed_key(e))
            .map(|e| e.aux.as_slice())
            .collect();
        let mut opened = self.secrets.sk.decrypt_group(&blocks).into_iter();
        let results = envelopes
            .iter()
            .map(|&envelope| {
                debug_assert_eq!(envelope.op, Op::Get);
                self.processed += 1;
                let key = sealed_key(envelope).then(|| opened.next()).flatten();
                self.process_get_inner(envelope, options, key)
            })
            .collect();
        self.record_processing(started, envelopes.len());
        results
    }

    /// `opened` is the base-protocol `k_u` block already decrypted (by a
    /// group), or `None` to decrypt it here.
    fn process_get_inner(
        &mut self,
        envelope: &LayerEnvelope,
        options: IaOptions,
        opened: Option<Result<Vec<u8>, pprox_crypto::CryptoError>>,
    ) -> Result<(RecommendationQuery, PendingToken), PProxError> {
        let token = PendingToken(self.next_token);
        self.next_token += 1;
        let mut exclude: Vec<String> = Vec::new();
        if options.encryption {
            let modulus_len = self.secrets.sk.public_key().ciphertext_len();
            // `k_u` is secret material: it travels through SecretBytes so
            // an error path can never print it and the buffer is zeroed if
            // anything below bails out before the store takes ownership.
            let key_bytes = if envelope.aux.len() == modulus_len {
                // Base protocol: aux = enc(k_u, pkIA).
                let key = opened.unwrap_or_else(|| self.secrets.sk.decrypt(&envelope.aux));
                SecretBytes::new(key?)
            } else {
                // Extended protocol: hybrid block {k, x: [excluded ids]}.
                let padded = pprox_crypto::hybrid::open(&self.secrets.sk, &envelope.aux)?;
                let body = pad::unpad(&padded, RULES_BLOCK_LEN)?;
                let text = std::str::from_utf8(&body).map_err(|_| PProxError::MalformedMessage)?;
                let v = Value::parse(text)?;
                let key_b64 = v
                    .get("k")
                    .and_then(|k| k.as_str())
                    .ok_or(PProxError::MalformedMessage)?;
                if let Some(arr) = v.get("x").and_then(|x| x.as_array()) {
                    for entry in arr {
                        let id = entry.as_str().ok_or(PProxError::MalformedMessage)?;
                        exclude.push(if options.item_pseudonymization {
                            self.pseudonymize_item(&PlaintextItemId::new(id)?)?
                        } else {
                            id.to_owned()
                        });
                    }
                }
                SecretBytes::new(base64::decode(key_b64)?)
            };
            if key_bytes.len() != 32 {
                return Err(PProxError::MalformedMessage);
            }
            self.pending
                .insert(token.0.to_be_bytes().to_vec(), key_bytes.into_exposed())
                .map_err(PProxError::Epc)?;
        } else if !envelope.aux.is_empty() {
            // Passthrough mode may still carry clear-text rules.
            if let Ok(text) = std::str::from_utf8(&envelope.aux) {
                if let Ok(v) = Value::parse(text) {
                    if let Some(arr) = v.get("x").and_then(|x| x.as_array()) {
                        for entry in arr {
                            if let Some(id) = entry.as_str() {
                                exclude.push(id.to_owned());
                            }
                        }
                    }
                }
            }
        }
        Ok((
            RecommendationQuery {
                user: user_id_for_lrs(&envelope.user_pseudonym, options.encryption),
                num: MAX_RECOMMENDATIONS,
                exclude,
            },
            token,
        ))
    }

    /// Processes the LRS response to a get: de-pseudonymizes the returned
    /// item ids, pads the list to [`MAX_RECOMMENDATIONS`] entries, and
    /// encrypts it under the stored `k_u` (Figure 4's
    /// `enc({i_1..i_n}, k_u)`).
    ///
    /// In passthrough mode the list is framed but not encrypted.
    ///
    /// # Errors
    ///
    /// [`PProxError::UnknownToken`] when no `k_u` is pending under `token`
    /// (response replay or mis-routing); crypto errors on corrupt ids.
    pub fn process_get_response(
        &mut self,
        token: PendingToken,
        item_ids: &[String],
        options: IaOptions,
    ) -> Result<EncryptedList, PProxError> {
        self.processed += 1;
        let started = Instant::now();
        let result = self.process_get_response_inner(token, item_ids, options);
        self.record_processing(started, 1);
        result
    }

    fn process_get_response_inner(
        &mut self,
        token: PendingToken,
        item_ids: &[String],
        options: IaOptions,
    ) -> Result<EncryptedList, PProxError> {
        let mut items: Vec<String> = if options.encryption && options.item_pseudonymization {
            item_ids
                .iter()
                .map(|p| self.depseudonymize_item(p))
                .collect::<Result<_, _>>()?
        } else {
            item_ids.to_vec()
        };
        items.truncate(MAX_RECOMMENDATIONS);
        // §4.3: pad to the maximal size with pseudo-items that the
        // user-side library discards.
        let mut pad_idx = 0;
        while items.len() < MAX_RECOMMENDATIONS {
            items.push(format!("{PAD_ITEM_PREFIX}{pad_idx}"));
            pad_idx += 1;
        }
        let plaintext = list_to_plaintext(&items)?;
        if !options.encryption {
            return Ok(EncryptedList(plaintext));
        }
        let key_bytes = SecretBytes::new(
            self.pending
                .remove(&token.0.to_be_bytes())
                .ok_or(PProxError::UnknownToken)?,
        );
        let mut key = [0u8; 32];
        key.copy_from_slice(key_bytes.expose());
        let k_u = SymmetricKey::from_bytes(key);
        Ok(EncryptedList(k_u.encrypt(&plaintext, &mut self.rng)))
    }
}

/// LRS-facing user id: base64 of the pseudonym bytes (encrypted mode) or
/// the raw utf-8 id (passthrough).
fn user_id_for_lrs(pseudonym: &[u8], encryption: bool) -> String {
    if encryption {
        base64::encode(pseudonym)
    } else {
        String::from_utf8_lossy(pseudonym).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::LayerSecrets;

    fn item_id(id: &str) -> PlaintextItemId {
        PlaintextItemId::new(id).unwrap()
    }

    fn setup() -> (IaState, SecureRng) {
        let mut rng = SecureRng::from_seed(21);
        let (secrets, _pk) = LayerSecrets::generate(1152, &mut rng);
        (IaState::new(secrets), rng)
    }

    fn item_block(ia: &IaState, item: &str, payload: Option<f64>, rng: &mut SecureRng) -> Vec<u8> {
        let mut v = Value::object([("i", Value::from(item))]);
        if let Some(p) = payload {
            v.insert("p", Value::from(p));
        }
        let padded = pad::pad(v.to_json().as_bytes(), ITEM_BLOCK_LEN).unwrap();
        ia.secrets.sk.public_key().encrypt(&padded, rng).unwrap()
    }

    #[test]
    fn post_pseudonymizes_item_deterministically() {
        let (mut ia, mut rng) = setup();
        let run = |rng: &mut SecureRng, ia: &mut IaState| {
            let env = LayerEnvelope {
                op: Op::Post,
                user_pseudonym: vec![7; 32],
                aux: item_block(ia, "m00042", Some(4.5), rng),
            };
            ia.process_post(&env, IaOptions::default()).unwrap()
        };
        let a = run(&mut rng, &mut ia);
        let b = run(&mut rng, &mut ia);
        assert_eq!(a.item, b.item, "stable pseudonym");
        assert_ne!(a.item, "m00042", "item must not appear in the clear");
        assert_eq!(a.payload, Some(4.5));
        assert_eq!(a.user, base64::encode(&[7; 32]));
    }

    #[test]
    fn post_without_pseudonymization_keeps_item_clear() {
        let (mut ia, mut rng) = setup();
        let env = LayerEnvelope {
            op: Op::Post,
            user_pseudonym: vec![7; 32],
            aux: item_block(&ia, "m00042", None, &mut rng),
        };
        let opts = IaOptions {
            encryption: true,
            item_pseudonymization: false,
        };
        let event = ia.process_post(&env, opts).unwrap();
        assert_eq!(event.item, "m00042");
    }

    #[test]
    fn get_stores_pending_key_and_response_decrypts() {
        let (mut ia, mut rng) = setup();
        let k_u = SymmetricKey::generate(&mut rng);
        let enc_key = ia
            .secrets
            .sk
            .public_key()
            .encrypt(k_u.as_bytes(), &mut rng)
            .unwrap();
        let env = LayerEnvelope {
            op: Op::Get,
            user_pseudonym: vec![9; 32],
            aux: enc_key,
        };
        let (query, token) = ia.process_get(&env, IaOptions::default()).unwrap();
        assert_eq!(query.num, MAX_RECOMMENDATIONS);
        assert_eq!(ia.pending_count(), 1);

        // LRS returns pseudonymized ids.
        let pseudo_items: Vec<String> = ["a", "b"]
            .iter()
            .map(|i| ia.pseudonymize_item(&item_id(i)).unwrap())
            .collect();
        let encrypted = ia
            .process_get_response(token, &pseudo_items, IaOptions::default())
            .unwrap();
        assert_eq!(ia.pending_count(), 0, "k_u must be consumed");

        // The client decrypts with k_u; padding fills to 20 entries.
        let plaintext = k_u.decrypt(&encrypted.0).unwrap();
        let items = crate::message::list_from_plaintext(&plaintext).unwrap();
        assert_eq!(items.len(), MAX_RECOMMENDATIONS);
        assert_eq!(&items[0], "a");
        assert_eq!(&items[1], "b");
        assert!(items[2].starts_with(PAD_ITEM_PREFIX));
    }

    #[test]
    fn extended_get_carries_pseudonymized_exclusions() {
        let (mut ia, mut rng) = setup();
        // Build the hybrid aux exactly as the client does.
        let k_u = SymmetricKey::generate(&mut rng);
        let block = Value::object([
            ("k", Value::from(base64::encode(k_u.as_bytes()))),
            (
                "x",
                ["m00001", "m00002"]
                    .iter()
                    .map(|e| Value::from(*e))
                    .collect::<Value>(),
            ),
        ]);
        let padded = pad::pad(block.to_json().as_bytes(), RULES_BLOCK_LEN).unwrap();
        let aux =
            pprox_crypto::hybrid::seal(ia.secrets.sk.public_key(), &padded, &mut rng).unwrap();
        let env = LayerEnvelope {
            op: Op::Get,
            user_pseudonym: vec![5; 32],
            aux,
        };
        let (query, _token) = ia.process_get(&env, IaOptions::default()).unwrap();
        assert_eq!(query.exclude.len(), 2);
        // Exclusions were pseudonymized to match the LRS catalog.
        assert_eq!(
            query.exclude[0],
            ia.pseudonymize_item(&item_id("m00001")).unwrap()
        );
        assert_ne!(query.exclude[0], "m00001");
        assert_eq!(ia.pending_count(), 1, "k_u stored for the response leg");
    }

    #[test]
    fn a_group_of_gets_equals_the_same_gets_one_by_one() {
        let mut rng = SecureRng::from_seed(23);
        let (secrets, pk) = LayerSecrets::generate(1152, &mut rng);
        let (mut grouped, mut single) = (IaState::new(secrets.clone()), IaState::new(secrets));
        let get = |aux: Vec<u8>| LayerEnvelope {
            op: Op::Get,
            user_pseudonym: vec![3; 32],
            aux,
        };
        let sealed = |rng: &mut SecureRng| {
            let k_u = SymmetricKey::generate(rng);
            pk.encrypt(k_u.as_bytes(), rng).unwrap()
        };
        let rules = Value::object([
            ("k", Value::from(base64::encode(&[7; 32]))),
            (
                "x",
                ["m00009"]
                    .iter()
                    .map(|e| Value::from(*e))
                    .collect::<Value>(),
            ),
        ]);
        let padded = pad::pad(rules.to_json().as_bytes(), RULES_BLOCK_LEN).unwrap();
        let hybrid = pprox_crypto::hybrid::seal(&pk, &padded, &mut rng).unwrap();
        let mut broken = sealed(&mut rng);
        broken[5] ^= 1;
        // Base-protocol blocks around a hybrid one, a broken one, a short
        // one and a repeat: five to open together, four of them valid.
        let first = sealed(&mut rng);
        let envelopes: Vec<LayerEnvelope> = vec![
            get(first.clone()),
            get(sealed(&mut rng)),
            get(hybrid),
            get(broken),
            get(sealed(&mut rng)),
            get(vec![1, 2, 3]),
            get(first),
            get(sealed(&mut rng)),
        ];
        let refs: Vec<&LayerEnvelope> = envelopes.iter().collect();
        let samples = Arc::new(LatencyHistogram::new());
        grouped.set_processing_histogram(samples.clone());
        let got = grouped.process_get_group(&refs, IaOptions::default());
        // One processing sample per get, as one by one.
        assert_eq!(samples.count(), 8);
        let want: Vec<_> = envelopes
            .iter()
            .map(|e| single.process_get(e, IaOptions::default()))
            .collect();
        assert_eq!(got, want);
        assert_eq!(got.iter().filter(|r| r.is_ok()).count(), 6);
        assert_eq!(grouped.pending_count(), single.pending_count());
        assert_eq!(grouped.processed(), 8);
    }

    #[test]
    fn response_with_unknown_token_rejected() {
        let (mut ia, _) = setup();
        let err = ia
            .process_get_response(PendingToken(999), &[], IaOptions::default())
            .unwrap_err();
        assert!(matches!(err, PProxError::UnknownToken));
    }

    #[test]
    fn response_token_single_use() {
        let (mut ia, mut rng) = setup();
        let k_u = SymmetricKey::generate(&mut rng);
        let env = LayerEnvelope {
            op: Op::Get,
            user_pseudonym: vec![1; 32],
            aux: ia
                .secrets
                .sk
                .public_key()
                .encrypt(k_u.as_bytes(), &mut rng)
                .unwrap(),
        };
        let (_, token) = ia.process_get(&env, IaOptions::default()).unwrap();
        ia.process_get_response(token, &[], IaOptions::default())
            .unwrap();
        assert!(matches!(
            ia.process_get_response(token, &[], IaOptions::default()),
            Err(PProxError::UnknownToken)
        ));
    }

    #[test]
    fn epc_exhaustion_surfaces() {
        let mut rng = SecureRng::from_seed(22);
        let (secrets, _) = LayerSecrets::generate(1152, &mut rng);
        // Budget for ~1 pending key only.
        let mut ia = IaState::with_epc_budget(secrets, 100);
        let make_env = |ia: &IaState, rng: &mut SecureRng| {
            let k_u = SymmetricKey::generate(rng);
            LayerEnvelope {
                op: Op::Get,
                user_pseudonym: vec![1; 32],
                aux: ia
                    .secrets
                    .sk
                    .public_key()
                    .encrypt(k_u.as_bytes(), rng)
                    .unwrap(),
            }
        };
        let env = make_env(&ia, &mut rng);
        ia.process_get(&env, IaOptions::default()).unwrap();
        let env2 = make_env(&ia, &mut rng);
        assert!(matches!(
            ia.process_get(&env2, IaOptions::default()),
            Err(PProxError::Epc(_))
        ));
    }

    #[test]
    fn passthrough_mode_no_crypto() {
        let (mut ia, _) = setup();
        let opts = IaOptions {
            encryption: false,
            item_pseudonymization: false,
        };
        let env = LayerEnvelope {
            op: Op::Post,
            user_pseudonym: b"alice".to_vec(),
            aux: br#"{"i":"m00001"}"#.to_vec(),
        };
        let event = ia.process_post(&env, opts).unwrap();
        assert_eq!(event.user, "alice");
        assert_eq!(event.item, "m00001");

        let genv = LayerEnvelope {
            op: Op::Get,
            user_pseudonym: b"alice".to_vec(),
            aux: vec![],
        };
        let (query, token) = ia.process_get(&genv, opts).unwrap();
        assert_eq!(query.user, "alice");
        let list = ia
            .process_get_response(token, &["x".to_owned()], opts)
            .unwrap();
        let items = crate::message::list_from_plaintext(&list.0).unwrap();
        assert_eq!(&items[0], "x");
    }

    #[test]
    fn item_pseudonym_roundtrip() {
        let (ia, _) = setup();
        let p = ia.pseudonymize_item(&item_id("m12345")).unwrap();
        assert_ne!(p, "m12345");
        assert_eq!(ia.depseudonymize_item(&p).unwrap(), "m12345");
    }

    #[test]
    fn oversized_list_truncated() {
        let (mut ia, _) = setup();
        let opts = IaOptions {
            encryption: false,
            item_pseudonymization: false,
        };
        let genv = LayerEnvelope {
            op: Op::Get,
            user_pseudonym: b"u".to_vec(),
            aux: vec![],
        };
        let (_, token) = ia.process_get(&genv, opts).unwrap();
        let many: Vec<String> = (0..50).map(|i| format!("i{i}")).collect();
        let list = ia.process_get_response(token, &many, opts).unwrap();
        let items = crate::message::list_from_plaintext(&list.0).unwrap();
        assert_eq!(items.len(), MAX_RECOMMENDATIONS);
    }
}
