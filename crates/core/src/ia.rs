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
//!
//! Like the UA state, it holds no clock and no metric: the wire service
//! times each of its ECALLs from outside the enclave
//! (`pprox_wire::services`).

use crate::ids::PlaintextItemId;
use crate::keys::LayerSecrets;
use crate::message::{
    list_to_plaintext, EncryptedList, LayerEnvelope, Op, ID_PLAINTEXT_LEN, ITEM_BLOCK_LEN,
    PAD_ITEM_PREFIX, RULES_BLOCK_LEN,
};
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
}

impl std::fmt::Debug for IaState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IaState")
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
        }
    }

    pub(crate) fn secrets(&self) -> &LayerSecrets {
        &self.secrets
    }

    /// Pending `(token, k_u)` pairs — what a breach of this enclave leaks.
    pub(crate) fn pending_keys(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.pending
            .iter()
            .filter_map(|(token, k_u)| Some((u64::from_be_bytes(token.try_into().ok()?), k_u)))
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
                SecretBytes::new(self.secrets.sk.decrypt(&envelope.aux)?)
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
    fn garbage_key_blocks_rejected() {
        let (mut ia, mut rng) = setup();
        let pk = ia.secrets.sk.public_key().clone();
        let get = |aux: Vec<u8>| LayerEnvelope {
            op: Op::Get,
            user_pseudonym: vec![3; 32],
            aux,
        };
        let sealed = |rng: &mut SecureRng| {
            let k_u = SymmetricKey::generate(rng);
            pk.encrypt(k_u.as_bytes(), rng).unwrap()
        };
        let repeated = sealed(&mut rng);
        ia.process_get(&get(repeated.clone()), IaOptions::default())
            .unwrap();
        let mut broken = sealed(&mut rng);
        broken[5] ^= 1;
        // Refused at three different steps of the decrypt — range, OAEP,
        // and a short block that is no hybrid block either — and no `k_u`
        // is stored for any of them.
        for aux in [vec![0xff; pk.ciphertext_len()], broken, vec![1, 2, 3]] {
            let refused = ia.process_get(&get(aux), IaOptions::default());
            assert!(matches!(refused, Err(PProxError::Crypto(_))), "{refused:?}");
            assert_eq!(ia.pending_count(), 1);
        }
        // A hybrid rules block after base-protocol ones, and a repeated
        // ciphertext: each stores a `k_u` under a token of its own.
        let rules = Value::object([
            ("k", Value::from(base64::encode(&[7; 32]))),
            ("x", std::iter::once(Value::from("m00009")).collect()),
        ]);
        let padded = pad::pad(rules.to_json().as_bytes(), RULES_BLOCK_LEN).unwrap();
        let hybrid = pprox_crypto::hybrid::seal(&pk, &padded, &mut rng).unwrap();
        let (query, first) = ia.process_get(&get(hybrid), IaOptions::default()).unwrap();
        assert_eq!(query.exclude.len(), 1);
        let (_, second) = ia
            .process_get(&get(repeated), IaOptions::default())
            .unwrap();
        assert_ne!(first, second);
        assert_eq!(ia.pending_count(), 3);
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
    fn a_breach_leaks_each_pending_k_u_under_its_token() {
        use pprox_sgx::EnclaveApp;
        let (mut ia, mut rng) = setup();
        let pk = ia.secrets.sk.public_key().clone();
        let mut held = Vec::new();
        for user in [1u8, 2] {
            let k_u = SymmetricKey::generate(&mut rng);
            let env = LayerEnvelope {
                op: Op::Get,
                user_pseudonym: vec![user; 32],
                aux: pk.encrypt(k_u.as_bytes(), &mut rng).unwrap(),
            };
            let (_, token) = ia.process_get(&env, IaOptions::default()).unwrap();
            held.push((token, k_u));
        }
        let leaked = |ia: &IaState| {
            let bag = ia.leak_secrets();
            bag.names()
                .filter(|name| name.starts_with("ia.k_u."))
                .map(|name| (name.to_owned(), bag.get(name).unwrap().to_vec()))
                .collect::<std::collections::BTreeMap<_, _>>()
        };
        let want = held
            .iter()
            .map(|(token, k_u)| (format!("ia.k_u.{}", token.0), k_u.as_bytes().to_vec()))
            .collect();
        assert_eq!(leaked(&ia), want);
        for (token, _) in held {
            ia.process_get_response(token, &[], IaOptions::default())
                .unwrap();
        }
        assert!(leaked(&ia).is_empty());
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
