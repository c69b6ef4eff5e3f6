//! The user-side library.
//!
//! §2.1/§3: "A thin user-side library is easily embeddable in the
//! application or web front-end … and offers the exact same REST API as
//! the LRS. This library intercepts, encrypts and forwards clients' API
//! calls to the proxy service." The original is JavaScript; this is its
//! Rust counterpart with identical responsibilities:
//!
//! * encrypt the user id under `pkUA` and the item block (or a fresh
//!   temporary key `k_u`) under `pkIA`;
//! * on `get` responses, decrypt the returned list with `k_u` and discard
//!   the padding pseudo-items.
//!
//! The library holds only *public* keys — no user-side secrets to
//! provision, which is the deployment property §3 demands.

use crate::ids::{PlaintextItemId, PlaintextUserId};
use crate::keys::ClientKeys;
use crate::message::{
    ClientEnvelope, EncryptedList, Op, ID_PLAINTEXT_LEN, ITEM_BLOCK_LEN, PAD_ITEM_PREFIX,
    RULES_BLOCK_LEN,
};
use crate::PProxError;
use pprox_crypto::ctr::{SymmetricKey, KEY_LEN};
use pprox_crypto::pad;
use pprox_crypto::rng::SecureRng;
use pprox_crypto::secret::SecretBytes;
use pprox_json::Value;

/// Per-`get` state: the temporary key `k_u` needed to open the response.
///
/// Holds the 32 key bytes and nothing else. A caller keeps one ticket per
/// outstanding `get` and the key is used exactly once, so the expanded
/// AES schedule is built in [`UserClient::open_response`], not here.
pub struct GetTicket {
    k_u: [u8; KEY_LEN],
}

impl GetTicket {
    /// A ticket around a fresh `k_u` drawn from the client's RNG.
    fn fresh(rng: &mut SecureRng) -> Self {
        let mut k_u = [0u8; KEY_LEN];
        rng.fill(&mut k_u);
        GetTicket { k_u }
    }
}

impl std::fmt::Debug for GetTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("GetTicket(k_u redacted)")
    }
}

impl Drop for GetTicket {
    fn drop(&mut self) {
        // Best-effort zeroize, as `SecretBytes` does it: overwrite, then
        // make the stores observable so they are not elided.
        self.k_u = [0; KEY_LEN];
        std::hint::black_box(&self.k_u);
    }
}

/// The user-side library instance embedded in an application front-end.
pub struct UserClient {
    keys: ClientKeys,
    rng: SecureRng,
    encryption: bool,
}

impl std::fmt::Debug for UserClient {
    // Manual so a derive can never grow to print the RNG state (which
    // seeds every future k_u) alongside the public keys.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserClient")
            .field("encryption", &self.encryption)
            .finish_non_exhaustive()
    }
}

impl UserClient {
    /// Creates a client with the globally known layer public keys.
    pub fn new(keys: ClientKeys, seed: u64) -> Self {
        UserClient {
            keys,
            rng: SecureRng::from_seed(seed),
            encryption: true,
        }
    }

    /// Creates a client that sends plaintext (micro-benchmark m1: all
    /// security features disabled).
    pub fn new_passthrough(keys: ClientKeys, seed: u64) -> Self {
        UserClient {
            keys,
            rng: SecureRng::from_seed(seed),
            encryption: false,
        }
    }

    /// Whether this client encrypts requests.
    pub fn encryption(&self) -> bool {
        self.encryption
    }

    /// Intercepts `post(u, i[, p])`: yields the encrypted envelope for the
    /// UA layer (Figure 3's `post(enc(u,pkUA), enc(i,pkIA))`).
    ///
    /// # Errors
    ///
    /// [`PProxError::IdTooLong`] when an identifier exceeds
    /// [`crate::message::MAX_ID_LEN`]; crypto errors are internal bugs
    /// surfaced as [`PProxError::Crypto`].
    pub fn post(
        &mut self,
        user: &str,
        item: &str,
        payload: Option<f64>,
    ) -> Result<ClientEnvelope, PProxError> {
        // Trust boundary: raw strings from the application become typed,
        // length-checked plaintext ids here and nowhere downstream.
        let user = PlaintextUserId::new(user)?;
        let item = PlaintextItemId::new(item)?;
        let mut block = Value::object([("i", Value::from(item.expose()))]);
        if let Some(p) = payload {
            block.insert("p", Value::from(p));
        }
        if !self.encryption {
            return Ok(ClientEnvelope {
                op: Op::Post,
                user: user.expose_bytes().to_vec(),
                // analysis-allow: R10 explicit plaintext baseline mode; the client owns this plaintext
                aux: block.to_json().into_bytes(),
            });
        }
        let padded_user = SecretBytes::new(pad::pad(user.expose_bytes(), ID_PLAINTEXT_LEN)?);
        // analysis-allow: R10 pre-encryption marshalling; sealed under pk_ia two lines down
        let padded_block = pad::pad(block.to_json().as_bytes(), ITEM_BLOCK_LEN)?;
        Ok(ClientEnvelope {
            op: Op::Post,
            user: self
                .keys
                .pk_ua
                .encrypt(padded_user.expose(), &mut self.rng)?,
            aux: self.keys.pk_ia.encrypt(&padded_block, &mut self.rng)?,
        })
    }

    /// Intercepts `get(u)`: yields the encrypted envelope (Figure 4's
    /// `get(enc(u,pkUA), enc(k_u,pkIA))`) and the ticket holding the fresh
    /// temporary key `k_u`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`post`](Self::post).
    pub fn get(&mut self, user: &str) -> Result<(ClientEnvelope, GetTicket), PProxError> {
        let user = PlaintextUserId::new(user)?;
        let ticket = GetTicket::fresh(&mut self.rng);
        if !self.encryption {
            return Ok((
                ClientEnvelope {
                    op: Op::Get,
                    user: user.expose_bytes().to_vec(),
                    aux: Vec::new(),
                },
                ticket,
            ));
        }
        let padded_user = SecretBytes::new(pad::pad(user.expose_bytes(), ID_PLAINTEXT_LEN)?);
        let envelope = ClientEnvelope {
            op: Op::Get,
            user: self
                .keys
                .pk_ua
                .encrypt(padded_user.expose(), &mut self.rng)?,
            aux: self.keys.pk_ia.encrypt(&ticket.k_u, &mut self.rng)?,
        };
        Ok((envelope, ticket))
    }

    /// Intercepts `get(u)` with business rules: like [`get`](Self::get),
    /// but the aux block additionally carries item ids the LRS must
    /// exclude (the Universal Recommender blacklist). Since `k_u` plus a
    /// rules list exceeds plain RSA-OAEP capacity, the block is
    /// hybrid-encrypted ([`pprox_crypto::hybrid`]) to the IA layer — an
    /// extension in the direction of the paper's conclusion (richer REST
    /// payloads through the same two-layer structure). The UA layer still
    /// sees nothing: the block is opaque to it either way.
    ///
    /// # Errors
    ///
    /// [`PProxError::IdTooLong`] for oversized ids; framing errors when
    /// the rules exceed [`RULES_BLOCK_LEN`].
    pub fn get_with_rules(
        &mut self,
        user: &str,
        exclude: &[&str],
    ) -> Result<(ClientEnvelope, GetTicket), PProxError> {
        let user = PlaintextUserId::new(user)?;
        let exclude = exclude
            .iter()
            .map(|id| PlaintextItemId::new(id))
            .collect::<Result<Vec<_>, _>>()?;
        let ticket = GetTicket::fresh(&mut self.rng);
        if !self.encryption {
            // Passthrough mode: rules travel in the clear.
            let block = Value::object([(
                "x",
                exclude
                    .iter()
                    .map(|e| Value::from(e.expose()))
                    .collect::<Value>(),
            )]);
            return Ok((
                ClientEnvelope {
                    op: Op::Get,
                    user: user.expose_bytes().to_vec(),
                    // analysis-allow: R10 explicit plaintext baseline mode; the client owns this plaintext
                    aux: block.to_json().into_bytes(),
                },
                ticket,
            ));
        }
        let block = Value::object([
            ("k", Value::from(pprox_crypto::base64::encode(&ticket.k_u))),
            (
                "x",
                exclude
                    .iter()
                    .map(|e| Value::from(e.expose()))
                    .collect::<Value>(),
            ),
        ]);
        // analysis-allow: R10 pre-encryption marshalling; sealed under pk_ia on the next line
        let padded = pad::pad(block.to_json().as_bytes(), RULES_BLOCK_LEN)?;
        let aux = pprox_crypto::hybrid::seal(&self.keys.pk_ia, &padded, &mut self.rng)?;
        let padded_user = SecretBytes::new(pad::pad(user.expose_bytes(), ID_PLAINTEXT_LEN)?);
        let envelope = ClientEnvelope {
            op: Op::Get,
            user: self
                .keys
                .pk_ua
                .encrypt(padded_user.expose(), &mut self.rng)?,
            aux,
        };
        Ok((envelope, ticket))
    }

    /// Opens a `get` response: decrypts with the ticket's `k_u`, drops the
    /// padding pseudo-items, and returns the plaintext item ids exactly as
    /// an unprotected LRS would have returned them.
    ///
    /// # Errors
    ///
    /// Crypto/framing errors when the blob does not decrypt under `k_u`.
    pub fn open_response(
        &self,
        ticket: &GetTicket,
        response: &EncryptedList,
    ) -> Result<Vec<String>, PProxError> {
        let plaintext = if self.encryption {
            SymmetricKey::from_bytes(ticket.k_u)
                .decrypt(&response.0)
                .ok_or(PProxError::MalformedMessage)?
        } else {
            response.0.clone()
        };
        let items = crate::message::list_from_plaintext(&plaintext)?;
        Ok(items
            .into_iter()
            .filter(|i| !i.starts_with(PAD_ITEM_PREFIX))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyProvisioner;
    use crate::message::{list_to_plaintext, MAX_ID_LEN};

    fn client() -> UserClient {
        let mut rng = SecureRng::from_seed(31);
        let prov = KeyProvisioner::generate(1152, &mut rng);
        UserClient::new(prov.client_keys(), 7)
    }

    #[test]
    fn post_produces_ciphertexts() {
        let mut c = client();
        let env = c.post("alice", "m00001", Some(5.0)).unwrap();
        assert_eq!(env.op, Op::Post);
        assert!(!env.user.windows(5).any(|w| w == b"alice"));
        assert!(!env.aux.windows(6).any(|w| w == b"m00001"));
    }

    #[test]
    fn two_posts_same_input_differ() {
        // Randomized encryption: the paper's §4.1 rationale for not using
        // the ciphertext itself as a pseudonym.
        let mut c = client();
        let a = c.post("u", "i", None).unwrap();
        let b = c.post("u", "i", None).unwrap();
        assert_ne!(a.user, b.user);
        assert_ne!(a.aux, b.aux);
    }

    #[test]
    fn get_tickets_are_fresh() {
        let mut c = client();
        let (_, t1) = c.get("u").unwrap();
        let (_, t2) = c.get("u").unwrap();
        assert_ne!(t1.k_u, t2.k_u);
    }

    #[test]
    fn open_response_drops_padding() {
        let mut c = client();
        let (_, ticket) = c.get("u").unwrap();
        let mut items = vec!["real-1".to_owned(), "real-2".to_owned()];
        for i in 0..18 {
            items.push(format!("{PAD_ITEM_PREFIX}{i}"));
        }
        let plaintext = list_to_plaintext(&items).unwrap();
        let mut rng = SecureRng::from_seed(1);
        let blob =
            EncryptedList(SymmetricKey::from_bytes(ticket.k_u).encrypt(&plaintext, &mut rng));
        let opened = c.open_response(&ticket, &blob).unwrap();
        assert_eq!(opened, vec!["real-1", "real-2"]);
    }

    #[test]
    fn wrong_ticket_fails() {
        let mut c = client();
        let (_, t1) = c.get("u").unwrap();
        let (_, t2) = c.get("u").unwrap();
        let plaintext = list_to_plaintext(&["x".to_owned()]).unwrap();
        let mut rng = SecureRng::from_seed(2);
        let blob = EncryptedList(SymmetricKey::from_bytes(t1.k_u).encrypt(&plaintext, &mut rng));
        assert!(c.open_response(&t2, &blob).is_err());
    }

    #[test]
    fn long_ids_rejected() {
        let mut c = client();
        let long = "x".repeat(MAX_ID_LEN + 1);
        assert!(matches!(
            c.post(&long, "i", None),
            Err(PProxError::IdTooLong { .. })
        ));
        assert!(matches!(c.get(&long), Err(PProxError::IdTooLong { .. })));
        assert!(c.post("u", &long, None).is_err());
    }

    #[test]
    fn passthrough_mode_sends_plaintext() {
        let mut rng = SecureRng::from_seed(32);
        let prov = KeyProvisioner::generate(1152, &mut rng);
        let mut c = UserClient::new_passthrough(prov.client_keys(), 7);
        assert!(!c.encryption());
        let env = c.post("alice", "m1", None).unwrap();
        assert_eq!(env.user, b"alice");
        assert!(String::from_utf8_lossy(&env.aux).contains("m1"));
    }

    #[test]
    fn ticket_debug_redacted() {
        let mut c = client();
        let (_, t) = c.get("u").unwrap();
        assert_eq!(format!("{t:?}"), "GetTicket(k_u redacted)");
    }
}
