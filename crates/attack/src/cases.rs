//! Executable §6.1 case analysis: enclave compromise against the serving
//! chain.
//!
//! The paper argues informally that breaking *one* layer's enclave never
//! yields the user–item link. This module turns each case into a runnable
//! experiment: drive traffic with known ground truth through the chain
//! (a `LoopbackCluster` of `pprox-wire`), break one of its enclaves
//! through the [`Platform`] that hosts them, and let the adversary do
//! everything its stolen keys allow against the LRS database. The outcome
//! records what was actually learned.

use pprox_core::keys::{IA_CODE_IDENTITY, UA_CODE_IDENTITY};
use pprox_crypto::ctr::SymmetricKey;
use pprox_crypto::pad;
use pprox_lrs::shard::ShardEngine;
use pprox_sgx::{CompromiseError, Measurement, Platform, SecretBag};

/// What the adversary managed to learn in one scenario.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CaseOutcome {
    /// Plaintext user ids recovered from the LRS database.
    pub recovered_users: Vec<String>,
    /// Plaintext item ids recovered from the LRS database.
    pub recovered_items: Vec<String>,
    /// Fully linked (user, item) pairs — the unlinkability breach.
    pub linked_pairs: Vec<(String, String)>,
}

impl CaseOutcome {
    /// `true` when User–Interest unlinkability held (no pair linked).
    pub fn unlinkability_holds(&self) -> bool {
        self.linked_pairs.is_empty()
    }
}

/// Side-channel attack on the oldest live enclave of the layer whose code
/// identity is `code` (`UA_CODE_IDENTITY` or `IA_CODE_IDENTITY`).
///
/// # Errors
///
/// As [`Platform::break_enclave`]; [`CompromiseError::UnknownEnclave`]
/// when the platform hosts no live enclave of that layer.
pub fn break_layer(platform: &Platform, code: &str) -> Result<SecretBag, CompromiseError> {
    let victim = platform
        .enclaves(Measurement::of_code(code))
        .first()
        .copied();
    platform.break_enclave(victim.ok_or(CompromiseError::UnknownEnclave)?)
}

/// Extracts a symmetric key from a leaked secret bag.
fn symmetric_key(bag: &SecretBag, name: &str) -> Option<SymmetricKey> {
    let bytes = bag.get(name)?;
    let mut key = [0u8; 32];
    if bytes.len() != 32 {
        return None;
    }
    key.copy_from_slice(bytes);
    Some(SymmetricKey::from_bytes(key))
}

/// Attempts to de-pseudonymize one LRS-stored id with a stolen layer key.
///
/// Returns the plaintext id when the key matches; `None` when the blob
/// does not decode/unpad (wrong layer's key — the §6.1 "cannot decrypt"
/// outcomes).
fn try_depseudonymize(key: &SymmetricKey, stored_id: &str) -> Option<String> {
    let ct = pprox_crypto::base64::decode(stored_id).ok()?;
    if ct.len() != pprox_core::message::ID_PLAINTEXT_LEN {
        return None;
    }
    let padded = key.det_decrypt(&ct);
    let raw = pad::unpad(&padded, pprox_core::message::ID_PLAINTEXT_LEN).ok()?;
    String::from_utf8(raw).ok()
}

/// §6.1 Case 1.(c): the adversary breaks a **UA** enclave and reads the
/// LRS database.
///
/// It can de-pseudonymize every *user* id with the stolen `kUA`, but item
/// ids stay opaque — so it recovers users without their interests.
///
/// # Panics
///
/// Panics when the platform refuses the break (another layer already
/// compromised), which is itself a modelled property.
pub fn break_ua_and_read_database(platform: &Platform, engine: &ShardEngine) -> CaseOutcome {
    let bag = break_layer(platform, UA_CODE_IDENTITY)
        .expect("UA break allowed when no other layer is compromised");
    attack_database(&bag, "ua.k", engine)
}

/// §6.1 Case 2.(c): the adversary breaks an **IA** enclave and reads the
/// LRS database. Dual outcome: items recovered, users opaque.
///
/// # Panics
///
/// As [`break_ua_and_read_database`].
pub fn break_ia_and_read_database(platform: &Platform, engine: &ShardEngine) -> CaseOutcome {
    let bag = break_layer(platform, IA_CODE_IDENTITY)
        .expect("IA break allowed when no other layer is compromised");
    attack_database(&bag, "ia.k", engine)
}

/// `true` when a stored id has the shape of a PProx pseudonym (base64 of
/// a 32-byte deterministic ciphertext). Anything else sits in the
/// database in the clear and needs no key at all.
fn looks_like_pseudonym(stored_id: &str) -> bool {
    matches!(
        pprox_crypto::base64::decode(stored_id),
        Ok(bytes) if bytes.len() == pprox_core::message::ID_PLAINTEXT_LEN
    )
}

/// Recovers a stored id: decrypt with the stolen key if it is a
/// pseudonym, or take it verbatim when it is plaintext (e.g. item
/// pseudonymization disabled, §6.3).
fn recover_id(key: &SymmetricKey, stored_id: &str) -> Option<String> {
    if looks_like_pseudonym(stored_id) {
        try_depseudonymize(key, stored_id)
    } else {
        Some(stored_id.to_owned())
    }
}

/// The database attack shared by both cases: with whatever symmetric key
/// was stolen, recover both columns of every stored event.
fn attack_database(bag: &SecretBag, key_name: &str, engine: &ShardEngine) -> CaseOutcome {
    match symmetric_key(bag, key_name) {
        Some(key) => recover_database(&key, &key, engine),
        None => CaseOutcome::default(),
    }
}

/// Tries `user_key` on the user column and `item_key` on the item column
/// of every stored event. A pair counts as *linked* only when both sides
/// are recovered.
fn recover_database(
    user_key: &SymmetricKey,
    item_key: &SymmetricKey,
    engine: &ShardEngine,
) -> CaseOutcome {
    let mut outcome = CaseOutcome::default();
    for (stored_user, stored_item) in engine.dump_events() {
        let user = recover_id(user_key, &stored_user);
        let item = recover_id(item_key, &stored_item);
        if let Some(u) = &user {
            outcome.recovered_users.push(u.clone());
        }
        if let Some(i) = &item {
            outcome.recovered_items.push(i.clone());
        }
        if let (Some(u), Some(i)) = (user, item) {
            outcome.linked_pairs.push((u, i));
        }
    }
    outcome
}

/// The hypothetical both-layers adversary (what the one-layer-at-a-time
/// assumption prevents): given both bags, fully de-anonymize the
/// database. Used to validate that the attack machinery *would* succeed
/// if the assumption were violated — i.e., our negative results above are
/// not artifacts of a broken attacker.
pub fn attack_with_both_keys(
    ua_bag: &SecretBag,
    ia_bag: &SecretBag,
    engine: &ShardEngine,
) -> CaseOutcome {
    match (symmetric_key(ua_bag, "ua.k"), symmetric_key(ia_bag, "ia.k")) {
        (Some(k_ua), Some(k_ia)) => recover_database(&k_ua, &k_ia, engine),
        _ => CaseOutcome::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pprox_core::resilience::Deadline;
    use pprox_wire::{ClusterConfig, LoopbackCluster};
    use std::sync::Arc;
    use std::time::Duration;

    /// A chain over a fresh engine with every `(user, item)` of `truth`
    /// posted through it.
    fn deploy(
        config: ClusterConfig,
        truth: &[(String, String)],
    ) -> (LoopbackCluster, Arc<ShardEngine>) {
        let engine = Arc::new(ShardEngine::new());
        let mut cluster = LoopbackCluster::launch(config, engine.clone()).unwrap();
        let mut client = cluster.client();
        for (user, item) in truth {
            let envelope = client.post(user, item, None).unwrap();
            let budget = Deadline::starting_now(Duration::from_secs(10));
            cluster.send_post(&envelope, budget).unwrap();
        }
        (cluster, engine)
    }

    /// Ground-truth traffic: 5 users × 2 items through the chain.
    fn deploy_with_traffic() -> (LoopbackCluster, Arc<ShardEngine>, Vec<(String, String)>) {
        let truth: Vec<(String, String)> = (0..5)
            .flat_map(|u| (0..2).map(move |i| (format!("user-{u}"), format!("item-{u}-{i}"))))
            .collect();
        let config = ClusterConfig {
            seed: 0xca5e,
            ..ClusterConfig::default()
        };
        let (cluster, engine) = deploy(config, &truth);
        (cluster, engine, truth)
    }

    #[test]
    fn ua_break_recovers_users_but_never_links() {
        let (d, engine, truth) = deploy_with_traffic();
        let outcome = break_ua_and_read_database(d.platform(), &engine);
        // All users recovered (kUA stolen)…
        for (user, _) in &truth {
            assert!(outcome.recovered_users.contains(user), "missing {user}");
        }
        // …but no item decrypts, so unlinkability holds.
        assert!(
            outcome.recovered_items.is_empty(),
            "{:?}",
            outcome.recovered_items
        );
        assert!(outcome.unlinkability_holds());
    }

    #[test]
    fn ia_break_recovers_items_but_never_links() {
        let (d, engine, truth) = deploy_with_traffic();
        let outcome = break_ia_and_read_database(d.platform(), &engine);
        for (_, item) in &truth {
            assert!(outcome.recovered_items.contains(item), "missing {item}");
        }
        assert!(
            outcome.recovered_users.is_empty(),
            "{:?}",
            outcome.recovered_users
        );
        assert!(outcome.unlinkability_holds());
    }

    #[test]
    fn synchronous_double_break_is_forbidden() {
        let (d, _engine, _) = deploy_with_traffic();
        break_layer(d.platform(), UA_CODE_IDENTITY).unwrap();
        assert!(matches!(
            break_layer(d.platform(), IA_CODE_IDENTITY),
            Err(CompromiseError::AnotherLayerCompromised { .. })
        ));
    }

    #[test]
    fn hypothetical_double_break_would_link_everything() {
        // Validate the attacker machinery: if both keys leaked (the model
        // forbids it synchronously; we simulate recovery in between and
        // pretend the provider did NOT rotate keys — the paper's footnote
        // explains rotation is the required response), the database fully
        // de-anonymizes.
        let (d, engine, truth) = deploy_with_traffic();
        let ua_bag = break_layer(d.platform(), UA_CODE_IDENTITY).unwrap();
        d.platform().detect_and_recover();
        let ia_bag = break_layer(d.platform(), IA_CODE_IDENTITY).unwrap();
        let outcome = attack_with_both_keys(&ua_bag, &ia_bag, &engine);
        assert_eq!(outcome.linked_pairs.len(), truth.len());
        for pair in &truth {
            assert!(outcome.linked_pairs.contains(pair));
        }
        assert!(!outcome.unlinkability_holds());
    }

    #[test]
    fn item_pseudonymization_disabled_leaks_items_to_ua_breaker() {
        // §6.3: with item pseudonymization off, a UA break links users to
        // items — the privacy/utility trade-off made explicit.
        let config = ClusterConfig {
            item_pseudonymization: false,
            seed: 0xca5f,
            ..ClusterConfig::default()
        };
        let victim = ("victim".to_owned(), "embarrassing-item".to_owned());
        let (d, engine) = deploy(config, std::slice::from_ref(&victim));
        let outcome = break_ua_and_read_database(d.platform(), &engine);
        // Items are in the clear in the database; with kUA the user column
        // decrypts too: the pair is linked.
        let events = engine.dump_events();
        assert_eq!(events[0].1, "embarrassing-item");
        assert!(outcome.recovered_users.contains(&"victim".to_owned()));
        assert!(
            outcome.linked_pairs.contains(&victim),
            "with items in the clear, a UA break links the pair"
        );
        assert!(!outcome.unlinkability_holds());
    }
}
