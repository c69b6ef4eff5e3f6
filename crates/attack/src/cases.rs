//! Executable §6.1 case analysis: enclave compromise against a live
//! deployment.
//!
//! The paper argues informally that breaking *one* layer's enclave never
//! yields the user–item link. This module turns each case into a runnable
//! experiment against a real [`PProxDeployment`]: drive traffic with known
//! ground truth, break an enclave through the platform's compromise API,
//! and let the adversary do everything its stolen keys allow against the
//! LRS database. The outcome records what was actually learned.

use pprox_core::proxy::PProxDeployment;
use pprox_crypto::ctr::SymmetricKey;
use pprox_crypto::pad;
use pprox_lrs::shard::ShardEngine;
use pprox_sgx::SecretBag;

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
pub fn break_ua_and_read_database(
    deployment: &PProxDeployment,
    engine: &ShardEngine,
) -> CaseOutcome {
    let ua = &deployment.ua_layer()[0];
    let bag = deployment
        .platform()
        .break_enclave(ua.id())
        .expect("UA break allowed when no other layer is compromised");
    attack_database(&bag, "ua.k", engine)
}

/// §6.1 Case 2.(c): the adversary breaks an **IA** enclave and reads the
/// LRS database. Dual outcome: items recovered, users opaque.
pub fn break_ia_and_read_database(
    deployment: &PProxDeployment,
    engine: &ShardEngine,
) -> CaseOutcome {
    let ia = &deployment.ia_layer()[0];
    let bag = deployment
        .platform()
        .break_enclave(ia.id())
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
    use pprox_core::config::PProxConfig;
    use pprox_sgx::CompromiseError;
    use std::sync::Arc;

    /// Ground-truth traffic: 5 users × 2 items through the proxy.
    fn deploy_with_traffic() -> (PProxDeployment, Arc<ShardEngine>, Vec<(String, String)>) {
        let engine = Arc::new(ShardEngine::new());
        let d = PProxDeployment::new(PProxConfig::for_tests(), engine.clone(), 0xca5e).unwrap();
        let mut client = d.client();
        let mut truth = Vec::new();
        for u in 0..5 {
            for i in 0..2 {
                let user = format!("user-{u}");
                let item = format!("item-{u}-{i}");
                d.post_feedback(&mut client, &user, &item, None).unwrap();
                truth.push((user, item));
            }
        }
        (d, engine, truth)
    }

    #[test]
    fn ua_break_recovers_users_but_never_links() {
        let (d, engine, truth) = deploy_with_traffic();
        let outcome = break_ua_and_read_database(&d, &engine);
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
        let outcome = break_ia_and_read_database(&d, &engine);
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
        let ua = &d.ua_layer()[0];
        let ia = &d.ia_layer()[0];
        d.platform().break_enclave(ua.id()).unwrap();
        assert!(matches!(
            d.platform().break_enclave(ia.id()),
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
        let ua_bag = d.platform().break_enclave(d.ua_layer()[0].id()).unwrap();
        d.platform().detect_and_recover();
        let ia_bag = d.platform().break_enclave(d.ia_layer()[0].id()).unwrap();
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
        let engine = Arc::new(ShardEngine::new());
        let config = PProxConfig {
            item_pseudonymization: false,
            ..PProxConfig::for_tests()
        };
        let d = PProxDeployment::new(config, engine.clone(), 0xca5f).unwrap();
        let mut client = d.client();
        d.post_feedback(&mut client, "victim", "embarrassing-item", None)
            .unwrap();
        let outcome = break_ua_and_read_database(&d, &engine);
        // Items are in the clear in the database; with kUA the user column
        // decrypts too: the pair is linked.
        let events = engine.dump_events();
        assert_eq!(events[0].1, "embarrassing-item");
        assert!(outcome.recovered_users.contains(&"victim".to_owned()));
        assert!(
            outcome
                .linked_pairs
                .contains(&("victim".to_owned(), "embarrassing-item".to_owned())),
            "with items in the clear, a UA break links the pair"
        );
        assert!(!outcome.unlinkability_holds());
    }
}
