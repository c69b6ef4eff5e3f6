//! Integration test: the full breach-response story (paper footnote 1).
//!
//! A UA enclave is broken; detection triggers; the provider rotates the
//! UA layer's key, re-encrypting the LRS database through a rotation
//! enclave. Afterwards: (1) the stolen key is useless against the new
//! database, (2) user profiles survive rotation (the model retrains to
//! the same recommendations), and (3) the other layer's pseudonyms were
//! never touched.

use pprox::core::keys::LayerSecrets;
use pprox::core::rotation::{rotate_database, RotatedLayer, RotationEnclave};
use pprox::core::{PProxConfig, PProxDeployment};
use pprox::crypto::ctr::SymmetricKey;
use pprox::crypto::rng::SecureRng;
use pprox::lrs::shard::ShardEngine;
use std::sync::Arc;

fn seeded_world() -> (PProxDeployment, Arc<ShardEngine>) {
    let engine = Arc::new(ShardEngine::new());
    let d = PProxDeployment::new(PProxConfig::for_tests(), engine.clone(), 0xb4ea).unwrap();
    let mut client = d.client();
    // Two clusters for meaningful recommendations.
    for u in 0..6 {
        d.post_feedback(&mut client, &format!("sci-{u}"), "alien", None)
            .unwrap();
        d.post_feedback(&mut client, &format!("sci-{u}"), "dune", None)
            .unwrap();
    }
    for u in 0..6 {
        d.post_feedback(&mut client, &format!("bg-{u}"), &format!("solo-{u}"), None)
            .unwrap();
    }
    // A probe user with *partial* history, so recommendations are
    // non-empty (history items are excluded from results).
    d.post_feedback(&mut client, "probe", "alien", None)
        .unwrap();
    (d, engine)
}

#[test]
fn rotation_invalidates_stolen_key_and_preserves_profiles() {
    let (d, engine) = seeded_world();

    // 1. Breach: the adversary steals kUA.
    let bag = d.platform().break_enclave(d.ua_layer()[0].id()).unwrap();
    let mut stolen = [0u8; 32];
    stolen.copy_from_slice(bag.get("ua.k").unwrap());
    let stolen_key = SymmetricKey::from_bytes(stolen);
    d.platform().detect_and_recover();

    // 2. Response: rotate the UA key over the exported database.
    let old_key = stolen_key.clone(); // provider holds the same old key
    let mut rng = SecureRng::from_seed(0xb4eb);
    let new_key = SymmetricKey::generate(&mut rng);
    let old_events = engine.dump_events();
    let rotated = rotate_database(
        RotatedLayer::UserAnonymizer,
        &old_key,
        &new_key,
        &old_events,
    )
    .unwrap();

    // 3. The stolen key no longer decrypts any user pseudonym.
    for ((new_user, _), (old_user, _)) in rotated.iter().zip(old_events.iter()) {
        assert_ne!(new_user, old_user);
        let ct = pprox::crypto::base64::decode(new_user).unwrap();
        let padded = stolen_key.det_decrypt(&ct);
        assert!(
            pprox::crypto::pad::unpad(&padded, 32).is_err(),
            "stolen key must not decrypt rotated pseudonyms"
        );
    }

    // 4. Item pseudonyms untouched (the IA layer was never compromised).
    for ((_, new_item), (_, old_item)) in rotated.iter().zip(old_events.iter()) {
        assert_eq!(new_item, old_item);
    }

    // 5. Profiles survive: re-import the rotated dump into a fresh engine
    //    and the model recommends the same (pseudonymized) items.
    let probe_under = |key: &SymmetricKey| {
        let padded = pprox::crypto::pad::pad(b"probe", 32).unwrap();
        pprox::crypto::base64::encode(&key.det_encrypt(&padded))
    };
    engine.sync();
    let before = engine.get_filtered(&probe_under(&old_key), 10, &[]);
    let rotated_engine = ShardEngine::new();
    for (user, item) in &rotated {
        rotated_engine.post(user, item, None);
    }
    rotated_engine.sync();
    let after = rotated_engine.get_filtered(&probe_under(&new_key), 10, &[]);
    let items_before: Vec<&str> = before.items.iter().map(|s| s.item.as_str()).collect();
    let items_after: Vec<&str> = after.items.iter().map(|s| s.item.as_str()).collect();
    assert_eq!(items_before, items_after, "profiles must survive rotation");
    assert!(!items_before.is_empty());
}

#[test]
fn rotation_enclave_translates_a_full_dump() {
    let (d, engine) = seeded_world();
    // Build a rotation enclave holding old UA secrets + a fresh key. (In
    // deployment it would be loaded and attested like any layer enclave;
    // the state logic is what we exercise here.)
    let mut rng = SecureRng::from_seed(0xb4ec);
    let (fresh_secrets, _) = LayerSecrets::generate(1152, &mut rng);
    let new_key = fresh_secrets.k.clone();

    // Recover old secrets by breaking the UA (the provider equally could
    // read them from its own key escrow).
    let bag = d.platform().break_enclave(d.ua_layer()[0].id()).unwrap();
    let mut old = [0u8; 32];
    old.copy_from_slice(bag.get("ua.k").unwrap());
    let old_secrets_key = SymmetricKey::from_bytes(old);

    let events = engine.dump_events();
    // The enclave path and the offline path must agree.
    let offline = rotate_database(
        RotatedLayer::UserAnonymizer,
        &old_secrets_key,
        &new_key,
        &events,
    )
    .unwrap();
    let mut enclave = RotationEnclave::new(
        &LayerSecrets {
            sk: fresh_secrets.sk.clone(),
            k: old_secrets_key,
        },
        new_key,
    );
    for ((user, _), (offline_user, _)) in events.iter().zip(offline.iter()) {
        assert_eq!(&enclave.translate(user).unwrap(), offline_user);
    }
    assert_eq!(enclave.translated(), events.len() as u64);
}
