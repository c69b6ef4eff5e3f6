//! The design-decision ablation DESIGN.md calls out: deterministic vs
//! randomized pseudonymization.
//!
//! §4.1: a randomized ciphertext "cannot be used as the pseudonym of u
//! with the LRS, as it is the result of randomized encryption: Two
//! encryptions of the same u yield two different ciphertexts and do not
//! allow linking to a single pseudonymous user profile." Deterministic
//! encryption is lower-security but *necessary* — this test demonstrates
//! both halves of that trade-off empirically.

use pprox::core::keys::{KeyProvisioner, UA_CODE_IDENTITY};
use pprox::core::message::{ClientEnvelope, Op};
use pprox::core::ua::UaState;
use pprox::crypto::ctr::SymmetricKey;
use pprox::crypto::pad;
use pprox::crypto::rng::SecureRng;
use pprox::lrs::shard::ShardEngine;
use pprox::sgx::{Measurement, Platform};

const ID_LEN: usize = 32;

/// Deterministic pseudonym (what PProx actually does).
fn det_pseudonym(key: &SymmetricKey, id: &str) -> String {
    let padded = pad::pad(id.as_bytes(), ID_LEN).unwrap();
    pprox::crypto::base64::encode(&key.det_encrypt(&padded))
}

/// Randomized "pseudonym" (the broken alternative).
fn randomized_pseudonym(key: &SymmetricKey, id: &str, rng: &mut SecureRng) -> String {
    let padded = pad::pad(id.as_bytes(), ID_LEN).unwrap();
    pprox::crypto::base64::encode(&key.encrypt(&padded, rng))
}

/// Trace: two user clusters with overlapping tastes plus background
/// users; returns whether a probe user (history: "a1") gets "a2"
/// recommended.
fn run_with_pseudonyms(mut pseudonymize: impl FnMut(&str) -> String) -> bool {
    let engine = ShardEngine::new();
    for u in 0..8 {
        let user = format!("cluster-a-{u}");
        engine.post(&pseudonymize(&user), &pseudonymize("a1"), None);
        engine.post(&pseudonymize(&user), &pseudonymize("a2"), None);
    }
    for u in 0..8 {
        let user = format!("bg-{u}");
        engine.post(
            &pseudonymize(&user),
            &pseudonymize(&format!("solo-{u}")),
            None,
        );
    }
    let probe = pseudonymize("probe");
    engine.post(&probe, &pseudonymize("a1"), None);
    engine.sync();
    let recs = engine.get_filtered(&probe, 10, &[]);
    recs.items.iter().any(|s| s.item == pseudonymize("a2"))
}

#[test]
fn deterministic_pseudonyms_preserve_recommendations() {
    let mut rng = SecureRng::from_seed(1);
    let key = SymmetricKey::generate(&mut rng);
    assert!(
        run_with_pseudonyms(|id| det_pseudonym(&key, id)),
        "deterministic pseudonymization must keep profiles linkable for the LRS"
    );
}

#[test]
fn randomized_pseudonyms_destroy_recommendations() {
    let mut rng = SecureRng::from_seed(2);
    let key = SymmetricKey::generate(&mut rng);
    let mut enc_rng = SecureRng::from_seed(3);
    assert!(
        !run_with_pseudonyms(|id| randomized_pseudonym(&key, id, &mut enc_rng)),
        "randomized encryption severs every event from every other: no profile, no model"
    );
}

#[test]
fn deterministic_pseudonyms_are_stable_and_size_constant() {
    let mut rng = SecureRng::from_seed(4);
    let key = SymmetricKey::generate(&mut rng);
    let a = det_pseudonym(&key, "user-x");
    let b = det_pseudonym(&key, "user-x");
    assert_eq!(a, b);
    // All pseudonyms have identical length regardless of id length
    // (§4.3's fixed-size identifiers).
    let short = det_pseudonym(&key, "u");
    let long = det_pseudonym(&key, &"x".repeat(28));
    assert_eq!(short.len(), long.len());
}

#[test]
fn randomized_pseudonyms_differ_every_time() {
    let mut rng = SecureRng::from_seed(5);
    let key = SymmetricKey::generate(&mut rng);
    let mut enc_rng = SecureRng::from_seed(6);
    let a = randomized_pseudonym(&key, "user-x", &mut enc_rng);
    let b = randomized_pseudonym(&key, "user-x", &mut enc_rng);
    assert_ne!(a, b);
}

/// The cached-keystream fast path and the fresh-state reference path must
/// produce identical pseudonyms — otherwise a mid-deployment upgrade of
/// the cipher implementation would silently fork every user profile.
#[test]
fn cached_and_fresh_cipher_paths_agree_on_pseudonyms() {
    let mut rng = SecureRng::from_seed(7);
    let key = SymmetricKey::generate(&mut rng);
    for id in ["u", "user-x", &"x".repeat(28)] {
        let padded = pad::pad(id.as_bytes(), ID_LEN).unwrap();
        assert_eq!(
            key.det_encrypt(&padded),
            key.det_encrypt_fresh(&padded),
            "cached and fresh pseudonyms diverged for {id:?}"
        );
    }
    // Pre-warming the cache must not change anything either.
    let warmed = SymmetricKey::generate(&mut rng);
    warmed.warm();
    let padded = pad::pad(b"warm-check", ID_LEN).unwrap();
    assert_eq!(
        warmed.det_encrypt(&padded),
        warmed.det_encrypt_fresh(&padded)
    );
}

/// Pseudonyms survive a UA-layer crash + re-provision: the provisioner
/// re-installs the *same* permanent `kUA`, so an enclave that comes back
/// with freshly built cipher state (new key schedule, cold keystream
/// cache) maps every user to the pseudonym the LRS already knows.
#[test]
fn pseudonyms_stable_across_crash_and_reprovision() {
    let mut rng = SecureRng::from_seed(8);
    // 1152-bit moduli: the smallest test size whose OAEP capacity fits a
    // padded 32-byte user id.
    let prov = KeyProvisioner::generate(1152, &mut rng);
    let platform = Platform::new(&mut rng);
    let pk_ua = prov.client_keys().pk_ua;

    let pseudonym_of = |ua: &pprox::sgx::Enclave<UaState>, rng: &mut SecureRng| {
        let env = ClientEnvelope {
            op: Op::Post,
            user: pk_ua
                .encrypt(&pad::pad(b"alice", ID_LEN).unwrap(), rng)
                .unwrap(),
            aux: vec![],
        };
        ua.call(|state| state.process(&env, true).unwrap().user_pseudonym)
            .unwrap()
    };

    let ua = platform.load_enclave::<UaState>(UA_CODE_IDENTITY);
    prov.provision_ua(&platform, &ua).unwrap();
    let before = pseudonym_of(&ua, &mut rng);

    // Kill every UA enclave, then bring up a replacement from scratch.
    let killed = platform.crash_layer(Measurement::of_code(UA_CODE_IDENTITY));
    assert_eq!(killed, 1, "exactly the one UA enclave should crash");
    assert!(ua.call(|_| ()).is_err(), "crashed enclave must be dead");

    let replacement = platform.load_enclave::<UaState>(UA_CODE_IDENTITY);
    prov.provision_ua(&platform, &replacement).unwrap();
    let after = pseudonym_of(&replacement, &mut rng);

    assert_eq!(
        before, after,
        "re-provisioned UA must keep the user ↔ pseudonym mapping"
    );
}
