//! Integration test: the §6 security guarantees, end to end.

use pprox::attack::cases;
use pprox::core::{PProxConfig, PProxDeployment};
use pprox::lrs::shard::ShardEngine;
use pprox::sgx::CompromiseError;
use std::sync::Arc;

fn deployment_with_traffic(seed: u64) -> (PProxDeployment, Arc<ShardEngine>) {
    let engine = Arc::new(ShardEngine::new());
    let d = PProxDeployment::new(PProxConfig::for_tests(), engine.clone(), seed).unwrap();
    let mut client = d.client();
    for u in 0..30 {
        d.post_feedback(
            &mut client,
            &format!("user-{u:02}"),
            &format!("secret-interest-{u:02}"),
            None,
        )
        .unwrap();
    }
    (d, engine)
}

#[test]
fn database_is_fully_pseudonymous() {
    let (_d, engine) = deployment_with_traffic(1);
    for (user, item) in engine.dump_events() {
        assert!(!user.contains("user-"), "plaintext user leaked: {user}");
        assert!(!item.contains("secret"), "plaintext item leaked: {item}");
    }
}

#[test]
fn single_layer_compromise_never_links() {
    let (d, engine) = deployment_with_traffic(2);
    let ua_outcome = cases::break_ua_and_read_database(&d, &engine);
    assert_eq!(ua_outcome.recovered_users.len(), 30);
    assert!(ua_outcome.recovered_items.is_empty());
    assert!(ua_outcome.unlinkability_holds());

    d.platform().detect_and_recover();

    let ia_outcome = cases::break_ia_and_read_database(&d, &engine);
    assert_eq!(ia_outcome.recovered_items.len(), 30);
    assert!(ia_outcome.recovered_users.is_empty());
    assert!(ia_outcome.unlinkability_holds());
}

#[test]
fn platform_enforces_one_layer_at_a_time() {
    let (d, _engine) = deployment_with_traffic(3);
    d.platform().break_enclave(d.ua_layer()[0].id()).unwrap();
    for ia in d.ia_layer() {
        assert!(matches!(
            d.platform().break_enclave(ia.id()),
            Err(CompromiseError::AnotherLayerCompromised { .. })
        ));
    }
}

#[test]
fn horizontal_scaling_does_not_weaken_layer_isolation() {
    // §5: "Using multiple enclaves for each proxy layer does not lower
    // security" — breaking several UA instances still never exposes IA
    // secrets.
    let config = PProxConfig {
        ua_instances: 3,
        ia_instances: 3,
        ..PProxConfig::for_tests()
    };
    let d = PProxDeployment::new(config, Arc::new(ShardEngine::new()), 4).unwrap();
    let mut client = d.client();
    d.post_feedback(&mut client, "u", "i", None).unwrap();
    for ua in d.ua_layer() {
        let bag = d.platform().break_enclave(ua.id()).unwrap();
        assert!(bag.get("ua.k").is_some());
        assert!(bag.get("ia.k").is_none());
    }
    // All three UA instances compromised — the IA layer stays off-limits.
    assert!(d.platform().break_enclave(d.ia_layer()[0].id()).is_err());
}

#[test]
fn get_responses_opaque_to_ua_layer() {
    // The encrypted list returned through the UA layer must not contain
    // any item id in the clear (Figure 4: enc({i...}, k_u)).
    let engine = Arc::new(ShardEngine::new());
    let d = PProxDeployment::new(PProxConfig::for_tests(), engine.clone(), 6).unwrap();
    let mut client = d.client();
    for u in 0..6 {
        d.post_feedback(&mut client, &format!("u{u}"), "aa", None)
            .unwrap();
        d.post_feedback(&mut client, &format!("u{u}"), "bb", None)
            .unwrap();
    }
    for u in 0..6 {
        d.post_feedback(&mut client, &format!("x{u}"), &format!("solo{u}"), None)
            .unwrap();
    }
    d.post_feedback(&mut client, "probe", "aa", None).unwrap();
    engine.sync();
    let (envelope, ticket) = client.get("probe").unwrap();
    let encrypted = d.handle_get(&envelope).unwrap();
    // What the UA (and any observer of the response path) sees:
    let blob = String::from_utf8_lossy(&encrypted.0);
    assert!(
        !blob.contains("aa") || !blob.contains("bb"),
        "unexpected plaintext"
    );
    // The rightful client can open it.
    let items = client.open_response(&ticket, &encrypted).unwrap();
    assert!(items.contains(&"bb".to_owned()) || items.contains(&"aa".to_owned()));
}
