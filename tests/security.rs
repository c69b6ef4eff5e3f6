//! Integration test: the §6 security guarantees, end to end.

mod common;

use common::{budget, launch, post};
use pprox::attack::cases;
use pprox::core::keys::{IA_CODE_IDENTITY, UA_CODE_IDENTITY};
use pprox::lrs::shard::ShardEngine;
use pprox::sgx::{CompromiseError, Measurement};
use pprox::wire::{ClusterConfig, LoopbackCluster};
use std::sync::Arc;

fn deployment_with_traffic(seed: u64) -> (LoopbackCluster, Arc<ShardEngine>) {
    let engine = Arc::new(ShardEngine::new());
    let config = ClusterConfig {
        seed,
        ..ClusterConfig::default()
    };
    let mut d = launch(config, engine.clone());
    let mut client = d.client();
    for u in 0..30 {
        let (user, item) = (format!("user-{u:02}"), format!("secret-interest-{u:02}"));
        post(&d, &mut client, &user, &item, None).unwrap();
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
    let ua_outcome = cases::break_ua_and_read_database(d.platform(), &engine);
    assert_eq!(ua_outcome.recovered_users.len(), 30);
    assert!(ua_outcome.recovered_items.is_empty());
    assert!(ua_outcome.unlinkability_holds());

    d.platform().detect_and_recover();

    let ia_outcome = cases::break_ia_and_read_database(d.platform(), &engine);
    assert_eq!(ia_outcome.recovered_items.len(), 30);
    assert!(ia_outcome.recovered_users.is_empty());
    assert!(ia_outcome.unlinkability_holds());
}

#[test]
fn platform_enforces_one_layer_at_a_time() {
    let (d, _engine) = deployment_with_traffic(3);
    let platform = d.platform();
    cases::break_layer(platform, UA_CODE_IDENTITY).unwrap();
    let ia_layer = platform.enclaves(Measurement::of_code(IA_CODE_IDENTITY));
    assert_eq!(ia_layer.len(), 2, "one enclave per IA instance");
    for ia in ia_layer {
        assert!(matches!(
            platform.break_enclave(ia),
            Err(CompromiseError::AnotherLayerCompromised { .. })
        ));
    }
}

#[test]
fn horizontal_scaling_does_not_weaken_layer_isolation() {
    // §5: "Using multiple enclaves for each proxy layer does not lower
    // security" — breaking several UA instances still never exposes IA
    // secrets.
    let config = ClusterConfig {
        ua_instances: 3,
        ia_instances: 3,
        seed: 4,
        ..ClusterConfig::default()
    };
    let mut d = launch(config, Arc::new(ShardEngine::new()));
    let mut client = d.client();
    post(&d, &mut client, "u", "i", None).unwrap();
    let platform = d.platform();
    let ua_layer = platform.enclaves(Measurement::of_code(UA_CODE_IDENTITY));
    assert_eq!(ua_layer.len(), 3);
    for ua in ua_layer {
        let bag = platform.break_enclave(ua).unwrap();
        assert!(bag.get("ua.k").is_some());
        assert!(bag.get("ia.k").is_none());
    }
    // All three UA instances compromised — the IA layer stays off-limits.
    assert!(cases::break_layer(platform, IA_CODE_IDENTITY).is_err());
}

#[test]
fn get_responses_opaque_to_ua_layer() {
    // The encrypted list returned through the UA layer must not contain
    // any item id in the clear (Figure 4: enc({i...}, k_u)).
    let engine = Arc::new(ShardEngine::new());
    let config = ClusterConfig {
        seed: 6,
        ..ClusterConfig::default()
    };
    let mut d = launch(config, engine.clone());
    let mut client = d.client();
    for u in 0..6 {
        post(&d, &mut client, &format!("u{u}"), "aa", None).unwrap();
        post(&d, &mut client, &format!("u{u}"), "bb", None).unwrap();
    }
    for u in 0..6 {
        post(&d, &mut client, &format!("x{u}"), &format!("solo{u}"), None).unwrap();
    }
    post(&d, &mut client, "probe", "aa", None).unwrap();
    engine.sync();
    let (envelope, ticket) = client.get("probe").unwrap();
    let encrypted = d.send_get(&envelope, budget()).unwrap();
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
