//! Quickstart: PProx in front of an unmodified recommendation engine.
//!
//! Run with `cargo run --example quickstart --release`.
//!
//! Walks the full lifecycle of §4.2: key provisioning via attestation,
//! feedback insertion (`post`), model training, and recommendation
//! collection (`get`) — and shows that the provider-side database only
//! ever holds pseudonyms.

use pprox::core::resilience::Deadline;
use pprox::core::{PProxError, UserClient};
use pprox::lrs::shard::ShardEngine;
use pprox::wire::{ClusterConfig, LoopbackCluster};
use std::sync::Arc;
use std::time::Duration;

/// `post(u, i)` through the proxy.
fn post(
    pprox: &LoopbackCluster,
    client: &mut UserClient,
    user: &str,
    item: &str,
) -> Result<(), PProxError> {
    let budget = Deadline::starting_now(Duration::from_secs(2));
    pprox.send_post(&client.post(user, item, None)?, budget)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The RaaS provider runs an ordinary recommendation engine (the
    //    "legacy recommendation system"). PProx requires no change to it.
    let engine = Arc::new(ShardEngine::new());

    // 2. Deploy PProx: generates layer keys, loads UA and IA enclaves on
    //    the (simulated) SGX platform, attests them, provisions secrets,
    //    and serves each layer over loopback TCP in front of the engine.
    let mut pprox = LoopbackCluster::launch(ClusterConfig::default(), engine.clone())?;
    println!("deployed: {pprox:?}");

    // 3. Applications embed the thin user-side library. It holds only the
    //    two layer public keys — nothing user-specific.
    let mut client = pprox.client();

    // 4. Insert feedback through the proxy. Two taste clusters:
    for user in 0..8 {
        for item in ["alien", "blade-runner", "dune"] {
            post(&pprox, &mut client, &format!("scifi-fan-{user}"), item)?;
        }
    }
    for user in 0..8 {
        for item in ["amelie", "notting-hill"] {
            post(&pprox, &mut client, &format!("romcom-fan-{user}"), item)?;
        }
    }

    // 5. The provider's database never saw a plaintext identifier:
    let (stored_user, stored_item) = &engine.dump_events()[0];
    println!("LRS stored user  = {stored_user}");
    println!("LRS stored item  = {stored_item}");
    assert!(!stored_user.contains("fan"));
    assert!(!stored_item.contains("alien"));

    // 6. Bring the model to its exact state (every post already trained
    //    it incrementally; `sync()` is the periodic Spark job's role) and
    //    query through the proxy. Results come back decrypted, with
    //    padding pseudo-items already discarded by the library.
    engine.sync();
    post(&pprox, &mut client, "newcomer", "alien")?;
    let (request, ticket) = client.get("newcomer")?;
    let response = pprox.send_get(&request, Deadline::starting_now(Duration::from_secs(2)))?;
    let recommendations = client.open_response(&ticket, &response)?;
    println!("recommendations for 'newcomer' (who liked 'alien'): {recommendations:?}");
    assert!(recommendations.contains(&"blade-runner".to_owned()));
    assert!(!recommendations.contains(&"amelie".to_owned()));

    pprox.shutdown();
    println!("quickstart OK: recommendations flow, identifiers never leave the enclaves");
    Ok(())
}
