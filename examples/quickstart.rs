//! Quickstart: PProx in front of an unmodified recommendation engine.
//!
//! Run with `cargo run --example quickstart --release`.
//!
//! Walks the full lifecycle of §4.2: key provisioning via attestation,
//! feedback insertion (`post`), model training, and recommendation
//! collection (`get`) — and shows that the provider-side database only
//! ever holds pseudonyms.

use pprox::core::{PProxConfig, PProxDeployment};
use pprox::lrs::shard::ShardEngine;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The RaaS provider runs an ordinary recommendation engine (the
    //    "legacy recommendation system"). PProx requires no change to it.
    let engine = Arc::new(ShardEngine::new());

    // 2. Deploy PProx: generates layer keys, loads UA and IA enclaves on
    //    the (simulated) SGX platform, attests them, provisions secrets.
    let pprox = PProxDeployment::new(PProxConfig::default(), engine.clone(), 42)?;
    println!("deployed: {pprox:?}");

    // 3. Applications embed the thin user-side library. It holds only the
    //    two layer public keys — nothing user-specific.
    let mut client = pprox.client();

    // 4. Insert feedback through the proxy. Two taste clusters:
    for user in 0..8 {
        pprox.post_feedback(&mut client, &format!("scifi-fan-{user}"), "alien", None)?;
        pprox.post_feedback(
            &mut client,
            &format!("scifi-fan-{user}"),
            "blade-runner",
            None,
        )?;
        pprox.post_feedback(&mut client, &format!("scifi-fan-{user}"), "dune", None)?;
    }
    for user in 0..8 {
        pprox.post_feedback(&mut client, &format!("romcom-fan-{user}"), "amelie", None)?;
        pprox.post_feedback(
            &mut client,
            &format!("romcom-fan-{user}"),
            "notting-hill",
            None,
        )?;
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
    pprox.post_feedback(&mut client, "newcomer", "alien", None)?;
    let recommendations = pprox.get_recommendations(&mut client, "newcomer")?;
    println!("recommendations for 'newcomer' (who liked 'alien'): {recommendations:?}");
    assert!(recommendations.contains(&"blade-runner".to_owned()));
    assert!(!recommendations.contains(&"amelie".to_owned()));

    println!("quickstart OK: recommendations flow, identifiers never leave the enclaves");
    Ok(())
}
