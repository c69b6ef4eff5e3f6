//! News-portal scenario: why User–Interest unlinkability matters.
//!
//! Run with `cargo run --example news_portal --release`.
//!
//! The paper's introduction motivates PProx with services like discussion
//! forums and news sites, where "access histories and feedbacks may
//! reveal personal traits or interests … such as their faith, sexual
//! preferences, or health condition". This example builds a small news
//! portal whose readers follow sensitive topics, then plays the §2.3
//! adversary: a corrupted RaaS operator who reads the whole database and
//! even breaks one enclave layer — and still cannot tell who reads what.

use pprox::attack::cases;
use pprox::core::resilience::Deadline;
use pprox::core::{PProxError, UserClient};
use pprox::lrs::shard::ShardEngine;
use pprox::wire::{ClusterConfig, LoopbackCluster};
use std::sync::Arc;
use std::time::Duration;

const TOPICS: [&str; 5] = [
    "health-hiv-treatment",
    "politics-opposition",
    "religion-minority",
    "finance-debt-help",
    "sports-football",
];

fn budget() -> Deadline {
    Deadline::starting_now(Duration::from_secs(2))
}

/// A reader's recommendations, minus the blacklisted articles.
fn recommend(
    pprox: &LoopbackCluster,
    client: &mut UserClient,
    user: &str,
    exclude: &[&str],
) -> Result<Vec<String>, PProxError> {
    let (request, ticket) = client.get_with_rules(user, exclude)?;
    client.open_response(&ticket, &pprox.send_get(&request, budget())?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = Arc::new(ShardEngine::new());
    let config = ClusterConfig {
        seed: 99,
        ..ClusterConfig::default()
    };
    let mut pprox = LoopbackCluster::launch(config, engine.clone())?;
    let mut client = pprox.client();

    // 40 readers, each following both articles of one sensitive topic.
    for reader in 0..40 {
        let user = format!("reader-{reader:02}");
        let topic = TOPICS[reader % TOPICS.len()];
        for article in ["a1", "a2"] {
            let request = client.post(&user, &format!("{topic}-{article}"), None)?;
            pprox.send_post(&request, budget())?;
        }
    }
    engine.sync();

    // Readers get working recommendations…
    let first_article = format!("{}-a1", TOPICS[0]);
    pprox.send_post(&client.post("new-reader", &first_article, None)?, budget())?;
    let recs = recommend(&pprox, &mut client, "new-reader", &[])?;
    println!("recommendations for a reader of '{first_article}': {recs:?}");
    assert!(recs.contains(&format!("{}-a2", TOPICS[0])));

    // Business rules travel privately too: the portal can blacklist an
    // article (say, already shown in another widget) — the exclusion list
    // rides encrypted to the IA layer and is pseudonymized before the
    // provider's engine sees it.
    let followup = format!("{}-a2", TOPICS[0]);
    let filtered = recommend(&pprox, &mut client, "new-reader", &[followup.as_str()])?;
    println!("with '{followup}' blacklisted: {filtered:?}");
    assert!(!filtered.contains(&followup));

    // …while the provider's database is fully pseudonymous.
    let events = engine.dump_events();
    println!(
        "database sample: user={} item={}",
        &events[0].0[..16.min(events[0].0.len())],
        &events[0].1[..16.min(events[0].1.len())]
    );
    assert!(events
        .iter()
        .all(|(u, i)| !u.starts_with("reader") && !i.contains("health")));

    // The adversary breaks the UA enclave (side-channel attack, §2.3) and
    // reads the database: it recovers WHO uses the service…
    let outcome = cases::break_ua_and_read_database(pprox.platform(), &engine);
    println!(
        "UA enclave broken: {} user ids recovered, {} topics recovered, {} (user, topic) pairs linked",
        outcome.recovered_users.len(),
        outcome.recovered_items.len(),
        outcome.linked_pairs.len()
    );
    assert!(outcome.recovered_users.contains(&"reader-00".to_owned()));
    // …but not WHAT anyone reads:
    assert!(outcome.recovered_items.is_empty());
    assert!(outcome.unlinkability_holds());

    // Breach detection responds (Déjà Vu / Varys role); afterwards the IA
    // layer could be attacked instead — with the symmetric outcome.
    pprox.platform().detect_and_recover();
    let outcome = cases::break_ia_and_read_database(pprox.platform(), &engine);
    println!(
        "IA enclave broken (after recovery): {} users, {} topics, {} pairs",
        outcome.recovered_users.len(),
        outcome.recovered_items.len(),
        outcome.linked_pairs.len()
    );
    assert!(outcome.recovered_users.is_empty());
    assert!(outcome.unlinkability_holds());

    println!("news_portal OK: interests stay unlinkable under single-layer compromise");
    Ok(())
}
