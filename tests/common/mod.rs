//! Shared by the integration tests that drive the chain. Each test
//! binary uses its own subset.

#![allow(dead_code)]

use pprox::core::resilience::Deadline;
use pprox::core::{PProxError, UserClient};
use pprox::lrs::RestHandler;
use pprox::wire::{ClusterConfig, LoopbackCluster};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A request budget no test here comes near.
pub fn budget() -> Deadline {
    Deadline::starting_now(Duration::from_secs(10))
}

/// Boots the chain over `lrs` and waits until every node answers.
pub fn launch(config: ClusterConfig, lrs: Arc<dyn RestHandler>) -> LoopbackCluster {
    let cluster = LoopbackCluster::launch(config, lrs).unwrap();
    assert!(cluster.wait_ready(Duration::from_secs(10)));
    cluster
}

/// `post(u, i[, p])` through the chain.
pub fn post(
    cluster: &LoopbackCluster,
    client: &mut UserClient,
    user: &str,
    item: &str,
    payload: Option<f64>,
) -> Result<(), PProxError> {
    cluster.send_post(&client.post(user, item, payload)?, budget())
}

/// `get(u)` through the chain, opened: the list as the application sees it.
pub fn recommend(
    cluster: &LoopbackCluster,
    client: &mut UserClient,
    user: &str,
) -> Result<Vec<String>, PProxError> {
    let (envelope, ticket) = client.get(user)?;
    client.open_response(&ticket, &cluster.send_get(&envelope, budget())?)
}

/// `get(u)` with a blacklist of items the user must not be recommended
/// (the Universal Recommender business rule, carried encrypted to the IA).
pub fn recommend_excluding(
    cluster: &LoopbackCluster,
    client: &mut UserClient,
    user: &str,
    exclude: &[&str],
) -> Result<Vec<String>, PProxError> {
    let (envelope, ticket) = client.get_with_rules(user, exclude)?;
    client.open_response(&ticket, &cluster.send_get(&envelope, budget())?)
}

/// Polls `done` to a deadline instead of sleeping and hoping.
pub fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let end = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < end, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Runs `work(client, k)` for every `k` in `0..n`, dealt round-robin to
/// one thread per client, and returns the results in `k` order.
pub fn concurrently<T: Send>(
    clients: &mut [UserClient],
    n: usize,
    work: impl Fn(&mut UserClient, usize) -> T + Sync,
) -> Vec<T> {
    let threads = clients.len();
    let mut results: Vec<(usize, T)> = std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                scope.spawn(move || {
                    (t..n)
                        .step_by(threads)
                        .map(|k| (k, work(client, k)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread must not panic"))
            .collect()
    });
    results.sort_by_key(|&(k, _)| k);
    results.into_iter().map(|(_, r)| r).collect()
}
