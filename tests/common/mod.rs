//! Shared by the integration tests that drive the chain from several
//! client threads.

use pprox::core::UserClient;

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
