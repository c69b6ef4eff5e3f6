//! Load balancing over real sockets.
//!
//! [`SocketBalancer`] fans calls out over N [`PooledClient`] backends
//! round-robin — kube-proxy's default, and an instance choice that does
//! not depend on load, which is what the `1/(S·I)` linkage bound scores.
//!
//! [`SocketBalancer::submit`] is continuation-style like the clients
//! under it: it returns once the request is written and the call's
//! completion runs wherever the answer (or the failure) surfaces. On a
//! retryable failure the balancer fails over by re-submitting: it walks
//! the remaining backends in ring order from the selected one, so a dead
//! instance costs one refused connect, not the whole call. The balancer
//! owns the node's one [`DeadlineQueue`]; every backend's expiries and
//! retry delays run there, and so do the delays of callers that retry on
//! top ([`SocketBalancer::after`]).
//!
//! Ring membership is dynamic: [`SocketBalancer::replace_backend`] swaps
//! one slot for a fresh client at a new address — the supervisor's
//! readmission path when a killed instance respawns on a different port.

use crate::client::{block_on, CallResult, ClientConfig, Completion, PooledClient};
use crate::timers::DeadlineQueue;
use crate::{WireError, WireStatus};
use parking_lot::RwLock;
use pprox_core::resilience::Deadline;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Summed client counters across a balancer's backends — the uplink
/// health view one node exports in its metrics scrape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Fresh connections dialed after the first (reconnects).
    pub reconnects: u64,
    /// Transport-level retry attempts.
    pub retries: u64,
    /// Calls that ran out of deadline budget inside a client.
    pub deadline_clamps: u64,
    /// Replies dropped because their call had already expired.
    pub late_replies: u64,
}

/// Fan-out client over several equivalent server instances.
pub struct SocketBalancer {
    backends: RwLock<Vec<Arc<PooledClient>>>,
    client_config: ClientConfig,
    timers: Arc<DeadlineQueue>,
    /// Round-robin cursor: the next call starts at `cursor % len`.
    cursor: AtomicUsize,
    failovers: Arc<AtomicU64>,
    replacements: AtomicU64,
}

impl std::fmt::Debug for SocketBalancer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketBalancer")
            .field("backends", &self.backends.read().len())
            .finish()
    }
}

/// Derives a per-slot client config so concurrent backends don't share
/// jitter streams.
fn slot_config(base: &ClientConfig, index: usize) -> ClientConfig {
    let mut cfg = base.clone();
    cfg.seed = cfg
        .seed
        .wrapping_add(index as u64)
        .wrapping_mul(0x2545_f491_4f6c_dd1d);
    cfg
}

/// One call walking the ring: each retryable failure re-submits to the
/// next backend until one answers or all have failed.
struct Failover {
    backends: Vec<Arc<PooledClient>>,
    start: usize,
    tried: usize,
    payload: Arc<[u8]>,
    deadline: Deadline,
    failovers: Arc<AtomicU64>,
    done: Completion,
}

impl Failover {
    fn step(mut self, last: WireError) {
        if self.tried == self.backends.len() {
            return (self.done)(Err(last));
        }
        if self.deadline.expired() {
            return (self.done)(Err(WireError::Deadline));
        }
        let backend = self.backends[(self.start + self.tried) % self.backends.len()].clone();
        self.tried += 1;
        let (payload, deadline) = (self.payload.clone(), self.deadline);
        backend.submit(payload, deadline, move |result| self.answered(result));
    }

    fn answered(self, result: CallResult) {
        match result {
            Ok(bytes) => {
                if self.tried > 1 {
                    self.failovers.fetch_add(1, Ordering::Relaxed);
                }
                (self.done)(Ok(bytes));
            }
            Err(e) if e.retryable() => self.step(e),
            Err(e) => (self.done)(Err(e)),
        }
    }
}

impl SocketBalancer {
    /// Builds a balancer over `addrs` with one pipelined client each.
    ///
    /// # Panics
    ///
    /// If `addrs` is empty (a balancer needs at least one backend).
    pub fn new(addrs: &[SocketAddr], client_config: ClientConfig) -> Self {
        assert!(!addrs.is_empty(), "need at least one backend");
        let timers = Arc::new(DeadlineQueue::new());
        let backends = addrs
            .iter()
            .enumerate()
            .map(|(i, &addr)| {
                Arc::new(PooledClient::with_timers(
                    addr,
                    slot_config(&client_config, i),
                    timers.clone(),
                ))
            })
            .collect::<Vec<_>>();
        SocketBalancer {
            backends: RwLock::new(backends),
            client_config,
            timers,
            cursor: AtomicUsize::new(0),
            failovers: Arc::new(AtomicU64::new(0)),
            replacements: AtomicU64::new(0),
        }
    }

    /// Number of backends.
    pub fn len(&self) -> usize {
        self.backends.read().len()
    }

    /// Whether the balancer has no backends (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.backends.read().is_empty()
    }

    /// Calls that were answered by a different backend than the one
    /// selected, after a transport failure.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Backend slots swapped via [`SocketBalancer::replace_backend`].
    pub fn replacements(&self) -> u64 {
        self.replacements.load(Ordering::Relaxed)
    }

    /// Total in-flight calls across backends.
    pub fn in_flight(&self) -> usize {
        self.backends.read().iter().map(|b| b.in_flight()).sum()
    }

    /// Summed client counters across the current backend ring. Counters
    /// on a client swapped out by [`SocketBalancer::replace_backend`]
    /// leave with it — the sum reflects the ring as it serves now.
    pub fn client_stats(&self) -> ClientStats {
        self.backends
            // analysis-allow: R12 read-side of an RwLock whose writer runs
            // only during backend replacement; scrape readers never block
            .read()
            .iter()
            .fold(ClientStats::default(), |acc, b| ClientStats {
                reconnects: acc.reconnects + b.reconnects(),
                retries: acc.retries + b.retries(),
                deadline_clamps: acc.deadline_clamps + b.deadline_clamps(),
                late_replies: acc.late_replies + b.late_replies(),
            })
    }

    /// Swaps slot `index` for a fresh client at `addr` — the readmission
    /// half of the supervisor's kill/respawn cycle. Calls already in
    /// flight on the old client finish (or fail over) on their own clone
    /// of its handle; new selections see the new address immediately.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn replace_backend(&self, index: usize, addr: SocketAddr) {
        let fresh = Arc::new(PooledClient::with_timers(
            addr,
            slot_config(&self.client_config, index),
            self.timers.clone(),
        ));
        let mut backends = self.backends.write();
        assert!(index < backends.len(), "backend index out of range");
        backends[index] = fresh;
        self.replacements.fetch_add(1, Ordering::Relaxed);
    }

    /// Runs `task` on the node's deadline queue after `delay` — how a
    /// caller that retries on top of the balancer waits out its backoff
    /// without holding a thread.
    pub fn after(&self, delay: Duration, task: impl FnOnce() + Send + 'static) {
        self.timers.after(delay, task);
    }

    /// Sends `payload` to a selected backend and returns; on a retryable
    /// failure the call walks the other backends in ring order before
    /// giving up. `done` runs once with the answer, the first
    /// non-retryable error, [`WireError::Deadline`] when the budget runs
    /// out, or the last backend's error once all have failed.
    pub fn submit(
        &self,
        payload: Arc<[u8]>,
        deadline: Deadline,
        done: impl FnOnce(CallResult) + Send + 'static,
    ) {
        // Snapshot the ring: a concurrent replace_backend never stalls or
        // redirects a call mid-walk.
        let backends: Vec<Arc<PooledClient>> = self.backends.read().clone();
        Failover {
            start: self.cursor.fetch_add(1, Ordering::Relaxed) % backends.len(),
            backends,
            tried: 0,
            payload,
            deadline,
            failovers: self.failovers.clone(),
            done: Box::new(done),
        }
        .step(WireError::Deadline);
    }

    /// Sends `payload` to the backend in slot `index`, with *no*
    /// failover: a sharded call must reach the owning shard or fail —
    /// silently answering from a sibling would corrupt the partition
    /// view. Pinned calls still ride the slot's own retries, and the
    /// supervisor's [`SocketBalancer::replace_backend`] readmission
    /// makes the slot healthy again after a kill. An out-of-range slot
    /// completes as an unavailable remote (a misrouted shard call must
    /// fail like a dead one, not take the request thread down).
    pub fn submit_to(
        &self,
        index: usize,
        payload: Arc<[u8]>,
        deadline: Deadline,
        done: impl FnOnce(CallResult) + Send + 'static,
    ) {
        let backend = self.backends.read().get(index).cloned();
        match backend {
            Some(backend) => backend.submit(payload, deadline, done),
            None => done(Err(WireError::Remote(WireStatus::Unavailable))),
        }
    }

    /// [`SocketBalancer::submit`], waiting for the completion.
    ///
    /// # Errors
    ///
    /// What `submit` hands its completion.
    pub fn call(&self, payload: &[u8], deadline: Deadline) -> CallResult {
        block_on(|done| self.submit(Arc::from(payload), deadline, done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{FrameHandler, ServerConfig, WireServer};
    use crate::WireStatus;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;

    struct Tagged(u8, Arc<AtomicUsize>);

    impl FrameHandler for Tagged {
        fn handle(&self, mut payload: Vec<u8>, _d: Deadline) -> Result<Vec<u8>, WireStatus> {
            self.1.fetch_add(1, Ordering::Relaxed);
            payload.push(self.0);
            Ok(payload)
        }
    }

    fn budget() -> Deadline {
        Deadline::starting_now(Duration::from_secs(5))
    }

    fn spawn_tagged(tag: u8) -> (WireServer, Arc<AtomicUsize>) {
        let hits = Arc::new(AtomicUsize::new(0));
        let server =
            WireServer::spawn(Arc::new(Tagged(tag, hits.clone())), ServerConfig::default())
                .unwrap();
        (server, hits)
    }

    #[test]
    fn round_robin_spreads_calls_evenly() {
        let (mut s1, h1) = spawn_tagged(1);
        let (mut s2, h2) = spawn_tagged(2);
        let balancer =
            SocketBalancer::new(&[s1.local_addr(), s2.local_addr()], ClientConfig::default());
        for _ in 0..10 {
            balancer.call(b"req", budget()).unwrap();
        }
        assert_eq!(h1.load(Ordering::Relaxed), 5);
        assert_eq!(h2.load(Ordering::Relaxed), 5);
        s1.shutdown();
        s2.shutdown();
    }

    #[test]
    fn failover_routes_around_a_dead_backend() {
        let (mut dead, _) = spawn_tagged(0);
        let dead_addr = dead.local_addr();
        dead.shutdown();
        let (mut live, hits) = spawn_tagged(9);
        let balancer = SocketBalancer::new(
            &[dead_addr, live.local_addr()],
            ClientConfig {
                max_retries: 0,
                ..ClientConfig::default()
            },
        );
        for _ in 0..4 {
            let got = balancer.call(b"x", budget()).unwrap();
            assert_eq!(got.last(), Some(&9u8));
        }
        assert_eq!(hits.load(Ordering::Relaxed), 4);
        assert!(balancer.failovers() >= 1);
        live.shutdown();
    }

    #[test]
    fn replace_backend_readmits_a_respawned_instance() {
        let (mut s1, h1) = spawn_tagged(1);
        let (mut s2, _h2) = spawn_tagged(2);
        let balancer = SocketBalancer::new(
            &[s1.local_addr(), s2.local_addr()],
            ClientConfig {
                max_retries: 0,
                ..ClientConfig::default()
            },
        );
        // Kill slot 1, respawn elsewhere, readmit: every call succeeds
        // and the replacement carries real traffic again.
        s2.shutdown();
        let (mut s3, h3) = spawn_tagged(3);
        balancer.replace_backend(1, s3.local_addr());
        assert_eq!(balancer.replacements(), 1);
        for _ in 0..6 {
            balancer.call(b"x", budget()).unwrap();
        }
        assert_eq!(h1.load(Ordering::Relaxed), 3);
        assert_eq!(h3.load(Ordering::Relaxed), 3);
        s1.shutdown();
        s3.shutdown();
    }
}
