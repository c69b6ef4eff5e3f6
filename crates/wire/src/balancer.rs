//! Load balancing over real sockets.
//!
//! [`SocketBalancer`] fans calls out over N pipelined backends
//! round-robin — kube-proxy's default, and an instance choice that does
//! not depend on load, which is what the `1/(S·I)` linkage bound scores.
//!
//! [`SocketBalancer::submit`] is continuation-style like the client: it
//! returns once the request is written, and the call — one run of the
//! client's retry loop over the ring — completes wherever the answer or
//! the failure surfaces. Attempt `k` goes to slot `(start + k) % len`,
//! read when it is made, so a dead instance costs one attempt and a retry
//! reaches an instance readmitted meanwhile; [`SocketBalancer::submit_to`]
//! pins every attempt to one slot. [`SocketBalancer::submit_batch`] starts
//! the calls of a shuffle release together: each backend's round-robin
//! share of first attempts leaves as one buffer in one `write`, and every
//! call is its own retry loop from there. The balancer owns the node's one
//! [`DeadlineQueue`]: expiries, retry delays and the delays its callers
//! arm ([`SocketBalancer::after`]) all run there.
//!
//! Ring membership is dynamic: [`SocketBalancer::replace_backend`] swaps
//! one slot for a fresh backend at a new address — the supervisor's
//! readmission path when a killed instance respawns on a different port.

use crate::client::{block_on, CallResult, ClientConfig, Completion, Conn, Plain, Ring};
use crate::timers::DeadlineQueue;
use pprox_core::resilience::Deadline;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Summed client counters across a balancer's backends — the uplink
/// health view one node exports in its metrics scrape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Fresh connections dialed after the first (reconnects).
    pub reconnects: u64,
    /// Attempts made after a call's first, over every call.
    pub retries: u64,
    /// Calls that ran out of deadline budget.
    pub deadline_clamps: u64,
    /// Replies dropped because their call had already expired.
    pub late_replies: u64,
}

/// Fan-out client over several equivalent server instances.
pub struct SocketBalancer {
    pub(crate) ring: Arc<Ring>,
    replacements: AtomicU64,
}

impl std::fmt::Debug for SocketBalancer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketBalancer")
            .field("backends", &self.len())
            .finish()
    }
}

impl SocketBalancer {
    /// Builds a balancer over `addrs` with one pipelined connection each.
    ///
    /// # Panics
    ///
    /// If `addrs` is empty (a balancer needs at least one backend).
    pub fn new(addrs: &[SocketAddr], client_config: ClientConfig) -> Self {
        assert!(!addrs.is_empty(), "need at least one backend");
        let timers = Arc::new(DeadlineQueue::new());
        let backends = addrs
            .iter()
            .map(|&addr| Conn::new(addr, timers.clone()))
            .collect();
        SocketBalancer {
            ring: Ring::new(backends, client_config, timers),
            replacements: AtomicU64::new(0),
        }
    }

    /// Number of backends.
    pub fn len(&self) -> usize {
        self.ring.backends.read().len()
    }

    /// Whether the balancer has no backends (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.ring.backends.read().is_empty()
    }

    /// Backend slots swapped via [`SocketBalancer::replace_backend`].
    pub fn replacements(&self) -> u64 {
        self.replacements.load(Ordering::Relaxed)
    }

    /// The balancer's call counters, plus the connection counters of the
    /// current ring (those of a backend swapped out by
    /// [`SocketBalancer::replace_backend`] leave with it).
    pub fn client_stats(&self) -> ClientStats {
        let ring = &self.ring;
        let calls = ClientStats {
            retries: ring.retries.load(Ordering::Relaxed),
            deadline_clamps: ring.deadline_clamps.load(Ordering::Relaxed),
            ..ClientStats::default()
        };
        ring.backends
            // analysis-allow: R12 read-side of an RwLock whose writer runs
            // only during backend replacement; scrape readers never block
            .read()
            .iter()
            .fold(calls, |acc, b| ClientStats {
                reconnects: acc.reconnects + b.reconnects(),
                late_replies: acc.late_replies + b.late_replies(),
                ..acc
            })
    }

    /// Swaps slot `index` for a fresh backend at `addr` — the readmission
    /// half of the supervisor's kill/respawn cycle. The next attempt of
    /// any call on the slot, a retry included, goes to the new address;
    /// attempts in flight on the old backend fail as a lost connection
    /// and are retried like one.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn replace_backend(&self, index: usize, addr: SocketAddr) {
        let fresh = Conn::new(addr, self.ring.timers.clone());
        let replaced = {
            let mut backends = self.ring.backends.write();
            assert!(index < backends.len(), "backend index out of range");
            std::mem::replace(&mut backends[index], fresh)
        };
        self.replacements.fetch_add(1, Ordering::Relaxed);
        // Closed with the ring unlocked: the attempts it fails are
        // retried, and a retry reads the ring.
        drop(replaced);
    }

    /// Runs `task` on the node's deadline queue after `delay`, without
    /// holding a thread.
    pub fn after(&self, delay: Duration, task: impl FnOnce() + Send + 'static) {
        self.ring.timers.after(delay, task);
    }

    /// Sends `payload` to the next backend round-robin and returns; a
    /// retry goes to the slot after the last one tried. `done` runs once
    /// with the answer, the first non-retryable error,
    /// [`WireError::Deadline`](crate::WireError::Deadline) when the budget
    /// runs out, or the last attempt's error.
    pub fn submit(
        &self,
        payload: Arc<[u8]>,
        deadline: Deadline,
        done: impl FnOnce(CallResult) + Send + 'static,
    ) {
        self.ring.submit(None, Plain, payload, deadline, done);
    }

    /// [`SocketBalancer::submit`] for each call of a batch released at
    /// once (a shuffle flush), in order: slots are assigned round-robin
    /// as `submit` would, and each backend gets its share of the batch,
    /// in batch order, as one buffer in one `write` — one syscall and one
    /// reader wake-up per backend, not per call. Pending entries,
    /// deadlines and retries stay per call.
    pub fn submit_batch(&self, calls: Vec<(Arc<[u8]>, Deadline, Completion)>) {
        self.ring.submit_batch(calls);
    }

    /// Sends `payload` to the backend in slot `index`, every attempt: a
    /// sharded call must reach the owning shard or fail — silently
    /// answering from a sibling would corrupt the partition view. A retry
    /// reaches whatever the supervisor's
    /// [`SocketBalancer::replace_backend`] has readmitted to the slot
    /// meanwhile. An out-of-range slot fails like an unavailable remote
    /// (a misrouted shard call must fail like a dead one, not take the
    /// request thread down).
    pub fn submit_to(
        &self,
        index: usize,
        payload: Arc<[u8]>,
        deadline: Deadline,
        done: impl FnOnce(CallResult) + Send + 'static,
    ) {
        self.ring
            .submit(Some(index), Plain, payload, deadline, done);
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
    use crate::frame::{decode_stream, Frame, PadClass};
    use crate::server::{FrameHandler, ServerConfig, WireServer};
    use crate::WireStatus;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::channel;
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
        // One retry: a call that starts on the dead slot is answered by
        // the next one.
        let balancer = SocketBalancer::new(
            &[dead_addr, live.local_addr()],
            ClientConfig {
                max_retries: 1,
                ..ClientConfig::default()
            },
        );
        for _ in 0..4 {
            let got = balancer.call(b"x", budget()).unwrap();
            assert_eq!(got.last(), Some(&9u8));
        }
        assert_eq!(hits.load(Ordering::Relaxed), 4);
        assert_eq!(balancer.client_stats().retries, 2);
        live.shutdown();
    }

    /// A backend the test scripts: `reads` times it takes whatever one
    /// `read` returns, answers those frames last first with their payload
    /// plus 100, and keeps their payloads — one list per `read`.
    fn scripted_backend(reads: usize) -> (SocketAddr, std::thread::JoinHandle<Vec<Vec<u8>>>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let mut stream = listener.accept().unwrap().0;
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut buf = vec![0u8; 64 * 1024];
            (0..reads)
                .map(|_| {
                    let n = stream.read(&mut buf).unwrap();
                    let mut frames = Vec::new();
                    let used = decode_stream(&buf[..n], |frame| frames.push(frame)).unwrap();
                    assert_eq!(used, n, "a read ended inside a frame");
                    let mut answers = Vec::new();
                    for frame in frames.iter().rev() {
                        let payload = frame.payload.iter().map(|b| b + 100).collect();
                        let answer = Frame::new(PadClass::Response, frame.corr, payload).unwrap();
                        answers.extend(answer.encode().unwrap());
                    }
                    stream.write_all(&answers).unwrap();
                    frames.iter().map(|frame| frame.payload[0]).collect()
                })
                .collect()
        });
        (addr, peer)
    }

    #[test]
    fn a_batch_reaches_each_backend_as_one_write_in_release_order() {
        // Each round, every peer is already blocked in `read` when the
        // batch goes out: frames written one by one would wake it with
        // the first alone in some round, a share written at once cannot.
        const ROUNDS: usize = 20;
        for backends in [1, 2] {
            let (addrs, peers): (Vec<SocketAddr>, Vec<_>) =
                (0..backends).map(|_| scripted_backend(1 + ROUNDS)).unzip();
            let balancer = SocketBalancer::new(
                &addrs,
                ClientConfig {
                    max_retries: 0,
                    ..ClientConfig::default()
                },
            );
            // One call per backend opens the connections; the cursor is
            // back at slot 0 after them, and after every batch of 8.
            for _ in 0..backends {
                assert_eq!(balancer.call(&[0], budget()).unwrap(), [100]);
            }
            for _ in 0..ROUNDS {
                std::thread::sleep(Duration::from_millis(5));
                let (tx, rx) = channel();
                let calls = (1..=8u8)
                    .map(|i| {
                        let tx = tx.clone();
                        let done: Completion = Box::new(move |result| {
                            let _ = tx.send((i, result));
                        });
                        (Arc::from(&[i][..]), budget(), done)
                    })
                    .collect();
                balancer.submit_batch(calls);
                // Answered last first, each call still gets its own answer.
                let mut answers: Vec<(u8, CallResult)> = (0..8)
                    .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
                    .collect();
                answers.sort_by_key(|(i, _)| *i);
                for (i, result) in answers {
                    assert_eq!(result, Ok(vec![i + 100]), "call {i}");
                }
            }
            for (slot, peer) in peers.into_iter().enumerate() {
                let reads = peer.join().unwrap();
                assert_eq!(reads[0], [0], "the warm-up call");
                let share: Vec<u8> = (1..=8u8)
                    .filter(|i| usize::from(i - 1) % backends == slot)
                    .collect();
                for read in &reads[1..] {
                    assert_eq!(read, &share, "{backends} backends, slot {slot}");
                }
            }
        }
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
