//! Instance supervision: detect a killed layer instance, respawn it,
//! readmit it.
//!
//! The paper's deployment leans on Kubernetes for this loop — a killed
//! proxy pod is restarted by its ReplicaSet and readmitted by the
//! Service's endpoint controller. This module is the loopback cluster's
//! stand-in: a monitor thread probes each watched instance at a fixed
//! interval — its TCP listener, and what a listener cannot show: whether
//! the node behind it still has its enclave (a crashed enclave cannot be
//! revived, so its node is as dead as a killed one). When a probe fails
//! it runs the slot's respawn closure (rebuild the service — for a durable LRS that means
//! *unseal and replay from disk* — spawn a fresh [`crate::WireServer`],
//! swap the new address into every upstream
//! [`crate::SocketBalancer`] ring) and records the event.
//!
//! While an instance is down, traffic is carried by the surviving ring
//! members: the balancer fails over around the dead address, and an
//! overloaded survivor answers `busy` through the admission gate rather
//! than erroring — so a kill shows up as shed load, never corruption.

use crate::scrape::NodeMetrics;
use parking_lot::Mutex;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Probes whether anything is accepting on `addr`.
pub fn is_alive(addr: SocketAddr, timeout: Duration) -> bool {
    TcpStream::connect_timeout(&addr, timeout).is_ok()
}

/// A respawn callback: rebuild the instance and return its new address,
/// or `None` when the respawn itself failed (the supervisor will retry
/// on the next probe round).
pub type RespawnFn = Box<dyn Fn() -> Option<SocketAddr> + Send + Sync>;

/// One supervised instance.
pub struct WatchedSlot {
    /// Layer name, for event records ("ua", "ia", "lrs").
    pub tier: &'static str,
    /// Instance index within the layer.
    pub index: usize,
    /// The instance's current address; the supervisor updates it after a
    /// successful respawn.
    pub addr: Arc<Mutex<SocketAddr>>,
    /// Whether the instance behind a listener that accepts can still
    /// serve (see [`crate::server::Service::healthy`]).
    pub healthy: Box<dyn Fn() -> bool + Send + Sync>,
    /// Rebuilds the instance (service + server + balancer readmission).
    pub respawn: RespawnFn,
    /// The node's metrics hub, when the slot is observable: the
    /// supervisor records failed probes and successful respawns there so
    /// a metrics scrape of the (respawned) node reports its own history.
    pub metrics: Option<Arc<NodeMetrics>>,
}

/// One recovery the supervisor performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RespawnEvent {
    /// Layer of the recovered instance.
    pub tier: &'static str,
    /// Instance index within the layer.
    pub index: usize,
    /// Address the dead instance was last seen on.
    pub old_addr: SocketAddr,
    /// Address the respawned instance listens on.
    pub new_addr: SocketAddr,
}

/// Time between probe rounds.
const PROBE_INTERVAL: Duration = Duration::from_millis(40);

/// Per-probe connect timeout — the supervisor's, and the cluster's own
/// readiness barrier's.
pub(crate) const PROBE_TIMEOUT: Duration = Duration::from_millis(150);

/// The monitor thread watching a set of instances.
pub struct Supervisor {
    stop: Arc<AtomicBool>,
    respawns: Arc<AtomicU64>,
    events: Arc<Mutex<Vec<RespawnEvent>>>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("respawns", &self.respawns.load(Ordering::Relaxed))
            .finish()
    }
}

impl Supervisor {
    /// Starts supervising `slots`.
    pub fn spawn(slots: Vec<WatchedSlot>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let respawns = Arc::new(AtomicU64::new(0));
        let events = Arc::new(Mutex::new(Vec::new()));
        let handle = {
            let stop = stop.clone();
            let respawns = respawns.clone();
            let events = events.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    for slot in &slots {
                        if stop.load(Ordering::Acquire) {
                            return;
                        }
                        let current = *slot.addr.lock();
                        if (slot.healthy)() && is_alive(current, PROBE_TIMEOUT) {
                            continue;
                        }
                        if let Some(metrics) = &slot.metrics {
                            metrics.on_probe_failure();
                        }
                        if let Some(new_addr) = (slot.respawn)() {
                            *slot.addr.lock() = new_addr;
                            respawns.fetch_add(1, Ordering::Relaxed);
                            if let Some(metrics) = &slot.metrics {
                                metrics.on_respawn();
                            }
                            events.lock().push(RespawnEvent {
                                tier: slot.tier,
                                index: slot.index,
                                old_addr: current,
                                new_addr,
                            });
                        }
                    }
                    std::thread::sleep(PROBE_INTERVAL);
                }
            })
        };
        Supervisor {
            stop,
            respawns,
            events,
            handle: Some(handle),
        }
    }

    /// Instances recovered so far.
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// Every recovery performed, in order.
    pub fn events(&self) -> Vec<RespawnEvent> {
        self.events.lock().clone()
    }

    /// Stops the monitor thread. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{FrameHandler, ServerConfig, WireServer};
    use crate::WireStatus;
    use pprox_core::resilience::Deadline;
    use std::time::Instant;

    struct Echo;
    impl FrameHandler for Echo {
        fn handle(&self, payload: Vec<u8>, _d: Deadline) -> Result<Vec<u8>, WireStatus> {
            Ok(payload)
        }
    }

    fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let end = Instant::now() + deadline;
        while Instant::now() < end {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        cond()
    }

    #[test]
    fn dead_instance_is_respawned_and_address_updated() {
        let servers: Arc<Mutex<Vec<WireServer>>> = Arc::new(Mutex::new(Vec::new()));
        let first = WireServer::spawn(Arc::new(Echo), ServerConfig::default()).unwrap();
        let first_addr = first.local_addr();
        servers.lock().push(first);

        let addr = Arc::new(Mutex::new(first_addr));
        let metrics = Arc::new(NodeMetrics::detached());
        let respawn: RespawnFn = {
            let servers = servers.clone();
            Box::new(move || {
                let server = WireServer::spawn(Arc::new(Echo), ServerConfig::default()).ok()?;
                let new_addr = server.local_addr();
                servers.lock()[0] = server;
                Some(new_addr)
            })
        };
        let mut sup = Supervisor::spawn(vec![WatchedSlot {
            tier: "echo",
            index: 0,
            addr: addr.clone(),
            healthy: Box::new(|| true),
            respawn,
            metrics: Some(metrics.clone()),
        }]);

        assert!(is_alive(first_addr, Duration::from_millis(200)));
        assert_eq!(sup.respawns(), 0, "healthy instance is left alone");

        servers.lock()[0].shutdown();
        assert!(
            wait_until(Duration::from_secs(5), || sup.respawns() == 1),
            "kill must be detected and recovered"
        );
        let new_addr = *addr.lock();
        assert_ne!(new_addr, first_addr);
        assert!(is_alive(new_addr, Duration::from_millis(200)));
        let events = sup.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].tier, "echo");
        assert_eq!(events[0].old_addr, first_addr);
        assert_eq!(events[0].new_addr, new_addr);
        assert!(
            metrics.probe_failures() >= 1,
            "failed probe must reach the node metrics"
        );
        sup.stop();
    }

    #[test]
    fn listening_but_unhealthy_instance_is_respawned() {
        // The listener keeps accepting throughout: only the slot's own
        // health report (a crashed enclave, in the cluster) condemns it.
        let server = WireServer::spawn(Arc::new(Echo), ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let healthy = Arc::new(AtomicBool::new(true));
        let mut sup = Supervisor::spawn(vec![WatchedSlot {
            tier: "echo",
            index: 0,
            addr: Arc::new(Mutex::new(addr)),
            healthy: {
                let healthy = healthy.clone();
                Box::new(move || healthy.load(Ordering::Acquire))
            },
            respawn: {
                let healthy = healthy.clone();
                Box::new(move || {
                    healthy.store(true, Ordering::Release);
                    Some(addr)
                })
            },
            metrics: None,
        }]);
        assert_eq!(sup.respawns(), 0, "healthy instance is left alone");
        healthy.store(false, Ordering::Release);
        assert!(
            wait_until(Duration::from_secs(5), || sup.respawns() == 1),
            "an unhealthy instance must be respawned while it still listens"
        );
        assert!(is_alive(addr, Duration::from_millis(200)));
        sup.stop();
    }

    #[test]
    fn failed_respawn_is_retried_next_round() {
        let attempts = Arc::new(AtomicU64::new(0));
        let succeed_after = 2;
        let holder: Arc<Mutex<Option<WireServer>>> = Arc::new(Mutex::new(None));
        let dead = {
            // An address nothing listens on: bind, read the port, drop.
            let tmp = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
            tmp.local_addr().unwrap()
        };
        let respawn: RespawnFn = {
            let attempts = attempts.clone();
            let holder = holder.clone();
            Box::new(move || {
                if attempts.fetch_add(1, Ordering::Relaxed) + 1 < succeed_after {
                    return None;
                }
                let server = WireServer::spawn(Arc::new(Echo), ServerConfig::default()).ok()?;
                let addr = server.local_addr();
                *holder.lock() = Some(server);
                Some(addr)
            })
        };
        let mut sup = Supervisor::spawn(vec![WatchedSlot {
            tier: "echo",
            index: 0,
            addr: Arc::new(Mutex::new(dead)),
            healthy: Box::new(|| true),
            respawn,
            metrics: None,
        }]);
        assert!(
            wait_until(Duration::from_secs(5), || sup.respawns() == 1),
            "supervisor must keep retrying until the respawn succeeds"
        );
        assert!(attempts.load(Ordering::Relaxed) >= succeed_after);
        sup.stop();
    }
}
