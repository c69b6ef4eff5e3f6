//! The loopback cluster harness: the full PProx chain over real TCP.
//!
//! [`LoopbackCluster::launch`] stands up 1–4 [`WireServer`] instances
//! per layer on `127.0.0.1` — LRS tier first, then IA instances (each
//! with its own pipelined connections into the LRS tier and its own
//! circuit breaker), then UA instances (each with its own connections
//! into the IA tier and its own shuffle stage) — and a client-side
//! balancer over the UA tier standing in for the paper's kube-proxy
//! front door.
//!
//! Every hop is a distinct socket with per-hop correlation ids, so the
//! request chain is never linkable end-to-end by transport metadata:
//! the only joinable state crosses the shuffle buffer, where ordering
//! is randomized (§4.3).
//!
//! With `supervisor` enabled, a [`Supervisor`] thread probes every
//! instance — its listener, and for a proxy node its enclave: a crashed
//! enclave ([`pprox_sgx::Platform::crash_layer`]) makes its node as dead
//! as a killed one — and rebuilds dead ones: a fresh enclave is
//! loaded and re-attested for proxy layers, the LRS handler is rebuilt
//! through the boot factory (a durable LRS unseals its keys and replays
//! its WAL from disk — [`LoopbackCluster::launch_with_factory`]), and
//! the new address is swapped into every upstream
//! [`SocketBalancer`] ring. While an instance is down, survivors carry
//! the load: the balancers fail over around the dead address and an
//! overloaded survivor answers `busy` through its admission gate.
//!
//! This file sits on the *user side* of the privacy boundary — it hands
//! out [`UserClient`]s and moves opaque ciphertext — so it never names
//! an item-side API (analyzer rule R3).

use crate::audit::LinkageAudit;
use crate::balancer::SocketBalancer;
use crate::client::ClientConfig;
use crate::router::ShardRouter;
use crate::scrape::NodeMetrics;
use crate::server::{ServerConfig, ServerStats, Service, WireServer};
use crate::services::{IaWireService, LrsWireService, UaServiceOptions, UaWireService};
use crate::supervisor::{
    is_alive, RespawnEvent, RespawnFn, Supervisor, SupervisorConfig, WatchedSlot,
};
use parking_lot::Mutex;
use pprox_core::ia::{IaOptions, IaState};
use pprox_core::keys::{KeyProvisioner, IA_CODE_IDENTITY, UA_CODE_IDENTITY};
use pprox_core::message::{ClientEnvelope, EncryptedList};
use pprox_core::resilience::{CircuitBreaker, Deadline, ResilienceConfig};
use pprox_core::shuffler::ShuffleConfig;
use pprox_core::telemetry::{Telemetry, TelemetryConfig};
use pprox_core::ua::UaState;
use pprox_core::{PProxError, UserClient};
use pprox_crypto::rng::SecureRng;
use pprox_lrs::RestHandler;
use pprox_net::BalancePolicy;
use pprox_sgx::Platform;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One LRS tier instance as built by an [`LrsFactory`]: its REST
/// handler plus (for sharded tiers) the per-shard gauge source the
/// node's metrics hub exports.
pub struct LrsInstance {
    /// The REST handler serving this instance.
    pub handler: Arc<dyn RestHandler>,
    /// Per-shard depth/ingest-lag gauges, when the instance is a shard.
    pub shard_gauges: Option<crate::scrape::ShardGaugeFn>,
}

impl LrsInstance {
    /// An unsharded instance: just a handler, no shard gauges.
    pub fn plain(handler: Arc<dyn RestHandler>) -> Self {
        LrsInstance {
            handler,
            shard_gauges: None,
        }
    }
}

/// Builds (or rebuilds) the REST handler behind one LRS tier slot
/// (`index` is the slot — shard id when sharded). Called at launch and
/// again whenever the supervisor respawns an LRS instance whose handler
/// is gone — the durable recovery entry point. A sharded factory
/// returns a *different* partition per index; an unsharded one may
/// ignore the index and share state.
pub type LrsFactory = Arc<dyn Fn(usize) -> LrsInstance + Send + Sync>;

/// Shape of one loopback deployment.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// UA instances (1–4).
    pub ua_instances: usize,
    /// IA instances (1–4).
    pub ia_instances: usize,
    /// LRS frontend instances (1–4 replicated, up to 8 when sharded).
    pub lrs_instances: usize,
    /// Treat the LRS tier as consistent-hash *shards* instead of
    /// replicas: IA instances route each pseudonym to its owning slot
    /// and scatter-gather reads across the tier.
    pub lrs_sharded: bool,
    /// Virtual nodes per shard on the routing ring (sharded tiers).
    pub shard_vnodes: usize,
    /// End-to-end encryption on (the paper's normal mode).
    pub encryption: bool,
    /// Item pseudonymization toward the LRS (§4.2).
    pub item_pseudonymization: bool,
    /// Shuffle buffer configuration shared by every UA instance.
    pub shuffle: ShuffleConfig,
    /// RSA modulus size; tests use small moduli for speed.
    pub modulus_bits: usize,
    /// Deadline/retry/breaker policy shared by the chain.
    pub resilience: ResilienceConfig,
    /// Per-server tuning, the same for every tier: workers only compute,
    /// so no tier needs a pool sized to its requests in flight.
    pub server: ServerConfig,
    /// Balancing policy used at every hop.
    pub policy: BalancePolicy,
    /// Run the kill/respawn/readmit supervisor over every instance.
    pub supervisor: bool,
    /// Supervisor probe cadence (when `supervisor` is on).
    pub supervise: SupervisorConfig,
    /// Master seed (keys, shuffle order, jitter).
    pub seed: u64,
    /// Record per-request shuffle-egress ground truth on every UA
    /// instance (see [`LinkageAudit`]). Off in production; the scenario
    /// harness turns it on to score its traffic-analysis adversary.
    pub linkage_audit: bool,
    /// Seeded ablation: shuffle buffers batch but release in arrival
    /// order, deliberately voiding the §4.3 permutation so audits can
    /// prove they would catch a broken shuffle.
    pub shuffle_order_ablation: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            ua_instances: 2,
            ia_instances: 2,
            lrs_instances: 1,
            lrs_sharded: false,
            shard_vnodes: pprox_lrs::shard::DEFAULT_VNODES,
            encryption: true,
            item_pseudonymization: true,
            shuffle: ShuffleConfig::disabled(),
            modulus_bits: 1152,
            resilience: ResilienceConfig::default(),
            server: ServerConfig::default(),
            policy: BalancePolicy::RoundRobin,
            supervisor: false,
            supervise: SupervisorConfig::default(),
            seed: 0xC1A5_7E12,
            linkage_audit: false,
            shuffle_order_ablation: false,
        }
    }
}

impl ClusterConfig {
    /// Sets shuffle size `S` and flush timeout in one call — the knobs
    /// scenarios and tests sweep without rebuilding anything else.
    pub fn with_shuffle(mut self, size: usize, timeout_us: u64) -> Self {
        self.shuffle = ShuffleConfig { size, timeout_us };
        self
    }

    fn validated(self) -> Self {
        for (name, n) in [
            ("ua_instances", self.ua_instances),
            ("ia_instances", self.ia_instances),
        ] {
            assert!(
                (1..=4).contains(&n),
                "{name} must be between 1 and 4, got {n}"
            );
        }
        // The LRS tier scales past the proxy tiers when sharded: the
        // backend is the paper's horizontal-scale escape hatch (§3).
        let lrs_cap = if self.lrs_sharded { 8 } else { 4 };
        assert!(
            (1..=lrs_cap).contains(&self.lrs_instances),
            "lrs_instances must be between 1 and {lrs_cap}, got {}",
            self.lrs_instances
        );
        if self.lrs_sharded {
            assert!(self.shard_vnodes > 0, "sharded tier needs vnodes > 0");
        }
        self
    }
}

/// Instance slots of one tier. A killed slot holds `None` until the
/// supervisor (or teardown) deals with it; the recorded address is kept
/// for liveness probing and readmission bookkeeping.
type TierSlots = Arc<Mutex<Vec<Option<WireServer>>>>;

/// Whether the instance in a slot can still serve: it is there, and its
/// service has what it needs (a proxy node, its enclave).
fn slot_healthy(servers: &TierSlots, index: usize) -> bool {
    servers.lock()[index]
        .as_ref()
        .is_some_and(WireServer::healthy)
}

/// Puts a respawned instance into its slot and hands back the one it
/// replaces — still listening if it was replaced for a crashed enclave —
/// for the caller to drop (a graceful shutdown) once the upstream rings
/// point at the new address.
#[must_use]
fn install(servers: &TierSlots, index: usize, server: WireServer) -> Option<WireServer> {
    servers.lock()[index].replace(server)
}

/// A running loopback deployment of the full chain.
pub struct LoopbackCluster {
    config: ClusterConfig,
    platform: Platform,
    provisioner: Arc<KeyProvisioner>,
    telemetry: Arc<Telemetry>,
    factory: LrsFactory,
    frontend: Arc<SocketBalancer>,
    ua_servers: TierSlots,
    ia_servers: TierSlots,
    lrs_servers: TierSlots,
    ua_addrs: Vec<Arc<Mutex<SocketAddr>>>,
    ia_addrs: Vec<Arc<Mutex<SocketAddr>>>,
    lrs_addrs: Vec<Arc<Mutex<SocketAddr>>>,
    /// Per-UA ring into the IA tier (kept so respawned IA instances can
    /// be readmitted into the rings the UA services are using).
    ua_ia_balancers: Vec<Arc<SocketBalancer>>,
    /// Per-IA ring into the LRS tier.
    ia_lrs_balancers: Vec<Arc<SocketBalancer>>,
    /// Per-IA circuit breaker on the LRS tier, of the slot's current
    /// incarnation (a respawned instance starts with a closed one).
    ia_breakers: Arc<Mutex<Vec<Arc<CircuitBreaker>>>>,
    /// Pseudonym→shard router shared by the IA tier (`None` unless
    /// `config.lrs_sharded`). Shared state: survives IA respawns, so its
    /// per-shard aggregates span the deployment's lifetime.
    shard_router: Option<Arc<ShardRouter>>,
    /// Per-UA ground-truth departure logs (empty unless
    /// `config.linkage_audit`); survive instance respawns.
    linkage_audits: Vec<Arc<LinkageAudit>>,
    /// Per-node metrics hubs, one per instance slot. Unlike the servers
    /// they accumulate across respawns: a rebuilt instance is handed the
    /// same hub, so a scrape of the new socket still reports the node's
    /// whole history (including the probe failures that got it killed).
    ua_metrics: Vec<Arc<NodeMetrics>>,
    ia_metrics: Vec<Arc<NodeMetrics>>,
    lrs_metrics: Vec<Arc<NodeMetrics>>,
    supervisor: Option<Supervisor>,
    /// Recoveries performed by supervisors already replaced (the
    /// supervisor is swapped out during an atomic layer kill).
    prior_respawns: u64,
    prior_events: Vec<RespawnEvent>,
    client_seed: u64,
}

impl std::fmt::Debug for LoopbackCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopbackCluster")
            .field("ua", &self.ua_addrs.len())
            .field("ia", &self.ia_addrs.len())
            .field("lrs", &self.lrs_addrs.len())
            .field("supervised", &self.supervisor.is_some())
            .finish()
    }
}

impl LoopbackCluster {
    /// Boots the chain around one shared REST handler — the common case
    /// where the LRS backing state lives in memory and instances are
    /// plain front-ends over it.
    ///
    /// # Errors
    ///
    /// Socket errors from server spawning; [`PProxError`] from
    /// attestation/provisioning.
    pub fn launch(config: ClusterConfig, rest: Arc<dyn RestHandler>) -> Result<Self, PProxError> {
        Self::launch_with_factory(config, Arc::new(move |_i| LrsInstance::plain(rest.clone())))
    }

    /// Boots the chain with an LRS boot factory. The factory is invoked
    /// once per LRS instance at launch and again on every supervised
    /// respawn — a durable factory (one that opens a sealed store and
    /// replays its WAL) makes the whole LRS layer crash-recoverable:
    /// `kill -9` the layer, and the supervisor rebuilds it from disk.
    ///
    /// # Errors
    ///
    /// Socket errors from server spawning; [`PProxError`] from
    /// attestation/provisioning.
    pub fn launch_with_factory(
        config: ClusterConfig,
        factory: LrsFactory,
    ) -> Result<Self, PProxError> {
        let config = config.validated();
        let mut rng = SecureRng::from_seed(config.seed);
        let platform = Platform::new(&mut rng);
        let provisioner = Arc::new(KeyProvisioner::generate(config.modulus_bits, &mut rng));
        let telemetry = Arc::new(Telemetry::new(TelemetryConfig::default()));
        let options = IaOptions {
            encryption: config.encryption,
            item_pseudonymization: config.item_pseudonymization,
        };
        let client_config = client_config_for(&config.resilience);

        let spawn_err = |e: std::io::Error| {
            let _ = e;
            PProxError::Unavailable
        };

        // One shared `Telemetry` serves the whole chain, so every node
        // advertises the same non-zero telemetry group: the cluster
        // scraper deduplicates the shared stage histograms instead of
        // triple-counting them.
        let telemetry_group = (config.seed as u32) | 1;
        let node_metrics = |tier: &'static str, index: usize| {
            let m = Arc::new(NodeMetrics::new(tier, index, telemetry_group));
            m.attach_telemetry(telemetry.clone());
            m
        };
        let with_metrics = |base: &ServerConfig, m: &Arc<NodeMetrics>| {
            let mut cfg = base.clone();
            cfg.metrics = Some(m.clone());
            cfg
        };

        // LRS tier: slot i is shard i when sharded (the shared router
        // below maps pseudonyms to these slot indices).
        let mut lrs_servers = Vec::new();
        let mut lrs_metrics = Vec::new();
        for i in 0..config.lrs_instances {
            let metrics = node_metrics("lrs", i);
            let instance = factory(i);
            if let Some(gauges) = instance.shard_gauges.clone() {
                metrics.attach_shard_gauges(gauges);
            }
            let service: Arc<dyn Service> = Arc::new(LrsWireService::new(instance.handler));
            lrs_servers.push(Some(
                WireServer::spawn(service, with_metrics(&config.server, &metrics))
                    .map_err(spawn_err)?,
            ));
            lrs_metrics.push(metrics);
        }
        let lrs_addrs: Vec<Arc<Mutex<SocketAddr>>> = lrs_servers
            .iter()
            .map(|s| Arc::new(Mutex::new(s.as_ref().expect("just spawned").local_addr())))
            .collect();
        let lrs_addr_list: Vec<SocketAddr> = lrs_addrs.iter().map(|a| *a.lock()).collect();

        // One router shared by every IA instance (and their respawns):
        // its per-shard aggregates then cover the whole tier, which is
        // what the shard-skew audit scores.
        let shard_router = config
            .lrs_sharded
            .then(|| Arc::new(ShardRouter::new(config.lrs_instances, config.shard_vnodes)));

        // IA tier: per-instance enclave, breaker, and LRS uplink.
        let mut ia_servers = Vec::new();
        let mut ia_lrs_balancers = Vec::new();
        let mut ia_breakers = Vec::new();
        let mut ia_metrics = Vec::new();
        for i in 0..config.ia_instances {
            let metrics = node_metrics("ia", i);
            let enclave = platform.load_enclave::<IaState>(IA_CODE_IDENTITY);
            provisioner.provision_ia(&platform, &enclave)?;
            let lrs_balancer = Arc::new(SocketBalancer::new(
                &lrs_addr_list,
                config.policy,
                client_config.clone(),
                config.seed ^ (0x1a00 + i as u64),
            ));
            metrics.attach_uplink(lrs_balancer.clone());
            let service = Arc::new(IaWireService::new(
                enclave,
                lrs_balancer.clone(),
                shard_router.clone(),
                options,
                config.resilience.clone(),
                telemetry.clone(),
                config.seed ^ (0x1a10 + i as u64),
            ));
            ia_breakers.push(service.breaker());
            ia_servers.push(Some(
                WireServer::spawn(service, with_metrics(&config.server, &metrics))
                    .map_err(spawn_err)?,
            ));
            ia_lrs_balancers.push(lrs_balancer);
            ia_metrics.push(metrics);
        }
        let ia_addrs: Vec<Arc<Mutex<SocketAddr>>> = ia_servers
            .iter()
            .map(|s| Arc::new(Mutex::new(s.as_ref().expect("just spawned").local_addr())))
            .collect();
        let ia_addr_list: Vec<SocketAddr> = ia_addrs.iter().map(|a| *a.lock()).collect();

        // UA tier: per-instance enclave, IA uplink, and shuffle stage.
        let mut ua_servers = Vec::new();
        let mut ua_ia_balancers = Vec::new();
        let linkage_audits: Vec<Arc<LinkageAudit>> = if config.linkage_audit {
            (0..config.ua_instances)
                .map(|_| Arc::new(LinkageAudit::new()))
                .collect()
        } else {
            Vec::new()
        };
        let mut ua_metrics = Vec::new();
        for i in 0..config.ua_instances {
            let metrics = node_metrics("ua", i);
            let enclave = platform.load_enclave::<UaState>(UA_CODE_IDENTITY);
            provisioner.provision_ua(&platform, &enclave)?;
            let ia_balancer = Arc::new(SocketBalancer::new(
                &ia_addr_list,
                config.policy,
                client_config.clone(),
                config.seed ^ (0x0a00 + i as u64),
            ));
            metrics.attach_uplink(ia_balancer.clone());
            let service: Arc<dyn Service> = Arc::new(UaWireService::new(
                enclave,
                ia_balancer.clone(),
                UaServiceOptions {
                    encryption: config.encryption,
                    shuffle: config.shuffle,
                    shuffle_order_ablation: config.shuffle_order_ablation,
                    audit: linkage_audits.get(i).cloned(),
                    metrics: Some(metrics.clone()),
                },
                telemetry.clone(),
                config.seed ^ (0x0a10 + i as u64),
            ));
            ua_servers.push(Some(
                WireServer::spawn(service, with_metrics(&config.server, &metrics))
                    .map_err(spawn_err)?,
            ));
            ua_ia_balancers.push(ia_balancer);
            ua_metrics.push(metrics);
        }
        let ua_addrs: Vec<Arc<Mutex<SocketAddr>>> = ua_servers
            .iter()
            .map(|s| Arc::new(Mutex::new(s.as_ref().expect("just spawned").local_addr())))
            .collect();
        let ua_addr_list: Vec<SocketAddr> = ua_addrs.iter().map(|a| *a.lock()).collect();

        // Front door: what the paper's kube-proxy Service does for
        // user-library traffic.
        let frontend = Arc::new(SocketBalancer::new(
            &ua_addr_list,
            config.policy,
            client_config,
            config.seed ^ 0xf00d,
        ));

        let mut cluster = LoopbackCluster {
            client_seed: config.seed ^ 0xc11e,
            config,
            platform,
            provisioner,
            telemetry,
            factory,
            frontend,
            ua_servers: Arc::new(Mutex::new(ua_servers)),
            ia_servers: Arc::new(Mutex::new(ia_servers)),
            lrs_servers: Arc::new(Mutex::new(lrs_servers)),
            ua_addrs,
            ia_addrs,
            lrs_addrs,
            ua_ia_balancers,
            ia_lrs_balancers,
            ia_breakers: Arc::new(Mutex::new(ia_breakers)),
            shard_router,
            linkage_audits,
            ua_metrics,
            ia_metrics,
            lrs_metrics,
            supervisor: None,
            prior_respawns: 0,
            prior_events: Vec::new(),
        };
        if cluster.config.supervisor {
            cluster.supervisor = Some(Supervisor::spawn(
                cluster.config.supervise,
                cluster.watched_slots(),
            ));
        }
        Ok(cluster)
    }

    /// Builds the supervisor's slot list: every instance of every tier,
    /// each with a respawn closure that rebuilds the instance and
    /// readmits it to the upstream ring(s).
    fn watched_slots(&self) -> Vec<WatchedSlot> {
        let mut slots = Vec::new();
        for (i, addr) in self.lrs_addrs.iter().enumerate() {
            slots.push(WatchedSlot {
                tier: "lrs",
                index: i,
                addr: addr.clone(),
                healthy: {
                    let servers = self.lrs_servers.clone();
                    Box::new(move || slot_healthy(&servers, i))
                },
                respawn: self.lrs_respawn(i),
                metrics: Some(self.lrs_metrics[i].clone()),
            });
        }
        for (i, addr) in self.ia_addrs.iter().enumerate() {
            slots.push(WatchedSlot {
                tier: "ia",
                index: i,
                addr: addr.clone(),
                healthy: {
                    let servers = self.ia_servers.clone();
                    Box::new(move || slot_healthy(&servers, i))
                },
                respawn: self.ia_respawn(i),
                metrics: Some(self.ia_metrics[i].clone()),
            });
        }
        for (i, addr) in self.ua_addrs.iter().enumerate() {
            slots.push(WatchedSlot {
                tier: "ua",
                index: i,
                addr: addr.clone(),
                healthy: {
                    let servers = self.ua_servers.clone();
                    Box::new(move || slot_healthy(&servers, i))
                },
                respawn: self.ua_respawn(i),
                metrics: Some(self.ua_metrics[i].clone()),
            });
        }
        slots
    }

    fn lrs_respawn(&self, index: usize) -> RespawnFn {
        let factory = self.factory.clone();
        let servers = self.lrs_servers.clone();
        let metrics = self.lrs_metrics[index].clone();
        let mut server_cfg = self.config.server.clone();
        server_cfg.metrics = Some(metrics.clone());
        let ia_rings = self.ia_lrs_balancers.clone();
        Box::new(move || {
            // The factory decides what "rebuild" means: a shared
            // in-memory handler is simply re-used; a durable factory
            // unseals and replays from disk when the old handler died
            // with its servers. A sharded factory rebuilds *this*
            // partition only — slot index is shard id, and the
            // `replace_backend` below readmits it under that id, so
            // sibling shards are never re-keyed.
            let instance = factory(index);
            if let Some(gauges) = instance.shard_gauges.clone() {
                metrics.attach_shard_gauges(gauges);
            }
            let service: Arc<dyn Service> = Arc::new(LrsWireService::new(instance.handler));
            let server = WireServer::spawn(service, server_cfg.clone()).ok()?;
            let addr = server.local_addr();
            let replaced = install(&servers, index, server);
            for ring in &ia_rings {
                ring.replace_backend(index, addr);
            }
            drop(replaced);
            Some(addr)
        })
    }

    fn ia_respawn(&self, index: usize) -> RespawnFn {
        let platform = self.platform.clone();
        let provisioner = self.provisioner.clone();
        let telemetry = self.telemetry.clone();
        let servers = self.ia_servers.clone();
        let mut server_cfg = self.config.server.clone();
        server_cfg.metrics = Some(self.ia_metrics[index].clone());
        let lrs_balancer = self.ia_lrs_balancers[index].clone();
        let ua_rings = self.ua_ia_balancers.clone();
        let options = IaOptions {
            encryption: self.config.encryption,
            item_pseudonymization: self.config.item_pseudonymization,
        };
        let resilience = self.config.resilience.clone();
        let seed = self.config.seed ^ (0x1a10 + index as u64);
        let router = self.shard_router.clone();
        let breakers = self.ia_breakers.clone();
        Box::new(move || {
            let enclave = platform.load_enclave::<IaState>(IA_CODE_IDENTITY);
            provisioner.provision_ia(&platform, &enclave).ok()?;
            let service = Arc::new(IaWireService::new(
                enclave,
                lrs_balancer.clone(),
                router.clone(),
                options,
                resilience.clone(),
                telemetry.clone(),
                seed,
            ));
            breakers.lock()[index] = service.breaker();
            let server = WireServer::spawn(service, server_cfg.clone()).ok()?;
            let addr = server.local_addr();
            let replaced = install(&servers, index, server);
            for ring in &ua_rings {
                ring.replace_backend(index, addr);
            }
            drop(replaced);
            Some(addr)
        })
    }

    fn ua_respawn(&self, index: usize) -> RespawnFn {
        let platform = self.platform.clone();
        let provisioner = self.provisioner.clone();
        let telemetry = self.telemetry.clone();
        let servers = self.ua_servers.clone();
        let mut server_cfg = self.config.server.clone();
        server_cfg.metrics = Some(self.ua_metrics[index].clone());
        let ia_balancer = self.ua_ia_balancers[index].clone();
        let frontend = self.frontend.clone();
        let options = UaServiceOptions {
            encryption: self.config.encryption,
            shuffle: self.config.shuffle,
            shuffle_order_ablation: self.config.shuffle_order_ablation,
            audit: self.linkage_audits.get(index).cloned(),
            metrics: Some(self.ua_metrics[index].clone()),
        };
        let seed = self.config.seed ^ (0x0a10 + index as u64);
        Box::new(move || {
            let enclave = platform.load_enclave::<UaState>(UA_CODE_IDENTITY);
            provisioner.provision_ua(&platform, &enclave).ok()?;
            let service: Arc<dyn Service> = Arc::new(UaWireService::new(
                enclave,
                ia_balancer.clone(),
                options.clone(),
                telemetry.clone(),
                seed,
            ));
            let server = WireServer::spawn(service, server_cfg.clone()).ok()?;
            let addr = server.local_addr();
            let replaced = install(&servers, index, server);
            frontend.replace_backend(index, addr);
            drop(replaced);
            Some(addr)
        })
    }

    /// A fresh user-side library instance bound to this deployment's
    /// public keys.
    pub fn client(&mut self) -> UserClient {
        self.client_seed = self.client_seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let keys = self.provisioner.client_keys();
        if self.config.encryption {
            UserClient::new(keys, self.client_seed)
        } else {
            UserClient::new_passthrough(keys, self.client_seed)
        }
    }

    /// The chain-wide telemetry sink (stage histograms).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The simulated SGX platform hosting the proxy layers' enclaves —
    /// the fault drills' crash-injection handle.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The shared pseudonym→shard router, when the LRS tier is sharded.
    /// Audits read its per-shard route-count aggregates.
    pub fn shard_router(&self) -> Option<&Arc<ShardRouter>> {
        self.shard_router.as_ref()
    }

    /// UA front-door addresses (for external drivers).
    pub fn ua_addrs(&self) -> Vec<SocketAddr> {
        self.ua_addrs.iter().map(|a| *a.lock()).collect()
    }

    /// IA tier addresses — where a scenario harness points its recording
    /// taps before rerouting a UA's uplink through them.
    pub fn ia_addrs(&self) -> Vec<SocketAddr> {
        self.ia_addrs.iter().map(|a| *a.lock()).collect()
    }

    /// LRS tier addresses.
    pub fn lrs_addrs(&self) -> Vec<SocketAddr> {
        self.lrs_addrs.iter().map(|a| *a.lock()).collect()
    }

    /// Every node of the cluster as a scrape target — `("ua0", addr)`
    /// and so on, reading each slot's *current* address so a
    /// [`crate::scrape::ClusterScraper`] keeps working across respawns.
    pub fn scrape_targets(&self) -> Vec<(String, SocketAddr)> {
        let mut targets = Vec::new();
        for (tier, addrs) in [
            ("ua", &self.ua_addrs),
            ("ia", &self.ia_addrs),
            ("lrs", &self.lrs_addrs),
        ] {
            for (i, addr) in addrs.iter().enumerate() {
                targets.push((format!("{tier}{i}"), *addr.lock()));
            }
        }
        targets
    }

    /// The per-node metrics hubs, in `scrape_targets()` order — the
    /// in-process view of what a wire scrape of each node would report.
    pub fn node_metrics(&self) -> Vec<Arc<NodeMetrics>> {
        self.ua_metrics
            .iter()
            .chain(&self.ia_metrics)
            .chain(&self.lrs_metrics)
            .cloned()
            .collect()
    }

    /// Per-UA ground-truth departure logs (empty unless the cluster was
    /// launched with `linkage_audit`).
    pub fn linkage_audits(&self) -> Vec<Arc<LinkageAudit>> {
        self.linkage_audits.clone()
    }

    /// Requests currently inside one UA server's admission gate. A
    /// request dwelling in the shuffle buffer (or waiting on the IA)
    /// holds its permit until it is answered, so this is the
    /// deadline-polling signal for "N requests are buffered" — no sleeps
    /// needed.
    ///
    /// Returns 0 for a killed slot.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn ua_in_flight(&self, index: usize) -> usize {
        self.ua_servers.lock()[index]
            .as_ref()
            .map_or(0, WireServer::in_flight)
    }

    /// Socket-level counters of one UA server (shed counts for the
    /// Busy-abuse scenarios). `None` for a killed slot.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn ua_stats(&self, index: usize) -> Option<ServerStats> {
        self.ua_servers.lock()[index]
            .as_ref()
            .map(WireServer::stats)
    }

    /// One IA instance's circuit breaker on the LRS tier: its state, how
    /// often it opened, how many calls it shed.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn ia_breaker(&self, index: usize) -> Arc<CircuitBreaker> {
        self.ia_breakers.lock()[index].clone()
    }

    /// Reroutes one UA instance's uplink ring through interposed
    /// addresses (the scenario harness's recording taps): backend `j` of
    /// that UA's IA ring is replaced by `addrs[j]`. The tap processes
    /// must forward to the real IA addresses themselves.
    ///
    /// # Panics
    ///
    /// If `ua` is out of range or `addrs` does not cover the IA tier.
    pub fn reroute_ua_uplink(&self, ua: usize, addrs: &[SocketAddr]) {
        let ring = &self.ua_ia_balancers[ua];
        assert_eq!(
            addrs.len(),
            ring.len(),
            "tap address list must cover every IA backend"
        );
        for (j, addr) in addrs.iter().enumerate() {
            ring.replace_backend(j, *addr);
        }
    }

    /// Calls retried on another UA instance by the front door.
    pub fn frontend_failovers(&self) -> u64 {
        self.frontend.failovers()
    }

    /// Instances the supervisor has recovered (0 without a supervisor).
    pub fn respawns(&self) -> u64 {
        self.prior_respawns + self.supervisor.as_ref().map_or(0, Supervisor::respawns)
    }

    /// Every supervised recovery, in order.
    pub fn respawn_events(&self) -> Vec<RespawnEvent> {
        let mut events = self.prior_events.clone();
        if let Some(sup) = &self.supervisor {
            events.extend(sup.events());
        }
        events
    }

    /// Blocks until every instance of every tier passes the supervisor's
    /// probe (it is in its slot with what it needs to serve, and answers
    /// a TCP connect), or `timeout` elapses. Returns whether the chain is
    /// fully up — the post-kill barrier for recovery drills.
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        let end = Instant::now() + timeout;
        let probe = Duration::from_millis(150);
        loop {
            let all_up = [
                (&self.lrs_servers, &self.lrs_addrs),
                (&self.ia_servers, &self.ia_addrs),
                (&self.ua_servers, &self.ua_addrs),
            ]
            .iter()
            .all(|(servers, addrs)| {
                addrs
                    .iter()
                    .enumerate()
                    .all(|(i, addr)| slot_healthy(servers, i) && is_alive(*addr.lock(), probe))
            });
            if all_up {
                return true;
            }
            if Instant::now() >= end {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Sends a feedback post through the chain.
    ///
    /// # Errors
    ///
    /// [`PProxError`] mapped from the wire outcome.
    pub fn send_post(&self, envelope: &ClientEnvelope, budget: Deadline) -> Result<(), PProxError> {
        let frame = envelope.to_frame()?;
        self.frontend
            .call(&frame, budget)
            .map(|_ack| ())
            .map_err(|e| e.to_pprox())
    }

    /// Sends a recommendation get through the chain; the returned
    /// ciphertext opens with the ticket held by the issuing client.
    ///
    /// # Errors
    ///
    /// [`PProxError`] mapped from the wire outcome, or a malformed
    /// response frame.
    pub fn send_get(
        &self,
        envelope: &ClientEnvelope,
        budget: Deadline,
    ) -> Result<EncryptedList, PProxError> {
        let frame = envelope.to_frame()?;
        let payload = self
            .frontend
            .call(&frame, budget)
            .map_err(|e| e.to_pprox())?;
        EncryptedList::from_frame(&payload)
    }

    fn kill_slot(servers: &TierSlots, index: usize) {
        // Take the server out of its slot so every strong reference it
        // holds (service, handler, engine) is dropped — for a durable
        // LRS this is what makes a kill lose the in-memory state and
        // force disk recovery. The slot's lock is held until the server
        // is gone: the supervisor's health check waits the kill out, so
        // a respawn never finds the dying instance's handler still alive
        // and re-uses it.
        let mut servers = servers.lock();
        if let Some(mut server) = servers[index].take() {
            server.shutdown();
        }
    }

    /// Kills one UA instance mid-run (graceful: its shuffle buffers are
    /// drained so buffered requests are answered before the socket
    /// closes).
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn kill_ua(&self, index: usize) {
        Self::kill_slot(&self.ua_servers, index);
    }

    /// Kills one IA instance mid-run (drains its socket, keeps the rest
    /// of the chain up) — the reconnect/failover path's test hook.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn kill_ia(&self, index: usize) {
        Self::kill_slot(&self.ia_servers, index);
    }

    /// Kills one LRS instance mid-run.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn kill_lrs(&self, index: usize) {
        Self::kill_slot(&self.lrs_servers, index);
    }

    /// Kills the *entire* LRS layer — every instance, and with them every
    /// in-memory handler reference. With a durable boot factory and the
    /// supervisor on, the layer comes back by unsealing and replaying
    /// from disk.
    ///
    /// The supervisor is quiesced for the duration of the kill so the
    /// layer dies atomically: without this, the monitor could respawn the
    /// first instance while the second still holds the old in-memory
    /// handler alive, and the "recovered" layer would never touch disk.
    pub fn kill_lrs_layer(&mut self) {
        let supervised = match self.supervisor.take() {
            Some(mut sup) => {
                sup.stop();
                self.prior_respawns += sup.respawns();
                self.prior_events.extend(sup.events());
                true
            }
            None => false,
        };
        for index in 0..self.lrs_addrs.len() {
            Self::kill_slot(&self.lrs_servers, index);
        }
        if supervised {
            self.supervisor = Some(Supervisor::spawn(
                self.config.supervise,
                self.watched_slots(),
            ));
        }
    }

    /// Orderly teardown: supervisor first (so nothing resurrects), then
    /// UA tier (stops new chain traffic), then IA, then LRS. Idempotent.
    pub fn shutdown(&mut self) {
        if let Some(mut sup) = self.supervisor.take() {
            sup.stop();
        }
        for tier in [&self.ua_servers, &self.ia_servers, &self.lrs_servers] {
            let mut servers = tier.lock();
            for slot in servers.iter_mut() {
                if let Some(server) = slot.as_mut() {
                    server.shutdown();
                }
            }
        }
    }
}

impl Drop for LoopbackCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Derives the wire client tuning from the chain's resilience policy so
/// one knob set governs both transports.
fn client_config_for(resilience: &ResilienceConfig) -> ClientConfig {
    ClientConfig {
        max_retries: resilience.max_retries,
        retry_base: resilience.retry_base,
        retry_cap: resilience.retry_cap,
        seed: 0x5eed_c0de,
    }
}
