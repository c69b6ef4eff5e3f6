//! The loopback cluster harness: the full PProx chain over real TCP.
//!
//! [`LoopbackCluster::launch`] stands up 1–4 [`WireServer`] instances
//! per layer on `127.0.0.1`, bottom-up — the LRS tier, then the IA
//! instances (each with its own ring of pipelined connections into the
//! LRS tier and its own circuit breaker), then the UA instances (each
//! with its own ring into the IA tier and its own shuffle stage) — and a
//! client-side balancer over the UA tier standing in for the paper's
//! kube-proxy front door.
//!
//! A node of any tier has one lifecycle, and launch is its first turn:
//!
//! 1. **build** — the tier's one `build`: a fresh enclave, attested and
//!    provisioned, or the boot factory's handler (a durable LRS unseals
//!    its keys and replays its WAL), behind a new [`WireServer`].
//! 2. **install** — the server goes into its slot, its address on record.
//! 3. **readmit** — every upstream [`SocketBalancer`] ring swaps in the
//!    new address; the server it replaced, if any, is drained and dropped.
//! 4. **probe** — with `supervisor` on, a [`Supervisor`] thread checks
//!    each slot's listener and service ([`Platform::crash_layer`] makes a
//!    node as dead as a killed one); a failed probe runs 1–3 again.
//! 5. **kill** — `kill_*` empties the slot and shuts the server down,
//!    dropping everything it held.
//!
//! Every hop is a distinct socket with per-hop correlation ids, so the
//! request chain is never linkable end-to-end by transport metadata:
//! the only joinable state crosses the shuffle buffer, where ordering
//! is randomized (§4.3). While an instance is down, survivors carry
//! the load: a call's retry goes to the next slot of its ring, and an
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
use crate::server::{ServerConfig, Service, WireServer};
use crate::services::{IaWireService, LrsWireService, UaServiceOptions, UaWireService};
use crate::supervisor::{is_alive, RespawnEvent, Supervisor, WatchedSlot, PROBE_TIMEOUT};
use parking_lot::Mutex;
use pprox_core::ia::{IaOptions, IaState};
use pprox_core::keys::{KeyProvisioner, IA_CODE_IDENTITY, UA_CODE_IDENTITY};
use pprox_core::message::{ClientEnvelope, EncryptedList};
use pprox_core::resilience::{CircuitBreaker, Deadline, ResilienceConfig};
use pprox_core::shuffler::ShuffleConfig;
use pprox_core::telemetry::Telemetry;
use pprox_core::ua::UaState;
use pprox_core::{PProxError, UserClient};
use pprox_crypto::rng::SecureRng;
use pprox_lrs::shard::DEFAULT_VNODES;
use pprox_lrs::RestHandler;
use pprox_sgx::Platform;
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr};
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

/// Shape of one loopback deployment. Round-robin balancing, the shard
/// ring's [`DEFAULT_VNODES`] and the supervisor's probe cadence each only
/// ever had one value in use, so they are constants, not options.
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
    /// Run the kill/respawn/readmit supervisor over every instance.
    pub supervisor: bool,
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
            encryption: true,
            item_pseudonymization: true,
            shuffle: ShuffleConfig::disabled(),
            modulus_bits: 1152,
            resilience: ResilienceConfig::default(),
            server: ServerConfig::default(),
            supervisor: false,
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
        // The LRS tier scales past the proxy tiers when sharded: the
        // backend is the paper's horizontal-scale escape hatch (§3).
        let lrs_cap = if self.lrs_sharded { 8 } else { 4 };
        for (name, n, cap) in [
            ("ua_instances", self.ua_instances, 4),
            ("ia_instances", self.ia_instances, 4),
            ("lrs_instances", self.lrs_instances, lrs_cap),
        ] {
            assert!(
                (1..=cap).contains(&n),
                "{name} must be between 1 and {cap}, got {n}"
            );
        }
        self
    }
}

/// What every node of one deployment is built from.
struct Env {
    config: ClusterConfig,
    platform: Platform,
    provisioner: KeyProvisioner,
    telemetry: Arc<Telemetry>,
}

/// Builds the service for one slot of a tier, reporting into the slot's
/// hub: step 1 of the lifecycle, and the only code that constructs it.
type BuildFn = Box<
    dyn Fn(&Env, usize, &Arc<NodeMetrics>) -> Result<Arc<dyn Service>, PProxError> + Send + Sync,
>;

/// The address on record for a slot nothing has been built into yet.
const UNBOUND: SocketAddr = SocketAddr::new(std::net::IpAddr::V4(Ipv4Addr::LOCALHOST), 0);

/// One tier of the chain: its instance slots and how to fill them.
struct Tier {
    name: &'static str,
    env: Arc<Env>,
    /// A killed slot holds `None` until the supervisor (or teardown)
    /// deals with it.
    slots: Mutex<Vec<Option<WireServer>>>,
    /// Each slot's current address, kept across a kill for liveness
    /// probing and readmission bookkeeping.
    addrs: Vec<Arc<Mutex<SocketAddr>>>,
    /// Per-node metrics hubs. Unlike the servers they accumulate across
    /// respawns: a rebuilt instance is handed the same hub, so a scrape
    /// of the new socket still reports the node's whole history
    /// (including the probe failures that got it killed).
    metrics: Vec<Arc<NodeMetrics>>,
    /// The rings that route into this tier and must learn a respawned
    /// instance's address: one per node of the tier above, or the front
    /// door. Empty while the tier above does not exist yet.
    upstream: Vec<Arc<SocketBalancer>>,
    build: BuildFn,
}

impl Tier {
    /// A tier of `instances` slots, each built once. Node `i`'s hub reports
    /// the client counters of `uplinks[i]`, its ring into the tier below
    /// (the LRS has none). One shared `Telemetry` serves the whole chain,
    /// so every hub advertises the same non-zero telemetry group: the
    /// scraper deduplicates the stage histograms, not triple-counts them.
    fn launch(
        env: &Arc<Env>,
        name: &'static str,
        instances: usize,
        uplinks: &[Arc<SocketBalancer>],
        build: BuildFn,
    ) -> Result<Tier, PProxError> {
        let hub = |index| {
            let hub = NodeMetrics::new(name, index, (env.config.seed as u32) | 1);
            hub.attach_telemetry(env.telemetry.clone());
            if let Some(ring) = uplinks.get(index) {
                hub.attach_uplink(ring.clone());
            }
            Arc::new(hub)
        };
        let tier = Tier {
            name,
            env: env.clone(),
            slots: Mutex::new((0..instances).map(|_| None).collect()),
            addrs: (0..instances)
                .map(|_| Arc::new(Mutex::new(UNBOUND)))
                .collect(),
            metrics: (0..instances).map(hub).collect(),
            upstream: Vec::new(),
            build,
        };
        for index in 0..instances {
            tier.respawn(index).ok_or(PProxError::Unavailable)?;
        }
        Ok(tier)
    }

    /// Steps 1–3 of the lifecycle for one slot; the new address, or
    /// `None` — with the reason on stderr — when the node did not start.
    /// A slot index is an identity (shard id, ring position): the rings
    /// readmit the instance under it, so its siblings are never re-keyed.
    fn respawn(&self, index: usize) -> Option<SocketAddr> {
        let hub = &self.metrics[index];
        let start = || -> Result<WireServer, Box<dyn std::error::Error>> {
            let service = (self.build)(&self.env, index, hub)?;
            let config = ServerConfig {
                metrics: Some(hub.clone()),
                ..self.env.config.server.clone()
            };
            Ok(WireServer::spawn(service, config)?)
        };
        let server = start()
            .inspect_err(|e| eprintln!("pprox-wire: {}{index} failed to start: {e}", self.name))
            .ok()?;
        let addr = server.local_addr();
        // Whatever it replaces — still listening if it was replaced for
        // a crashed enclave — is dropped (a graceful shutdown) only once
        // the upstream rings point at the new address.
        let replaced = self.slots.lock()[index].replace(server);
        *self.addrs[index].lock() = addr;
        for ring in &self.upstream {
            ring.replace_backend(index, addr);
        }
        drop(replaced);
        Some(addr)
    }

    /// Whether the instance in a slot can still serve: it is there, and
    /// its service has what it needs (a proxy node, its enclave).
    fn healthy(&self, index: usize) -> bool {
        self.slots.lock()[index]
            .as_ref()
            .is_some_and(WireServer::healthy)
    }

    /// Step 5. Takes the server out of its slot so every strong
    /// reference it holds (service, handler, engine) is dropped — for a
    /// durable LRS this is what makes a kill lose the in-memory state
    /// and force disk recovery. The slot's lock is held until the server
    /// is gone: the supervisor's health check waits the kill out, so a
    /// respawn never finds the dying instance's handler still alive and
    /// re-uses it.
    fn kill(&self, index: usize) {
        let mut slots = self.slots.lock();
        if let Some(mut server) = slots[index].take() {
            server.shutdown();
        }
    }

    fn addr_list(&self) -> Vec<SocketAddr> {
        self.addrs.iter().map(|a| *a.lock()).collect()
    }

    /// `callers` rings into this tier, one for each node that calls it.
    /// The rings' retry loop takes its knobs from the chain's resilience
    /// policy, so one knob set governs every hop; each ring draws its own
    /// jitter.
    fn rings(&self, callers: usize) -> Vec<Arc<SocketBalancer>> {
        let (addrs, config) = (self.addr_list(), &self.env.config);
        let resilience = &config.resilience;
        (0..callers)
            .map(|caller| {
                let client = ClientConfig {
                    max_retries: resilience.max_retries,
                    retry_base: resilience.retry_base,
                    retry_cap: resilience.retry_cap,
                    seed: config.seed ^ (0x5eed_c0de + caller as u64),
                };
                Arc::new(SocketBalancer::new(&addrs, client))
            })
            .collect()
    }

    /// This tier's slots as the supervisor watches them.
    fn watched(self: &Arc<Self>) -> impl Iterator<Item = WatchedSlot> + '_ {
        (0..self.addrs.len()).map(move |index| {
            let (probed, rebuilt) = (self.clone(), self.clone());
            WatchedSlot {
                tier: self.name,
                index,
                addr: self.addrs[index].clone(),
                healthy: Box::new(move || probed.healthy(index)),
                respawn: Box::new(move || rebuilt.respawn(index)),
                metrics: Some(self.metrics[index].clone()),
            }
        })
    }
}

/// A running loopback deployment of the full chain.
pub struct LoopbackCluster {
    env: Arc<Env>,
    /// `ua.upstream` is the front door, `ia.upstream[i]` UA `i`'s ring
    /// and `lrs.upstream[i]` IA `i`'s.
    ua: Arc<Tier>,
    ia: Arc<Tier>,
    lrs: Arc<Tier>,
    /// Per-IA circuit breaker on the LRS tier, of the slot's current
    /// incarnation (a respawned instance starts with a closed one).
    ia_breakers: Arc<Mutex<HashMap<usize, Arc<CircuitBreaker>>>>,
    /// Pseudonym→shard router shared by the IA tier (`None` unless
    /// `config.lrs_sharded`). Shared state: survives IA respawns, so its
    /// per-shard aggregates span the deployment's lifetime.
    shard_router: Option<Arc<ShardRouter>>,
    /// Per-UA ground-truth departure logs (empty unless
    /// `config.linkage_audit`); survive instance respawns.
    linkage_audits: Vec<Arc<LinkageAudit>>,
    supervisor: Option<Supervisor>,
    /// Recoveries performed by supervisors already replaced (the
    /// supervisor is swapped out during an atomic layer kill).
    prior_events: Vec<RespawnEvent>,
    client_seed: u64,
}

impl std::fmt::Debug for LoopbackCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = f.debug_struct("LoopbackCluster");
        for tier in self.tiers() {
            out.field(tier.name, &tier.addrs.len());
        }
        out.field("supervised", &self.supervisor.is_some()).finish()
    }
}

impl LoopbackCluster {
    /// Boots the chain around one shared REST handler — the common case
    /// where the LRS backing state lives in memory and instances are
    /// plain front-ends over it.
    ///
    /// # Errors
    ///
    /// As [`LoopbackCluster::launch_with_factory`].
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
    /// [`PProxError::Unavailable`] when a node did not start; stderr
    /// names the node and the reason (a socket error from its server, or
    /// what attestation and provisioning refused).
    pub fn launch_with_factory(
        config: ClusterConfig,
        factory: LrsFactory,
    ) -> Result<Self, PProxError> {
        let config = config.validated();
        let mut rng = SecureRng::from_seed(config.seed);
        let platform = Platform::new(&mut rng);
        let provisioner = KeyProvisioner::generate(config.modulus_bits, &mut rng);
        let env = Arc::new(Env {
            telemetry: Arc::new(Telemetry::new()),
            platform,
            provisioner,
            config,
        });
        let config = &env.config;

        // LRS tier: slot i is shard i when sharded (the shared router
        // below maps pseudonyms to these slot indices). The factory
        // decides what "rebuild" means: a shared in-memory handler is
        // simply re-used; a durable factory unseals and replays from disk
        // when the old handler died with its servers; a sharded one
        // rebuilds *this* partition only.
        let build = move |_: &Env, index: usize, hub: &Arc<NodeMetrics>| {
            let instance = factory(index);
            if let Some(gauges) = instance.shard_gauges {
                hub.attach_shard_gauges(gauges);
            }
            Ok(Arc::new(LrsWireService::new(instance.handler)) as Arc<dyn Service>)
        };
        let mut lrs = Tier::launch(&env, "lrs", config.lrs_instances, &[], Box::new(build))?;

        // IA tier: per-instance enclave, breaker, and LRS uplink. One
        // router is shared by every IA instance (and their respawns): its
        // per-shard aggregates then cover the whole tier, which is what
        // the shard-skew audit scores.
        lrs.upstream = lrs.rings(config.ia_instances);
        let shard_router = config
            .lrs_sharded
            .then(|| Arc::new(ShardRouter::new(config.lrs_instances, DEFAULT_VNODES)));
        let ia_breakers: Arc<Mutex<HashMap<_, _>>> = Arc::default();
        let rings = lrs.upstream.clone();
        let (router, breakers) = (shard_router.clone(), ia_breakers.clone());
        let build = move |env: &Env, index: usize, _: &Arc<NodeMetrics>| {
            let config = &env.config;
            let enclave = env.platform.load_enclave::<IaState>(IA_CODE_IDENTITY);
            env.provisioner.provision_ia(&env.platform, &enclave)?;
            let service = Arc::new(IaWireService::new(
                enclave,
                rings[index].clone(),
                router.clone(),
                IaOptions {
                    encryption: config.encryption,
                    item_pseudonymization: config.item_pseudonymization,
                },
                config.resilience.clone(),
                env.telemetry.clone(),
            ));
            breakers.lock().insert(index, service.breaker());
            Ok(service as Arc<dyn Service>)
        };
        let mut ia = Tier::launch(
            &env,
            "ia",
            config.ia_instances,
            &lrs.upstream,
            Box::new(build),
        )?;

        // UA tier: per-instance enclave, IA uplink, and shuffle stage.
        ia.upstream = ia.rings(config.ua_instances);
        let linkage_audits: Vec<Arc<LinkageAudit>> = (0..config.ua_instances)
            .filter(|_| config.linkage_audit)
            .map(|_| Arc::new(LinkageAudit::new()))
            .collect();
        let (rings, audits) = (ia.upstream.clone(), linkage_audits.clone());
        let build = move |env: &Env, index: usize, hub: &Arc<NodeMetrics>| {
            let config = &env.config;
            let enclave = env.platform.load_enclave::<UaState>(UA_CODE_IDENTITY);
            env.provisioner.provision_ua(&env.platform, &enclave)?;
            Ok(Arc::new(UaWireService::new(
                enclave,
                rings[index].clone(),
                UaServiceOptions {
                    encryption: config.encryption,
                    shuffle: config.shuffle,
                    shuffle_order_ablation: config.shuffle_order_ablation,
                    audit: audits.get(index).cloned(),
                    metrics: Some(hub.clone()),
                },
                env.telemetry.clone(),
                config.seed ^ (0x0a10 + index as u64),
            )) as Arc<dyn Service>)
        };
        let mut ua = Tier::launch(
            &env,
            "ua",
            config.ua_instances,
            &ia.upstream,
            Box::new(build),
        )?;

        // Front door: what the paper's kube-proxy Service does for
        // user-library traffic.
        ua.upstream = ua.rings(1);

        let mut cluster = LoopbackCluster {
            client_seed: config.seed ^ 0xc11e,
            env,
            ua: Arc::new(ua),
            ia: Arc::new(ia),
            lrs: Arc::new(lrs),
            ia_breakers,
            shard_router,
            linkage_audits,
            supervisor: None,
            prior_events: Vec::new(),
        };
        if cluster.env.config.supervisor {
            cluster.supervisor = Some(cluster.supervise());
        }
        Ok(cluster)
    }

    /// The tiers in `scrape_targets()` order, which is also the order to
    /// stop them in.
    fn tiers(&self) -> [&Arc<Tier>; 3] {
        [&self.ua, &self.ia, &self.lrs]
    }

    /// A supervisor over every instance of every tier, bottom-up.
    fn supervise(&self) -> Supervisor {
        let tiers = [&self.lrs, &self.ia, &self.ua];
        Supervisor::spawn(tiers.into_iter().flat_map(Tier::watched).collect())
    }

    /// One call through the front door (`ua.upstream`'s only ring).
    fn call(&self, envelope: &ClientEnvelope, budget: Deadline) -> Result<Vec<u8>, PProxError> {
        self.ua.upstream[0]
            .call(&envelope.to_frame()?, budget)
            .map_err(|e| e.to_pprox())
    }

    /// A fresh user-side library instance bound to this deployment's
    /// public keys.
    pub fn client(&mut self) -> UserClient {
        self.client_seed = self.client_seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let keys = self.env.provisioner.client_keys();
        if self.env.config.encryption {
            UserClient::new(keys, self.client_seed)
        } else {
            UserClient::new_passthrough(keys, self.client_seed)
        }
    }

    /// The chain-wide telemetry sink (stage histograms).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.env.telemetry
    }

    /// The simulated SGX platform hosting the proxy layers' enclaves —
    /// the fault drills' crash-injection handle.
    pub fn platform(&self) -> &Platform {
        &self.env.platform
    }

    /// The shared pseudonym→shard router, when the LRS tier is sharded.
    /// Audits read its per-shard route-count aggregates.
    pub fn shard_router(&self) -> Option<&Arc<ShardRouter>> {
        self.shard_router.as_ref()
    }

    /// UA front-door addresses (for external drivers).
    pub fn ua_addrs(&self) -> Vec<SocketAddr> {
        self.ua.addr_list()
    }

    /// IA tier addresses — where a scenario harness points its recording
    /// taps before rerouting a UA's uplink through them.
    pub fn ia_addrs(&self) -> Vec<SocketAddr> {
        self.ia.addr_list()
    }

    /// Every node of the cluster as a scrape target — `("ua0", addr)`
    /// and so on, reading each slot's *current* address so a
    /// [`crate::scrape::ClusterScraper`] keeps working across respawns.
    pub fn scrape_targets(&self) -> Vec<(String, SocketAddr)> {
        let mut targets = Vec::new();
        for tier in self.tiers() {
            for (i, addr) in tier.addr_list().into_iter().enumerate() {
                targets.push((format!("{}{i}", tier.name), addr));
            }
        }
        targets
    }

    /// The per-node metrics hubs, in `scrape_targets()` order — the
    /// in-process view of what a wire scrape of each node would report.
    pub fn node_metrics(&self) -> Vec<Arc<NodeMetrics>> {
        self.tiers()
            .iter()
            .flat_map(|tier| tier.metrics.iter().cloned())
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
        self.ua.slots.lock()[index]
            .as_ref()
            .map_or(0, WireServer::in_flight)
    }

    /// One IA instance's circuit breaker on the LRS tier: its state, how
    /// often it opened, how many calls it shed.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn ia_breaker(&self, index: usize) -> Arc<CircuitBreaker> {
        self.ia_breakers.lock()[&index].clone()
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
        let ring = &self.ia.upstream[ua];
        assert_eq!(
            addrs.len(),
            ring.len(),
            "tap address list must cover every IA backend"
        );
        for (j, addr) in addrs.iter().enumerate() {
            ring.replace_backend(j, *addr);
        }
    }

    /// Instances the supervisor has recovered (0 without a supervisor).
    pub fn respawns(&self) -> u64 {
        self.respawn_events().len() as u64
    }

    /// Every supervised recovery, in order.
    pub fn respawn_events(&self) -> Vec<RespawnEvent> {
        let current = self.supervisor.iter().flat_map(Supervisor::events);
        self.prior_events.iter().cloned().chain(current).collect()
    }

    /// Blocks until every instance of every tier passes the supervisor's
    /// probe (it is in its slot with what it needs to serve, and answers
    /// a TCP connect), or `timeout` elapses. Returns whether the chain is
    /// fully up — the post-kill barrier for recovery drills.
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        let end = Instant::now() + timeout;
        let up = |tier: &&Arc<Tier>| {
            (0..tier.addrs.len())
                .all(|i| tier.healthy(i) && is_alive(*tier.addrs[i].lock(), PROBE_TIMEOUT))
        };
        while !self.tiers().iter().all(up) {
            if Instant::now() >= end {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        true
    }

    /// Sends a feedback post through the chain.
    ///
    /// # Errors
    ///
    /// [`PProxError`] mapped from the wire outcome.
    pub fn send_post(&self, envelope: &ClientEnvelope, budget: Deadline) -> Result<(), PProxError> {
        self.call(envelope, budget).map(|_ack| ())
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
        EncryptedList::from_frame(&self.call(envelope, budget)?)
    }

    /// Kills one UA instance mid-run (graceful: its shuffle buffers are
    /// drained so buffered requests are answered before the socket
    /// closes).
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn kill_ua(&self, index: usize) {
        self.ua.kill(index);
    }

    /// Kills one IA instance mid-run (drains its socket, keeps the rest
    /// of the chain up) — the reconnect/retry path's test hook.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn kill_ia(&self, index: usize) {
        self.ia.kill(index);
    }

    /// Kills one LRS instance mid-run.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn kill_lrs(&self, index: usize) {
        self.lrs.kill(index);
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
        let quiesced = self.supervisor.take().map(|mut sup| {
            sup.stop();
            self.prior_events.extend(sup.events());
        });
        for index in 0..self.lrs.addrs.len() {
            self.lrs.kill(index);
        }
        self.supervisor = quiesced.map(|()| self.supervise());
    }

    /// Orderly teardown: supervisor first (so nothing resurrects), then
    /// UA tier (stops new chain traffic), then IA, then LRS. Idempotent.
    pub fn shutdown(&mut self) {
        self.supervisor = None; // stopped by its drop
        for tier in self.tiers() {
            for server in tier.slots.lock().iter_mut().flatten() {
                server.shutdown();
            }
        }
    }
}

impl Drop for LoopbackCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
