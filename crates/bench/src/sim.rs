//! The simulated-cluster experiment engine behind every figure.
//!
//! Replaces the paper's 27-node testbed: UA/IA proxy nodes, LRS front-ends
//! and the stub server become queueing stations ([`pprox_net::Station`])
//! with service demands calibrated against this repository's real
//! implementation (see `benches/calibration.rs` and EXPERIMENTS.md);
//! shuffle buffers run on virtual time with the same
//! [`pprox_core::shuffler::ShuffleBuffer`] the serving chain uses — in
//! both directions, which is the paper's policy and what its figures
//! show: the serving chain answers a released batch through a
//! [`pprox_core::shuffler::Gather`] instead of a second buffer
//! (DESIGN.md §7.3), the simulator deliberately does not.
//!
//! One experiment = one (configuration, RPS) cell of a figure: drive an
//! open-loop `get` workload for a virtual duration, trim warm-up/cool-down
//! (§8), and return the candlestick of round-trip latencies.

use pprox_core::shuffler::{ShuffleBuffer, ShuffleConfig};
use pprox_net::lb::{BalancePolicy, LoadBalancer};
use pprox_net::link::Link;
use pprox_net::node::Station;
use pprox_net::service::{ServiceTime, SimRng};
use pprox_net::sim::Simulator;
use pprox_net::time::{SimDuration, SimTime};
use pprox_workload::injector::Schedule;
use pprox_workload::stats::LatencyRecorder;
use std::cell::RefCell;
use std::rc::Rc;

/// Per-request service demands, calibrated against the live implementation
/// (`cargo bench -p pprox-bench` reports the measured crypto and layer
/// costs; EXPERIMENTS.md maps them to these constants).
#[derive(Debug, Clone)]
pub struct ServiceCosts {
    /// Proxy-layer request-leg base demand (parse + route + forward).
    pub proxy_base_req: SimDuration,
    /// Proxy-layer response-leg base demand.
    pub proxy_base_resp: SimDuration,
    /// Extra request-leg demand when encryption is on (RSA decrypt +
    /// deterministic re-encryption).
    pub enc_extra_req: SimDuration,
    /// Extra response-leg demand when encryption is on (list encryption /
    /// forwarding of the encrypted blob).
    pub enc_extra_resp: SimDuration,
    /// Extra demand per leg when the layer runs inside SGX (world
    /// switches, EPC access).
    pub sgx_extra: SimDuration,
    /// Extra request-leg demand on the IA for item pseudonymization.
    pub item_pseudo_extra: SimDuration,
    /// Stub LRS (nginx) service time.
    pub stub_lrs: ServiceTime,
    /// Harness front-end service time (model lookup + scoring).
    pub harness_fe: ServiceTime,
}

impl Default for ServiceCosts {
    fn default() -> Self {
        ServiceCosts {
            proxy_base_req: SimDuration::from_micros(1_500),
            proxy_base_resp: SimDuration::from_micros(1_000),
            enc_extra_req: SimDuration::from_micros(2_000),
            enc_extra_resp: SimDuration::from_micros(500),
            sgx_extra: SimDuration::from_micros(600),
            item_pseudo_extra: SimDuration::from_micros(100),
            // §8.1: "Direct requests from the injector(s) to the stub have
            // a median latency of 1 to 2 ms".
            stub_lrs: ServiceTime::ShiftedExponential {
                floor: SimDuration::from_micros(1_000),
                tail_mean: SimDuration::from_micros(400),
            },
            // §8.2: "non-trivial reads to a shared database and complex
            // (pre-built) user models".
            // Calibrated so each 3-front-end step (6 cores) runs at ~92%
            // utilization at its Table 3 capacity: 6 cores / 250 RPS ×
            // 0.92 ≈ 22 ms mean demand.
            harness_fe: ServiceTime::ShiftedExponential {
                floor: SimDuration::from_micros(14_000),
                tail_mean: SimDuration::from_micros(8_000),
            },
        }
    }
}

/// Which LRS the proxy (or baseline client) talks to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LrsModel {
    /// The nginx-like static stub, never a bottleneck (micro-benchmarks).
    Stub,
    /// A Harness deployment with `frontends` 2-core front-end nodes
    /// (macro-benchmarks; Table 3).
    Harness {
        /// Front-end instance count (3, 6, 9, 12 for b1–b4).
        frontends: usize,
    },
}

/// Number of support nodes in every macro configuration (3× Elasticsearch,
/// 1× MongoDB + Spark).
const SUPPORT_NODES: usize = 4;

/// Front-end instances added per 250 RPS capacity step (Table 3).
const FRONTENDS_PER_STEP: usize = 3;

/// Sustainable throughput added by each front-end step, in requests/s.
const RPS_PER_STEP: f64 = 250.0;

/// A Harness deployment size, as in Table 3 (b1–b4): the node counts and
/// capacity of the paper's 3–12 front-end macro-benchmark deployments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessConfig {
    /// Number of front-end instances (3, 6, 9 or 12 in the paper).
    pub frontends: usize,
}

impl HarnessConfig {
    /// The paper's baseline configuration ids b1–b4.
    pub fn baseline(step: usize) -> Self {
        assert!((1..=4).contains(&step), "paper configurations are b1..b4");
        HarnessConfig {
            frontends: FRONTENDS_PER_STEP * step,
        }
    }

    /// Total nodes: front-ends + support (the "7: 3+4" notation of Table 3).
    pub fn node_count(&self) -> usize {
        self.frontends + SUPPORT_NODES
    }

    /// Maximum sustainable throughput before saturation, in requests/s.
    pub fn max_rps(&self) -> f64 {
        (self.frontends as f64 / FRONTENDS_PER_STEP as f64) * RPS_PER_STEP
    }

    /// Table 3 label ("b1".."b4") when this is a paper configuration.
    pub fn label(&self) -> String {
        format!("b{}", self.frontends / FRONTENDS_PER_STEP)
    }
}

/// Proxy-side parameters of an experiment (`None` = unprotected baseline).
#[derive(Debug, Clone, Copy)]
pub struct ProxySimConfig {
    /// Encryption on ("Enc." column of Table 2).
    pub encryption: bool,
    /// Item pseudonymization on (m4 turns it off).
    pub item_pseudonymization: bool,
    /// SGX enclaves on ("SGX" column).
    pub sgx: bool,
    /// Shuffle size `S` (`None` = off).
    pub shuffle_size: Option<usize>,
    /// Shuffle timer, microseconds.
    pub shuffle_timeout_us: u64,
    /// UA instances (2-core nodes).
    pub ua_instances: usize,
    /// IA instances (2-core nodes).
    pub ia_instances: usize,
}

impl ProxySimConfig {
    /// Builds the sim parameters for a Table 2 row (m1–m9).
    pub fn from_micro(m: &pprox_core::config::MicroConfig) -> Self {
        ProxySimConfig {
            encryption: m.encryption,
            item_pseudonymization: m.item_pseudonymization,
            sgx: m.sgx,
            shuffle_size: m.shuffle_size,
            shuffle_timeout_us: 500_000,
            ua_instances: m.ua,
            ia_instances: m.ia,
        }
    }
}

/// One experiment cell.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Proxy configuration; `None` runs the unprotected baseline.
    pub proxy: Option<ProxySimConfig>,
    /// LRS model.
    pub lrs: LrsModel,
    /// Fraction of requests that are `post` (feedback) rather than `get`.
    /// §8 measures `get` (the costlier call); footnote 9 reports posts
    /// follow the same trends with marginally lower latency.
    pub post_fraction: f64,
    /// Target request rate.
    pub rps: f64,
    /// Injection duration (virtual seconds).
    pub duration_secs: f64,
    /// Warm-up/cool-down trim (§8 uses 15 s on 5-minute runs; shorter
    /// runs scale it down).
    pub trim_secs: f64,
    /// Experiment seed.
    pub seed: u64,
    /// Service-demand calibration.
    pub costs: ServiceCosts,
}

impl ExperimentConfig {
    /// A standard cell: 40 virtual seconds, 5 s trim.
    pub fn new(proxy: Option<ProxySimConfig>, lrs: LrsModel, rps: f64, seed: u64) -> Self {
        ExperimentConfig {
            proxy,
            lrs,
            post_fraction: 0.0,
            rps,
            duration_secs: 40.0,
            trim_secs: 5.0,
            seed,
            costs: ServiceCosts::default(),
        }
    }
}

/// A wire hop a simulated message crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    /// Client → LRS, the unprotected baseline.
    Direct,
    /// Client → UA layer.
    ClientToUa,
    /// UA layer → IA layer.
    UaToIa,
    /// IA layer → LRS.
    IaToLrs,
    /// LRS → IA layer (response).
    LrsToIa,
    /// IA layer → UA layer (response).
    IaToUa,
    /// UA layer → client (response).
    UaToClient,
}

/// Result of one experiment cell.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Round-trip latencies (ms) within the measurement window.
    pub latencies: LatencyRecorder,
    /// Completed requests (including trimmed ones).
    pub completed: u64,
    /// Messages sent on each hop, indexed by `Hop as usize`.
    pub hops: [u64; 7],
}

#[derive(Clone, Copy)]
struct Msg {
    arrived_us: u64,
    /// `true` for post (feedback) requests; their response leg is a bare
    /// acknowledgement — no list decryption/re-encryption, smaller frame.
    is_post: bool,
}

struct Ctx {
    costs: ServiceCosts,
    proxy: Option<ProxySimConfig>,
    link: Link,
    ua_stations: Vec<Station>,
    ia_stations: Vec<Station>,
    lrs_stations: Vec<Station>,
    lrs_service: ServiceTime,
    ua_buffers: Vec<RefCell<ShuffleBuffer<Msg>>>,
    ia_resp_buffers: Vec<RefCell<ShuffleBuffer<Msg>>>,
    ua_lb: RefCell<LoadBalancer>,
    ia_lb: RefCell<LoadBalancer>,
    lrs_lb: RefCell<LoadBalancer>,
    rng: RefCell<SimRng>,
    recorder: RefCell<LatencyRecorder>,
    completed: RefCell<u64>,
    hops: RefCell<[u64; 7]>,
    window: (u64, u64),
    request_frame: usize,
    response_frame: usize,
}

impl Ctx {
    fn demand_req(&self, ia_leg: bool) -> SimDuration {
        let p = self.proxy.expect("proxy leg requires proxy config");
        let mut d = self.costs.proxy_base_req;
        if p.encryption {
            d = d + self.costs.enc_extra_req;
        }
        if p.sgx {
            d = d + self.costs.sgx_extra;
        }
        if ia_leg && p.encryption && p.item_pseudonymization {
            d = d + self.costs.item_pseudo_extra;
        }
        d
    }

    fn demand_resp(&self, is_post: bool) -> SimDuration {
        let p = self.proxy.expect("proxy leg requires proxy config");
        let mut d = self.costs.proxy_base_resp;
        if p.encryption && !is_post {
            // Post responses are plain acknowledgements: no recommendation
            // list to decrypt, pad, and re-encrypt under k_u.
            d = d + self.costs.enc_extra_resp;
        }
        if p.sgx {
            d = d + self.costs.sgx_extra;
        }
        d
    }

    fn response_frame_for(&self, is_post: bool) -> usize {
        if is_post {
            // HTTP 200 acknowledgement, padded to the request frame size.
            self.request_frame
        } else {
            self.response_frame
        }
    }

    fn count(&self, hop: Hop) {
        self.hops.borrow_mut()[hop as usize] += 1;
    }

    fn record_completion(&self, now: SimTime, msg: &Msg) {
        *self.completed.borrow_mut() += 1;
        if msg.arrived_us >= self.window.0 && msg.arrived_us <= self.window.1 {
            let latency_ms = (now.as_micros() - msg.arrived_us) as f64 / 1_000.0;
            self.recorder.borrow_mut().record(latency_ms);
        }
    }
}

/// Runs one experiment cell to completion.
pub fn run_experiment(config: &ExperimentConfig) -> ExperimentResult {
    let schedule = Schedule::new(config.rps, config.duration_secs, config.seed);
    let window = schedule.trim_bounds(config.trim_secs);

    let (lrs_stations, lrs_service) = match config.lrs {
        LrsModel::Stub => (vec![Station::new("stub", 32)], config.costs.stub_lrs),
        LrsModel::Harness { frontends } => (
            (0..frontends)
                .map(|i| Station::new(format!("lrs-fe-{i}"), 2))
                .collect(),
            config.costs.harness_fe,
        ),
    };

    let (ua_n, ia_n, shuffle) = match config.proxy {
        Some(p) => (
            p.ua_instances.max(1),
            p.ia_instances.max(1),
            match p.shuffle_size {
                Some(s) => ShuffleConfig {
                    size: s,
                    timeout_us: p.shuffle_timeout_us,
                },
                None => ShuffleConfig::disabled(),
            },
        ),
        None => (0, 0, ShuffleConfig::disabled()),
    };

    let ctx = Rc::new(Ctx {
        costs: config.costs.clone(),
        proxy: config.proxy,
        link: Link::lan(),
        ua_stations: (0..ua_n)
            .map(|i| Station::new(format!("ua-{i}"), 2))
            .collect(),
        ia_stations: (0..ia_n)
            .map(|i| Station::new(format!("ia-{i}"), 2))
            .collect(),
        lrs_lb: RefCell::new(LoadBalancer::new(
            BalancePolicy::RoundRobin,
            lrs_stations.len(),
        )),
        lrs_stations,
        lrs_service,
        ua_buffers: (0..ua_n)
            .map(|i| RefCell::new(ShuffleBuffer::new(shuffle, config.seed ^ (i as u64) << 8)))
            .collect(),
        ia_resp_buffers: (0..ia_n)
            .map(|i| {
                RefCell::new(ShuffleBuffer::new(
                    shuffle,
                    config.seed ^ 0xff00 ^ (i as u64) << 8,
                ))
            })
            .collect(),
        ua_lb: RefCell::new(LoadBalancer::new(BalancePolicy::Random, ua_n.max(1))),
        ia_lb: RefCell::new(LoadBalancer::new(BalancePolicy::Random, ia_n.max(1))),
        rng: RefCell::new(SimRng::from_seed(config.seed ^ 0xc0de)),
        recorder: RefCell::new(LatencyRecorder::new()),
        completed: RefCell::new(0),
        hops: RefCell::new([0; 7]),
        window,
        request_frame: pprox_core::message::REQUEST_FRAME_LEN,
        response_frame: pprox_core::message::RESPONSE_FRAME_LEN,
    });

    let mut sim = Simulator::new();
    let mut kind_rng = SimRng::from_seed(config.seed ^ 0x9057);
    let post_fraction = config.post_fraction;
    for &at_us in &schedule.arrivals_us {
        let ctx = ctx.clone();
        let is_post = kind_rng.unit() < post_fraction;
        sim.schedule_at(
            SimTime(at_us),
            Box::new(move |sim| arrive(sim, ctx, is_post)),
        );
    }
    sim.run();

    let ctx = Rc::try_unwrap(ctx).map_err(|_| ()).expect("sim drained");
    ExperimentResult {
        latencies: ctx.recorder.into_inner(),
        completed: ctx.completed.into_inner(),
        hops: ctx.hops.into_inner(),
    }
}

/// A request arrives from a client.
fn arrive(sim: &mut Simulator, ctx: Rc<Ctx>, is_post: bool) {
    let arrived_us = sim.now().as_micros();
    let msg = Msg {
        arrived_us,
        is_post,
    };
    if ctx.proxy.is_none() {
        // Unprotected baseline: client → LRS → client.
        ctx.count(Hop::Direct);
        let c = ctx.clone();
        ctx.link.send(
            sim,
            ctx.request_frame,
            Box::new(move |sim| lrs_submit_baseline(sim, c, msg)),
        );
        return;
    }
    let ua = ctx.ua_lb.borrow_mut().pick(&mut ctx.rng.borrow_mut());
    ctx.count(Hop::ClientToUa);
    let c = ctx.clone();
    ctx.link.send(
        sim,
        ctx.request_frame,
        Box::new(move |sim| ua_ingest(sim, c, ua, msg)),
    );
}

/// UA server: shuffle buffering of requests (§4.3).
fn ua_ingest(sim: &mut Simulator, ctx: Rc<Ctx>, ua: usize, msg: Msg) {
    let now_us = sim.now().as_micros();
    let (flush, schedule_timer) = {
        let mut buffer = ctx.ua_buffers[ua].borrow_mut();
        let was_empty = buffer.is_empty();
        let flush = buffer.push(now_us, msg);
        let timer = flush.is_none() && was_empty && !buffer.config().is_disabled();
        (flush, timer)
    };
    if let Some(flush) = flush {
        for item in flush.items {
            ua_work(sim, ctx.clone(), ua, item);
        }
    } else if schedule_timer {
        let deadline = ctx.ua_buffers[ua].borrow().deadline_us();
        if let Some(deadline) = deadline {
            let c = ctx.clone();
            sim.schedule_at(
                SimTime(deadline),
                Box::new(move |sim| {
                    let flush = c.ua_buffers[ua]
                        .borrow_mut()
                        .poll_timeout(sim.now().as_micros());
                    if let Some(flush) = flush {
                        for item in flush.items {
                            ua_work(sim, c.clone(), ua, item);
                        }
                    }
                }),
            );
        }
    }
}

/// UA data processing (enclave leg), then forward to a random IA.
fn ua_work(sim: &mut Simulator, ctx: Rc<Ctx>, ua: usize, msg: Msg) {
    let demand = ctx.demand_req(false);
    let c = ctx.clone();
    ctx.ua_stations[ua].submit(
        sim,
        demand,
        Box::new(move |sim| {
            let ia = c.ia_lb.borrow_mut().pick(&mut c.rng.borrow_mut());
            c.count(Hop::UaToIa);
            let c2 = c.clone();
            c.link.send(
                sim,
                c.request_frame,
                Box::new(move |sim| ia_work(sim, c2, ia, msg)),
            );
        }),
    );
}

/// IA data processing (enclave leg), then the LRS call.
fn ia_work(sim: &mut Simulator, ctx: Rc<Ctx>, ia: usize, msg: Msg) {
    let demand = ctx.demand_req(true);
    let c = ctx.clone();
    ctx.ia_stations[ia].submit(
        sim,
        demand,
        Box::new(move |sim| {
            let lrs = c.lrs_lb.borrow_mut().pick(&mut c.rng.borrow_mut());
            c.count(Hop::IaToLrs);
            let c2 = c.clone();
            c.link.send(
                sim,
                c.request_frame,
                Box::new(move |sim| lrs_submit(sim, c2, lrs, ia, msg)),
            );
        }),
    );
}

/// LRS service, then the response goes back to the same IA instance.
fn lrs_submit(sim: &mut Simulator, ctx: Rc<Ctx>, lrs: usize, ia: usize, msg: Msg) {
    let demand = ctx.lrs_service.sample(&mut ctx.rng.borrow_mut());
    let c = ctx.clone();
    ctx.lrs_stations[lrs].submit(
        sim,
        demand,
        Box::new(move |sim| {
            let frame = c.response_frame_for(msg.is_post);
            c.count(Hop::LrsToIa);
            let c2 = c.clone();
            c.link.send(
                sim,
                frame,
                Box::new(move |sim| ia_response(sim, c2, ia, msg)),
            );
        }),
    );
}

/// IA response leg: decrypt/pad/encrypt, then the response shuffle buffer.
fn ia_response(sim: &mut Simulator, ctx: Rc<Ctx>, ia: usize, msg: Msg) {
    let demand = ctx.demand_resp(msg.is_post);
    let c = ctx.clone();
    ctx.ia_stations[ia].submit(
        sim,
        demand,
        Box::new(move |sim| {
            let now_us = sim.now().as_micros();
            let (flush, schedule_timer) = {
                let mut buffer = c.ia_resp_buffers[ia].borrow_mut();
                let was_empty = buffer.is_empty();
                let flush = buffer.push(now_us, msg);
                let timer = flush.is_none() && was_empty && !buffer.config().is_disabled();
                (flush, timer)
            };
            if let Some(flush) = flush {
                for item in flush.items {
                    ia_forward_response(sim, c.clone(), item);
                }
            } else if schedule_timer {
                let deadline = c.ia_resp_buffers[ia].borrow().deadline_us();
                if let Some(deadline) = deadline {
                    let c2 = c.clone();
                    sim.schedule_at(
                        SimTime(deadline),
                        Box::new(move |sim| {
                            let flush = c2.ia_resp_buffers[ia]
                                .borrow_mut()
                                .poll_timeout(sim.now().as_micros());
                            if let Some(flush) = flush {
                                for item in flush.items {
                                    ia_forward_response(sim, c2.clone(), item);
                                }
                            }
                        }),
                    );
                }
            }
        }),
    );
}

/// Shuffled response leaves the IA toward a UA instance, which forwards it
/// to the client.
fn ia_forward_response(sim: &mut Simulator, ctx: Rc<Ctx>, msg: Msg) {
    let ua = ctx.ua_lb.borrow_mut().pick(&mut ctx.rng.borrow_mut());
    let frame = ctx.response_frame_for(msg.is_post);
    ctx.count(Hop::IaToUa);
    let c = ctx.clone();
    ctx.link.send(
        sim,
        frame,
        Box::new(move |sim| {
            let demand = c.demand_resp(msg.is_post);
            let c2 = c.clone();
            c.ua_stations[ua].submit(
                sim,
                demand,
                Box::new(move |sim| {
                    let frame = c2.response_frame_for(msg.is_post);
                    c2.count(Hop::UaToClient);
                    let c3 = c2.clone();
                    c2.link.send(
                        sim,
                        frame,
                        Box::new(move |sim| c3.record_completion(sim.now(), &msg)),
                    );
                }),
            );
        }),
    );
}

/// Baseline LRS call (no proxy).
fn lrs_submit_baseline(sim: &mut Simulator, ctx: Rc<Ctx>, msg: Msg) {
    let lrs = ctx.lrs_lb.borrow_mut().pick(&mut ctx.rng.borrow_mut());
    let demand = ctx.lrs_service.sample(&mut ctx.rng.borrow_mut());
    let c = ctx.clone();
    ctx.lrs_stations[lrs].submit(
        sim,
        demand,
        Box::new(move |sim| {
            let c2 = c.clone();
            c.link.send(
                sim,
                c.response_frame,
                Box::new(move |sim| c2.record_completion(sim.now(), &msg)),
            );
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_node_counts_and_rps() {
        // Table 3: b1=7 nodes/250 RPS … b4=16 nodes/1000 RPS.
        let expect = [
            (1, 7, 250.0),
            (2, 10, 500.0),
            (3, 13, 750.0),
            (4, 16, 1000.0),
        ];
        for (step, nodes, rps) in expect {
            let c = HarnessConfig::baseline(step);
            assert_eq!(c.node_count(), nodes);
            assert_eq!(c.max_rps(), rps);
            assert_eq!(c.label(), format!("b{step}"));
        }
    }

    #[test]
    #[should_panic(expected = "b1..b4")]
    fn invalid_baseline_step_panics() {
        let _ = HarnessConfig::baseline(5);
    }

    fn quick(
        proxy: Option<ProxySimConfig>,
        lrs: LrsModel,
        rps: f64,
        seed: u64,
    ) -> ExperimentResult {
        let mut cfg = ExperimentConfig::new(proxy, lrs, rps, seed);
        cfg.duration_secs = 10.0;
        cfg.trim_secs = 2.0;
        run_experiment(&cfg)
    }

    fn proxy_m3() -> ProxySimConfig {
        ProxySimConfig {
            encryption: true,
            item_pseudonymization: true,
            sgx: true,
            shuffle_size: None,
            shuffle_timeout_us: 500_000,
            ua_instances: 1,
            ia_instances: 1,
        }
    }

    #[test]
    fn baseline_stub_is_fast() {
        let r = quick(None, LrsModel::Stub, 100.0, 1);
        let c = r.latencies.candlestick().unwrap();
        assert!(c.median < 3.0, "stub median {}", c.median);
        assert_eq!(r.completed, 1000);
    }

    #[test]
    fn proxy_adds_cost_over_baseline() {
        let base = quick(None, LrsModel::Stub, 100.0, 2)
            .latencies
            .candlestick()
            .unwrap();
        let prox = quick(Some(proxy_m3()), LrsModel::Stub, 100.0, 2)
            .latencies
            .candlestick()
            .unwrap();
        assert!(
            prox.median > base.median + 5.0,
            "{} vs {}",
            prox.median,
            base.median
        );
    }

    #[test]
    fn encryption_costs_more_than_sgx() {
        // The Figure 6 ordering: m1 < m2, and the enc increment exceeds
        // the SGX increment.
        let m1 = ProxySimConfig {
            encryption: false,
            item_pseudonymization: false,
            sgx: false,
            ..proxy_m3()
        };
        let m2 = ProxySimConfig {
            sgx: false,
            ..proxy_m3()
        };
        let l1 = quick(Some(m1), LrsModel::Stub, 100.0, 3)
            .latencies
            .candlestick()
            .unwrap();
        let l2 = quick(Some(m2), LrsModel::Stub, 100.0, 3)
            .latencies
            .candlestick()
            .unwrap();
        let l3 = quick(Some(proxy_m3()), LrsModel::Stub, 100.0, 3)
            .latencies
            .candlestick()
            .unwrap();
        let enc_cost = l2.median - l1.median;
        let sgx_cost = l3.median - l2.median;
        assert!(enc_cost > sgx_cost, "enc {enc_cost} vs sgx {sgx_cost}");
        assert!(sgx_cost > 0.5);
    }

    #[test]
    fn shuffling_adds_latency_at_low_rps() {
        let no_shuffle = quick(Some(proxy_m3()), LrsModel::Stub, 50.0, 4)
            .latencies
            .candlestick()
            .unwrap();
        let s10 = ProxySimConfig {
            shuffle_size: Some(10),
            ..proxy_m3()
        };
        let shuffled = quick(Some(s10), LrsModel::Stub, 50.0, 4)
            .latencies
            .candlestick()
            .unwrap();
        // At 50 RPS filling 10 slots takes ~200 ms on both directions.
        assert!(
            shuffled.median > no_shuffle.median + 50.0,
            "{} vs {}",
            shuffled.median,
            no_shuffle.median
        );
    }

    #[test]
    fn shuffle_cost_amortizes_at_high_rps() {
        let s10 = ProxySimConfig {
            shuffle_size: Some(10),
            ..proxy_m3()
        };
        let slow = quick(Some(s10), LrsModel::Stub, 50.0, 5)
            .latencies
            .candlestick()
            .unwrap();
        let fast = quick(Some(s10), LrsModel::Stub, 250.0, 5)
            .latencies
            .candlestick()
            .unwrap();
        assert!(
            fast.median < slow.median,
            "{} vs {}",
            fast.median,
            slow.median
        );
    }

    #[test]
    fn saturation_beyond_capacity() {
        // One proxy pair saturates somewhere above 250 RPS: at 400 the
        // latency should blow up relative to 200.
        let at200 = quick(Some(proxy_m3()), LrsModel::Stub, 200.0, 6)
            .latencies
            .candlestick()
            .unwrap();
        let at400 = quick(Some(proxy_m3()), LrsModel::Stub, 400.0, 6)
            .latencies
            .candlestick()
            .unwrap();
        assert!(
            at400.median > at200.median * 3.0,
            "saturated {} vs {}",
            at400.median,
            at200.median
        );
    }

    #[test]
    fn scaling_instances_restores_capacity() {
        let m9 = ProxySimConfig {
            ua_instances: 4,
            ia_instances: 4,
            shuffle_size: Some(10),
            ..proxy_m3()
        };
        let r = quick(Some(m9), LrsModel::Stub, 800.0, 7)
            .latencies
            .candlestick()
            .unwrap();
        assert!(
            r.median < 100.0,
            "4 pairs should sustain 800 RPS: {}",
            r.median
        );
    }

    #[test]
    fn harness_slower_than_stub() {
        let stub = quick(None, LrsModel::Stub, 100.0, 8)
            .latencies
            .candlestick()
            .unwrap();
        let harness = quick(None, LrsModel::Harness { frontends: 3 }, 100.0, 8)
            .latencies
            .candlestick()
            .unwrap();
        assert!(harness.median > stub.median + 8.0);
    }

    #[test]
    fn harness_saturates_at_table3_capacity() {
        let ok = quick(None, LrsModel::Harness { frontends: 3 }, 250.0, 9)
            .latencies
            .candlestick()
            .unwrap();
        let over = quick(None, LrsModel::Harness { frontends: 3 }, 450.0, 9)
            .latencies
            .candlestick()
            .unwrap();
        assert!(ok.median < 300.0, "b1 at 250 RPS: {}", ok.median);
        assert!(
            over.median > ok.median * 2.0,
            "b1 at 450 RPS should saturate"
        );
    }

    #[test]
    fn every_request_crosses_every_hop() {
        let r = quick(Some(proxy_m3()), LrsModel::Stub, 50.0, 10);
        for hop in [Hop::ClientToUa, Hop::IaToLrs, Hop::UaToClient] {
            assert_eq!(r.hops[hop as usize], r.completed, "{hop:?}");
        }
        assert_eq!(r.hops[Hop::Direct as usize], 0);
    }

    #[test]
    fn posts_marginally_cheaper_than_gets() {
        // Footnote 9: posts "systematically follow the same trends as for
        // get requests, with only marginally lower latencies".
        let mut get_cfg = ExperimentConfig::new(Some(proxy_m3()), LrsModel::Stub, 100.0, 21);
        get_cfg.duration_secs = 10.0;
        get_cfg.trim_secs = 2.0;
        let mut post_cfg = get_cfg.clone();
        post_cfg.post_fraction = 1.0;
        let gets = run_experiment(&get_cfg).latencies.candlestick().unwrap();
        let posts = run_experiment(&post_cfg).latencies.candlestick().unwrap();
        assert!(
            posts.median < gets.median,
            "{} vs {}",
            posts.median,
            gets.median
        );
        assert!(
            gets.median - posts.median < 5.0,
            "difference must be marginal: {} vs {}",
            gets.median,
            posts.median
        );
    }

    #[test]
    fn mixed_workload_completes() {
        let mut cfg = ExperimentConfig::new(Some(proxy_m3()), LrsModel::Stub, 100.0, 22);
        cfg.duration_secs = 10.0;
        cfg.trim_secs = 2.0;
        cfg.post_fraction = 0.5;
        let r = run_experiment(&cfg);
        assert_eq!(r.completed, 1000);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = quick(Some(proxy_m3()), LrsModel::Stub, 100.0, 11);
        let b = quick(Some(proxy_m3()), LrsModel::Stub, 100.0, 11);
        assert_eq!(
            a.latencies.candlestick().unwrap(),
            b.latencies.candlestick().unwrap()
        );
    }
}
