//! Set-up: recommender, cluster, and the encrypted request stream.
//!
//! Everything here is seeded with constants of the benchmark, not with
//! `--seed`: prime search time varies by key seed and model build time by
//! dataset seed, and neither is what a run is meant to compare.

use crate::driver::{prepare, Prepared};
use crate::workload::{Lrs, Plan, Workload, NUM_ITEMS, NUM_RATINGS, NUM_USERS};
use pprox::core::shuffler::ShuffleConfig;
use pprox::core::UserClient;
use pprox::lrs::api::RecommendationList;
use pprox::lrs::shard::ShardEngine;
use pprox::lrs::stub::StubLrs;
use pprox::lrs::{RestHandler, MAX_RECOMMENDATIONS};
use pprox::wire::{ClusterConfig, LoopbackCluster};
use pprox::workload::dataset::Dataset;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's RSA modulus size, used on encrypted workloads.
pub const RSA_BITS: usize = 2048;

/// Cluster master seed (keys, shuffle order, jitter).
pub const KEY_SEED: u64 = 0x5050_726f_784b_6579;

/// Seed of the synthetic catalogue the recommender is trained on.
const DATASET_SEED: u64 = 0x4d6f_7669_6573;

/// The recommender behind the chain, kept typed so its own counters can
/// be read.
#[derive(Clone)]
pub enum LrsHandle {
    /// The fixed-answer stub.
    Stub(Arc<StubLrs>),
    /// The trained engine.
    Reco(Arc<ShardEngine>),
}

impl LrsHandle {
    /// The REST surface the cluster serves.
    pub fn rest(&self) -> Arc<dyn RestHandler> {
        match self {
            LrsHandle::Stub(s) => s.clone(),
            LrsHandle::Reco(e) => e.clone(),
        }
    }

    /// `(events ingested, queries served)` so far. The stub counts one
    /// figure for both kinds; the stub workloads send gets only.
    pub fn counters(&self) -> (u64, u64) {
        match self {
            LrsHandle::Stub(s) => (0, s.served()),
            LrsHandle::Reco(e) => {
                let g = e.gauges();
                (g.events, g.queries)
            }
        }
    }
}

/// Durations of the parts of one set-up, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupParts {
    /// Dataset generation and model training (or building the stub).
    pub lrs_build_s: f64,
    /// `LoopbackCluster::launch` (which generates the layer keys) and
    /// `wait_ready`.
    pub launch_s: f64,
    /// Generating, encrypting and framing the whole request stream, and
    /// computing the expected answers.
    pub client_encrypt_s: f64,
}

/// A cluster ready to be driven.
pub struct Built {
    /// The running chain: 1 UA, 1 IA, 1 LRS.
    pub cluster: LoopbackCluster,
    /// The recommender behind it.
    pub lrs: LrsHandle,
    /// The user-side library that encrypted `requests`.
    pub client: UserClient,
    /// The request stream, in send order.
    pub requests: Vec<Prepared>,
    /// How long each part took.
    pub parts: SetupParts,
}

/// The cluster configuration of `workload`: one instance per tier, the
/// workload's encryption and shuffle settings, RSA-2048 when encrypting,
/// a fixed seed, and `ClusterConfig::default()` for every other field so
/// that a change to a default is measured.
pub fn cluster_config(workload: &Workload) -> ClusterConfig {
    let defaults = ClusterConfig::default();
    ClusterConfig {
        ua_instances: 1,
        ia_instances: 1,
        lrs_instances: 1,
        encryption: workload.encryption,
        shuffle: workload
            .shuffle
            .map_or(defaults.shuffle, |(size, timeout_us)| ShuffleConfig {
                size,
                timeout_us,
            }),
        modulus_bits: if workload.encryption {
            RSA_BITS
        } else {
            defaults.modulus_bits
        },
        seed: KEY_SEED,
        ..defaults
    }
}

fn build_lrs(kind: Lrs) -> LrsHandle {
    match kind {
        Lrs::Stub => LrsHandle::Stub(Arc::new(StubLrs::new())),
        Lrs::Reco => {
            let dataset = Dataset::generate(
                NUM_USERS as usize,
                NUM_ITEMS as usize,
                NUM_RATINGS,
                DATASET_SEED,
            );
            let engine = ShardEngine::new();
            for (user, item) in dataset.interactions() {
                engine.post(&user, &item, None);
            }
            engine.sync();
            LrsHandle::Reco(Arc::new(engine))
        }
    }
}

/// The list a get for `user` must open to, asked of the recommender
/// directly.
pub fn expected_list(lrs: &LrsHandle, user: &str) -> Vec<String> {
    let list = match lrs {
        LrsHandle::Stub(s) => {
            RecommendationList::from_json(s.payload()).expect("stub payload is a list")
        }
        LrsHandle::Reco(e) => e.get_filtered(user, MAX_RECOMMENDATIONS, &[]),
    };
    list.items.into_iter().map(|s| s.item).collect()
}

/// Builds the recommender, launches the chain and prepares the request
/// stream of `plan`.
pub fn build(workload: &Workload, plan: &Plan) -> Built {
    let t = Instant::now();
    let lrs = build_lrs(workload.lrs);
    let lrs_build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut cluster = LoopbackCluster::launch(cluster_config(workload), lrs.rest())
        .expect("loopback cluster launches");
    assert!(
        cluster.wait_ready(Duration::from_secs(10)),
        "cluster did not come up"
    );
    let launch_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut client = cluster.client();
    // The stub answers every user alike; the engine's answers are cached
    // per user (a plan names some users several times).
    let mut cache: HashMap<String, Arc<Vec<String>>> = HashMap::new();
    let stub_answer = matches!(lrs, LrsHandle::Stub(_)).then(|| Arc::new(expected_list(&lrs, "")));
    let requests = prepare(plan, &mut client, stub_answer.is_some(), |user| {
        stub_answer.clone().unwrap_or_else(|| {
            cache
                .entry(user.to_owned())
                .or_insert_with(|| Arc::new(expected_list(&lrs, user)))
                .clone()
        })
    });
    let client_encrypt_s = t.elapsed().as_secs_f64();

    Built {
        cluster,
        lrs,
        client,
        requests,
        parts: SetupParts {
            lrs_build_s,
            launch_s,
            client_encrypt_s,
        },
    }
}
