//! PProx — privacy-preserving proxying for Recommendation-as-a-Service.
//!
//! A from-scratch Rust reproduction of *"PProx: Efficient Privacy for
//! Recommendation-as-a-Service"* (Rosinosky, Da Silva, Ben Mokhtar, Négru,
//! Réveillère, Rivière — Middleware 2021). This facade crate re-exports
//! the whole workspace; see the subsystem crates for details:
//!
//! * [`core`] (`pprox-core`) — the paper's contribution: the two-layer
//!   (User Anonymizer / Item Anonymizer) proxy service's transforms,
//!   user-side library, shuffle buffer and resilience primitives.
//! * [`crypto`] (`pprox-crypto`) — RSA-OAEP, AES-256-CTR (deterministic
//!   and randomized), SHA-256/HMAC, base64 and constant-size padding,
//!   implemented from scratch and validated against standard test vectors.
//! * [`sgx`] (`pprox-sgx`) — a simulated trusted-execution platform with
//!   attestation, sealed provisioning, EPC budgeting, and the paper's
//!   one-layer-at-a-time compromise model.
//! * [`store`] (`pprox-store`) — durable sealed state: an encrypted
//!   append-only event log and content-addressed block store keyed via
//!   SGX sealing, with torn-write tolerance and a storage fault injector
//!   for crash-recovery drills.
//! * [`lrs`] (`pprox-lrs`) — a Harness / Universal Recommender stand-in:
//!   one incremental CCO/LLR engine behind the REST surface, its durable
//!   and consistent-hash-sharded wrappers, and the nginx-like stub.
//! * [`net`] (`pprox-net`) — the discrete-event cluster simulator behind
//!   the latency/throughput figures.
//! * [`workload`] (`pprox-workload`) — synthetic Zipf ratings
//!   (`Dataset::generate`, the benchmark's request stream;
//!   `Dataset::small`, `recovery_report`'s trace), open-loop injection
//!   schedules, candlestick statistics.
//! * [`attack`] (`pprox-attack`) — the executable §6 security analysis:
//!   traffic correlation on real frames (`wire_audit`), enclave
//!   compromise cases, history attacks.
//! * [`wire`] (`pprox-wire`) — the one way to run the chain: UA, IA
//!   and LRS nodes over loopback TCP (framed codec with constant-size
//!   padding classes, event-driven server, pipelined clients, socket load
//!   balancing, shuffle stages, breaker and retries, supervised respawn)
//!   behind `LoopbackCluster`.
//! * [`scenario`] (`pprox-scenario`) — topology-driven cluster
//!   scenarios (diurnal ramps, flash crowds, churn, WAN latency,
//!   slow-loris, Busy-shed abuse) plus the wire-tap traffic-analysis
//!   adversary that checks measured linkage against the §6.2 bounds.
//!
//! # Quickstart
//!
//! ```
//! use pprox::core::resilience::Deadline;
//! use pprox::lrs::shard::ShardEngine;
//! use pprox::wire::{ClusterConfig, LoopbackCluster};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), pprox::core::PProxError> {
//! // An unmodified recommendation engine, fronted by PProx's UA and IA
//! // layers over loopback TCP. (`ShardEngine` implements `RestHandler`,
//! // the whole surface the proxy calls.)
//! let engine = Arc::new(ShardEngine::new());
//! let mut pprox = LoopbackCluster::launch(ClusterConfig::default(), engine.clone())?;
//!
//! // Applications talk to the user-side library; ids never reach the
//! // provider in the clear.
//! let mut client = pprox.client();
//! let budget = Deadline::starting_now(Duration::from_secs(10));
//! pprox.send_post(&client.post("alice", "the-matrix", Some(5.0))?, budget)?;
//! assert!(engine.history("alice").is_empty()); // only pseudonyms stored
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use pprox_attack as attack;
pub use pprox_core as core;
pub use pprox_crypto as crypto;
pub use pprox_json as json;
pub use pprox_lrs as lrs;
pub use pprox_net as net;
pub use pprox_scenario as scenario;
pub use pprox_sgx as sgx;
pub use pprox_store as store;
pub use pprox_wire as wire;
pub use pprox_workload as workload;
