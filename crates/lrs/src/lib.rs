//! Legacy Recommendation System (LRS): a Harness / Universal Recommender
//! stand-in.
//!
//! PProx interposes on an *unmodified* recommendation service. The paper
//! evaluates against [Harness](https://actionml.com/harness) running the
//! Universal Recommender — collaborative filtering via Correlated
//! Cross-Occurrence (CCO) — backed by MongoDB, Elasticsearch and periodic
//! Apache Spark training jobs (§7). This crate rebuilds that stack
//! in-process so the reproduction can exercise the real algorithm:
//!
//! | Paper component | Module here |
//! |---|---|
//! | REST API (`post(u,i[,p])`, `get(u)`) | [`api`] |
//! | Universal Recommender engine (event store + model + query index) | [`shard::ShardEngine`] |
//! | Spark CCO training job | [`shard::incremental`] (online, exact after `sync()`) |
//! | horizontal scaling of the LRS | [`shard`] (consistent-hash ring + scatter-gather) |
//! | durable sealed state (crash recovery) | [`shard::DurableShard`] |
//! | nginx static stub (micro-benchmarks) | [`stub`] |
//! | failure injection (resilience tests) | [`chaos`] |
//! | batch CCO + inverted index — **test oracle only** | [`cco`] + [`index`] |
//!
//! [`RestHandler`] is the whole surface the IA layer calls, and it has
//! two production implementors: [`shard::ShardEngine`] (the real
//! recommender; wrapped by [`shard::DurableShard`] for crash recovery
//! and fanned out by [`shard::ShardedLrs`] for scale, an unsharded LRS
//! being a ring of one) and [`stub::StubLrs`]. The batch
//! [`cco::CcoTrainer`] and [`index::ScoringIndex`] serve no request:
//! they are the reference that `tests/shard_differential.rs` and the
//! `shard_report` freshness ablation compare the incremental model
//! against.
//!
//! The LRS is deliberately identifier-agnostic: it never interprets user or
//! item ids, which is what makes PProx's deterministic pseudonymization
//! transparent to it — and is why recommendations through the proxy are
//! byte-identical to direct ones (verified in `tests/transparency.rs`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod api;
pub mod cco;
pub mod chaos;
pub mod index;
pub mod shard;
pub mod stub;

pub use api::{HttpRequest, HttpResponse, RestHandler};

/// Maximum recommendation list size; responses are padded to this length by
/// the proxy (§4.3: "The list of items returned by the LRS has a maximal
/// size (20 in our implementation)").
pub const MAX_RECOMMENDATIONS: usize = 20;
