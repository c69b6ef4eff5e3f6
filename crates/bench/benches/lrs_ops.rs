//! LRS component costs: incremental CCO training (the Spark-job role:
//! ingest a trace, then one exact `sync()`) and query serving (the
//! Elasticsearch/front-end role), on a scaled MovieLens-like trace.
//! Grounds the simulator's `harness_fe` service model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pprox_lrs::shard::ShardEngine;
use pprox_workload::dataset::Dataset;
use std::hint::black_box;

fn engine_with(pairs: &[(String, String)]) -> ShardEngine {
    let engine = ShardEngine::new();
    for (user, item) in pairs {
        engine.post(user, item, None);
    }
    engine.sync();
    engine
}

fn bench_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("cco_training");
    group.sample_size(10);
    for scale in [1_000usize, 4_000, 8_000] {
        let dataset = Dataset::generate(scale / 10, scale / 5, scale, 42);
        let pairs: Vec<(String, String)> = dataset.interactions().collect();
        group.bench_with_input(BenchmarkId::from_parameter(scale), &pairs, |b, pairs| {
            b.iter(|| black_box(engine_with(pairs).model_stats()))
        });
    }
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let dataset = Dataset::small(7);
    let pairs: Vec<(String, String)> = dataset.interactions().collect();
    let engine = engine_with(&pairs);
    let users: Vec<String> = dataset
        .ratings
        .iter()
        .map(|r| Dataset::user_id(r.user))
        .take(256)
        .collect();
    let mut group = c.benchmark_group("lrs_serving");
    group.sample_size(20);
    group.bench_function("engine_get_top20", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % users.len();
            black_box(engine.get_filtered(&users[i], 20, &[]))
        })
    });
    group.bench_function("engine_post", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            engine.post(&format!("bench-user-{i}"), "m00001", None)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_training, bench_queries);
criterion_main!(benches);
