//! JSON handling costs (§5: the lightweight parser) on a representative
//! proxied request. The layers themselves speak binary frames
//! (`ClientEnvelope::to_frame`), so these are the LRS front-end's and
//! the user-side library's costs.

use criterion::{criterion_group, criterion_main, Criterion};
use pprox_json::{parser, Value};
use std::hint::black_box;

fn request_body() -> String {
    // Representative proxied request: two base64 blobs plus metadata.
    let blob: String = "A".repeat(344);
    Value::object([
        ("op", Value::from("post")),
        ("u", Value::from(blob.clone())),
        ("x", Value::from(blob)),
    ])
    .to_json()
}

fn bench_json(c: &mut Criterion) {
    let body = request_body();
    let mut group = c.benchmark_group("json");
    group.bench_function("full_parse_request", |b| {
        b.iter(|| parser::parse(black_box(&body)).unwrap())
    });
    group.bench_function("parse_and_reserialize", |b| {
        b.iter(|| parser::parse(black_box(&body)).unwrap().to_json())
    });
    group.finish();
}

criterion_group!(benches, bench_json);
criterion_main!(benches);
