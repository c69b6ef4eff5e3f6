//! Shuffle-buffer mechanics: cost of buffering and releasing batches —
//! the §4.3 machinery on the proxy's critical path. Shows the data
//! structure itself is negligible next to crypto (the latency cost of
//! shuffling is *waiting*, not processing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pprox_core::shuffler::{ShuffleBuffer, ShuffleConfig};
use std::hint::black_box;

fn bench_shuffle_buffer(c: &mut Criterion) {
    let mut group = c.benchmark_group("shuffle_buffer");
    for s in [5usize, 10, 50] {
        group.bench_with_input(BenchmarkId::new("fill_and_flush", s), &s, |b, &s| {
            let mut buffer = ShuffleBuffer::new(
                ShuffleConfig {
                    size: s,
                    timeout_us: 500_000,
                },
                1,
            );
            let mut t = 0u64;
            b.iter(|| {
                for i in 0..s as u64 {
                    t += 1;
                    if let Some(flush) = buffer.push(t, i) {
                        black_box(flush.items.len());
                    }
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_shuffle_buffer);
criterion_main!(benches);
