//! Model-checked interleaving tests for the telemetry lock-free
//! histogram, run with `RUSTFLAGS="--cfg loom"` (see `scripts/ci.sh`,
//! `loom` stage).
//!
//! Under that cfg, `telemetry::sync` re-exports the loom shim's
//! instrumented atomics: every atomic operation becomes a scheduling
//! point, and `loom::model` re-runs each body under hundreds of
//! deterministic schedules with bounded preemptions. These tests assert
//! what the histogram protocol promises: concurrent record + merge equals
//! a single-recorder run, and a mid-flight snapshot never invents
//! observations.

#![cfg(loom)]

use loom::sync::Arc;
use loom::thread;
use pprox_core::telemetry::{HistogramSnapshot, LatencyHistogram};

/// Concurrent recording into a shared histogram plus per-thread locals:
/// after joining, merged locals must equal the shared histogram exactly
/// (same fixed bucket layout), and nothing is lost under any schedule.
#[test]
fn histogram_concurrent_record_and_merge() {
    loom::model(|| {
        let shared = Arc::new(LatencyHistogram::new());
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    let local = LatencyHistogram::new();
                    for i in 0..3u64 {
                        let v = t * 1_000 + i * 37;
                        local.record(v);
                        shared.record(v);
                    }
                    local.snapshot()
                })
            })
            .collect();
        let mut merged = HistogramSnapshot::empty();
        for h in handles {
            merged.merge(&h.join().unwrap());
        }
        assert_eq!(merged, shared.snapshot());
        assert_eq!(shared.count(), 6);
    });
}

/// A snapshot taken mid-recording must never invent observations: its
/// count is bounded by the number of records issued so far in any
/// schedule, and per-cell counts are bounded by the final state.
#[test]
fn histogram_snapshot_never_invents() {
    loom::model(|| {
        let h = Arc::new(LatencyHistogram::new());
        let w = Arc::clone(&h);
        let writer = thread::spawn(move || {
            for v in [5u64, 500, 50_000] {
                w.record(v);
            }
        });
        let mid = h.snapshot(); // races the three records
        writer.join().unwrap();
        let fin = h.snapshot();
        assert!(
            mid.count() <= 3,
            "snapshot invented records: {}",
            mid.count()
        );
        assert!(mid.sum_us() <= fin.sum_us());
        assert!(mid.max_us() <= fin.max_us());
        assert_eq!(fin.count(), 3);
        assert_eq!(fin.sum_us(), 5 + 500 + 50_000);
        assert_eq!(fin.max_us(), 50_000);
    });
}
