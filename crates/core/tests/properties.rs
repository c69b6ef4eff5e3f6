//! Property-based tests on the proxy's core data structures.

use pprox_core::message::{ClientEnvelope, LayerEnvelope, Op};
use pprox_core::shuffler::{FlushReason, Gather, ShuffleBuffer, ShuffleConfig};
use pprox_core::telemetry::histogram::SUB_BUCKETS;
use pprox_core::telemetry::{HistogramSnapshot, LatencyHistogram};
use proptest::prelude::*;
use std::collections::HashSet;

/// A script of shuffle-buffer operations.
#[derive(Debug, Clone)]
enum ShuffleOp {
    Push(u64),
    AdvanceAndPoll(u64),
}

fn shuffle_ops() -> impl Strategy<Value = Vec<ShuffleOp>> {
    proptest::collection::vec(
        prop_oneof![
            (1u64..10_000).prop_map(ShuffleOp::Push),
            (1u64..2_000_000).prop_map(ShuffleOp::AdvanceAndPoll),
        ],
        1..200,
    )
}

proptest! {
    /// No item is ever lost or duplicated by the shuffle buffer, under
    /// arbitrary interleavings of pushes and timer polls.
    #[test]
    fn shuffler_conserves_items(
        ops in shuffle_ops(),
        size in 1usize..20,
        timeout_us in 1_000u64..1_000_000,
        seed in any::<u64>(),
    ) {
        let mut buffer = ShuffleBuffer::new(
            ShuffleConfig { size, timeout_us },
            seed,
        );
        let mut now = 0u64;
        let mut pushed: Vec<u64> = Vec::new();
        let mut released: Vec<u64> = Vec::new();
        let mut next_item = 0u64;
        for op in ops {
            match op {
                ShuffleOp::Push(dt) => {
                    now += dt;
                    let item = next_item;
                    next_item += 1;
                    pushed.push(item);
                    if let Some(flush) = buffer.push(now, item) {
                        released.extend(flush.items);
                    }
                }
                ShuffleOp::AdvanceAndPoll(dt) => {
                    now += dt;
                    if let Some(flush) = buffer.poll_timeout(now) {
                        released.extend(flush.items);
                    }
                }
            }
        }
        if let Some(flush) = buffer.drain() {
            released.extend(flush.items);
        }
        let mut sorted = released.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, pushed, "conservation violated");
        // No duplicates.
        let set: HashSet<u64> = released.iter().copied().collect();
        prop_assert_eq!(set.len(), released.len());
    }

    /// Full-buffer flushes always release exactly S items.
    #[test]
    fn shuffler_full_flushes_have_exact_size(
        size in 1usize..30,
        n in 1usize..200,
        seed in any::<u64>(),
    ) {
        let mut buffer = ShuffleBuffer::new(
            ShuffleConfig { size, timeout_us: u64::MAX / 2 },
            seed,
        );
        for i in 0..n as u64 {
            if let Some(flush) = buffer.push(i, i) {
                prop_assert_eq!(flush.items.len(), size);
            }
        }
        prop_assert!(buffer.len() < size);
    }

    /// Every flush releases at least one item, never more than S, and
    /// full-reason flushes release exactly S — under arbitrary
    /// interleavings of pushes and timer polls.
    #[test]
    fn shuffler_flushes_are_nonempty_and_bounded(
        ops in shuffle_ops(),
        size in 1usize..20,
        timeout_us in 1_000u64..1_000_000,
        seed in any::<u64>(),
    ) {
        let mut buffer = ShuffleBuffer::new(ShuffleConfig { size, timeout_us }, seed);
        let mut now = 0u64;
        let mut item = 0u64;
        let check = |flush: pprox_core::shuffler::Flush<u64>| {
            prop_assert!(!flush.items.is_empty(), "empty flush ({:?})", flush.reason);
            prop_assert!(flush.items.len() <= size, "oversized flush");
            if flush.reason == FlushReason::Full {
                prop_assert_eq!(flush.items.len(), size);
            }
            Ok(())
        };
        for op in ops {
            match op {
                ShuffleOp::Push(dt) => {
                    now += dt;
                    item += 1;
                    if let Some(flush) = buffer.push(now, item) {
                        check(flush)?;
                    }
                }
                ShuffleOp::AdvanceAndPoll(dt) => {
                    now += dt;
                    if let Some(flush) = buffer.poll_timeout(now) {
                        check(flush)?;
                    }
                }
            }
        }
        if let Some(flush) = buffer.drain() {
            check(flush)?;
        }
    }

    /// Dwell is bounded: after any timer poll, no held item is older
    /// than the flush timeout, and no released item ever dwelt past it
    /// by more than the gap since the previous poll. The §4.3
    /// privacy/latency trade-off depends on the timeout capping dwell.
    #[test]
    fn shuffler_dwell_is_bounded_by_timeout(
        ops in shuffle_ops(),
        size in 2usize..20,
        timeout_us in 1_000u64..1_000_000,
        seed in any::<u64>(),
    ) {
        let mut buffer = ShuffleBuffer::new(ShuffleConfig { size, timeout_us }, seed);
        let mut now = 0u64;
        // Shadow model of the buffer: (item, arrival) in push order.
        let mut held: Vec<(u64, u64)> = Vec::new();
        let mut item = 0u64;
        let on_flush = |flush: pprox_core::shuffler::Flush<u64>,
                            held: &mut Vec<(u64, u64)>,
                            now_us: u64,
                            slack: u64| {
            for released in &flush.items {
                let pos = held.iter().position(|(i, _)| i == released)
                    .expect("released an item the model does not hold");
                let (_, arrived) = held.remove(pos);
                // The timer is observed only at poll points, so dwell
                // can overshoot the timeout by at most the time since
                // the previous poll (when the buffer was last checked).
                prop_assert!(
                    now_us - arrived <= timeout_us + slack,
                    "item dwelt {} µs past a {} µs timeout (slack {})",
                    now_us - arrived, timeout_us, slack
                );
            }
            Ok(())
        };
        let mut last_poll_at = 0u64;
        for op in ops {
            match op {
                ShuffleOp::Push(dt) => {
                    now += dt;
                    item += 1;
                    held.push((item, now));
                    if let Some(flush) = buffer.push(now, item) {
                        on_flush(flush, &mut held, now, now - last_poll_at)?;
                    }
                }
                ShuffleOp::AdvanceAndPoll(dt) => {
                    now += dt;
                    if let Some(flush) = buffer.poll_timeout(now) {
                        on_flush(flush, &mut held, now, now - last_poll_at)?;
                    }
                    last_poll_at = now;
                    // The timer poll just ran: whatever is still held
                    // must be younger than the timeout.
                    if let Some(&(_, oldest)) = held.first() {
                        prop_assert!(
                            now < oldest + timeout_us,
                            "poll left an item {} µs overdue",
                            now - (oldest + timeout_us)
                        );
                    }
                }
            }
        }
        prop_assert_eq!(held.len(), buffer.len(), "model diverged from buffer");
    }

    /// The release permutation is positional, not content-dependent:
    /// two same-seed buffers fed the same arrival slots release from
    /// the same positions regardless of which items occupy them. The
    /// adversary-facing property: batch order carries no information
    /// about arrival order beyond the seed.
    #[test]
    fn shuffler_permutation_is_independent_of_item_order(
        size in 2usize..16,
        batches in 1usize..8,
        seed in any::<u64>(),
        reversed in any::<bool>(),
    ) {
        let config = ShuffleConfig { size, timeout_us: u64::MAX / 2 };
        let mut a = ShuffleBuffer::new(config, seed);
        let mut b = ShuffleBuffer::new(config, seed);
        for batch in 0..batches as u64 {
            let base = batch * size as u64;
            let items_a: Vec<u64> = (0..size as u64).map(|i| base + i).collect();
            let mut items_b = items_a.clone();
            if reversed {
                items_b.reverse();
            }
            let mut out_a = None;
            let mut out_b = None;
            for i in 0..size {
                out_a = a.push(i as u64, items_a[i]).or(out_a);
                out_b = b.push(i as u64, items_b[i]).or(out_b);
            }
            let out_a = out_a.expect("batch A must flush").items;
            let out_b = out_b.expect("batch B must flush").items;
            // Derive A's positional permutation π (slot fed → release
            // rank) and check B applied the identical π to its slots.
            for (rank, &released) in out_a.iter().enumerate() {
                let slot = items_a.iter().position(|&x| x == released).unwrap();
                prop_assert_eq!(
                    out_b[rank], items_b[slot],
                    "release rank {} drew from a different slot", rank
                );
            }
        }
    }

    /// A gather under random batch sizes, arrival gaps (some long enough
    /// to be late), caps and causes, with its timer fired exactly when
    /// due: every answer is released exactly once; a push releases only
    /// when it is the batch's last answer, a poll only at the cap; each
    /// release carries everything pushed since the one before it — so
    /// late answers leave as one group, never alone on arrival; and the
    /// ablated gather releases in arrival order.
    #[test]
    fn gather_releases_a_batch_together_and_late_answers_as_one_group(
        gaps in proptest::collection::vec(
            prop_oneof![4 => 1u64..2_000, 1 => 40_000u64..200_000],
            1..12,
        ),
        timeout_us in 10_000u64..100_000,
        seed in any::<u64>(),
        by_timer in any::<bool>(),
        ablation in any::<bool>(),
    ) {
        let k = gaps.len();
        let cause = if by_timer { FlushReason::Timeout } else { FlushReason::Full };
        let mut gather = Gather::new(ShuffleConfig { size: k, timeout_us }, seed, cause);
        gather.set_order_ablation(ablation);
        let mut held: Vec<u64> = Vec::new();
        let mut released = 0usize;
        let mut check = |flush: pprox_core::shuffler::Flush<u64>,
                         held: &mut Vec<u64>,
                         reason: FlushReason| {
            prop_assert_eq!(flush.reason, reason);
            if ablation {
                prop_assert_eq!(&flush.items, &*held, "ablation reordered");
            }
            let mut sorted = flush.items.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&sorted, &*held, "a release is what was held");
            released += held.len();
            held.clear();
            Ok(())
        };
        let mut now = 0u64;
        for (answer, gap) in gaps.into_iter().enumerate() {
            let arrives = now + gap;
            // The timer fires when due, not before.
            if let Some(cap) = gather.deadline_us().filter(|&cap| cap <= arrives) {
                prop_assert!(gather.poll_timeout(cap - 1).is_none(), "released early");
                let flush = gather.poll_timeout(cap).expect("the cap releases");
                check(flush, &mut held, FlushReason::Timeout)?;
                prop_assert!(gather.is_empty() && !gather.is_complete());
            }
            now = arrives;
            held.push(answer as u64);
            match gather.push(now, answer as u64) {
                Some(flush) => {
                    prop_assert_eq!(answer + 1, k, "released before the last answer");
                    check(flush, &mut held, cause)?;
                }
                None => prop_assert!(answer + 1 < k, "the last answer did not release"),
            }
        }
        prop_assert_eq!(released, k);
        prop_assert!(gather.is_complete() && gather.is_empty());
        prop_assert!(gather.drain().is_none());
    }

    /// Envelope framing roundtrips for arbitrary field contents within
    /// the frame budget.
    #[test]
    fn envelopes_roundtrip(
        user in proptest::collection::vec(any::<u8>(), 0..300),
        aux in proptest::collection::vec(any::<u8>(), 0..300),
        is_post in any::<bool>(),
    ) {
        let op = if is_post { Op::Post } else { Op::Get };
        let env = ClientEnvelope { op, user: user.clone(), aux: aux.clone() };
        let frame = env.to_frame().unwrap();
        prop_assert_eq!(ClientEnvelope::from_frame(&frame).unwrap(), env);

        let layer = LayerEnvelope { op, user_pseudonym: user, aux };
        let frame = layer.to_frame().unwrap();
        prop_assert_eq!(LayerEnvelope::from_frame(&frame).unwrap(), layer);
    }

    /// All frames are constant-size regardless of content.
    #[test]
    fn frames_constant_size(
        user in proptest::collection::vec(any::<u8>(), 0..300),
        aux in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let env = ClientEnvelope { op: Op::Get, user, aux };
        prop_assert_eq!(
            env.to_frame().unwrap().len(),
            pprox_core::message::REQUEST_FRAME_LEN
        );
    }

    /// Histogram quantiles are monotone in `q`, stay within the observed
    /// range, and respect the log-linear resolution bound against the
    /// true (sorted) quantile.
    #[test]
    fn histogram_quantiles_are_monotone_and_bounded(
        mut values in proptest::collection::vec(0u64..10_000_000, 1..500),
    ) {
        let h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        values.sort_unstable();
        let max = *values.last().unwrap();
        let mut prev = 0u64;
        for step in 0..=100u32 {
            let q = f64::from(step) / 100.0;
            let got = s.quantile(q);
            prop_assert!(got >= prev, "quantile({q}) = {got} < quantile(prev) = {prev}");
            prop_assert!(got <= max, "quantile({q}) = {got} above observed max {max}");
            prev = got;
            // Resolution bound: the reported value is the upper edge of a
            // bucket containing the true rank-order statistic, so it can
            // exceed the true value by at most one sub-bucket's width.
            let rank = ((q * values.len() as f64).ceil() as usize).max(1) - 1;
            let truth = values[rank];
            prop_assert!(
                got as f64 >= truth as f64 * (1.0 - 1.0 / SUB_BUCKETS as f64) - 1.0
                    && got as f64 <= truth as f64 * (1.0 + 1.0 / SUB_BUCKETS as f64) + 1.0,
                "quantile({q}) = {got} vs true {truth}"
            );
        }
        prop_assert_eq!(s.quantile(1.0), max);
    }

    /// Merging per-worker snapshots is exact: any partition of the same
    /// observations merges into the identical snapshot, so quantiles are
    /// independent of how recording was sharded across workers.
    #[test]
    fn histogram_merge_is_partition_independent(
        values in proptest::collection::vec(0u64..10_000_000, 1..300),
        split in 0usize..300,
    ) {
        let whole = LatencyHistogram::new();
        let left = LatencyHistogram::new();
        let right = LatencyHistogram::new();
        let split = split.min(values.len());
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i < split { left.record(v) } else { right.record(v) }
        }
        let mut merged = HistogramSnapshot::empty();
        merged.merge(&left.snapshot());
        merged.merge(&right.snapshot());
        prop_assert_eq!(merged, whole.snapshot());
    }
}

/// A gather's release order is a uniform permutation: over many seeds
/// each answer of a batch of four leaves first a quarter of the time,
/// within three binomial standard deviations plus 0.01 (the tolerance
/// the wire linkage audit scores the same claim with).
#[test]
fn gather_permutation_is_uniform() {
    const K: usize = 4;
    const TRIALS: usize = 4_000;
    let mut first = [0usize; K];
    let mut identity = 0usize;
    for seed in 0..TRIALS as u64 {
        let batch = ShuffleConfig {
            size: K,
            timeout_us: 1_000,
        };
        let mut gather = Gather::new(batch, seed, FlushReason::Full);
        let flush = (0..K).find_map(|i| gather.push(i as u64, i)).unwrap();
        first[flush.items[0]] += 1;
        identity += usize::from(flush.items == [0, 1, 2, 3]);
    }
    let p = 1.0 / K as f64;
    let tolerance = 3.0 * (p * (1.0 - p) / TRIALS as f64).sqrt() + 0.01;
    for (answer, &count) in first.iter().enumerate() {
        let freq = count as f64 / TRIALS as f64;
        assert!((freq - p).abs() <= tolerance, "answer {answer}: {freq}");
    }
    // Arrival order is one permutation of 24, not a favourite.
    assert!((identity as f64 / TRIALS as f64) < 1.0 / 24.0 + tolerance);
}
