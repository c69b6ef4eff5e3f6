//! Privacy audit of the exported telemetry stream (the §6.2 adversary
//! pointed at the monitoring system instead of the network).
//!
//! The paper's deployment ships logs off the proxies ("collect logs in a
//! systematic fashion using fluentd", §7.2) — which means the span stream
//! `pprox_core::telemetry` exports is *adversary-visible state*, exactly
//! like the network tap [`crate::observer`] models. This module mounts
//! the best trace-joining attack an adversary holding the full exported
//! span stream can run:
//!
//! * For a target request, the adversary knows its pre-shuffle
//!   [`Stage::ShuffleRequest`] span (pre-shuffle linkage is trivial for
//!   an on-path observer — arrival timing identifies the client).
//! * It then tries to name the post-shuffle [`Stage::Lrs`] span carrying
//!   the same request. If any exported span reuses the target's trace ID
//!   past the shuffle boundary, the join is free. Otherwise the only
//!   signal left is timing: the candidates are the `S` post-shuffle spans
//!   of the target's flush group, and the best strategy is a uniform
//!   guess among them.
//!
//! Under [`TraceIdPolicy::Rerandomize`] the measured success must sit at
//! the §6.2 baseline `1/S` (within sampling tolerance); under the
//! deliberately-leaky [`TraceIdPolicy::StableAcrossShuffle`] ablation the
//! trace IDs join across the shuffle and the attack wins outright — the
//! audit exists so that mistake is *caught*, not shipped.
//!
//! The span stream is generated in virtual time with the real production
//! types — [`ShuffleBuffer`] for batching, [`TraceIdPolicy`] for ID
//! evolution, [`SpanRing`] as the export surface. The serving chain
//! exports aggregates only (analyzer rule R6, `scrape_audit`) and never
//! produces this stream; the audit is what says why — the stream a
//! span-exporting proxy would emit stays inside `1/S` only while IDs are
//! re-randomized at the shuffle, and one stable ID gives the join away.

use crate::LinkageScore;
use pprox_core::shuffler::{ShuffleBuffer, ShuffleConfig};
use pprox_core::telemetry::{SpanRecord, SpanRing, Stage, TraceId, TraceIdPolicy};
use pprox_crypto::rng::SecureRng;
use std::collections::HashMap;

/// Parameters of one telemetry audit run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryAuditConfig {
    /// Shuffle buffer size `S` (the anonymity-set size).
    pub shuffle_size: usize,
    /// Requests to generate; rounded down to a multiple of
    /// `shuffle_size` so every flush group is full (partial tail groups
    /// would shrink the last anonymity set and muddy the baseline).
    pub flows: usize,
    /// Trace-ID policy under audit.
    pub policy: TraceIdPolicy,
    /// Drives arrivals, shuffling, trace minting and adversary guesses.
    pub seed: u64,
}

impl Default for TelemetryAuditConfig {
    fn default() -> Self {
        TelemetryAuditConfig {
            shuffle_size: 10,
            flows: 2_000,
            policy: TraceIdPolicy::Rerandomize,
            seed: 0x7e1e_a0d1,
        }
    }
}

/// Result of auditing an exported span stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryAuditOutcome {
    /// Post-shuffle identifications over the exported spans, against
    /// the §6.2 baseline `1/S` the exporter must not beat.
    pub score: LinkageScore,
    /// Exported policy label (`trace_policy` in the JSON snapshot).
    pub policy_label: &'static str,
}

impl TelemetryAuditOutcome {
    fn new(attempts: usize, correct: usize, s: usize, policy: TraceIdPolicy) -> Self {
        TelemetryAuditOutcome {
            score: LinkageScore::new(attempts, correct, 1.0 / s as f64),
            policy_label: policy.as_str(),
        }
    }
}

/// One generated request's ground truth.
struct FlowTruth {
    /// Trace ID on the pre-shuffle segment (known to the adversary).
    pre: TraceId,
    /// Trace ID on the post-shuffle segment (what the adversary hunts).
    post: TraceId,
}

/// Generates the exported span stream for `config.flows` requests in
/// virtual time and returns the export surface plus ground truth.
fn generate_spans(config: &TelemetryAuditConfig) -> (Vec<SpanRecord>, Vec<FlowTruth>) {
    let s = config.shuffle_size.max(1);
    let flows = (config.flows / s).max(1) * s;
    let mut rng = SecureRng::from_seed(config.seed);
    let mut buffer: ShuffleBuffer<usize> = ShuffleBuffer::new(
        ShuffleConfig {
            size: s,
            // Count-driven flushes only: the audit models steady load.
            timeout_us: u64::MAX / 2,
        },
        config.seed ^ 0x0005_4a11,
    );
    let ring = SpanRing::new(flows * 3 + 8);
    let mut truth: Vec<FlowTruth> = Vec::with_capacity(flows);
    let mut arrival_trace: HashMap<usize, TraceId> = HashMap::new();

    let mut now_us = 0u64;
    for flow in 0..flows {
        // Arrivals ~1 ms apart with jitter, exactly as an open-loop
        // client population produces them.
        now_us += 700 + rng.below(600);
        let pre = TraceId::random(&mut rng);
        arrival_trace.insert(flow, pre);
        truth.push(FlowTruth { pre, post: pre });
        if let Some(flush) = buffer.push(now_us, flow) {
            let flush_time = now_us;
            // Emit spans in *shuffled* order — the order the shuffle
            // stage forwards (and would therefore log) batch members.
            for (member, arrived) in flush.items.iter().zip(&flush.arrived_at_us) {
                let pre = arrival_trace[member];
                ring.push(SpanRecord {
                    trace: pre,
                    stage: Stage::ShuffleRequest,
                    instance: 0,
                    start_us: *arrived,
                    duration_us: flush_time - arrived,
                    ok: true,
                });
                let post = config.policy.next_trace(pre, &mut rng);
                truth[*member].post = post;
                // Post-shuffle processing: UA then the LRS call, inside
                // the inter-batch gap so groups do not interleave.
                let ua_start = flush_time + rng.below(120);
                let ua_dur = 40 + rng.below(80);
                ring.push(SpanRecord {
                    trace: post,
                    stage: Stage::Ua,
                    instance: (member % 4) as u16,
                    start_us: ua_start,
                    duration_us: ua_dur,
                    ok: true,
                });
                ring.push(SpanRecord {
                    trace: post,
                    stage: Stage::Lrs,
                    instance: (member % 4) as u16,
                    start_us: ua_start + ua_dur,
                    duration_us: 100 + rng.below(200),
                    ok: true,
                });
            }
        }
    }
    debug_assert!(buffer.is_empty(), "flows is a multiple of S");
    (ring.snapshot(), truth)
}

/// Runs the trace-joining attack over an exported span stream.
///
/// `spans` is everything the exporter shipped; `truth` supplies, per
/// flow, the pre-shuffle trace (adversary knowledge) and the post-shuffle
/// trace (the answer key the guess is scored against).
fn telemetry_linkage_attack(
    spans: &[SpanRecord],
    truth: &[FlowTruth],
    shuffle_size: usize,
    policy: TraceIdPolicy,
    seed: u64,
) -> TelemetryAuditOutcome {
    let mut rng = SecureRng::from_seed(seed);
    // Index the stream the way the adversary would.
    let pre_spans: HashMap<TraceId, &SpanRecord> = spans
        .iter()
        .filter(|r| r.stage == Stage::ShuffleRequest)
        .map(|r| (r.trace, r))
        .collect();
    let mut lrs_spans: Vec<&SpanRecord> = spans.iter().filter(|r| r.stage == Stage::Lrs).collect();
    lrs_spans.sort_by_key(|r| r.start_us);
    let post_traces: std::collections::HashSet<TraceId> = spans
        .iter()
        .filter(|r| r.stage != Stage::ShuffleRequest)
        .map(|r| r.trace)
        .collect();
    // All flush instants, sorted, to delimit each group's time window.
    let mut flush_times: Vec<u64> = pre_spans
        .values()
        .map(|r| r.start_us + r.duration_us)
        .collect();
    flush_times.sort_unstable();
    flush_times.dedup();

    let mut correct = 0usize;
    let mut attempts = 0usize;
    for flow in truth {
        let Some(pre) = pre_spans.get(&flow.pre) else {
            continue; // span ring dropped it (bounded retention)
        };
        attempts += 1;
        // Free join: does the pre-shuffle ID survive the boundary?
        let guess = if post_traces.contains(&flow.pre) {
            Some(flow.pre)
        } else {
            // Timing strategy: the S LRS spans inside this group's
            // window, uniform guess among them.
            let flush = pre.start_us + pre.duration_us;
            let next_flush = flush_times
                .iter()
                .copied()
                .find(|&t| t > flush)
                .unwrap_or(u64::MAX);
            let candidates: Vec<TraceId> = lrs_spans
                .iter()
                .filter(|r| r.start_us >= flush && r.start_us < next_flush)
                .map(|r| r.trace)
                .collect();
            if candidates.is_empty() {
                None
            } else {
                Some(candidates[rng.below(candidates.len() as u64) as usize])
            }
        };
        if guess == Some(flow.post) {
            correct += 1;
        }
    }
    TelemetryAuditOutcome::new(attempts, correct, shuffle_size, policy)
}

/// Generates the exported span stream and mounts the joining attack:
/// the full audit in one call.
pub fn audit_telemetry(config: &TelemetryAuditConfig) -> TelemetryAuditOutcome {
    let (spans, truth) = generate_spans(config);
    telemetry_linkage_attack(
        &spans,
        &truth,
        config.shuffle_size.max(1),
        config.policy,
        config.seed ^ 0xa0d1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rerandomized_export_stays_at_the_shuffle_baseline() {
        let outcome = audit_telemetry(&TelemetryAuditConfig::default());
        assert_eq!(outcome.policy_label, "rerandomize");
        assert!(
            outcome.score.within(),
            "measured {} vs baseline {} (+{})",
            outcome.score.success_rate,
            outcome.score.bound,
            outcome.score.tolerance
        );
        // And not suspiciously *below* either: the timing strategy does
        // reach the 1/S floor, so a near-zero rate would mean the attack
        // (not the defense) is broken.
        assert!(
            outcome.score.success_rate > outcome.score.bound / 3.0,
            "attack under-performs: {}",
            outcome.score.success_rate
        );
    }

    #[test]
    fn stable_trace_ids_are_caught() {
        let outcome = audit_telemetry(&TelemetryAuditConfig {
            policy: TraceIdPolicy::StableAcrossShuffle,
            ..TelemetryAuditConfig::default()
        });
        assert!(
            outcome.score.success_rate > 0.9,
            "stable IDs should join almost always: {}",
            outcome.score.success_rate
        );
        assert!(
            !outcome.score.within(),
            "the audit must flag the leaky policy"
        );
        assert_eq!(outcome.policy_label, "stable-across-shuffle");
    }

    #[test]
    fn larger_shuffle_lowers_linkage() {
        let base = TelemetryAuditConfig {
            flows: 3_000,
            ..TelemetryAuditConfig::default()
        };
        let s5 = audit_telemetry(&TelemetryAuditConfig {
            shuffle_size: 5,
            ..base
        });
        let s20 = audit_telemetry(&TelemetryAuditConfig {
            shuffle_size: 20,
            ..base
        });
        assert!(s20.score.success_rate < s5.score.success_rate);
        assert!(s5.score.within() && s20.score.within());
    }

    #[test]
    fn tolerance_shrinks_with_samples() {
        let small = TelemetryAuditOutcome::new(100, 10, 10, TraceIdPolicy::Rerandomize);
        let large = TelemetryAuditOutcome::new(10_000, 1_000, 10, TraceIdPolicy::Rerandomize);
        assert!(large.score.tolerance < small.score.tolerance);
        assert!(small.score.within() && large.score.within());
    }
}
