//! Traffic-analysis linkage estimator over *wire* frame timings (the
//! §6.2 network adversary pointed at a real socket boundary).
//!
//! This module measures linkage on the observations a recording tap
//! between the UA and IA tiers actually yields: per-frame timestamps,
//! on-wire lengths, and which tap (instance) saw them. Frames are
//! constant-size and carry per-hop correlation ids, so the only attack
//! surface left is timing — exactly the §4.3 claim under test.
//!
//! The adversary strategy implemented here is the strongest simple one
//! available to a boundary observer:
//!
//! 1. **Burst clustering** — shuffle flushes hit the wire as bursts;
//!    departures separated by more than `batch_gap_us` start a new batch.
//! 2. **FIFO batch assignment** — the shuffle buffer holds exactly the
//!    arrivals since its last flush, so the adversary assigns the
//!    earliest unassigned arrivals to each batch in time order.
//! 3. **Length matching** — within a batch, a frame whose length is
//!    unique among the batch's frames and among its candidate arrivals
//!    is paired with the one arrival of that length. Padded traffic has
//!    one length per hop, so this never fires on it; a per-request
//!    observable on both sides ([`WireTrace::with_join_key`]: lengths
//!    with padding off, arrival instants in a metrics export) is
//!    linked by it outright.
//! 4. **Rank matching** — the rest of the batch pairs the i-th earliest
//!    arrival with the i-th departure frame. Under a uniform permutation
//!    this succeeds with probability `1/S` per request (no strategy does
//!    better); under a broken, order-preserving shuffle it succeeds
//!    almost always — which is how the ablation gets *caught*.
//!
//! Two adversary positions are scored: **instance-aware** (the observer
//! brackets one UA instance and also sees which instance each arrival
//! went to — bound `1/S`) and **instance-blind** (the observer sees the
//! merged egress of all `I` instances but cannot attribute arrivals to
//! instances — bound `1/(S·I)`, the paper's across-instances curve).
//!
//! Ground truth (`TraceDeparture::truth`) comes from the cluster's
//! opt-in linkage audit (`pprox_wire::audit`); the attack logic below
//! never reads it — it is consulted only to score guesses.

use crate::LinkageScore;

/// One request arrival as the client-side observer sees it: who (which
/// request index, known pre-shuffle — arrival linkage is trivial for an
/// on-path observer), when, and which UA instance the front door chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceArrival {
    /// Request index (the adversary's target identifier).
    pub request: usize,
    /// Arrival instant, µs on the shared scenario clock.
    pub at_us: u64,
    /// UA instance the request was routed to (hidden from the
    /// instance-blind adversary).
    pub instance: u16,
    /// Bytes the observer saw for this message.
    pub len: usize,
}

/// One egress frame as the tap records it, plus the ground-truth request
/// it carried (used for scoring only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDeparture {
    /// Observation instant at the tap, µs on the shared scenario clock.
    pub at_us: u64,
    /// UA instance whose uplink tap saw the frame.
    pub instance: u16,
    /// On-wire bytes of the frame.
    pub len: usize,
    /// Answer key: the request this frame actually carried.
    pub truth: usize,
}

/// Everything one scenario run hands the estimator.
#[derive(Debug, Clone)]
pub struct WireTrace {
    /// Shuffle buffer size `S` the cluster ran with.
    pub shuffle_size: usize,
    /// UA instances `I`.
    pub instances: usize,
    /// Client-side arrival observations.
    pub arrivals: Vec<TraceArrival>,
    /// Tap-side egress observations with ground truth attached.
    pub departures: Vec<TraceDeparture>,
}

/// Estimator tuning.
#[derive(Debug, Clone, Copy)]
pub struct WireAuditConfig {
    /// Inter-frame gap (µs) that starts a new burst. Should sit between
    /// the intra-flush spread (~1 ms on loopback) and the inter-flush
    /// interval (`S / rate`).
    pub batch_gap_us: u64,
    /// Score the instance-blind adversary (merged egress, unattributed
    /// arrivals) instead of the instance-aware one.
    pub instance_blind: bool,
}

impl Default for WireAuditConfig {
    fn default() -> Self {
        WireAuditConfig {
            batch_gap_us: 8_000,
            instance_blind: false,
        }
    }
}

/// Measured linkage vs the analytic curve for one adversary position.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAuditOutcome {
    /// Request↔frame identifications over the departure frames attacked
    /// (each yields at most one guess), against `1/S` (aware) or
    /// `1/(S·I)` (blind).
    pub score: LinkageScore,
    /// Bursts the clustering recovered.
    pub batches: usize,
    /// Mean recovered burst size (≈ effective anonymity-set size).
    pub mean_batch: f64,
    /// `"instance-aware"` or `"instance-blind"`.
    pub label: &'static str,
}

impl WireTrace {
    /// This trace with a per-request observable written into the length
    /// field on both sides of the hop: `key(request)` on every arrival
    /// and every departure. Length matching joins whatever the key
    /// makes unique inside a batch, so one transform states every leak
    /// the estimator is shown: the padding ablation is
    /// `600 + request % 97` bytes, a metrics export that ships raw
    /// arrival times is the request's arrival instant.
    pub fn with_join_key(&self, key: impl Fn(usize) -> usize) -> WireTrace {
        WireTrace {
            arrivals: self
                .arrivals
                .iter()
                .map(|a| TraceArrival {
                    len: key(a.request),
                    ..*a
                })
                .collect(),
            departures: self
                .departures
                .iter()
                .map(|d| TraceDeparture {
                    len: key(d.truth),
                    ..*d
                })
                .collect(),
            ..self.clone()
        }
    }
}

/// Mounts the burst-cluster + FIFO + length/rank-match attack on a wire
/// trace and scores it against the analytic bound.
pub fn wire_linkage_attack(trace: &WireTrace, config: &WireAuditConfig) -> WireAuditOutcome {
    let s = trace.shuffle_size.max(1);
    let i = trace.instances.max(1);
    let (bound, label) = if config.instance_blind {
        (1.0 / (s * i) as f64, "instance-blind")
    } else {
        (1.0 / s as f64, "instance-aware")
    };

    // The adversary's view of the egress: per-instance streams when
    // aware, one merged stream when blind.
    let mut streams: Vec<Vec<&TraceDeparture>> = if config.instance_blind {
        vec![trace.departures.iter().collect()]
    } else {
        let mut by_instance = vec![Vec::new(); i];
        for d in &trace.departures {
            by_instance[(d.instance as usize).min(i - 1)].push(d);
        }
        by_instance
    };
    for stream in &mut streams {
        stream.sort_by_key(|d| d.at_us);
    }

    // Burst clustering per stream, tagged with the stream they came from
    // (the aware adversary only considers that instance's arrivals).
    struct Batch<'a> {
        stream: usize,
        frames: Vec<&'a TraceDeparture>,
    }
    let mut batches: Vec<Batch> = Vec::new();
    for (stream_idx, stream) in streams.iter().enumerate() {
        let mut current: Vec<&TraceDeparture> = Vec::new();
        for d in stream {
            if let Some(last) = current.last() {
                if d.at_us.saturating_sub(last.at_us) > config.batch_gap_us {
                    batches.push(Batch {
                        stream: stream_idx,
                        frames: std::mem::take(&mut current),
                    });
                }
            }
            current.push(d);
        }
        if !current.is_empty() {
            batches.push(Batch {
                stream: stream_idx,
                frames: current,
            });
        }
    }
    // FIFO assignment runs over batches in observation order.
    batches.sort_by_key(|b| b.frames.first().map_or(0, |f| f.at_us));

    // Arrivals sorted by time; `assigned` marks consumption.
    let mut arrivals: Vec<&TraceArrival> = trace.arrivals.iter().collect();
    arrivals.sort_by_key(|a| a.at_us);
    let mut assigned = vec![false; arrivals.len()];

    let mut correct = 0usize;
    let batch_count = batches.len();
    let mut frame_total = 0usize;
    for batch in &batches {
        let last_at = batch.frames.last().map_or(0, |f| f.at_us);
        frame_total += batch.frames.len();
        // The earliest unassigned arrivals that (a) the adversary can
        // attribute to this stream and (b) precede the batch's last
        // frame — the FIFO candidate set.
        let mut candidates: Vec<usize> = Vec::with_capacity(batch.frames.len());
        for (idx, a) in arrivals.iter().enumerate() {
            if candidates.len() == batch.frames.len() {
                break;
            }
            if assigned[idx] || a.at_us > last_at {
                continue;
            }
            if !config.instance_blind && a.instance as usize != batch.stream {
                continue;
            }
            candidates.push(idx);
        }
        // A length unique on both sides pairs its frame outright; the
        // rest rank-match: i-th earliest candidate ↔ i-th frame.
        let unique = |len: usize| {
            batch.frames.iter().filter(|f| f.len == len).count() == 1
                && candidates
                    .iter()
                    .filter(|&&c| arrivals[c].len == len)
                    .count()
                    == 1
        };
        let (by_len, by_rank): (Vec<&&TraceDeparture>, Vec<_>) =
            batch.frames.iter().partition(|f| unique(f.len));
        let mut pairs = Vec::with_capacity(batch.frames.len());
        let mut rest = Vec::with_capacity(candidates.len());
        for &cand in &candidates {
            match by_len.iter().find(|f| f.len == arrivals[cand].len) {
                Some(frame) => pairs.push((*frame, cand)),
                None => rest.push(cand),
            }
        }
        pairs.extend(by_rank.into_iter().zip(rest));
        for (frame, cand) in pairs {
            assigned[cand] = true;
            if arrivals[cand].request == frame.truth {
                correct += 1;
            }
        }
    }

    WireAuditOutcome {
        score: LinkageScore::new(trace.departures.len(), correct, bound),
        batches: batch_count,
        mean_batch: frame_total as f64 / (batch_count.max(1)) as f64,
        label,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pprox_crypto::rng::SecureRng;

    /// Builds a synthetic trace: `batches` flush groups of `s` requests
    /// per instance, arrivals 1 ms apart, each group released as a burst
    /// (frames 100 µs apart) 5 ms after its last arrival, permuted per
    /// `shuffled`.
    fn synthetic(
        s: usize,
        instances: usize,
        batches: usize,
        shuffled: bool,
        seed: u64,
    ) -> WireTrace {
        let mut rng = SecureRng::from_seed(seed);
        let mut arrivals = Vec::new();
        let mut departures = Vec::new();
        let mut now = 0u64;
        let mut req = 0usize;
        for _ in 0..batches {
            // Interleaved arrivals across instances (round-robin), the
            // way a front door actually routes them.
            let mut per_instance: Vec<Vec<(usize, u64)>> = vec![Vec::new(); instances];
            for k in 0..s * instances {
                now += 1_000;
                let inst = k % instances;
                arrivals.push(TraceArrival {
                    request: req,
                    at_us: now,
                    instance: inst as u16,
                    len: 1024,
                });
                per_instance[inst].push((req, now));
                req += 1;
            }
            for (inst, group) in per_instance.iter().enumerate() {
                let mut order: Vec<usize> = (0..group.len()).collect();
                if shuffled {
                    rng.shuffle(&mut order);
                }
                let burst_start = now + 5_000 + inst as u64 * 600;
                for (slot, &g) in order.iter().enumerate() {
                    departures.push(TraceDeparture {
                        at_us: burst_start + slot as u64 * 100,
                        instance: inst as u16,
                        len: 1172,
                        truth: group[g].0,
                    });
                }
            }
            now += 30_000; // inter-flush gap ≫ batch_gap_us
        }
        WireTrace {
            shuffle_size: s,
            instances,
            arrivals,
            departures,
        }
    }

    #[test]
    fn shuffled_trace_sits_at_one_over_s() {
        let trace = synthetic(8, 1, 60, true, 0x11ce);
        let out = wire_linkage_attack(&trace, &WireAuditConfig::default());
        assert_eq!(out.label, "instance-aware");
        assert!(
            out.score.within(),
            "measured {} vs bound {} (+{})",
            out.score.success_rate,
            out.score.bound,
            out.score.tolerance
        );
        // The attack must actually reach the floor, not under-perform.
        assert!(
            out.score.success_rate > out.score.bound / 3.0,
            "attack under-performs: {}",
            out.score.success_rate
        );
        assert!((out.mean_batch - 8.0).abs() < 1.0, "{}", out.mean_batch);
        // One length per side (as on the wire), or one length for both:
        // nothing is unique inside a batch, so the score is the rank
        // match's alone.
        let mut one_len = trace.clone();
        for a in &mut one_len.arrivals {
            a.len = 1172;
        }
        let same = wire_linkage_attack(&one_len, &WireAuditConfig::default());
        assert_eq!(same.score, out.score);
    }

    #[test]
    fn unpadded_lengths_defeat_the_shuffle() {
        let trace = synthetic(8, 1, 60, true, 0x11d1).with_join_key(|r| 600 + r % 97);
        let out = wire_linkage_attack(&trace, &WireAuditConfig::default());
        assert!(
            out.score.success_rate >= 0.9,
            "per-request lengths must link almost always: {}",
            out.score.success_rate
        );
        assert!(!out.score.within(), "the audit must flag unpadded traffic");
    }

    /// A metrics export that ships each request's arrival instant hands
    /// the observer a join key for every departure. An arrival that never
    /// departs (a request refused `busy`) hides it: it holds a FIFO
    /// candidate slot until a rank match pairs it, pushing a served
    /// arrival out of its batch, and the offset carries to every later
    /// batch.
    #[test]
    fn leaked_arrival_instants_are_flagged() {
        let trace = synthetic(8, 1, 60, true, 0x11d2);
        let leaked = |trace: &WireTrace| {
            let arrived: std::collections::HashMap<usize, u64> = trace
                .arrivals
                .iter()
                .map(|a| (a.request, a.at_us))
                .collect();
            let leaked = trace.with_join_key(|r| arrived[&r] as usize);
            wire_linkage_attack(&leaked, &WireAuditConfig::default())
        };
        let out = leaked(&trace);
        assert!(
            out.score.success_rate >= 0.9,
            "arrival instants must link almost always: {}",
            out.score.success_rate
        );
        assert!(!out.score.within(), "the audit must flag the export");
        let mut refused = trace.clone();
        for (k, a) in trace.arrivals.iter().take(4).enumerate() {
            refused.arrivals.push(TraceArrival {
                request: 1_000_000 + k,
                at_us: a.at_us + 500,
                ..*a
            });
        }
        let hidden = leaked(&refused).score.success_rate;
        assert!(hidden < 0.6, "stale arrivals must cost the catch: {hidden}");
    }

    /// Sharding the LRS by pseudonym labels each departure with a pure
    /// function of its request, one the arrival side does not carry:
    /// nothing joins, and the score is the unlabelled trace's, exactly.
    #[test]
    fn shard_labels_by_request_hash_add_nothing() {
        let trace = synthetic(10, 1, 60, true, 0x11d3);
        let plain = wire_linkage_attack(&trace, &WireAuditConfig::default());
        let shard = |r: usize| (r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 61;
        let mut labelled = trace.clone();
        for d in &mut labelled.departures {
            d.len = shard(d.truth) as usize;
        }
        let out = wire_linkage_attack(&labelled, &WireAuditConfig::default());
        assert_eq!(out.score, plain.score);
        assert!(out.score.within(), "{}", out.score.success_rate);
    }

    /// Routing by arrival order — shard = FIFO rank mod K, and a request's
    /// index is its arrival rank here — replays the order the shuffle
    /// hides, on both sides of the hop.
    #[test]
    fn arrival_order_shard_routing_is_flagged() {
        let trace = synthetic(10, 1, 60, true, 0x11d4).with_join_key(|r| r % 8);
        let out = wire_linkage_attack(&trace, &WireAuditConfig::default());
        assert!(
            !out.score.within(),
            "arrival-order labels must link: {}",
            out.score.success_rate
        );
    }

    #[test]
    fn unshuffled_trace_is_caught() {
        let trace = synthetic(8, 1, 40, false, 0x11cf);
        let out = wire_linkage_attack(&trace, &WireAuditConfig::default());
        assert!(
            out.score.success_rate > 0.9,
            "order-preserving release must link almost always: {}",
            out.score.success_rate
        );
        assert!(
            !out.score.within(),
            "the audit must flag the broken shuffle"
        );
    }

    #[test]
    fn blind_adversary_pays_the_instance_factor() {
        let trace = synthetic(6, 2, 60, true, 0x11d0);
        let aware = wire_linkage_attack(&trace, &WireAuditConfig::default());
        let blind = wire_linkage_attack(
            &trace,
            &WireAuditConfig {
                instance_blind: true,
                ..WireAuditConfig::default()
            },
        );
        assert_eq!(blind.label, "instance-blind");
        assert!((blind.score.bound - 1.0 / 12.0).abs() < 1e-12);
        assert!(aware.score.within(), "aware: {}", aware.score.success_rate);
        assert!(blind.score.within(), "blind: {}", blind.score.success_rate);
        assert!(
            blind.score.success_rate <= aware.score.success_rate + aware.score.tolerance,
            "hiding instance attribution cannot help the adversary"
        );
    }

    #[test]
    fn tolerance_shrinks_with_samples() {
        let small = synthetic(4, 1, 5, true, 1);
        let large = synthetic(4, 1, 200, true, 1);
        let o_small = wire_linkage_attack(&small, &WireAuditConfig::default());
        let o_large = wire_linkage_attack(&large, &WireAuditConfig::default());
        assert!(o_large.score.tolerance < o_small.score.tolerance);
    }
}
