//! Privacy audit of the *wire metrics exports* (the §6.2 adversary
//! holding every node's scrape output as side information).
//!
//! Every node answers a metrics scrape over the frame protocol, and
//! scrape output leaves the trust boundary — the monitoring system is
//! adversary-visible state, and the scrape is all of it. This module checks, by measurement, that the
//! scrape channel adds nothing to the network observer's power:
//!
//! * [`scan_export_for_oracles`] is the adversary's *triage* pass over a
//!   scraped snapshot document: it hunts for fields that would act as an
//!   arrival oracle — raw event-time series, per-request identifiers,
//!   correlation ids — independent of the exporter's own schema
//!   whitelist. A compliant snapshot carries only bucketed aggregates
//!   and monotone counters, and scans clean.
//! * [`scrape_side_information_attack`] mounts the joining attack: the
//!   §6.2 wire adversary (a [`WireTrace`] from taps on the UA→IA
//!   boundary) *plus* the scrape side channel. With compliant side
//!   information (per-window aggregate counts and dwell buckets) the
//!   measured linkage must stay at the `1/S` baseline; under the
//!   unsafe-export ablation — a broken exporter shipping raw
//!   per-departure arrival timestamps — the join is free and the audit
//!   must flag it.
//!
//! The synthetic trace generator mirrors the production path: arrivals
//! jittered around an open-loop schedule, batching through the real
//! [`ShuffleBuffer`], departures in shuffled order. The live chain is
//! exercised by `pprox-scenario`, which feeds real scrapes through
//! [`scan_export_for_oracles`] during every load shape.

use crate::wire_audit::{TraceArrival, TraceDeparture, WireTrace};
use crate::LinkageScore;
use pprox_core::shuffler::{ShuffleBuffer, ShuffleConfig};
use pprox_crypto::rng::SecureRng;
use pprox_json::Value;

/// Parameters of one scrape-channel audit run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrapeAuditConfig {
    /// Shuffle buffer size `S` (the anonymity-set size).
    pub shuffle_size: usize,
    /// Requests to generate; rounded down to a multiple of
    /// `shuffle_size` so every flush group is full.
    pub flows: usize,
    /// Scrape cadence in virtual µs — how often the adversary's
    /// monitoring feed publishes a window of aggregates.
    pub window_us: u64,
    /// Ablation: the exporter ships raw per-departure arrival
    /// timestamps alongside the aggregates. The audit must catch this.
    pub unsafe_export: bool,
    /// Drives arrivals, shuffling, and adversary guesses.
    pub seed: u64,
}

impl Default for ScrapeAuditConfig {
    fn default() -> Self {
        ScrapeAuditConfig {
            shuffle_size: 10,
            flows: 2_000,
            window_us: 100_000,
            unsafe_export: false,
            seed: 0x5c4a_9e01,
        }
    }
}

/// One published scrape window: what a compliant node exports about an
/// interval of its life — aggregates only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrapeWindow {
    /// Window start, µs.
    pub start_us: u64,
    /// Departures the node counted in this window.
    pub departures: u64,
    /// Bucketed dwell-time counts (log-ish buckets, no ordering).
    pub dwell_buckets: Vec<u64>,
}

/// The scrape side channel handed to the adversary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrapeSideInfo {
    /// Window length, µs.
    pub window_us: u64,
    /// Published windows, in order.
    pub windows: Vec<ScrapeWindow>,
    /// The unsafe-export ablation: raw arrival timestamps, one per
    /// departure in departure order. `None` for a compliant exporter.
    pub raw_arrivals: Option<Vec<u64>>,
}

/// Result of the side-information attack.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapeAuditOutcome {
    /// Post-shuffle identifications with the side channel in hand,
    /// against the §6.2 baseline `1/S` the export must not beat.
    pub score: LinkageScore,
    /// Whether the audited exporter shipped the unsafe ablation.
    pub unsafe_export: bool,
}

impl ScrapeAuditOutcome {
    fn new(attempts: usize, correct: usize, s: usize, unsafe_export: bool) -> Self {
        ScrapeAuditOutcome {
            score: LinkageScore::new(attempts, correct, 1.0 / s.max(1) as f64),
            unsafe_export,
        }
    }
}

/// Coarse dwell bucketing for the aggregate windows — intentionally the
/// only granularity a compliant exporter publishes.
fn dwell_bucket(dwell_us: u64) -> usize {
    (64 - u64::leading_zeros(dwell_us.max(1)) as usize).min(31)
}

/// Generates a synthetic wire trace through the real [`ShuffleBuffer`]:
/// jittered open-loop arrivals, count-driven flushes, departures in
/// shuffled order. Returns the trace the §6.2 tap adversary records.
pub fn synthetic_trace(config: &ScrapeAuditConfig) -> WireTrace {
    let s = config.shuffle_size.max(1);
    let flows = (config.flows / s).max(1) * s;
    let mut rng = SecureRng::from_seed(config.seed);
    let mut buffer: ShuffleBuffer<usize> = ShuffleBuffer::new(
        ShuffleConfig {
            size: s,
            // Count-driven flushes only: the audit models steady load.
            timeout_us: u64::MAX / 2,
        },
        config.seed ^ 0x005c_4a11,
    );
    let mut arrivals = Vec::with_capacity(flows);
    let mut departures = Vec::new();
    let mut now_us = 0u64;
    for flow in 0..flows {
        now_us += 700 + rng.below(600);
        arrivals.push(TraceArrival {
            request: flow,
            at_us: now_us,
            instance: 0,
            len: 1024,
        });
        if let Some(flush) = buffer.push(now_us, flow) {
            // Frames leave back-to-back inside the flush, well inside
            // the inter-batch gap so groups do not interleave.
            let mut t = now_us;
            for member in &flush.items {
                t += 5 + rng.below(20);
                departures.push(TraceDeparture {
                    at_us: t,
                    instance: 0,
                    len: 1172,
                    truth: *member,
                });
            }
        }
    }
    WireTrace {
        shuffle_size: s,
        instances: 1,
        arrivals,
        departures,
    }
}

/// Builds the scrape side channel an exporter would publish over the
/// run of `trace`: per-window departure counts and dwell buckets, plus
/// — under the ablation — the raw arrival timestamp of every departure.
pub fn synthesize_scrape(trace: &WireTrace, window_us: u64, unsafe_export: bool) -> ScrapeSideInfo {
    let arrival_of = |request: usize| {
        trace
            .arrivals
            .iter()
            .find(|a| a.request == request)
            .map(|a| a.at_us)
            .unwrap_or(0)
    };
    let window_us = window_us.max(1);
    let mut windows: Vec<ScrapeWindow> = Vec::new();
    for dep in &trace.departures {
        let start = (dep.at_us / window_us) * window_us;
        if windows.last().map(|w| w.start_us) != Some(start) {
            windows.push(ScrapeWindow {
                start_us: start,
                departures: 0,
                dwell_buckets: vec![0; 32],
            });
        }
        let w = windows.last_mut().expect("just pushed");
        w.departures += 1;
        let dwell = dep.at_us.saturating_sub(arrival_of(dep.truth));
        w.dwell_buckets[dwell_bucket(dwell)] += 1;
    }
    let raw_arrivals = unsafe_export.then(|| {
        trace
            .departures
            .iter()
            .map(|d| arrival_of(d.truth))
            .collect()
    });
    ScrapeSideInfo {
        window_us,
        windows,
        raw_arrivals,
    }
}

/// Mounts the joining attack: the tap trace plus the scrape channel.
///
/// For each target arrival the adversary delimits its flush group on
/// the wire (the departures between the target's arrival and the next
/// batch boundary), then uses the side channel to pick within it. A
/// compliant channel's window aggregates are constant across the
/// group's members, so the best strategy degenerates to the uniform
/// guess; the raw-timestamp ablation joins exactly.
pub fn scrape_side_information_attack(
    trace: &WireTrace,
    side: &ScrapeSideInfo,
    seed: u64,
) -> ScrapeAuditOutcome {
    let mut rng = SecureRng::from_seed(seed);
    let s = trace.shuffle_size.max(1);
    // Batch boundaries: departures sorted by time, a gap wider than the
    // intra-flush spread starts a new group.
    let mut order: Vec<usize> = (0..trace.departures.len()).collect();
    order.sort_by_key(|&i| trace.departures[i].at_us);
    let mut group_of = vec![0usize; trace.departures.len()];
    let mut group = 0usize;
    for (k, &i) in order.iter().enumerate() {
        if k > 0 {
            let prev = trace.departures[order[k - 1]].at_us;
            if trace.departures[i].at_us.saturating_sub(prev) > 200 {
                group += 1;
            }
        }
        group_of[i] = group;
    }

    let mut attempts = 0usize;
    let mut correct = 0usize;
    for target in &trace.arrivals {
        // The target's departure group, identified by ground truth the
        // way the wire adversary would by burst timing.
        let Some(dep_idx) = trace
            .departures
            .iter()
            .position(|d| d.truth == target.request)
        else {
            continue;
        };
        attempts += 1;
        let g = group_of[dep_idx];
        let candidates: Vec<usize> = (0..trace.departures.len())
            .filter(|&i| group_of[i] == g)
            .collect();
        let guess = match &side.raw_arrivals {
            // Ablation: the export names each departure's arrival time —
            // a free join against the adversary's own arrival log.
            Some(raw) => candidates
                .iter()
                .copied()
                .find(|&i| raw.get(i) == Some(&target.at_us)),
            // Compliant channel: every candidate sits in the same scrape
            // window with identical aggregates; nothing distinguishes
            // them, so guess uniformly.
            None => {
                if candidates.is_empty() {
                    None
                } else {
                    Some(candidates[rng.below(candidates.len() as u64) as usize])
                }
            }
        };
        if guess.map(|i| trace.departures[i].truth) == Some(target.request) {
            correct += 1;
        }
    }
    ScrapeAuditOutcome::new(attempts, correct, s, side.raw_arrivals.is_some())
}

/// Generates the trace and side channel, then mounts the attack: the
/// full scrape audit in one call.
pub fn audit_scrape_channel(config: &ScrapeAuditConfig) -> ScrapeAuditOutcome {
    let trace = synthetic_trace(config);
    let side = synthesize_scrape(&trace, config.window_us, config.unsafe_export);
    scrape_side_information_attack(&trace, &side, config.seed ^ 0x5c4a)
}

/// The adversary's triage pass over one scraped snapshot document:
/// returns the JSON paths of fields that would act as a linkage oracle.
/// Empty means the export is aggregate-only.
///
/// Two independent heuristics (deliberately *not* the exporter's own
/// schema whitelist, so a schema bug and this scan fail independently):
///
/// * key names that ship per-request state: anything containing
///   `arrival`, `timestamp`, `trace_id`, `span`, or `corr`;
/// * value shapes that look like a raw event-time series: an array of
///   eight or more strictly increasing numbers at microsecond scale.
///   (Sparse histograms encode as `[index, count]` *pairs* and never
///   match.)
pub fn scan_export_for_oracles(root: &Value) -> Vec<String> {
    let mut hits = Vec::new();
    scan_value(root, "$", &mut hits);
    hits
}

const ORACLE_KEY_FRAGMENTS: [&str; 5] = ["arrival", "timestamp", "trace_id", "span", "corr"];

fn scan_value(value: &Value, path: &str, hits: &mut Vec<String>) {
    match value {
        Value::Object(map) => {
            for (key, child) in map {
                let lowered = key.to_ascii_lowercase();
                let child_path = format!("{path}.{key}");
                if ORACLE_KEY_FRAGMENTS.iter().any(|f| lowered.contains(f)) {
                    hits.push(child_path.clone());
                }
                scan_value(child, &child_path, hits);
            }
        }
        Value::Array(items) => {
            if looks_like_time_series(items) {
                hits.push(format!("{path}[raw-time-series]"));
            }
            for (i, child) in items.iter().enumerate() {
                scan_value(child, &format!("{path}[{i}]"), hits);
            }
        }
        _ => {}
    }
}

/// An array of ≥8 strictly increasing numbers reaching microsecond
/// scale: the shape of a raw event-time log.
fn looks_like_time_series(items: &[Value]) -> bool {
    if items.len() < 8 {
        return false;
    }
    let mut prev = f64::NEG_INFINITY;
    let mut max = 0.0f64;
    for item in items {
        let Value::Number(n) = item else { return false };
        if *n <= prev {
            return false;
        }
        prev = *n;
        max = max.max(*n);
    }
    max >= 1_000_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compliant_scrape_channel_stays_at_the_shuffle_baseline() {
        let outcome = audit_scrape_channel(&ScrapeAuditConfig::default());
        assert!(!outcome.unsafe_export);
        assert!(
            outcome.score.within(),
            "measured {} vs baseline {} (+{})",
            outcome.score.success_rate,
            outcome.score.bound,
            outcome.score.tolerance
        );
        // The uniform strategy does reach the 1/S floor; near-zero would
        // mean the attack (not the defense) is broken.
        assert!(
            outcome.score.success_rate > outcome.score.bound / 3.0,
            "attack under-performs: {}",
            outcome.score.success_rate
        );
    }

    #[test]
    fn raw_timestamp_export_is_caught() {
        let outcome = audit_scrape_channel(&ScrapeAuditConfig {
            unsafe_export: true,
            ..ScrapeAuditConfig::default()
        });
        assert!(outcome.unsafe_export);
        assert!(
            outcome.score.success_rate > 0.9,
            "raw timestamps should join almost always: {}",
            outcome.score.success_rate
        );
        assert!(
            !outcome.score.within(),
            "the audit must flag the unsafe export"
        );
    }

    #[test]
    fn larger_shuffle_lowers_side_channel_linkage() {
        let base = ScrapeAuditConfig {
            flows: 3_000,
            ..ScrapeAuditConfig::default()
        };
        let s5 = audit_scrape_channel(&ScrapeAuditConfig {
            shuffle_size: 5,
            ..base
        });
        let s20 = audit_scrape_channel(&ScrapeAuditConfig {
            shuffle_size: 20,
            ..base
        });
        assert!(s20.score.success_rate < s5.score.success_rate);
        assert!(s5.score.within() && s20.score.within());
    }

    #[test]
    fn oracle_scan_passes_aggregate_shapes_and_flags_oracles() {
        let clean = Value::parse(
            r#"{"server":{"frames_in":120,"poll_loop":{"counts":[[3,10],[7,2]],"sum_us":900,"max_us":400}},"shuffle":{"occupancy":3}}"#,
        )
        .unwrap();
        assert!(scan_export_for_oracles(&clean).is_empty());

        let keyed = Value::parse(r#"{"server":{"arrival_times":[1,2]}}"#).unwrap();
        assert!(scan_export_for_oracles(&keyed)
            .iter()
            .any(|p| p.contains("arrival_times")));

        let series = Value::parse(
            r#"{"debug":{"events":[1000001,1000900,1001800,1002500,1003100,1004000,1005200,1006100]}}"#,
        )
        .unwrap();
        assert!(scan_export_for_oracles(&series)
            .iter()
            .any(|p| p.contains("raw-time-series")));

        // A sparse histogram's [idx, count] pairs must not be mistaken
        // for a time series even with many populated buckets.
        let pairs: Vec<Value> = (0..20)
            .map(|i| {
                Value::Array(vec![
                    Value::Number((i * 50) as f64),
                    Value::Number(2_000_000.0 + i as f64),
                ])
            })
            .collect();
        let mut hist = std::collections::BTreeMap::new();
        hist.insert("counts".to_string(), Value::Array(pairs));
        let doc = Value::Object(hist);
        assert!(scan_export_for_oracles(&doc).is_empty());
    }
}
