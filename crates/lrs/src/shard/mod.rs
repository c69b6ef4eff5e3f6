//! The LRS: one incremental CCO engine, its durable wrapper, and
//! consistent-hash partitioning over any number of them.
//!
//! The paper keeps recommendation logic *outside* the enclaves (§3)
//! precisely so the backend can scale like any untrusted service. This
//! subsystem is the whole recommender — a deployment is N ≥ 1
//! [`ShardEngine`]s, and "unsharded" means a ring of one — with the
//! scale shape the ROADMAP north-star of millions of users needs:
//!
//! * [`ring`] — a consistent-hash ring (virtual nodes) keyed by the
//!   *pseudonym* strings the proxy layers emit, so partitioning never
//!   sees a cleartext identity and rebalancing moves only ~K/N keys
//!   without re-keying sibling shards.
//! * [`incremental`] — per-event CCO indicator/co-occurrence updates
//!   in place of a periodic batch retrain, so recommendations stay
//!   fresh under sustained ingest (Zhao et al.'s incremental
//!   item-similarity line).
//! * [`engine`] — the engine: its users' histories + incremental model
//!   behind the REST surface, plus the internal [`HISTORY_PATH`] and
//!   [`SCORE_PATH`] endpoints for scatter-gather reads.
//! * [`durable`] — the durable wrapper: sealed WAL + snapshots per
//!   engine, so each shard recovers independently.
//!
//! Cross-shard reads are scatter-gather with a deterministic top-k
//! merge: the owner shard supplies the user's newest [`HISTORY_LIMIT`]
//! history entries, every shard scores that history against its local
//! model, and per-item scores are summed across shards (each
//! co-occurrence pair is counted by exactly the shards whose users
//! exhibited it) before one total-order sort ([`merge_scored`]). This
//! module holds the pieces; the router is the IA (`pprox_wire`'s
//! `services::ia`), which pins each event to its owner shard by this
//! ring and runs the read over padded frames.

pub mod durable;
pub mod engine;
pub mod incremental;
pub mod ring;

pub use durable::{DurableConfig, DurableShard, RecoveryStats, SHARD_STORE_IDENTITY};
pub use engine::ShardEngine;
pub use incremental::{IncrementalCco, IncrementalStats};
pub use ring::{fnv1a64, HashRing, DEFAULT_VNODES};

use crate::api::{RecommendationList, ScoredItem};
use pprox_json::Value;

/// Path of the internal owner-history endpoint (router → owning shard).
pub const HISTORY_PATH: &str = "/shard/history";

/// Path of the internal scatter-score endpoint (router → every shard).
pub const SCORE_PATH: &str = "/shard/score";

/// History entries [`HISTORY_PATH`] answers with: the owner shard's
/// newest ones. Chosen so the `/shard/score` request (16 × 44-char
/// pseudonyms + wrapper, JSON-escaped inside the wire envelope) always
/// fits one padded `Request`-class frame.
pub const HISTORY_LIMIT: usize = 16;

/// Per-shard gauges exported on the scrape surface: aggregate counters
/// only — no per-pseudonym detail ever leaves the shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardGauges {
    /// Feedback events ingested.
    pub events: u64,
    /// Scoring requests served (queries + scatter scores).
    pub queries: u64,
    /// Indicator lists possibly stale since the last sync (depth gauge).
    pub dirty: u64,
    /// Microseconds the last accepted event took to become queryable
    /// (ingest-lag gauge).
    pub lag_us: u64,
}

/// Builds the `/shard/history` request body.
pub fn history_request_body(user: &str) -> String {
    Value::object([("user", Value::from(user))]).to_json()
}

/// Parses the `/shard/history` request body into the user.
pub fn parse_history_request(body: &str) -> Option<String> {
    Some(Value::parse(body).ok()?.get("user")?.as_str()?.to_owned())
}

/// Builds the `/shard/history` response body (`{"items":[..]}`, plain
/// strings — histories are item ids, not scored results).
pub fn history_response_body(items: &[String]) -> String {
    let arr: Value = items.iter().map(|i| Value::from(i.as_str())).collect();
    Value::object([("items", arr)]).to_json()
}

/// Parses the `/shard/history` response body.
pub fn parse_history_response(body: &str) -> Option<Vec<String>> {
    let v = Value::parse(body).ok()?;
    v.get("items")?
        .as_array()?
        .iter()
        .map(|e| e.as_str().map(str::to_owned))
        .collect()
}

/// Builds the `/shard/score` request body (`exclude` omitted when
/// empty, mirroring [`crate::api::RecommendationQuery::to_json`]).
pub fn score_request_body(history: &[String], num: usize, exclude: &[String]) -> String {
    let mut v = Value::object([
        (
            "history",
            history.iter().map(|h| Value::from(h.as_str())).collect(),
        ),
        ("num", Value::from(num as u64)),
    ]);
    if !exclude.is_empty() {
        v.insert(
            "exclude",
            exclude.iter().map(|e| Value::from(e.as_str())).collect(),
        );
    }
    v.to_json()
}

/// [`score_request_body`] under a byte budget: drops the *oldest*
/// history entries until the body fits in `max_bytes` (the wire router
/// must fit one padded request frame). Returns the body and how many
/// entries were dropped.
pub fn score_request_body_bounded(
    history: &[String],
    num: usize,
    exclude: &[String],
    max_bytes: usize,
) -> (String, usize) {
    let mut start = 0;
    loop {
        let body = score_request_body(&history[start..], num, exclude);
        if body.len() <= max_bytes || start >= history.len() {
            return (body, start);
        }
        start += 1;
    }
}

/// Parses the `/shard/score` request body into
/// `(history, num, exclude)`; `num` defaults to
/// [`crate::MAX_RECOMMENDATIONS`].
pub fn parse_score_request(body: &str) -> Option<(Vec<String>, usize, Vec<String>)> {
    let v = Value::parse(body).ok()?;
    let history = v
        .get("history")?
        .as_array()?
        .iter()
        .map(|e| e.as_str().map(str::to_owned))
        .collect::<Option<Vec<_>>>()?;
    let num = v
        .get("num")
        .and_then(|n| n.as_u64())
        .map(|n| n as usize)
        .unwrap_or(crate::MAX_RECOMMENDATIONS);
    let exclude = match v.get("exclude") {
        None => Vec::new(),
        Some(arr) => arr
            .as_array()?
            .iter()
            .map(|e| e.as_str().map(str::to_owned))
            .collect::<Option<Vec<_>>>()?,
    };
    Some((history, num, exclude))
}

/// Deterministic top-k merge of per-shard score lists: per-item scores
/// sum across shards in shard order, then one total-order sort (score
/// descending, item ascending) and truncation to `n`. Summation is
/// correct because every co-occurrence pair is counted by exactly the
/// shards whose users exhibited it, and each shard already filtered the
/// history/exclude items out.
pub fn merge_scored(
    lists: impl IntoIterator<Item = RecommendationList>,
    n: usize,
) -> RecommendationList {
    // Accumulate in first-seen order so f64 addition order is fixed by
    // shard order, keeping the merge bit-deterministic.
    let mut order: Vec<String> = Vec::new();
    let mut scores: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    for list in lists {
        for scored in list.items {
            match scores.get_mut(&scored.item) {
                Some(total) => *total += scored.score,
                None => {
                    order.push(scored.item.clone());
                    scores.insert(scored.item, scored.score);
                }
            }
        }
    }
    let mut items: Vec<ScoredItem> = order
        .into_iter()
        .map(|item| {
            let score = scores[&item];
            ScoredItem { item, score }
        })
        .collect();
    engine::sort_scored(&mut items);
    items.truncate(n);
    RecommendationList { items }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_scores_deterministically() {
        let a = RecommendationList {
            items: vec![
                ScoredItem {
                    item: "x".into(),
                    score: 2.0,
                },
                ScoredItem {
                    item: "y".into(),
                    score: 1.0,
                },
            ],
        };
        let b = RecommendationList {
            items: vec![
                ScoredItem {
                    item: "y".into(),
                    score: 3.0,
                },
                ScoredItem {
                    item: "z".into(),
                    score: 2.0,
                },
            ],
        };
        let merged = merge_scored([a, b], 10);
        let pairs: Vec<(&str, f64)> = merged
            .items
            .iter()
            .map(|s| (s.item.as_str(), s.score))
            .collect();
        assert_eq!(pairs, vec![("y", 4.0), ("x", 2.0), ("z", 2.0)]);
        // Truncation respects the total order.
        assert_eq!(merge_scored([merged], 1).item_ids(), vec!["y"]);
    }

    #[test]
    fn helper_bodies_roundtrip() {
        let body = history_request_body("u1");
        assert_eq!(parse_history_request(&body), Some("u1".into()));
        let items = vec!["a".to_owned(), "b".to_owned()];
        assert_eq!(
            parse_history_response(&history_response_body(&items)),
            Some(items.clone())
        );
        let body = score_request_body(&items, 7, &["c".to_owned()]);
        assert_eq!(
            parse_score_request(&body),
            Some((items.clone(), 7, vec!["c".to_owned()]))
        );
        let body = score_request_body(&items, 7, &[]);
        assert_eq!(parse_score_request(&body), Some((items, 7, Vec::new())));
    }

    #[test]
    fn bounded_body_drops_oldest_first() {
        let history: Vec<String> = (0..50).map(|i| format!("item-{i:04}")).collect();
        let full = score_request_body(&history, 5, &[]);
        let (bounded, dropped) = score_request_body_bounded(&history, 5, &[], full.len() / 2);
        assert!(bounded.len() <= full.len() / 2);
        assert!(dropped > 0 && dropped < 50);
        let (parsed, _, _) = parse_score_request(&bounded).unwrap();
        assert_eq!(parsed.last().unwrap(), "item-0049", "newest kept");
        assert_eq!(parsed.first().unwrap(), &format!("item-{dropped:04}"));
    }
}
