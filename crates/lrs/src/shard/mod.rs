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
//!   behind the REST surface, plus internal `/history` and `/score`
//!   endpoints for scatter-gather reads.
//! * [`durable`] — the durable wrapper: sealed WAL + snapshots per
//!   engine, so each shard recovers independently.
//!
//! Cross-shard reads are scatter-gather with a deterministic top-k
//! merge: the owner shard supplies the user's history, every shard
//! scores that history against its local model, and per-item scores are
//! summed across shards (each co-occurrence pair is counted by exactly
//! the shards whose users exhibited it) before one total-order sort.
//! [`ShardedLrs`] is the in-process router; the wire cluster's
//! `ShardRouter` (crates/wire) speaks the same two internal endpoints
//! over padded frames.

pub mod durable;
pub mod engine;
pub mod incremental;
pub mod ring;

pub use durable::{DurableConfig, DurableShard, RecoveryStats, SHARD_STORE_IDENTITY};
pub use engine::ShardEngine;
pub use incremental::{IncrementalCco, IncrementalStats};
pub use ring::{fnv1a64, HashRing, DEFAULT_VNODES};

use crate::api::{
    HttpRequest, HttpResponse, RecommendationList, RecommendationQuery, RestHandler, ScoredItem,
    EVENTS_PATH, QUERIES_PATH,
};
use pprox_json::Value;
use std::sync::Arc;

/// Path of the internal owner-history endpoint (router → owning shard).
pub const HISTORY_PATH: &str = "/shard/history";

/// Path of the internal scatter-score endpoint (router → every shard).
pub const SCORE_PATH: &str = "/shard/score";

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
pub fn history_request_body(user: &str, limit: Option<usize>) -> String {
    let mut v = Value::object([("user", Value::from(user))]);
    if let Some(limit) = limit {
        v.insert("limit", Value::from(limit as u64));
    }
    v.to_json()
}

/// Parses the `/shard/history` request body into `(user, limit)`.
pub fn parse_history_request(body: &str) -> Option<(String, Option<usize>)> {
    let v = Value::parse(body).ok()?;
    let user = v.get("user")?.as_str()?.to_owned();
    let limit = match v.get("limit") {
        None => None,
        Some(l) => Some(l.as_u64()? as usize),
    };
    Some((user, limit))
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
/// empty, mirroring [`RecommendationQuery::to_json`]).
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

/// In-process sharded LRS: a [`HashRing`] over N shard handlers, owning
/// the route-to-owner / scatter-gather logic. Serves the same external
/// REST surface as a single LRS (`/events`, `/queries`) so it drops in
/// anywhere a [`RestHandler`] does — the shard-scaling benches drive it
/// directly, and the wire `ShardRouter` reimplements the same routing
/// over padded frames.
pub struct ShardedLrs {
    ring: HashRing,
    shards: Vec<Arc<dyn RestHandler>>,
}

impl std::fmt::Debug for ShardedLrs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLrs")
            .field("shards", &self.shards.len())
            .field("vnodes", &self.ring.vnodes())
            .finish()
    }
}

impl ShardedLrs {
    /// A router over `shards` (shard id == vector index) with `vnodes`
    /// virtual nodes each.
    ///
    /// # Panics
    ///
    /// If `shards` is empty or `vnodes` is zero.
    pub fn new(shards: Vec<Arc<dyn RestHandler>>, vnodes: usize) -> Self {
        let ring = HashRing::new(shards.len(), vnodes);
        ShardedLrs { ring, shards }
    }

    /// The ring (for balance/ownership assertions in tests and audits).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning `pseudonym`.
    pub fn owner(&self, pseudonym: &str) -> usize {
        self.ring.owner(pseudonym)
    }

    fn handle_event(&self, request: &HttpRequest) -> HttpResponse {
        let Some(event) = crate::api::FeedbackEvent::from_json(&request.body) else {
            return HttpResponse::error(400, "malformed event");
        };
        self.shards[self.ring.owner(&event.user)].handle(request)
    }

    fn handle_query(&self, request: &HttpRequest) -> HttpResponse {
        let Some(query) = RecommendationQuery::from_json(&request.body) else {
            return HttpResponse::error(400, "malformed query");
        };
        let owner = self.ring.owner(&query.user);
        let history_resp = self.shards[owner].handle(&HttpRequest::post(
            HISTORY_PATH,
            history_request_body(&query.user, None),
        ));
        if !history_resp.is_success() {
            return history_resp;
        }
        let Some(history) = parse_history_response(&history_resp.body) else {
            return HttpResponse::error(502, "malformed shard history");
        };
        let n = query.num.min(crate::MAX_RECOMMENDATIONS);
        let list = self.scatter_score(&history, n, &query.exclude);
        HttpResponse::ok(list.to_json())
    }

    fn scatter_score(
        &self,
        history: &[String],
        n: usize,
        exclude: &[String],
    ) -> RecommendationList {
        let body = score_request_body(history, n, exclude);
        let lists = self.shards.iter().filter_map(|shard| {
            let resp = shard.handle(&HttpRequest::post(SCORE_PATH, body.clone()));
            // A failed shard degrades the read (partial merge) instead
            // of failing it — the supervisor will bring it back.
            resp.is_success()
                .then(|| RecommendationList::from_json(&resp.body))
                .flatten()
        });
        merge_scored(lists, n)
    }

    fn handle_history(&self, request: &HttpRequest) -> HttpResponse {
        let Some((user, _)) = parse_history_request(&request.body) else {
            return HttpResponse::error(400, "malformed history request");
        };
        self.shards[self.ring.owner(&user)].handle(request)
    }

    fn handle_score(&self, request: &HttpRequest) -> HttpResponse {
        let Some((history, num, exclude)) = parse_score_request(&request.body) else {
            return HttpResponse::error(400, "malformed score request");
        };
        let n = num.min(crate::MAX_RECOMMENDATIONS);
        HttpResponse::ok(self.scatter_score(&history, n, &exclude).to_json())
    }
}

impl RestHandler for ShardedLrs {
    fn handle(&self, request: &HttpRequest) -> HttpResponse {
        use crate::api::Method;
        match (request.method, request.path.as_str()) {
            (Method::Post, EVENTS_PATH) => self.handle_event(request),
            (Method::Post, QUERIES_PATH) => self.handle_query(request),
            (Method::Post, HISTORY_PATH) => self.handle_history(request),
            (Method::Post, SCORE_PATH) => self.handle_score(request),
            _ => HttpResponse::error(404, "unknown endpoint"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::FeedbackEvent;
    use crate::cco::CcoConfig;

    fn sharded(n: usize) -> (ShardedLrs, Vec<Arc<ShardEngine>>) {
        let engines: Vec<Arc<ShardEngine>> = (0..n)
            .map(|_| {
                Arc::new(ShardEngine::with_config(CcoConfig {
                    min_llr: 0.5,
                    ..CcoConfig::default()
                }))
            })
            .collect();
        let handlers: Vec<Arc<dyn RestHandler>> = engines
            .iter()
            .map(|e| e.clone() as Arc<dyn RestHandler>)
            .collect();
        (ShardedLrs::new(handlers, 32), engines)
    }

    fn post(lrs: &ShardedLrs, user: &str, item: &str) {
        let body = FeedbackEvent {
            user: user.into(),
            item: item.into(),
            payload: None,
        }
        .to_json();
        assert!(lrs
            .handle(&HttpRequest::post(EVENTS_PATH, body))
            .is_success());
    }

    fn seed(lrs: &ShardedLrs) {
        // Contrast users first (see the drift note in `incremental`):
        // the association pairs then score high at event time on every
        // shard that owns some of their users.
        for u in 0..12 {
            post(lrs, &format!("bg-{u}"), &format!("solo-{u}"));
        }
        for u in 0..12 {
            post(lrs, &format!("sci-{u}"), "alien");
            post(lrs, &format!("sci-{u}"), "dune");
        }
    }

    #[test]
    fn events_land_on_the_owner_shard_only() {
        let (lrs, engines) = sharded(4);
        seed(&lrs);
        let mut total = 0;
        for (idx, engine) in engines.iter().enumerate() {
            let g = engine.gauges();
            total += g.events;
            // Every event on this shard belongs to a user it owns.
            assert!(g.events == 0 || idx < 4);
        }
        assert_eq!(total, 36);
        // Spot-check ownership: a user's history lives only on its owner.
        let owner = lrs.owner("sci-0");
        for (idx, engine) in engines.iter().enumerate() {
            let hist = engine.history("sci-0");
            if idx == owner {
                assert_eq!(hist, vec!["alien", "dune"]);
            } else {
                assert!(hist.is_empty());
            }
        }
    }

    #[test]
    fn cross_shard_query_merges_to_the_association() {
        let (lrs, _) = sharded(4);
        seed(&lrs);
        post(&lrs, "newbie", "alien");
        let resp = lrs.handle(&HttpRequest::post(
            QUERIES_PATH,
            r#"{"user":"newbie","num":5}"#,
        ));
        assert!(resp.is_success());
        let list = RecommendationList::from_json(&resp.body).unwrap();
        assert_eq!(list.item_ids(), vec!["dune"]);
    }

    #[test]
    fn single_shard_router_matches_the_bare_shard() {
        let (lrs, engines) = sharded(1);
        seed(&lrs);
        post(&lrs, "newbie", "alien");
        let via_router = lrs.handle(&HttpRequest::post(
            QUERIES_PATH,
            r#"{"user":"newbie","num":5}"#,
        ));
        let direct = engines[0].get_filtered("newbie", 5, &[]);
        assert_eq!(via_router.body, direct.to_json());
    }

    #[test]
    fn unknown_user_gets_empty_list() {
        let (lrs, _) = sharded(3);
        seed(&lrs);
        let resp = lrs.handle(&HttpRequest::post(
            QUERIES_PATH,
            r#"{"user":"stranger","num":5}"#,
        ));
        assert!(resp.is_success());
        assert!(RecommendationList::from_json(&resp.body)
            .unwrap()
            .items
            .is_empty());
    }

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
        let body = history_request_body("u1", Some(8));
        assert_eq!(parse_history_request(&body), Some(("u1".into(), Some(8))));
        let body = history_request_body("u1", None);
        assert_eq!(parse_history_request(&body), Some(("u1".into(), None)));
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

    #[test]
    fn malformed_router_bodies_rejected() {
        let (lrs, _) = sharded(2);
        for path in [EVENTS_PATH, QUERIES_PATH, HISTORY_PATH, SCORE_PATH] {
            assert_eq!(lrs.handle(&HttpRequest::post(path, "nope")).status, 400);
        }
        assert_eq!(lrs.handle(&HttpRequest::post("/none", "{}")).status, 404);
    }
}
