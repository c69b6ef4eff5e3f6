//! The recommendation engine: user histories + incremental CCO model.
//!
//! [`ShardEngine`] is the one LRS engine (the Universal Recommender
//! stand-in of §7). It holds the interaction histories of the users it
//! owns plus an [`IncrementalCco`](super::incremental::IncrementalCco)
//! model trained online from their events: every accepted post updates
//! the scoring index before it returns, so reads are fresh by
//! construction, and [`ShardEngine::sync`] repairs the model to exactly
//! what a from-scratch [`crate::cco::CcoTrainer`] pass over the same
//! events would produce (`tests/shard_differential.rs`). Alone it is
//! the whole unsharded LRS; behind a [`super::ring::HashRing`] it is one
//! arc's slice of the catalog.
//!
//! The engine is identifier-agnostic: user and item ids are opaque
//! strings, which is precisely why PProx's deterministic
//! pseudonymization is transparent to it — `det_enc(u)` is just another
//! id.
//!
//! Besides the legacy `/events` and `/queries` endpoints, it serves two
//! *internal* endpoints used by the routers for scatter-gather reads:
//! [`HISTORY_PATH`](super::HISTORY_PATH) returns the owner-shard copy
//! of a user's history, and [`SCORE_PATH`](super::SCORE_PATH) scores a
//! caller-supplied history against this shard's model, returning its
//! local top-k for the merge.

use super::incremental::{IncrementalCco, IncrementalStats, ItemId};
use super::{
    history_response_body, parse_history_request, parse_score_request, ShardGauges, HISTORY_PATH,
    SCORE_PATH,
};
use crate::api::{
    FeedbackEvent, HttpRequest, HttpResponse, Method, RecommendationList, RecommendationQuery,
    RestHandler, ScoredItem, EVENTS_PATH, QUERIES_PATH,
};
use crate::cco::CcoConfig;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One user's record on its owning shard.
#[derive(Debug, Default)]
struct UserRec {
    /// Full interaction history, in arrival order, duplicates included.
    history: Vec<ItemId>,
    /// Deduplicated, downsampled item set (the CCO training view).
    set: Vec<ItemId>,
}

struct ShardState {
    model: IncrementalCco,
    users: HashMap<String, UserRec>,
}

/// One shard's engine: user partition + incremental model.
///
/// Thread-safe: posts take the shard's write lock (serialized per shard,
/// concurrent across shards — that per-shard independence is where the
/// scaling curve comes from), queries take the read lock.
pub struct ShardEngine {
    state: RwLock<ShardState>,
    events: AtomicU64,
    queries: AtomicU64,
}

impl std::fmt::Debug for ShardEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardEngine")
            .field("events", &self.events.load(Ordering::Relaxed))
            .field("queries", &self.queries.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for ShardEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardEngine {
    /// An empty shard with default CCO limits.
    pub fn new() -> Self {
        Self::with_config(CcoConfig::default())
    }

    /// An empty shard with explicit CCO limits.
    pub fn with_config(config: CcoConfig) -> Self {
        ShardEngine {
            state: RwLock::new(ShardState {
                model: IncrementalCco::new(config),
                users: HashMap::new(),
            }),
            events: AtomicU64::new(0),
            queries: AtomicU64::new(0),
        }
    }

    /// Records feedback: `user` interacted with `item`. The payload is
    /// accepted for API parity but (as in [`crate::cco::CcoTrainer`])
    /// does not influence the binary interaction model.
    pub fn post(&self, user: &str, item: &str, _payload: Option<f64>) {
        self.events.fetch_add(1, Ordering::Relaxed);
        let mut state = self.state.write();
        let st = &mut *state;
        let id = st.model.intern(item);
        // One lookup for a known user; the id is copied on first sight only.
        let known = st.users.len() as u64;
        let (rec, num_users) = match st.users.get_mut(user) {
            Some(rec) => (rec, known),
            None => (st.users.entry(user.to_owned()).or_default(), known + 1),
        };
        rec.history.push(id);
        st.model.add_to_set(&mut rec.set, id, num_users);
    }

    /// The user's stored history (item ids, insertion order, duplicates
    /// included).
    pub fn history(&self, user: &str) -> Vec<String> {
        let state = self.state.read();
        state
            .users
            .get(user)
            .map(|rec| {
                rec.history
                    .iter()
                    .map(|&id| state.model.name(id).to_owned())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Up to `n` recommendations for a locally-owned `user`, dropping
    /// `exclude` items. Equivalent to
    /// [`score_history`](Self::score_history) over the user's own
    /// history.
    pub fn get_filtered(&self, user: &str, n: usize, exclude: &[String]) -> RecommendationList {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let state = self.state.read();
        let Some(rec) = state.users.get(user) else {
            return RecommendationList::default();
        };
        top_n(&state.model, &rec.history, exclude, n)
    }

    /// Scores a caller-supplied `history` (item names) against this
    /// shard's model: accumulated LLR per target, minus anything in the
    /// history or `exclude`, local top-`n`. History items unknown to
    /// this shard simply contribute nothing — the merge across shards
    /// restores the full sum because each pair's statistics live on
    /// exactly the shards that observed it.
    pub fn score_history(
        &self,
        history: &[String],
        n: usize,
        exclude: &[String],
    ) -> RecommendationList {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let state = self.state.read();
        let ids: Vec<ItemId> = history
            .iter()
            .filter_map(|name| state.model.lookup(name))
            .collect();
        top_n(&state.model, &ids, exclude, n)
    }

    /// Dumps all stored `(user, item)` event pairs, users in sorted
    /// order and each user's items in arrival order.
    ///
    /// This is the adversary's view of the LRS database (§2.3 of the
    /// paper: the adversary "can access any data manipulated by the
    /// LRS"); the attack harness uses it for the §6.1 case analysis.
    /// With PProx in front, every pair is pseudonymous.
    pub fn dump_events(&self) -> Vec<(String, String)> {
        let state = self.state.read();
        let mut users: Vec<(&String, &UserRec)> = state.users.iter().collect();
        users.sort_by_key(|&(user, _)| user);
        let mut events = Vec::new();
        for (user, rec) in users {
            for &id in &rec.history {
                events.push((user.clone(), state.model.name(id).to_owned()));
            }
        }
        events
    }

    /// Full exact repair of the incremental model (recomputes every
    /// indicator list from the exact counts; see
    /// [`IncrementalCco::sync`]).
    pub fn sync(&self) {
        let mut state = self.state.write();
        let num_users = state.users.len() as u64;
        state.model.sync(num_users);
    }

    /// Users owned by this shard.
    pub fn num_users(&self) -> u64 {
        self.state.read().users.len() as u64
    }

    /// Incremental-model counters.
    pub fn model_stats(&self) -> IncrementalStats {
        self.state.read().model.stats()
    }

    /// Gauges for the scrape surface.
    pub fn gauges(&self) -> ShardGauges {
        let stats = self.model_stats();
        ShardGauges {
            events: self.events.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            dirty: stats.dirty,
            lag_us: stats.last_apply_us,
        }
    }

    fn handle_post_event(&self, request: &HttpRequest) -> HttpResponse {
        match FeedbackEvent::from_json(&request.body) {
            Some(event) => {
                self.post(&event.user, &event.item, event.payload);
                HttpResponse::ok(r#"{"status":"ok"}"#)
            }
            None => HttpResponse::error(400, "malformed event"),
        }
    }

    fn handle_query(&self, request: &HttpRequest) -> HttpResponse {
        match RecommendationQuery::from_json(&request.body) {
            Some(query) => {
                let n = query.num.min(crate::MAX_RECOMMENDATIONS);
                let list = self.get_filtered(&query.user, n, &query.exclude);
                HttpResponse::ok(list.to_json())
            }
            None => HttpResponse::error(400, "malformed query"),
        }
    }

    fn handle_history(&self, request: &HttpRequest) -> HttpResponse {
        match parse_history_request(&request.body) {
            Some((user, limit)) => {
                let mut items = self.history(&user);
                if let Some(limit) = limit {
                    // Keep the most recent entries: they carry the
                    // freshest taste signal when the wire budget trims.
                    if items.len() > limit {
                        items.drain(..items.len() - limit);
                    }
                }
                HttpResponse::ok(history_response_body(&items))
            }
            None => HttpResponse::error(400, "malformed history request"),
        }
    }

    fn handle_score(&self, request: &HttpRequest) -> HttpResponse {
        match parse_score_request(&request.body) {
            Some((history, num, exclude)) => {
                let n = num.min(crate::MAX_RECOMMENDATIONS);
                let list = self.score_history(&history, n, &exclude);
                HttpResponse::ok(list.to_json())
            }
            None => HttpResponse::error(400, "malformed score request"),
        }
    }
}

/// Scores `history` against `model`, drops what is in the history or in
/// `exclude`, and returns the top `n` in [`sort_scored`]'s order (score
/// descending, item name ascending). Candidates are ranked as
/// `(ItemId, score)` inside the model; only the `n` winners get a
/// `String`, and an excluded name the model never saw excludes nothing.
fn top_n(
    model: &IncrementalCco,
    history: &[ItemId],
    exclude: &[String],
    n: usize,
) -> RecommendationList {
    let exclude: Vec<ItemId> = exclude.iter().filter_map(|e| model.lookup(e)).collect();
    let items = model
        .top_n(history, &exclude, n)
        .into_iter()
        .map(|(id, score)| ScoredItem {
            item: model.name(id).to_owned(),
            score,
        })
        .collect();
    RecommendationList { items }
}

/// The result-list comparator shared with
/// [`crate::index::ScoringIndex::recommend_filtered`]: score descending,
/// item name ascending.
pub(crate) fn sort_scored(items: &mut [ScoredItem]) {
    items.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.item.cmp(&b.item))
    });
}

impl RestHandler for ShardEngine {
    fn handle(&self, request: &HttpRequest) -> HttpResponse {
        match (request.method, request.path.as_str()) {
            (Method::Post, EVENTS_PATH) => self.handle_post_event(request),
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
    use crate::shard::history_request_body;

    fn seeded() -> ShardEngine {
        let shard = ShardEngine::with_config(CcoConfig {
            min_llr: 0.5,
            ..CcoConfig::default()
        });
        // Contrast users first so the (alien, dune) pair's event-time
        // LLR is computed against a populated background (see the
        // drift note in `incremental`).
        for u in 0..6 {
            shard.post(&format!("bg-{u}"), &format!("solo-{u}"), None);
        }
        for u in 0..6 {
            shard.post(&format!("sci-{u}"), "alien", None);
            shard.post(&format!("sci-{u}"), "dune", None);
        }
        shard
    }

    #[test]
    fn posts_are_immediately_queryable() {
        let shard = seeded();
        shard.post("newbie", "alien", None);
        let recs = shard.get_filtered("newbie", 5, &[]);
        assert_eq!(recs.item_ids(), vec!["dune"]);
    }

    #[test]
    fn history_preserves_duplicates_and_order() {
        let shard = ShardEngine::new();
        shard.post("u", "a", None);
        shard.post("u", "b", None);
        shard.post("u", "a", None);
        assert_eq!(shard.history("u"), vec!["a", "b", "a"]);
        assert_eq!(shard.model_stats().interactions, 2, "dedup for training");
    }

    #[test]
    fn score_history_matches_owner_query() {
        let shard = seeded();
        shard.post("newbie", "alien", None);
        let direct = shard.get_filtered("newbie", 5, &[]);
        let via_score = shard.score_history(&["alien".to_owned()], 5, &[]);
        assert_eq!(direct, via_score);
    }

    #[test]
    fn exclude_filters_both_paths() {
        let shard = seeded();
        shard.post("newbie", "alien", None);
        let ex = vec!["dune".to_owned()];
        assert!(shard.get_filtered("newbie", 5, &ex).items.is_empty());
        assert!(shard
            .score_history(&["alien".to_owned()], 5, &ex)
            .items
            .is_empty());
    }

    #[test]
    fn rest_surface_serves_all_four_endpoints() {
        let shard = seeded();
        let post = shard.handle(&HttpRequest::post(
            EVENTS_PATH,
            r#"{"user":"u9","item":"alien"}"#,
        ));
        assert!(post.is_success());
        let q = shard.handle(&HttpRequest::post(QUERIES_PATH, r#"{"user":"u9","num":5}"#));
        let list = RecommendationList::from_json(&q.body).unwrap();
        assert_eq!(list.item_ids(), vec!["dune"]);
        let h = shard.handle(&HttpRequest::post(
            HISTORY_PATH,
            history_request_body("u9", None),
        ));
        assert!(h.body.contains("alien"));
        let s = shard.handle(&HttpRequest::post(
            SCORE_PATH,
            r#"{"history":["alien"],"num":5}"#,
        ));
        assert_eq!(
            RecommendationList::from_json(&s.body).unwrap().item_ids(),
            vec!["dune"]
        );
        assert_eq!(shard.handle(&HttpRequest::post("/nope", "{}")).status, 404);
    }

    #[test]
    fn dump_events_lists_users_sorted_and_items_in_arrival_order() {
        let shard = ShardEngine::new();
        shard.post("zoe", "b", None);
        shard.post("amy", "y", None);
        shard.post("zoe", "a", None);
        shard.post("amy", "y", None);
        let pairs = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter().map(|&(u, i)| (u.into(), i.into())).collect()
        };
        assert_eq!(
            shard.dump_events(),
            pairs(&[("amy", "y"), ("amy", "y"), ("zoe", "b"), ("zoe", "a")])
        );
    }

    #[test]
    fn unknown_user_gets_empty_list_and_n_limits_size() {
        let shard = seeded();
        assert!(shard.get_filtered("stranger", 5, &[]).items.is_empty());
        shard.post("sci-0", "contact", None);
        shard.post("newbie", "alien", None);
        assert_eq!(shard.get_filtered("newbie", 1, &[]).items.len(), 1);
    }

    #[test]
    fn query_num_is_capped_at_the_protocol_maximum() {
        let shard = ShardEngine::with_config(CcoConfig {
            min_llr: 0.0,
            ..CcoConfig::default()
        });
        for i in 0..crate::MAX_RECOMMENDATIONS + 10 {
            shard.post("fan", &format!("film-{i:02}"), None);
            shard.post("twin", &format!("film-{i:02}"), None);
        }
        shard.post("probe", "film-00", None);
        let resp = shard.handle(&HttpRequest::post(
            QUERIES_PATH,
            r#"{"user":"probe","num":10000}"#,
        ));
        let list = RecommendationList::from_json(&resp.body).unwrap();
        assert_eq!(list.items.len(), crate::MAX_RECOMMENDATIONS);
    }

    #[test]
    fn history_limit_keeps_most_recent() {
        let shard = ShardEngine::new();
        for i in 0..5 {
            shard.post("u", &format!("i{i}"), None);
        }
        let resp = shard.handle(&HttpRequest::post(
            HISTORY_PATH,
            history_request_body("u", Some(2)),
        ));
        assert!(resp.is_success());
        let items = crate::shard::parse_history_response(&resp.body).unwrap();
        assert_eq!(items, vec!["i3", "i4"]);
    }

    #[test]
    fn malformed_bodies_rejected() {
        let shard = ShardEngine::new();
        assert_eq!(
            shard.handle(&HttpRequest::post(EVENTS_PATH, "{}")).status,
            400
        );
        assert_eq!(
            shard
                .handle(&HttpRequest::post(QUERIES_PATH, "nope"))
                .status,
            400
        );
        assert_eq!(
            shard.handle(&HttpRequest::post(HISTORY_PATH, "{}")).status,
            400
        );
        assert_eq!(
            shard.handle(&HttpRequest::post(SCORE_PATH, "nope")).status,
            400
        );
    }

    #[test]
    fn gauges_track_activity() {
        let shard = seeded();
        let g = shard.gauges();
        assert_eq!(g.events, 18);
        assert!(g.dirty > 0);
        shard.sync();
        assert_eq!(shard.gauges().dirty, 0);
        shard.get_filtered("sci-0", 5, &[]);
        assert_eq!(shard.gauges().queries, 1);
    }
}
