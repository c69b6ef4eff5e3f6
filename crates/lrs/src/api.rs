//! REST API surface of the legacy recommendation system.
//!
//! The LRS exposes the two-call API of §2.1:
//!
//! * `post(u, i[, p])` — insert feedback that user `u` accessed item `i`
//!   (optional payload `p`, e.g. a rating), as `POST /events`.
//! * `get(u)` — fetch recommendations for `u`, as `POST /queries` (the
//!   Harness/Universal-Recommender convention: queries are POSTed JSON).
//!
//! PProx treats the LRS as a black box behind this API; the same
//! [`RestHandler`] trait is implemented by the recommendation engine
//! ([`crate::shard::ShardEngine`]) and by the nginx-like static stub
//! ([`crate::stub::StubLrs`]) used in micro-benchmarks.

use pprox_json::Value;

/// HTTP-like request methods used by the API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Retrieve without side effects.
    Get,
    /// Submit a body.
    Post,
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Method::Get => write!(f, "GET"),
            Method::Post => write!(f, "POST"),
        }
    }
}

/// A minimal HTTP request: method, path and a UTF-8 JSON body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method.
    pub method: Method,
    /// Request path, e.g. `/events`.
    pub path: String,
    /// JSON body text.
    pub body: String,
}

impl HttpRequest {
    /// Builds a POST with a JSON body.
    pub fn post(path: impl Into<String>, body: impl Into<String>) -> Self {
        HttpRequest {
            method: Method::Post,
            path: path.into(),
            body: body.into(),
        }
    }
}

/// A minimal HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 400, 404, …).
    pub status: u16,
    /// JSON body text.
    pub body: String,
}

impl HttpResponse {
    /// 200 response with a JSON body.
    pub fn ok(body: impl Into<String>) -> Self {
        HttpResponse {
            status: 200,
            body: body.into(),
        }
    }

    /// Error response with a JSON `{"error": ...}` body.
    pub fn error(status: u16, message: &str) -> Self {
        HttpResponse {
            status,
            body: Value::object([("error", Value::from(message))]).to_json(),
        }
    }

    /// `true` for 2xx statuses.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Anything that serves the LRS REST API.
///
/// Implementations must be thread-safe: the paper's deployment serves many
/// concurrent front-end requests.
pub trait RestHandler: Send + Sync {
    /// Handles one request, returning the response.
    fn handle(&self, request: &HttpRequest) -> HttpResponse;
}

impl<T: RestHandler + ?Sized> RestHandler for std::sync::Arc<T> {
    fn handle(&self, request: &HttpRequest) -> HttpResponse {
        (**self).handle(request)
    }
}

/// Path of the feedback-insertion endpoint.
pub const EVENTS_PATH: &str = "/events";

/// Path of the recommendation-query endpoint.
pub const QUERIES_PATH: &str = "/queries";

/// Typed form of a `post(u, i[, p])` call.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackEvent {
    /// User identifier (possibly pseudonymized).
    pub user: String,
    /// Item identifier (possibly pseudonymized).
    pub item: String,
    /// Optional payload, e.g. a rating.
    pub payload: Option<f64>,
}

impl FeedbackEvent {
    /// Serializes to the wire JSON.
    pub fn to_json(&self) -> String {
        let mut v = Value::object([
            ("user", Value::from(self.user.as_str())),
            ("item", Value::from(self.item.as_str())),
        ]);
        if let Some(p) = self.payload {
            v.insert("payload", Value::from(p));
        }
        v.to_json()
    }

    /// Parses the wire JSON.
    ///
    /// Returns `None` when required fields are missing or mistyped.
    pub fn from_json(body: &str) -> Option<Self> {
        let v = Value::parse(body).ok()?;
        Some(FeedbackEvent {
            user: v.get("user")?.as_str()?.to_owned(),
            item: v.get("item")?.as_str()?.to_owned(),
            payload: v.get("payload").and_then(|p| p.as_f64()),
        })
    }
}

/// Typed form of a `get(u)` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecommendationQuery {
    /// User identifier (possibly pseudonymized).
    pub user: String,
    /// Number of recommendations requested.
    pub num: usize,
    /// Business rule: item ids (possibly pseudonymized) to exclude from
    /// results — the Universal Recommender's blacklist rule.
    pub exclude: Vec<String>,
}

impl RecommendationQuery {
    /// A plain query with no business rules.
    pub fn new(user: impl Into<String>, num: usize) -> Self {
        RecommendationQuery {
            user: user.into(),
            num,
            exclude: Vec::new(),
        }
    }

    /// Serializes to the wire JSON (the `exclude` field is omitted when
    /// empty, keeping legacy bodies byte-identical).
    pub fn to_json(&self) -> String {
        let mut v = Value::object([
            ("user", Value::from(self.user.as_str())),
            ("num", Value::from(self.num as u64)),
        ]);
        if !self.exclude.is_empty() {
            v.insert(
                "exclude",
                self.exclude
                    .iter()
                    .map(|e| Value::from(e.as_str()))
                    .collect(),
            );
        }
        v.to_json()
    }

    /// Parses the wire JSON (missing `num` defaults to 20, the paper's
    /// maximum list size; missing `exclude` defaults to none).
    pub fn from_json(body: &str) -> Option<Self> {
        let v = Value::parse(body).ok()?;
        let exclude = match v.get("exclude") {
            None => Vec::new(),
            Some(arr) => arr
                .as_array()?
                .iter()
                .map(|e| e.as_str().map(str::to_owned))
                .collect::<Option<Vec<_>>>()?,
        };
        Some(RecommendationQuery {
            user: v.get("user")?.as_str()?.to_owned(),
            num: v
                .get("num")
                .and_then(|n| n.as_u64())
                .map(|n| n as usize)
                .unwrap_or(crate::MAX_RECOMMENDATIONS),
            exclude,
        })
    }
}

/// One scored recommendation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredItem {
    /// Item identifier.
    pub item: String,
    /// Model score (higher is better).
    pub score: f64,
}

/// A recommendation list, the response to a query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecommendationList {
    /// Items in descending score order.
    pub items: Vec<ScoredItem>,
}

impl RecommendationList {
    /// Serializes to the wire JSON (`{"items":[{"id":..,"score":..},..]}`).
    pub fn to_json(&self) -> String {
        let items: Value = self
            .items
            .iter()
            .map(|s| {
                Value::object([
                    ("id", Value::from(s.item.as_str())),
                    ("score", Value::from(s.score)),
                ])
            })
            .collect();
        Value::object([("items", items)]).to_json()
    }

    /// Parses the wire JSON.
    pub fn from_json(body: &str) -> Option<Self> {
        let v = Value::parse(body).ok()?;
        let arr = v.get("items")?.as_array()?;
        let mut items = Vec::with_capacity(arr.len());
        for entry in arr {
            items.push(ScoredItem {
                item: entry.get("id")?.as_str()?.to_owned(),
                score: entry.get("score")?.as_f64()?,
            });
        }
        Some(RecommendationList { items })
    }

    /// Item ids only, in order.
    pub fn item_ids(&self) -> Vec<&str> {
        self.items.iter().map(|s| s.item.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feedback_roundtrip() {
        let e = FeedbackEvent {
            user: "u1".into(),
            item: "i1".into(),
            payload: Some(4.5),
        };
        assert_eq!(FeedbackEvent::from_json(&e.to_json()), Some(e));
    }

    #[test]
    fn feedback_without_payload() {
        let e = FeedbackEvent {
            user: "u1".into(),
            item: "i1".into(),
            payload: None,
        };
        let json = e.to_json();
        assert!(!json.contains("payload"));
        assert_eq!(FeedbackEvent::from_json(&json), Some(e));
    }

    #[test]
    fn feedback_missing_fields_rejected() {
        assert!(FeedbackEvent::from_json(r#"{"user":"u"}"#).is_none());
        assert!(FeedbackEvent::from_json(r#"{"item":"i"}"#).is_none());
        assert!(FeedbackEvent::from_json("not json").is_none());
        assert!(FeedbackEvent::from_json(r#"{"user":1,"item":"i"}"#).is_none());
    }

    #[test]
    fn query_roundtrip_and_default_num() {
        let q = RecommendationQuery::new("u2", 10);
        assert_eq!(RecommendationQuery::from_json(&q.to_json()), Some(q));
        let default = RecommendationQuery::from_json(r#"{"user":"u"}"#).unwrap();
        assert_eq!(default.num, crate::MAX_RECOMMENDATIONS);
        assert!(default.exclude.is_empty());
    }

    #[test]
    fn query_with_exclusions_roundtrips() {
        let q = RecommendationQuery {
            user: "u".into(),
            num: 5,
            exclude: vec!["a".into(), "b".into()],
        };
        let json = q.to_json();
        assert!(json.contains("exclude"));
        assert_eq!(RecommendationQuery::from_json(&json), Some(q));
        // Mistyped exclude entries are rejected.
        assert!(RecommendationQuery::from_json(r#"{"user":"u","exclude":[1]}"#).is_none());
    }

    #[test]
    fn recommendation_list_roundtrip() {
        let list = RecommendationList {
            items: vec![
                ScoredItem {
                    item: "a".into(),
                    score: 2.5,
                },
                ScoredItem {
                    item: "b".into(),
                    score: 1.0,
                },
            ],
        };
        let parsed = RecommendationList::from_json(&list.to_json()).unwrap();
        assert_eq!(parsed, list);
        assert_eq!(parsed.item_ids(), vec!["a", "b"]);
    }

    #[test]
    fn http_request_post_is_a_post() {
        let r = HttpRequest::post("/events", "{}");
        assert_eq!(r.method.to_string(), "POST");
    }

    #[test]
    fn http_response_helpers() {
        assert!(HttpResponse::ok("{}").is_success());
        let e = HttpResponse::error(400, "bad");
        assert!(!e.is_success());
        assert!(e.body.contains("bad"));
    }
}
