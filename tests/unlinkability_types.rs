//! Unlinkability properties of the typed id/secret boundary (§4.2).
//!
//! Three families of checks ride on the plaintext-id newtypes:
//!
//! 1. **Pseudonym domain separation** — the UA pseudonymizes users under
//!    `kUA` and the IA pseudonymizes items under `kIA`; identical
//!    plaintext strings must never collide across the two domains, or a
//!    curious LRS could join user and item vocabularies.
//! 2. **Fixed-size id budget** — ids are validated against
//!    [`pprox::core::message::MAX_ID_LEN`] at the trust boundary, with
//!    exact behaviour at the boundary and for adversarial padding.
//! 3. **Redacted Debug** — envelopes and id newtypes must never leak
//!    plaintext through `{:?}`, the classic accidental-logging channel.
//!
//! The LRS's vantage point is recorded behind the serving chain.

mod common;

use common::{budget, launch, post, recommend, recommend_excluding};
use pprox::core::message::{ClientEnvelope, EncryptedList, MAX_ID_LEN};
use pprox::core::PProxError;
use pprox::lrs::api::{
    FeedbackEvent, HttpRequest, HttpResponse, Method, RecommendationQuery, RestHandler,
    EVENTS_PATH, QUERIES_PATH,
};
use pprox::lrs::stub::StubLrs;
use pprox::wire::{ClusterConfig, LoopbackCluster};
use std::sync::{Arc, Mutex};

/// An LRS that records every request body it sees, so tests can inspect
/// exactly what leaves the proxy (the honest-but-curious vantage point).
struct RecordingLrs {
    inner: StubLrs,
    bodies: Mutex<Vec<(Method, String, String)>>,
}

impl RecordingLrs {
    fn new() -> Arc<Self> {
        Arc::new(RecordingLrs {
            inner: StubLrs::new(),
            bodies: Mutex::new(Vec::new()),
        })
    }

    fn events(&self) -> Vec<FeedbackEvent> {
        self.bodies
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, path, _)| path == EVENTS_PATH)
            .map(|(_, _, body)| FeedbackEvent::from_json(body).expect("well-formed event"))
            .collect()
    }

    fn queries(&self) -> Vec<RecommendationQuery> {
        self.bodies
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, path, _)| path == QUERIES_PATH)
            .map(|(_, _, body)| RecommendationQuery::from_json(body).expect("well-formed query"))
            .collect()
    }
}

impl RestHandler for RecordingLrs {
    fn handle(&self, request: &HttpRequest) -> HttpResponse {
        self.bodies.lock().unwrap().push((
            request.method,
            request.path.clone(),
            request.body.clone(),
        ));
        self.inner.handle(request)
    }
}

fn deployment(lrs: Arc<RecordingLrs>) -> LoopbackCluster {
    let config = ClusterConfig {
        seed: 0x600d_5eed,
        ..ClusterConfig::default()
    };
    launch(config, lrs)
}

// --- 1. Pseudonym domain separation -----------------------------------

#[test]
fn identical_plaintext_never_collides_across_user_and_item_domains() {
    let lrs = RecordingLrs::new();
    let mut d = deployment(lrs.clone());
    let mut client = d.client();

    // The same plaintext string posted as BOTH the user and the item id.
    post(
        &d,
        &mut client,
        "collision-probe",
        "collision-probe",
        Some(1.0),
    )
    .unwrap();

    let events = lrs.events();
    assert_eq!(events.len(), 1);
    let event = &events[0];
    // Both fields are pseudonymized (plaintext absent)…
    assert_ne!(event.user, "collision-probe");
    assert_ne!(event.item, "collision-probe");
    // …and under *independent* deterministic keys they must not collide:
    // equality here would let the LRS join user and item vocabularies.
    assert_ne!(
        event.user, event.item,
        "det_enc(x, kUA) == det_enc(x, kIA): user/item pseudonym domains overlap"
    );
}

#[test]
fn pseudonyms_are_deterministic_within_a_domain() {
    let lrs = RecordingLrs::new();
    let mut d = deployment(lrs.clone());
    let mut client = d.client();

    post(&d, &mut client, "alice", "m1", None).unwrap();
    post(&d, &mut client, "alice", "m2", None).unwrap();
    post(&d, &mut client, "bob", "m1", None).unwrap();

    let events = lrs.events();
    assert_eq!(events.len(), 3);
    // Same user, same pseudonym (the LRS still accumulates alice's
    // profile under her stable pseudonym — that is the whole point).
    assert_eq!(events[0].user, events[1].user);
    // Different users, different pseudonyms.
    assert_ne!(events[0].user, events[2].user);
    // Same item, same pseudonym across users.
    assert_eq!(events[0].item, events[2].item);
    // Different items differ.
    assert_ne!(events[0].item, events[1].item);
}

#[test]
fn get_queries_reach_lrs_pseudonymized_and_consistent_with_posts() {
    let lrs = RecordingLrs::new();
    let mut d = deployment(lrs.clone());
    let mut client = d.client();

    post(&d, &mut client, "carol", "m9", None).unwrap();
    recommend(&d, &mut client, "carol").unwrap();

    let events = lrs.events();
    let queries = lrs.queries();
    assert_eq!((events.len(), queries.len()), (1, 1));
    assert_ne!(queries[0].user, "carol", "query leaked the plaintext user");
    // post(u) and get(u) must map to the SAME pseudonym or the LRS could
    // never use the profile it built (§4.2: deterministic det_enc).
    assert_eq!(events[0].user, queries[0].user);
}

#[test]
fn exclusion_rules_arrive_in_the_item_pseudonym_domain() {
    let lrs = RecordingLrs::new();
    let mut d = deployment(lrs.clone());
    let mut client = d.client();

    post(&d, &mut client, "dave", "seen-item", None).unwrap();
    recommend_excluding(&d, &mut client, "dave", &["seen-item"]).unwrap();

    let events = lrs.events();
    let queries = lrs.queries();
    assert_eq!(queries[0].exclude.len(), 1);
    assert_ne!(queries[0].exclude[0], "seen-item", "rule leaked plaintext");
    // The excluded id must land in the same domain the item feedback used,
    // or the LRS could not apply the blacklist to its catalogue.
    assert_eq!(queries[0].exclude[0], events[0].item);
}

// --- 2. Fixed-size id budget at the boundary --------------------------

#[test]
fn ids_at_exactly_max_len_are_accepted() {
    let lrs = RecordingLrs::new();
    let mut d = deployment(lrs.clone());
    let mut client = d.client();

    let user = "u".repeat(MAX_ID_LEN);
    let item = "i".repeat(MAX_ID_LEN);
    post(&d, &mut client, &user, &item, None).unwrap();
    recommend(&d, &mut client, &user).unwrap();
}

#[test]
fn ids_one_past_max_len_are_rejected_before_any_bytes_leave_the_client() {
    let lrs = RecordingLrs::new();
    let mut d = deployment(lrs.clone());
    let mut client = d.client();

    let long_user = "u".repeat(MAX_ID_LEN + 1);
    let err = post(&d, &mut client, &long_user, "m1", None).unwrap_err();
    assert!(
        matches!(err, PProxError::IdTooLong { len, max } if len == MAX_ID_LEN + 1 && max == MAX_ID_LEN),
        "unexpected error: {err:?}"
    );

    let long_item = "i".repeat(MAX_ID_LEN + 1);
    let err = post(&d, &mut client, "alice", &long_item, None).unwrap_err();
    assert!(matches!(err, PProxError::IdTooLong { .. }), "{err:?}");

    let err = recommend_excluding(&d, &mut client, "alice", &[&long_item]).unwrap_err();
    assert!(matches!(err, PProxError::IdTooLong { .. }), "{err:?}");

    // Rejection happened client-side: nothing ever reached the LRS.
    assert!(lrs.events().is_empty() && lrs.queries().is_empty());
}

#[test]
fn multibyte_ids_are_measured_in_bytes_not_chars() {
    // 10 snowmen = 30 bytes ≤ 28+2? No: 30 > 28, must be rejected even
    // though the char count (10) is far below the limit.
    let lrs = RecordingLrs::new();
    let mut d = deployment(lrs.clone());
    let mut client = d.client();
    let user = "\u{2603}".repeat(10);
    assert_eq!(user.len(), 30);
    let err = post(&d, &mut client, &user, "m1", None).unwrap_err();
    assert!(matches!(err, PProxError::IdTooLong { len: 30, max } if max == MAX_ID_LEN));
}

#[test]
fn truncated_response_frames_are_rejected_not_misparsed() {
    let lrs = RecordingLrs::new();
    let mut d = deployment(lrs.clone());
    let mut client = d.client();

    let (envelope, ticket) = client.get("erin").unwrap();
    let encrypted = d.send_get(&envelope, budget()).unwrap();

    // Truncating the ciphertext must produce a clean error, never a
    // partially-decoded list: the list block has a fixed frame size.
    let truncated = EncryptedList(encrypted.0[..encrypted.0.len() / 2].to_vec());
    assert!(client.open_response(&ticket, &truncated).is_err());

    // A single missing trailing byte is still a frame violation.
    let short = EncryptedList(encrypted.0[..encrypted.0.len() - 1].to_vec());
    assert!(client.open_response(&ticket, &short).is_err());

    // So is one extra byte (over-length frames are not silently trimmed).
    let mut long = encrypted.clone();
    long.0.push(0);
    assert!(client.open_response(&ticket, &long).is_err());

    // An empty frame never reaches the parser.
    assert!(client
        .open_response(&ticket, &EncryptedList(Vec::new()))
        .is_err());
}

// --- 3. Redacted Debug ------------------------------------------------

#[test]
fn envelope_debug_never_prints_plaintext_or_ciphertext_bytes() {
    let lrs = RecordingLrs::new();
    let mut d = deployment(lrs.clone());
    let mut client = d.client();

    let envelope = client
        .post("debug-probe-user", "debug-probe-item", Some(2.5))
        .unwrap();
    let rendered = format!("{envelope:?}");
    assert!(!rendered.contains("debug-probe-user"), "{rendered}");
    assert!(!rendered.contains("debug-probe-item"), "{rendered}");
    // The redacted form still carries correlation handles: lengths and a
    // short digest, enough to match log lines without exposing content.
    assert!(rendered.contains("user_len"), "{rendered}");
    assert!(rendered.contains("user_digest"), "{rendered}");

    let (get_env, ticket) = client.get("debug-probe-user").unwrap();
    let rendered = format!("{get_env:?}");
    assert!(!rendered.contains("debug-probe-user"), "{rendered}");

    let encrypted = d.send_get(&get_env, budget()).unwrap();
    let rendered = format!("{encrypted:?}");
    assert!(rendered.contains("len"), "{rendered}");
    assert!(rendered.contains("digest"), "{rendered}");
    // The Debug form must be a fixed small size, not proportional dump.
    assert!(rendered.len() < 120, "{rendered}");

    let items = client.open_response(&ticket, &encrypted).unwrap();
    assert!(!items.is_empty());
}

#[test]
fn client_envelope_debug_is_stable_under_payload_presence() {
    let lrs = RecordingLrs::new();
    let mut d = deployment(lrs);
    let mut client = d.client();
    let with = client.post("u", "i", Some(1.0)).unwrap();
    let without = client.post("u", "i", None).unwrap();
    for e in [&with, &without] {
        let r = format!("{e:?}");
        assert!(r.contains("ClientEnvelope"), "{r}");
        assert!(r.contains("aux_len"), "{r}");
    }
}

#[test]
fn id_newtype_debug_prints_byte_count_only() {
    use pprox::core::{PlaintextItemId, PlaintextUserId};
    let u = PlaintextUserId::new("top-secret-user").unwrap();
    let i = PlaintextItemId::new("top-secret-item").unwrap();
    let (ru, ri) = (format!("{u:?}"), format!("{i:?}"));
    assert!(!ru.contains("top-secret"), "{ru}");
    assert!(!ri.contains("top-secret"), "{ri}");
    assert!(ru.contains("15"), "expected byte count in {ru}");
}

#[test]
fn user_client_debug_hides_key_material() {
    let lrs = RecordingLrs::new();
    let mut d = deployment(lrs);
    let client = d.client();
    let rendered = format!("{client:?}");
    assert!(rendered.contains("UserClient"), "{rendered}");
    // No raw byte arrays: redacted Debug prints flags, not key bytes.
    assert!(!rendered.contains("[1"), "{rendered}");
    assert!(rendered.len() < 160, "{rendered}");
}

// A compile-visible reminder that ClientEnvelope is Clone + Eq but its
// Debug is hand-written (deriving Debug would trip analyzer rule R4).
#[allow(dead_code)]
fn envelope_is_clone_eq(e: &ClientEnvelope) -> bool {
    e.clone() == *e
}
