//! The layer walk: requests of the workload replayed in-process, one at
//! a time, through the program's public functions in chain order, each
//! call bracketed by a span. Plus three micro-probes of single layers
//! that a walk cannot isolate (one wire hop, the shuffle buffer, the
//! bare crypto primitives).
//!
//! The walk has its own keys and enclaves, so that it can also call the
//! crypto primitives directly on the same ciphertexts; it shares the
//! recommender with the live chain and runs after the timed window.

use crate::setup::{cluster_config, LrsHandle, KEY_SEED};
use crate::trace::{Recorder, Span};
use crate::workload::{Lrs, Op, Plan, Workload};
use pprox::core::ia::{IaOptions, IaState};
use pprox::core::keys::{ClientKeys, LayerSecrets, IA_CODE_IDENTITY, UA_CODE_IDENTITY};
use pprox::core::message::{
    ClientEnvelope, EncryptedList, LayerEnvelope, ID_PLAINTEXT_LEN, LIST_PLAINTEXT_LEN,
    REQUEST_FRAME_LEN,
};
use pprox::core::resilience::Deadline;
use pprox::core::shuffler::ShuffleBuffer;
use pprox::core::ua::UaState;
use pprox::core::UserClient;
use pprox::crypto::ctr::SymmetricKey;
use pprox::crypto::rng::SecureRng;
use pprox::lrs::api::{RecommendationList, EVENTS_PATH, QUERIES_PATH};
use pprox::lrs::HttpRequest;
use pprox::sgx::enclave::EnclaveApp;
use pprox::sgx::{Enclave, Measurement, Platform};
use pprox::wire::frame::{Frame, PadClass};
use pprox::wire::server::FrameHandler;
use pprox::wire::services::lrs::{
    decode_request, decode_response, encode_request, encode_response,
};
use pprox::wire::{ClientConfig, PooledClient, ServerConfig, WireServer, WireStatus};
use pprox::workload::dataset::Dataset;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests replayed by the walk.
pub const WALK_REQUESTS: usize = 500;

/// Calls timed by the one-hop probe.
const HOP_CALLS: u32 = 500;

/// What the walk and the micro-probes produced.
pub struct Walked {
    /// Walk spans (roots `walk.request`, `walk.crypto`) and probe spans.
    pub spans: Vec<Span>,
    /// Time to generate the walk's two layer key pairs, seconds — the
    /// same work `LoopbackCluster::launch` does for the live chain.
    pub keygen_s: f64,
    /// Median duration of one request's pass through the chain, ms.
    pub chain_ms: f64,
    /// Replayed requests whose answer was wrong.
    pub failures: u64,
    /// Mean cost of `ShuffleBuffer::push` (flushes included), ns; 0 when
    /// the workload does not shuffle.
    pub shuffle_push_ns: f64,
}

fn provisioned<T: EnclaveApp>(
    platform: &Platform,
    identity: &str,
    report_data: Vec<u8>,
    state: T,
) -> Arc<Enclave<T>> {
    let enclave = platform.load_enclave::<T>(identity);
    let token = platform
        .attestation()
        .verify(&enclave.quote(report_data), Measurement::of_code(identity))
        .expect("a fresh quote verifies");
    enclave.provision(token, state).expect("first provisioning");
    enclave
}

/// One frame over one hop: encode on the sending side, decode on the
/// receiving side.
fn hop(rec: &mut Recorder, request: u32, class: PadClass, payload: Vec<u8>) -> Vec<u8> {
    let bytes = rec
        .span("wire.frame.encode", request, |_| {
            Frame::new(class, request as u64, payload).and_then(|f| f.encode())
        })
        .expect("payload fits its class");
    rec.span("wire.frame.decode", request, |_| Frame::decode(&bytes))
        .expect("a frame just encoded decodes")
        .payload
}

/// Replays the first [`WALK_REQUESTS`] timed requests of `plan` and runs
/// the micro-probes.
pub fn walk(workload: &Workload, plan: &Plan, lrs: &LrsHandle) -> Walked {
    let config = cluster_config(workload);
    let encryption = config.encryption;
    let options = IaOptions {
        encryption,
        item_pseudonymization: config.item_pseudonymization,
    };
    let mut rng = SecureRng::from_seed(KEY_SEED ^ 0x7761_6c6b);

    let t = Instant::now();
    let (ua_secrets, pk_ua) = LayerSecrets::generate(config.modulus_bits, &mut rng);
    let (ia_secrets, pk_ia) = LayerSecrets::generate(config.modulus_bits, &mut rng);
    let keygen_s = t.elapsed().as_secs_f64();

    let platform = Platform::new(&mut rng);
    let ua = provisioned(
        &platform,
        UA_CODE_IDENTITY,
        pk_ua.fingerprint().to_vec(),
        UaState::new(ua_secrets.clone()),
    );
    let ia = provisioned(
        &platform,
        IA_CODE_IDENTITY,
        pk_ia.fingerprint().to_vec(),
        IaState::new(ia_secrets),
    );
    let keys = ClientKeys {
        pk_ua: pk_ua.clone(),
        pk_ia,
    };
    let mut client = if encryption {
        UserClient::new(keys, KEY_SEED ^ 1)
    } else {
        UserClient::new_passthrough(keys, KEY_SEED ^ 1)
    };
    let rest = lrs.rest();
    // Span name of the LRS call, for a get and for a post.
    let lrs_span = match workload.lrs {
        Lrs::Stub => ["lrs.stub", "lrs.stub"],
        Lrs::Reco => ["lrs.query", "lrs.event"],
    };
    // The stub answers every user alike.
    let stub_answer =
        matches!(lrs, LrsHandle::Stub(_)).then(|| crate::setup::expected_list(lrs, ""));

    let mut rec = Recorder::new();
    let mut failures = 0u64;
    let timed = &plan.requests[plan.warmup_len..];
    for (r, planned) in timed.iter().take(WALK_REQUESTS).enumerate() {
        let r = r as u32;
        let ok = rec.span("walk.request", r, |rec| {
            // Client: encrypt, frame, send.
            let (envelope, ticket) = match planned.op {
                Op::Get { user } => {
                    let user = Dataset::user_id(user);
                    let (e, t) = rec
                        .span("core.client.get", r, |_| client.get(&user))
                        .expect("catalogue ids fit");
                    (e, Some(t))
                }
                Op::Post { user, item } => {
                    let (user, item) = (Dataset::user_id(user), Dataset::item_id(item));
                    let e = rec
                        .span("core.client.post", r, |_| client.post(&user, &item, None))
                        .expect("catalogue ids fit");
                    (e, None)
                }
            };
            let payload = rec
                .span("core.message.codec", r, |_| envelope.to_frame())
                .expect("envelope fits");
            let payload = hop(rec, r, PadClass::Request, payload);

            // UA: parse, ECALL, re-frame, forward.
            let envelope = rec
                .span("core.message.codec", r, |_| {
                    ClientEnvelope::from_frame(&payload)
                })
                .expect("envelope parses");
            let layer = rec
                .span("sgx.ecall", r, |rec| {
                    ua.call(|ua| {
                        rec.span("core.ua.process", r, |_| ua.process(&envelope, encryption))
                    })
                })
                .expect("enclave is provisioned")
                .expect("request decrypts under the walk's key");
            let payload = rec
                .span("core.message.codec", r, |_| layer.to_frame())
                .expect("envelope fits");
            let payload = hop(rec, r, PadClass::Request, payload);

            // IA: parse, ECALL, call the LRS over one more hop.
            let layer = rec
                .span("core.message.codec", r, |_| {
                    LayerEnvelope::from_frame(&payload)
                })
                .expect("envelope parses");
            let (request, token) = match ticket {
                Some(_) => {
                    let (query, token) = rec
                        .span("sgx.ecall", r, |rec| {
                            ia.call(|ia| {
                                rec.span("core.ia.process_get", r, |_| {
                                    ia.process_get(&layer, options)
                                })
                            })
                        })
                        .expect("enclave is provisioned")
                        .expect("aux block decrypts");
                    let request = rec.span("json.write", r, |_| {
                        encode_request(&HttpRequest::post(QUERIES_PATH, query.to_json()))
                    });
                    (request, Some(token))
                }
                None => {
                    let event = rec
                        .span("sgx.ecall", r, |rec| {
                            ia.call(|ia| {
                                rec.span("core.ia.process_post", r, |_| {
                                    ia.process_post(&layer, options)
                                })
                            })
                        })
                        .expect("enclave is provisioned")
                        .expect("aux block decrypts");
                    let request = rec.span("json.write", r, |_| {
                        encode_request(&HttpRequest::post(EVENTS_PATH, event.to_json()))
                    });
                    (request, None)
                }
            };
            let payload = hop(rec, r, PadClass::Request, request);

            // LRS: unwrap, serve, wrap.
            let request = rec
                .span("json.parse", r, |_| decode_request(&payload))
                .expect("wrapper parses");
            let name = lrs_span[token.is_none() as usize];
            let response = rec.span(name, r, |_| rest.handle(&request));
            let payload = rec.span("json.write", r, |_| encode_response(&response));
            let payload = hop(rec, r, PadClass::Response, payload);

            // IA again: unwrap; a post is acknowledged, a get's list is
            // re-encrypted for the client.
            let response = rec
                .span("json.parse", r, |_| decode_response(&payload))
                .expect("wrapper parses");
            let (Some(token), Some(ticket)) = (token, ticket) else {
                let ack = hop(rec, r, PadClass::Response, b"{\"ok\":true}".to_vec());
                let ack = hop(rec, r, PadClass::Response, ack);
                return response.is_success() && ack == b"{\"ok\":true}";
            };
            let ids: Vec<String> = rec
                .span("json.parse", r, |_| {
                    RecommendationList::from_json(&response.body)
                })
                .expect("list parses")
                .items
                .into_iter()
                .map(|s| s.item)
                .collect();
            let encrypted = rec
                .span("sgx.ecall", r, |rec| {
                    ia.call(|ia| {
                        rec.span("core.ia.process_get_response", r, |_| {
                            ia.process_get_response(token, &ids, options)
                        })
                    })
                })
                .expect("enclave is provisioned")
                .expect("k_u is pending");
            let payload = rec
                .span("core.message.codec", r, |_| encrypted.to_frame())
                .expect("list fits");
            // Back through the UA to the client.
            let payload = hop(rec, r, PadClass::Response, payload);
            let payload = hop(rec, r, PadClass::Response, payload);
            let list = rec
                .span("core.message.codec", r, |_| {
                    EncryptedList::from_frame(&payload)
                })
                .expect("list frame parses");
            let opened = rec
                .span("core.client.open_response", r, |_| {
                    client.open_response(&ticket, &list)
                })
                .expect("list opens under k_u");
            match &stub_answer {
                Some(want) => opened == *want,
                None => opened.len() <= ids.len(),
            }
        });
        failures += !ok as u64;

        if encryption {
            let k_u = SymmetricKey::generate(&mut rng);
            rec.span("walk.crypto", r, |rec| {
                let id = [0x75u8; ID_PLAINTEXT_LEN];
                let ct = rec
                    .span("crypto.rsa_encrypt", r, |_| pk_ua.encrypt(&id, &mut rng))
                    .expect("an id block fits the modulus");
                let mut block = rec
                    .span("crypto.rsa_decrypt", r, |_| ua_secrets.sk.decrypt(&ct))
                    .expect("own ciphertext decrypts");
                rec.span("crypto.det_ctr", r, |_| ua_secrets.k.det_apply(&mut block));
                let list = [0x69u8; LIST_PLAINTEXT_LEN];
                let sealed = rec.span("crypto.aes_ctr_list", r, |_| k_u.encrypt(&list, &mut rng));
                std::hint::black_box((block, sealed));
            });
        }
    }

    let chain_ms = {
        let mut durations: Vec<f64> = rec
            .spans()
            .iter()
            .filter(|s| s.name == "walk.request")
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect();
        crate::stats::median(&mut durations)
    };

    hop_probe(&mut rec);
    let shuffle_push_ns = shuffle_probe(workload);

    Walked {
        spans: rec.into_spans(),
        keygen_s,
        chain_ms,
        failures,
        shuffle_push_ns,
    }
}

/// One hop for real: `PooledClient::call` to a `WireServer` whose handler
/// echoes — socket, poll thread, job queue and worker hand-off, with
/// frames of the chain's sizes (1172 B out, 2196 B back).
fn hop_probe(rec: &mut Recorder) {
    struct Echo;
    impl FrameHandler for Echo {
        fn handle(&self, payload: Vec<u8>, _deadline: Deadline) -> Result<Vec<u8>, WireStatus> {
            Ok(payload)
        }
    }
    let mut server =
        WireServer::spawn(Arc::new(Echo), ServerConfig::default()).expect("echo server binds");
    let client = PooledClient::new(server.local_addr(), ClientConfig::default());
    let payload = vec![0x5au8; REQUEST_FRAME_LEN];
    for call in 0..HOP_CALLS + 20 {
        let budget = Deadline::starting_now(Duration::from_secs(2));
        // The first calls open the connection and warm the threads.
        if call < 20 {
            client.call(&payload, budget).expect("echo answers");
        } else {
            rec.span("wire.hop_rtt", call - 20, |_| client.call(&payload, budget))
                .expect("echo answers");
        }
    }
    server.shutdown();
}

/// Mean cost of pushing into the workload's shuffle buffer, flushes
/// (the seeded permutation) included.
fn shuffle_probe(workload: &Workload) -> f64 {
    let config = cluster_config(workload).shuffle;
    if config.is_disabled() {
        return 0.0;
    }
    const PUSHES: u64 = 80_000;
    let mut buffer = ShuffleBuffer::new(config, KEY_SEED);
    let mut released = 0usize;
    let t = Instant::now();
    for i in 0..PUSHES {
        if let Some(flush) = buffer.push(i, std::hint::black_box(i)) {
            released += flush.items.len();
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(released);
    ns / PUSHES as f64
}
