//! The IA layer as a wire service.
//!
//! Receives [`LayerEnvelope`] frames from UA instances, runs the IA
//! enclave ECALLs, and talks to the LRS tier over the wire through a
//! [`SocketBalancer`] under the §5 resilience policy: the wire client's
//! one retry loop, handed what only the IA knows (`LrsPolicy`).
//!
//! No thread waits — not for the LRS, not for the enclave. A server
//! worker takes a turn at the enclave (`Turns`: if another thread is
//! in it, the ECALL is left for that thread to run next), runs the
//! request-side ECALL, submits the LRS exchange and takes the next job.
//! The exchange's completion — on the LRS connection's reader thread, or
//! on the node's deadline queue when the attempt timed out — takes a
//! turn for the response-side ECALL, ahead of requests not yet started,
//! and answers through the request's [`Reply`]. A sharded read is
//! history → parallel scatter → gather on a countdown → merge, each step
//! the completion of the one before.
//!
//! A shuffled batch arrives whole: the UA writes each IA its share of a
//! release at once, and the server hands this service what one read pass
//! framed ([`Service::serve_pass`]). The pass takes one turn, and its
//! gets one ECALL ([`IaState::process_get_group`]), which opens their
//! `k_u` blocks one after another — then each request goes
//! on in wire order, so the pass's LRS calls leave in the order it
//! arrived in. A request that arrives alone is a pass of one: the same
//! turn, one ECALL, one decrypt.
//!
//! This file never names a user-side API: the user id it handles is
//! already a pseudonym inside the envelope, and the privacy-flow
//! analyzer (R3) enforces that lexically.

use crate::balancer::SocketBalancer;
use crate::client::{CallResult, Policy, Verdict};
use crate::router::ShardRouter;
use crate::server::{Reply, Service};
use crate::services::lrs::{decode_response, encode_request};
use crate::services::serial::Turns;
use crate::services::status_of_core;
use crate::{WireError, WireStatus};
use parking_lot::Mutex;
use pprox_core::ia::{IaOptions, IaState, PendingToken};
use pprox_core::message::{LayerEnvelope, Op};
use pprox_core::resilience::{CircuitBreaker, Deadline, ResilienceConfig};
use pprox_core::telemetry::{Stage, Telemetry};
use pprox_lrs::api::{RecommendationList, RecommendationQuery, EVENTS_PATH, QUERIES_PATH};
use pprox_lrs::shard::{
    history_request_body, merge_scored, parse_history_response, score_request_body_bounded,
    HISTORY_PATH, SCORE_PATH,
};
use pprox_lrs::{HttpRequest, HttpResponse};
use pprox_sgx::Enclave;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Byte budget for the `/shard/score` body: the `Request` pad class
/// carries 1148 payload bytes minus the `{"m","p","b"}` wrapper and
/// JSON string escaping of the body's quotes (~2 bytes per history
/// item). 900 keeps comfortable margin.
const SCORE_BODY_BUDGET: usize = 900;

/// Outcome of one resilient LRS exchange.
type LrsResult = Result<HttpResponse, WireStatus>;

/// The service of one IA instance.
pub struct IaWireService {
    node: Arc<IaNode>,
}

/// What the service's continuations share.
struct IaNode {
    enclave: Arc<Enclave<IaState>>,
    /// Whose turn it is at the enclave.
    turns: Turns,
    lrs: Arc<SocketBalancer>,
    router: Option<Arc<ShardRouter>>,
    options: IaOptions,
    breaker: Arc<CircuitBreaker>,
    lrs_timeout: Duration,
    telemetry: Arc<Telemetry>,
}

impl IaWireService {
    /// Builds the service around a provisioned IA enclave and a shared
    /// balancer over the LRS tier (shared so a supervisor can readmit
    /// respawned LRS instances into the ring the service is using).
    ///
    /// A `router` enables sharded routing: events pin to the owner
    /// shard's balancer slot, reads scatter-gather across all slots. The
    /// router is shared across IA instances so its per-shard aggregates
    /// cover the whole tier.
    ///
    /// `resilience` sets the breaker and the per-attempt timeout; the
    /// retry knobs are the `lrs` ring's, copied from the same policy.
    pub fn new(
        enclave: Arc<Enclave<IaState>>,
        lrs: Arc<SocketBalancer>,
        router: Option<Arc<ShardRouter>>,
        options: IaOptions,
        resilience: ResilienceConfig,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        IaWireService {
            node: Arc::new(IaNode {
                enclave,
                turns: Turns::default(),
                lrs,
                router,
                options,
                breaker: Arc::new(CircuitBreaker::from_config(&resilience)),
                lrs_timeout: resilience.lrs_timeout,
                telemetry,
            }),
        }
    }

    /// This instance's breaker on the LRS tier (state, times opened,
    /// calls shed), for whoever watches the node from outside.
    pub fn breaker(&self) -> Arc<CircuitBreaker> {
        self.node.breaker.clone()
    }
}

/// What only the IA knows about an LRS exchange: the breaker gates and
/// hears every attempt, an attempt gets `lrs_timeout` of what is left, and
/// a 5xx or an undecodable body is worth another attempt (2xx/4xx are not).
struct LrsPolicy(Arc<IaNode>);

impl Policy for LrsPolicy {
    type Outcome = LrsResult;

    const EXPIRED: LrsResult = Err(WireStatus::Deadline);

    fn admit(&self) -> Result<(), LrsResult> {
        if self.0.breaker.try_acquire() {
            Ok(())
        } else {
            Err(Err(WireStatus::Unavailable))
        }
    }

    fn attempt_deadline(&self, call: Deadline) -> Deadline {
        Deadline::starting_now(call.clamp(self.0.lrs_timeout))
    }

    fn judge(&self, started: Instant, outcome: CallResult) -> Verdict<LrsResult> {
        let node = &self.0;
        node.telemetry
            .record_duration(Stage::LrsAttempt, started.elapsed().as_micros() as u64);
        let verdict = match outcome {
            Ok(bytes) => match decode_response(&bytes) {
                Some(resp) if resp.status < 500 => Verdict::Done(Ok(resp)),
                Some(_) => Verdict::Retry(Err(WireStatus::Failed)),
                None => Verdict::Retry(Err(WireStatus::Malformed)),
            },
            Err(WireError::Deadline) => Verdict::Retry(Err(WireStatus::Deadline)),
            Err(e) if e.retryable() => Verdict::Retry(Err(WireStatus::Unavailable)),
            Err(_) => Verdict::Done(Err(WireStatus::Failed)),
        };
        if matches!(verdict, Verdict::Done(Ok(_))) {
            node.breaker.record_success();
        } else {
            node.breaker.record_failure();
        }
        verdict
    }
}

/// The gather half of a sharded read: per-shard score lists arrive in
/// any order; the last one in merges them in shard order.
struct Gather {
    node: Arc<IaNode>,
    n: usize,
    state: Mutex<GatherState>,
}

struct GatherState {
    lists: Vec<Option<RecommendationList>>,
    outstanding: usize,
    /// Taken by the completion that brings `outstanding` to zero.
    finish: Option<(PendingToken, Reply)>,
}

impl Gather {
    /// Completion of one shard's score call. A failed shard degrades the
    /// read (partial merge) instead of failing it; only a total blackout
    /// errors.
    fn on_score(&self, slot: usize, result: LrsResult) {
        let list = result
            .ok()
            .filter(HttpResponse::is_success)
            .and_then(|resp| RecommendationList::from_json(&resp.body));
        let (lists, finish) = {
            let mut state = self.state.lock();
            if let Some(entry) = state.lists.get_mut(slot) {
                *entry = list;
            }
            state.outstanding = state.outstanding.saturating_sub(1);
            if state.outstanding > 0 {
                return;
            }
            (std::mem::take(&mut state.lists), state.finish.take())
        };
        let Some((token, reply)) = finish else { return };
        let lists: Vec<RecommendationList> = lists.into_iter().flatten().collect();
        let merged = if lists.is_empty() {
            Err(WireStatus::Unavailable)
        } else {
            Ok(merge_scored(lists, self.n))
        };
        self.node.finish_get(token, reply, merged);
    }
}

impl IaNode {
    /// Starts one resilient exchange with the LRS tier; `done` runs once
    /// with its outcome. `shard` pins every attempt to the owner's slot (a
    /// sibling cannot answer for a partition); `None` uses any replica.
    fn call_lrs(
        self: &Arc<Self>,
        request: &HttpRequest,
        deadline: Deadline,
        shard: Option<usize>,
        done: impl FnOnce(LrsResult) + Send + 'static,
    ) {
        let (telemetry, started) = (self.telemetry.clone(), Instant::now());
        let payload = encode_request(request).into();
        let policy = LrsPolicy(self.clone());
        self.lrs
            .ring
            .submit(shard, policy, payload, deadline, move |result| {
                telemetry.record_duration(Stage::Lrs, started.elapsed().as_micros() as u64);
                done(result)
            });
    }

    fn post(self: &Arc<Self>, envelope: &LayerEnvelope, deadline: Deadline, reply: Reply) {
        let options = self.options;
        let started = Instant::now();
        let event = match self
            .enclave
            .call(|ia| ia.process_post(envelope, options))
            .map_err(|_| WireStatus::Unavailable)
            .and_then(|r| r.map_err(status_of_core))
        {
            Ok(event) => event,
            Err(status) => return reply.send(Err(status)),
        };
        self.telemetry
            .record_duration(Stage::Ia, started.elapsed().as_micros() as u64);
        let shard = self.router.as_ref().map(|router| router.route(&event.user));
        let request = HttpRequest::post(EVENTS_PATH, event.to_json());
        self.call_lrs(&request, deadline, shard, move |result| {
            finish_post(reply, result)
        });
    }

    /// One turn for a reader pass: one ECALL opens every get of it as a
    /// group (their `k_u` blocks decrypted together), then the requests go
    /// on in wire order — a post through its own ECALL, a get straight to
    /// its LRS exchange — so the pass's LRS calls leave in the order it
    /// arrived in.
    fn open_pass(self: &Arc<Self>, pass: Vec<(LayerEnvelope, Reply)>) {
        let options = self.options;
        let gets: Vec<&LayerEnvelope> = pass
            .iter()
            .map(|(envelope, _)| envelope)
            .filter(|envelope| envelope.op == Op::Get)
            .collect();
        let started = Instant::now();
        let opened: Vec<Result<_, WireStatus>> = if gets.is_empty() {
            Vec::new()
        } else {
            match self.enclave.call(|ia| ia.process_get_group(&gets, options)) {
                Ok(group) => group
                    .into_iter()
                    .map(|r| r.map_err(status_of_core))
                    .collect(),
                Err(_) => vec![Err(WireStatus::Unavailable); gets.len()],
            }
        };
        // One `Ia` sample per get, as if each had had its own ECALL: the
        // group's time split evenly.
        let share = started.elapsed().as_micros() as u64 / gets.len().max(1) as u64;
        let mut opened = opened.into_iter();
        for (envelope, reply) in pass {
            let deadline = reply.deadline();
            if envelope.op == Op::Post {
                self.post(&envelope, deadline, reply);
                continue;
            }
            match opened.next() {
                Some(Ok((query, token))) => {
                    self.telemetry.record_duration(Stage::Ia, share);
                    self.fetch(query, token, deadline, reply);
                }
                Some(Err(status)) => reply.send(Err(status)),
                None => reply.send(Err(WireStatus::Failed)),
            }
        }
    }

    /// A get past its request-side ECALL: ask the LRS tier for the list,
    /// and finish with the response-side ECALL when it is back.
    fn fetch(
        self: &Arc<Self>,
        query: RecommendationQuery,
        token: PendingToken,
        deadline: Deadline,
        reply: Reply,
    ) {
        let node = self.clone();
        match &self.router {
            None => {
                let request = HttpRequest::post(QUERIES_PATH, query.to_json());
                self.call_lrs(&request, deadline, None, move |result| {
                    let list = success_body(result).and_then(|body| {
                        RecommendationList::from_json(&body).ok_or(WireStatus::Malformed)
                    });
                    node.finish_get(token, reply, list);
                });
            }
            // Scatter-gather read over the sharded tier: the owner shard
            // supplies the pseudonymous history (its newest
            // `HISTORY_LIMIT` entries), every shard scores it locally,
            // and the per-shard top-k lists merge deterministically.
            Some(router) => {
                let request = HttpRequest::post(HISTORY_PATH, history_request_body(&query.user));
                let owner = Some(router.route(&query.user));
                let shards = router.num_shards();
                self.call_lrs(&request, deadline, owner, move |result| {
                    node.on_history(result, &query, shards, token, deadline, reply);
                });
            }
        }
    }

    /// Completion of a sharded read's history call: scatter the score
    /// request to every shard at once.
    fn on_history(
        self: &Arc<Self>,
        result: LrsResult,
        query: &RecommendationQuery,
        shards: usize,
        token: PendingToken,
        deadline: Deadline,
        reply: Reply,
    ) {
        let history = match success_body(result)
            .and_then(|body| parse_history_response(&body).ok_or(WireStatus::Malformed))
        {
            Ok(history) => history,
            Err(status) => return reply.send(Err(status)),
        };
        let n = query.num.min(pprox_lrs::MAX_RECOMMENDATIONS);
        let (body, _trimmed) =
            score_request_body_bounded(&history, n, &query.exclude, SCORE_BODY_BUDGET);
        let request = HttpRequest::post(SCORE_PATH, body);
        let gather = Arc::new(Gather {
            node: self.clone(),
            n,
            state: Mutex::new(GatherState {
                lists: vec![None; shards],
                outstanding: shards,
                finish: Some((token, reply)),
            }),
        });
        for slot in 0..shards {
            let gather = gather.clone();
            self.call_lrs(&request, deadline, Some(slot), move |result| {
                gather.on_score(slot, result)
            });
        }
    }

    /// The last step of a get, from whichever thread completed its LRS
    /// exchange: the response-side ECALL takes the next turn at the
    /// enclave, ahead of requests not yet started.
    fn finish_get(
        self: &Arc<Self>,
        token: PendingToken,
        reply: Reply,
        list: Result<RecommendationList, WireStatus>,
    ) {
        let list = match list {
            Ok(list) => list,
            Err(status) => return reply.send(Err(status)),
        };
        let node = self.clone();
        self.turns
            .run(true, move || node.respond(token, reply, list));
    }

    /// Re-encrypts the recommended items for the client and answers.
    fn respond(&self, token: PendingToken, reply: Reply, list: RecommendationList) {
        let item_ids: Vec<String> = list.items.into_iter().map(|s| s.item).collect();
        let options = self.options;
        let started = Instant::now();
        let encrypted = self
            .enclave
            .call(|ia| ia.process_get_response(token, &item_ids, options))
            .map_err(|_| WireStatus::Unavailable)
            .and_then(|r| r.map_err(status_of_core));
        self.telemetry
            .record_duration(Stage::Ia, started.elapsed().as_micros() as u64);
        reply.send(encrypted.and_then(|list| list.to_frame().map_err(|_| WireStatus::Failed)));
    }
}

/// The body of a successful LRS answer; anything else fails the request.
fn success_body(result: LrsResult) -> Result<String, WireStatus> {
    let response = result?;
    if response.is_success() {
        Ok(response.body)
    } else {
        Err(WireStatus::Failed)
    }
}

/// Completion of a post's LRS exchange: acknowledge or fail.
fn finish_post(reply: Reply, result: LrsResult) {
    reply.send(success_body(result).map(|_| b"{\"ok\":true}".to_vec()));
}

impl Service for IaWireService {
    /// A crashed enclave cannot be revived, only replaced: the node is
    /// dead and the supervisor respawns it with a fresh one.
    fn healthy(&self) -> bool {
        !self.node.enclave.is_crashed()
    }

    /// A pass of one; the deadline is the reply's own.
    fn serve(&self, payload: Vec<u8>, _deadline: Deadline, reply: Reply) {
        self.serve_pass(vec![(payload, reply)]);
    }

    fn takes_passes(&self) -> bool {
        true
    }

    /// What one read framed — a batch the UA wrote at once, or a lone
    /// request: the whole pass takes one turn at the enclave, and its
    /// gets one ECALL.
    fn serve_pass(&self, pass: Vec<(Vec<u8>, Reply)>) {
        let mut parsed = Vec::with_capacity(pass.len());
        for (payload, reply) in pass {
            match LayerEnvelope::from_frame(&payload) {
                Ok(envelope) => parsed.push((envelope, reply)),
                Err(_) => reply.send(Err(WireStatus::Malformed)),
            }
        }
        if parsed.is_empty() {
            return;
        }
        let node = self.node.clone();
        self.node.turns.run(false, move || node.open_pass(parsed));
    }
}
