//! The UA layer as a wire service.
//!
//! Receives [`ClientEnvelope`] frames, runs the UA enclave's
//! pseudonymization ECALL, and forwards the resulting
//! [`LayerEnvelope`](pprox_core::message::LayerEnvelope)
//! to the IA tier through a [`SocketBalancer`]. With shuffling enabled,
//! requests are batched in a [`ShuffleBuffer`] (§4.3) and released in
//! random order before they hit the IA sockets, and the answers of each
//! released batch are gathered again ([`Gather`]) and leave together in a
//! fresh random order, so a network observer bracketing one UA instance
//! cannot match arrival order to departure order beyond the `1/S` bound
//! in either direction.
//!
//! No thread waits for a request, and the shuffle has no thread of its
//! own. A server worker takes a turn at the enclave for each request of
//! a reader pass, all left in one step (`Turns`): if another worker is
//! in it, the turns wait in the enclave's queue, in arrival order, and
//! the worker takes the next job. A turn
//! parses its request and pseudonymizes it in one ECALL
//! ([`UaState::process`]: one decrypt of the user block), then puts it —
//! bytes, deadline and its [`Reply`] handle — into the request buffer;
//! how many requests dwell there is bounded by the server's admission
//! gate, not by its worker count:
//!
//! ```text
//! worker: turn: ECALL ─► request buffer ─S-th put, permuted─► ia.submit_batch ─► IA
//!                        │ (or the timer's turn, or drain)                      │
//!                        │ opens a gather of k                                  │
//!                        ▼                                                      │
//! Reply::send_all ◄──k-th answer, permuted── the batch's gather ◄── completion ─┘
//!                    (or the cap, or drain)                       (IA uplink reader)
//! ```
//!
//! The request buffer is touched only inside turns, so its releases are
//! serial: the put that fills it submits the batch from its own turn, and
//! the put that makes it non-empty registers the batch's flush timer on
//! the node's deadline queue, whose release takes the next turn at the
//! enclave. A released batch goes to the IA balancer in one call
//! ([`SocketBalancer::submit_batch`]) in the buffer's permuted order, each
//! IA connection's share as one write: wire order *is* release order,
//! within a batch and between batches, and the linkage audit's departure
//! log is written at the same place.
//!
//! The response direction has no second timer to wait out either. The
//! anonymity set of a batch is fixed when it leaves, so its `k` answers
//! wait only for each other: each completion — answer, remote status,
//! deadline or connection loss alike — runs on the IA connection's reader
//! (or the node's deadline queue) and pushes into its batch's gather, and
//! the one that brings the `k`-th releases all `k` to their clients
//! there, one write per client connection. The shuffle timeout remains as
//! a cap from the oldest held answer (a hung IA call must not hold its
//! batch for the call's whole deadline): what is held then leaves, and
//! the stragglers leave together when the last is in. Without shuffling
//! the turn submits its request directly, and the completion answers the
//! client.
//!
//! Telemetry discipline (analyzer rule R6): shuffle dwell and the UA
//! ECALL (timed around the call, outside the enclave) go through
//! histogram-only recording — this file never exports an
//! arrival-timestamped span; the instants handed to the linkage audit
//! exist under its off-by-default flag only.
//!
//! This file never names an item-side API; the aux block it forwards is
//! opaque ciphertext bound for the IA.

use crate::audit::{self, LinkageAudit};
use crate::balancer::SocketBalancer;
use crate::client::{CallResult, Completion};
use crate::scrape::NodeMetrics;
use crate::server::{Pass, Reply, Service};
use crate::services::serial::{Task, Turns};
use crate::services::timed_ecall;
use crate::{WireError, WireStatus};
use parking_lot::Mutex;
use pprox_core::message::ClientEnvelope;
use pprox_core::resilience::Deadline;
use pprox_core::shuffler::{Flush, FlushReason, Gather, ShuffleBuffer, ShuffleConfig};
use pprox_core::telemetry::{Stage, Telemetry};
use pprox_core::ua::UaState;
use pprox_crypto::rng::SecureRng;
use pprox_sgx::Enclave;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

type WireReply = Result<Vec<u8>, WireStatus>;

/// A pseudonymized request dwelling in the request shuffle.
struct ShuffleJob {
    bytes: Arc<[u8]>,
    deadline: Deadline,
    reply: Reply,
    /// Request fingerprint for the linkage-audit ground truth; zero when
    /// auditing is off.
    fp: u64,
}

/// An IA answer waiting in its batch's gather.
struct ReplyJob {
    result: WireReply,
    reply: Reply,
    fp: u64,
}

/// Per-instance tuning of one [`UaWireService`], bundled so the cluster
/// can thread scenario knobs (audit hooks, the order ablation) through
/// without growing the constructor every time.
#[derive(Debug, Clone)]
pub struct UaServiceOptions {
    /// End-to-end encryption on (the paper's normal mode).
    pub encryption: bool,
    /// Shuffle buffer configuration (§4.3); disabled ⇒ each request
    /// leaves for the IA from its own turn.
    pub shuffle: ShuffleConfig,
    /// Seeded ablation: batch but release in arrival order (see
    /// [`ShuffleBuffer::set_order_ablation`]). The traffic audit must
    /// catch this as a bound violation.
    pub shuffle_order_ablation: bool,
    /// Ground-truth departure log for the linkage scorer; `None` in
    /// production (the default).
    pub audit: Option<Arc<LinkageAudit>>,
    /// Node metrics hub: the shuffle stage reports buffer occupancy and
    /// flush causes there (bucketed aggregates only — safe to scrape).
    pub metrics: Option<Arc<NodeMetrics>>,
}

impl Default for UaServiceOptions {
    fn default() -> Self {
        UaServiceOptions {
            encryption: true,
            shuffle: ShuffleConfig::disabled(),
            shuffle_order_ablation: false,
            audit: None,
            metrics: None,
        }
    }
}

/// The open gathers, by batch number.
struct Gathers {
    open: HashMap<u64, Gather<ReplyJob>>,
    opened: u64,
    /// One permutation seed per gather.
    seeds: SecureRng,
}

/// What the client is told about an IA call's outcome.
fn wire_reply(result: CallResult) -> WireReply {
    match result {
        Ok(payload) => Ok(payload),
        Err(WireError::Remote(status)) => Err(status),
        Err(WireError::Deadline) => Err(WireStatus::Deadline),
        Err(_) => Err(WireStatus::Unavailable),
    }
}

/// Completion of an unshuffled request's IA call: answer the client.
fn answer(reply: Reply, result: CallResult) {
    reply.send(wire_reply(result));
}

/// The service of one UA instance.
pub struct UaWireService {
    node: Arc<UaNode>,
}

/// What the service's turns at the enclave share: the enclave, the
/// request buffer its turns fill, and the gathers the released batches
/// are answered through — nothing between them but the IA uplink.
struct UaNode {
    enclave: Arc<Enclave<UaState>>,
    /// Whose turn it is at the enclave; the requests waiting for one
    /// queue here in arrival order.
    turns: Turns,
    /// Touched only inside a turn — a put, a flush timer's release, the
    /// drain — and released before a timer is registered or a batch is
    /// submitted. Never put into without shuffling.
    requests: Mutex<ShuffleBuffer<ShuffleJob>>,
    /// A leaf: released before a reply is written or a cap is armed.
    gathers: Mutex<Gathers>,
    /// Set by the graceful drain, read under either lock: no request
    /// dwells and no gather opens any more, and an answer that finds no
    /// gather passes straight through.
    draining: AtomicBool,
    options: UaServiceOptions,
    ia: Arc<SocketBalancer>,
    telemetry: Arc<Telemetry>,
}

impl UaWireService {
    /// Builds the service around a provisioned UA enclave and a shared
    /// balancer over the IA tier (shared so a supervisor can readmit
    /// respawned IA instances into the ring the service is using).
    pub fn new(
        enclave: Arc<Enclave<UaState>>,
        ia: Arc<SocketBalancer>,
        options: UaServiceOptions,
        telemetry: Arc<Telemetry>,
        seed: u64,
    ) -> Self {
        let size = options.shuffle.size.max(1);
        let mut requests = ShuffleBuffer::new(
            ShuffleConfig {
                size,
                ..options.shuffle
            },
            seed ^ 0x0a5e,
        );
        requests.set_order_ablation(options.shuffle_order_ablation);
        UaWireService {
            node: Arc::new(UaNode {
                enclave,
                turns: Turns::default(),
                requests: Mutex::new(requests),
                gathers: Mutex::new(Gathers {
                    open: HashMap::new(),
                    opened: 0,
                    seeds: SecureRng::from_seed(seed ^ 0x1a5e),
                }),
                draining: AtomicBool::new(false),
                options,
                ia,
                telemetry,
            }),
        }
    }

    /// Requests queued for the enclave and not yet taken by a turn.
    pub fn waiting(&self) -> usize {
        self.node.turns.queued()
    }
}

impl UaNode {
    /// One turn at the enclave for one request: parsed (a malformed one
    /// is answered at once), pseudonymized in one timed ECALL
    /// ([`UaState::process`], one `Ua` sample), then passed on — into the
    /// request shuffle, or straight to the IA.
    fn open_request(self: &Arc<Self>, payload: Vec<u8>, deadline: Deadline, reply: Reply) {
        let Ok(envelope) = ClientEnvelope::from_frame(&payload) else {
            return reply.send(Err(WireStatus::Malformed));
        };
        let encryption = self.options.encryption;
        let framed = timed_ecall(&self.enclave, &self.telemetry, Stage::Ua, |ua| {
            ua.process(&envelope, encryption)
        })
        .and_then(|layer| layer.to_frame().map_err(|_| WireStatus::Failed));
        match framed {
            Ok(bytes) => self.pass_on(&payload, deadline, reply, bytes.into()),
            Err(status) => reply.send(Err(status)),
        }
    }

    /// A pseudonymized request leaves the enclave's turn: into the
    /// request shuffle, or straight to the IA.
    fn pass_on(
        self: &Arc<Self>,
        payload: &[u8],
        deadline: Deadline,
        reply: Reply,
        bytes: Arc<[u8]>,
    ) {
        // Fingerprint the raw client frame bytes: the scenario harness
        // computed the same hash when it encoded the envelope, which is
        // what joins audit events back to requests.
        let fp = self
            .options
            .audit
            .as_ref()
            .map_or(0, |_| audit::request_fingerprint(payload));
        if !self.options.shuffle.is_disabled() {
            return self.put(ShuffleJob {
                bytes,
                deadline,
                reply,
                fp,
            });
        }
        if let Some(log) = &self.options.audit {
            log.record_departure(fp, 0, self.telemetry.now_us());
        }
        self.ia
            .submit(bytes, deadline, move |result| answer(reply, result));
    }

    /// Both directions share the node's gauge: the instantaneous value is
    /// the latest sample from the request buffer or any gather, the
    /// high-water mark (fetch_max) is exact across all of them.
    fn occupancy(&self, held: usize) {
        if let Some(m) = &self.options.metrics {
            m.set_shuffle_occupancy(held as u64);
        }
    }

    /// Counts a release under its cause and records each item's dwell
    /// into the stage histogram (never a span); returns its instant.
    fn released<T>(&self, stage: Stage, flush: &Flush<T>) -> u64 {
        if let Some(m) = &self.options.metrics {
            m.on_flush(flush.reason);
        }
        let now_us = self.telemetry.now_us();
        for &arrived_us in &flush.arrived_at_us {
            self.telemetry
                .record_duration(stage, now_us.saturating_sub(arrived_us));
        }
        now_us
    }

    /// Puts a request into the buffer, in the turn that pseudonymized it.
    /// The put that fills the buffer submits the batch from here; the put
    /// that makes it non-empty arms the batch's flush timer. After the
    /// graceful drain nothing dwells: every put releases what it made.
    fn put(self: &Arc<Self>, job: ShuffleJob) {
        let (released, armed) = {
            let mut buffer = self.requests.lock();
            let was_empty = buffer.is_empty();
            let mut released = buffer.push(self.telemetry.now_us(), job);
            if released.is_none() && self.draining.load(Ordering::SeqCst) {
                released = buffer.drain();
            }
            self.occupancy(buffer.len());
            (released, was_empty.then(|| buffer.flushes()))
        };
        match (released, armed) {
            (Some(flush), _) => self.submit(flush),
            (None, Some(batch)) => self.flush_after(
                batch,
                Duration::from_micros(self.options.shuffle.timeout_us),
            ),
            (None, None) => {}
        }
    }

    /// Registers the flush timer of the batch buffered after the
    /// buffer's `batch`-th flush, on the node's deadline queue. It holds
    /// the node weakly, and its release takes the next turn at the
    /// enclave, ahead of requests not yet started.
    fn flush_after(self: &Arc<Self>, batch: u64, delay: Duration) {
        let node = Arc::downgrade(self);
        self.ia.after(delay, move || {
            if let Some(node) = node.upgrade() {
                let turn = node.clone();
                node.turns.run(true, move || turn.flush_due(batch));
            }
        });
    }

    /// A flush timer's turn: its batch leaves if it is due. A no-op once
    /// that batch has left (full, or drained); early (the clock rounded),
    /// it registers again for the batch's deadline, so the batch keeps
    /// exactly one live timer.
    fn flush_due(self: &Arc<Self>, batch: u64) {
        let now_us = self.telemetry.now_us();
        let (due, deadline_us) = {
            let mut buffer = self.requests.lock();
            if buffer.flushes() != batch {
                return;
            }
            let due = buffer.poll_timeout(now_us);
            self.occupancy(buffer.len());
            (due, buffer.deadline_us())
        };
        match (due, deadline_us) {
            (Some(flush), _) => self.submit(flush),
            (None, Some(deadline_us)) => self.flush_after(
                batch,
                Duration::from_micros(deadline_us.saturating_sub(now_us)),
            ),
            (None, None) => {}
        }
    }

    /// A released batch leaves for the IA tier in one balancer call, in
    /// release order — each IA connection's share as one write — and a
    /// gather of its size opens for the answers.
    fn submit(self: &Arc<Self>, flush: Flush<ShuffleJob>) {
        self.released(Stage::ShuffleRequest, &flush);
        let batch = {
            let mut gathers = self.gathers.lock();
            gathers.opened += 1;
            if !self.draining.load(Ordering::SeqCst) {
                let size = ShuffleConfig {
                    size: flush.items.len(),
                    ..self.options.shuffle
                };
                let mut gather = Gather::new(size, gathers.seeds.next_u64(), flush.reason);
                gather.set_order_ablation(self.options.shuffle_order_ablation);
                let batch = gathers.opened;
                gathers.open.insert(batch, gather);
            }
            gathers.opened
        };
        let mut calls: Vec<(Arc<[u8]>, Deadline, Completion)> =
            Vec::with_capacity(flush.items.len());
        for job in flush.items {
            // Audit ground truth: this is the instant the request
            // leaves the shuffle stage for the wire.
            if let Some(log) = &self.options.audit {
                log.record_departure(job.fp, batch, self.telemetry.now_us());
            }
            let (node, reply, fp) = (self.clone(), job.reply, job.fp);
            let done: Completion = Box::new(move |result| node.gather(batch, reply, fp, result));
            calls.push((job.bytes, job.deadline, done));
        }
        self.ia.submit_batch(calls);
    }

    /// Completion of a shuffled request's IA call: the answer joins its
    /// batch's gather, and releases it if it was the last one out. Runs
    /// on the IA connection's reader (or the deadline queue) and waits
    /// for nothing but, when it releases, the clients' sockets — bounded
    /// by their write timeout, as [`answer`] is.
    fn gather(self: &Arc<Self>, batch: u64, reply: Reply, fp: u64, result: CallResult) {
        let result = wire_reply(result);
        let job = ReplyJob { result, reply, fp };
        let (flush, arm) = {
            let mut gathers = self.gathers.lock();
            let now_us = self.telemetry.now_us();
            let Some(gather) = gathers.open.get_mut(&batch) else {
                drop(gathers);
                return self.release(Flush {
                    items: vec![job],
                    arrived_at_us: vec![now_us],
                    reason: FlushReason::Drain,
                });
            };
            let first = gather.is_empty();
            let flush = gather.push(now_us, job);
            self.occupancy(gather.len());
            if gather.is_complete() {
                gathers.open.remove(&batch);
            }
            (flush, first)
        };
        match flush {
            Some(flush) => self.release(flush),
            None if arm => {
                let node = Arc::downgrade(self);
                let cap = Duration::from_micros(self.options.shuffle.timeout_us);
                self.ia.after(cap, move || {
                    if let Some(node) = node.upgrade() {
                        node.cap(batch);
                    }
                });
            }
            None => {}
        }
    }

    /// The cap on a gather's oldest held answer, on the deadline queue:
    /// what is held leaves now. A no-op for a gather that has released
    /// since (a later hold arms its own cap).
    fn cap(&self, batch: u64) {
        let flush = {
            let mut gathers = self.gathers.lock();
            let Some(gather) = gathers.open.get_mut(&batch) else {
                return;
            };
            let flush = gather.poll_timeout(self.telemetry.now_us());
            self.occupancy(gather.len());
            flush
        };
        flush.into_iter().for_each(|flush| self.release(flush));
    }

    /// Answers the clients of a released group, in its order.
    fn release(&self, flush: Flush<ReplyJob>) {
        let left_us = self.released(Stage::ShuffleResponse, &flush);
        if let Some(log) = &self.options.audit {
            for (job, &arrived_us) in flush.items.iter().zip(&flush.arrived_at_us) {
                log.record_answer(job.fp, arrived_us, left_us);
            }
        }
        Reply::send_all(flush.items.into_iter().map(|job| (job.reply, job.result)));
    }
}

impl Service for UaWireService {
    /// Graceful drain, on the shutdown path only: from here on nothing
    /// dwells — the answers to the requests released now included — and
    /// every open gather releases what it holds, then the request buffer
    /// in the next turn, rather than dropping them.
    fn drain(&self) {
        let node = &self.node;
        node.draining.store(true, Ordering::SeqCst);
        let held: Vec<_> = node.gathers.lock().open.drain().collect();
        for (_, mut gather) in held {
            gather.drain().into_iter().for_each(|f| node.release(f));
        }
        let turn = node.clone();
        node.turns.run(true, move || {
            let left = turn.requests.lock().drain();
            left.into_iter().for_each(|flush| turn.submit(flush));
        });
    }

    /// A crashed enclave cannot be revived, only replaced: the node is
    /// dead and the supervisor respawns it with a fresh one.
    fn healthy(&self) -> bool {
        !self.node.enclave.is_crashed()
    }

    /// Takes a turn at the enclave for each request of the pass, in wire
    /// order — now, or behind those already waiting for one. The turns
    /// are left in one step, so a pass another worker took later cannot
    /// overtake this one's tail while this worker is in a turn.
    fn serve(&self, pass: Pass) {
        let turns: Vec<Task> = pass
            .into_iter()
            .map(|(payload, reply)| {
                let node = self.node.clone();
                Box::new(move || node.open_request(payload, reply.deadline(), reply)) as Task
            })
            .collect();
        self.node.turns.run_all(false, turns);
    }
}
