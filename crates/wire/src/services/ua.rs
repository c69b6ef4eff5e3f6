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
//! No thread waits for a request. A server worker queues the request for
//! the enclave and takes a turn at it (`Waiting::push`); if another
//! worker is in it, the request waits in the queue and the worker takes
//! the next job. The thread in the enclave, once its ECALL is done, takes
//! what queued meanwhile — up to `CAP`, oldest first — as one group,
//! and opens it in one ECALL ([`UaState::process_group`]: the user blocks
//! decrypted one after another inside it). Nobody waits for a group to form:
//! a request that finds the enclave free is a group of one, one ECALL and
//! one decrypt. Each request of the group then goes on in arrival order —
//! bytes, deadline and its [`Reply`] handle — to the request shuffle; how
//! many requests dwell in the buffer is bounded by the server's admission
//! gate, not by its worker count:
//!
//! ```text
//! worker: queue ─► turn: ECALL on ≤ CAP ─► request buffer ─flush thread, permuted─► ia.submit_batch ─► IA
//!                  (what queued, in order)  │ opens a gather of k                                      │
//!                                           ▼                                                          │
//! Reply::send_all ◄──k-th answer, permuted── the batch's gather ◄─────────────────────── completion ───┘
//!                    (or the cap, or drain)                                          (IA uplink reader)
//! ```
//!
//! The request buffer is shared by the workers that put requests into it
//! — under its lock, stamped with their arrival — and its flush thread,
//! which is woken twice per batch, not once per request: when a put arms
//! the flush timer and when a put fills the buffer (or by the timer
//! itself). The flush thread hands a released batch to the IA balancer in
//! one call ([`SocketBalancer::submit_batch`]) in the buffer's permuted
//! order: each IA connection gets its round-robin share as one write, so
//! wire order *is* release order (the linkage audit's departure log is
//! written at the same place) and the IA reads the share in one pass and
//! opens it as one group. Each call keeps its own deadline and retries.
//!
//! The response direction has no thread and no second timer to wait out.
//! The anonymity set of a batch is fixed when it leaves, so its `k`
//! answers wait only for each other: each completion — answer, remote
//! status, deadline or connection loss alike — runs on the IA
//! connection's reader (or the node's deadline queue) and pushes into its
//! batch's gather, and the one that brings the `k`-th releases all `k` to
//! their clients there, one write per client connection. The shuffle
//! timeout remains as a cap from the oldest held answer (a hung IA call
//! must not hold its batch for the call's whole deadline): what is held
//! then leaves, and the stragglers leave together when the last is in.
//! Without shuffling the turn submits each request of its group directly,
//! in arrival order, and the completion answers the client.
//!
//! Telemetry discipline (analyzer rule R6): shuffle dwell and UA
//! processing go through histogram-only recording — this file never
//! exports an arrival-timestamped span; the instants handed to the
//! linkage audit exist under its off-by-default flag only.
//!
//! This file never names an item-side API; the aux block it forwards is
//! opaque ciphertext bound for the IA.

use crate::audit::{self, LinkageAudit};
use crate::balancer::SocketBalancer;
use crate::client::{CallResult, Completion};
use crate::scrape::NodeMetrics;
use crate::server::{Reply, Service};
use crate::services::serial::Waiting;
use crate::services::status_of_core;
use crate::{WireError, WireStatus};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
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
use std::thread::JoinHandle;
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

/// What wakes the request flush thread. All of it travels on one
/// channel, so the thread has one thing to wait on.
enum Msg {
    /// A push filled the buffer: here is what it released.
    Released(Flush<ShuffleJob>),
    /// A push made the buffer non-empty: its flush deadline is set.
    Armed,
    /// The graceful drain: flush now, and pass everything after it
    /// straight through.
    Kick,
}

/// Per-instance tuning of one [`UaWireService`], bundled so the cluster
/// can thread scenario knobs (audit hooks, the order ablation) through
/// without growing the constructor every time.
#[derive(Debug, Clone)]
pub struct UaServiceOptions {
    /// End-to-end encryption on (the paper's normal mode).
    pub encryption: bool,
    /// Shuffle buffer configuration (§4.3); disabled ⇒ no stage threads.
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

/// The shuffle stage of one UA instance: the request buffer with its
/// flush thread, the gathers its released batches are answered through,
/// and nothing between them but the IA uplink.
struct Shuffle {
    /// Shared by the workers that push into it and the flush thread that
    /// releases from it.
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

impl Shuffle {
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

    /// Puts a request into the buffer. A put costs the worker a lock and
    /// — once per batch, not once per request — a wake-up of the flush
    /// thread: when it arms the flush timer, and when it fills the buffer.
    /// If the flush thread is gone the request stays there until the
    /// stage is dropped, and is dropped with it (a dropped [`Reply`]
    /// answers `failed`).
    fn put(&self, wake: &Sender<Msg>, job: ShuffleJob) {
        let msg = {
            let mut buffer = self.requests.lock();
            let was_empty = buffer.is_empty();
            let mut released = buffer.push(self.telemetry.now_us(), job);
            if released.is_none() && self.draining.load(Ordering::SeqCst) {
                released = buffer.drain();
            }
            self.occupancy(buffer.len());
            match released {
                Some(flush) => Msg::Released(flush),
                None if was_empty => Msg::Armed,
                None => return,
            }
        };
        let _ = wake.send(msg);
    }

    /// The request flush thread's loop: honor the buffer's flush timer
    /// and submit what it releases, in its randomized order.
    ///
    /// The thread waits on its channel and nothing else: without a
    /// deadline while the buffer is empty, until the flush deadline
    /// otherwise. It is woken once when a push arms that deadline and
    /// once when a push fills the buffer — the pushes in between cost it
    /// nothing. After a [`Msg::Kick`] (the server's graceful drain) every
    /// request already buffered — and any still arriving during the
    /// shutdown window — is forwarded without dwell instead of being
    /// dropped with the stage.
    fn run_shuffle(self: &Arc<Self>, woken: &Receiver<Msg>) {
        loop {
            let deadline_us = self.requests.lock().deadline_us();
            let msg = match deadline_us {
                None => woken.recv().map_err(|_| RecvTimeoutError::Disconnected),
                Some(deadline_us) => woken.recv_timeout(Duration::from_micros(
                    deadline_us.saturating_sub(self.telemetry.now_us()),
                )),
            };
            let due = match msg {
                Ok(Msg::Released(flush)) => Some(flush),
                Ok(Msg::Armed) => None,
                Ok(Msg::Kick) => {
                    let mut buffer = self.requests.lock();
                    buffer.drain()
                }
                Err(RecvTimeoutError::Timeout) => {
                    let now_us = self.telemetry.now_us();
                    self.requests.lock().poll_timeout(now_us)
                }
                Err(RecvTimeoutError::Disconnected) => break,
            };
            if let Some(flush) = due {
                self.occupancy(self.requests.lock().len());
                self.submit(flush);
            }
        }
        let left = self.requests.lock().drain();
        left.into_iter().for_each(|flush| self.submit(flush));
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
            let (stage, reply, fp) = (self.clone(), job.reply, job.fp);
            let done: Completion = Box::new(move |result| stage.gather(batch, reply, fp, result));
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
                let stage = Arc::downgrade(self);
                let cap = Duration::from_micros(self.options.shuffle.timeout_us);
                self.ia.after(cap, move || {
                    if let Some(stage) = stage.upgrade() {
                        stage.cap(batch);
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

    /// The graceful drain, but for the [`Msg::Kick`] that empties the
    /// request buffer: every open gather releases what it holds.
    fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let held: Vec<_> = self.gathers.lock().open.drain().collect();
        for (_, mut gather) in held {
            gather.drain().into_iter().for_each(|f| self.release(f));
        }
    }
}

/// The handles the service keeps on its shuffle stage. Dropped in field
/// order: the channel's sender first, so the flush thread drains the
/// buffer and exits, then the thread is joined. Answers still out keep
/// the stage alive through their completions (each completes by its
/// deadline at the latest).
struct ShuffleStage {
    wake: Sender<Msg>,
    shuffle: Arc<Shuffle>,
    _thread: Joined,
}

/// A thread joined when this is dropped.
struct Joined(Option<JoinHandle<()>>);

impl Drop for Joined {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            let _ = handle.join();
        }
    }
}

impl ShuffleStage {
    fn spawn(
        options: UaServiceOptions,
        ia: Arc<SocketBalancer>,
        telemetry: Arc<Telemetry>,
        seed: u64,
    ) -> Self {
        let mut buffer = ShuffleBuffer::new(options.shuffle, seed ^ 0x0a5e);
        buffer.set_order_ablation(options.shuffle_order_ablation);
        let shuffle = Arc::new(Shuffle {
            requests: Mutex::new(buffer),
            gathers: Mutex::new(Gathers {
                open: HashMap::new(),
                opened: 0,
                seeds: SecureRng::from_seed(seed ^ 0x1a5e),
            }),
            draining: AtomicBool::new(false),
            options,
            ia,
            telemetry,
        });
        let (wake, woken) = unbounded();
        let stage = shuffle.clone();
        let thread = std::thread::spawn(move || stage.run_shuffle(&woken));
        ShuffleStage {
            wake,
            shuffle,
            _thread: Joined(Some(thread)),
        }
    }

    /// Flushes the stage immediately: buffered requests go to the IA,
    /// gathered answers go to their clients, and everything still
    /// arriving — the answers to the requests just released included —
    /// passes through without dwell. Unlinkability is not weakened for
    /// normal traffic: this only fires on the shutdown path, where the
    /// alternative is dropping the buffered requests outright.
    fn kick(&self) {
        self.shuffle.drain();
        let _ = self.wake.send(Msg::Kick);
    }
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

/// Requests one turn at the enclave opens together, at most. An uncapped
/// turn took everything that had queued — up to ≈ 25 requests, ≈ 5 ms in
/// one ECALL — and the UA and the IA then worked in turns instead of
/// overlapping: goodput fell 15 %.
const CAP: usize = 8;

/// A request waiting for its turn at the enclave, as it came off the
/// wire: it is parsed in the turn, so that queueing it costs the worker
/// no more than a lock and the queue keeps the order the workers took
/// the frames in.
struct Queued {
    payload: Vec<u8>,
    deadline: Deadline,
    reply: Reply,
}

/// The service of one UA instance.
pub struct UaWireService {
    node: Arc<UaNode>,
}

/// What the service's turns at the enclave share.
struct UaNode {
    enclave: Arc<Enclave<UaState>>,
    /// The requests waiting for a turn at it, in arrival order.
    waiting: Waiting<Queued>,
    ia: Arc<SocketBalancer>,
    encryption: bool,
    telemetry: Arc<Telemetry>,
    shuffle: Option<ShuffleStage>,
    audit: Option<Arc<LinkageAudit>>,
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
        let (encryption, audit) = (options.encryption, options.audit.clone());
        let shuffle = (!options.shuffle.is_disabled())
            .then(|| ShuffleStage::spawn(options, ia.clone(), telemetry.clone(), seed));
        // The enclave times its own ECALLs: a group's requests get a `Ua`
        // sample each. A crashed enclave records nothing, and serves
        // nothing either.
        let samples = telemetry.stages().histogram(Stage::Ua).clone();
        let _ = enclave.call(|ua| ua.set_processing_histogram(samples));
        UaWireService {
            node: Arc::new(UaNode {
                enclave,
                waiting: Waiting::new(CAP),
                ia,
                encryption,
                telemetry,
                shuffle,
                audit,
            }),
        }
    }

    /// Requests queued for the enclave and not yet taken by a turn.
    pub fn waiting(&self) -> usize {
        self.node.waiting.len()
    }
}

impl UaNode {
    /// One turn at the enclave for what has queued for it: up to [`CAP`]
    /// requests, oldest first, parsed (a malformed one is answered at
    /// once) and pseudonymized in one ECALL
    /// ([`UaState::process_group`], which opens their user blocks
    /// together and records each request's share of its time as a `Ua`
    /// sample), then each passed on in arrival order — into the request
    /// shuffle, or straight to the IA.
    fn open_group(&self, queued: Vec<Queued>) {
        let mut group = Vec::with_capacity(queued.len());
        for request in queued {
            match ClientEnvelope::from_frame(&request.payload) {
                Ok(envelope) => group.push((envelope, request)),
                Err(_) => request.reply.send(Err(WireStatus::Malformed)),
            }
        }
        if group.is_empty() {
            return;
        }
        let envelopes: Vec<&ClientEnvelope> = group.iter().map(|(envelope, _)| envelope).collect();
        let encryption = self.encryption;
        let opened: Vec<Result<_, WireStatus>> = match self
            .enclave
            .call(|ua| ua.process_group(&envelopes, encryption))
        {
            Ok(layers) => layers
                .into_iter()
                .map(|r| r.map_err(status_of_core))
                .collect(),
            Err(_) => vec![Err(WireStatus::Unavailable); group.len()],
        };
        for ((_, request), layer) in group.into_iter().zip(opened) {
            let framed = layer.and_then(|layer| layer.to_frame().map_err(|_| WireStatus::Failed));
            match framed {
                Ok(bytes) => self.pass_on(request, bytes.into()),
                Err(status) => request.reply.send(Err(status)),
            }
        }
    }

    /// A pseudonymized request leaves the enclave's turn: into the
    /// request shuffle, or straight to the IA.
    fn pass_on(&self, request: Queued, bytes: Arc<[u8]>) {
        // Fingerprint the raw client frame bytes: the scenario harness
        // computed the same hash when it encoded the envelope, which is
        // what joins audit events back to requests.
        let fp = self
            .audit
            .as_ref()
            .map_or(0, |_| audit::request_fingerprint(&request.payload));
        let Queued {
            deadline, reply, ..
        } = request;
        match &self.shuffle {
            None => {
                if let Some(log) = &self.audit {
                    log.record_departure(fp, 0, self.telemetry.now_us());
                }
                self.ia
                    .submit(bytes, deadline, move |result| answer(reply, result));
            }
            Some(stage) => stage.shuffle.put(
                &stage.wake,
                ShuffleJob {
                    bytes,
                    deadline,
                    reply,
                    fp,
                },
            ),
        }
    }
}

impl Service for UaWireService {
    /// Graceful drain: flush the shuffle stage so every buffered request
    /// is answered before the server exits.
    fn drain(&self) {
        if let Some(stage) = &self.node.shuffle {
            stage.kick();
        }
    }

    /// A crashed enclave cannot be revived, only replaced: the node is
    /// dead and the supervisor respawns it with a fresh one.
    fn healthy(&self) -> bool {
        !self.node.enclave.is_crashed()
    }

    /// Queues the request for the enclave and posts the turn that will
    /// take it — this one, or one that finds it waiting behind an ECALL
    /// and takes it with the others queued there.
    fn serve(&self, payload: Vec<u8>, deadline: Deadline, reply: Reply) {
        let node = self.node.clone();
        let request = Queued {
            payload,
            deadline,
            reply,
        };
        self.node
            .waiting
            .push(request, move |group| node.open_group(group));
    }
}
