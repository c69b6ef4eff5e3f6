//! The UA layer as a wire service.
//!
//! Receives [`ClientEnvelope`] frames, runs the UA enclave's
//! pseudonymization ECALL, and forwards the resulting [`LayerEnvelope`]
//! to the IA tier through a [`SocketBalancer`]. With shuffling enabled,
//! both directions pass through a [`ShuffleBuffer`] (§4.3): requests are
//! batched and released in random order before they hit the IA sockets,
//! and responses are batched again on the way back, so a network
//! observer bracketing one UA instance cannot match arrival order to
//! departure order beyond the `1/S` bound.
//!
//! No thread waits for a request. A server worker takes a turn at the
//! enclave ([`Turns`]: if another worker is in it, the request is left
//! for that worker to decrypt next), hands the request — bytes, deadline
//! and its [`Reply`] handle — to the request shuffle and takes the next
//! job; how many requests dwell in the buffer is bounded by the server's
//! admission gate, not by its worker count:
//!
//! ```text
//! worker: ECALL ──► request buffer ──flush thread, permuted──► ia.submit ──► IA
//!                                                                         │
//! reply.send ◄──flush thread, permuted── response buffer ◄── completion ◄─┘
//!                                                        (IA uplink reader)
//! ```
//!
//! A buffer is shared by whoever puts requests into it — under its lock,
//! stamped with their arrival — and its flush thread, which is woken
//! twice per batch, not once per request: when a put arms the flush
//! timer and when a put fills the buffer (or by the timer itself). The
//! request flush thread writes a released batch to the IA sockets in the
//! buffer's permuted order, so wire order *is* release order (the
//! linkage audit's departure log is written at the same place). Each
//! answer's completion runs on the IA connection's reader thread and
//! puts it into the response buffer; that buffer's flush thread answers
//! the clients. Without shuffling the worker submits directly and the
//! completion answers the client.
//!
//! Telemetry discipline (analyzer rule R6): shuffle dwell and UA
//! processing go through histogram-only recording — this file never
//! exports an arrival-timestamped span.
//!
//! This file never names an item-side API; the aux block it forwards is
//! opaque ciphertext bound for the IA.

use crate::audit::{self, LinkageAudit};
use crate::balancer::SocketBalancer;
use crate::client::CallResult;
use crate::scrape::NodeMetrics;
use crate::server::{Reply, Service};
use crate::services::serial::Turns;
use crate::{WireError, WireStatus};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use pprox_core::message::ClientEnvelope;
use pprox_core::resilience::Deadline;
use pprox_core::shuffler::{Flush, ShuffleBuffer, ShuffleConfig};
use pprox_core::telemetry::{Stage, Telemetry};
use pprox_core::ua::UaState;
use pprox_sgx::Enclave;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// An IA answer dwelling in the response shuffle.
struct ReplyJob {
    result: WireReply,
    reply: Reply,
}

/// What wakes a flush thread. All of it travels on one channel, so the
/// thread has one thing to wait on.
enum Msg<T> {
    /// A push filled the buffer: here is what it released.
    Released(Flush<T>),
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

impl UaServiceOptions {
    /// One direction's shuffle buffer.
    fn buffer<T>(&self, seed: u64) -> ShuffleBuffer<T> {
        let mut buffer = ShuffleBuffer::new(self.shuffle, seed);
        buffer.set_order_ablation(self.shuffle_order_ablation);
        buffer
    }
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

/// One direction's shuffle buffer, shared by the threads that push into
/// it and the flush thread that releases from it.
struct Shuffle<T> {
    buffer: ShuffleBuffer<T>,
    /// Set by the graceful drain: nothing dwells any more.
    draining: bool,
}

/// The pushing side of one direction. A `put` costs the caller a lock and
/// — once per batch, not once per item — a wake-up of the flush thread:
/// when it arms the flush timer, and when it fills the buffer.
struct ShuffleInput<T> {
    shuffle: Arc<Mutex<Shuffle<T>>>,
    wake: Sender<Msg<T>>,
    telemetry: Arc<Telemetry>,
    metrics: Option<Arc<NodeMetrics>>,
}

impl<T> Clone for ShuffleInput<T> {
    fn clone(&self) -> Self {
        ShuffleInput {
            shuffle: self.shuffle.clone(),
            wake: self.wake.clone(),
            telemetry: self.telemetry.clone(),
            metrics: self.metrics.clone(),
        }
    }
}

impl<T> ShuffleInput<T> {
    /// Puts `item` into the buffer. If the flush thread is gone the item
    /// stays there until the last input is dropped, and is dropped with
    /// it (a dropped [`Reply`] answers `failed`).
    fn put(&self, item: T) {
        let wake = {
            let mut shuffle = self.shuffle.lock();
            let was_empty = shuffle.buffer.is_empty();
            let mut released = shuffle.buffer.push(self.telemetry.now_us(), item);
            if released.is_none() && shuffle.draining {
                released = shuffle.buffer.drain();
            }
            // Both shuffle directions share the node's gauge: the
            // instantaneous value is the latest sample from either
            // buffer, the high-water mark (fetch_max) is exact across
            // both.
            if let Some(m) = &self.metrics {
                m.set_shuffle_occupancy(shuffle.buffer.len() as u64);
            }
            match released {
                Some(flush) => Some(Msg::Released(flush)),
                None if was_empty => Some(Msg::Armed),
                None => None,
            }
        };
        if let Some(msg) = wake {
            // analysis-allow: R12 unbounded channel: this send never waits
            let _ = self.wake.send(msg);
        }
    }

    /// The graceful drain's kick.
    fn kick(&self) {
        let _ = self.wake.send(Msg::Kick);
    }
}

/// Starts one direction: its buffer, its flush thread (which hands each
/// released item, in the buffer's randomized order, to `forward`), and
/// the input that feeds them.
fn spawn_shuffle<T: Send + 'static>(
    buffer: ShuffleBuffer<T>,
    telemetry: Arc<Telemetry>,
    metrics: Option<Arc<NodeMetrics>>,
    stage: Stage,
    forward: impl FnMut(T) + Send + 'static,
) -> (ShuffleInput<T>, JoinHandle<()>) {
    let (wake, woken) = unbounded();
    let shuffle = Arc::new(Mutex::new(Shuffle {
        buffer,
        draining: false,
    }));
    let input = ShuffleInput {
        shuffle: shuffle.clone(),
        wake,
        telemetry: telemetry.clone(),
        metrics: metrics.clone(),
    };
    let thread = std::thread::spawn(move || {
        run_shuffle(&woken, &shuffle, &telemetry, metrics, stage, forward)
    });
    (input, thread)
}

/// Threads joined when this is dropped.
struct Joined(Vec<JoinHandle<()>>);

impl Drop for Joined {
    fn drop(&mut self) {
        for handle in self.0.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The request- and response-path shuffle stage of one UA instance: one
/// flush thread per direction, and nothing between them but the IA
/// uplink.
///
/// Dropped in field order: the inputs first, then the threads are
/// joined. The request thread drains and exits when its last input is
/// gone; the response thread follows once its last is — this stage's,
/// the request thread's, and one per call still pending on the uplink
/// (each completes by its deadline at the latest).
struct ShuffleStage {
    requests: ShuffleInput<ShuffleJob>,
    responses: ShuffleInput<ReplyJob>,
    _threads: Joined,
}

impl ShuffleStage {
    fn spawn(
        options: &UaServiceOptions,
        ia: Arc<SocketBalancer>,
        telemetry: Arc<Telemetry>,
        seed: u64,
    ) -> Self {
        // Response path: answers dwell again before their clients learn
        // anything.
        let (responses, response_thread) = spawn_shuffle(
            options.buffer(seed ^ 0x1a5e),
            telemetry.clone(),
            options.metrics.clone(),
            Stage::ShuffleResponse,
            |job: ReplyJob| job.reply.send(job.result),
        );

        // Request path: arrivals dwell in the buffer and leave, in its
        // random order, as submissions on the IA uplink.
        let (audit, clock, answers) = (options.audit.clone(), telemetry.clone(), responses.clone());
        let (requests, request_thread) = spawn_shuffle(
            options.buffer(seed ^ 0x0a5e),
            telemetry,
            options.metrics.clone(),
            Stage::ShuffleRequest,
            move |job: ShuffleJob| {
                // Audit ground truth: this is the instant the request
                // leaves the shuffle stage for the wire.
                if let Some(log) = &audit {
                    log.record_departure(job.fp, clock.now_us());
                }
                let (answers, reply) = (answers.clone(), job.reply);
                ia.submit(job.bytes, job.deadline, move |result| {
                    deliver(&answers, reply, result)
                });
            },
        );

        ShuffleStage {
            requests,
            responses,
            _threads: Joined(vec![request_thread, response_thread]),
        }
    }

    /// Flushes both shuffle buffers immediately: buffered requests go to
    /// the IA, buffered responses go to their clients, and the stage
    /// passes everything still arriving — the answers to the requests it
    /// just released included — through without further dwell.
    /// Unlinkability is not weakened for normal traffic: this only fires
    /// on the shutdown path, where the alternative is dropping the
    /// buffered requests outright.
    fn kick(&self) {
        self.requests.kick();
        self.responses.kick();
    }
}

/// A flush thread's loop — the one shuffle loop there is: honor the
/// buffer's flush timer, record each item's dwell into the stage
/// histogram (never a span), forward in the buffer's randomized order.
///
/// The thread waits on its channel and nothing else: without a deadline
/// while the buffer is empty, until the flush deadline otherwise. It is
/// woken once when a push arms that deadline and once when a push fills
/// the buffer — the pushes in between cost it nothing. A [`Msg::Kick`]
/// (the server's graceful drain) flushes the buffer and switches the
/// direction to pass-through: every item already buffered — and any still
/// arriving during the shutdown window — is forwarded without dwell
/// instead of being dropped with the stage.
fn run_shuffle<T>(
    woken: &Receiver<Msg<T>>,
    shuffle: &Mutex<Shuffle<T>>,
    telemetry: &Telemetry,
    metrics: Option<Arc<NodeMetrics>>,
    stage: Stage,
    mut forward: impl FnMut(T),
) {
    let mut release = |flush: Option<Flush<T>>| {
        let Some(flush) = flush else { return };
        if let Some(m) = &metrics {
            m.on_flush(flush.reason);
        }
        let now_us = telemetry.now_us();
        for (item, arrived_us) in flush.items.into_iter().zip(flush.arrived_at_us) {
            telemetry.record_duration(stage, now_us.saturating_sub(arrived_us));
            forward(item);
        }
    };
    loop {
        let deadline_us = shuffle.lock().buffer.deadline_us();
        let msg = match deadline_us {
            None => woken.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(deadline_us) => woken.recv_timeout(Duration::from_micros(
                deadline_us.saturating_sub(telemetry.now_us()),
            )),
        };
        let due = match msg {
            Ok(Msg::Released(flush)) => Some(flush),
            Ok(Msg::Armed) => None,
            Ok(Msg::Kick) => {
                let mut shuffle = shuffle.lock();
                shuffle.draining = true;
                shuffle.buffer.drain()
            }
            Err(RecvTimeoutError::Timeout) => {
                shuffle.lock().buffer.poll_timeout(telemetry.now_us())
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        if due.is_some() {
            if let Some(m) = &metrics {
                m.set_shuffle_occupancy(shuffle.lock().buffer.len() as u64);
            }
        }
        release(due);
    }
    let left = shuffle.lock().buffer.drain();
    release(left);
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

/// Completion of a shuffled request's IA call: the answer enters the
/// response shuffle. Runs on the IA connection's reader (or the deadline
/// queue) and does not wait.
fn deliver(answers: &ShuffleInput<ReplyJob>, reply: Reply, result: CallResult) {
    answers.put(ReplyJob {
        result: wire_reply(result),
        reply,
    });
}

/// Completion of an unshuffled request's IA call: answer the client.
fn answer(reply: Reply, result: CallResult) {
    reply.send(wire_reply(result));
}

/// The service of one UA instance.
pub struct UaWireService {
    node: Arc<UaNode>,
}

/// What the service's turns at the enclave share.
struct UaNode {
    enclave: Arc<Enclave<UaState>>,
    /// Whose turn it is at the enclave.
    turns: Turns,
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
        let shuffle = (!options.shuffle.is_disabled())
            .then(|| ShuffleStage::spawn(&options, ia.clone(), telemetry.clone(), seed));
        UaWireService {
            node: Arc::new(UaNode {
                enclave,
                turns: Turns::default(),
                ia,
                encryption: options.encryption,
                telemetry,
                shuffle,
                audit: options.audit,
            }),
        }
    }
}

impl UaNode {
    /// The UA's share of a request: parse the client envelope, run the
    /// pseudonymization ECALL, serialize the layer envelope for the IA.
    fn pseudonymize(&self, payload: &[u8]) -> Result<Arc<[u8]>, WireStatus> {
        let envelope = ClientEnvelope::from_frame(payload).map_err(|_| WireStatus::Malformed)?;
        let encryption = self.encryption;
        let started = Instant::now();
        let layer = self
            .enclave
            .call(|ua| ua.process(&envelope, encryption))
            .map_err(|_| WireStatus::Unavailable)?
            .map_err(|e| match e {
                pprox_core::PProxError::MalformedMessage => WireStatus::Malformed,
                pprox_core::PProxError::Deadline => WireStatus::Deadline,
                _ => WireStatus::Failed,
            })?;
        self.telemetry
            .record_duration(Stage::Ua, started.elapsed().as_micros() as u64);
        let bytes = layer.to_frame().map_err(|_| WireStatus::Failed)?;
        Ok(bytes.into())
    }

    /// One request's turn at the enclave: pseudonymize, then pass it on
    /// — into the request shuffle, or straight to the IA.
    fn process(&self, payload: &[u8], deadline: Deadline, reply: Reply) {
        // Fingerprint the raw client frame bytes before any processing:
        // the scenario harness computed the same hash when it encoded the
        // envelope, which is what joins audit events back to requests.
        let fp = self
            .audit
            .as_ref()
            .map_or(0, |_| audit::request_fingerprint(payload));
        let bytes = match self.pseudonymize(payload) {
            Ok(bytes) => bytes,
            Err(status) => return reply.send(Err(status)),
        };
        match &self.shuffle {
            None => {
                if let Some(log) = &self.audit {
                    log.record_departure(fp, self.telemetry.now_us());
                }
                self.ia
                    .submit(bytes, deadline, move |result| answer(reply, result));
            }
            Some(stage) => stage.requests.put(ShuffleJob {
                bytes,
                deadline,
                reply,
                fp,
            }),
        }
    }
}

impl Service for UaWireService {
    /// Graceful drain: flush both shuffle buffers so every buffered
    /// request is answered before the server exits.
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

    fn serve(&self, payload: Vec<u8>, deadline: Deadline, reply: Reply) {
        let node = self.node.clone();
        self.node
            .turns
            .run(false, move || node.process(&payload, deadline, reply));
    }
}
