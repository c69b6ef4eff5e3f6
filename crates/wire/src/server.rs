//! The multi-threaded, event-driven TCP serving layer.
//!
//! Thread model (the paper's §5 split: a server part that moves bytes and
//! schedules, a fixed pool that only computes):
//!
//! ```text
//! acceptor ──spawns──► reader (one per connection, blocks in read())
//!                         │ jobs (bounded try_send, admission-gated)
//!                         ▼
//!                      workers ── Service::serve(payload, deadline, reply)
//!                         │                          │ a service that must wait
//!                         │ reply.send, at once      ▼ keeps `reply` and returns
//!                         │              shuffle flush thread / uplink reader /
//!                         │              deadline queue ── reply.send, later
//!                         ▼                          ▼
//!                      the connection's socket, under its writer lock
//! ```
//!
//! * the **acceptor** blocks in `accept()` and gives every accepted
//!   socket a reader thread;
//! * a **reader** blocks in `read()` on its own socket, frames complete
//!   requests in place from its read buffer and hands them to the
//!   workers — to a service that [takes passes](Service::takes_passes),
//!   everything one pass framed as one job, in wire order, so a batch its
//!   peer wrote at once arrives whole; nothing else it does can block on
//!   another connection;
//! * **workers** run [`Service::serve`], or [`Service::serve_pass`] for a
//!   service that takes passes — the enclave ECALLs — and never
//!   wait for anything but the next job. A service that has to wait (a
//!   shuffle dwell, the next hop's answer) parks the *request*, not the
//!   thread: it moves the [`Reply`] into whatever will finish the request
//!   and returns, so the number of requests in flight is bounded by the
//!   [`AdmissionGate`] alone, never by the worker count.
//!
//! [`Reply`] is the only way a request is answered. Whoever holds it —
//! a worker, a shuffle flush thread, an uplink reader, the node's
//! deadline queue — calls [`Reply::send`] (or [`Reply::send_all`] for a
//! shuffle release: one write per connection), which writes through the
//! one write site (`Shared::reply`) under the connection's writer lock;
//! dropping it unsent answers `failed`. Either way the request leaves the
//! table of unanswered requests exactly once and its admission permit
//! comes back. [`FrameHandler`] is the adapter for services that never
//! wait: `serve` is `reply.send(self.handle(..))`.
//!
//! No thread polls: every wait is a kernel wake-up (`accept`, `read`, the
//! job queue's condition variable). A server sees the driver's one
//! connection or one pipelined connection per upstream node, so a thread
//! per connection is cheap, and safe `std` has no readiness API.
//!
//! Backpressure is explicit and bounded at one point: the
//! [`pprox_core::resilience::AdmissionGate`] caps requests in flight,
//! and the worker queue, sized to that cap, can never hold more. A
//! request over the cap is answered *immediately* with a constant-size
//! `busy` control frame — never an unbounded queue, never a silent drop
//! (§5's "fast, typed errors" discipline). A peer that stops reading its replies costs the
//! thread completing a request one write timeout, after which its
//! connection is cut.
//!
//! Shutdown is a graceful drain: stop accepting, close the read half of
//! every connection so the readers exit, flush the service's buffers,
//! let the workers empty the queue, wait for what the service still
//! holds (in a shuffle buffer, on the uplink) to be answered, and when
//! the drain budget runs out answer what is left `unavailable`.

use crate::frame::{decode_stream, Frame, PadClass};
use crate::scrape::{is_scrape_request, scrape_response_frames, NodeMetrics};
use crate::WireStatus;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use pprox_core::resilience::{AdmissionGate, AdmissionPermit, Deadline};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a server runs on its worker pool: one call per request frame, or
/// per reader pass for a service that takes them whole.
///
/// `serve` must not wait. It either answers through `reply` before it
/// returns, or moves `reply` into the continuation that will: the request
/// then stays admitted (its permit is held) until that continuation calls
/// [`Reply::send`] or drops the handle.
pub trait Service: Send + Sync + 'static {
    /// Processes one request payload. `deadline` is the request's budget,
    /// for clamping downstream calls; `reply` answers it.
    fn serve(&self, payload: Vec<u8>, deadline: Deadline, reply: Reply);

    /// Whether every reader pass goes to [`Service::serve_pass`] whole,
    /// one frame or many. The default is `false`: every request is a job
    /// of its own, and the workers share them out as if the frames had
    /// been read one at a time.
    fn takes_passes(&self) -> bool {
        false
    }

    /// Processes the requests one reader pass framed from a connection —
    /// what its peer wrote at once, a shuffled batch on the UA→IA hop, or
    /// a lone request — in wire order, when [`Service::takes_passes`].
    /// Each request's deadline is its [`Reply::deadline`]. The same rule
    /// as `serve`: answer or move each `Reply`, never wait. The default
    /// serves each request alone, in order.
    fn serve_pass(&self, pass: Vec<(Vec<u8>, Reply)>) {
        for (payload, reply) in pass {
            self.serve(payload, reply.deadline(), reply);
        }
    }

    /// Called once at the start of a graceful shutdown, after the last
    /// request frame was read. Services holding requests in internal
    /// buffers (the UA shuffle stage) release them here so they are
    /// *answered*, not dropped, on exit. The default does nothing.
    fn drain(&self) {}

    /// Whether the service still has what it needs to serve. A listener
    /// that accepts says nothing about a proxy node whose enclave has
    /// crashed: the supervisor asks here too, and respawns a node that
    /// answers `false`. The default — nothing to lose — is `true`.
    fn healthy(&self) -> bool {
        true
    }
}

/// A [`Service`] that never waits: the request is answered with what
/// `handle` returns, on the worker that ran it (the LRS front-end, echo
/// servers in tests and probes).
///
/// The handler returns the success payload (sent back in a
/// `Response`-class frame) or a [`WireStatus`] (sent back in a
/// `Control`-class frame).
pub trait FrameHandler: Send + Sync + 'static {
    /// Processes one request payload.
    ///
    /// # Errors
    ///
    /// A [`WireStatus`] describing why the request was not served.
    fn handle(&self, payload: Vec<u8>, deadline: Deadline) -> Result<Vec<u8>, WireStatus>;

    /// See [`Service::drain`]. The default does nothing.
    fn drain(&self) {}
}

impl<H: FrameHandler> Service for H {
    fn serve(&self, payload: Vec<u8>, deadline: Deadline, reply: Reply) {
        reply.send(self.handle(payload, deadline));
    }

    fn drain(&self) {
        FrameHandler::drain(self);
    }
}

/// Tunables for one [`WireServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads running the service. They only compute, so this is
    /// sized to the cores, not to the requests in flight.
    pub workers: usize,
    /// Maximum requests admitted and not yet answered (admission gate).
    pub max_inflight: usize,
    /// Per-request processing budget, stamped at admission. A quarter of
    /// it is the write timeout of every accepted socket: a peer that
    /// stops reading is cut while requests queued behind the blocked
    /// write still have most of their budget.
    pub request_budget: Duration,
    /// Drain budget during shutdown: admitted work not started by then is
    /// answered `unavailable` instead of run, and so is whatever the
    /// service still holds unanswered.
    pub drain_timeout: Duration,
    /// The node's metrics hub, answering Control-class metrics scrapes
    /// and accumulating across respawns. When absent the server creates
    /// a private detached hub, so every server answers scrapes.
    pub metrics: Option<Arc<NodeMetrics>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            max_inflight: 256,
            request_budget: Duration::from_secs(2),
            drain_timeout: Duration::from_secs(5),
            metrics: None,
        }
    }
}

/// Reader threads frame, admit and enqueue; they never run a service, so
/// a small stack keeps a connection's memory cost at its read buffer.
const READER_STACK: usize = 128 * 1024;

/// Read buffer per connection; holds a dozen pipelined request frames.
const READ_BUF: usize = 16 * 1024;

/// How often `shutdown` looks at the gate while requests are pending.
const DRAIN_POLL: Duration = Duration::from_millis(1);

/// One accepted connection, shared by its reader and by every unanswered
/// request read from it; the socket closes when the last of them lets go.
struct Conn {
    stream: TcpStream,
    /// Held for one batch of whole-frame writes. The flag is `false`
    /// once a write failed or timed out: the stream may hold a torn
    /// frame, so later replies are dropped unsent.
    writer: Mutex<bool>,
}

/// An admitted request nobody has answered yet: where its answer goes,
/// and the admission slot it holds until then.
struct Unanswered {
    conn: Arc<Conn>,
    corr: u64,
    _permit: AdmissionPermit,
}

/// The handle that answers one admitted request, exactly once.
///
/// [`Reply::send`] writes the answer to the request's connection; a
/// handle dropped unsent answers `failed`. Both go through the server's
/// table of unanswered requests, whose `remove` decides between them and
/// the shutdown that fails what outlives the drain budget — so the peer
/// sees one answer and the admission permit is released once, whichever
/// thread gets there.
pub struct Reply {
    shared: Arc<Shared>,
    id: u64,
    deadline: Deadline,
    sent: bool,
}

impl std::fmt::Debug for Reply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reply").field("sent", &self.sent).finish()
    }
}

impl Reply {
    /// The request's processing budget, stamped at admission.
    pub fn deadline(&self) -> Deadline {
        self.deadline
    }

    /// Answers the request: a success payload travels in a
    /// `Response`-class frame, a status in a `Control`-class frame. May
    /// block for the connection's write timeout when the peer is not
    /// reading; that peer is then cut.
    pub fn send(mut self, result: Result<Vec<u8>, WireStatus>) {
        self.sent = true;
        self.shared.answer(self.id, result);
    }

    /// Answers a batch of requests released together (a shuffle flush):
    /// each leaves the table of unanswered requests as in [`Reply::send`],
    /// then every connection gets its answers in one write, in `batch`
    /// order — a flush reaches a peer (and a tap) as one burst. May block
    /// for one write timeout per connection whose peer is not reading.
    pub fn send_all(batch: impl IntoIterator<Item = (Reply, Result<Vec<u8>, WireStatus>)>) {
        // Per connection: its server, the requests (their permits come
        // back after the write, as in `answer`) and their frames.
        let mut writes: Vec<(Arc<Shared>, Vec<Unanswered>, Vec<Frame>)> = Vec::new();
        for (mut reply, result) in batch {
            reply.sent = true;
            let Some(request) = reply.shared.unanswered.lock().remove(&reply.id) else {
                continue;
            };
            let frame = answer_frame(request.corr, result);
            match writes
                .iter_mut()
                .find(|(_, requests, _)| Arc::ptr_eq(&requests[0].conn, &request.conn))
            {
                Some((_, requests, frames)) => {
                    requests.push(request);
                    frames.push(frame);
                }
                None => writes.push((reply.shared.clone(), vec![request], vec![frame])),
            }
        }
        for (shared, requests, frames) in &writes {
            shared.reply(&requests[0].conn, frames);
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if !self.sent {
            self.shared.answer(self.id, Err(WireStatus::Failed));
        }
    }
}

/// What a reader hands the workers.
enum WorkerJob {
    /// One request.
    One(Vec<u8>, Reply),
    /// The requests one pass over the read buffer framed and admitted, in
    /// wire order, for a service that takes passes.
    Pass(Vec<(Vec<u8>, Reply)>),
}

impl WorkerJob {
    fn len(&self) -> usize {
        match self {
            WorkerJob::One(..) => 1,
            WorkerJob::Pass(pass) => pass.len(),
        }
    }

    fn into_replies(self) -> Vec<Reply> {
        match self {
            WorkerJob::One(_, reply) => vec![reply],
            WorkerJob::Pass(pass) => pass.into_iter().map(|(_, reply)| reply).collect(),
        }
    }
}

/// State shared by the acceptor, the readers, the workers and every
/// outstanding [`Reply`]. Its counters are the node's `metrics` hub,
/// which accumulates across respawns.
struct Shared {
    stop: AtomicBool,
    gate: AdmissionGate,
    metrics: Arc<NodeMetrics>,
    request_budget: Duration,
    /// The service's [`Service::takes_passes`].
    passes: bool,
    /// Set when shutdown begins; work dequeued after it is not run.
    drain_deadline: OnceLock<Deadline>,
    /// Live connections, so shutdown can wake their readers. A reader
    /// thread removes its own entry when it exits.
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    /// Admitted requests not yet answered, by admission number. Held for
    /// one map operation, never across a write.
    unanswered: Mutex<HashMap<u64, Unanswered>>,
    next_request: AtomicU64,
}

impl Shared {
    fn new(config: &ServerConfig, passes: bool) -> Self {
        let metrics = config
            .metrics
            .clone()
            .unwrap_or_else(|| Arc::new(NodeMetrics::detached()));
        metrics.set_workers(config.workers.max(1) as u64);
        Shared {
            stop: AtomicBool::new(false),
            gate: AdmissionGate::new(config.max_inflight.max(1)),
            metrics,
            request_budget: config.request_budget,
            passes,
            drain_deadline: OnceLock::new(),
            conns: Mutex::new(HashMap::new()),
            unanswered: Mutex::new(HashMap::new()),
            next_request: AtomicU64::new(0),
        }
    }

    /// Writes `frames` to `conn` as one batch and counts each frame
    /// that reached the socket.
    fn reply(&self, conn: &Conn, frames: &[Frame]) {
        if let Some(written) = self.write_batch(conn, frames) {
            self.metrics.on_frames_out(written);
        }
    }

    /// Writes `frames` to `conn` as one batch; how many went out, if the
    /// write did. A frame that does not encode is answered `failed` in
    /// its place — the peer is waiting on that correlation id. The first
    /// failed or timed-out write cuts the connection, so a peer that
    /// never reads costs one write timeout, not one per reply.
    fn write_batch(&self, conn: &Conn, frames: &[Frame]) -> Option<u64> {
        let mut bytes = Vec::with_capacity(frames.iter().map(|f| f.class.wire_len()).sum());
        let mut encoded = 0u64;
        for frame in frames {
            let wire = frame.encode().or_else(|_| {
                self.metrics.on_encode_failure();
                control_frame(frame.corr, WireStatus::Failed).encode()
            });
            if let Ok(wire) = wire {
                bytes.extend_from_slice(&wire);
                encoded += 1;
            }
        }
        // analysis-allow: R12 the connection's own writer lock: only
        // replies to this same peer contend, each bounded by the socket's
        // write timeout
        let mut alive = conn.writer.lock();
        if !*alive {
            return None;
        }
        if write_whole(&conn.stream, &bytes).is_ok() {
            Some(encoded)
        } else {
            *alive = false;
            let _ = conn.stream.shutdown(Shutdown::Both);
            None
        }
    }

    fn reply_status(&self, conn: &Conn, corr: u64, status: WireStatus) {
        self.reply(conn, &[control_frame(corr, status)]);
    }

    /// Enters a request into the table of unanswered requests and hands
    /// back the handle that will take it out.
    fn admitted(self: &Arc<Self>, conn: &Arc<Conn>, corr: u64, permit: AdmissionPermit) -> Reply {
        let id = self.next_request.fetch_add(1, Ordering::Relaxed);
        let entry = Unanswered {
            conn: conn.clone(),
            corr,
            _permit: permit,
        };
        // analysis-allow: R12 one map insert under a lock nothing blocks
        // under; the reader's only other wait is its own socket
        self.unanswered.lock().insert(id, entry);
        Reply {
            shared: self.clone(),
            id,
            deadline: Deadline::starting_now(self.request_budget),
            sent: false,
        }
    }

    /// Answers request `id` if nobody has: the `remove` is the one point
    /// that decides between a sent reply, a dropped handle and shutdown.
    /// A write to a peer that has gone fails; either way the request is
    /// finished and its admission slot is freed.
    fn answer(&self, id: u64, result: Result<Vec<u8>, WireStatus>) {
        let Some(request) = self.unanswered.lock().remove(&id) else {
            return;
        };
        self.reply(&request.conn, &[answer_frame(request.corr, result)]);
    }

    /// Answers everything still unanswered with `status` (the end of the
    /// drain budget).
    fn fail_unanswered(&self, status: WireStatus) {
        let left: Vec<Unanswered> = self.unanswered.lock().drain().map(|(_, r)| r).collect();
        for request in left {
            self.reply_status(&request.conn, request.corr, status);
        }
    }
}

/// A running TCP server on `127.0.0.1`, serving one [`Service`].
pub struct WireServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    service: Arc<dyn Service>,
    /// Returns the reader handles it still holds when it exits.
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    workers: Vec<JoinHandle<()>>,
    drain_timeout: Duration,
}

impl std::fmt::Debug for WireServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireServer")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl WireServer {
    /// Binds a loopback listener on an OS-assigned port and spawns the
    /// acceptor and worker threads.
    ///
    /// # Errors
    ///
    /// Socket errors from bind/configure.
    pub fn spawn(service: Arc<dyn Service>, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(&config, service.takes_passes()));
        // A reader queues a job only once every request in it holds an
        // admission permit, so the reader→worker queue never holds more
        // than `max_inflight` jobs: the gate is the one bound on backlog.
        let (job_tx, job_rx) = bounded::<WorkerJob>(config.max_inflight.max(1));

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let (rx, shared, service) = (job_rx.clone(), shared.clone(), service.clone());
                std::thread::spawn(move || work(&rx, &shared, service.as_ref()))
            })
            .collect();
        // The acceptor owns the queue's original sender and every reader a
        // clone, so the workers see the queue close exactly when the last
        // of them has exited.
        let acceptor = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(&listener, &shared, &job_tx))
        };

        Ok(WireServer {
            addr,
            shared,
            service,
            acceptor: Some(acceptor),
            workers,
            drain_timeout: config.drain_timeout,
        })
    }

    /// The bound loopback address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests admitted and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.shared.gate.in_flight()
    }

    /// See [`Service::healthy`].
    pub fn healthy(&self) -> bool {
        self.service.healthy()
    }

    /// The node metrics hub this server reports into (and serves over
    /// the scrape protocol).
    pub fn metrics(&self) -> &Arc<NodeMetrics> {
        &self.shared.metrics
    }

    /// Graceful drain: stop accepting, close every connection's read
    /// half so the readers exit, release the service's internal buffers
    /// ([`Service::drain`]), let the workers empty the queue, wait until
    /// every admitted request is answered or the drain budget runs out,
    /// answer what is left `unavailable`, join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::Release);
        let drain = Deadline::starting_now(self.drain_timeout);
        let _ = self.shared.drain_deadline.set(drain);
        // The acceptor is blocked in `accept()`: a throw-away connection
        // wakes it to see the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        let readers = acceptor.join().unwrap_or_default();
        // No connection is registered after the acceptor exits. Copy the
        // registry out: the readers woken here lock it to leave it.
        let conns: Vec<Arc<Conn>> = self.shared.conns.lock().values().cloned().collect();
        for conn in conns {
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        for reader in readers {
            let _ = reader.join();
        }
        // No frame is read any more, so what the service releases now is
        // the complete set of buffered requests; and with the last reader
        // gone the job queue is closed, so the workers exit once it is
        // empty.
        self.service.drain();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // What is still admitted is parked in the service: in a shuffle
        // buffer on its way out, or on the uplink waiting for the next
        // hop. Each is answered by whoever completes it.
        while self.shared.gate.in_flight() > 0 && !drain.expired() {
            std::thread::sleep(DRAIN_POLL);
        }
        self.shared.fail_unanswered(WireStatus::Unavailable);
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Blocking writes of every byte within one write timeout — the one way
/// both ends of a connection write. A blocking socket returns a short
/// count when its write timeout fired mid-buffer, or when a signal landed
/// after part of the buffer went out. `write_all` carries on after
/// either, so a peer that is not reading costs a whole timeout again;
/// this carries on only while the socket's timeout has not run out since
/// the first `write`, and fails `TimedOut` after that.
pub(crate) fn write_whole(mut stream: &TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    let started = Instant::now();
    loop {
        match stream.write(bytes) {
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
            Ok(n) if n == bytes.len() => return Ok(()),
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => {
                // The kernel's timer runs in ticks (1–10 ms) and may end
                // the wait up to one early against this clock; a tenth of
                // the timeout covers a tick at the 500 ms defaults. Taking
                // a timeout for a signal costs one more timeout, as
                // `write_all` would.
                let timeout = stream.write_timeout()?;
                if timeout.is_some_and(|t| started.elapsed() >= t - t / 10) {
                    return Err(ErrorKind::TimedOut.into());
                }
                bytes = &bytes[n..];
            }
        }
    }
}

/// The frame that answers request `corr`: a success payload travels in a
/// `Response`-class frame, a status in a `Control`-class frame.
fn answer_frame(corr: u64, result: Result<Vec<u8>, WireStatus>) -> Frame {
    match result {
        Ok(payload) => Frame::new(PadClass::Response, corr, payload)
            .unwrap_or_else(|_| control_frame(corr, WireStatus::Failed)),
        Err(status) => control_frame(corr, status),
    }
}

fn control_frame(corr: u64, status: WireStatus) -> Frame {
    // Literal construction: status payloads are tiny and `encode`
    // re-validates against the class capacity with a typed error, so the
    // request path carries no panic site here (R13).
    Frame {
        class: PadClass::Control,
        corr,
        payload: status.to_payload(),
    }
}

/// The acceptor: blocks in `accept()`, registers each connection and
/// gives it a reader thread. Returns the reader handles at shutdown.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    job_tx: &Sender<WorkerJob>,
) -> Vec<JoinHandle<()>> {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id: u64 = 0;
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::Acquire) {
            return readers;
        }
        let Ok((stream, _peer)) = accepted else {
            // Out of descriptors or an aborted handshake: nothing to wait
            // on but the next attempt.
            std::thread::yield_now();
            continue;
        };
        shared.metrics.on_accept();
        // Replies are whole frames: send each at once instead of holding
        // it for the peer's delayed ACK of the one before.
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(shared.request_budget / 4));
        let conn = Arc::new(Conn {
            stream,
            writer: Mutex::new(true),
        });
        let id = next_id;
        next_id += 1;
        set_conn(shared, id, Some(conn.clone()));
        let (shared_r, job_tx) = (shared.clone(), job_tx.clone());
        let reader = std::thread::Builder::new()
            .stack_size(READER_STACK)
            .spawn(move || {
                read_loop(&conn, &shared_r, &job_tx);
                set_conn(&shared_r, id, None);
            });
        // Connections come and go; keep handles of live readers only.
        readers.retain(|r| !r.is_finished());
        match reader {
            Ok(handle) => readers.push(handle),
            Err(_) => set_conn(shared, id, None),
        }
    }
}

/// Registers (`Some`) or removes (`None`) a connection and republishes
/// the registry's size as the open-connections gauge.
fn set_conn(shared: &Shared, id: u64, conn: Option<Arc<Conn>>) {
    let mut conns = shared.conns.lock();
    match conn {
        Some(conn) => conns.insert(id, conn),
        None => conns.remove(&id),
    };
    shared.metrics.set_open_connections(conns.len() as u64);
}

/// A connection's reader: blocks in `read()` on its own socket and on
/// nothing else (R12) — admission and the job queue are `try_` calls, so
/// overload is answered `busy` at once. Returns when the peer closes,
/// sends bytes that do not frame, or the server shuts the read half.
fn read_loop(conn: &Arc<Conn>, shared: &Arc<Shared>, job_tx: &Sender<WorkerJob>) {
    let mut buf = vec![0u8; READ_BUF];
    let mut filled = 0;
    // The requests of the current pass; kept across passes, so a pass
    // that leaves as single jobs reuses its allocation.
    let mut pass = Vec::new();
    loop {
        // `buf` is longer than any frame, so there is always room.
        match (&conn.stream).read(&mut buf[filled..]) {
            Ok(0) => return,
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        // Pass durations are bucketed into the hub's shared histogram;
        // no per-pass timestamp leaves this loop.
        let pass_started = Instant::now();
        // Frame in place: each complete frame is decoded from its slice
        // of the read buffer. What the pass admitted goes to the workers,
        // bad bytes after it or not.
        let mut traffic = false;
        let framed = decode_stream(&buf[..filled], |frame| {
            traffic |= admit(frame, conn, shared, &mut pass);
        });
        enqueue(&mut pass, shared, job_tx);
        let Ok(pos) = framed else {
            // Desynchronized or hostile peer: cut the connection rather
            // than hunt for a resync point.
            return cut(conn, shared);
        };
        buf.copy_within(pos..filled, 0);
        filled -= pos;
        if traffic {
            shared
                .metrics
                .record_poll_pass_us(pass_started.elapsed().as_micros() as u64);
        }
    }
}

/// Drops a connection whose bytes do not frame.
fn cut(conn: &Conn, shared: &Shared) {
    shared.metrics.on_protocol_error();
    let _ = conn.stream.shutdown(Shutdown::Both);
}

/// Answers one frame from the reader thread — scrapes and refusals
/// inline — or admits it into the pass. Returns whether the frame was
/// traffic: a scrape moves the hub's `scrapes` counter and no other.
fn admit(
    frame: Frame,
    conn: &Arc<Conn>,
    shared: &Arc<Shared>,
    pass: &mut Vec<(Vec<u8>, Reply)>,
) -> bool {
    let corr = frame.corr;
    if is_scrape_request(&frame) {
        shared.metrics.on_scrape();
        let snapshot = shared.metrics.snapshot_json().to_json();
        shared.write_batch(conn, &scrape_response_frames(corr, &snapshot));
        return false;
    }
    shared.metrics.on_frame_in();
    if frame.class != PadClass::Request {
        shared.reply_status(conn, corr, WireStatus::Malformed);
    } else if let Some(permit) = shared.gate.try_admit() {
        pass.push((frame.payload, shared.admitted(conn, corr, permit)));
    } else {
        shared.metrics.on_shed();
        shared.reply_status(conn, corr, WireStatus::Busy);
    }
    true
}

/// Queues what a pass admitted: as one job if the service takes passes,
/// else one job per request.
fn enqueue(pass: &mut Vec<(Vec<u8>, Reply)>, shared: &Shared, job_tx: &Sender<WorkerJob>) {
    if shared.passes && !pass.is_empty() {
        queue(WorkerJob::Pass(std::mem::take(pass)), shared, job_tx);
    }
    for (payload, reply) in pass.drain(..) {
        queue(WorkerJob::One(payload, reply), shared, job_tx);
    }
}

/// Queues one job; a full queue answers all of it `busy`. Its requests
/// are counted in before the send (a worker may take the job before
/// `try_send` returns) and taken back out if the send fails.
fn queue(job: WorkerJob, shared: &Shared, job_tx: &Sender<WorkerJob>) {
    let requests = job.len();
    let depth = shared.metrics.on_enqueue(requests as u64);
    let (job, status) = match job_tx.try_send(job) {
        Ok(()) => {
            shared.metrics.on_queued(depth);
            return;
        }
        Err(TrySendError::Full(job)) => {
            (0..requests).for_each(|_| shared.metrics.on_shed());
            (job, WireStatus::Busy)
        }
        Err(TrySendError::Disconnected(job)) => (job, WireStatus::Unavailable),
    };
    shared.metrics.on_dequeue(requests as u64);
    for reply in job.into_replies() {
        reply.send(Err(status));
    }
}

/// A worker: hands each job to the service and takes the next — one
/// request to [`Service::serve`], a pass to [`Service::serve_pass`].
/// The time inside them is the node's compute time; a request the
/// service parks costs the worker nothing more. Exits when the queue is
/// empty and its last sender is gone.
fn work(jobs: &Receiver<WorkerJob>, shared: &Shared, service: &dyn Service) {
    while let Ok(job) = jobs.recv() {
        shared.metrics.on_dequeue(job.len() as u64);
        let busy_from = Instant::now();
        match job {
            WorkerJob::One(payload, reply) => {
                let Some(reply) = runnable(shared, reply) else {
                    continue;
                };
                service.serve(payload, reply.deadline(), reply);
            }
            WorkerJob::Pass(pass) => {
                let pass: Vec<_> = pass
                    .into_iter()
                    .filter_map(|(payload, reply)| Some((payload, runnable(shared, reply)?)))
                    .collect();
                if pass.is_empty() {
                    continue;
                }
                service.serve_pass(pass);
            }
        }
        shared
            .metrics
            .add_worker_busy_us(busy_from.elapsed().as_micros() as u64);
    }
}

/// The request back if it may still run; otherwise it is answered here:
/// `deadline` when its budget is spent, `unavailable` past the drain
/// budget.
fn runnable(shared: &Shared, reply: Reply) -> Option<Reply> {
    if reply.deadline().expired() {
        reply.send(Err(WireStatus::Deadline));
        None
    } else if shared.drain_deadline.get().is_some_and(Deadline::expired) {
        reply.send(Err(WireStatus::Unavailable));
        None
    } else {
        Some(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{parse_header, HEADER_LEN};
    use crate::WireError;

    /// Echoes the payload back, uppercased, after an optional delay.
    struct Echo {
        delay: Duration,
    }

    impl FrameHandler for Echo {
        fn handle(&self, payload: Vec<u8>, _deadline: Deadline) -> Result<Vec<u8>, WireStatus> {
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            Ok(payload.to_ascii_uppercase())
        }
    }

    fn call_once(addr: SocketAddr, corr: u64, payload: &[u8]) -> Result<Frame, WireError> {
        let mut stream = TcpStream::connect(addr).map_err(|e| WireError::Io {
            phase: "connect",
            kind: e.kind(),
        })?;
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let frame = Frame::new(PadClass::Request, corr, payload.to_vec()).unwrap();
        stream
            .write_all(&frame.encode().unwrap())
            .map_err(|e| WireError::Io {
                phase: "write",
                kind: e.kind(),
            })?;
        let mut header = [0u8; HEADER_LEN];
        stream.read_exact(&mut header).map_err(|e| WireError::Io {
            phase: "read",
            kind: e.kind(),
        })?;
        let (_, body_len, _) = parse_header(&header)?;
        let mut body = vec![0u8; body_len];
        stream.read_exact(&mut body).map_err(|e| WireError::Io {
            phase: "read",
            kind: e.kind(),
        })?;
        let mut all = header.to_vec();
        all.extend_from_slice(&body);
        Ok(Frame::decode(&all)?)
    }

    /// Reads one reply frame off a pipelined connection.
    fn read_frame(stream: &mut TcpStream) -> Frame {
        let mut bytes = vec![0u8; HEADER_LEN];
        stream.read_exact(&mut bytes).unwrap();
        let (_, body_len, _) = parse_header(bytes[..].first_chunk().unwrap()).unwrap();
        bytes.resize(HEADER_LEN + body_len, 0);
        stream.read_exact(&mut bytes[HEADER_LEN..]).unwrap();
        Frame::decode(&bytes).unwrap()
    }

    /// One field of the `server` section of the node hub's snapshot.
    fn hub_gauge(server: &WireServer, key: &str) -> u64 {
        server_field(server.metrics(), key)
    }

    fn server_field(hub: &NodeMetrics, key: &str) -> u64 {
        let snapshot = hub.snapshot_json();
        snapshot
            .get("server")
            .unwrap()
            .get(key)
            .unwrap()
            .as_u64()
            .unwrap()
    }

    #[test]
    fn serves_request_and_echoes_correlation() {
        let mut server = WireServer::spawn(
            Arc::new(Echo {
                delay: Duration::ZERO,
            }),
            ServerConfig::default(),
        )
        .unwrap();
        let resp = call_once(server.local_addr(), 42, b"hello").unwrap();
        assert_eq!(resp.class, PadClass::Response);
        assert_eq!(resp.corr, 42);
        assert_eq!(resp.payload, b"HELLO");
        server.shutdown();
        assert_eq!(hub_gauge(&server, "frames_in"), 1);
        assert_eq!(hub_gauge(&server, "shed"), 0);
    }

    #[test]
    fn many_requests_on_one_connection_pipeline() {
        let mut server = WireServer::spawn(
            Arc::new(Echo {
                delay: Duration::ZERO,
            }),
            ServerConfig::default(),
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let n = 16u64;
        for corr in 0..n {
            let frame =
                Frame::new(PadClass::Request, corr, format!("m{corr}").into_bytes()).unwrap();
            stream.write_all(&frame.encode().unwrap()).unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            let f = read_frame(&mut stream);
            assert_eq!(f.payload, format!("M{}", f.corr).into_bytes());
            seen.insert(f.corr);
        }
        assert_eq!(seen.len(), n as usize);
        server.shutdown();
    }

    #[test]
    fn overload_is_answered_with_busy_not_a_hang() {
        let mut server = WireServer::spawn(
            Arc::new(Echo {
                delay: Duration::from_millis(300),
            }),
            ServerConfig {
                workers: 1,
                max_inflight: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        for corr in 0..6u64 {
            let frame = Frame::new(PadClass::Request, corr, b"x".to_vec()).unwrap();
            stream.write_all(&frame.encode().unwrap()).unwrap();
        }
        let mut busy = 0;
        let mut ok = 0;
        for _ in 0..6 {
            let f = read_frame(&mut stream);
            match f.class {
                PadClass::Control => {
                    assert_eq!(WireStatus::from_payload(&f.payload), Some(WireStatus::Busy));
                    busy += 1;
                }
                PadClass::Response => ok += 1,
                PadClass::Request => panic!("server sent a request frame"),
            }
        }
        assert!(busy >= 1, "at least one request must be shed");
        assert!(ok >= 1, "at least one request must be served");
        assert_eq!(hub_gauge(&server, "shed"), busy as u64);
        server.shutdown();
        // Every request got exactly one reply frame, whichever class it
        // was: a served Response and a `busy` Control each count as one.
        assert_eq!(hub_gauge(&server, "frames_in"), 6);
        assert_eq!(hub_gauge(&server, "frames_out"), 6);
    }

    #[test]
    fn garbage_bytes_drop_the_connection() {
        let mut server = WireServer::spawn(
            Arc::new(Echo {
                delay: Duration::ZERO,
            }),
            ServerConfig::default(),
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&[0xffu8; 64]).unwrap();
        // The server cuts the connection: read returns EOF.
        let mut buf = [0u8; 16];
        let got = stream.read(&mut buf).unwrap_or(0);
        assert_eq!(got, 0, "connection should be closed on protocol error");
        assert!(hub_gauge(&server, "protocol_errors") >= 1);
        server.shutdown();
    }

    #[test]
    fn graceful_drain_finishes_admitted_work() {
        let mut server = WireServer::spawn(
            Arc::new(Echo {
                delay: Duration::from_millis(100),
            }),
            ServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || call_once(addr, 7, b"slow"));
        // Give the request time to be admitted, then shut down.
        std::thread::sleep(Duration::from_millis(30));
        server.shutdown();
        let resp = handle.join().unwrap().unwrap();
        assert_eq!(resp.payload, b"SLOW");
    }

    #[test]
    fn work_not_started_within_drain_timeout_is_refused_not_run() {
        let mut server = WireServer::spawn(
            Arc::new(Echo {
                delay: Duration::from_millis(200),
            }),
            ServerConfig {
                workers: 1,
                drain_timeout: Duration::from_millis(50),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        for corr in 0..3u64 {
            let frame = Frame::new(PadClass::Request, corr, b"x".to_vec()).unwrap();
            stream.write_all(&frame.encode().unwrap()).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.in_flight() < 3 {
            assert!(Instant::now() < deadline, "requests never admitted");
            std::thread::yield_now();
        }
        server.shutdown();
        // The one worker answers in order. The request it was running is
        // served; the last one is dequeued at least one 200 ms handler
        // call after the 50 ms drain budget ran out.
        let replies: Vec<Frame> = (0..3).map(|_| read_frame(&mut stream)).collect();
        assert_eq!(replies[0].class, PadClass::Response);
        assert_eq!(replies[2].corr, 2);
        assert_eq!(
            WireStatus::from_payload(&replies[2].payload),
            Some(WireStatus::Unavailable)
        );
    }

    /// A request a [`Park`] holds: its payload and its handle.
    type Parked = (Vec<u8>, Reply);

    /// Keeps every request's handle instead of answering; the test takes
    /// them out and decides what happens to them.
    #[derive(Default)]
    struct Park {
        parked: Mutex<Vec<Parked>>,
        /// Where `drain` sends what is parked (the "uplink" finishing
        /// it), when set.
        drain_to: Mutex<Option<Sender<Parked>>>,
    }

    impl Service for Park {
        fn serve(&self, payload: Vec<u8>, _deadline: Deadline, reply: Reply) {
            self.parked.lock().push((payload, reply));
        }

        fn drain(&self) {
            if let Some(tx) = self.drain_to.lock().take() {
                for parked in self.parked.lock().drain(..) {
                    let _ = tx.send(parked);
                }
            }
        }
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// `n` pipelined requests on one fresh connection.
    fn pipeline(addr: SocketAddr, n: u64) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        for corr in 0..n {
            let frame = Frame::new(PadClass::Request, corr, vec![b'a' + corr as u8]).unwrap();
            stream.write_all(&frame.encode().unwrap()).unwrap();
        }
        stream
    }

    fn status_of(frame: &Frame) -> Option<WireStatus> {
        assert_eq!(frame.class, PadClass::Control);
        WireStatus::from_payload(&frame.payload)
    }

    #[test]
    fn parked_requests_hold_permits_not_workers() {
        // One worker, eight requests in flight at once: with a worker
        // parked per request the second would never be read.
        let park = Arc::new(Park::default());
        let mut server = WireServer::spawn(
            park.clone(),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = pipeline(server.local_addr(), 8);
        wait_until("all eight parked", || park.parked.lock().len() == 8);
        assert_eq!(server.in_flight(), 8);
        // Answered from a thread that is not a worker, last first.
        let parked: Vec<_> = park.parked.lock().drain(..).collect();
        std::thread::spawn(move || {
            for (payload, reply) in parked.into_iter().rev() {
                reply.send(Ok(payload.to_ascii_uppercase()));
            }
        })
        .join()
        .unwrap();
        let corrs: Vec<u64> = (0..8)
            .map(|_| {
                let f = read_frame(&mut stream);
                assert_eq!(f.payload, vec![b'A' + f.corr as u8]);
                f.corr
            })
            .collect();
        assert_eq!(corrs, [7, 6, 5, 4, 3, 2, 1, 0]);
        assert_eq!(server.in_flight(), 0);
        // Parked time is not worker time.
        assert!(hub_gauge(&server, "worker_busy_us") < 1_000_000);
        server.shutdown();
    }

    #[test]
    fn send_all_answers_a_batch_per_connection_in_batch_order() {
        let park = Arc::new(Park::default());
        let mut server = WireServer::spawn(park.clone(), ServerConfig::default()).unwrap();
        let mut a = pipeline(server.local_addr(), 3);
        wait_until("a's parked", || park.parked.lock().len() == 3);
        let mut b = pipeline(server.local_addr(), 2);
        wait_until("b's parked", || park.parked.lock().len() == 5);
        // A release order that interleaves the two connections. Which
        // worker parks first is a race, so a request is picked by its
        // connection (a's three were parked before b connected) and its
        // payload (`b'a' + corr`), not by its place in the list.
        let mut from_a: Vec<Parked> = park.parked.lock().drain(..).collect();
        let mut from_b = from_a.split_off(3);
        let take = |conn: &mut Vec<Parked>, corr: u8| {
            let at = conn.iter().position(|p| p.0 == [b'a' + corr]);
            conn.remove(at.expect("parked once"))
        };
        let batch: Vec<_> = [
            take(&mut from_b, 1),
            take(&mut from_a, 2),
            take(&mut from_a, 0),
            take(&mut from_b, 0),
            take(&mut from_a, 1),
        ]
        .into_iter()
        .map(|(payload, reply)| (reply, Ok(payload.to_ascii_uppercase())))
        .collect();
        Reply::send_all(batch);
        assert_eq!(server.in_flight(), 0);
        let corrs = |stream: &mut TcpStream, n: usize| -> Vec<u64> {
            (0..n)
                .map(|_| {
                    let f = read_frame(stream);
                    assert_eq!(f.payload, vec![b'A' + f.corr as u8]);
                    f.corr
                })
                .collect()
        };
        assert_eq!(corrs(&mut a, 3), [2, 0, 1]);
        assert_eq!(corrs(&mut b, 2), [1, 0]);
        server.shutdown();
        assert_eq!(
            hub_gauge(&server, "frames_out"),
            5,
            "answered exactly once each"
        );
    }

    #[test]
    fn a_reply_dropped_unsent_answers_failed_and_frees_the_permit() {
        let park = Arc::new(Park::default());
        let mut server = WireServer::spawn(park.clone(), ServerConfig::default()).unwrap();
        let mut stream = pipeline(server.local_addr(), 2);
        wait_until("both parked", || park.parked.lock().len() == 2);
        assert_eq!(server.in_flight(), 2);
        park.parked.lock().clear();
        for _ in 0..2 {
            assert_eq!(
                status_of(&read_frame(&mut stream)),
                Some(WireStatus::Failed)
            );
        }
        assert_eq!(server.in_flight(), 0);
        server.shutdown();
        assert_eq!(
            hub_gauge(&server, "frames_out"),
            2,
            "answered exactly once each"
        );
    }

    #[test]
    fn graceful_drain_waits_for_what_the_service_still_holds() {
        // `drain` passes the parked requests to a thread that answers
        // them 50 ms later — requests released from a shuffle buffer and
        // now pending on the uplink.
        let (tx, rx) = crossbeam::channel::unbounded::<Parked>();
        let uplink = std::thread::spawn(move || {
            while let Ok((payload, reply)) = rx.recv() {
                std::thread::sleep(Duration::from_millis(50));
                reply.send(Ok(payload));
            }
        });
        let park = Arc::new(Park::default());
        *park.drain_to.lock() = Some(tx);
        let mut server = WireServer::spawn(park.clone(), ServerConfig::default()).unwrap();
        let mut stream = pipeline(server.local_addr(), 3);
        wait_until("all three parked", || park.parked.lock().len() == 3);
        server.shutdown();
        assert_eq!(server.in_flight(), 0);
        for _ in 0..3 {
            assert_eq!(read_frame(&mut stream).class, PadClass::Response);
        }
        uplink.join().unwrap();
    }

    #[test]
    fn what_outlives_the_drain_budget_is_failed_unavailable_once() {
        let park = Arc::new(Park::default());
        let drain_timeout = Duration::from_millis(50);
        let mut server = WireServer::spawn(
            park.clone(),
            ServerConfig {
                drain_timeout,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = pipeline(server.local_addr(), 2);
        wait_until("both parked", || park.parked.lock().len() == 2);
        let started = Instant::now();
        server.shutdown();
        assert!(started.elapsed() >= drain_timeout);
        assert!(started.elapsed() < Duration::from_secs(2));
        assert_eq!(server.in_flight(), 0, "permits came back with the refusal");
        for _ in 0..2 {
            assert_eq!(
                status_of(&read_frame(&mut stream)),
                Some(WireStatus::Unavailable)
            );
        }
        // The service lets go late: nothing more reaches the peer.
        for (payload, reply) in park.parked.lock().drain(..) {
            reply.send(Ok(payload));
        }
        assert_eq!(hub_gauge(&server, "frames_out"), 2);
    }

    #[test]
    fn a_reply_that_does_not_encode_is_answered_failed_and_counted() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let conn = Conn {
            stream: listener.accept().unwrap().0,
            writer: Mutex::new(true),
        };
        let shared = Shared::new(&ServerConfig::default(), false);
        // Built literally, past `Frame::new`'s check, between two that fit.
        let oversize = Frame {
            class: PadClass::Response,
            corr: 2,
            payload: vec![0; PadClass::Response.max_payload() + 1],
        };
        let fits = |corr| Frame::new(PadClass::Response, corr, b"ok".to_vec()).unwrap();
        shared.reply(&conn, &[fits(1), oversize, fits(3)]);
        assert_eq!(read_frame(&mut peer), fits(1));
        let refused = read_frame(&mut peer);
        assert_eq!(refused.corr, 2);
        assert_eq!(status_of(&refused), Some(WireStatus::Failed));
        assert_eq!(read_frame(&mut peer), fits(3));
        assert_eq!(server_field(&shared.metrics, "encode_failures"), 1);
        assert_eq!(server_field(&shared.metrics, "frames_out"), 3);
    }

    /// The most one socket buffer of this kind (`tcp_rmem`, `tcp_wmem`)
    /// may grow to under the kernel's autotuning, in bytes.
    fn tcp_buffer_max(kind: &str) -> usize {
        std::fs::read_to_string(format!("/proc/sys/net/ipv4/{kind}"))
            .ok()
            .and_then(|limits| limits.split_whitespace().nth(2)?.parse().ok())
            .unwrap_or(8 << 20)
    }

    #[test]
    fn peer_that_never_reads_does_not_wedge_the_workers() {
        // Twice the replies the two socket buffers between the server and
        // the peer can hold when autotuning has grown both to the
        // kernel's maxima (a fixed 8.8 MB fitted, on a slow run), and
        // room to admit the whole burst, so that every request is served.
        let buffers = tcp_buffer_max("tcp_wmem") + tcp_buffer_max("tcp_rmem");
        let burst = 2 * buffers / PadClass::Response.wire_len();
        let config = ServerConfig {
            max_inflight: burst,
            ..ServerConfig::default()
        };
        let drain_timeout = config.drain_timeout;
        let mut server = WireServer::spawn(
            Arc::new(Echo {
                delay: Duration::ZERO,
            }),
            config,
        )
        .unwrap();
        // Pipelined requests from a peer that reads no reply. On a slow
        // run the cut comes before the burst is out, and ends it.
        let mut deaf = TcpStream::connect(server.local_addr()).unwrap();
        deaf.set_write_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        for corr in 0..burst as u64 {
            let frame = Frame::new(PadClass::Request, corr, b"x".to_vec()).unwrap();
            if deaf.write_all(&frame.encode().unwrap()).is_err() {
                break;
            }
        }
        // A second connection is still served: the first reply the deaf
        // peer would not take timed out and cut that connection.
        for corr in 0..4u64 {
            let resp = call_once(server.local_addr(), corr, b"other").unwrap();
            assert_eq!(resp.payload, b"OTHER");
        }
        let started = Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < drain_timeout,
            "shutdown took {:?}",
            started.elapsed()
        );
        assert_eq!(server.in_flight(), 0);
        // The cut also ends the deaf connection's reader, wherever in
        // the burst it had got to (all of it, on an idle box).
        let (frames_in, frames_out) = (
            hub_gauge(&server, "frames_in"),
            hub_gauge(&server, "frames_out"),
        );
        assert!(
            (4..=burst as u64 + 4).contains(&frames_in),
            "{frames_in} frames in"
        );
        assert!(
            frames_out < frames_in,
            "the deaf connection was never cut: its replies fit the socket buffers"
        );
    }

    #[test]
    fn a_deaf_peer_costs_the_completing_thread_one_write_timeout() {
        // The same deaf peer, but its requests are parked and completed
        // by one thread that is not a worker — a shuffle flush thread or
        // an uplink reader. That thread blocks once, for the connection's
        // write timeout (a quarter of the request budget); the write
        // cuts the connection and every later reply to it returns at once.
        let park = Arc::new(Park::default());
        let config = ServerConfig {
            max_inflight: 4_096,
            request_budget: Duration::from_millis(800),
            ..ServerConfig::default()
        };
        let write_timeout = config.request_budget / 4;
        let mut server = WireServer::spawn(park.clone(), config).unwrap();
        let mut deaf = TcpStream::connect(server.local_addr()).unwrap();
        for corr in 0..4_000u64 {
            let frame = Frame::new(PadClass::Request, corr, b"x".to_vec()).unwrap();
            deaf.write_all(&frame.encode().unwrap()).unwrap();
        }
        wait_until("the burst parked", || park.parked.lock().len() == 4_000);
        let parked: Vec<_> = park.parked.lock().drain(..).collect();
        let started = Instant::now();
        for (_, reply) in parked {
            reply.send(Ok(vec![0x5a; PadClass::Response.max_payload()]));
        }
        let took = started.elapsed();
        assert!(took >= write_timeout, "no write ever blocked: {took:?}");
        // Once, not once per reply (4 000 × 200 ms); the slack is for
        // encoding the 3 999 frames that are then dropped, on a busy box.
        assert!(
            took < write_timeout + Duration::from_secs(3),
            "paid the write timeout again and again: {took:?}"
        );
        assert_eq!(server.in_flight(), 0);
        assert!(hub_gauge(&server, "frames_out") < 4_000);
        // The server still serves others.
        let other = pipeline(server.local_addr(), 1);
        wait_until("the other request parked", || park.parked.lock().len() == 1);
        drop(other);
        park.parked.lock().clear();
        server.shutdown();
    }

    #[test]
    fn connection_churn_leaves_no_registry_entries() {
        let mut server = WireServer::spawn(
            Arc::new(Echo {
                delay: Duration::ZERO,
            }),
            ServerConfig::default(),
        )
        .unwrap();
        for corr in 0..500u64 {
            let resp = call_once(server.local_addr(), corr, b"hi").unwrap();
            assert_eq!(resp.corr, corr);
        }
        // Each reader deregisters itself when it sees its peer's EOF.
        let deadline = Instant::now() + Duration::from_secs(10);
        while hub_gauge(&server, "open_connections") != 0 {
            assert!(Instant::now() < deadline, "connections still registered");
            std::thread::yield_now();
        }
        assert!(server.shared.conns.lock().is_empty());
        assert_eq!(hub_gauge(&server, "accepted"), 500);
        server.shutdown();
    }

    #[test]
    fn shutdown_with_idle_connections_is_prompt_and_idempotent() {
        let config = ServerConfig::default();
        let drain_timeout = config.drain_timeout;
        let mut server = WireServer::spawn(
            Arc::new(Echo {
                delay: Duration::ZERO,
            }),
            config,
        )
        .unwrap();
        let mut idle: Vec<TcpStream> = (0..3)
            .map(|_| TcpStream::connect(server.local_addr()).unwrap())
            .collect();
        // A served call on a fourth connection: the acceptor takes
        // connections in order, so the three idle ones are registered.
        call_once(server.local_addr(), 1, b"x").unwrap();
        let started = Instant::now();
        server.shutdown();
        server.shutdown();
        assert!(
            started.elapsed() < drain_timeout / 5,
            "shutdown took {:?}",
            started.elapsed()
        );
        for stream in &mut idle {
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(stream.read(&mut [0u8; 16]).unwrap(), 0, "expected EOF");
        }
        assert_eq!(hub_gauge(&server, "open_connections"), 0);
    }

    #[test]
    fn a_scrape_moves_only_the_scrape_counter() {
        let mut server = WireServer::spawn(
            Arc::new(Echo {
                delay: Duration::ZERO,
            }),
            ServerConfig::default(),
        )
        .unwrap();
        let scraper = crate::scrape::ClusterScraper::new(Vec::new());
        scraper.scrape_node(server.local_addr()).unwrap();
        let doc = scraper.scrape_node(server.local_addr()).unwrap();
        let at = |path| pprox_json::schema::number(&doc, path).unwrap();
        // The first scrape's query and answer are not traffic.
        assert_eq!(at("server.frames_in"), 0.0);
        assert_eq!(at("server.frames_out"), 0.0);
        assert_eq!(at("server.poll_loop.sum_us"), 0.0);
        assert!(pprox_json::schema::list(&doc, "server.poll_loop.counts")
            .unwrap()
            .is_empty());
        // The second one counts itself here, before it is rendered.
        assert_eq!(at("scrapes"), 2.0);
        server.shutdown();
    }
}
