//! The multi-threaded, event-driven TCP serving layer.
//!
//! Thread model (mirroring the paper's §5 server/data-processing split):
//!
//! ```text
//! acceptor ──spawns──► reader (one per connection, blocks in read())
//!                         │ jobs (bounded try_send, admission-gated)
//!                         ▼
//!                      workers ── FrameHandler::handle
//!                         │ reply, under the connection's writer lock
//!                         ▼
//!                      the connection's socket
//! ```
//!
//! * the **acceptor** blocks in `accept()` and gives every accepted
//!   socket a reader thread;
//! * a **reader** blocks in `read()` on its own socket, frames complete
//!   requests in place from its read buffer and hands them to the
//!   workers; nothing else it does can block on another connection;
//! * **workers** run the [`FrameHandler`] — the enclave ECALLs and
//!   next-hop calls — and write each reply straight to the socket it
//!   came from.
//!
//! No thread polls: every wait is a kernel wake-up (`accept`, `read`, the
//! job queue's condition variable). A server sees the driver's one
//! connection or an upstream tier's pool — a dozen connections — so a
//! thread per connection is cheap, and safe `std` has no readiness API.
//!
//! Backpressure is explicit and bounded at two points: the
//! [`AdmissionGate`](pprox_core::resilience::AdmissionGate) caps
//! requests in flight, and the worker queue is a bounded channel. A
//! request that fails either bound is answered *immediately* with a
//! constant-size `busy` control frame — never an unbounded queue, never
//! a silent drop (§5's "fast, typed errors" discipline, same as the
//! in-process pipeline). A peer that stops reading its replies costs one
//! write timeout, after which its connection is cut.
//!
//! Shutdown is a graceful drain: stop accepting, close the read half of
//! every connection so the readers exit, flush the handler's buffers,
//! let admitted work finish and be answered, then join.

use crate::frame::{parse_header, Frame, PadClass, HEADER_LEN};
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

/// Request handler run on the worker pool, one call per request frame.
///
/// The handler returns the success payload (sent back in a
/// `Response`-class frame) or a [`WireStatus`] (sent back in a
/// `Control`-class frame). Handlers receive the request's [`Deadline`]
/// so they can clamp downstream calls to the remaining budget.
pub trait FrameHandler: Send + Sync + 'static {
    /// Processes one request payload.
    ///
    /// # Errors
    ///
    /// A [`WireStatus`] describing why the request was not served.
    fn handle(&self, payload: Vec<u8>, deadline: Deadline) -> Result<Vec<u8>, WireStatus>;

    /// Called once at the start of a graceful shutdown, before the server
    /// waits for in-flight work. Handlers holding requests in internal
    /// buffers (the UA shuffle stage) flush them here so buffered
    /// requests are *answered*, not dropped, on exit. The default does
    /// nothing.
    fn drain(&self) {}
}

/// Tunables for one [`WireServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads running the handler.
    pub workers: usize,
    /// Bounded depth of the reader→worker queue.
    pub queue_depth: usize,
    /// Maximum requests admitted and not yet answered (admission gate).
    pub max_inflight: usize,
    /// Per-request processing budget, stamped at admission. A quarter of
    /// it is the write timeout of every accepted socket: a peer that
    /// stops reading is cut while requests queued behind the blocked
    /// write still have most of their budget.
    pub request_budget: Duration,
    /// Drain budget during shutdown: admitted work not started by then is
    /// answered `unavailable` instead of run.
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
            queue_depth: 256,
            max_inflight: 256,
            request_budget: Duration::from_secs(2),
            drain_timeout: Duration::from_secs(5),
            metrics: None,
        }
    }
}

/// Point-in-time snapshot of a server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted since start.
    pub accepted: u64,
    /// Request frames fully read.
    pub frames_in: u64,
    /// Response frames fully written.
    pub frames_out: u64,
    /// Requests answered `busy` at the gate or queue.
    pub shed: u64,
    /// Connections dropped for malformed framing.
    pub protocol_errors: u64,
}

/// Reader threads frame, admit and enqueue; they never run a handler, so
/// a small stack keeps a connection's memory cost at its read buffer.
const READER_STACK: usize = 128 * 1024;

/// Read buffer per connection; holds a dozen pipelined request frames.
const READ_BUF: usize = 16 * 1024;

/// One accepted connection, shared by its reader and by every job read
/// from it; the socket closes when the last of them lets go.
struct Conn {
    stream: TcpStream,
    /// Held for one batch of whole-frame writes. The flag is `false`
    /// once a write failed or timed out: the stream may hold a torn
    /// frame, so later replies are dropped unsent.
    writer: Mutex<bool>,
}

struct WorkerJob {
    conn: Arc<Conn>,
    corr: u64,
    payload: Vec<u8>,
    deadline: Deadline,
    permit: AdmissionPermit,
}

/// State shared by the acceptor, the readers and the workers.
///
/// The plain counters stay per-incarnation ([`WireServer::stats`]
/// semantics); `metrics` accumulates for the node, surviving respawns.
struct Shared {
    stop: AtomicBool,
    gate: AdmissionGate,
    metrics: Arc<NodeMetrics>,
    request_budget: Duration,
    /// Set when shutdown begins; work dequeued after it is not run.
    drain_deadline: OnceLock<Deadline>,
    /// Live connections, so shutdown can wake their readers. A reader
    /// thread removes its own entry when it exits.
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    accepted: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    shed: AtomicU64,
    protocol_errors: AtomicU64,
}

impl Shared {
    /// Writes `frames` to `conn` as one batch, counting each frame that
    /// reached the socket. The first failed or timed-out write cuts the
    /// connection, so a peer that never reads costs the worker pool one
    /// write timeout, not one per reply.
    fn reply(&self, conn: &Conn, frames: &[Frame]) {
        let mut bytes = Vec::with_capacity(frames.iter().map(|f| f.class.wire_len()).sum());
        let mut encoded = 0u64;
        for frame in frames.iter().flat_map(Frame::encode) {
            bytes.extend_from_slice(&frame);
            encoded += 1;
        }
        // analysis-allow: R12 the connection's own writer lock: only
        // replies to this same peer contend, each bounded by the socket's
        // write timeout
        let mut alive = conn.writer.lock();
        if !*alive {
            return;
        }
        if write_whole(&conn.stream, &bytes) {
            self.frames_out.fetch_add(encoded, Ordering::Relaxed);
            self.metrics.on_frames_out(encoded);
        } else {
            *alive = false;
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }

    fn reply_status(&self, conn: &Conn, corr: u64, status: WireStatus) {
        self.reply(conn, &[control_frame(corr, status)]);
    }

    fn on_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.metrics.on_shed();
    }

    fn on_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
        self.metrics.on_protocol_error();
    }
}

/// A running TCP server on `127.0.0.1`, serving one [`FrameHandler`].
pub struct WireServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    handler: Arc<dyn FrameHandler>,
    drain_timeout: Duration,
    /// Returns the reader handles it still holds when it exits.
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    workers: Vec<JoinHandle<()>>,
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
    pub fn spawn(handler: Arc<dyn FrameHandler>, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let metrics = config
            .metrics
            .clone()
            .unwrap_or_else(|| Arc::new(NodeMetrics::detached()));
        metrics.set_workers(config.workers.max(1) as u64);
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            gate: AdmissionGate::new(config.max_inflight.max(1)),
            metrics,
            request_budget: config.request_budget,
            drain_deadline: OnceLock::new(),
            conns: Mutex::new(HashMap::new()),
            accepted: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
        });
        let (job_tx, job_rx) = bounded::<WorkerJob>(config.queue_depth.max(1));

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let (rx, shared, handler) = (job_rx.clone(), shared.clone(), handler.clone());
                std::thread::spawn(move || work(&rx, &shared, handler.as_ref()))
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
            handler,
            drain_timeout: config.drain_timeout,
            acceptor: Some(acceptor),
            workers,
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

    /// The node metrics hub this server reports into (and serves over
    /// the scrape protocol).
    pub fn metrics(&self) -> &Arc<NodeMetrics> {
        &self.shared.metrics
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServerStats {
            accepted: load(&self.shared.accepted),
            frames_in: load(&self.shared.frames_in),
            frames_out: load(&self.shared.frames_out),
            shed: load(&self.shared.shed),
            protocol_errors: load(&self.shared.protocol_errors),
        }
    }

    /// Graceful drain: stop accepting, close every connection's read
    /// half so the readers exit, flush the handler's internal buffers
    /// ([`FrameHandler::drain`]), let the workers answer admitted work,
    /// join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::Release);
        let _ = self
            .shared
            .drain_deadline
            .set(Deadline::starting_now(self.drain_timeout));
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
        // No frame is read any more, so what the handler flushes now is
        // the complete set of buffered requests; and with the last reader
        // gone the job queue is closed, so the workers exit once it is
        // empty.
        self.handler.drain();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One blocking `write` that must take every byte. Unlike `write_all`
/// a short count is a failure: a blocking socket returns one only when
/// its write timeout fired mid-buffer, and carrying on would wait a
/// whole timeout again for a peer that is not reading.
fn write_whole(mut stream: &TcpStream, bytes: &[u8]) -> bool {
    loop {
        match stream.write(bytes) {
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            written => return matches!(written, Ok(n) if n == bytes.len()),
        }
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
        shared.accepted.fetch_add(1, Ordering::Relaxed);
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
fn read_loop(conn: &Arc<Conn>, shared: &Shared, job_tx: &Sender<WorkerJob>) {
    let mut buf = vec![0u8; READ_BUF];
    let mut filled = 0;
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
        let mut pos = 0;
        // Frame in place: each complete frame is decoded from its slice
        // of the read buffer.
        while let Some(header) = buf[pos..filled].first_chunk::<HEADER_LEN>() {
            let Ok((_, body_len, corr)) = parse_header(header) else {
                // Desynchronized or hostile peer: cut the connection
                // rather than hunt for a resync point.
                return cut(conn, shared);
            };
            let end = pos + HEADER_LEN + body_len;
            if end > filled {
                break;
            }
            shared.frames_in.fetch_add(1, Ordering::Relaxed);
            shared.metrics.on_frame_in();
            let Ok(frame) = Frame::decode(&buf[pos..end]) else {
                return cut(conn, shared);
            };
            admit(frame, corr, conn, shared, job_tx);
            pos = end;
        }
        buf.copy_within(pos..filled, 0);
        filled -= pos;
        shared
            .metrics
            .record_poll_pass_us(pass_started.elapsed().as_micros() as u64);
    }
}

/// Drops a connection whose bytes do not frame.
fn cut(conn: &Conn, shared: &Shared) {
    shared.on_protocol_error();
    let _ = conn.stream.shutdown(Shutdown::Both);
}

/// Answers one frame from the reader thread — scrapes and refusals
/// inline — or queues it for the workers.
fn admit(frame: Frame, corr: u64, conn: &Arc<Conn>, shared: &Shared, job_tx: &Sender<WorkerJob>) {
    if frame.class != PadClass::Request {
        if is_scrape_request(&frame) {
            shared.metrics.on_scrape();
            let snapshot = shared.metrics.snapshot_json().to_json();
            shared.reply(conn, &scrape_response_frames(corr, &snapshot));
        } else {
            shared.reply_status(conn, corr, WireStatus::Malformed);
        }
        return;
    }
    let Some(permit) = shared.gate.try_admit() else {
        shared.on_shed();
        return shared.reply_status(conn, corr, WireStatus::Busy);
    };
    let job = WorkerJob {
        conn: conn.clone(),
        corr,
        payload: frame.payload,
        deadline: Deadline::starting_now(shared.request_budget),
        permit,
    };
    match job_tx.try_send(job) {
        Ok(()) => shared.metrics.on_enqueue(),
        // The refused job drops here, freeing its admission slot.
        Err(TrySendError::Full(_)) => {
            shared.on_shed();
            shared.reply_status(conn, corr, WireStatus::Busy);
        }
        Err(TrySendError::Disconnected(_)) => {
            shared.reply_status(conn, corr, WireStatus::Unavailable);
        }
    }
}

/// A worker: runs the handler and writes the reply to the job's socket.
/// Exits when the queue is empty and its last sender is gone.
fn work(jobs: &Receiver<WorkerJob>, shared: &Shared, handler: &dyn FrameHandler) {
    while let Ok(job) = jobs.recv() {
        shared.metrics.on_dequeue();
        let busy_from = Instant::now();
        let drained = shared.drain_deadline.get().is_some_and(Deadline::expired);
        let result = if job.deadline.expired() {
            Err(WireStatus::Deadline)
        } else if drained {
            Err(WireStatus::Unavailable)
        } else {
            handler.handle(job.payload, job.deadline)
        };
        shared
            .metrics
            .add_worker_busy_us(busy_from.elapsed().as_micros() as u64);
        let frame = match result {
            Ok(payload) => Frame::new(PadClass::Response, job.corr, payload)
                .unwrap_or_else(|_| control_frame(job.corr, WireStatus::Failed)),
            Err(status) => control_frame(job.corr, status),
        };
        // A write to a peer that has gone fails; either way the request
        // is finished and its admission slot is freed.
        shared.reply(&job.conn, &[frame]);
        drop(job.permit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let snapshot = server.metrics().snapshot_json();
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
        let stats = server.stats();
        assert_eq!(stats.frames_in, 1);
        assert_eq!(stats.shed, 0);
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
                queue_depth: 1,
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
        let shed = server.stats().shed;
        assert_eq!(shed, busy as u64);
        server.shutdown();
        // Every request got exactly one reply frame, whichever class it
        // was: a served Response and a `busy` Control each count as one.
        let stats = server.stats();
        assert_eq!(stats.frames_in, 6);
        assert_eq!(stats.frames_out, stats.frames_in);
        assert_eq!(hub_gauge(&server, "frames_out"), 6);
        assert_eq!(hub_gauge(&server, "frames_in"), 6);
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
        assert!(server.stats().protocol_errors >= 1);
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

    #[test]
    fn peer_that_never_reads_does_not_wedge_the_workers() {
        // Room to admit the whole burst, so every request is served and
        // the replies (8.8 MB) outgrow what the socket buffers hold.
        let config = ServerConfig {
            queue_depth: 4_096,
            max_inflight: 4_096,
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
        // 4 000 pipelined requests from a peer that reads no reply.
        let mut deaf = TcpStream::connect(server.local_addr()).unwrap();
        deaf.set_write_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        for corr in 0..4_000u64 {
            let frame = Frame::new(PadClass::Request, corr, b"x".to_vec()).unwrap();
            deaf.write_all(&frame.encode().unwrap()).unwrap();
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
        let stats = server.stats();
        assert_eq!(stats.frames_in, 4_004);
        assert!(
            stats.frames_out < stats.frames_in,
            "the deaf connection was never cut: its replies fit the socket buffers"
        );
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
        assert_eq!(server.stats().accepted, 500);
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
}
