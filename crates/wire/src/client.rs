//! The pipelined wire client: one connection per backend, any number of
//! calls in flight on it.
//!
//! One [`PooledClient`] targets one server address and keeps one
//! connection to it. [`PooledClient::submit`] is the primitive: it
//! writes the request frame and returns; the answer arrives at the
//! connection's reader thread, which looks the correlation id up in the
//! table of pending calls and runs the call's completion. Nothing waits
//! in between, so the thread that submits (a server worker, a turn that
//! releases a shuffle batch, another uplink reader) is free at once.
//!
//! ```text
//! submit ── pending.insert(corr) ── write frame ──────────────► server
//!                  │                                               │
//!   deadline queue ┤ expiry: pending.remove(corr) → Deadline       │
//!   reader thread ─┤ reply:  pending.remove(corr) → payload ◄──────┘
//!   reader / write ┘ loss:   pending.take_all()   → Io, next submit redials
//! ```
//!
//! The table's `remove` is the linearisation point: a reply, the call's
//! deadline and the loss of the connection race for the entry and exactly
//! one of them runs the completion. A reply that loses (it arrives after
//! its call expired) is dropped and counted. A peer that accepts and says
//! nothing therefore fails its calls `Deadline` at their deadlines, from
//! the node's [`DeadlineQueue`], without a thread waiting on each.
//!
//! A call on a client (a ring of one backend) or a balancer's ring is one
//! run of the retry loop (`Retry`): at most `1 + max_retries` attempts,
//! a per-call jittered pause ([`RetryBackoff`]) on the deadline queue
//! between them, and a `Policy` for what the caller knows. The blocking
//! [`PooledClient::call`] is `submit` plus a one-shot wait, for callers
//! that have a thread to spare (the front door, scenario drivers, probes).
//!
//! Attempts reach a connection as a list (`Conn::send_attempts`): one, or a
//! backend's share of a batch the ring started at once
//! (`Ring::submit_batch`, a shuffle release). Each is framed and
//! registered in order, and the frames go out as one buffer that must be
//! taken within one write timeout (`server::write_whole`, which the
//! server's replies use too): a timeout mid-buffer fails the connection,
//! so a peer that stops reading costs the submitter one write timeout,
//! not one per frame or two per buffer.

use crate::frame::{decode_stream, Frame, PadClass};
use crate::server::write_whole;
use crate::timers::{DeadlineQueue, TimerKey};
use crate::{WireError, WireStatus};
use parking_lot::{Mutex, RwLock};
use pprox_core::resilience::{Deadline, RetryBackoff};
use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a finished call hands to its continuation: the response payload,
/// or why there is none.
pub type CallResult = Result<Vec<u8>, WireError>;

/// A call's continuation. Runs once, on whichever thread finishes the
/// call: the connection's reader (reply, connection loss), the deadline
/// queue (expiry, a retry that ran out of budget) or the submitter itself
/// (a failure before anything was sent).
pub type Completion = Box<dyn FnOnce(CallResult) + Send>;

/// The retry loop's tunables for the calls of one [`PooledClient`] or
/// [`crate::SocketBalancer`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Attempts after a call's first: at most `1 + max_retries` wire
    /// attempts per call, on one backend or across a ring.
    pub max_retries: u32,
    /// Decorrelated-jitter base delay between attempts.
    pub retry_base: Duration,
    /// Decorrelated-jitter delay cap.
    pub retry_cap: Duration,
    /// Jitter seed (deterministic tests pin this).
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_retries: 2,
            retry_base: Duration::from_millis(5),
            retry_cap: Duration::from_millis(100),
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

/// A submitter blocked on a full socket buffer is let go after this
/// long; the connection is then cut and its pending calls fail over.
const WRITE_TIMEOUT: Duration = Duration::from_millis(500);

/// Read buffer of a connection's reader; holds several response frames.
const READ_BUF: usize = 16 * 1024;

/// A pipelined client for one server address: a ring of one backend.
pub struct PooledClient {
    ring: Arc<Ring>,
    conn: Arc<Conn>,
}

/// The backends a call's attempts go to, read afresh by every attempt, and
/// what the calls share: tunables, the node's deadline queue, counters.
pub(crate) struct Ring {
    pub(crate) backends: RwLock<Vec<Arc<Conn>>>,
    pub(crate) timers: Arc<DeadlineQueue>,
    pub(crate) retries: AtomicU64,
    pub(crate) deadline_clamps: AtomicU64,
    in_flight: AtomicUsize,
    config: ClientConfig,
    /// Round-robin cursor: an unpinned call starts at `cursor % len`.
    cursor: AtomicUsize,
    /// Calls that have drawn a backoff so far: salts each one's jitter.
    backoffs: AtomicU64,
}

impl Ring {
    pub(crate) fn new(
        backends: Vec<Arc<Conn>>,
        config: ClientConfig,
        timers: Arc<DeadlineQueue>,
    ) -> Arc<Self> {
        Arc::new(Ring {
            backends: RwLock::new(backends),
            timers,
            retries: AtomicU64::new(0),
            deadline_clamps: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            config,
            cursor: AtomicUsize::new(0),
            backoffs: AtomicU64::new(0),
        })
    }

    /// Starts one call: every attempt to slot `shard`, or without one,
    /// round the ring from the next slot. `done` runs once.
    pub(crate) fn submit<P: Policy>(
        self: &Arc<Self>,
        shard: Option<usize>,
        policy: P,
        payload: Arc<[u8]>,
        deadline: Deadline,
        done: impl FnOnce(P::Outcome) + Send + 'static,
    ) {
        self.enter(shard, policy, payload, deadline, Box::new(done))
            .attempt();
    }

    /// Enters one call and hands back its retry loop, not yet attempted.
    fn enter<P: Policy>(
        self: &Arc<Self>,
        shard: Option<usize>,
        policy: P,
        payload: Arc<[u8]>,
        deadline: Deadline,
        done: Box<dyn FnOnce(P::Outcome) + Send>,
    ) -> Retry<P> {
        let (start, pinned) = match shard {
            Some(slot) => (slot, true),
            None => (self.cursor.fetch_add(1, Ordering::Relaxed), false),
        };
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        Retry {
            ring: self.clone(),
            start,
            pinned,
            policy,
            payload,
            deadline,
            k: 0,
            backoff: None,
            done,
        }
    }

    /// Starts one call per entry of `calls`, each from the next slot round
    /// the ring as [`Ring::submit`] would, and writes their first attempts
    /// backend by backend: each backend's share, in `calls` order, as one
    /// buffer in one `write`. Every call is its own retry loop from there.
    pub(crate) fn submit_batch(self: &Arc<Self>, calls: Vec<(Arc<[u8]>, Deadline, Completion)>) {
        let mut writes: Vec<(Arc<Conn>, Vec<Attempt>)> = Vec::new();
        for (payload, deadline, done) in calls {
            let call = self.enter(None, Plain, payload, deadline, done);
            let Some((conn, attempt)) = call.prepare() else {
                continue;
            };
            match writes.iter_mut().find(|(c, _)| Arc::ptr_eq(c, &conn)) {
                Some((_, share)) => share.push(attempt),
                None => writes.push((conn, vec![attempt])),
            }
        }
        for (conn, share) in writes {
            conn.send_attempts(share);
        }
    }

    /// The backend attempt `k` of a call goes to: slot `start + k` round
    /// the ring, or slot `start` every time when the call is pinned.
    fn pick(&self, start: usize, pinned: bool, k: u32) -> Option<Arc<Conn>> {
        let backends = self.backends.read();
        let slot = if pinned {
            start
        } else {
            start.wrapping_add(k as usize) % backends.len()
        };
        backends.get(slot).cloned()
    }
}

/// What one attempt's outcome means to its call.
pub(crate) enum Verdict<T> {
    /// The call ends with this.
    Done(T),
    /// Worth another attempt; the call ends with this if none is left.
    Retry(T),
}

/// What a call's owner knows about its attempts that the transport does
/// not. The defaults: no gate, the call's whole deadline for each attempt.
pub(crate) trait Policy: Send + 'static {
    /// What the call finishes with.
    type Outcome: Send + 'static;

    /// What a call whose deadline ran out finishes with.
    const EXPIRED: Self::Outcome;

    /// Asked before every attempt; `Err` ends the call with it.
    fn admit(&self) -> Result<(), Self::Outcome> {
        Ok(())
    }

    /// The deadline one attempt runs under.
    fn attempt_deadline(&self, call: Deadline) -> Deadline {
        call
    }

    /// Reads the outcome of an attempt that started at `started`.
    fn judge(&self, started: Instant, result: CallResult) -> Verdict<Self::Outcome>;
}

/// The policy of a caller that adds nothing: [`WireError::retryable`]
/// failures are retried, and so is a timeout, which had the whole deadline:
/// the loop finds it spent and ends the call `Deadline`.
pub(crate) struct Plain;

impl Policy for Plain {
    type Outcome = CallResult;

    const EXPIRED: CallResult = Err(WireError::Deadline);

    fn judge(&self, _started: Instant, result: CallResult) -> Verdict<CallResult> {
        match result {
            Err(e) if e.retryable() || e == WireError::Deadline => Verdict::Retry(Err(e)),
            result => Verdict::Done(result),
        }
    }
}

/// One call across its attempts: the serving path's only retry loop.
struct Retry<P: Policy> {
    ring: Arc<Ring>,
    /// The first attempt's slot, and whether every attempt goes there.
    start: usize,
    pinned: bool,
    policy: P,
    payload: Arc<[u8]>,
    deadline: Deadline,
    /// The attempt to make next, counting from 0.
    k: u32,
    /// Drawn on the first retry: a call answered at once draws no jitter.
    backoff: Option<RetryBackoff>,
    done: Box<dyn FnOnce(P::Outcome) + Send>,
}

impl<P: Policy> Retry<P> {
    /// Makes attempt `k`, unless the deadline is spent or the policy refuses.
    fn attempt(self) {
        if let Some((conn, attempt)) = self.prepare() {
            conn.send_attempts(vec![attempt]);
        }
    }

    /// Attempt `k` up to its write: the budget and the policy's gate, the
    /// backend it goes to, and the attempt with this loop as its
    /// completion. `None` when the call ended instead.
    fn prepare(self) -> Option<(Arc<Conn>, Attempt)> {
        let started = Instant::now();
        if started >= self.deadline.instant() {
            self.out_of_budget();
            return None;
        }
        if let Err(refused) = self.policy.admit() {
            self.finish(refused);
            return None;
        }
        let Some(conn) = self.ring.pick(self.start, self.pinned, self.k) else {
            self.attempted(started, Err(WireError::Remote(WireStatus::Unavailable)));
            return None;
        };
        let attempt = Attempt {
            payload: self.payload.clone(),
            deadline: self.policy.attempt_deadline(self.deadline),
            done: Box::new(move |result| self.attempted(started, result)),
        };
        Some((conn, attempt))
    }

    /// An attempt's completion, and the one place that decides on another:
    /// the policy calls the outcome retryable, attempts are left, and the
    /// pause fits the remaining budget (a deadline-queue entry, not a sleep).
    fn attempted(mut self, started: Instant, result: CallResult) {
        let last = match self.policy.judge(started, result) {
            Verdict::Done(outcome) => return self.finish(outcome),
            Verdict::Retry(outcome) => outcome,
        };
        if self.deadline.expired() {
            return self.out_of_budget();
        }
        let ring = &self.ring;
        if self.k >= ring.config.max_retries {
            return self.finish(last);
        }
        let delay = self
            .backoff
            .get_or_insert_with(|| {
                let config = &ring.config;
                let salt = ring.backoffs.fetch_add(1, Ordering::Relaxed);
                let seed = config.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                RetryBackoff::new(config.retry_base, config.retry_cap, seed)
            })
            .next_delay();
        match self.deadline.remaining() {
            Some(remaining) if remaining > delay => {
                ring.retries.fetch_add(1, Ordering::Relaxed);
                let timers = ring.timers.clone();
                self.k += 1;
                timers.after(delay, move || self.attempt());
            }
            _ => self.out_of_budget(),
        }
    }

    fn out_of_budget(self) {
        self.ring.deadline_clamps.fetch_add(1, Ordering::Relaxed);
        self.finish(P::EXPIRED);
    }

    fn finish(self, outcome: P::Outcome) {
        self.ring.in_flight.fetch_sub(1, Ordering::Relaxed);
        (self.done)(outcome);
    }
}

/// One wire attempt of a call, ready to be framed and written.
struct Attempt {
    payload: Arc<[u8]>,
    deadline: Deadline,
    done: Completion,
}

/// One backend: its connection, dialed on demand, and its reader threads.
pub(crate) struct Conn {
    addr: SocketAddr,
    timers: Arc<DeadlineQueue>,
    uplink: Mutex<Uplink>,
    corr: AtomicU64,
    /// Connections dialed so far; every one after the first is a
    /// reconnect.
    dials: AtomicU64,
    late_replies: Arc<AtomicU64>,
}

/// The current connection and the reader threads started so far.
struct Uplink {
    link: Option<Arc<Link>>,
    readers: Vec<JoinHandle<()>>,
    /// Set when the backend is closed: nothing dials any more.
    closed: bool,
}

/// What a call on a dropped client, or one whose completion was thrown
/// away with its deadline queue, fails with.
const CLOSED: WireError = WireError::Io {
    phase: "closed",
    kind: ErrorKind::ConnectionAborted,
};

/// One connection: the socket, and the calls waiting for an answer on it.
struct Link {
    stream: TcpStream,
    /// Held for one whole-frame write.
    writer: Mutex<()>,
    /// Cleared, under the `pending` lock, when the connection is lost:
    /// nothing registers any more. (Read without the lock only as a hint.)
    open: AtomicBool,
    pending: Mutex<HashMap<u64, (TimerKey, Completion)>>,
    timers: Arc<DeadlineQueue>,
    late_replies: Arc<AtomicU64>,
}

impl Link {
    /// Enters a call into the table and arms its expiry. Gives the
    /// completion back when the connection is already lost.
    fn register(
        self: &Arc<Self>,
        corr: u64,
        deadline: Deadline,
        done: Completion,
    ) -> Result<(), Completion> {
        let mut pending = self.pending.lock();
        if !self.open.load(Ordering::Relaxed) {
            return Err(done);
        }
        let link = Arc::downgrade(self);
        let expiry = self.timers.at(deadline.instant(), move || {
            if let Some(link) = link.upgrade() {
                link.expire(corr);
            }
        });
        pending.insert(corr, (expiry, done));
        Ok(())
    }

    fn take(&self, corr: u64) -> Option<(TimerKey, Completion)> {
        self.pending.lock().remove(&corr)
    }

    /// The reader's half of the race: a reply for `corr` arrived.
    fn on_reply(&self, corr: u64, result: CallResult) {
        match self.take(corr) {
            Some((expiry, done)) => {
                self.timers.cancel(expiry);
                done(result);
            }
            // Its call expired (or never existed): nobody is waiting.
            None => {
                self.late_replies.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The deadline queue's half: the call's budget ran out.
    fn expire(&self, corr: u64) {
        if let Some((_, done)) = self.take(corr) {
            done(Err(WireError::Deadline));
        }
    }

    /// Connection loss: closes the table and the socket, and fails every
    /// call still in the table with `error`.
    fn fail_all(&self, error: &WireError) {
        let calls = {
            let mut pending = self.pending.lock();
            self.open.store(false, Ordering::Relaxed);
            std::mem::take(&mut *pending)
        };
        let _ = self.stream.shutdown(Shutdown::Both);
        for (_, (expiry, done)) in calls {
            self.timers.cancel(expiry);
            done(Err(error.clone()));
        }
    }

    /// Writes encoded frames as one buffer; a failed write, or one the
    /// peer has not taken when the write timeout runs out, loses the
    /// connection, so a peer that is not reading costs the writer one
    /// write timeout.
    fn write_frames(&self, bytes: &[u8]) {
        let written = {
            let _writer = self.writer.lock();
            write_whole(&self.stream, bytes)
        };
        if let Err(e) = written {
            self.fail_all(&io_error("write", &e));
        }
    }
}

fn io_error(phase: &'static str, e: &std::io::Error) -> WireError {
    WireError::Io {
        phase,
        kind: e.kind(),
    }
}

/// A connection's reader: blocks in `read()` on its socket, frames each
/// reply in place and completes the call it answers. Runs completions
/// inline, so they must not wait (a completion may write to another
/// socket, bounded by that socket's write timeout). Returns when the
/// peer closes, sends bytes that do not frame, or the client shuts the
/// socket; whatever is still pending then fails as a connection loss.
fn read_replies(link: &Link) {
    let mut buf = vec![0u8; READ_BUF];
    let mut filled = 0;
    let lost = loop {
        match (&link.stream).read(&mut buf[filled..]) {
            Ok(0) => {
                break WireError::Io {
                    phase: "read",
                    kind: ErrorKind::UnexpectedEof,
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => break io_error("read", &e),
        }
        let pos = match decode_stream(&buf[..filled], |frame| {
            link.on_reply(frame.corr, reply_result(frame))
        }) {
            Ok(pos) => pos,
            Err(e) => break WireError::Frame(e),
        };
        buf.copy_within(pos..filled, 0);
        filled -= pos;
    };
    link.fail_all(&lost);
}

/// What a reply frame means to the call it answers.
fn reply_result(frame: Frame) -> CallResult {
    match frame.class {
        PadClass::Response => Ok(frame.payload),
        PadClass::Control => Err(WireError::Remote(
            WireStatus::from_payload(&frame.payload).unwrap_or(WireStatus::Malformed),
        )),
        PadClass::Request => Err(WireError::Frame(crate::frame::FrameError::UnknownClass(
            0xfe,
        ))),
    }
}

impl Conn {
    pub(crate) fn new(addr: SocketAddr, timers: Arc<DeadlineQueue>) -> Arc<Self> {
        Arc::new(Conn {
            addr,
            timers,
            uplink: Mutex::new(Uplink {
                link: None,
                readers: Vec::new(),
                closed: false,
            }),
            corr: AtomicU64::new(1),
            dials: AtomicU64::new(0),
            late_replies: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Fresh connections opened after the first.
    pub(crate) fn reconnects(&self) -> u64 {
        self.dials.load(Ordering::Relaxed).saturating_sub(1)
    }

    /// Replies that arrived after their call had expired.
    pub(crate) fn late_replies(&self) -> u64 {
        self.late_replies.load(Ordering::Relaxed)
    }

    /// The live connection, dialing one when there is none or the last
    /// one is lost. Holding the uplink lock across the dial makes
    /// concurrent submitters share it.
    fn link(&self, deadline: Deadline) -> Result<Arc<Link>, WireError> {
        let mut uplink = self.uplink.lock();
        if let Some(link) = uplink.link.as_ref() {
            if link.open.load(Ordering::Relaxed) {
                return Ok(link.clone());
            }
        }
        if uplink.closed {
            return Err(CLOSED);
        }
        let Some(budget) = deadline.remaining() else {
            return Err(WireError::Deadline);
        };
        self.dials.fetch_add(1, Ordering::Relaxed);
        let stream =
            TcpStream::connect_timeout(&self.addr, budget).map_err(|e| io_error("connect", &e))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let link = Arc::new(Link {
            stream,
            writer: Mutex::new(()),
            open: AtomicBool::new(true),
            pending: Mutex::new(HashMap::new()),
            timers: self.timers.clone(),
            late_replies: self.late_replies.clone(),
        });
        let reader = {
            let link = link.clone();
            std::thread::Builder::new()
                .name("uplink-reader".into())
                .spawn(move || read_replies(&link))
                .map_err(|e| io_error("connect", &e))?
        };
        uplink.readers.retain(|r| !r.is_finished());
        uplink.readers.push(reader);
        uplink.link = Some(link.clone());
        Ok(link)
    }

    /// Attempts and no retry, in one `write`: each payload is framed
    /// under a fresh correlation id and registered, in order, then the
    /// frames go out together. Each `done` runs exactly once.
    fn send_attempts(&self, attempts: Vec<Attempt>) {
        let dial_by = attempts
            .iter()
            .map(|a| a.deadline)
            .max_by_key(|d| d.instant());
        let link = match dial_by.map(|deadline| self.link(deadline)) {
            Some(Ok(link)) => link,
            Some(Err(e)) => return attempts.into_iter().for_each(|a| (a.done)(Err(e.clone()))),
            None => return,
        };
        let mut bytes = Vec::new();
        for Attempt {
            payload,
            deadline,
            done,
        } in attempts
        {
            let corr = self.corr.fetch_add(1, Ordering::Relaxed);
            let wire = match Frame::new(PadClass::Request, corr, payload.to_vec())
                .and_then(|frame| frame.encode())
            {
                Ok(wire) => wire,
                Err(e) => {
                    done(Err(WireError::Frame(e)));
                    continue;
                }
            };
            match link.register(corr, deadline, done) {
                Ok(()) if bytes.is_empty() => bytes = wire,
                Ok(()) => bytes.extend_from_slice(&wire),
                // Lost since `link` looked: the attempt fails with it.
                Err(done) => done(Err(WireError::Io {
                    phase: "connect",
                    kind: ErrorKind::ConnectionAborted,
                })),
            }
        }
        if !bytes.is_empty() {
            link.write_frames(&bytes);
        }
    }

    /// Closes the connection: what is pending fails as a connection
    /// loss, an attempt made later finds the backend closed, and the
    /// reader threads are joined.
    fn close(&self) {
        let (link, readers) = {
            let mut uplink = self.uplink.lock();
            uplink.closed = true;
            (uplink.link.take(), std::mem::take(&mut uplink.readers))
        };
        if let Some(link) = link {
            // Closes the socket, which ends the reader.
            link.fail_all(&CLOSED);
        }
        for reader in readers {
            // The last handle can die inside a completion, on a reader.
            if reader.thread().id() != std::thread::current().id() {
                let _ = reader.join();
            }
        }
    }
}

/// A backend swapped out of its ring, or left by a dropped one, closes
/// once the last attempt on it lets go.
impl Drop for Conn {
    fn drop(&mut self) {
        self.close();
    }
}

/// Dropping a client closes its connection at once: what is pending on
/// it fails as a connection loss.
impl Drop for PooledClient {
    fn drop(&mut self) {
        self.conn.close();
    }
}

impl std::fmt::Debug for PooledClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledClient")
            .field("addr", &self.addr())
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

/// Runs `start` with a completion that wakes this thread, and waits for
/// it: the blocking adapter over a continuation-style call.
pub(crate) fn block_on(start: impl FnOnce(Completion)) -> CallResult {
    let (tx, rx) = std::sync::mpsc::sync_channel::<CallResult>(1);
    start(Box::new(move |result| {
        let _ = tx.send(result);
    }));
    // A completion dropped unrun (its deadline queue was torn down)
    // leaves the channel closed and empty.
    rx.recv().unwrap_or(Err(CLOSED))
}

impl PooledClient {
    /// Creates a client for `addr` with a deadline queue of its own. No
    /// connection is opened and no thread started until the first call.
    pub fn new(addr: SocketAddr, config: ClientConfig) -> Self {
        Self::with_timers(addr, config, Arc::new(DeadlineQueue::new()))
    }

    /// Creates a client whose expiries and retry delays run on `timers`
    /// — a deadline queue shared with other clients.
    pub fn with_timers(addr: SocketAddr, config: ClientConfig, timers: Arc<DeadlineQueue>) -> Self {
        let conn = Conn::new(addr, timers.clone());
        let ring = Ring::new(vec![conn.clone()], config, timers);
        PooledClient { ring, conn }
    }

    /// The server address this client targets.
    pub fn addr(&self) -> SocketAddr {
        self.conn.addr
    }

    /// Calls submitted and not yet completed.
    pub fn in_flight(&self) -> usize {
        self.ring.in_flight.load(Ordering::Relaxed)
    }

    /// Fresh connections opened after the first (reconnect count).
    pub fn reconnects(&self) -> u64 {
        self.conn.reconnects()
    }

    /// Attempts made after the first, over this client's calls.
    pub fn retries(&self) -> u64 {
        self.ring.retries.load(Ordering::Relaxed)
    }

    /// Calls that ran out of deadline budget — before an attempt, while
    /// waiting for its reply, or before a retry's backoff fitted.
    pub fn deadline_clamps(&self) -> u64 {
        self.ring.deadline_clamps.load(Ordering::Relaxed)
    }

    /// Replies that arrived after their call had expired and were
    /// dropped.
    pub fn late_replies(&self) -> u64 {
        self.conn.late_replies()
    }

    /// Sends `payload` in a `Request`-class frame and returns; `done`
    /// runs once with the matching response, a server-reported failure
    /// ([`WireError::Remote`]), [`WireError::Deadline`] when the budget
    /// runs out (within scheduling delay of `deadline`, however silent
    /// the peer), or the last transport error when the retries are spent.
    pub fn submit(
        &self,
        payload: Arc<[u8]>,
        deadline: Deadline,
        done: impl FnOnce(CallResult) + Send + 'static,
    ) {
        self.ring.submit(Some(0), Plain, payload, deadline, done);
    }

    /// [`PooledClient::submit`], waiting for the completion.
    ///
    /// # Errors
    ///
    /// What `submit` hands its completion.
    pub fn call(&self, payload: &[u8], deadline: Deadline) -> CallResult {
        block_on(|done| self.submit(Arc::from(payload), deadline, done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{FrameHandler, ServerConfig, WireServer};
    use std::io::Write;
    use std::net::TcpListener;
    use std::sync::mpsc::{channel, Receiver};
    use std::time::Instant;

    struct Echo;

    impl FrameHandler for Echo {
        fn handle(&self, payload: Vec<u8>, _deadline: Deadline) -> Result<Vec<u8>, WireStatus> {
            Ok(payload)
        }
    }

    fn budget() -> Deadline {
        Deadline::starting_now(Duration::from_secs(5))
    }

    /// A peer the test scripts by hand: a bare listener.
    fn scripted_peer() -> (TcpListener, PooledClient) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let config = ClientConfig {
            max_retries: 0,
            ..ClientConfig::default()
        };
        let client = PooledClient::new(listener.local_addr().unwrap(), config);
        (listener, client)
    }

    fn accept(listener: &TcpListener) -> TcpStream {
        let stream = listener.accept().unwrap().0;
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
    }

    fn read_request(stream: &mut TcpStream) -> Frame {
        let mut bytes = vec![0u8; PadClass::Request.wire_len()];
        stream.read_exact(&mut bytes).unwrap();
        Frame::decode(&bytes).unwrap()
    }

    fn write_response(stream: &mut TcpStream, corr: u64, payload: &[u8]) {
        let frame = Frame::new(PadClass::Response, corr, payload.to_vec()).unwrap();
        stream.write_all(&frame.encode().unwrap()).unwrap();
    }

    /// Submits `payload` and returns where its completion will report.
    fn submit(client: &PooledClient, payload: &[u8], deadline: Deadline) -> Receiver<CallResult> {
        let (tx, rx) = channel();
        client.submit(Arc::from(payload), deadline, move |result| {
            let _ = tx.send(result);
        });
        rx
    }

    /// A counter of the server's metrics document, at dotted `path`.
    fn served(server: &WireServer, path: &str) -> f64 {
        pprox_json::schema::number(&server.metrics().snapshot_json(), path).unwrap()
    }

    fn completion(rx: &Receiver<CallResult>) -> CallResult {
        rx.recv_timeout(Duration::from_secs(5))
            .expect("completion never ran")
    }

    #[test]
    fn call_roundtrips_and_reuses_the_connection() {
        let mut server = WireServer::spawn(Arc::new(Echo), ServerConfig::default()).unwrap();
        let client = PooledClient::new(server.local_addr(), ClientConfig::default());
        for i in 0..8u32 {
            let msg = format!("payload-{i}").into_bytes();
            let got = client.call(&msg, budget()).unwrap();
            assert_eq!(got, msg);
        }
        // One connection opened, reused seven times.
        assert_eq!(served(&server, "server.accepted"), 1.0);
        assert_eq!(client.reconnects(), 0);
        assert_eq!(client.in_flight(), 0);
        server.shutdown();
    }

    #[test]
    fn replies_out_of_order_are_matched_by_correlation_id() {
        let (listener, client) = scripted_peer();
        let waiting: Vec<_> = ["one", "two", "three"]
            .iter()
            .map(|p| submit(&client, p.as_bytes(), budget()))
            .collect();
        assert_eq!(client.in_flight(), 3);
        let mut peer = accept(&listener);
        let requests: Vec<Frame> = (0..3).map(|_| read_request(&mut peer)).collect();
        // All three on the one connection, answered last first, each
        // with its own payload reversed.
        for request in requests.iter().rev() {
            let answer: Vec<u8> = request.payload.iter().rev().copied().collect();
            write_response(&mut peer, request.corr, &answer);
        }
        for (rx, want) in waiting.iter().zip(["eno", "owt", "eerht"]) {
            assert_eq!(completion(rx).unwrap(), want.as_bytes());
        }
        assert_eq!(client.in_flight(), 0);
        assert_eq!(client.late_replies(), 0);
    }

    #[test]
    fn a_silent_peer_fails_the_call_at_its_deadline() {
        let (listener, client) = scripted_peer();
        let budget = Duration::from_millis(80);
        let started = Instant::now();
        let rx = submit(&client, b"anyone?", Deadline::starting_now(budget));
        // The peer accepts, reads, and says nothing.
        let mut peer = accept(&listener);
        read_request(&mut peer);
        assert_eq!(completion(&rx), Err(WireError::Deadline));
        let took = started.elapsed();
        assert!(took >= budget, "failed early: {took:?}");
        assert!(
            took < budget + Duration::from_millis(60),
            "failed late: {took:?}"
        );
        assert_eq!(client.deadline_clamps(), 1);
        // The blocking form is the same call with a wait.
        let started = Instant::now();
        let err = client.call(b"still?", Deadline::starting_now(budget));
        assert_eq!(err, Err(WireError::Deadline));
        assert!(started.elapsed() < budget + Duration::from_millis(60));
    }

    #[test]
    fn a_reply_after_expiry_is_dropped_and_counted() {
        let (listener, client) = scripted_peer();
        let short = submit(
            &client,
            b"short",
            Deadline::starting_now(Duration::from_millis(30)),
        );
        let long = submit(&client, b"long", budget());
        let mut peer = accept(&listener);
        let (first, second) = (read_request(&mut peer), read_request(&mut peer));
        assert_eq!(completion(&short), Err(WireError::Deadline));
        // The late answer first, then the one still awaited: the reader
        // drops the first and is still in step for the second.
        write_response(&mut peer, first.corr, b"too late");
        write_response(&mut peer, second.corr, b"in time");
        assert_eq!(completion(&long).unwrap(), b"in time");
        assert_eq!(client.late_replies(), 1);
        assert!(short.try_recv().is_err(), "a completion ran twice");
    }

    #[test]
    fn connection_loss_fails_every_pending_call_once_and_the_next_submit_redials() {
        let (listener, client) = scripted_peer();
        let waiting: Vec<_> = (0..3).map(|_| submit(&client, b"x", budget())).collect();
        let mut peer = accept(&listener);
        for _ in 0..3 {
            read_request(&mut peer);
        }
        drop(peer);
        for rx in &waiting {
            let lost = completion(rx);
            assert!(matches!(lost, Err(WireError::Io { .. })), "got {lost:?}");
        }
        assert_eq!(client.in_flight(), 0);
        // A fresh connection for the next call.
        let rx = submit(&client, b"again", budget());
        let mut peer = accept(&listener);
        let request = read_request(&mut peer);
        write_response(&mut peer, request.corr, b"back");
        assert_eq!(completion(&rx).unwrap(), b"back");
        assert_eq!(client.reconnects(), 1);
        for rx in &waiting {
            assert!(rx.try_recv().is_err(), "a completion ran twice");
        }
    }

    #[test]
    fn a_lost_connection_is_retried_on_a_fresh_one_from_the_deadline_queue() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let client = PooledClient::new(listener.local_addr().unwrap(), ClientConfig::default());
        let rx = submit(&client, b"persist", budget());
        // First attempt: read and hang up. Second: answer.
        let mut peer = accept(&listener);
        read_request(&mut peer);
        drop(peer);
        let mut peer = accept(&listener);
        let request = read_request(&mut peer);
        write_response(&mut peer, request.corr, b"second time");
        assert_eq!(completion(&rx).unwrap(), b"second time");
        assert_eq!(client.retries(), 1);
        assert_eq!(client.reconnects(), 1);
    }

    #[test]
    fn reconnects_after_server_restart() {
        let mut server = WireServer::spawn(Arc::new(Echo), ServerConfig::default()).unwrap();
        let client = PooledClient::new(server.local_addr(), ClientConfig::default());
        assert_eq!(client.call(b"one", budget()).unwrap(), b"one");
        server.shutdown();
        // A new server on a fresh port: calls to the dead address fail
        // with a retryable transport error, not a hang.
        let err = client.call(b"two", budget()).unwrap_err();
        assert!(
            matches!(err, WireError::Io { .. } | WireError::Deadline),
            "got {err:?}"
        );
    }

    #[test]
    fn expired_deadline_fails_fast() {
        let mut server = WireServer::spawn(Arc::new(Echo), ServerConfig::default()).unwrap();
        let client = PooledClient::new(server.local_addr(), ClientConfig::default());
        let expired = Deadline::starting_now(Duration::ZERO);
        assert!(matches!(
            client.call(b"late", expired),
            Err(WireError::Deadline)
        ));
        server.shutdown();
    }

    #[test]
    fn remote_failure_is_not_retried() {
        struct AlwaysFail;
        impl FrameHandler for AlwaysFail {
            fn handle(&self, _p: Vec<u8>, _d: Deadline) -> Result<Vec<u8>, WireStatus> {
                Err(WireStatus::Failed)
            }
        }
        let mut server = WireServer::spawn(Arc::new(AlwaysFail), ServerConfig::default()).unwrap();
        let client = PooledClient::new(server.local_addr(), ClientConfig::default());
        let err = client.call(b"x", budget()).unwrap_err();
        assert_eq!(err, WireError::Remote(WireStatus::Failed));
        // Exactly one request reached the server (non-retryable status).
        assert_eq!(served(&server, "server.frames_in"), 1.0);
        server.shutdown();
    }

    #[test]
    fn a_peer_that_never_reads_costs_the_submitter_one_write_timeout() {
        const BATCH: usize = 1024;
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let timers = Arc::new(DeadlineQueue::new());
        let conn = Conn::new(listener.local_addr().unwrap(), timers.clone());
        let config = ClientConfig {
            max_retries: 0,
            ..ClientConfig::default()
        };
        let ring = Ring::new(vec![conn], config, timers);
        let payload: Arc<[u8]> = vec![7u8; 1024].into();
        let (tx, rx) = channel();
        let mut peer = None;
        let mut submitted = 0;
        // Batches of about a megabyte until one does not fit in what the
        // two socket buffers hold: the peer accepts and never reads.
        let (took, first) = loop {
            assert!(
                submitted < 64 * BATCH,
                "64 MB went to a peer that never reads"
            );
            let calls = (0..BATCH)
                .map(|_| {
                    let tx = tx.clone();
                    let done: Completion = Box::new(move |result| {
                        let _ = tx.send(result);
                    });
                    (
                        payload.clone(),
                        Deadline::starting_now(Duration::from_secs(30)),
                        done,
                    )
                })
                .collect();
            let started = Instant::now();
            ring.submit_batch(calls);
            let took = started.elapsed();
            submitted += BATCH;
            peer.get_or_insert_with(|| accept(&listener));
            if let Ok(first) = rx.try_recv() {
                break (took, first);
            }
        };
        assert!(
            took < WRITE_TIMEOUT + WRITE_TIMEOUT / 2,
            "the submitter was held {took:?}"
        );
        // Every call on the link failed, once, as the connection's loss.
        let failed: Vec<CallResult> = std::iter::once(first).chain(rx.try_iter()).collect();
        assert_eq!(failed.len(), submitted);
        assert!(failed
            .iter()
            .all(|r| matches!(r, Err(WireError::Io { .. }))));
        assert_eq!(ring.in_flight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn dropping_the_client_fails_what_is_pending_and_ends_its_reader() {
        let (listener, client) = scripted_peer();
        let rx = submit(&client, b"orphan", budget());
        let mut peer = accept(&listener);
        read_request(&mut peer);
        drop(client);
        assert!(matches!(completion(&rx), Err(WireError::Io { .. })));
        // The socket is closed: the peer reads end-of-stream.
        assert_eq!(peer.read(&mut [0u8; 8]).unwrap(), 0);
    }
}
