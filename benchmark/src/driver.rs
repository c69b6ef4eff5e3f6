//! The load generator: one TCP connection to the UA, one writer thread,
//! one reader thread.
//!
//! `WireServer` multiplexes a connection by correlation id, so a single
//! pipelined connection carries every request in flight; two driver
//! threads fit the box's two cores beside the cluster under test.
//!
//! The socket sets `TCP_NODELAY` and re-arms `TCP_QUICKACK` after every
//! read. The servers' accepted sockets never set `TCP_NODELAY`, so a
//! response can sit in the server's send queue until the previous one is
//! acknowledged; with delayed ACKs that is until the client's next
//! request carries the ACK — one inter-arrival gap. Immediate ACKs from
//! the driver remove that bistability from the measurement (see the
//! README's known product issues).

use crate::trace::Span;
use crate::workload::{Load, Op, Plan, Workload, NUM_ITEMS, WARMUP_SECONDS};
use pprox::core::client::GetTicket;
use pprox::core::message::EncryptedList;
use pprox::core::UserClient;
use pprox::wire::frame::{parse_header, Frame, PadClass, HEADER_LEN};
use pprox::wire::WireStatus;
use pprox::workload::dataset::Dataset;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::linux::net::TcpStreamExt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the reader waits for answers after the last request went out.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(4);

/// Most requests the open loop keeps in flight. When another tenant
/// stops the box for a second the writer is a second's worth of requests
/// behind; sent all at once, 300 of them overrun the UA's admission gate
/// (256) and the rest are answered `busy`, which says nothing about the
/// program. With the cap the writer sends the backlog as fast as answers
/// come back, and since latency is timed from the due instant the stall
/// shows as tail latency and as generator lateness, not as failed
/// requests. In a run without such a stall fewer than ten are in flight.
pub const OPEN_IN_FLIGHT: u64 = 64;

/// How long the open-loop writer waits for one of those slots before it
/// gives the run up.
const SLOT_TIMEOUT: Duration = Duration::from_secs(10);

/// How many of the last warm-up gets are not checked against the exact
/// list: the UA's workers may overtake one another by a few requests, so
/// the first timed posts can reach the recommender before them.
const WARMUP_EXACT_MARGIN: usize = 32;

/// The body of a post acknowledgement as the IA layer writes it.
const POST_ACK: &[u8] = b"{\"ok\":true}";

/// What a correct answer to one request looks like.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A post: the acknowledgement body.
    Ack,
    /// A get whose exact list is known (stub answer, or the recommender's
    /// answer while no post can intervene).
    List(Arc<Vec<String>>),
    /// A get racing with posts: at most 20 distinct ids of the catalogue.
    CatalogueItems,
}

/// One request, encrypted ahead of time.
pub struct Prepared {
    /// The envelope's bytes, the payload of the request frame. The frame
    /// itself is encoded when the request is sent, because its checksum
    /// covers the correlation id and every send gets a new one.
    pub payload: Vec<u8>,
    /// Due instant, µs from the start of the warm-up (open loop).
    pub due_us: u64,
    /// Whether the request is a post.
    pub is_post: bool,
    /// The key that opens a get's answer.
    pub ticket: Option<GetTicket>,
    /// The correct answer.
    pub expect: Expect,
}

/// Encrypts every request of `plan` with `client`.
/// `expect_get` gives the expected answer of a get for a user id; it is
/// asked for warm-up gets (but the last [`WARMUP_EXACT_MARGIN`]) and, with
/// `exact_timed_gets`, for timed ones.
pub fn prepare(
    plan: &Plan,
    client: &mut UserClient,
    exact_timed_gets: bool,
    mut expect_get: impl FnMut(&str) -> Arc<Vec<String>>,
) -> Vec<Prepared> {
    plan.requests
        .iter()
        .enumerate()
        .map(|(index, planned)| {
            let (envelope, ticket, is_post, expect) = match planned.op {
                Op::Get { user } => {
                    let user = Dataset::user_id(user);
                    let (envelope, ticket) =
                        client.get(&user).expect("catalogue ids fit the id budget");
                    let expect =
                        if exact_timed_gets || index + WARMUP_EXACT_MARGIN < plan.warmup_len {
                            Expect::List(expect_get(&user))
                        } else {
                            Expect::CatalogueItems
                        };
                    (envelope, Some(ticket), false, expect)
                }
                Op::Post { user, item } => {
                    let envelope = client
                        .post(&Dataset::user_id(user), &Dataset::item_id(item), None)
                        .expect("catalogue ids fit the id budget");
                    (envelope, None, true, Expect::Ack)
                }
            };
            let payload = envelope.to_frame().expect("envelope fits its frame");
            assert!(payload.len() <= PadClass::Request.max_payload());
            Prepared {
                payload,
                due_us: planned.due_us,
                is_post,
                ticket,
                expect,
            }
        })
        .collect()
}

/// Checks one answer frame against what the request expects.
pub fn verify(client: &UserClient, request: &Prepared, frame: &Frame) -> Outcome {
    if frame.class != PadClass::Response {
        return refusal(&frame.payload);
    }
    let ok = match (&request.expect, &request.ticket) {
        (Expect::Ack, _) => frame.payload == POST_ACK,
        (expect, Some(ticket)) => EncryptedList::from_frame(&frame.payload)
            .and_then(|list| client.open_response(ticket, &list))
            .map(|items| match expect {
                Expect::List(want) => items == **want,
                _ => is_catalogue_list(&items, NUM_ITEMS),
            })
            .unwrap_or(false),
        (_, None) => false,
    };
    if ok {
        Outcome::Ok
    } else {
        Outcome::Wrong
    }
}

/// How a frame that is not a response ends its request: the chain's
/// status frames are refusals, anything else is a wrong answer.
fn refusal(payload: &[u8]) -> Outcome {
    match WireStatus::from_payload(payload) {
        Some(WireStatus::Busy) => Outcome::Busy,
        Some(_) => Outcome::Refused,
        None => Outcome::Wrong,
    }
}

/// At most 20 distinct `m<5 digits>` ids below `num_items`.
fn is_catalogue_list(items: &[String], num_items: u32) -> bool {
    let mut seen = std::collections::HashSet::new();
    items.len() <= pprox::lrs::MAX_RECOMMENDATIONS
        && items.iter().all(|id| {
            id.len() == 6
                && id.starts_with('m')
                && id[1..].parse::<u32>().is_ok_and(|n| n < num_items)
                && seen.insert(id.as_str())
        })
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered and verified.
    Ok,
    /// Answered `busy` by an admission gate or a full queue.
    Busy,
    /// Answered with another error status (deadline, unavailable, ...).
    Refused,
    /// Answered, and the answer is not the correct one.
    Wrong,
}

/// One request with its answer, matched by correlation id.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Instant the request was due, ns from the run's origin.
    pub due_ns: u64,
    /// Instant the writer took it up, ns from the origin.
    pub sent_ns: u64,
    /// Instant the whole answer was read, ns from the origin.
    pub read_ns: u64,
    /// Whether it was a post.
    pub is_post: bool,
    /// How it ended.
    pub outcome: Outcome,
}

/// What one run of the driver produced.
pub struct RunLog {
    /// Every answer read, in arrival order.
    pub answers: Vec<Answer>,
    /// Due instants (ns from the origin) of requests never answered.
    pub unanswered: Vec<u64>,
    /// Driver-side spans of the seconds a traced run traces.
    pub spans: Vec<Span>,
    /// The run's origin.
    pub origin: Instant,
}

/// One send in the writer's log; its index there is its correlation id.
struct Sent {
    due_ns: u64,
    sent_ns: u64,
}

/// One answer in the reader's log.
struct Received {
    corr: u64,
    read_ns: u64,
    outcome: Outcome,
}

/// Joins the reader's log to the writer's by correlation id: the answers
/// in arrival order, and the due instants of the sends no answer names.
/// An answer that names no send, or one already answered, is an error.
fn match_logs(
    sends: &[Sent],
    received: &[Received],
    requests: &[Prepared],
) -> std::io::Result<(Vec<Answer>, Vec<u64>)> {
    let mut answered = vec![false; sends.len()];
    let mut answers = Vec::with_capacity(received.len());
    for r in received {
        let corr = r.corr as usize;
        let first = answered
            .get_mut(corr)
            .is_some_and(|a| !std::mem::replace(a, true));
        if !first {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("answer {corr} names no request or names one twice"),
            ));
        }
        answers.push(Answer {
            due_ns: sends[corr].due_ns,
            sent_ns: sends[corr].sent_ns,
            read_ns: r.read_ns,
            is_post: requests[corr % requests.len()].is_post,
            outcome: r.outcome,
        });
    }
    let unanswered = sends
        .iter()
        .zip(&answered)
        .filter(|(_, answered)| !**answered)
        .map(|(sent, _)| sent.due_ns)
        .collect();
    Ok((answers, unanswered))
}

/// Accumulates bytes from a stream with a read timeout and hands out
/// whole frames; a timeout in the middle of a frame loses nothing.
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl FrameReader {
    /// The next whole frame's bytes, `Ok(None)` when the read timed out
    /// first.
    fn next_frame(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        loop {
            if self.buf.len() >= HEADER_LEN {
                let header: [u8; HEADER_LEN] =
                    self.buf[..HEADER_LEN].try_into().expect("length checked");
                let (_, body_len, _) = parse_header(&header)
                    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
                let total = HEADER_LEN + body_len;
                if self.buf.len() >= total {
                    let rest = self.buf.split_off(total);
                    return Ok(Some(std::mem::replace(&mut self.buf, rest)));
                }
            }
            let mut chunk = [0u8; 8192];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    // The kernel drops back to delayed ACKs on its own;
                    // ask for immediate ones again after every read.
                    self.stream.set_quickack(true)?;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Sleeps until `at` (returns at once when it has passed).
pub fn sleep_until(at: Instant) {
    if let Some(wait) = at.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// Parameters of one run.
pub struct RunSpec<'a> {
    /// The workload (its load shape).
    pub workload: &'a Workload,
    /// Timed window, seconds, after [`WARMUP_SECONDS`] of warm-up.
    pub seconds: u64,
    /// Record driver-side spans (see [`in_traced_second`]).
    pub traced: bool,
}

/// A traced run records driver-side spans in the odd seconds of the run
/// and none in the even ones, so that the two sets of latencies it
/// compares for the tracing overhead saw the same box.
pub fn in_traced_second(ns: u64) -> bool {
    (ns / 1_000_000_000) % 2 == 1
}

/// Drives `requests` at the UA listening on `ua` and returns what the
/// reader saw. While the writer and reader threads work, the calling
/// thread runs `during` (the window-edge probes) with the run's origin.
///
/// Every send carries a new correlation id, its index in the writer's
/// log (in closed loop the request it carries is `id % requests.len()`).
/// The two threads share only the socket and the counts of sends and of
/// answers (in open loop the writer keeps at most [`OPEN_IN_FLIGHT`]
/// requests unanswered); sends and answers are matched after both have
/// ended, so a send without an answer is always found and counted.
pub fn run<R>(
    spec: &RunSpec<'_>,
    ua: SocketAddr,
    requests: Vec<Prepared>,
    client: UserClient,
    during: impl FnOnce(Instant) -> R,
) -> std::io::Result<(RunLog, R)> {
    let mut stream = TcpStream::connect(ua)?;
    stream.set_nodelay(true)?;
    stream.set_quickack(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let read_half = stream.try_clone()?;

    let sent_total = AtomicU64::new(0);
    let answered_total = AtomicU64::new(0);
    let writer_done = AtomicBool::new(false);
    let (credit_tx, credit_rx) = mpsc::channel::<()>();

    // Leave the threads time to start before the first request is due.
    let origin = Instant::now() + Duration::from_millis(30);
    let end_ns = (WARMUP_SECONDS + spec.seconds) * 1_000_000_000;
    let load = spec.workload.load;
    let traced = spec.traced;

    // The thread bodies take the socket halves, the credit channel and
    // the client by value and share everything else by reference.
    let requests = &requests;
    let (sent_total, answered_total, writer_done) = (&sent_total, &answered_total, &writer_done);

    let mut write = move || -> std::io::Result<(Vec<Sent>, Vec<Span>)> {
        let mut sends: Vec<Sent> = Vec::with_capacity(requests.len());
        let mut spans = Vec::new();
        let mut send = |due_ns: u64| -> std::io::Result<()> {
            // `sent` is the instant the writer got to the request, which
            // is what generator lateness means.
            let sent_ns = ns_since(origin);
            let corr = sends.len();
            let frame = Frame {
                class: PadClass::Request,
                corr: corr as u64,
                payload: requests[corr % requests.len()].payload.clone(),
            }
            .encode()
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e))?;
            stream.write_all(&frame)?;
            sends.push(Sent { due_ns, sent_ns });
            sent_total.fetch_add(1, Ordering::Release);
            if traced && in_traced_second(sent_ns) {
                let end = ns_since(origin);
                spans.push(Span::new("driver.write", sent_ns, end, None, corr as u32));
            }
            Ok(())
        };
        match load {
            Load::Open { .. } => {
                for (index, request) in requests.iter().enumerate() {
                    sleep_until(origin + Duration::from_micros(request.due_us));
                    // At most [`OPEN_IN_FLIGHT`] unanswered; the wait
                    // counts as latency and as generator lateness.
                    let waiting_since = Instant::now();
                    while index as u64 - answered_total.load(Ordering::Acquire) >= OPEN_IN_FLIGHT {
                        if waiting_since.elapsed() > SLOT_TIMEOUT {
                            return Err(std::io::Error::new(
                                ErrorKind::TimedOut,
                                format!("no answer for {SLOT_TIMEOUT:?} with {OPEN_IN_FLIGHT} requests in flight"),
                            ));
                        }
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    send(request.due_us * 1000)?;
                }
            }
            Load::Closed { window } => {
                let mut credits = window;
                sleep_until(origin);
                loop {
                    let now = ns_since(origin);
                    if now >= end_ns {
                        break;
                    }
                    if credits == 0 {
                        match credit_rx.recv_timeout(Duration::from_nanos(end_ns - now)) {
                            Ok(()) => credits += 1,
                            Err(_) => break,
                        }
                        continue;
                    }
                    credits -= 1;
                    send(now)?;
                }
            }
        }
        Ok((sends, spans))
    };

    let read = move || -> std::io::Result<(Vec<Received>, Vec<Span>)> {
        let closed = matches!(load, Load::Closed { .. });
        let mut frames = FrameReader {
            stream: read_half,
            buf: Vec::with_capacity(16 * 1024),
        };
        let mut received: Vec<Received> = Vec::new();
        let mut spans = Vec::new();
        let mut idle_since: Option<Instant> = None;
        loop {
            let done = writer_done.load(Ordering::Acquire);
            if done && answered_total.load(Ordering::Relaxed) >= sent_total.load(Ordering::Acquire)
            {
                break;
            }
            let Some(bytes) = frames.next_frame()? else {
                if done && idle_since.get_or_insert_with(Instant::now).elapsed() > DRAIN_TIMEOUT {
                    break;
                }
                continue;
            };
            let read_ns = ns_since(origin);
            idle_since = None;
            answered_total.fetch_add(1, Ordering::Release);
            if closed {
                let _ = credit_tx.send(());
            }
            let frame = Frame::decode(&bytes)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
            // An id the writer never used is caught when the logs are
            // matched; here it only selects the request to verify against.
            let request = &requests[frame.corr as usize % requests.len()];
            let outcome = verify(&client, request, &frame);
            if traced && in_traced_second(read_ns) {
                let end = ns_since(origin);
                spans.push(Span::new(
                    "driver.verify",
                    read_ns,
                    end,
                    None,
                    frame.corr as u32,
                ));
            }
            received.push(Received {
                corr: frame.corr,
                read_ns,
                outcome,
            });
        }
        Ok((received, spans))
    };

    let (written, read, observed) = std::thread::scope(|scope| {
        let spawn = |name: &str| std::thread::Builder::new().name(name.into());
        let writer = spawn("bench-writer").spawn_scoped(scope, move || {
            let result = write();
            writer_done.store(true, Ordering::Release);
            result
        });
        let reader = spawn("bench-reader").spawn_scoped(scope, read);
        sleep_until(origin);
        let observed = during(origin);
        (
            writer.map(|h| h.join().expect("writer thread panicked")),
            reader.map(|h| h.join().expect("reader thread panicked")),
            observed,
        )
    });
    let (sends, mut spans) = written??;
    let (received, reader_spans) = read??;
    spans.extend(reader_spans);

    let (answers, unanswered) = match_logs(&sends, &received, requests)?;
    if traced {
        spans.extend(
            received
                .iter()
                .filter(|r| in_traced_second(r.read_ns))
                .map(|r| {
                    let due_ns = sends[r.corr as usize].due_ns;
                    Span::new("driver.request", due_ns, r.read_ns, None, r.corr as u32)
                }),
        );
    }

    Ok((
        RunLog {
            answers,
            unanswered,
            spans,
            origin,
        },
        observed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_send_without_an_answer_is_found() {
        let request = |is_post| Prepared {
            payload: Vec::new(),
            due_us: 0,
            is_post,
            ticket: None,
            expect: Expect::Ack,
        };
        // A pool of two requests sent five times over: ids 0..5.
        let requests = [request(false), request(true)];
        let sends: Vec<Sent> = (0..5u64)
            .map(|i| Sent {
                due_ns: i * 10,
                sent_ns: i * 10 + 1,
            })
            .collect();
        let read = |corr, read_ns| Received {
            corr,
            read_ns,
            outcome: Outcome::Ok,
        };
        let received = [read(1, 30), read(0, 35), read(4, 70)];
        let (answers, unanswered) = match_logs(&sends, &received, &requests).unwrap();
        assert_eq!(unanswered, vec![20, 30]);
        let seen: Vec<_> = answers
            .iter()
            .map(|a| (a.due_ns, a.sent_ns, a.read_ns, a.is_post))
            .collect();
        assert_eq!(
            seen,
            [(10, 11, 30, true), (0, 1, 35, false), (40, 41, 70, false)]
        );
        // An id the writer never used, and an id answered twice.
        assert!(match_logs(&sends, &[read(5, 80)], &requests).is_err());
        assert!(match_logs(&sends, &[read(2, 50), read(2, 60)], &requests).is_err());
    }

    #[test]
    fn a_refusal_is_not_a_wrong_answer() {
        assert_eq!(refusal(&WireStatus::Busy.to_payload()), Outcome::Busy);
        assert_eq!(
            refusal(&WireStatus::Deadline.to_payload()),
            Outcome::Refused
        );
        assert_eq!(
            refusal(&WireStatus::Unavailable.to_payload()),
            Outcome::Refused
        );
        assert_eq!(refusal(b"{\"ok\":true}"), Outcome::Wrong);
        assert_eq!(refusal(b""), Outcome::Wrong);
    }

    #[test]
    fn catalogue_lists_are_recognised() {
        let ok = vec!["m00001".to_owned(), "m00799".to_owned()];
        assert!(is_catalogue_list(&ok, 800));
        assert!(is_catalogue_list(&[], 800));
        let out_of_range = vec!["m00800".to_owned()];
        assert!(!is_catalogue_list(&out_of_range, 800));
        let duplicate = vec!["m00001".to_owned(), "m00001".to_owned()];
        assert!(!is_catalogue_list(&duplicate, 800));
        let foreign = vec!["stub-item-0001".to_owned()];
        assert!(!is_catalogue_list(&foreign, 800));
    }
}
